#!/usr/bin/env python3
"""Self-tests of the benchmark. Run from the root of the repository:

    python3 perfbench/selftest.py

1. A tiny-scale run of every workload (prodcons-2t too, which
   BENCHMARK.json does not gate), in both modes, exits 0 and emits
   every metric BENCHMARK.json names, with its unit (run.py itself also
   refuses a run that misses one).
2. perfbench/layers.json maps every per-layer metric to the end-to-end
   metrics and workloads it should move.
3. The planted faulty allocator of perfbench/tests/planted_fault.rs
   (one block handed out twice) drives failed_ops_ratio above 0 and
   fails the run: `cargo test` in perfbench.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Every workload the benchmark runs, gated by BENCHMARK.json or not.
WORKLOADS = ["pairs-1t", "sbchurn-2t", "prodcons-2t", "large-1t"]


def tiny_runs(spec):
    bad = []
    for w in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            cmd = ["python3", "perfbench/run.py", "--workload", w, "--seed", "11",
                   "--seconds", "1", "--trace", str(trace), "--tiny"]
            p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if p.returncode != 0:
                bad.append(f"{w} trace={trace}: exit {p.returncode}\n{p.stderr[-2000:]}")
                continue
            result = json.loads(p.stdout.strip().split("\n")[-1])
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                bad.append(f"{w} trace={trace}: metrics {sorted(got.items())} != {sorted(want.items())}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                bad.append(f"{w} trace={trace}: verdict {result}")
            print(f"ok  {w} trace={trace}: {len(got)} metrics")
    return bad


def layer_map(spec):
    layers = json.loads((ROOT / "perfbench" / "layers.json").read_text())["layers"]
    mapped = sorted(l["name"] for l in layers)
    named = sorted(m["name"] for m in spec["per_layer"])
    return [] if mapped == named else [f"layers.json covers {mapped}, BENCHMARK.json names {named}"]


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bad = layer_map(spec) + tiny_runs(spec)
    p = subprocess.run(["cargo", "test", "--release", "--offline", "--locked", "--manifest-path",
                        str(ROOT / "perfbench" / "Cargo.toml")], cwd=ROOT)
    if p.returncode != 0:
        bad.append("cargo test (planted fault) failed")
    for b in bad:
        print("FAIL " + b)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
