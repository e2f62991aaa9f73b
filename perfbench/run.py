#!/usr/bin/env python3
"""Benchmark of lfmalloc: one workload, one seed, one mode per call.

Run from the root of the repository:

    python3 perfbench/run.py --workload pairs-1t --seed 1 --seconds 10 --trace 0

--trace 0  end-to-end metrics, from the default (uninstrumented) build.
--trace 1  per-layer metrics: layer probes and the traced run on the
           default build, counts from a `stats` build (counts only).

Builds the benchmark package from source first (cargo, offline; the
target directory is $CARGO_TARGET_DIR, else perfbench/target). Prints a
run header, one line per metric with its unit, sample count and base, a
`record` line of JSON with all of it, and last one JSON line:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}
holding the metrics BENCHMARK.json lists for the mode.

Exit status: 0 when every check passed, 1 when an allocator output was
wrong (the result line says so), 2 when the benchmark could not run
(bad arguments, a failed build, a missing metric); no result line then.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Everything a run must finish within, build excluded.
RUN_BUDGET_S = 170
# The crates whose code the benchmark measures, for the source digest.
MEASURED = ["lfmalloc", "osmem", "hazard", "lockfree-structs", "malloc-api"]


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def build(target_dir, binary, features):
    cmd = ["cargo", "build", "--release", "--offline", "--locked",
           "--manifest-path", str(HERE / "Cargo.toml"), "--bin", binary]
    if features:
        cmd += ["--features", features]
    env = dict(os.environ, CARGO_TARGET_DIR=str(target_dir))
    proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        die(f"building {binary} failed")
    return target_dir / "release" / binary


def first_line(cmd, path=None):
    try:
        if path:
            return Path(path).read_text().strip() or None
        out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=20)
        return out.stdout.strip() if out.returncode == 0 else None
    except (OSError, subprocess.SubprocessError):
        return None


def source_digest():
    """sha256 over the measured crates and the benchmark's own files."""
    h = hashlib.sha256()
    files = []
    for c in MEASURED:
        files += sorted((ROOT / "crates" / c).rglob("*.rs")) + [ROOT / "crates" / c / "Cargo.toml"]
    files += sorted((HERE / "src").rglob("*.rs")) + [HERE / "Cargo.toml", HERE / "Cargo.lock"]
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    return h.hexdigest()[:16]


def cpu_ticks():
    """(steal, total) jiffies of all CPUs, or None where unavailable."""
    try:
        fields = [int(x) for x in Path("/proc/stat").read_text().split("\n")[0].split()[1:]]
        return fields[7], sum(fields)
    except (OSError, IndexError, ValueError):
        return None


def header(args):
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc,
        "clocksource": first_line(None, "/sys/devices/system/clocksource/clocksource0/current_clocksource"),
        "rustc": first_line(["rustc", "-V"]),
        "git_rev": first_line(["git", "rev-parse", "HEAD"]),
        "source_digest": source_digest(),
    }


def run_bin(exe, args, deadline):
    cmd = [str(exe)] + args
    left = deadline - time.monotonic()
    if left <= 0:
        die("out of time before " + " ".join(cmd[:2]))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=left)
    except subprocess.TimeoutExpired:
        die(f"{exe.name} did not finish in time")
    lines = proc.stdout.rstrip("\n").split("\n")
    sys.stderr.write(proc.stderr)
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        die(f"{exe.name} exited with {proc.returncode} and no result")
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    if (proc.returncode == 0) != result["correct"]:
        die(f"{exe.name}: exit status {proc.returncode} disagrees with its result")
    return result


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=[0, 1])
    p.add_argument("--tiny", action="store_true",
                   help="short warm-up, probes and counts (self-tests only)")
    args = p.parse_args()
    if args.seed < 0 or not 0 < args.seconds <= 60:
        die("--seed must be >= 0 and --seconds in (0, 60]")

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        die("BENCHMARK.json not found at the repository root")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    target_dir = Path(os.environ.get("CARGO_TARGET_DIR") or HERE / "target")
    if not target_dir.is_absolute():
        target_dir = ROOT / target_dir
    exe = build(target_dir, "lfbench", None)
    counts_exe = build(target_dir, "lfbench-counts", "stats") if args.trace else None

    deadline = time.monotonic() + RUN_BUDGET_S
    head = header(args)
    print("run: " + " ".join(f"{k}={v}" for k, v in head.items()))
    ticks0 = cpu_ticks()
    common = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.tiny:
        common.append("--tiny")
    if args.trace:
        out = ["--out", str(target_dir / "perfbench-spans")]
        results = [run_bin(exe, ["layers"] + common + out, deadline),
                   run_bin(counts_exe, common, deadline)]
    else:
        results = [run_bin(exe, ["e2e"] + common, deadline)]

    metrics = {}
    for r in results:
        metrics.update(r["metrics"])
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            die(f"metric {m['name']} ({m['unit']}) missing from the run")
    verdict = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
    }
    ticks1 = cpu_ticks()
    if ticks0 and ticks1 and ticks1[1] > ticks0[1]:
        # CPU time the hypervisor gave to others during the run.
        head["steal_share"] = (ticks1[0] - ticks0[0]) / (ticks1[1] - ticks0[1])
    record = dict(head, **verdict,
                  problems=[x for r in results for x in r["problems"]],
                  notes=[x for r in results for x in r["notes"]],
                  metrics=metrics)
    print("record " + json.dumps(record, sort_keys=True))
    verdict["metrics"] = {m["name"]: {"value": metrics[m["name"]]["value"], "unit": m["unit"]}
                          for m in wanted}
    print(json.dumps(verdict))
    sys.exit(0 if verdict["correct"] else 1)


if __name__ == "__main__":
    main()
