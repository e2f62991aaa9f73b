//! The counts run: the workload once more on a `stats` build, read
//! through `LfMalloc::stats()`. It reports counts and ratios of counts,
//! each with its base, and never a time: the telemetry build reads the
//! clock on every op, so its timings would describe the instrumentation.

use crate::report::Report;
use crate::{new_lf, run_phase, setup, Direct, Lf, Limit, Target, Workload};
use std::time::Duration;

/// The counters the ratios are built from.
#[derive(Clone, Copy, Debug, Default)]
struct Counts {
    fast: u64,
    partial: u64,
    newsb: u64,
    free_local: u64,
    free_remote: u64,
    free_empty: u64,
    active_cas: u64,
    active_cas_first: u64,
    anchor_cas: u64,
    anchor_cas_first: u64,
    scans: u64,
    reclaimed: u64,
    source_calls: u64,
}

impl Counts {
    fn take(a: &Lf) -> Counts {
        let s = a.stats();
        let t = &s.totals;
        Counts {
            fast: t.malloc_fast,
            partial: t.malloc_slow,
            newsb: t.malloc_newsb,
            free_local: t.free_local,
            free_remote: t.free_remote,
            free_empty: t.free_empty,
            active_cas: t.active_cas.iter().sum(),
            active_cas_first: t.active_cas[0],
            anchor_cas: t.anchor_cas.iter().sum(),
            anchor_cas_first: t.anchor_cas[0],
            scans: s.hazard.scans,
            reclaimed: s.hazard.reclaimed,
            source_calls: (s.os.os_allocs + s.os.os_frees) as u64,
        }
    }

    fn since(self, b: Counts) -> Counts {
        Counts {
            fast: self.fast - b.fast,
            partial: self.partial - b.partial,
            newsb: self.newsb - b.newsb,
            free_local: self.free_local - b.free_local,
            free_remote: self.free_remote - b.free_remote,
            free_empty: self.free_empty - b.free_empty,
            active_cas: self.active_cas - b.active_cas,
            active_cas_first: self.active_cas_first - b.active_cas_first,
            anchor_cas: self.anchor_cas - b.anchor_cas,
            anchor_cas_first: self.anchor_cas_first - b.anchor_cas_first,
            scans: self.scans - b.scans,
            reclaimed: self.reclaimed - b.reclaimed,
            source_calls: self.source_calls - b.source_calls,
        }
    }
}

/// `num` per `den` (times `scale`), with the counts as its base.
fn ratio(
    r: &mut Report,
    name: &str,
    num: (u64, &str),
    den: (u64, &str),
    unit: &'static str,
    scale: f64,
) {
    let value = if den.0 == 0 {
        0.0
    } else {
        num.0 as f64 * scale / den.0 as f64
    };
    r.metric(
        name,
        value,
        unit,
        den.0,
        Some(format!("{} {} / {} {}", num.0, num.1, den.0, den.1)),
    );
}

/// Sets up as the timed run does, then counts one phase of
/// `seconds` (at most two).
pub fn run(workload: Workload, seed: u64, seconds: f64, tiny: bool) -> Report {
    let ready = setup(workload, seed, tiny, 1, &new_lf);
    let (inputs, a) = (&ready.inputs, &ready.alloc);
    let before = Counts::take(a);
    let phase = run_phase(
        &Direct(a),
        inputs,
        Limit::Time(Duration::from_secs_f64(seconds.min(2.0))),
    );
    let c = Counts::take(a).since(before);
    let ops = phase.ops();
    let mallocs = c.fast + c.partial + c.newsb;
    let frees = c.free_local + c.free_remote;

    let mut r = Report::new();
    r.count_ops(ready.warm_ops, ready.warm_failed);
    r.count_ops(ops, phase.failed());
    r.audit(a.audit_clean());
    let m = (mallocs, "small mallocs");
    let f = (frees, "small frees");
    ratio(
        &mut r,
        "alloc.fast_ratio",
        (c.fast, "from the active superblock"),
        m,
        "ratio",
        1.0,
    );
    ratio(
        &mut r,
        "alloc.partial_ratio",
        (c.partial, "from a partial superblock"),
        m,
        "ratio",
        1.0,
    );
    ratio(
        &mut r,
        "alloc.newsb_ratio",
        (c.newsb, "from a new superblock"),
        m,
        "ratio",
        1.0,
    );
    let retried = c.active_cas - c.active_cas_first;
    ratio(
        &mut r,
        "heap.active_cas_retry_ratio",
        (retried, "retried"),
        (c.active_cas, "Active reservations"),
        "ratio",
        1.0,
    );
    let retried = c.anchor_cas - c.anchor_cas_first;
    ratio(
        &mut r,
        "descriptor.anchor_cas_retry_ratio",
        (retried, "retried"),
        (c.anchor_cas, "Anchor updates"),
        "ratio",
        1.0,
    );
    ratio(
        &mut r,
        "free_impl.empty_ratio",
        (c.free_empty, "emptied a superblock"),
        f,
        "ratio",
        1.0,
    );
    ratio(
        &mut r,
        "free_impl.remote_ratio",
        (c.free_remote, "from another heap"),
        f,
        "ratio",
        1.0,
    );
    ratio(
        &mut r,
        "hazard.scans_per_kop",
        (c.scans, "hazard scans"),
        (ops, "ops"),
        "1/kop",
        1000.0,
    );
    ratio(
        &mut r,
        "hazard.reclaimed_per_scan",
        (c.reclaimed, "reclaimed"),
        (c.scans, "scans"),
        "1/scan",
        1.0,
    );
    ratio(
        &mut r,
        "osmem.source_calls_per_kop",
        (c.source_calls, "page-source calls"),
        (ops, "ops"),
        "1/kop",
        1000.0,
    );
    r
}
