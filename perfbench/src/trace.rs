//! The traced run: a recorder around the allocator handle.
//!
//! Each worker's [`TracedCaller`] records a span around every op and a
//! child span around every `malloc`/`free` the op makes, labelled by
//! size class or `large`. Spans stay in memory, one buffer per thread,
//! and are summarized and written out when the run ends. The cost of an
//! empty span is calibrated first and subtracted.

use crate::report::{median, percentile, Report};
use crate::{run_phase, Caller, Direct, Inputs, Limit, Subject, Target};
use lfmalloc::config::PREFIX_SIZE;
use lfmalloc::size_classes::class_index;
use malloc_api::RawMalloc;
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Span kinds.
pub const OP: u8 = 0;
pub const MALLOC: u8 = 1;
pub const FREE: u8 = 2;
/// Label of a call that went to the large-block path.
pub const LARGE: u8 = u8::MAX;

/// Spans one thread may record; the traced phase ends when a buffer is
/// nearly full.
pub const SPAN_CAP: usize = 1 << 20;
/// Room kept free for the batch in flight: one `sbchurn-2t` round
/// records 2 × 2048 ops with one call span each.
const SPAN_MARGIN: usize = 16 * 1024;
/// Spans per thread written out verbatim next to the summary.
const SPANS_WRITTEN: usize = 4096;

/// One recorded interval, in clock ticks (see [`Calibration`]). `op` is
/// the index of the op span that caused it (its parent); op spans carry
/// their own index.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub start: u64,
    pub dur: u32,
    pub op: u32,
    pub kind: u8,
    pub label: u8,
}

/// Hands out recording callers; collects their buffers when they drop.
pub struct Traced<'a, A> {
    inner: &'a A,
    base: Instant,
    cap: usize,
    done: Mutex<Vec<Vec<Span>>>,
}

impl<'a, A> Traced<'a, A> {
    pub fn new(inner: &'a A, cap: usize) -> Self {
        Traced {
            inner,
            base: Instant::now(),
            cap,
            done: Mutex::new(Vec::new()),
        }
    }

    /// The per-thread span buffers of every caller handed out.
    pub fn into_spans(self) -> Vec<Vec<Span>> {
        self.done.into_inner().expect("a traced worker panicked")
    }
}

impl<A: RawMalloc + Sync> Subject for Traced<'_, A> {
    type Caller<'b>
        = TracedCaller<'b, A>
    where
        Self: 'b;
    fn caller(&self) -> TracedCaller<'_, A> {
        TracedCaller {
            inner: self.inner,
            base: self.base,
            spans: Vec::with_capacity(self.cap),
            cap: self.cap,
            op: 0,
            op_start: 0,
            home: &self.done,
        }
    }
}

/// One thread's recorder.
pub struct TracedCaller<'a, A> {
    inner: &'a A,
    base: Instant,
    spans: Vec<Span>,
    cap: usize,
    op: u32,
    op_start: u64,
    home: &'a Mutex<Vec<Vec<Span>>>,
}

/// Span timestamps in clock ticks: the time-stamp counter where there
/// is one (a fraction of the cost of `Instant::now`, which reads it
/// through the vDSO), nanoseconds since `base` elsewhere.
#[cfg(target_arch = "x86_64")]
#[inline]
fn now(_base: Instant) -> u64 {
    // SAFETY: `rdtsc` has no preconditions on x86-64.
    unsafe { core::arch::x86_64::_rdtsc() }
}

#[cfg(not(target_arch = "x86_64"))]
#[inline]
fn now(base: Instant) -> u64 {
    base.elapsed().as_nanos() as u64
}

/// Nanoseconds per tick of [`now`], measured against `Instant` over
/// `window`.
fn ns_per_tick(window: Duration) -> f64 {
    let base = Instant::now();
    let (i0, t0) = (Instant::now(), now(base));
    while i0.elapsed() < window {
        std::hint::spin_loop();
    }
    let (i1, t1) = (Instant::now(), now(base));
    (i1 - i0).as_nanos() as f64 / (t1 - t0).max(1) as f64
}

#[inline]
fn label(size: usize) -> u8 {
    size.checked_add(PREFIX_SIZE)
        .and_then(class_index)
        .map_or(LARGE, |c| c as u8)
}

impl<A> TracedCaller<'_, A> {
    #[inline]
    fn push(&mut self, kind: u8, label: u8, t0: u64, t1: u64) {
        if self.spans.len() < self.cap {
            let dur = t1.saturating_sub(t0).min(u32::MAX as u64) as u32;
            self.spans.push(Span {
                start: t0,
                dur,
                op: self.op,
                kind,
                label,
            });
        }
    }
}

impl<A: RawMalloc + Sync> Caller for TracedCaller<'_, A> {
    #[inline]
    unsafe fn malloc(&mut self, size: usize) -> *mut u8 {
        let l = label(size);
        let t0 = now(self.base);
        let p = unsafe { self.inner.malloc(size) };
        let t1 = now(self.base);
        self.push(MALLOC, l, t0, t1);
        p
    }

    #[inline]
    unsafe fn free(&mut self, p: *mut u8, size: usize) {
        let l = label(size);
        let t0 = now(self.base);
        unsafe { self.inner.free(p) };
        let t1 = now(self.base);
        self.push(FREE, l, t0, t1);
    }

    #[inline]
    fn op_begin(&mut self) {
        self.op_start = now(self.base);
    }

    #[inline]
    fn op_end(&mut self) {
        let t = now(self.base);
        self.push(OP, 0, self.op_start, t);
        self.op = self.op.wrapping_add(1);
    }

    #[inline]
    fn full(&self) -> bool {
        self.spans.len() + SPAN_MARGIN >= self.cap
    }
}

impl<A> Drop for TracedCaller<'_, A> {
    fn drop(&mut self) {
        // A poisoned lock means another worker panicked; the run fails
        // on that join, so these spans are not needed.
        if let Ok(mut done) = self.home.lock() {
            done.push(std::mem::take(&mut self.spans));
        }
    }
}

/// Tracing's clock and its own cost, measured before the traced phase.
#[derive(Clone, Copy, Debug)]
pub struct Calibration {
    pub ns_per_tick: f64,
    /// Duration an empty span reads (two clock reads back to back);
    /// subtracted from every call span.
    pub empty_span_ns: f64,
    /// Worker time one recorded span costs (two clock reads and the
    /// push); subtracted from worker time per span.
    pub record_ns: f64,
}

struct Nop;
// SAFETY: never called; it only gives the calibration caller a type.
unsafe impl RawMalloc for Nop {
    unsafe fn malloc(&self, _size: usize) -> *mut u8 {
        core::ptr::null_mut()
    }
    unsafe fn free(&self, _ptr: *mut u8) {}
    fn name(&self) -> &str {
        "nop"
    }
}

pub fn calibrate(tiny: bool) -> Calibration {
    let ns_per_tick = ns_per_tick(Duration::from_millis(if tiny { 5 } else { 100 }));
    let base = Instant::now();
    let n = if tiny { 2_000 } else { 200_000 };
    let mut empty: Vec<f64> = (0..n)
        .map(|_| {
            let t0 = now(base);
            let t1 = now(base);
            t1.saturating_sub(t0) as f64 * ns_per_tick
        })
        .collect();
    let empty_span_ns = median(&mut empty);
    let nop = Nop;
    let tr = Traced::new(&nop, n);
    let mut per_span: Vec<f64> = (0..5)
        .map(|_| {
            let mut c = tr.caller();
            let t0 = Instant::now();
            for _ in 0..n {
                c.op_begin();
                c.op_end();
            }
            let dt = t0.elapsed().as_nanos() as f64 / n as f64;
            std::hint::black_box(c.spans.len());
            dt
        })
        .collect();
    Calibration {
        ns_per_tick,
        empty_span_ns,
        record_ns: median(&mut per_span),
    }
}

/// Untraced phase, then traced phase, each half of `seconds`, on an
/// allocator already set up for `inputs`. Reports the `trace.*` metrics
/// and writes the spans under `out` when given.
pub fn traced_run<A: Target>(
    a: &A,
    inputs: &Inputs,
    seconds: f64,
    tiny: bool,
    out: Option<&Path>,
) -> Report {
    let calib = calibrate(tiny);
    let half = Limit::Time(Duration::from_secs_f64(seconds / 2.0));
    let plain = run_phase(&Direct(a), inputs, half);
    let tr = Traced::new(a, SPAN_CAP);
    let traced = run_phase(&tr, inputs, half);
    let threads = tr.into_spans();

    let mut r = Report::new();
    r.count_ops(plain.ops(), plain.failed());
    r.count_ops(traced.ops(), traced.failed());
    r.audit(a.audit_clean());

    let ns = |ticks: u32| ticks as f64 * calib.ns_per_tick;
    // Tracing work inside an op span but outside its child spans: the
    // label lookup and the push of each child.
    let inner_ns = (calib.record_ns - calib.empty_span_ns).max(0.0);
    let (mut mallocs, mut frees, mut larges) = (Vec::new(), Vec::new(), Vec::new());
    let (mut alloc_ns, mut op_self_ns, mut spans) = (0.0, 0.0, 0u64);
    for thread in &threads {
        // A thread's children are recorded before the op span closing
        // them.
        let (mut child_ns, mut children, mut large_ns) = (0.0, 0.0, 0.0);
        for s in thread {
            spans += 1;
            if s.kind == OP {
                op_self_ns +=
                    (ns(s.dur) - calib.empty_span_ns - child_ns - children * inner_ns).max(0.0);
                if large_ns > 0.0 {
                    larges.push(large_ns);
                }
                (child_ns, children, large_ns) = (0.0, 0.0, 0.0);
                continue;
            }
            child_ns += ns(s.dur);
            children += 1.0;
            let d = (ns(s.dur) - calib.empty_span_ns).max(0.0);
            alloc_ns += d;
            if s.kind == MALLOC {
                &mut mallocs
            } else {
                &mut frees
            }
            .push(d);
            if s.label == LARGE {
                large_ns += d;
            }
        }
    }
    for v in [&mut mallocs, &mut frees, &mut larges] {
        v.sort_by(f64::total_cmp);
    }
    r.metric(
        "trace.alloc_share",
        alloc_ns / (alloc_ns + op_self_ns).max(1.0),
        "ratio",
        (mallocs.len() + frees.len()) as u64,
        Some(format!(
            "{alloc_ns:.0} ns allocator self-time of {:.0} ns in ops ({spans} spans, {:.1} ns tracing each)",
            alloc_ns + op_self_ns,
            calib.record_ns
        )),
    );
    let calls =
        |name: &str, v: &[f64], q: f64| (name.to_string(), percentile(v, q), v.len() as u64);
    for (name, value, n) in [
        calls("trace.malloc_ns_p50", &mallocs, 0.5),
        calls("trace.malloc_ns_p99", &mallocs, 0.99),
        calls("trace.free_ns_p50", &frees, 0.5),
        calls("trace.free_ns_p99", &frees, 0.99),
        calls("trace.large_ns_p50", &larges, 0.5),
    ] {
        r.metric(
            &name,
            value,
            "ns",
            n,
            Some(format!(
                "empty span {:.1} ns subtracted",
                calib.empty_span_ns
            )),
        );
    }
    r.metric(
        "trace.overhead_ratio",
        plain.ops_per_s() / traced.ops_per_s(),
        "ratio",
        traced.ops(),
        Some(format!(
            "{:.0} untraced / {:.0} traced ops/s",
            plain.ops_per_s(),
            traced.ops_per_s()
        )),
    );
    if let Some(dir) = out {
        let path = dir.join(format!(
            "trace-{}-seed{}.jsonl",
            inputs.workload.name(),
            inputs.seed
        ));
        if let Err(e) = write_spans(&path, &threads, calib) {
            r.notes
                .push(format!("could not write {}: {e}", path.display()));
        }
    }
    r
}

/// Writes one summary line per (kind, label), then the first spans of
/// each thread, as JSON lines.
fn write_spans(path: &Path, threads: &[Vec<Span>], calib: Calibration) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "{{\"ns_per_tick\":{},\"empty_span_ns\":{},\"record_ns\":{}}}",
        calib.ns_per_tick, calib.empty_span_ns, calib.record_ns
    )?;
    let mut groups: std::collections::BTreeMap<(u8, u8), Vec<f64>> = Default::default();
    for s in threads.iter().flatten() {
        groups
            .entry((s.kind, s.label))
            .or_default()
            .push(s.dur as f64 * calib.ns_per_tick);
    }
    for ((kind, label), mut v) in groups {
        v.sort_by(f64::total_cmp);
        writeln!(
            w,
            "{{\"kind\":{kind},\"label\":{label},\"count\":{},\"sum_ns\":{},\"p50_ns\":{},\"p99_ns\":{}}}",
            v.len(),
            v.iter().sum::<f64>(),
            percentile(&v, 0.5),
            percentile(&v, 0.99)
        )?;
    }
    for (t, spans) in threads.iter().enumerate() {
        for s in spans.iter().take(SPANS_WRITTEN) {
            writeln!(
                w,
                "{{\"thread\":{t},\"op\":{},\"kind\":{},\"label\":{},\"start_ticks\":{},\"dur_ticks\":{}}}",
                s.op, s.kind, s.label, s.start, s.dur
            )?;
        }
    }
    w.flush()
}
