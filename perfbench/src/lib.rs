//! Closed-loop benchmark of `lfmalloc`.
//!
//! Four workloads, each chosen to load a different set of allocator
//! layers (see [`Workload`]). Every worker thread calls the allocator
//! and waits for the answer before its next call, so the load is a
//! closed loop with one client per thread and at most two threads.
//!
//! Every allocator call goes through a [`Caller`], so the same workload
//! code runs plain ([`Direct`]) or inside the span recorder of
//! [`trace`]. Every block is stamped with a tag derived from the seed
//! and checked before it is freed; a null return or a changed tag
//! counts the op as failed.

#[cfg(feature = "stats")]
pub mod counts;
pub mod probes;
pub mod report;
pub mod trace;

use lfmalloc::{Config, LfMalloc};
use lockfree_structs::Queue;
use malloc_api::testkit::TestRng;
use malloc_api::RawMalloc;
use osmem::{CountingSource, SystemSource};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// The allocator under test: the default configuration over a page
/// source that counts the bytes it hands out (as the `space` binary
/// measures §4.2.5).
pub type Lf = LfMalloc<CountingSource<SystemSource>>;

/// Fixes how the C library serves the page source's requests.
///
/// `SystemSource` gets its pages from the C library. glibc serves a
/// request from `mmap` or from its heap by a threshold that it raises
/// each time it frees a mapped block, and trims its heap by a threshold
/// tied to it, so left alone the large path lands in one of two regimes
/// per run (about 66k or 90k replacements/s on `large-1t`). Fixing both
/// thresholds keeps every run in one regime: requests come from the C
/// library's heap, which keeps its pages. Call before any allocation.
pub fn pin_page_source() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        // SAFETY: `mallopt` only sets tuning parameters of the C
        // library's allocator; both values are in its accepted ranges
        // (the mmap threshold may be at most 32 MiB).
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, 1 << 30);
        }
    }
}

/// Builds a fresh allocator under test.
pub fn new_lf() -> Lf {
    LfMalloc::with_config_and_source(Config::detect(), CountingSource::new(SystemSource::new()))
}

/// An allocator the benchmark can run and check.
pub trait Target: RawMalloc + Sync {
    /// `Err` with a description when the allocator's own integrity
    /// walk finds a violation. Called while no worker runs.
    fn audit_clean(&self) -> Result<(), String>;
}

impl Target for Lf {
    fn audit_clean(&self) -> Result<(), String> {
        let rep = self.audit();
        if rep.is_clean() {
            Ok(())
        } else {
            Err(format!(
                "audit found {} violation(s): {:?}",
                rep.violations.len(),
                rep.violations
            ))
        }
    }
}

/// One worker thread's handle on the allocator. Workloads make every
/// allocator call through it, so a recorder can wrap each call in a
/// span without the workload knowing.
pub trait Caller: Send {
    /// # Safety
    /// The `RawMalloc::malloc` contract.
    unsafe fn malloc(&mut self, size: usize) -> *mut u8;
    /// # Safety
    /// The `RawMalloc::free` contract; `size` is the size `p` was
    /// requested with.
    unsafe fn free(&mut self, p: *mut u8, size: usize);
    /// Marks the start of one workload op.
    #[inline]
    fn op_begin(&mut self) {}
    /// Marks the end of the op begun last.
    #[inline]
    fn op_end(&mut self) {}
    /// True when this caller can record no more ops.
    #[inline]
    fn full(&self) -> bool {
        false
    }
}

/// Hands out one [`Caller`] per worker thread.
pub trait Subject: Sync {
    type Caller<'a>: Caller
    where
        Self: 'a;
    fn caller(&self) -> Self::Caller<'_>;
}

/// Plain calls into the allocator, nothing recorded.
pub struct Direct<'a, A>(pub &'a A);

impl<A: RawMalloc + Sync> Subject for Direct<'_, A> {
    type Caller<'b>
        = &'b A
    where
        Self: 'b;
    fn caller(&self) -> &A {
        self.0
    }
}

impl<A: RawMalloc + Sync> Caller for &A {
    #[inline]
    unsafe fn malloc(&mut self, size: usize) -> *mut u8 {
        unsafe { (**self).malloc(size) }
    }
    #[inline]
    unsafe fn free(&mut self, p: *mut u8, _size: usize) {
        unsafe { (**self).free(p) }
    }
}

// ---------------------------------------------------------------------
// Correctness gate.

/// A 64-bit mix (splitmix64 finalizer).
#[inline]
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The tag of allocation `n` under `seed`. `n` is unique per live
/// block, so a block handed to two owners carries the second owner's
/// tag when the first one checks it.
#[inline]
pub fn tag(seed: u64, n: u64) -> u64 {
    mix(seed ^ mix(n))
}

/// Writes `t` into the first word of a block of `size >= 8` bytes and
/// `!t` into its last word.
///
/// # Safety
/// `p` must point to `size` writable bytes.
#[inline]
pub unsafe fn stamp(p: *mut u8, size: usize, t: u64) {
    unsafe {
        (p as *mut u64).write_unaligned(t);
        if size >= 16 {
            (p.add(size - 8) as *mut u64).write_unaligned(!t);
        }
    }
}

/// Whether the block still carries the stamp `t`.
///
/// # Safety
/// `p` must point to `size` readable bytes.
#[inline]
pub unsafe fn intact(p: *const u8, size: usize, t: u64) -> bool {
    unsafe {
        (p as *const u64).read_unaligned() == t
            && (size < 16 || (p.add(size - 8) as *const u64).read_unaligned() == !t)
    }
}

// ---------------------------------------------------------------------
// Workloads.

/// The four workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Linux-scalability pattern: one thread runs malloc/touch/free
    /// pairs over the small classes up to 256 B. Stays on the Active
    /// reserve and Anchor pop; never reaches the partial lists, the page
    /// pool, `large` or `hazard`.
    Pairs1t,
    /// Threadtest with 256 B–4 KiB blocks on two threads: each round
    /// allocates 2048 blocks and frees them in order, so superblocks are
    /// carved and emptied all the time (page pool, descriptor pool,
    /// hazard retire).
    Sbchurn2t,
    /// The paper's producer-consumer (Fig. 8f, work=500): one producer,
    /// one consumer; most frees are remote.
    Prodcons2t,
    /// One thread replaces blocks in 64 live slots with sizes of
    /// 8–256 KiB, so calls go to `large` and the page source.
    Large1t,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Pairs1t,
        Workload::Sbchurn2t,
        Workload::Prodcons2t,
        Workload::Large1t,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Pairs1t => "pairs-1t",
            Workload::Sbchurn2t => "sbchurn-2t",
            Workload::Prodcons2t => "prodcons-2t",
            Workload::Large1t => "large-1t",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Worker threads the workload runs.
    pub fn threads(self) -> usize {
        match self {
            Workload::Pairs1t | Workload::Large1t => 1,
            Workload::Sbchurn2t | Workload::Prodcons2t => 2,
        }
    }

    /// Batches each worker runs during warm-up (rounds on
    /// `sbchurn-2t`).
    fn warmup_batches(self, tiny: bool) -> u64 {
        // About 2M pairs, 60 rounds, 77k tasks, 19k replacements.
        let n = match self {
            Workload::Pairs1t => 8000,
            Workload::Sbchurn2t => 60,
            Workload::Prodcons2t => 4800,
            Workload::Large1t => 4800,
        };
        if tiny {
            (n / 50).max(2)
        } else {
            n
        }
    }
}

// Timed batches last 10-30 µs: long enough that the two clock reads
// cost under 1% of a batch, short enough that few batches contain a
// scheduler preemption, so the p99 describes the allocator rather than
// the host's time slices.

/// Ops in one timed batch of `pairs-1t`.
pub const PAIRS_BATCH: usize = 256;
/// Blocks each `sbchurn-2t` thread allocates, then frees, per round.
pub const SBCHURN_ROUND: usize = 2048;
/// Blocks per `sbchurn-2t` sample: the time to allocate them plus the
/// time to free them later in the round, per pair.
pub const SBCHURN_BATCH: usize = 128;
/// Tasks the `prodcons-2t` consumer completes per timed batch.
pub const PRODCONS_BATCH: u64 = 16;
/// Live slots of `large-1t`.
pub const LARGE_SLOTS: usize = 64;
/// Ops in one timed batch of `large-1t`.
pub const LARGE_BATCH: usize = 4;

const SIZE_TABLE: usize = 1 << 14;
/// Producer-consumer: database entries, local work, help threshold
/// (the paper's values).
const PC_DATABASE: usize = 1 << 20;
const PC_WORK: u32 = 500;
const PC_HELP: usize = 1000;

/// A workload's inputs, generated from the seed before any allocator
/// call.
pub struct Inputs {
    pub workload: Workload,
    pub seed: u64,
    /// Request sizes, cycled through by the workers.
    sizes: Vec<usize>,
    /// `large-1t`: the slot each op replaces.
    slots: Vec<u8>,
    /// `prodcons-2t`: the database the consumer reads.
    database: Vec<u32>,
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let mut rng = TestRng::new(mix(seed ^ 0x5EED));
        let (lo, hi) = match workload {
            // Small classes up to 256 B total (8-byte prefix included).
            Workload::Pairs1t => (8, 249),
            Workload::Sbchurn2t => (256, 4097),
            // Index-set sizes n (10..=20) for the producer.
            Workload::Prodcons2t => (10, 21),
            Workload::Large1t => (8 << 10, (256 << 10) + 1),
        };
        let sizes = (0..SIZE_TABLE).map(|_| rng.range(lo, hi)).collect();
        let slots = match workload {
            Workload::Large1t => (0..SIZE_TABLE)
                .map(|_| rng.range(0, LARGE_SLOTS) as u8)
                .collect(),
            _ => Vec::new(),
        };
        let database = match workload {
            Workload::Prodcons2t => (0..PC_DATABASE).map(|_| rng.next_u64() as u32).collect(),
            _ => Vec::new(),
        };
        Inputs {
            workload,
            seed,
            sizes,
            slots,
            database,
        }
    }
}

/// How a phase ends.
#[derive(Clone, Copy, Debug)]
pub enum Limit {
    /// After this much wall time.
    Time(Duration),
    /// After each worker ran this many batches.
    Batches(u64),
}

/// One timed batch, or untimed ops (`ns_per_op` NaN).
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// When the batch ended, in ns after its worker's start.
    pub end: u64,
    pub ops: u32,
    pub ns_per_op: f32,
}

/// What one worker reports at the end of a phase.
#[derive(Default, Debug)]
pub struct WorkerOut {
    /// Ops completed (whether or not they failed).
    pub ops: u64,
    /// Ops with a null return or a changed tag.
    pub failed: u64,
    pub samples: Vec<Sample>,
    /// Wall time from the phase start to this worker's last batch.
    pub busy: Duration,
    start: Option<Instant>,
}

impl WorkerOut {
    /// Starts this worker's clock, once every worker is ready.
    fn begin(&mut self, ctl: &Ctl) {
        ctl.barrier.wait();
        self.start = Some(Instant::now());
    }

    #[inline]
    fn push(&mut self, now: Instant, ops: u64, ns_per_op: f32) {
        let end = self.start.map_or(0, |s| (now - s).as_nanos() as u64);
        self.samples.push(Sample {
            end,
            ops: ops as u32,
            ns_per_op,
        });
    }

    /// Ops completed without timing them (the helping producer's).
    #[inline]
    fn mark(&mut self, ops: u64) {
        self.push(Instant::now(), ops, f32::NAN);
    }

    /// A batch of `ops` that took `ns` in all.
    #[inline]
    fn timed(&mut self, now: Instant, ns: u64, ops: u64) {
        self.ops += ops;
        self.push(now, ops, ns as f32 / ops as f32);
    }

    /// A batch of `ops` that started at `t0` and ends now.
    #[inline]
    fn batch(&mut self, t0: Instant, ops: u64) {
        let now = Instant::now();
        self.timed(now, (now - t0).as_nanos() as u64, ops);
    }

    fn finish(mut self) -> WorkerOut {
        self.busy = self.start.map_or(Duration::ZERO, |s| s.elapsed());
        self
    }
}

/// One slice of a timed phase.
#[derive(Debug)]
pub struct Window {
    pub ops_per_s: f64,
    /// Sorted nanoseconds per op of the batches that ended in it.
    pub samples: Vec<f64>,
}

/// A finished phase.
#[derive(Debug)]
pub struct Phase {
    pub workers: Vec<WorkerOut>,
    /// From the common start to the last worker's end.
    pub wall: Duration,
}

impl Phase {
    pub fn ops(&self) -> u64 {
        self.workers.iter().map(|w| w.ops).sum()
    }
    pub fn failed(&self) -> u64 {
        self.workers.iter().map(|w| w.failed).sum()
    }
    pub fn ops_per_s(&self) -> f64 {
        self.ops() as f64 / self.wall.as_secs_f64()
    }

    /// Cuts the phase into whole windows of `width` (one window of the
    /// whole phase if it is shorter); a trailing partial window is left
    /// out. A window's rate sums, over the workers, the ops a worker
    /// completed between its first and last mark in the window divided
    /// by the time between those marks.
    pub fn windows(&self, width: Duration) -> Vec<Window> {
        let w = width.min(self.wall).as_nanos().max(1) as u64;
        let n = (self.wall.as_nanos() as u64 / w).max(1) as usize;
        let mut out: Vec<Window> = (0..n)
            .map(|_| Window {
                ops_per_s: 0.0,
                samples: Vec::new(),
            })
            .collect();
        for worker in &self.workers {
            // Per window: first batch end, last batch end, ops after the
            // first.
            let mut span: Vec<Option<(u64, u64, u64)>> = vec![None; n];
            for smp in &worker.samples {
                let i = (smp.end / w) as usize;
                let Some(s) = span.get_mut(i) else { continue };
                *s = Some(match *s {
                    None => (smp.end, smp.end, 0),
                    Some((first, _, done)) => (first, smp.end, done + smp.ops as u64),
                });
                if !smp.ns_per_op.is_nan() {
                    out[i].samples.push(smp.ns_per_op as f64);
                }
            }
            for (win, s) in out.iter_mut().zip(span) {
                if let Some((first, last, done)) = s.filter(|s| s.1 > s.0) {
                    win.ops_per_s += done as f64 * 1e9 / (last - first) as f64;
                }
            }
        }
        for win in &mut out {
            win.samples.sort_by(f64::total_cmp);
        }
        out
    }
}

/// Phase control shared by the workers.
struct Ctl {
    stop: AtomicBool,
    barrier: Barrier,
    max_batches: u64,
}

impl Ctl {
    #[inline]
    fn done<C: Caller>(&self, batches: u64, c: &C) -> bool {
        if c.full() {
            // A full span buffer ends the phase for every worker, so the
            // traced threads cover the same interval.
            self.stop.store(true, Ordering::Relaxed);
            return true;
        }
        batches >= self.max_batches || self.stop.load(Ordering::Relaxed)
    }
}

/// Runs one phase of `inputs.workload` against `subject`.
pub fn run_phase<S: Subject>(subject: &S, inputs: &Inputs, limit: Limit) -> Phase {
    let n = inputs.workload.threads();
    let ctl = Ctl {
        stop: AtomicBool::new(false),
        barrier: Barrier::new(n + 1),
        max_batches: match limit {
            Limit::Batches(b) => b,
            Limit::Time(_) => u64::MAX,
        },
    };
    let shared = PcShared::new();
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..n)
            .map(|t| {
                let mut c = subject.caller();
                let (ctl, shared) = (&ctl, &shared);
                s.spawn(move || match inputs.workload {
                    Workload::Pairs1t => pairs(&mut c, inputs, ctl),
                    Workload::Sbchurn2t => sbchurn(&mut c, inputs, ctl, t as u64),
                    Workload::Prodcons2t => prodcons(&mut c, inputs, ctl, shared, t == 0),
                    Workload::Large1t => large(&mut c, inputs, ctl),
                })
            })
            .collect();
        ctl.barrier.wait();
        let start = Instant::now();
        if let Limit::Time(d) = limit {
            // Sleep in slices so a worker that stops early (full span
            // buffer) does not leave the phase idling.
            while start.elapsed() < d && !ctl.stop.load(Ordering::Relaxed) {
                std::thread::sleep(
                    (d.saturating_sub(start.elapsed())).min(Duration::from_millis(20)),
                );
            }
            ctl.stop.store(true, Ordering::Relaxed);
        }
        let workers: Vec<WorkerOut> = handles
            .into_iter()
            .map(|h| h.join().expect("benchmark worker panicked"))
            .collect();
        let wall = workers.iter().map(|w| w.busy).max().unwrap_or_default();
        Phase { workers, wall }
    })
}

fn pairs<C: Caller>(c: &mut C, inp: &Inputs, ctl: &Ctl) -> WorkerOut {
    let mut out = WorkerOut::default();
    let mut i = 0usize;
    let mut batches = 0;
    out.begin(ctl);
    while !ctl.done(batches, c) {
        let t0 = Instant::now();
        for _ in 0..PAIRS_BATCH {
            let size = inp.sizes[i % SIZE_TABLE];
            let t = tag(inp.seed, i as u64);
            i += 1;
            c.op_begin();
            let p = unsafe { c.malloc(size) };
            if p.is_null() {
                out.failed += 1;
            } else {
                unsafe {
                    stamp(p, size, t);
                    if !intact(std::hint::black_box(p), size, t) {
                        out.failed += 1;
                    }
                    c.free(p, size);
                }
            }
            c.op_end();
        }
        out.batch(t0, PAIRS_BATCH as u64);
        batches += 1;
    }
    out.finish()
}

fn sbchurn<C: Caller>(c: &mut C, inp: &Inputs, ctl: &Ctl, thread: u64) -> WorkerOut {
    let mut out = WorkerOut::default();
    // A null return keeps its place (as a null) so the k-th free batch
    // frees the k-th malloc batch's blocks.
    let mut live: Vec<(*mut u8, usize, u64)> = Vec::with_capacity(SBCHURN_ROUND);
    let mut alloc_ns = [0u64; SBCHURN_ROUND / SBCHURN_BATCH];
    // Each thread walks the size table from its own offset.
    let mut i = (thread as usize * 7919) % SIZE_TABLE;
    let mut n = thread << 56;
    let mut rounds = 0;
    out.begin(ctl);
    while !ctl.done(rounds, c) {
        // One op is one pair: its malloc in the first half of the round,
        // its free in the second.
        for ns in alloc_ns.iter_mut() {
            let t0 = Instant::now();
            for _ in 0..SBCHURN_BATCH {
                let size = inp.sizes[i % SIZE_TABLE];
                i += 1;
                n += 1;
                let t = tag(inp.seed, n);
                c.op_begin();
                let p = unsafe { c.malloc(size) };
                if p.is_null() {
                    out.failed += 1;
                } else {
                    unsafe { stamp(p, size, t) };
                }
                live.push((p, size, t));
                c.op_end();
            }
            *ns = t0.elapsed().as_nanos() as u64;
        }
        for (k, batch) in live.chunks(SBCHURN_BATCH).enumerate() {
            let t0 = Instant::now();
            for &(p, size, t) in batch {
                if p.is_null() {
                    continue;
                }
                c.op_begin();
                unsafe {
                    if !intact(p, size, t) {
                        out.failed += 1;
                    }
                    c.free(p, size);
                }
                c.op_end();
            }
            let now = Instant::now();
            out.timed(
                now,
                alloc_ns[k] + (now - t0).as_nanos() as u64,
                batch.len() as u64,
            );
        }
        live.clear();
        rounds += 1;
    }
    out.finish()
}

fn large<C: Caller>(c: &mut C, inp: &Inputs, ctl: &Ctl) -> WorkerOut {
    let mut out = WorkerOut::default();
    let mut slots = [(core::ptr::null_mut::<u8>(), 0usize, 0u64); LARGE_SLOTS];
    let mut i = 0usize;
    // Fill every slot before the clock starts; the fill is not an op.
    for s in slots.iter_mut() {
        let size = inp.sizes[i % SIZE_TABLE];
        let t = tag(inp.seed, i as u64);
        i += 1;
        let p = unsafe { c.malloc(size) };
        if p.is_null() {
            out.failed += 1;
        } else {
            unsafe { stamp(p, size, t) };
            *s = (p, size, t);
        }
    }
    let mut batches = 0;
    out.begin(ctl);
    while !ctl.done(batches, c) {
        let t0 = Instant::now();
        for _ in 0..LARGE_BATCH {
            let slot = &mut slots[inp.slots[i % SIZE_TABLE] as usize];
            let size = inp.sizes[i % SIZE_TABLE];
            let t = tag(inp.seed, i as u64);
            i += 1;
            c.op_begin();
            let mut ok = true;
            let (old, old_size, old_t) = *slot;
            if !old.is_null() {
                unsafe {
                    ok &= intact(old, old_size, old_t);
                    c.free(old, old_size);
                }
            }
            let p = unsafe { c.malloc(size) };
            if p.is_null() {
                ok = false;
                *slot = (p, 0, 0);
            } else {
                unsafe { stamp(p, size, t) };
                *slot = (p, size, t);
            }
            c.op_end();
            out.failed += !ok as u64;
        }
        out.batch(t0, LARGE_BATCH as u64);
        batches += 1;
    }
    let mut out = out.finish();
    for &(p, size, t) in &slots {
        if !p.is_null() {
            unsafe {
                if !intact(p, size, t) {
                    out.failed += 1;
                }
                c.free(p, size);
            }
        }
    }
    out
}

/// Producer-consumer state shared by the two threads of one phase.
struct PcShared {
    queue: Queue,
    queue_len: AtomicUsize,
    producer_done: AtomicBool,
}

impl PcShared {
    fn new() -> PcShared {
        PcShared {
            queue: Queue::new(),
            queue_len: AtomicUsize::new(0),
            producer_done: AtomicBool::new(false),
        }
    }
}

/// Block sizes of one task (the paper's 32 B task and 16 B queue node;
/// the index block holds 4 bytes per index).
const PC_TASK: usize = 32;
const PC_QNODE: usize = 16;
const PC_SCRATCH: usize = 8;

/// Producer side of one task: 3 mallocs and an enqueue. The task block
/// holds `[tag, index block, queue node, seq << 8 | n]`; the queue node
/// holds `[tag, checksum of the indexes]`. Returns false on a null.
unsafe fn produce<C: Caller>(
    c: &mut C,
    inp: &Inputs,
    sh: &PcShared,
    rng: &mut TestRng,
    seq: u64,
) -> bool {
    let n = inp.sizes[seq as usize % SIZE_TABLE];
    let ib = unsafe { c.malloc(n * 4) };
    let task = unsafe { c.malloc(PC_TASK) } as *mut u64;
    let qnode = unsafe { c.malloc(PC_QNODE) } as *mut u64;
    if ib.is_null() || task.is_null() || qnode.is_null() {
        unsafe {
            for (p, size) in [
                (ib, n * 4),
                (task as *mut u8, PC_TASK),
                (qnode as *mut u8, PC_QNODE),
            ] {
                if !p.is_null() {
                    c.free(p, size);
                }
            }
        }
        return false;
    }
    let mut sum = 0u64;
    for k in 0..n {
        let idx = rng.range(0, PC_DATABASE) as u32;
        unsafe { (ib as *mut u32).add(k).write(idx) };
        sum = mix(sum ^ idx as u64);
    }
    unsafe {
        task.write(tag(inp.seed, seq << 2));
        task.add(1).write(ib as u64);
        task.add(2).write(qnode as u64);
        task.add(3).write(seq << 8 | n as u64);
        qnode.write(tag(inp.seed, seq << 2 | 1));
        qnode.add(1).write(sum);
    }
    sh.queue.push(task as usize);
    sh.queue_len.fetch_add(1, Ordering::Relaxed);
    true
}

/// Consumer side of one task: dequeue, histogram, local work, one
/// malloc and four frees. `None` when the queue was empty; otherwise
/// whether every check passed.
unsafe fn consume<C: Caller>(
    c: &mut C,
    inp: &Inputs,
    sh: &PcShared,
    last_seq: &mut u64,
) -> Option<bool> {
    let task = sh.queue.pop()? as *mut u64;
    sh.queue_len.fetch_sub(1, Ordering::Relaxed);
    unsafe {
        let ib = task.add(1).read() as *mut u8;
        let qnode = task.add(2).read() as *mut u64;
        let meta = task.add(3).read();
        let (seq, n) = (meta >> 8, (meta & 0xFF) as usize);
        // The queue is FIFO and has one producer, so each consumer sees
        // rising sequence numbers; a task seen twice means a block was
        // handed out twice. Its blocks are left alone then.
        if task.read() != tag(inp.seed, seq << 2) || (seq <= *last_seq && *last_seq != u64::MAX) {
            return Some(false);
        }
        *last_seq = seq;
        let mut ok = qnode.read() == tag(inp.seed, seq << 2 | 1);
        let mut hist = [0u64; 16];
        let mut sum = 0u64;
        for k in 0..n {
            let idx = (ib as *const u32).add(k).read();
            sum = mix(sum ^ idx as u64);
            hist[(inp.database[idx as usize % PC_DATABASE] % 16) as usize] += 1;
        }
        ok &= sum == qnode.add(1).read();
        let scratch = c.malloc(PC_SCRATCH);
        let mut acc = 0u64;
        for w in 0..PC_WORK {
            acc = acc.wrapping_add((w as u64).wrapping_mul(hist[(w % 16) as usize] + 1));
        }
        if scratch.is_null() {
            ok = false;
        } else {
            let t = tag(inp.seed, seq << 2 | 2) ^ acc;
            stamp(scratch, PC_SCRATCH, t);
            ok &= intact(std::hint::black_box(scratch), PC_SCRATCH, t);
            c.free(scratch, PC_SCRATCH);
        }
        c.free(ib, n * 4);
        c.free(qnode as *mut u8, PC_QNODE);
        c.free(task as *mut u8, PC_TASK);
        Some(ok)
    }
}

fn prodcons<C: Caller>(
    c: &mut C,
    inp: &Inputs,
    ctl: &Ctl,
    sh: &PcShared,
    producer: bool,
) -> WorkerOut {
    let mut out = WorkerOut::default();
    let mut last_seq = u64::MAX;
    out.begin(ctl);
    if producer {
        let mut rng = TestRng::new(mix(inp.seed ^ 0xFACADE));
        let mut seq = 0u64;
        let limit = ctl.max_batches.saturating_mul(PRODCONS_BATCH);
        let mut helped = 0;
        // Ends on the shared stop flag or, in a counted phase, after
        // producing as many tasks as the consumer's batches need.
        while seq < limit && !ctl.stop.load(Ordering::Relaxed) && !c.full() {
            if sh.queue_len.load(Ordering::Relaxed) > PC_HELP {
                // Too far ahead: help consume, as in the paper.
                c.op_begin();
                if let Some(ok) = unsafe { consume(c, inp, sh, &mut last_seq) } {
                    out.ops += 1;
                    out.failed += !ok as u64;
                    helped += 1;
                    if helped % PRODCONS_BATCH == 0 {
                        // Counted in throughput, not timed: the time
                        // between them includes the producer's own work.
                        out.mark(PRODCONS_BATCH);
                    }
                }
                c.op_end();
            } else {
                c.op_begin();
                let ok = unsafe { produce(c, inp, sh, &mut rng, seq) };
                c.op_end();
                if !ok {
                    // A task that could not be built never reaches the
                    // consumer; count it here.
                    out.ops += 1;
                    out.failed += 1;
                }
                seq += 1;
            }
        }
        if c.full() {
            ctl.stop.store(true, Ordering::Relaxed);
        }
        sh.producer_done.store(true, Ordering::Release);
    } else {
        let mut done_in_batch = 0;
        let mut t0 = Instant::now();
        loop {
            c.op_begin();
            match unsafe { consume(c, inp, sh, &mut last_seq) } {
                Some(ok) => {
                    c.op_end();
                    out.failed += !ok as u64;
                    done_in_batch += 1;
                    if done_in_batch == PRODCONS_BATCH {
                        out.batch(t0, PRODCONS_BATCH);
                        done_in_batch = 0;
                        t0 = Instant::now();
                        if c.full() {
                            ctl.stop.store(true, Ordering::Relaxed);
                        }
                    }
                }
                None => {
                    c.op_end();
                    if sh.producer_done.load(Ordering::Acquire)
                        && sh.queue_len.load(Ordering::Relaxed) == 0
                    {
                        break;
                    }
                    std::hint::spin_loop();
                }
            }
        }
        out.ops += done_in_batch;
    }
    out.finish()
}

// ---------------------------------------------------------------------
// Setup and the end-to-end run.

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;
/// The timed phase is cut into windows of this length; the end-to-end
/// rates and percentiles are medians over them, so a short burst of
/// interference from outside the process moves one window, not the run.
pub const WINDOW: Duration = Duration::from_secs(2);

/// An allocator built and warmed up for a workload.
pub struct Ready<A> {
    pub inputs: Inputs,
    pub alloc: A,
    /// Median wall time of one set-up: generating the inputs, building
    /// the allocator and warming it up.
    pub setup_s: f64,
    /// Ops and failed ops of every warm-up; they count like timed ones.
    pub warm_ops: u64,
    pub warm_failed: u64,
}

/// Sets up `reps` times and keeps the last allocator; each earlier one
/// is dropped before the next is built.
pub fn setup<A: Target>(
    workload: Workload,
    seed: u64,
    tiny: bool,
    reps: usize,
    make: &dyn Fn() -> A,
) -> Ready<A> {
    let mut times = Vec::with_capacity(reps);
    let (mut warm_ops, mut warm_failed) = (0, 0);
    let mut last: Option<(Inputs, A)> = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        let inputs = Inputs::generate(workload, seed);
        let a = make();
        let warm = run_phase(
            &Direct(&a),
            &inputs,
            Limit::Batches(workload.warmup_batches(tiny)),
        );
        times.push(t0.elapsed().as_secs_f64());
        warm_ops += warm.ops();
        warm_failed += warm.failed();
        last = Some((inputs, a));
    }
    let (inputs, alloc) = last.expect("at least one set-up");
    Ready {
        inputs,
        alloc,
        setup_s: report::median(&mut times),
        warm_ops,
        warm_failed,
    }
}

/// The end-to-end run: [`SETUP_REPS`] set-ups (one if `tiny`), then
/// one timed phase of `seconds`.
pub fn end_to_end<A: Target>(
    workload: Workload,
    seed: u64,
    seconds: f64,
    tiny: bool,
    make: &dyn Fn() -> A,
) -> report::Report {
    let reps = if tiny { 1 } else { SETUP_REPS };
    let ready = setup(workload, seed, tiny, reps, make);
    let a = &ready.alloc;
    let phase = run_phase(
        &Direct(a),
        &ready.inputs,
        Limit::Time(Duration::from_secs_f64(seconds)),
    );
    let mut r = report::Report::new();
    let windows = phase.windows(WINDOW);
    let mut rates: Vec<f64> = windows.iter().map(|w| w.ops_per_s).collect();
    let mut p50s: Vec<f64> = windows
        .iter()
        .map(|w| report::percentile(&w.samples, 0.5))
        .collect();
    let mut p99s: Vec<f64> = windows
        .iter()
        .map(|w| report::percentile(&w.samples, 0.99))
        .collect();
    let timed: u64 = windows.iter().map(|w| w.samples.len() as u64).sum();
    let beyond = windows
        .iter()
        .map(|w| report::beyond_p99(w.samples.len() as u64))
        .min()
        .unwrap_or(0);
    let how = format!(
        "median of {} windows of {:.2} s",
        windows.len(),
        phase.wall.min(WINDOW).as_secs_f64()
    );
    let range = |v: &[f64]| format!("{how}, range {:.1}..{:.1}", v[0], v[v.len() - 1]);
    let ops_per_s = report::median(&mut rates);
    r.metric(
        "ops_per_s",
        ops_per_s,
        "ops/s",
        phase.ops(),
        Some(range(&rates)),
    );
    let p50 = report::median(&mut p50s);
    r.metric("op_ns_p50", p50, "ns", timed, Some(range(&p50s)));
    let p99 = report::median(&mut p99s);
    let base = format!(
        "{}; at least {beyond} batch samples beyond the p99 in each",
        range(&p99s)
    );
    r.metric("op_ns_p99", p99, "ns", timed, Some(base));
    if beyond < 10 {
        r.notes.push(format!(
            "op_ns_p99: a window has only {beyond} samples beyond its p99"
        ));
    }
    let peak = RawMalloc::stats(a).peak_bytes as f64 / (1u64 << 20) as f64;
    r.metric(
        "peak_os_mib",
        peak,
        "MiB",
        1,
        Some("allocator lifetime, warm-up included".into()),
    );
    r.metric("setup_s", ready.setup_s, "s", reps as u64, None);
    r.count_ops(ready.warm_ops, ready.warm_failed);
    r.count_ops(phase.ops(), phase.failed());
    r.metric(
        "failed_ops_ratio",
        r.failed as f64 / r.attempted.max(1) as f64,
        "ratio",
        r.attempted,
        Some(format!(
            "{} failed of {} ops, warm-up included",
            r.failed, r.attempted
        )),
    );
    r.audit(a.audit_clean());
    let yard = host_yardstick_ns();
    r.metric(
        "host.yardstick_ns",
        yard,
        "ns",
        1,
        Some("fixed integer loop after the run; host speed".into()),
    );
    r
}

/// Time of a fixed, allocation-free integer loop: it moves only with
/// the host's speed (frequency, a busy sibling hyperthread), so a run
/// record can show when the host, not the allocator, changed.
pub fn host_yardstick_ns() -> f64 {
    let mut v: Vec<f64> = (0..5)
        .map(|k| {
            let t0 = Instant::now();
            let mut z = k as u64;
            for _ in 0..2_000_000 {
                z = mix(std::hint::black_box(z));
            }
            std::hint::black_box(z);
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    report::median(&mut v)
}

// ---------------------------------------------------------------------
// Command line.

/// Arguments shared by both binaries:
/// `--workload <name> --seed <n> --seconds <s> [--tiny] [--out <dir>]`.
#[derive(Debug)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    /// Small warm-up, one set-up and short probes, for self-tests.
    pub tiny: bool,
    /// Where the traced run writes its spans.
    pub out: Option<std::path::PathBuf>,
}

impl Args {
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut workload, mut seed, mut seconds, mut tiny, mut out) =
            (None, None, None, false, None);
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            if flag == "--tiny" {
                tiny = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => {
                    seed = Some(
                        value
                            .parse::<u64>()
                            .map_err(|e| format!("--seed {value}: {e}"))?,
                    )
                }
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds {value}: {e}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {value}: must be in (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--out" => out = Some(value.into()),
                _ => return Err(format!("unknown argument {flag}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            tiny,
            out,
        })
    }
}
