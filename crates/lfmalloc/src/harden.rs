//! Hardened deallocation: provenance-checked free, double-free and
//! use-after-free defense.
//!
//! The paper's free path trusts its caller completely: it reads the
//! descriptor pointer out of the 8-byte block prefix and CASes the
//! anchor it finds there. A single invalid or double free therefore
//! corrupts the heap silently. This module adds an opt-in validated
//! free path ([`Config::hardening`](crate::config::Config) ≠
//! [`Hardening::Off`]) that keeps the allocator's lock-freedom while
//! detecting the four classic misuse classes:
//!
//! * **Invalid free** — the pointer was never produced by this instance
//!   (foreign allocator, interior pointer, stack/unmapped address).
//!   Established *before any dereference* by asking the superblock page
//!   pool, the descriptor-slab pool and the large-span registry whether
//!   they own the relevant addresses.
//! * **Double free** — arbitrated by a per-block allocation bitmap in
//!   the descriptor ([`Descriptor::clear_alloc_bit`]): concurrent
//!   double frees race on one `fetch_and` and exactly one loses, so the
//!   anchor is never pushed twice.
//! * **Use-after-free write** — freed small blocks are filled with
//!   [`POISON`] and parked in a bounded per-heap quarantine ring;
//!   on the way back into circulation every byte is re-verified.
//! * **Guard overrun** — large blocks get guard pages appended (see
//!   [`crate::large`]); the canary page is verified on free and the
//!   `PROT_NONE` page traps wild writes at the instant they happen.
//!
//! Every detection produces a [`MisuseReport`] counted per-instance and
//! in a process-wide sink; [`Hardening::Detect`] returns without
//! touching allocator state, [`Hardening::Abort`] panics with the
//! report.

use crate::config::{PREFIX_SIZE, SB_SIZE};
use crate::descriptor::Descriptor;
use crate::instance::Inner;
use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use osmem::source::PAGE_SIZE;
use osmem::PageSource;

/// Hardening level of an allocator instance (see
/// [`Config::hardening`](crate::config::Config)).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum Hardening {
    /// The paper's trusting free path; no validation, no overhead.
    #[default]
    Off,
    /// Validate every free; count and report misuse, then return
    /// without corrupting allocator state.
    Detect,
    /// Validate every free; panic with the [`MisuseReport`] on the
    /// first misuse (fail-stop).
    Abort,
}

/// The misuse classes hardened mode distinguishes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MisuseKind {
    /// Freed pointer is not a live block of this instance.
    InvalidFree,
    /// Block was already free when freed again.
    DoubleFree,
    /// A quarantined (freed) block was written through a stale pointer.
    PoisonViolation,
    /// A large block's canary guard page was overwritten.
    GuardOverrun,
    /// An allocator entry point re-entered itself on the same thread —
    /// a signal handler called `malloc`/`free` while the interrupted
    /// code was already inside the allocator. The nested call is
    /// rejected (null / leaked) instead of risking a torn fast path;
    /// see the [`fork`](crate::fork) module's signal-safety contract.
    ReentrantAlloc,
}

impl MisuseKind {
    /// Dense index for counter arrays.
    #[inline]
    fn index(self) -> usize {
        match self {
            MisuseKind::InvalidFree => 0,
            MisuseKind::DoubleFree => 1,
            MisuseKind::PoisonViolation => 2,
            MisuseKind::GuardOverrun => 3,
            MisuseKind::ReentrantAlloc => 4,
        }
    }

    fn from_index(i: usize) -> Option<Self> {
        match i {
            0 => Some(MisuseKind::InvalidFree),
            1 => Some(MisuseKind::DoubleFree),
            2 => Some(MisuseKind::PoisonViolation),
            3 => Some(MisuseKind::GuardOverrun),
            4 => Some(MisuseKind::ReentrantAlloc),
            _ => None,
        }
    }
}

/// Number of [`MisuseKind`] variants.
const NUM_KINDS: usize = 5;

/// One detected deallocation misuse.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MisuseReport {
    /// What went wrong.
    pub kind: MisuseKind,
    /// The pointer the application passed to `free`.
    pub ptr: usize,
    /// Total block size (prefix included) of the owning size class;
    /// `None` for large blocks and pointers with no valid owner.
    pub size_class: Option<usize>,
    /// Address of the owning `ProcHeap` (0 when unknown — large blocks
    /// and foreign pointers have none).
    pub heap: usize,
    /// The freeing thread's allocator thread id.
    pub tid: usize,
}

impl core::fmt::Display for MisuseReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:?} of {:#x} (tid {})", self.kind, self.ptr, self.tid)?;
        if let Some(sz) = self.size_class {
            write!(f, " [class sz {sz}]")?;
        }
        if self.heap != 0 {
            write!(f, " [heap {:#x}]", self.heap)?;
        }
        Ok(())
    }
}

/// Lock-free misuse accounting: per-kind counts plus the most recent
/// report. One instance lives in every hardened allocator; one
/// process-wide sink ([`process_misuse_counters`]) aggregates across
/// instances.
#[derive(Debug)]
pub struct MisuseCounters {
    counts: [AtomicU64; NUM_KINDS],
    // Last-report fields are stored individually; a torn read across
    // them under contention is acceptable for diagnostics (the counts
    // are the test oracle).
    last_kind: AtomicUsize, // MisuseKind::index + 1; 0 = none yet
    last_ptr: AtomicUsize,
    last_size_class: AtomicUsize, // value + 1; 0 = None
    last_heap: AtomicUsize,
    last_tid: AtomicUsize,
}

impl MisuseCounters {
    /// All-zero counters.
    pub const fn new() -> Self {
        MisuseCounters {
            counts: [
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
                AtomicU64::new(0),
            ],
            last_kind: AtomicUsize::new(0),
            last_ptr: AtomicUsize::new(0),
            last_size_class: AtomicUsize::new(0),
            last_heap: AtomicUsize::new(0),
            last_tid: AtomicUsize::new(0),
        }
    }

    fn record(&self, r: &MisuseReport) {
        self.counts[r.kind.index()].fetch_add(1, Ordering::AcqRel);
        self.last_ptr.store(r.ptr, Ordering::Relaxed);
        self.last_size_class.store(r.size_class.map_or(0, |s| s + 1), Ordering::Relaxed);
        self.last_heap.store(r.heap, Ordering::Relaxed);
        self.last_tid.store(r.tid, Ordering::Relaxed);
        // Written last: a non-zero kind tells readers the other fields
        // hold at least one complete report.
        self.last_kind.store(r.kind.index() + 1, Ordering::Release);
    }

    /// Detections of `kind` so far.
    pub fn count(&self, kind: MisuseKind) -> u64 {
        self.counts[kind.index()].load(Ordering::Acquire)
    }

    /// Total detections across all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().map(|c| c.load(Ordering::Acquire)).sum()
    }

    /// The most recent report, if any misuse was ever recorded.
    pub fn last_report(&self) -> Option<MisuseReport> {
        let k = self.last_kind.load(Ordering::Acquire);
        let kind = MisuseKind::from_index(k.checked_sub(1)?)?;
        let sc = self.last_size_class.load(Ordering::Relaxed);
        Some(MisuseReport {
            kind,
            ptr: self.last_ptr.load(Ordering::Relaxed),
            size_class: sc.checked_sub(1),
            heap: self.last_heap.load(Ordering::Relaxed),
            tid: self.last_tid.load(Ordering::Relaxed),
        })
    }
}

impl Default for MisuseCounters {
    fn default() -> Self {
        Self::new()
    }
}

/// Process-wide misuse sink, aggregated across all hardened instances.
static PROCESS_COUNTERS: MisuseCounters = MisuseCounters::new();

/// The process-wide misuse sink (sums every hardened instance in the
/// process; individual instances expose their own counters through
/// [`LfMalloc::misuse_counters`](crate::LfMalloc::misuse_counters)).
pub fn process_misuse_counters() -> &'static MisuseCounters {
    &PROCESS_COUNTERS
}

/// Fill byte for freed small blocks while quarantined.
pub const POISON: u8 = 0xF5;

/// Fill byte of a large block's canary guard page.
pub const GUARD_CANARY: u8 = 0xC7;

/// Capacity of each per-heap quarantine ring. Small on purpose: the
/// quarantine delays reuse to catch dangling writes, it is not a cache,
/// and every parked block pins its superblock partially allocated.
pub const QUARANTINE_CAP: usize = 32;

/// Records a misuse in the instance and process counters; panics in
/// [`Hardening::Abort`] mode.
pub(crate) fn report<S: PageSource>(inner: &Inner<S>, r: MisuseReport) {
    inner.misuse.record(&r);
    PROCESS_COUNTERS.record(&r);
    if inner.config.hardening == Hardening::Abort {
        // The fail-stop is about to unwind into an abort: flush the
        // black-box report first so the postmortem has the flight
        // recorder and the misuse pointer's classification.
        #[cfg(feature = "forensics")]
        crate::forensics::failstop_report(inner, "hardened-abort", r.ptr);
        panic!("lfmalloc hardened mode: {r}");
    }
}

#[inline]
fn misuse(kind: MisuseKind, ptr: *mut u8, tid: Option<usize>) -> MisuseReport {
    MisuseReport {
        kind,
        ptr: ptr as usize,
        size_class: None,
        heap: 0,
        tid: tid.unwrap_or(0),
    }
}

/// The validated free path: every `deallocate` routes here when
/// hardening is on. Never dereferences an address whose ownership has
/// not been established first.
///
/// # Safety
///
/// `ptr` is non-null but otherwise completely untrusted — that is the
/// point. The instance must be alive.
pub(crate) unsafe fn free_hardened<S: PageSource>(
    inner: &Inner<S>,
    ptr: *mut u8,
    tid: Option<usize>,
) {
    let addr = ptr as usize;

    // -- Large blocks: the span registry is the source of truth. -------
    if let Some((base, _)) = inner.large_spans.span_containing(addr) {
        unsafe { free_large_hardened(inner, ptr, base, tid) };
        return;
    }

    // -- Small blocks. -------------------------------------------------
    // Every pointer this instance hands out is >= 8-aligned with its
    // prefix word 8 bytes below; reject before any memory access.
    if addr < PREFIX_SIZE || addr % PREFIX_SIZE != 0 {
        report(inner, misuse(MisuseKind::InvalidFree, ptr, tid));
        return;
    }
    let prefix_addr = addr - PREFIX_SIZE;
    // Provenance gate 1: the prefix word must lie inside a superblock
    // hyperblock this instance mapped. Only now is it safe to read.
    if !inner.sb_pool.owns(prefix_addr) {
        report(inner, misuse(MisuseKind::InvalidFree, ptr, tid));
        return;
    }
    let prefix =
        unsafe { (*(prefix_addr as *const AtomicUsize)).load(Ordering::Relaxed) };
    if prefix & crate::large::LARGE_FLAG != 0 {
        // An odd prefix inside a superblock: either a stale large-block
        // marker (the span was already freed) or plain user data. The
        // span registry above said this is not a live large block.
        report(inner, misuse(MisuseKind::InvalidFree, ptr, tid));
        return;
    }
    // Provenance gate 2: the prefix must name a real descriptor slot.
    let desc_ptr = prefix as *mut Descriptor;
    if !inner.desc_pool.owns(desc_ptr) {
        report(inner, misuse(MisuseKind::InvalidFree, ptr, tid));
        return;
    }
    // The descriptor slot is ours, so dereferencing is safe; its
    // *contents* are still untrusted (the slot may be free or describe
    // a different superblock) — sanity-check the geometry.
    let desc = unsafe { &*desc_ptr };
    let sz = desc.sz() as usize;
    let maxcount = desc.maxcount() as usize;
    let sb = desc.sb() as usize;
    let geometry_ok = sz >= 2 * PREFIX_SIZE
        && maxcount >= 1
        && sz * maxcount <= SB_SIZE
        && sb != 0
        && sb % SB_SIZE == 0
        && inner.sb_pool.owns(sb)
        && prefix_addr >= sb
        && prefix_addr < sb + SB_SIZE;
    if !geometry_ok {
        report(inner, misuse(MisuseKind::InvalidFree, ptr, tid));
        return;
    }
    let idx = (prefix_addr - sb) / sz;
    if idx >= maxcount {
        report(inner, misuse(MisuseKind::InvalidFree, ptr, tid));
        return;
    }
    // -- Double-free arbiter: one fetch_and, one winner. ---------------
    if !desc.clear_alloc_bit(idx) {
        report(
            inner,
            MisuseReport {
                kind: MisuseKind::DoubleFree,
                ptr: addr,
                size_class: Some(sz),
                heap: desc.heap() as usize,
                tid: tid.unwrap_or(0),
            },
        );
        return;
    }
    // -- Poison + quarantine. ------------------------------------------
    // The prefix word (the descriptor pointer) is left intact: a repeat
    // free of a quarantined block must still find the descriptor so the
    // bitmap can classify it as a double free.
    let block = sb + idx * sz;
    unsafe {
        core::ptr::write_bytes((block + PREFIX_SIZE) as *mut u8, POISON, sz - PREFIX_SIZE)
    };
    let shard = unsafe { &*inner.quarantine.add(tid.unwrap_or(0) % inner.nheaps) };
    let mut entry = (block, desc_ptr as usize);
    // Push, displacing the oldest entry when the ring is full; the
    // displaced block is verified and released for reuse. Bounded
    // retries: under a pathological push/pop race, releasing directly
    // is always correct (the quarantine is best-effort delay).
    for _ in 0..4 {
        match shard.push(entry) {
            Ok(()) => return,
            Err(back) => {
                entry = back;
                if let Some((old_block, old_desc)) = shard.pop() {
                    unsafe {
                        release_quarantined(inner, old_block, old_desc as *mut Descriptor, tid)
                    };
                }
            }
        }
    }
    unsafe { release_quarantined(inner, entry.0, entry.1 as *mut Descriptor, tid) };
}

/// Verifies a quarantined block's poison and hands it to the normal
/// free path. A rewritten byte is a use-after-free write through a
/// stale pointer; the block is still released (in `Detect` mode) so the
/// heap keeps functioning. `tid` is the releasing thread's id.
pub(crate) unsafe fn release_quarantined<S: PageSource>(
    inner: &Inner<S>,
    block: usize,
    desc_ptr: *mut Descriptor,
    tid: Option<usize>,
) {
    let desc = unsafe { &*desc_ptr };
    let sz = desc.sz() as usize;
    let clean =
        (PREFIX_SIZE..sz).all(|i| unsafe { *((block + i) as *const u8) } == POISON);
    if !clean {
        report(
            inner,
            MisuseReport {
                kind: MisuseKind::PoisonViolation,
                ptr: block,
                size_class: Some(sz),
                heap: desc.heap() as usize,
                tid: tid.unwrap_or(0),
            },
        );
    }
    unsafe { crate::free_impl::push_free_block(inner, desc_ptr, block, tid) };
}

/// Hardened free of a large block whose span registry entry named
/// `base`. The registry `remove` CAS is the double-free arbiter: the
/// winner owns the span (and may dereference it), every loser reports
/// without touching memory.
unsafe fn free_large_hardened<S: PageSource>(
    inner: &Inner<S>,
    ptr: *mut u8,
    base: usize,
    tid: Option<usize>,
) {
    let addr = ptr as usize;
    if !inner.large_spans.remove(base) {
        // A concurrent free claimed the span between our lookup and
        // now: a racing double free.
        report(inner, misuse(MisuseKind::DoubleFree, ptr, tid));
        return;
    }
    // Sole owner of the span from here on.
    let header = unsafe { (*(base as *const AtomicUsize)).load(Ordering::Relaxed) };
    let (total, guarded, hw) = crate::large::header_fields(header);
    let guard_bytes = if guarded { 2 * PAGE_SIZE } else { 0 };
    let user_off = addr - base;
    let prefix_ok = addr % PREFIX_SIZE == 0
        && user_off >= 2 * PREFIX_SIZE
        && addr < base + total - guard_bytes
        // Safe to read only after the range checks above: the prefix
        // word lies inside the span's unprotected prefix region.
        && unsafe { (*((addr - PREFIX_SIZE) as *const AtomicUsize)).load(Ordering::Relaxed) }
            == (user_off << 1) | crate::large::LARGE_FLAG;
    if !prefix_ok {
        // Interior (or otherwise mangled) pointer into a live large
        // block: put the span back and reject the free.
        inner.large_spans.insert(base, total);
        report(inner, misuse(MisuseKind::InvalidFree, ptr, tid));
        return;
    }
    if guarded {
        let canary = base + total - 2 * PAGE_SIZE;
        let intact =
            (0..PAGE_SIZE).all(|i| unsafe { *((canary + i) as *const u8) } == GUARD_CANARY);
        if !intact {
            report(inner, misuse(MisuseKind::GuardOverrun, ptr, tid));
            // Detect mode: still release the block below.
        }
        if hw {
            // Restore the trap page before the pages go back to the
            // source (pools may recycle them).
            unsafe {
                inner.source.protect_pages(
                    (base + total - PAGE_SIZE) as *mut u8,
                    PAGE_SIZE,
                    true,
                )
            };
        }
    }
    unsafe { crate::large::release_large(inner, base) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_index_roundtrip() {
        for kind in [
            MisuseKind::InvalidFree,
            MisuseKind::DoubleFree,
            MisuseKind::PoisonViolation,
            MisuseKind::GuardOverrun,
        ] {
            assert_eq!(MisuseKind::from_index(kind.index()), Some(kind));
        }
        assert_eq!(MisuseKind::from_index(NUM_KINDS), None);
    }

    #[test]
    fn counters_record_and_expose_last_report() {
        let c = MisuseCounters::new();
        assert_eq!(c.total(), 0);
        assert!(c.last_report().is_none());
        let r = MisuseReport {
            kind: MisuseKind::DoubleFree,
            ptr: 0xdead_bee8,
            size_class: Some(64),
            heap: 0x1000,
            tid: 7,
        };
        c.record(&r);
        c.record(&MisuseReport { kind: MisuseKind::InvalidFree, size_class: None, ..r });
        assert_eq!(c.count(MisuseKind::DoubleFree), 1);
        assert_eq!(c.count(MisuseKind::InvalidFree), 1);
        assert_eq!(c.count(MisuseKind::GuardOverrun), 0);
        assert_eq!(c.total(), 2);
        let last = c.last_report().unwrap();
        assert_eq!(last.kind, MisuseKind::InvalidFree);
        assert_eq!(last.ptr, 0xdead_bee8);
        assert_eq!(last.size_class, None);
    }

    #[test]
    fn report_display_is_informative() {
        let r = MisuseReport {
            kind: MisuseKind::PoisonViolation,
            ptr: 0xabc0,
            size_class: Some(128),
            heap: 0,
            tid: 3,
        };
        let s = format!("{r}");
        assert!(s.contains("PoisonViolation") && s.contains("0xabc0") && s.contains("128"), "{s}");
    }
}
