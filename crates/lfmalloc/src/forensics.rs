//! Crash forensics (the `forensics` cargo feature): a black-box flight
//! recorder, async-signal-safe pointer classification, and a chained
//! crash reporter.
//!
//! Production postmortems rarely get to ask "what are the counters
//! now" — the process is dead. This module answers "what was the heap
//! doing when it died" with three pieces:
//!
//! * **Flight recorder** — per-thread lock-free rings of the most
//!   recent allocator operations (op kind, size class, pointer, thread,
//!   monotonic sequence number). A thread's ring is picked by its
//!   per-instance thread index, which the sampler shares (the
//!   `(instance epoch, thread index)` pair of `thread.rs`), so
//!   instances never share streams and the rings survive fork (plain
//!   memory, no locks). Writers publish each entry
//!   by storing its sequence word last with `Release` after zeroing it,
//!   so a reader (possibly a signal handler interrupting the writer
//!   mid-entry) either sees a fully-written entry or skips it.
//! * **`describe_ptr`** — classifies *any* address against the
//!   instance's memory: small block (with descriptor state, class,
//!   block index, hardened allocated-bit and quarantine-poison
//!   verdicts), large span or its guard region, descriptor-slab
//!   metadata, owned-but-uncarved superblock memory, or foreign. It
//!   composes the same provenance gates as the hardened free path
//!   ([`crate::harden`]) — hyperblock-registry walks, descriptor-slot
//!   validation, span-registry lookups — all of which are lock-free and
//!   allocation-free, so the walk is async-signal-safe by construction.
//! * **Crash reporter** — chained SIGSEGV/SIGBUS/SIGABRT handlers that
//!   emit a black-box report to a configurable fd using only `write(2)`
//!   and hand-rolled fixed-buffer rendering: no allocation, no locks,
//!   no `std::fmt`. The report contains the faulting address's
//!   `describe_ptr` line, the merged tail of the flight recorder, the
//!   health counters, misuse counters, and the OS-byte reconciliation.
//!   After reporting, the previous signal disposition is restored and
//!   the signal re-delivered, so default core-dumping (or a
//!   pre-existing handler) still happens. `Hardening::Abort` and
//!   `LivenessPolicy::Abort` fail-stops route through the same report
//!   path before panicking.
//!
//! # Async-signal-safety contract
//!
//! Everything reachable from [`crash_handler`] obeys: only `write(2)`
//! for I/O; only relaxed/acquire atomic loads and thread-local `Cell`
//! reads for state; only memory the instance itself mapped (hyperblock
//! registries, descriptor slabs, span segments — all published with
//! `Release` before use and never unmapped while the instance lives)
//! is dereferenced. The handler is reentrancy-guarded: a fault inside
//! the reporter immediately restores the old disposition and
//! re-raises.

use core::cell::UnsafeCell;
use core::sync::atomic::{AtomicI32, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::alloc::{GlobalAlloc, Layout, System};

use malloc_api::procfork::{self, sys};
use malloc_api::telemetry::Counter;
use osmem::source::{PageSource, PAGE_SIZE};

use crate::anchor::SbState;
use crate::config::{ForensicsParams, PREFIX_SIZE, SB_SIZE};
use crate::descriptor::Descriptor;
use crate::harden::POISON;
use crate::instance::{Inner, LfMalloc};
use crate::size_classes::CLASS_SIZES;

/// Ring slots per instance. Threads hash into the slots by their dense
/// first-touch index; more threads than slots share rings (entries
/// interleave, the global sequence keeps them ordered).
pub const RING_THREADS: usize = 32;

/// Entries per ring (power of two).
pub const RING_CAP: usize = 64;

/// Entries printed in a crash report's flight-recorder section.
const REPORT_TAIL: usize = 32;

/// `class` value of a large-block entry.
pub const CLASS_LARGE: u16 = u16::MAX;

/// `class` value when the free path could not attribute a class
/// (foreign pointer, torn prefix).
pub const CLASS_UNKNOWN: u16 = u16::MAX - 1;

/// Flight-recorder operation kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(u8)]
pub enum OpKind {
    /// Successful allocation.
    Alloc = 1,
    /// Deallocation (recorded before dispatch, so misuse frees appear
    /// too).
    Free = 2,
    /// Allocation that returned null.
    AllocFailed = 3,
}

impl OpKind {
    /// Stable human label.
    pub fn label(self) -> &'static str {
        match self {
            OpKind::Alloc => "alloc",
            OpKind::Free => "free",
            OpKind::AllocFailed => "alloc-failed",
        }
    }

    pub(crate) fn from_bits(b: u64) -> Option<OpKind> {
        match b {
            1 => Some(OpKind::Alloc),
            2 => Some(OpKind::Free),
            3 => Some(OpKind::AllocFailed),
            _ => None,
        }
    }
}

/// One decoded flight-recorder entry (public snapshot form).
#[derive(Clone, Copy, Debug)]
pub struct FlightOp {
    /// Global monotonic sequence number (never zero).
    pub seq: u64,
    /// Operation kind.
    pub op: OpKind,
    /// Size-class index, [`CLASS_LARGE`] or [`CLASS_UNKNOWN`].
    pub class: u16,
    /// Dense per-instance thread index of the recording thread.
    pub tid: u32,
    /// The block's user pointer.
    pub ptr: usize,
}

/// One ring entry: `seq == 0` means empty/being-rewritten. Writers
/// store `seq` last (`Release`) after zeroing it, so readers that see a
/// non-zero `seq` (`Acquire`) see matching `meta`/`ptr`.
struct RingEntry {
    seq: AtomicU64,
    meta: AtomicU64,
    ptr: AtomicU64,
}

/// One per-thread(-ish) ring.
struct RingSlot {
    head: AtomicU64,
    entries: [RingEntry; RING_CAP],
}

#[inline]
fn pack_meta(op: OpKind, class: u16, tid: u32) -> u64 {
    (op as u64) | ((class as u64) << 8) | ((tid as u64) << 24)
}

#[inline]
pub(crate) fn unpack_meta(meta: u64) -> (u64, u16, u32) {
    (meta & 0xFF, ((meta >> 8) & 0xFFFF) as u16, (meta >> 24) as u32)
}

/// Per-instance forensics state, embedded in `Inner` under the
/// `forensics` feature.
#[derive(Debug)]
pub(crate) struct ForensicsState {
    /// `RING_THREADS` rings, system-allocated (zeroed = all empty).
    rings: *mut RingSlot,
    /// Global op sequence; starts at 1 so 0 stays the "empty" marker.
    seq: AtomicU64,
    /// Ops not recorded (thread-local storage already torn down).
    pub dropped: Counter,
    /// Crash-report fd; negative = reporting not configured.
    pub report_fd: AtomicI32,
    /// 1 after the crash handlers were installed for this instance.
    pub handler_installed: AtomicU32,
    /// procfork generation captured at handler installation, so the
    /// report can say whether the process forked since.
    pub crash_generation: AtomicU64,
}

unsafe impl Send for ForensicsState {}
unsafe impl Sync for ForensicsState {}

impl ForensicsState {
    /// Allocates the rings; `None` when the system allocator is
    /// exhausted.
    pub(crate) fn new(_params: ForensicsParams) -> Option<Self> {
        let layout = Layout::array::<RingSlot>(RING_THREADS).ok()?;
        // Zeroed memory is a valid RingSlot: every field is atomics.
        let rings = unsafe { System.alloc_zeroed(layout) } as *mut RingSlot;
        if rings.is_null() {
            return None;
        }
        Some(ForensicsState {
            rings,
            seq: AtomicU64::new(1),
            dropped: Counter::new(),
            report_fd: AtomicI32::new(-1),
            handler_installed: AtomicU32::new(0),
            crash_generation: AtomicU64::new(0),
        })
    }

    #[inline]
    fn ring(&self, i: usize) -> &RingSlot {
        debug_assert!(i < RING_THREADS);
        unsafe { &*self.rings.add(i) }
    }
}

impl Drop for ForensicsState {
    fn drop(&mut self) {
        unsafe {
            System.dealloc(
                self.rings as *mut u8,
                Layout::array::<RingSlot>(RING_THREADS).unwrap(),
            );
        }
    }
}

/// Records one op into the ring of per-instance thread index `index`
/// (as the entry step resolved it). Two relaxed `fetch_add`s plus three
/// stores; called only when the feature is compiled in.
#[inline]
pub(crate) fn record<S: PageSource>(
    inner: &Inner<S>,
    index: Option<u32>,
    op: OpKind,
    class: u16,
    ptr: usize,
) {
    let st = &inner.forensics;
    let Some(tid) = index else {
        // TLS teardown: no stream identity left for this thread.
        st.dropped.inc();
        return;
    };
    let seq = st.seq.fetch_add(1, Ordering::Relaxed);
    let ring = st.ring(tid as usize % RING_THREADS);
    let pos = ring.head.fetch_add(1, Ordering::Relaxed) as usize % RING_CAP;
    let e = &ring.entries[pos];
    // Invalidate, fill, publish: a reader interrupting between the
    // stores sees seq == 0 and skips the entry.
    e.seq.store(0, Ordering::Release);
    e.meta.store(pack_meta(op, class, tid), Ordering::Relaxed);
    e.ptr.store(ptr as u64, Ordering::Relaxed);
    e.seq.store(seq, Ordering::Release);
}

/// Free-path hook: attributes the class with the same guarded prefix
/// walk `describe_ptr` uses (never dereferences unowned memory), then
/// records the op.
#[inline]
pub(crate) fn record_free<S: PageSource>(inner: &Inner<S>, index: Option<u32>, ptr: *mut u8) {
    let addr = ptr as usize;
    let class = if inner.large_spans.span_containing(addr).is_some() {
        CLASS_LARGE
    } else {
        small_class_of(inner, addr).unwrap_or(CLASS_UNKNOWN)
    };
    record(inner, index, OpKind::Free, class, addr);
}

/// Best-effort size-class attribution of a (purported) small-block user
/// pointer: provenance-gated prefix read, exactly like the hardened
/// free path, but reporting instead of rejecting.
fn small_class_of<S: PageSource>(inner: &Inner<S>, addr: usize) -> Option<u16> {
    if addr < PREFIX_SIZE || addr % PREFIX_SIZE != 0 {
        return None;
    }
    let prefix_addr = addr - PREFIX_SIZE;
    if !inner.sb_pool.owns(prefix_addr) {
        return None;
    }
    let prefix = unsafe { (*(prefix_addr as *const AtomicUsize)).load(Ordering::Relaxed) };
    if prefix & crate::large::LARGE_FLAG != 0 {
        return None;
    }
    let desc_ptr = prefix as *mut Descriptor;
    if !inner.desc_pool.owns(desc_ptr) {
        return None;
    }
    let desc = unsafe { &*desc_ptr };
    class_of_size(desc.sz())
}

/// Maps a block size back to its class index (sizes are distinct).
pub(crate) fn class_of_size(sz: u32) -> Option<u16> {
    CLASS_SIZES.iter().position(|&s| s == sz).map(|i| i as u16)
}

/// Snapshot of the most recent `max` flight-recorder entries, newest
/// first. Allocates (quiescent/diagnostic use); the crash path uses
/// [`merge_tail`] instead.
pub(crate) fn flight_tail<S: PageSource>(inner: &Inner<S>, max: usize) -> Vec<FlightOp> {
    let mut out = Vec::new();
    let st = &inner.forensics;
    for t in 0..RING_THREADS {
        let ring = st.ring(t);
        for e in &ring.entries {
            if let Some(op) = decode_entry(e) {
                out.push(op);
            }
        }
    }
    out.sort_unstable_by(|a, b| b.seq.cmp(&a.seq));
    out.truncate(max);
    out
}

fn decode_entry(e: &RingEntry) -> Option<FlightOp> {
    let seq = e.seq.load(Ordering::Acquire);
    if seq == 0 {
        return None;
    }
    let meta = e.meta.load(Ordering::Relaxed);
    let ptr = e.ptr.load(Ordering::Relaxed) as usize;
    // Reject entries rewritten mid-read.
    if e.seq.load(Ordering::Acquire) != seq {
        return None;
    }
    let (op_bits, class, tid) = unpack_meta(meta);
    Some(FlightOp { seq, op: OpKind::from_bits(op_bits)?, class, tid, ptr })
}

// ---------------------------------------------------------------------
// describe_ptr
// ---------------------------------------------------------------------

/// What kind of memory an address landed in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PtrKind {
    /// The null page.
    Null,
    /// Inside a small block of an owned superblock with a valid
    /// descriptor (detail fields of [`PtrReport`] are filled in).
    Small,
    /// Inside the user extent of a live large span.
    LargeSpan,
    /// Inside the trailing guard region of a live guarded large span
    /// (canary page or the `PROT_NONE` hardware guard).
    GuardRegion,
    /// Inside a descriptor slab (allocator metadata, never user data).
    DescriptorSlab,
    /// Inside an owned superblock hyperblock but no live descriptor
    /// claims the containing superblock (uncarved or recycled memory).
    Superblock,
    /// Not owned by this instance at all.
    Foreign,
}

impl PtrKind {
    /// Stable human label.
    pub fn label(self) -> &'static str {
        match self {
            PtrKind::Null => "null",
            PtrKind::Small => "small-block",
            PtrKind::LargeSpan => "large-span",
            PtrKind::GuardRegion => "guard-region",
            PtrKind::DescriptorSlab => "descriptor-slab",
            PtrKind::Superblock => "superblock",
            PtrKind::Foreign => "foreign",
        }
    }
}

/// Classification of one address against one instance. Plain-data
/// (`Copy`, fixed size) so the crash handler can build and render it
/// without allocating.
#[derive(Clone, Copy, Debug)]
pub struct PtrReport {
    /// The address described.
    pub addr: usize,
    /// Coarse classification.
    pub kind: PtrKind,
    /// Size-class index (kind == `Small`).
    pub class: Option<u16>,
    /// Block size in bytes (kind == `Small`).
    pub class_size: u32,
    /// Containing superblock base (kind == `Small`).
    pub superblock: usize,
    /// Descriptor address (kind == `Small`).
    pub descriptor: usize,
    /// Block index inside the superblock (kind == `Small`).
    pub block_index: u32,
    /// Block start address (kind == `Small`).
    pub block_start: usize,
    /// `addr - block_start` (kind == `Small`).
    pub offset_in_block: u32,
    /// Superblock lifecycle state (kind == `Small`).
    pub sb_state: Option<SbState>,
    /// Hardened allocated-bitmap verdict (`None` when hardening is off
    /// and the bitmap is not maintained).
    pub allocated: Option<bool>,
    /// Block interior carries the quarantine poison pattern (freed
    /// hardened blocks await reuse poisoned — a strong "freed /
    /// quarantined" signal).
    pub poisoned: bool,
    /// Span base (kind == `LargeSpan` | `GuardRegion`).
    pub span_base: usize,
    /// Span length in bytes, guard pages included (kind == `LargeSpan`
    /// | `GuardRegion`).
    pub span_bytes: usize,
    /// The span has trailing guard pages (kind == `LargeSpan` |
    /// `GuardRegion`).
    pub guarded: bool,
}

impl PtrReport {
    fn blank(addr: usize, kind: PtrKind) -> Self {
        PtrReport {
            addr,
            kind,
            class: None,
            class_size: 0,
            superblock: 0,
            descriptor: 0,
            block_index: 0,
            block_start: 0,
            offset_in_block: 0,
            sb_state: None,
            allocated: None,
            poisoned: false,
            span_base: 0,
            span_bytes: 0,
            guarded: false,
        }
    }

    /// Renders the one-line classification into `buf` (async-signal-
    /// safe: fixed buffer, no allocation, no `std::fmt`).
    pub fn render(&self, buf: &mut SigBuf) {
        buf.push_str("ptr 0x");
        buf.push_hex(self.addr as u64);
        buf.push_str(": ");
        match self.kind {
            PtrKind::Null => buf.push_str("null pointer"),
            PtrKind::Small => {
                buf.push_str("small block, class ");
                match self.class {
                    Some(c) => buf.push_dec(c as u64),
                    None => buf.push_str("?"),
                }
                buf.push_str(" (");
                buf.push_dec(self.class_size as u64);
                buf.push_str(" B), superblock 0x");
                buf.push_hex(self.superblock as u64);
                buf.push_str(" block #");
                buf.push_dec(self.block_index as u64);
                buf.push_str(" +");
                buf.push_dec(self.offset_in_block as u64);
                buf.push_str(", state=");
                buf.push_str(match self.sb_state {
                    Some(SbState::Active) => "Active",
                    Some(SbState::Full) => "Full",
                    Some(SbState::Partial) => "Partial",
                    Some(SbState::Empty) => "Empty",
                    None => "?",
                });
                buf.push_str(", allocated=");
                buf.push_str(match self.allocated {
                    Some(true) => "yes",
                    Some(false) => "no",
                    None => "untracked",
                });
                buf.push_str(", poisoned=");
                buf.push_str(if self.poisoned { "yes" } else { "no" });
                buf.push_str(", descriptor 0x");
                buf.push_hex(self.descriptor as u64);
            }
            PtrKind::LargeSpan => {
                buf.push_str("large span, base 0x");
                buf.push_hex(self.span_base as u64);
                buf.push_str(" (");
                buf.push_dec(self.span_bytes as u64);
                buf.push_str(" B");
                if self.guarded {
                    buf.push_str(", guarded");
                }
                buf.push_str(")");
            }
            PtrKind::GuardRegion => {
                buf.push_str("GUARD REGION of large span base 0x");
                buf.push_hex(self.span_base as u64);
                buf.push_str(" (+");
                buf.push_dec((self.addr - self.span_base) as u64);
                buf.push_str(" of ");
                buf.push_dec(self.span_bytes as u64);
                buf.push_str(" B) — overrun past the user extent");
            }
            PtrKind::DescriptorSlab => {
                buf.push_str("descriptor-slab metadata (allocator-internal, never user data)")
            }
            PtrKind::Superblock => buf.push_str(
                "owned superblock memory with no live descriptor (uncarved or recycled)",
            ),
            PtrKind::Foreign => {
                buf.push_str("foreign address (not owned by this instance)")
            }
        }
    }
}

impl core::fmt::Display for PtrReport {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let mut buf = SigBuf::new();
        self.render(&mut buf);
        f.write_str(core::str::from_utf8(buf.as_bytes()).unwrap_or("<non-utf8>"))
    }
}

/// Classifies `addr` against this instance. Lock-free, allocation-free,
/// async-signal-safe; see the module docs for the walk.
pub(crate) fn describe_ptr_inner<S: PageSource>(inner: &Inner<S>, addr: usize) -> PtrReport {
    if addr < PAGE_SIZE {
        return PtrReport::blank(addr, PtrKind::Null);
    }
    // Large spans (registry maintained under hardening; in trusting
    // mode spans are registered too — the registry is the source of
    // truth either way).
    if let Some((base, bytes)) = inner.large_spans.span_containing(addr) {
        let header = unsafe { *(base as *const usize) };
        let (total, guarded, _hw) = crate::large::header_fields(header);
        let mut r = PtrReport::blank(
            addr,
            if guarded && total >= 2 * PAGE_SIZE && addr >= base + total - 2 * PAGE_SIZE {
                PtrKind::GuardRegion
            } else {
                PtrKind::LargeSpan
            },
        );
        r.span_base = base;
        r.span_bytes = bytes;
        r.guarded = guarded;
        return r;
    }
    if inner.sb_pool.owns(addr) {
        // Find the descriptor whose superblock contains the address —
        // an allocation-free scan of the (append-only) slab registry
        // with the hardened-free geometry gates on each candidate.
        let mut found: Option<PtrReport> = None;
        inner.desc_pool.for_each_descriptor(|dp| {
            if found.is_some() {
                return;
            }
            let desc = unsafe { &*dp };
            let sz = desc.sz() as usize;
            let maxcount = desc.maxcount() as usize;
            let sb = desc.sb() as usize;
            let geometry_ok = sz >= 2 * PREFIX_SIZE
                && maxcount >= 1
                && sz * maxcount <= SB_SIZE
                && sb != 0
                && sb % SB_SIZE == 0
                && inner.sb_pool.owns(sb);
            if !geometry_ok || addr < sb || addr >= sb + SB_SIZE {
                return;
            }
            let idx = (addr - sb) / sz;
            if idx >= maxcount {
                // Inside the superblock's unusable tail slack.
                return;
            }
            let block_start = sb + idx * sz;
            let hardened = inner.config.hardening != crate::harden::Hardening::Off;
            let mut r = PtrReport::blank(addr, PtrKind::Small);
            r.class = class_of_size(desc.sz());
            r.class_size = desc.sz();
            r.superblock = sb;
            r.descriptor = dp as usize;
            r.block_index = idx as u32;
            r.block_start = block_start;
            r.offset_in_block = (addr - block_start) as u32;
            r.sb_state = Some(desc.load_anchor().state());
            r.allocated = if hardened { Some(desc.alloc_bit(idx)) } else { None };
            r.poisoned = hardened && block_poisoned(block_start, sz);
            found = Some(r);
        });
        return found.unwrap_or_else(|| PtrReport::blank(addr, PtrKind::Superblock));
    }
    if inner.desc_pool.owns_addr(addr) {
        return PtrReport::blank(addr, PtrKind::DescriptorSlab);
    }
    PtrReport::blank(addr, PtrKind::Foreign)
}

/// Whether the block interior (past the prefix word, which stays a live
/// descriptor pointer while quarantined) carries the poison fill.
fn block_poisoned(block_start: usize, sz: usize) -> bool {
    let start = block_start + PREFIX_SIZE;
    let n = (sz - PREFIX_SIZE).min(16);
    if n == 0 {
        return false;
    }
    (0..n).all(|i| unsafe { core::ptr::read_volatile((start + i) as *const u8) } == POISON)
}

// ---------------------------------------------------------------------
// Async-signal-safe rendering primitives
// ---------------------------------------------------------------------

/// A fixed-capacity byte buffer with decimal/hex formatting — the crash
/// path's replacement for `std::fmt` (which is not allocation-free).
pub struct SigBuf {
    bytes: [u8; 512],
    len: usize,
}

impl SigBuf {
    /// An empty buffer.
    pub fn new() -> Self {
        SigBuf { bytes: [0; 512], len: 0 }
    }

    /// Filled prefix.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes[..self.len]
    }

    /// Discards the contents.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Appends literal text (truncates at capacity).
    pub fn push_str(&mut self, s: &str) {
        for &b in s.as_bytes() {
            if self.len == self.bytes.len() {
                return;
            }
            self.bytes[self.len] = b;
            self.len += 1;
        }
    }

    /// Appends `v` in decimal.
    pub fn push_dec(&mut self, mut v: u64) {
        let mut tmp = [0u8; 20];
        let mut i = tmp.len();
        loop {
            i -= 1;
            tmp[i] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        for &b in &tmp[i..] {
            if self.len == self.bytes.len() {
                return;
            }
            self.bytes[self.len] = b;
            self.len += 1;
        }
    }

    /// Appends `v` in lowercase hex (no `0x` prefix).
    pub fn push_hex(&mut self, v: u64) {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        let mut tmp = [0u8; 16];
        let mut i = tmp.len();
        let mut v = v;
        loop {
            i -= 1;
            tmp[i] = DIGITS[(v & 0xF) as usize];
            v >>= 4;
            if v == 0 {
                break;
            }
        }
        for &b in &tmp[i..] {
            if self.len == self.bytes.len() {
                return;
            }
            self.bytes[self.len] = b;
            self.len += 1;
        }
    }
}

impl Default for SigBuf {
    fn default() -> Self {
        Self::new()
    }
}

/// Raw-fd sink: loops `write(2)` until the buffer is out (short writes,
/// EINTR). The only I/O primitive the crash path uses — and the "raw-fd
/// sink" the report renderers target so callers can point them at
/// stderr, a pipe, or a pre-opened black-box file.
#[derive(Clone, Copy)]
pub struct FdWriter {
    fd: i32,
}

impl FdWriter {
    /// A writer over an already-open descriptor (not closed on drop).
    pub fn new(fd: i32) -> Self {
        FdWriter { fd }
    }

    /// Writes all of `buf`, ignoring errors (a crash report must never
    /// make the crash worse). Named `put` so it can never shadow or be
    /// shadowed by `io::Write::write_all` on a `&mut FdWriter`.
    pub fn put(&self, buf: &[u8]) {
        let mut off = 0;
        let mut spins = 0;
        while off < buf.len() && spins < 64 {
            let n = unsafe {
                sys::write(self.fd, buf[off..].as_ptr(), buf.len() - off)
            };
            if n > 0 {
                off += n as usize;
            } else {
                spins += 1;
            }
        }
    }

    /// Writes a buffer followed by a newline.
    pub fn line(&self, buf: &SigBuf) {
        self.put(buf.as_bytes());
        self.put(b"\n");
    }
}

impl std::io::Write for FdWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        FdWriter::put(self, buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Crash reporter
// ---------------------------------------------------------------------

/// Process-global crash sinks: one per reporting instance. Slots are
/// CAS-claimed; the handler reads them lock-free.
struct Sink {
    /// `Inner<S>` address; 0 = empty.
    inner: AtomicUsize,
    /// Type-erased `emit_trampoline::<S>` address; 0 = not ready yet.
    emit: AtomicUsize,
}

const MAX_SINKS: usize = 8;

#[allow(clippy::declare_interior_mutable_const)]
const EMPTY_SINK: Sink = Sink { inner: AtomicUsize::new(0), emit: AtomicUsize::new(0) };
static SINKS: [Sink; MAX_SINKS] = [EMPTY_SINK; MAX_SINKS];

/// The three fail-stop signals the reporter chains.
const CRASH_SIGNALS: [i32; 3] = [sys::SIGSEGV, sys::SIGBUS, sys::SIGABRT];

/// Previous dispositions, written once under the `HANDLERS` claim.
struct OldActions(UnsafeCell<[sys::SigAction; 3]>);
unsafe impl Sync for OldActions {}
static OLD_ACTIONS: OldActions =
    OldActions(UnsafeCell::new([sys::SigAction { sa_sigaction: 0, sa_mask: [0; 16], sa_flags: 0, sa_restorer: 0 }; 3]));

/// 0 = not installed, 1 = installing, 2 = installed.
static HANDLERS: AtomicU32 = AtomicU32::new(0);

/// Recursive-crash guard: a fault inside the reporter chains
/// immediately instead of reporting again.
static CRASH_DEPTH: AtomicU32 = AtomicU32::new(0);

fn sig_index(sig: i32) -> Option<usize> {
    CRASH_SIGNALS.iter().position(|&s| s == sig)
}

type EmitFn = unsafe fn(usize, i32, usize);

/// Monomorphized per page source: recovers the `Inner<S>` and emits.
unsafe fn emit_trampoline<S: PageSource>(inner_addr: usize, sig: i32, fault: usize) {
    let inner = unsafe { &*(inner_addr as *const Inner<S>) };
    emit_crash_report(inner, sig, fault, None);
}

/// The chained signal handler. See the module docs for the
/// async-signal-safety contract.
extern "C" fn crash_handler(sig: i32, info: *mut sys::SigInfo, _ctx: *mut core::ffi::c_void) {
    if CRASH_DEPTH.fetch_add(1, Ordering::SeqCst) == 0 {
        let fault = if sig == sys::SIGABRT || info.is_null() {
            0
        } else {
            unsafe { (*info).si_addr }
        };
        for s in &SINKS {
            let inner = s.inner.load(Ordering::Acquire);
            let emit = s.emit.load(Ordering::Acquire);
            if inner != 0 && emit != 0 {
                let f: EmitFn = unsafe { core::mem::transmute::<usize, EmitFn>(emit) };
                unsafe { f(inner, sig, fault) };
            }
        }
    }
    // Chain: restore the previous disposition and re-deliver. For a
    // hardware fault the faulting instruction re-executes on return and
    // refaults under the old disposition (default: core dump); raise()
    // covers the software-delivered case (abort, kill).
    if let Some(idx) = sig_index(sig) {
        unsafe {
            let old = (*OLD_ACTIONS.0.get())[idx];
            sys::sigaction(sig, &old, core::ptr::null_mut());
        }
    }
    unsafe { sys::raise(sig) };
}

/// Installs the chained handlers once per process (first caller wins;
/// later instances only add sinks).
fn install_handlers_once() {
    match HANDLERS.compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire) {
        Ok(_) => {
            for (i, &sig) in CRASH_SIGNALS.iter().enumerate() {
                let act =
                    sys::SigAction::new(crash_handler as *const () as usize, sys::SA_SIGINFO);
                unsafe {
                    let old = &mut (*OLD_ACTIONS.0.get())[i];
                    sys::sigaction(sig, &act, old);
                }
            }
            HANDLERS.store(2, Ordering::Release);
        }
        Err(_) => {
            // Another thread is installing or already did; spin briefly
            // until published (bounded: installation is three syscalls).
            for _ in 0..1024 {
                if HANDLERS.load(Ordering::Acquire) == 2 {
                    break;
                }
                std::hint::spin_loop();
            }
        }
    }
}

/// Registers `inner` as a crash-report sink writing to `fd` and
/// installs the process handlers. Returns false when all sink slots are
/// taken.
pub(crate) fn install_crash_reporter_inner<S: PageSource>(inner: &Inner<S>, fd: i32) -> bool {
    let st = &inner.forensics;
    st.report_fd.store(fd, Ordering::Relaxed);
    st.crash_generation.store(procfork::generation(), Ordering::Relaxed);
    let addr = inner as *const Inner<S> as usize;
    let emit = emit_trampoline::<S> as *const () as usize;
    let mut claimed = false;
    for s in &SINKS {
        let cur = s.inner.load(Ordering::Acquire);
        if cur == addr {
            s.emit.store(emit, Ordering::Release);
            claimed = true;
            break;
        }
        if cur == 0
            && s.inner
                .compare_exchange(0, addr, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        {
            s.emit.store(emit, Ordering::Release);
            claimed = true;
            break;
        }
    }
    if !claimed {
        return false;
    }
    install_handlers_once();
    st.handler_installed.store(1, Ordering::Release);
    true
}

/// Removes `inner` from the sink table (instance teardown). The
/// process-wide handlers stay installed — with no sinks they only
/// chain.
pub(crate) fn unregister_crash_sink<S: PageSource>(inner: &Inner<S>) {
    let addr = inner as *const Inner<S> as usize;
    for s in &SINKS {
        if s.inner.load(Ordering::Acquire) == addr {
            s.emit.store(0, Ordering::Release);
            s.inner.store(0, Ordering::Release);
        }
    }
}

/// Fail-stop black box: `Hardening::Abort` and `LivenessPolicy::Abort`
/// call this right before panicking so the report survives the abort.
/// No-op unless a report fd was configured.
pub(crate) fn failstop_report<S: PageSource>(inner: &Inner<S>, reason: &str, addr: usize) {
    if inner.forensics.report_fd.load(Ordering::Relaxed) < 0 {
        return;
    }
    // Fail-stops run in normal (non-signal) context, so the event ring
    // (which timestamps) is fair game here — unlike in crash_handler.
    crate::stat_event!(inner, CrashReport, 0u16, addr as u64);
    emit_crash_report(inner, 0, addr, Some(reason));
}

/// Renders the black-box report. `sig == 0` means a fail-stop (reason
/// given) rather than a signal. Async-signal-safe throughout.
fn emit_crash_report<S: PageSource>(inner: &Inner<S>, sig: i32, fault: usize, reason: Option<&str>) {
    let fd = inner.forensics.report_fd.load(Ordering::Relaxed);
    if fd < 0 {
        return;
    }
    let w = FdWriter::new(fd);
    let mut b = SigBuf::new();

    b.push_str("==== lfmalloc crash report ====");
    w.line(&b);

    b.clear();
    match reason {
        Some(r) => {
            b.push_str("cause: fail-stop (");
            b.push_str(r);
            b.push_str(")");
        }
        None => {
            b.push_str("cause: signal ");
            b.push_dec(sig as u64);
            b.push_str(match sig {
                s if s == sys::SIGSEGV => " (SIGSEGV)",
                s if s == sys::SIGBUS => " (SIGBUS)",
                s if s == sys::SIGABRT => " (SIGABRT)",
                _ => "",
            });
        }
    }
    w.line(&b);

    b.clear();
    b.push_str("fault address: 0x");
    b.push_hex(fault as u64);
    w.line(&b);

    b.clear();
    describe_ptr_inner(inner, fault).render(&mut b);
    w.line(&b);

    b.clear();
    b.push_str("inside allocator entry point: ");
    b.push_str(if crate::thread::in_allocator() { "yes" } else { "no" });
    w.line(&b);

    b.clear();
    b.push_str("fork generation: ");
    b.push_dec(procfork::generation());
    b.push_str(" (handlers installed at ");
    b.push_dec(inner.forensics.crash_generation.load(Ordering::Relaxed));
    b.push_str(")");
    w.line(&b);

    // -- Flight recorder: merged tail, newest first. -------------------
    b.clear();
    b.push_str("-- flight recorder (newest first, dropped=");
    b.push_dec(inner.forensics.dropped.get());
    b.push_str(") --");
    w.line(&b);
    let mut tail: [(u64, u64, u64); REPORT_TAIL] = [(0, 0, 0); REPORT_TAIL];
    let mut n = 0usize;
    merge_tail(inner, |seq, meta, ptr| {
        // Keep the REPORT_TAIL largest sequence numbers (insertion into
        // a fixed array — no allocation).
        if n < tail.len() {
            tail[n] = (seq, meta, ptr);
            n += 1;
        } else {
            // Replace the smallest if this one is newer.
            let mut min_i = 0;
            for i in 1..tail.len() {
                if tail[i].0 < tail[min_i].0 {
                    min_i = i;
                }
            }
            if seq > tail[min_i].0 {
                tail[min_i] = (seq, meta, ptr);
            }
        }
    });
    tail[..n].sort_unstable_by(|a, b| b.0.cmp(&a.0));
    for &(seq, meta, ptr) in &tail[..n] {
        let (op_bits, class, tid) = unpack_meta(meta);
        b.clear();
        b.push_str("  seq=");
        b.push_dec(seq);
        b.push_str(" tid=");
        b.push_dec(tid as u64);
        b.push_str(" op=");
        b.push_str(match OpKind::from_bits(op_bits) {
            Some(k) => k.label(),
            None => "?",
        });
        b.push_str(" class=");
        match class {
            CLASS_LARGE => b.push_str("large"),
            CLASS_UNKNOWN => b.push_str("?"),
            c => b.push_dec(c as u64),
        }
        b.push_str(" ptr=0x");
        b.push_hex(ptr);
        w.line(&b);
    }
    if n == 0 {
        b.clear();
        b.push_str("  (empty)");
        w.line(&b);
    }

    // -- Health. -------------------------------------------------------
    b.clear();
    b.push_str("-- health --");
    w.line(&b);
    let (storms, throttles, passes, recoveries) = inner.health.crash_counters();
    b.clear();
    b.push_str("  storms=");
    b.push_dec(storms);
    b.push_str(" throttles=");
    b.push_dec(throttles);
    b.push_str(" maintain_passes=");
    b.push_dec(passes);
    b.push_str(" fork_recoveries=");
    b.push_dec(recoveries);
    w.line(&b);

    // -- OS-byte reconciliation. ---------------------------------------
    let rec = inner.reconcile_bytes();
    b.clear();
    b.push_str("  os live bytes: ");
    b.push_dec(rec.source_live_bytes as u64);
    b.push_str(" (superblocks ");
    b.push_dec(rec.superblock_bytes as u64);
    b.push_str(" + slabs ");
    b.push_dec(rec.descriptor_slab_bytes as u64);
    b.push_str(" + large ");
    b.push_dec(rec.large_bytes as u64);
    b.push_str(", reconciles=");
    b.push_str(if rec.reconciles() { "yes" } else { "no" });
    b.push_str(")");
    w.line(&b);

    // -- Misuse counters. ----------------------------------------------
    b.clear();
    b.push_str("-- misuse --");
    w.line(&b);
    b.clear();
    b.push_str("  invalid_free=");
    b.push_dec(inner.misuse.count(crate::harden::MisuseKind::InvalidFree));
    b.push_str(" double_free=");
    b.push_dec(inner.misuse.count(crate::harden::MisuseKind::DoubleFree));
    b.push_str(" poison_violation=");
    b.push_dec(inner.misuse.count(crate::harden::MisuseKind::PoisonViolation));
    b.push_str(" guard_overrun=");
    b.push_dec(inner.misuse.count(crate::harden::MisuseKind::GuardOverrun));
    b.push_str(" reentrant_alloc=");
    b.push_dec(inner.misuse.count(crate::harden::MisuseKind::ReentrantAlloc));
    w.line(&b);

    b.clear();
    b.push_str("==== end lfmalloc crash report ====");
    w.line(&b);
}

/// Feeds every published ring entry to `f` as raw `(seq, meta, ptr)`
/// words — the crash handler's allocation-free tail walk.
pub(crate) fn merge_tail<S: PageSource>(inner: &Inner<S>, mut f: impl FnMut(u64, u64, u64)) {
    let st = &inner.forensics;
    for t in 0..RING_THREADS {
        let ring = st.ring(t);
        for e in &ring.entries {
            let seq = e.seq.load(Ordering::Acquire);
            if seq == 0 {
                continue;
            }
            let meta = e.meta.load(Ordering::Relaxed);
            let ptr = e.ptr.load(Ordering::Relaxed);
            if e.seq.load(Ordering::Acquire) == seq {
                f(seq, meta, ptr);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Exit-time leak report
// ---------------------------------------------------------------------

type ExitFn = unsafe fn(usize, i32);

static EXIT_INNER: AtomicUsize = AtomicUsize::new(0);
static EXIT_FD: AtomicI32 = AtomicI32::new(-1);
static EXIT_EMIT: AtomicUsize = AtomicUsize::new(0);
static EXIT_REGISTERED: AtomicU32 = AtomicU32::new(0);

unsafe fn exit_trampoline<S: PageSource>(inner_addr: usize, fd: i32) {
    let inner = unsafe { &*(inner_addr as *const Inner<S>) };
    emit_leak_report(inner, fd);
}

extern "C" fn exit_cb() {
    let inner = EXIT_INNER.load(Ordering::Acquire);
    let emit = EXIT_EMIT.load(Ordering::Acquire);
    let fd = EXIT_FD.load(Ordering::Acquire);
    if inner != 0 && emit != 0 && fd >= 0 {
        let f: ExitFn = unsafe { core::mem::transmute::<usize, ExitFn>(emit) };
        unsafe { f(inner, fd) };
    }
}

/// Registers an exit-time leak report for `inner` on `fd` (used by
/// [`crate::GlobalLfMalloc::install_exit_leak_report`]; one per
/// process — the global allocator's instance is the natural owner).
pub(crate) fn install_exit_report_inner<S: PageSource>(inner: &Inner<S>, fd: i32) {
    EXIT_INNER.store(inner as *const Inner<S> as usize, Ordering::Release);
    EXIT_EMIT.store(exit_trampoline::<S> as *const () as usize, Ordering::Release);
    EXIT_FD.store(fd, Ordering::Release);
    if EXIT_REGISTERED.swap(1, Ordering::AcqRel) == 0 {
        unsafe { sys::atexit(exit_cb) };
    }
}

/// Renders the exit-time leak report: retained OS bytes, live large
/// blocks, and (with `profile`) the top retained call sites. Runs at
/// normal exit — allocation is legal here, but the renderer sticks to
/// the fixed-buffer primitives anyway except for the profile section.
fn emit_leak_report<S: PageSource>(inner: &Inner<S>, fd: i32) {
    let w = FdWriter::new(fd);
    let mut b = SigBuf::new();
    b.push_str("==== lfmalloc exit leak report ====");
    w.line(&b);

    let rec = inner.reconcile_bytes();
    b.clear();
    b.push_str("os live bytes at exit: ");
    b.push_dec(rec.source_live_bytes as u64);
    w.line(&b);

    b.clear();
    b.push_str("large blocks live: ");
    b.push_dec(inner.large_live.load(Ordering::Relaxed) as u64);
    b.push_str(" (");
    b.push_dec(inner.large_bytes.load(Ordering::Relaxed) as u64);
    b.push_str(" B)");
    w.line(&b);

    // Small-block occupancy from the descriptor universe.
    let mut live_blocks = 0u64;
    let mut live_bytes = 0u64;
    inner.desc_pool.for_each_descriptor(|dp| {
        let desc = unsafe { &*dp };
        let sz = desc.sz() as usize;
        let maxcount = desc.maxcount() as usize;
        let sb = desc.sb() as usize;
        if sz >= 2 * PREFIX_SIZE && maxcount >= 1 && sz * maxcount <= SB_SIZE && sb != 0 {
            let anchor = desc.load_anchor();
            let used = maxcount as u64 - (anchor.count() as u64).min(maxcount as u64);
            live_blocks += used;
            live_bytes += used * sz as u64;
        }
    });
    b.clear();
    b.push_str("small blocks live-or-reserved: ");
    b.push_dec(live_blocks);
    b.push_str(" (");
    b.push_dec(live_bytes);
    b.push_str(" B)");
    w.line(&b);

    #[cfg(feature = "profile")]
    {
        let sites = {
            let inst = unsafe {
                LfMalloc::<S>::borrow_raw(core::ptr::NonNull::new_unchecked(
                    inner as *const Inner<S> as *mut Inner<S>,
                ))
            };
            inst.retention_report()
        };
        b.clear();
        b.push_str("top retained call sites:");
        w.line(&b);
        for (i, site) in sites.iter().take(8).enumerate() {
            b.clear();
            b.push_str("  ");
            b.push_dec(i as u64 + 1);
            b.push_str(". ");
            b.push_str(&site.site.file);
            b.push_str(":");
            b.push_dec(site.site.line as u64);
            b.push_str(" live~");
            b.push_dec(site.live_bytes);
            b.push_str(" B over ");
            b.push_dec(site.live_samples as u64);
            b.push_str(" samples");
            w.line(&b);
        }
        if sites.is_empty() {
            b.clear();
            b.push_str("  (no live samples)");
            w.line(&b);
        }
    }

    b.clear();
    b.push_str("==== end lfmalloc exit leak report ====");
    w.line(&b);
}

// ---------------------------------------------------------------------
// Public API surface
// ---------------------------------------------------------------------

impl<S: PageSource> LfMalloc<S> {
    /// Classifies `addr` against this instance's memory: small block
    /// (with descriptor state, hardened allocated-bit and poison
    /// verdicts), large span or guard region, descriptor metadata,
    /// owned superblock memory, or foreign. Lock-free,
    /// allocation-free, async-signal-safe.
    pub fn describe_ptr(&self, addr: usize) -> PtrReport {
        describe_ptr_inner(self.inner(), addr)
    }

    /// Installs the chained SIGSEGV/SIGBUS/SIGABRT crash reporter for
    /// this instance, writing black-box reports to `fd` with `write(2)`
    /// only. Returns false if the process sink table is full
    /// (more than 8 reporting instances).
    pub fn install_crash_reporter(&self, fd: i32) -> bool {
        install_crash_reporter_inner(self.inner(), fd)
    }

    /// The most recent `max` flight-recorder entries, newest first.
    pub fn flight_recorder_tail(&self, max: usize) -> Vec<FlightOp> {
        flight_tail(self.inner(), max)
    }

    /// Lifetime count of operations the flight recorder could not
    /// record (thread-local storage torn down).
    pub fn flight_recorder_dropped(&self) -> u64 {
        self.inner().forensics.dropped.get()
    }

    /// Whether this instance's crash handlers are installed.
    pub fn crash_handler_installed(&self) -> bool {
        self.inner().forensics.handler_installed.load(Ordering::Relaxed) == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn meta_packing_roundtrip() {
        for (op, class, tid) in [
            (OpKind::Alloc, 0u16, 0u32),
            (OpKind::Free, CLASS_LARGE, 7),
            (OpKind::AllocFailed, CLASS_UNKNOWN, u32::MAX),
            (OpKind::Alloc, 55, 12345),
        ] {
            let (ob, c, t) = unpack_meta(pack_meta(op, class, tid));
            assert_eq!(OpKind::from_bits(ob), Some(op));
            assert_eq!(c, class);
            assert_eq!(t, tid);
        }
    }

    #[test]
    fn sigbuf_formats_and_truncates() {
        let mut b = SigBuf::new();
        b.push_str("x=");
        b.push_dec(0);
        b.push_str(" y=0x");
        b.push_hex(0xdead_beef);
        assert_eq!(b.as_bytes(), b"x=0 y=0xdeadbeef");
        b.clear();
        b.push_dec(18_446_744_073_709_551_615);
        assert_eq!(b.as_bytes(), b"18446744073709551615");
        b.clear();
        for _ in 0..600 {
            b.push_str("a");
        }
        assert_eq!(b.as_bytes().len(), 512, "capped at capacity");
    }

    #[test]
    fn class_of_size_maps_every_class() {
        for (i, &sz) in CLASS_SIZES.iter().enumerate() {
            assert_eq!(class_of_size(sz), Some(i as u16));
        }
        assert_eq!(class_of_size(3), None);
    }
}
