//! The allocator instance: construction, teardown, and the public
//! [`RawMalloc`] surface.
//!
//! All instance state lives in a single system-allocated, address-stable
//! `Inner` block ("On the first call to malloc, the static structures
//! for the size classes and processor heaps (about 16 KB for a 16
//! processor machine) are allocated and initialized", §3.1 — here
//! construction is explicit, and the lazy lock-free first-call
//! initialization lives in [`crate::global`]).
//!
//! Nothing in the malloc/free paths allocates through the Rust global
//! allocator, so an `LfMalloc` can *be* the global allocator.

use crate::active::Active;
use crate::anchor::SbState;
use crate::config::{Config, PREFIX_SIZE, SB_BATCH, SB_SHIFT};
use crate::descriptor::DescriptorPool;
use crate::harden::{Hardening, MisuseCounters, QUARANTINE_CAP};
use crate::heap::ProcHeap;
use crate::partial::PartialList;
use crate::size_classes::{class_index, class_index_aligned, CLASS_SIZES, NUM_CLASSES};
use core::ptr::NonNull;
use core::sync::atomic::{AtomicUsize, Ordering};
use hazard::HazardDomain;
use lockfree_structs::BoundedQueue;
use malloc_api::{AllocStats, RawMalloc};
use osmem::{CountingSource, PagePool, PageSource, SpanRegistry, SystemSource};
use std::alloc::{GlobalAlloc, Layout, System};

/// A quarantined small block: `(block start, descriptor address)`.
pub(crate) type QuarantineEntry = (usize, usize);

/// Per-size-class state: the partial-superblock list plus the class
/// geometry (paper Figure 3's `sizeclass`).
#[derive(Debug)]
pub(crate) struct SizeClassState {
    /// Partial-superblock list shared by the class's heaps.
    pub partial: PartialList,
    /// Total block size (prefix included).
    pub sz: u32,
}

/// All allocator state; address-stable behind a system allocation.
pub(crate) struct Inner<S: PageSource> {
    // Field order is teardown order (see `LfMalloc::drop`): the hazard
    // domain must drain (pushing retired descriptors and queue nodes
    // back into their pools) before any pool releases memory.
    pub domain: HazardDomain,
    pub desc_pool: DescriptorPool,
    pub sb_pool: PagePool<SB_SHIFT>,
    pub source: CountingSource<S>,
    pub config: Config,
    pub nheaps: usize,
    /// `NUM_CLASSES * nheaps` processor heaps, system-allocated.
    pub heaps: *mut ProcHeap,
    pub classes: [SizeClassState; NUM_CLASSES],
    /// Count of live large blocks (diagnostics).
    pub large_live: AtomicUsize,
    /// Total OS bytes backing live large blocks (audit accounting).
    pub large_bytes: AtomicUsize,
    /// Live large-block spans, the provenance registry hardened frees
    /// consult. Populated only when `config.hardening != Off`.
    pub large_spans: SpanRegistry,
    /// Per-instance misuse accounting (always present; counts stay zero
    /// with hardening off).
    pub misuse: MisuseCounters,
    /// `nheaps` quarantine shards for freed small blocks, or null when
    /// hardening is off. System-allocated.
    pub quarantine: *mut BoundedQueue<QuarantineEntry>,
    /// Always-on liveness/maintenance counters (see [`crate::health`]).
    pub health: crate::health::HealthState,
    /// Background-reaper control plane (see [`crate::maintain`]).
    pub reaper: crate::maintain::ReaperState,
    /// Fork bookkeeping: recovered generation, atfork-hook token, and
    /// the across-fork reaper-guard stash (see [`crate::fork`]).
    pub fork: crate::fork::ForkState,
    /// Planted-bug state for the shadow-heap oracle tests: the most
    /// recent small block handed out, plus its class index. Only read
    /// when the `alloc.double_handout` failpoint is armed; see
    /// [`crate::alloc::malloc_small`].
    #[cfg(feature = "failpoints")]
    pub bug_stash: AtomicUsize,
    #[cfg(feature = "failpoints")]
    pub bug_stash_ci: AtomicUsize,
    /// Telemetry: the shard array, global counters, and the event ring.
    #[cfg(feature = "stats")]
    pub stats: crate::stats::InstanceStats,
    /// Sampled allocation-site profiler (see [`crate::profile`]).
    #[cfg(feature = "profile")]
    pub profile: crate::profile::ProfileState,
    /// Crash-forensics state: flight-recorder rings and crash-reporter
    /// wiring (see [`crate::forensics`]).
    #[cfg(feature = "forensics")]
    pub forensics: crate::forensics::ForensicsState,
    /// Epoch and thread-index counter of the sampler and flight recorder.
    #[cfg(any(feature = "profile", feature = "forensics"))]
    pub threads: crate::thread::InstanceThreads,
}

impl<S: PageSource> Inner<S> {
    /// The heap thread `tid` uses for size class `ci` (`None` maps like 0).
    #[inline]
    pub fn heap_for(&self, ci: usize, tid: Option<usize>) -> &ProcHeap {
        let h = tid.unwrap_or(0) % self.nheaps;
        unsafe { &*self.heaps.add(ci * self.nheaps + h) }
    }

    /// Heap `h` of class `ci` (tests and diagnostics).
    #[cfg(test)]
    pub fn heap_at(&self, ci: usize, h: usize) -> &ProcHeap {
        assert!(ci < NUM_CLASSES && h < self.nheaps);
        unsafe { &*self.heaps.add(ci * self.nheaps + h) }
    }

    /// Blocks currently parked in the quarantine rings (racy snapshot;
    /// 0 when hardening is off).
    pub fn quarantine_depth(&self) -> usize {
        if self.quarantine.is_null() {
            return 0;
        }
        (0..self.nheaps).map(|i| unsafe { (*self.quarantine.add(i)).len() }).sum()
    }
}

/// The completely lock-free allocator of Michael (PLDI 2004).
///
/// Generic over its OS page source `S` so experiments can inject a
/// counting source; defaults to [`SystemSource`].
///
/// # Example
///
/// ```
/// use lfmalloc::LfMalloc;
/// use malloc_api::RawMalloc;
///
/// let a = LfMalloc::new_default();
/// unsafe {
///     let p = a.malloc(64);
///     assert!(!p.is_null());
///     a.free(p);
/// }
/// ```
///
/// # Teardown
///
/// Dropping the instance returns **all** its memory to the OS and
/// invalidates any still-outstanding blocks (arena semantics). Callers
/// must free or forget outstanding blocks first.
pub struct LfMalloc<S: PageSource = SystemSource> {
    inner: NonNull<Inner<S>>,
}

unsafe impl<S: PageSource + Send + Sync> Send for LfMalloc<S> {}
unsafe impl<S: PageSource + Send + Sync> Sync for LfMalloc<S> {}

/// Construction failed because the system allocator could not supply
/// the instance's fixed metadata (heap table + state block).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OutOfMemory;

impl core::fmt::Display for OutOfMemory {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("lfmalloc: out of memory constructing instance")
    }
}

impl std::error::Error for OutOfMemory {}

impl LfMalloc<SystemSource> {
    /// Paper-shaped defaults: per-CPU heaps, FIFO partial lists, system
    /// page source.
    pub fn new_default() -> Self {
        Self::with_config(Config::detect())
    }

    /// Fallible [`new_default`](Self::new_default).
    pub fn try_new_default() -> Result<Self, OutOfMemory> {
        Self::try_with_config(Config::detect())
    }

    /// Custom configuration over the system page source. When
    /// [`Config::reaper`] is set, the background reaper starts here.
    pub fn with_config(config: Config) -> Self {
        let a = Self::with_config_and_source(config, SystemSource::new());
        if config.reaper.is_some() {
            a.start_reaper();
        }
        a
    }

    /// Fallible [`with_config`](Self::with_config).
    pub fn try_with_config(config: Config) -> Result<Self, OutOfMemory> {
        let a = Self::try_with_config_and_source(config, SystemSource::new())?;
        if config.reaper.is_some() {
            a.start_reaper();
        }
        Ok(a)
    }
}

impl<S: PageSource> LfMalloc<S> {
    /// Builds an instance over an injected page source (e.g. a counting
    /// source for the §4.2.5 space experiment).
    ///
    /// # Panics
    ///
    /// Panics if the system allocator cannot supply the instance
    /// metadata; use
    /// [`try_with_config_and_source`](Self::try_with_config_and_source)
    /// to propagate that as an error instead.
    pub fn with_config_and_source(config: Config, source: S) -> Self {
        Self::try_with_config_and_source(config, source)
            .expect("lfmalloc: instance allocation failed")
    }

    /// Fallible construction: `Err(OutOfMemory)` (with nothing leaked)
    /// when the system allocator cannot supply the heap table or the
    /// instance state block.
    pub fn try_with_config_and_source(config: Config, source: S) -> Result<Self, OutOfMemory> {
        let nheaps = config.heap_mode.heap_count();
        unsafe {
            let heaps_layout = Layout::array::<ProcHeap>(NUM_CLASSES * nheaps)
                .map_err(|_| OutOfMemory)?;
            let heaps = System.alloc(heaps_layout) as *mut ProcHeap;
            if heaps.is_null() {
                return Err(OutOfMemory);
            }
            for ci in 0..NUM_CLASSES {
                for h in 0..nheaps {
                    heaps.add(ci * nheaps + h).write(ProcHeap::new(ci));
                }
            }
            // Hardened instances get one quarantine ring per heap.
            let mut quarantine: *mut BoundedQueue<QuarantineEntry> = core::ptr::null_mut();
            if config.hardening != Hardening::Off {
                let q_layout = Layout::array::<BoundedQueue<QuarantineEntry>>(nheaps)
                    .map_err(|_| OutOfMemory)?;
                quarantine = System.alloc(q_layout) as *mut BoundedQueue<QuarantineEntry>;
                if quarantine.is_null() {
                    System.dealloc(heaps as *mut u8, heaps_layout);
                    return Err(OutOfMemory);
                }
                for i in 0..nheaps {
                    match BoundedQueue::new(QUARANTINE_CAP) {
                        Some(q) => quarantine.add(i).write(q),
                        None => {
                            for j in 0..i {
                                core::ptr::drop_in_place(quarantine.add(j));
                            }
                            System.dealloc(quarantine as *mut u8, q_layout);
                            System.dealloc(heaps as *mut u8, heaps_layout);
                            return Err(OutOfMemory);
                        }
                    }
                }
            }
            let free_quarantine = |q: *mut BoundedQueue<QuarantineEntry>| {
                if !q.is_null() {
                    for i in 0..nheaps {
                        core::ptr::drop_in_place(q.add(i));
                    }
                    System.dealloc(
                        q as *mut u8,
                        Layout::array::<BoundedQueue<QuarantineEntry>>(nheaps).unwrap(),
                    );
                }
            };
            // Telemetry shards mirror the heap table's layout; build them
            // first so a failure cleans up like any other metadata OOM.
            #[cfg(feature = "stats")]
            let stats = match crate::stats::InstanceStats::new(NUM_CLASSES * nheaps) {
                Some(s) => s,
                None => {
                    free_quarantine(quarantine);
                    System.dealloc(heaps as *mut u8, heaps_layout);
                    return Err(OutOfMemory);
                }
            };
            #[cfg(feature = "profile")]
            let profile = match crate::profile::ProfileState::new(config.profile) {
                Some(p) => p,
                None => {
                    free_quarantine(quarantine);
                    System.dealloc(heaps as *mut u8, heaps_layout);
                    return Err(OutOfMemory);
                }
            };
            #[cfg(feature = "forensics")]
            let forensics = match crate::forensics::ForensicsState::new(config.forensics) {
                Some(f) => f,
                None => {
                    free_quarantine(quarantine);
                    System.dealloc(heaps as *mut u8, heaps_layout);
                    return Err(OutOfMemory);
                }
            };
            let inner_layout = Layout::new::<Inner<S>>();
            let inner = System.alloc(inner_layout) as *mut Inner<S>;
            if inner.is_null() {
                free_quarantine(quarantine);
                System.dealloc(heaps as *mut u8, heaps_layout);
                return Err(OutOfMemory);
            }
            inner.write(Inner {
                domain: HazardDomain::new(),
                desc_pool: DescriptorPool::new(),
                sb_pool: PagePool::new(SB_BATCH),
                source: CountingSource::new(source),
                config,
                nheaps,
                heaps,
                classes: core::array::from_fn(|i| SizeClassState {
                    partial: PartialList::new(config.partial_mode),
                    sz: CLASS_SIZES[i],
                }),
                large_live: AtomicUsize::new(0),
                large_bytes: AtomicUsize::new(0),
                large_spans: SpanRegistry::new(),
                misuse: MisuseCounters::new(),
                quarantine,
                health: crate::health::HealthState::new(),
                reaper: crate::maintain::ReaperState::new(),
                fork: crate::fork::ForkState::new(),
                #[cfg(feature = "failpoints")]
                bug_stash: AtomicUsize::new(0),
                #[cfg(feature = "failpoints")]
                bug_stash_ci: AtomicUsize::new(usize::MAX),
                #[cfg(feature = "stats")]
                stats,
                #[cfg(feature = "profile")]
                profile,
                #[cfg(feature = "forensics")]
                forensics,
                #[cfg(any(feature = "profile", feature = "forensics"))]
                threads: crate::thread::InstanceThreads::new(),
            });
            // The FIFO partial lists allocate their dummy nodes now that
            // the domain has a stable address.
            for class in &(*inner).classes {
                class.partial.init(&(*inner).domain);
            }
            // Fork awareness: register atfork hooks against the (now
            // address-stable) instance. This touches only the in-tree
            // procfork registry — never `pthread_atfork`, which may
            // itself malloc and so must not run inside the global
            // allocator's first-call initialization.
            if config.atfork {
                crate::fork::register_instance(&*inner);
            }
            // Black-box crash reporting, when configured: the instance
            // address is stable from here on, so it can register as a
            // crash sink.
            #[cfg(feature = "forensics")]
            if config.forensics.crash_handlers {
                crate::forensics::install_crash_reporter_inner(
                    &*inner,
                    config.forensics.report_fd,
                );
            }
            Ok(LfMalloc { inner: NonNull::new_unchecked(inner) })
        }
    }

    #[inline]
    pub(crate) fn inner(&self) -> &Inner<S> {
        unsafe { self.inner.as_ref() }
    }

    #[inline]
    pub(crate) fn raw_inner(&self) -> NonNull<Inner<S>> {
        self.inner
    }

    /// A borrowed, never-dropped handle over a raw instance pointer —
    /// how the reaper thread reaches the full method surface.
    ///
    /// # Safety
    ///
    /// `inner` must point at a live instance and stay live for the
    /// handle's whole lifetime; the `ManuallyDrop` wrapper must never be
    /// taken out of.
    pub(crate) unsafe fn borrow_raw(inner: NonNull<Inner<S>>) -> core::mem::ManuallyDrop<Self> {
        core::mem::ManuallyDrop::new(LfMalloc { inner })
    }

    /// The active configuration.
    pub fn config(&self) -> Config {
        self.inner().config
    }

    /// OS-level memory accounting (drives the space-efficiency
    /// experiment). Covers superblock hyperblocks, descriptor slabs and
    /// large blocks; excludes only the tiny fixed metadata block and
    /// queue-node slabs.
    pub fn os_stats(&self) -> AllocStats {
        self.inner().source.stats()
    }

    /// Number of superblock hyperblocks mapped (diagnostics).
    pub fn hyperblock_count(&self) -> usize {
        self.inner().sb_pool.hyperblock_count()
    }

    /// Approximate occupancy of the emergency descriptor reserve
    /// (diagnostics; see `DescriptorPool`).
    pub fn descriptor_reserve_len(&self) -> usize {
        self.inner().desc_pool.reserve_len()
    }

    /// This instance's misuse detections (all zero unless
    /// [`Config::hardening`](crate::config::Config) is `Detect` or
    /// `Abort`). The process-wide aggregate is
    /// [`harden::process_misuse_counters`](crate::harden::process_misuse_counters).
    pub fn misuse_counters(&self) -> &MisuseCounters {
        &self.inner().misuse
    }

    /// Releases every quarantined block back into circulation (after
    /// verifying its poison), returning how many were released. No-op
    /// when hardening is off. Safe to call concurrently with
    /// malloc/free — the quarantine rings are MPMC and the release path
    /// is the ordinary lock-free free.
    pub fn flush_quarantine(&self) -> usize {
        crate::maintain::flush_quarantine_budgeted(self.inner(), u32::MAX) as usize
    }

    /// Returns all reclaimable memory to the OS: uninstalls idle active
    /// superblocks, prunes empty descriptors out of the partial
    /// structures, flushes the hazard domain, then unmaps every fully
    /// free hyperblock and descriptor slab. Returns bytes released.
    ///
    /// # Safety
    ///
    /// Requires quiescence: no concurrent `malloc`/`free`/`trim` on this
    /// instance. (The instance stays fully usable afterwards.)
    pub unsafe fn trim(&self) -> usize {
        unsafe { self.trim_to(0) }
    }

    /// Like [`trim`](Self::trim) but leaves up to `target_bytes` of
    /// superblock hyperblocks cached for reuse (a low watermark;
    /// descriptor slabs, a tiny fraction, are always fully trimmed).
    ///
    /// # Safety
    ///
    /// Same quiescence contract as [`trim`](Self::trim).
    pub unsafe fn trim_to(&self, target_bytes: usize) -> usize {
        let inner = self.inner();
        let t0 = crate::lat_start!();
        inner.health.note_watermark(target_bytes);
        // 0. Hardened mode: quarantined blocks pin their superblocks
        //    partially allocated; release them before hunting for fully
        //    free hyperblocks.
        self.flush_quarantine();
        // 1. Uninstall every idle active superblock. An installed ACTIVE
        //    superblock's Active word pins credits+1 reserved blocks, so
        //    a drained (class, heap) pair otherwise holds its hyperblock
        //    forever (free() never EMPTIES an installed superblock).
        for ci in 0..NUM_CLASSES {
            for h in 0..inner.nheaps {
                let heap = unsafe { &*inner.heaps.add(ci * inner.nheaps + h) };
                let active = heap.load_active();
                if active.is_null() || heap.cas_active(active, Active::null()).is_err() {
                    continue;
                }
                let desc_ptr = active.desc() as *mut crate::descriptor::Descriptor;
                let desc = unsafe { &*desc_ptr };
                let credits = active.credits();
                let maxcount = desc.maxcount();
                // Return the credits+1 reserved blocks to the anchor.
                loop {
                    let old = desc.load_anchor();
                    if old.count() + credits + 1 == maxcount {
                        // No user blocks outstanding: the superblock is
                        // fully free — EMPTY (count stays maxcount-1, as
                        // in free()'s EMPTY transition) and recycled.
                        let new =
                            old.with_count(maxcount - 1).with_state(SbState::Empty);
                        if desc.cas_anchor(old, new).is_ok() {
                            // Counted like free()'s EMPTY transition so
                            // the fragmentation estimator's committed
                            // figure (new-sb minus emptied) stays true.
                            crate::stat!(inner, heap, free_empty);
                            crate::stat_event!(inner, SbRetire, ci, desc.sb() as usize);
                            unsafe {
                                inner.sb_pool.dealloc(desc.sb());
                                inner.desc_pool.retire(&inner.domain, desc_ptr);
                            }
                            break;
                        }
                    } else {
                        // Live blocks remain: park it as PARTIAL, same
                        // as UpdateActive's lost-race path.
                        let new = old
                            .with_count(old.count() + credits + 1)
                            .with_state(SbState::Partial);
                        if desc.cas_anchor(old, new).is_ok() {
                            unsafe { crate::alloc::heap_put_partial(inner, desc_ptr) };
                            break;
                        }
                    }
                }
            }
        }
        // 2. Prune EMPTY descriptors out of the heap partial slots and
        //    the class partial lists (free() retires most of them, but
        //    ListRemoveEmptyDesc stops at the first non-empty head, so
        //    stragglers can sit behind it).
        for ci in 0..NUM_CLASSES {
            for h in 0..inner.nheaps {
                let heap = unsafe { &*inner.heaps.add(ci * inner.nheaps + h) };
                let desc = heap.load_partial();
                if !desc.is_null()
                    && unsafe { (*desc).load_anchor() }.state() == SbState::Empty
                    && heap.cas_partial(desc, core::ptr::null_mut())
                {
                    unsafe { inner.desc_pool.retire(&inner.domain, desc) };
                }
            }
            let list = &inner.classes[ci].partial;
            let mut keep: Vec<*mut crate::descriptor::Descriptor> = Vec::new();
            while let Some(desc) = unsafe { list.get(&inner.domain) } {
                if unsafe { (*desc).load_anchor() }.state() == SbState::Empty {
                    unsafe { inner.desc_pool.retire(&inner.domain, desc) };
                } else {
                    keep.push(desc);
                }
            }
            for desc in keep {
                unsafe { list.put(&inner.domain, desc) };
            }
        }
        // 3. Flush every record's retired descriptors back into the
        //    descriptor pool so step 4 sees the slabs as free.
        unsafe { inner.domain.flush_all() };
        // 4. Give fully free hyperblocks and slabs back to the OS.
        let mut released = unsafe { inner.sb_pool.trim_to(&inner.source, target_bytes) };
        released += unsafe { inner.desc_pool.trim(&inner.domain, &inner.source) };
        crate::stat_global!(inner, trims);
        crate::stat_event!(inner, Trim, 0, released);
        crate::stat_lat!(inner, lat_trim, t0);
        released
    }

    /// Allocates `size` bytes at alignment `align` (any power of two).
    ///
    /// # Safety
    ///
    /// Standard malloc contract; see [`RawMalloc::malloc`].
    #[cfg_attr(feature = "profile", track_caller)]
    pub unsafe fn allocate(&self, size: usize, align: usize) -> *mut u8 {
        debug_assert!(align.is_power_of_two());
        unsafe { self.allocate_impl(size, align, false) }
    }

    /// Allocates `size` zeroed bytes.
    ///
    /// Small blocks come from recycled superblocks and are always
    /// explicitly zeroed. Large blocks go straight to the page source
    /// and are never pooled (see [`crate::large`]), so when the source
    /// guarantees zero-filled fresh pages
    /// ([`PageSource::zeroes_fresh_pages`]) the memset is skipped — the
    /// user area of a fresh large block is provably untouched (the
    /// prefix word sits below the user pointer and hardened canaries sit
    /// beyond the user extent).
    ///
    /// # Safety
    ///
    /// Standard malloc contract; see [`RawMalloc::malloc_zeroed`].
    #[cfg_attr(feature = "profile", track_caller)]
    pub unsafe fn allocate_zeroed(&self, size: usize) -> *mut u8 {
        unsafe { self.allocate_impl(size, PREFIX_SIZE, true) }
    }

    /// The body of [`allocate`](Self::allocate) and
    /// [`allocate_zeroed`](Self::allocate_zeroed).
    #[cfg_attr(feature = "profile", track_caller)]
    #[inline(always)]
    unsafe fn allocate_impl(&self, size: usize, align: usize, zeroed: bool) -> *mut u8 {
        #[cfg(feature = "profile")]
        let site = core::panic::Location::caller();
        let inner = self.inner();
        let Some(entered) = crate::thread::enter(inner, 0) else {
            // Signal handler re-entered the allocator on this thread:
            // fail fast instead of racing our own interrupted frame.
            return core::ptr::null_mut();
        };
        let off = align.max(PREFIX_SIZE);
        let Some(total) = size.checked_add(off) else {
            return core::ptr::null_mut();
        };
        let class = if align <= PREFIX_SIZE {
            class_index(total)
        } else {
            class_index_aligned(total, align)
        };
        let p = match class {
            Some(ci) => unsafe { crate::alloc::malloc_small(inner, ci, off, entered.tid) },
            None => unsafe { crate::large::alloc_large(inner, size, align) },
        };
        // A fresh large block from a zero-filling source is already zero.
        if zeroed && !p.is_null() && (class.is_some() || !inner.source.zeroes_fresh_pages()) {
            unsafe { core::ptr::write_bytes(p, 0, size) };
        }
        #[cfg(feature = "profile")]
        if !p.is_null() {
            crate::profile::tick(inner, entered.index, p, size, site);
        }
        #[cfg(feature = "forensics")]
        crate::forensics::record(
            inner,
            entered.index,
            if p.is_null() {
                crate::forensics::OpKind::AllocFailed
            } else {
                crate::forensics::OpKind::Alloc
            },
            match class {
                Some(ci) => ci as u16,
                None => crate::forensics::CLASS_LARGE,
            },
            p as usize,
        );
        p
    }

    /// Crash-tolerance test hook: reserves a block from the calling
    /// thread's heap for size class of `size` and abandons the
    /// operation, as if the reserving thread were killed mid-`malloc`
    /// (between Figure 4's lines 6 and 8). Leaks at most one block.
    ///
    /// Returns true if a reservation was actually abandoned.
    #[doc(hidden)]
    pub fn simulate_killed_reservation(&self, size: usize) -> bool {
        let inner = self.inner();
        match class_index(size + PREFIX_SIZE) {
            Some(ci) => unsafe { crate::alloc::abandon_reservation(inner, ci) },
            None => false,
        }
    }

    /// Usable bytes in the block at `ptr` (size-class rounding makes
    /// this ≥ the requested size).
    ///
    /// # Safety
    ///
    /// `ptr` must be a live block of this instance.
    pub unsafe fn block_usable_size(&self, ptr: *mut u8) -> usize {
        let prefix_addr = ptr as usize - PREFIX_SIZE;
        let prefix =
            unsafe { (*(prefix_addr as *const AtomicUsize)).load(Ordering::Relaxed) };
        if prefix & crate::large::LARGE_FLAG != 0 {
            return unsafe { crate::large::usable_size_large(ptr, prefix) };
        }
        let desc = unsafe { &*(prefix as *const crate::descriptor::Descriptor) };
        let sz = desc.sz() as usize;
        let sb = desc.sb() as usize;
        let idx = (prefix_addr - sb) / sz;
        let block_end = sb + (idx + 1) * sz;
        block_end - ptr as usize
    }

    /// Frees a block returned by [`allocate`](Self::allocate) (or by the
    /// `RawMalloc` methods).
    ///
    /// # Safety
    ///
    /// `ptr` must be null or a live block of this instance.
    pub unsafe fn deallocate(&self, ptr: *mut u8) {
        if ptr.is_null() {
            return;
        }
        let inner = self.inner();
        let Some(entered) = crate::thread::enter(inner, ptr as usize) else {
            // Reentrant free: leaking the block is the only safe answer
            // (touching the anchor could race our interrupted frame).
            return;
        };
        // Unwind any live sample before the block is dispatched; works
        // on every free path (hardened, large, TLS teardown) because
        // removal needs no thread identity.
        #[cfg(feature = "profile")]
        crate::profile::untick(inner, ptr);
        // Record before dispatch so misuse frees (which the hardened
        // path rejects) still land in the flight recorder.
        #[cfg(feature = "forensics")]
        crate::forensics::record_free(inner, entered.index, ptr);
        if inner.config.hardening != Hardening::Off {
            // The validated path establishes provenance before touching
            // any memory; misuse is reported, never executed.
            return unsafe { crate::harden::free_hardened(inner, ptr, entered.tid) };
        }
        // Read the prefix: a descriptor pointer (even) or the
        // large-block marker (odd).
        let prefix = unsafe {
            (*( (ptr as usize - PREFIX_SIZE) as *const AtomicUsize)).load(Ordering::Relaxed)
        };
        if prefix & crate::large::LARGE_FLAG != 0 {
            unsafe { crate::large::free_large(inner, ptr, prefix) };
        } else {
            unsafe {
                crate::free_impl::free_small(
                    inner,
                    ptr,
                    prefix as *mut crate::descriptor::Descriptor,
                    entered.tid,
                )
            };
        }
    }
}

unsafe impl<S: PageSource + Send + Sync> RawMalloc for LfMalloc<S> {
    // Under `profile`, caller locations flow through these shims into
    // `allocate` so samples attribute to the application call site.
    #[cfg_attr(feature = "profile", track_caller)]
    unsafe fn malloc(&self, size: usize) -> *mut u8 {
        unsafe { self.allocate(size, PREFIX_SIZE) }
    }

    unsafe fn free(&self, ptr: *mut u8) {
        unsafe { self.deallocate(ptr) }
    }

    fn name(&self) -> &str {
        "lfmalloc"
    }

    #[cfg_attr(feature = "profile", track_caller)]
    unsafe fn malloc_aligned(&self, size: usize, align: usize) -> *mut u8 {
        unsafe { self.allocate(size, align) }
    }

    #[cfg_attr(feature = "profile", track_caller)]
    unsafe fn malloc_zeroed(&self, size: usize) -> *mut u8 {
        unsafe { self.allocate_zeroed(size) }
    }

    unsafe fn usable_size(&self, ptr: *mut u8) -> usize {
        unsafe { self.block_usable_size(ptr) }
    }

    fn stats(&self) -> AllocStats {
        self.os_stats()
    }
}

impl<S: PageSource> Drop for LfMalloc<S> {
    fn drop(&mut self) {
        // 0a. Unregister the atfork hooks before anything is torn down:
        //     unregistration serializes on the procfork registry lock,
        //     which an in-flight fork holds from prepare to
        //     parent/child, so after this no hook can see the dying
        //     instance.
        crate::fork::unregister_instance(self.inner());
        // 0a'. Drop out of the crash-sink table first: after teardown
        //      starts, a signal must not walk this instance's memory.
        #[cfg(feature = "forensics")]
        crate::forensics::unregister_crash_sink(self.inner());
        // 0b. Stop and join the background reaper (if any) before any
        //     state is torn down: a maintenance pass must never race
        //     teardown.
        crate::maintain::stop_reaper_inner(self.inner());
        // 0c. Stop and join the metrics scrape thread under the same
        //     rule: it borrows the instance and must die first.
        #[cfg(feature = "stats")]
        crate::metrics::stop_metrics_inner(self.inner());
        unsafe {
            let inner = self.inner.as_ptr();
            // 1. Drain the hazard domain: retired descriptors return to
            //    DescAvail, retired queue nodes to their pools. Contexts
            //    (pools) are still alive.
            core::ptr::drop_in_place(core::ptr::addr_of_mut!((*inner).domain));
            // 2. Release bulk memory: superblock hyperblocks, then the
            //    descriptor slabs.
            (*inner).sb_pool.release_all(&(*inner).source);
            (*inner).desc_pool.release_all(&(*inner).source);
            // 3. Drop the remaining owning fields exactly once each.
            core::ptr::drop_in_place(core::ptr::addr_of_mut!((*inner).desc_pool));
            core::ptr::drop_in_place(core::ptr::addr_of_mut!((*inner).sb_pool));
            core::ptr::drop_in_place(core::ptr::addr_of_mut!((*inner).classes));
            core::ptr::drop_in_place(core::ptr::addr_of_mut!((*inner).source));
            core::ptr::drop_in_place(core::ptr::addr_of_mut!((*inner).large_spans));
            core::ptr::drop_in_place(core::ptr::addr_of_mut!((*inner).reaper));
            #[cfg(feature = "stats")]
            core::ptr::drop_in_place(core::ptr::addr_of_mut!((*inner).stats));
            #[cfg(feature = "profile")]
            core::ptr::drop_in_place(core::ptr::addr_of_mut!((*inner).profile));
            #[cfg(feature = "forensics")]
            core::ptr::drop_in_place(core::ptr::addr_of_mut!((*inner).forensics));
            // Quarantine entries are plain addresses into memory already
            // released above; dropping the rings only frees their
            // buffers.
            let quarantine = (*inner).quarantine;
            if !quarantine.is_null() {
                let nheaps = (*inner).nheaps;
                for i in 0..nheaps {
                    core::ptr::drop_in_place(quarantine.add(i));
                }
                System.dealloc(
                    quarantine as *mut u8,
                    Layout::array::<BoundedQueue<QuarantineEntry>>(nheaps).unwrap(),
                );
            }
            // 4. Free the heap table and the instance block (plain data).
            let nheaps = (*inner).nheaps;
            let heaps_layout = Layout::array::<ProcHeap>(NUM_CLASSES * nheaps).unwrap();
            System.dealloc((*inner).heaps as *mut u8, heaps_layout);
            System.dealloc(inner as *mut u8, Layout::new::<Inner<S>>());
        }
    }
}

impl<S: PageSource> core::fmt::Debug for LfMalloc<S> {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("LfMalloc")
            .field("config", &self.inner().config)
            .field("hyperblocks", &self.hyperblock_count())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::active::Active;
    use crate::anchor::SbState;

    #[test]
    fn first_malloc_installs_an_active_superblock() {
        let a = LfMalloc::with_config(Config::with_heaps(2));
        let ci = class_index(16).unwrap();
        unsafe {
            let p = a.malloc(8);
            assert!(!p.is_null());
            // Exactly one heap of the 16-byte class is now active.
            let actives: Vec<Active> =
                (0..2).map(|h| a.inner().heap_at(ci, h).load_active()).collect();
            let installed: Vec<&Active> = actives.iter().filter(|x| !x.is_null()).collect();
            assert_eq!(installed.len(), 1);
            let active = installed[0];
            let desc = &*active.desc();
            assert_eq!(desc.sz(), 16);
            assert_eq!(desc.maxcount(), 1024);
            assert_eq!(desc.load_anchor().state(), SbState::Active);
            // Credits + anchor count account for all but the one
            // allocated block.
            let anchor = desc.load_anchor();
            assert_eq!(
                active.credits() + 1 + anchor.count(),
                desc.maxcount() - 1,
                "credit conservation"
            );
            a.free(p);
        }
    }

    #[test]
    fn freeing_last_block_empties_and_recycles() {
        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            let p = a.malloc(4_000); // class 4096: 4 blocks per superblock
            let q = a.malloc(4_000);
            let hyper_before = a.hyperblock_count();
            a.free(p);
            a.free(q);
            // Allocating again must reuse the recycled superblock.
            let r = a.malloc(4_000);
            assert_eq!(a.hyperblock_count(), hyper_before);
            a.free(r);
        }
    }

    #[test]
    fn heap_for_respects_single_mode() {
        let a = LfMalloc::with_config(Config::uniprocessor());
        let ci = class_index(64).unwrap();
        let h1 = a.inner().heap_for(ci, crate::heap::try_thread_id()) as *const ProcHeap;
        let h2 = a.inner().heap_at(ci, 0) as *const ProcHeap;
        assert_eq!(h1, h2);
    }

    #[test]
    fn try_construction_succeeds_and_reports_errors_as_values() {
        let a = LfMalloc::try_new_default().expect("healthy system must construct");
        unsafe {
            let p = a.malloc(100);
            assert!(!p.is_null());
            a.free(p);
        }
        assert_eq!(format!("{OutOfMemory}"), "lfmalloc: out of memory constructing instance");
    }

    #[test]
    fn trim_after_free_all_returns_every_byte() {
        let a = LfMalloc::with_config(Config::with_heaps(2));
        unsafe {
            let mut ptrs = Vec::new();
            for i in 0..2_000usize {
                let p = a.malloc(8 + (i % 500));
                assert!(!p.is_null());
                ptrs.push(p);
            }
            for p in ptrs {
                a.free(p);
            }
            // Idle actives pin their hyperblocks until trimmed.
            assert!(a.os_stats().live_bytes > 0);
            let released = a.trim();
            assert!(released > 0);
            assert_eq!(
                a.os_stats().live_bytes,
                0,
                "all superblock hyperblocks and descriptor slabs released"
            );
            assert_eq!(a.hyperblock_count(), 0);
            let rep = a.audit();
            assert!(rep.is_clean(), "audit after trim: {rep}");
            // The instance stays fully usable.
            let p = a.malloc(64);
            assert!(!p.is_null());
            a.free(p);
        }
    }

    #[test]
    fn trim_with_live_blocks_keeps_them_valid() {
        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            let p = a.malloc(4_000); // class 4096: 4 blocks per superblock
            let q = a.malloc(4_000);
            core::ptr::write_bytes(p, 0xAB, 4_000);
            a.free(q);
            let released = a.trim();
            // The partially used superblock's hyperblock must survive.
            assert_eq!(a.hyperblock_count(), 1);
            let _ = released;
            assert_eq!(*p, 0xAB);
            assert_eq!(*p.add(3_999), 0xAB);
            let rep = a.audit();
            assert!(rep.is_clean(), "audit after partial trim: {rep}");
            a.free(p);
            a.trim();
            assert_eq!(a.os_stats().live_bytes, 0);
            assert!(a.audit().is_clean());
        }
    }

    #[test]
    fn trim_to_keeps_watermark_of_cached_hyperblocks() {
        let a = LfMalloc::with_config(Config::with_heaps(1));
        unsafe {
            // Force several hyperblocks by allocating > 1 MiB of blocks.
            let mut ptrs = Vec::new();
            for _ in 0..300 {
                let p = a.malloc(8_000); // class 8192: 2 blocks per sb
                assert!(!p.is_null());
                ptrs.push(p);
            }
            assert!(a.hyperblock_count() >= 3);
            for p in ptrs {
                a.free(p);
            }
            a.trim_to(1 << 20);
            assert_eq!(a.hyperblock_count(), 1, "watermark caches one hyperblock");
            assert!(a.audit().is_clean());
            a.trim();
            assert_eq!(a.hyperblock_count(), 0);
        }
    }

    #[test]
    fn os_stats_cover_descriptor_slabs() {
        let a = LfMalloc::new_default();
        unsafe {
            let p = a.malloc(8);
            // One superblock hyperblock (1 MiB) + one descriptor slab
            // (16 KiB) at minimum.
            let st = a.os_stats();
            assert!(st.live_bytes >= (1 << 20) + (1 << 14), "stats: {st}");
            a.free(p);
        }
    }
}
