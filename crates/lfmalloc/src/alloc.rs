//! The malloc paths — a faithful transcription of the paper's Figure 4.
//!
//! `malloc` tries, in order: (1) the heap's active superblock, (2) a
//! partial superblock, (3) a new superblock, looping on transient
//! failures ("the thread tries the following in order until it allocates
//! a block").
//!
//! All functions here return **block start addresses**; the caller
//! ([`malloc_small`]) writes the descriptor prefix and applies the user
//! offset. This is the one structural generalization over the paper
//! (which hardcodes `addr + EIGHTBYTES`) and exists to support Rust
//! `Layout` alignments above 8 — at offset 8 the code is byte-for-byte
//! the paper's.

use crate::active::Active;
use crate::anchor::{SbState, MAX_BLOCKS};
use crate::config::{PREFIX_SIZE, SB_SIZE};
use crate::descriptor::Descriptor;
use crate::health::{watch, WatchSite};
use crate::heap::ProcHeap;
use crate::instance::Inner;
use core::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use osmem::PageSource;

/// Outcome of `MallocFromNewSB`.
enum NewSb {
    /// Allocation finished: `Some((block, descriptor))`, or `None` when
    /// the OS is out of memory.
    Done(Option<(usize, *const Descriptor)>),
    /// Lost the install race ("a new active superblock must have been
    /// installed by another thread"); retry the whole ladder.
    Lost,
}

/// Small-block malloc: the `while(1)` ladder of Figure 4's `malloc`.
///
/// `off` is the user-data offset inside the block (`>= PREFIX_SIZE`);
/// the descriptor prefix lands at `block + off - 8`. `tid` comes from
/// the entry step.
///
/// # Safety
///
/// `ci` must be a valid class index and `off + 1 <= CLASS_SIZES[ci]`.
pub(crate) unsafe fn malloc_small<S: PageSource>(
    inner: &Inner<S>,
    ci: usize,
    off: usize,
    tid: Option<usize>,
) -> *mut u8 {
    // Intentionally planted bug, reachable only when the
    // `alloc.double_handout` failpoint is armed: hand out the previous
    // allocation of the same size class a second time — the observable
    // shape of a lost Active-word CAS that pops a stale reservation.
    // The shadow-heap oracle (crates/oracle) must catch this at the
    // duplicate insert, before the caller ever writes to the block.
    #[cfg(feature = "failpoints")]
    {
        if malloc_api::fail_point!("alloc.double_handout").retry {
            let stale = inner.bug_stash.load(Ordering::Relaxed);
            if stale != 0 && inner.bug_stash_ci.load(Ordering::Relaxed) == ci {
                return stale as *mut u8;
            }
        }
    }
    #[cfg(feature = "failpoints")]
    let stash = |p: *mut u8| {
        if !p.is_null() {
            inner.bug_stash_ci.store(ci, Ordering::Relaxed);
            inner.bug_stash.store(p as usize, Ordering::Relaxed);
        }
        p
    };
    #[cfg(not(feature = "failpoints"))]
    let stash = |p: *mut u8| p;
    let heap = inner.heap_for(ci, tid);
    // Latency classification follows the serving arm: Active hits are
    // the fast path, partial/new-superblock hits the slow path.
    let t0 = crate::lat_start!();
    loop {
        if let Some((block, desc)) = unsafe { malloc_from_active(inner, heap) } {
            crate::stat!(inner, heap, malloc_fast);
            crate::stat_lat!(inner, lat_malloc_fast, t0);
            unsafe { note_alloc(inner, block, desc) };
            return stash(unsafe { finish_block(block, desc, off) });
        }
        if let Some((block, desc)) = unsafe { malloc_from_partial(inner, heap) } {
            crate::stat!(inner, heap, malloc_slow);
            crate::stat_lat!(inner, lat_malloc_slow, t0);
            unsafe { note_alloc(inner, block, desc) };
            return stash(unsafe { finish_block(block, desc, off) });
        }
        match unsafe { malloc_from_new_sb(inner, heap) } {
            NewSb::Done(Some((block, desc))) => {
                crate::stat!(inner, heap, malloc_newsb);
                crate::stat_lat!(inner, lat_malloc_slow, t0);
                unsafe { note_alloc(inner, block, desc) };
                return stash(unsafe { finish_block(block, desc, off) });
            }
            NewSb::Done(None) => return core::ptr::null_mut(),
            NewSb::Lost => continue,
        }
    }
}

/// Hardened-mode bookkeeping for a freshly obtained block: set its
/// allocation bit before the pointer can escape to the application (the
/// bit is this thread's exclusive property until `finish_block`
/// returns, so the set cannot race a legitimate free).
#[inline]
unsafe fn note_alloc<S: PageSource>(inner: &Inner<S>, block: usize, desc: *const Descriptor) {
    if inner.config.hardening == crate::harden::Hardening::Off {
        return;
    }
    let d = unsafe { &*desc };
    let idx = (block - d.sb() as usize) / d.sz() as usize;
    d.set_alloc_bit(idx);
}

/// Performs ONLY the first step of `MallocFromActive` — reserving a
/// credit — and then abandons the operation, simulating a thread that
/// was killed between the paper's lines 6 and 8. Returns true if a
/// reservation was abandoned (false if the heap had no active
/// superblock, in which case nothing observable happened).
///
/// The abandoned reservation permanently leaks one block — exactly what
/// a kill does — but, per the paper's kill-tolerance claim, must never
/// impede any other thread. Used by crash-tolerance tests only.
pub(crate) unsafe fn abandon_reservation<S: PageSource>(
    inner: &Inner<S>,
    ci: usize,
) -> bool {
    let heap = inner.heap_for(ci, crate::heap::try_thread_id());
    let mut oldactive = heap.load_active();
    loop {
        if oldactive.is_null() {
            return false;
        }
        let newactive = if oldactive.credits() == 0 {
            Active::null()
        } else {
            oldactive.take_credit()
        };
        match heap.cas_active(oldactive, newactive) {
            Ok(()) => return true, // ...and die here, reservation in hand
            Err(observed) => oldactive = observed,
        }
    }
}

/// Writes the descriptor prefix at `block + off - 8` and returns the
/// user pointer `block + off` (paper line 21: `*addr = desc; return
/// addr+EIGHTBYTES`).
#[inline]
unsafe fn finish_block(block: usize, desc: *const Descriptor, off: usize) -> *mut u8 {
    unsafe {
        (*((block + off - PREFIX_SIZE) as *const AtomicUsize))
            .store(desc as usize, Ordering::Relaxed);
    }
    (block + off) as *mut u8
}

/// `MallocFromActive` (Figure 4): the common case. Two atomic steps:
/// reserve a credit from the `Active` word, then pop the reserved block
/// from the superblock's LIFO free list.
///
/// Returns the *block start* and descriptor, or `None` if the heap has
/// no active superblock.
unsafe fn malloc_from_active<S: PageSource>(
    inner: &Inner<S>,
    heap: &ProcHeap,
) -> Option<(usize, *const Descriptor)> {
    // -- First step: reserve block ------------------------------------
    // `reserve_tries`/`pop_tries` feed the CAS-retry histograms *and*
    // the liveness watchdog; forced-retry failpoint iterations count
    // too, so a seeded storm is indistinguishable from a real one.
    let mut reserve_tries: u64 = 0;
    let mut oldactive = heap.load_active();
    let reserved = loop {
        if oldactive.is_null() {
            return None; // line 2
        }
        let fp = malloc_api::fail_point!("active.reserve");
        if fp.kill {
            return None; // died before the reservation CAS: nothing taken
        }
        if fp.retry {
            reserve_tries += 1;
            watch(inner, heap, WatchSite::ActiveReserve, reserve_tries);
            oldactive = heap.load_active();
            continue;
        }
        let newactive = if oldactive.credits() == 0 {
            Active::null() // line 4: taking the last credit
        } else {
            oldactive.take_credit() // line 5
        };
        match heap.cas_active(oldactive, newactive) {
            Ok(()) => break oldactive, // line 6 success
            Err(observed) => {
                reserve_tries += 1;
                watch(inner, heap, WatchSite::ActiveReserve, reserve_tries);
                oldactive = observed;
            }
        }
    };
    crate::stat_hist!(inner, heap, active_cas, reserve_tries);
    // After this CAS we are *guaranteed* a block in this superblock;
    // the state may meanwhile become FULL, PARTIAL, or even the active
    // superblock of a different heap — but never EMPTY (paper §3.2.3).
    if malloc_api::fail_point!("active.reserved").kill {
        // The paper's canonical kill window (between lines 6 and 8):
        // the reservation leaks one block, same as `abandon_reservation`.
        return None;
    }
    let desc_ptr = reserved.desc();
    let desc = unsafe { &*desc_ptr };

    // -- Second step: pop block (lock-free LIFO pop with ABA tag) -----
    let mut pop_tries: u64 = 0;
    let mut morecredits = 0;
    let (block, oldanchor) = loop {
        if malloc_api::fail_point!("active.pop").retry {
            // Forced CAS-failure arm of the pop loop; counted so the
            // watchdog sees seeded storms.
            pop_tries += 1;
            watch(inner, heap, WatchSite::ActivePop, pop_tries);
            continue;
        }
        let oldanchor = desc.load_anchor(); // line 8
        let sb = desc.sb() as usize;
        let sz = desc.sz() as usize;
        let block = sb + oldanchor.avail() as usize * sz; // line 9
        // line 10: read the next free index from the block body. Atomic:
        // a racing thread may have already allocated this block and be
        // writing user data; the tag CAS below rejects that case.
        let next = unsafe { (*(block as *const AtomicU64)).load(Ordering::Acquire) };
        let mut newanchor = oldanchor
            .with_avail(next as u32 & (MAX_BLOCKS - 1)) // line 11 (masked: garbage is rejected by the CAS)
            .with_tag_bump(); // line 12
        if reserved.credits() == 0 {
            // line 13: we took the last credit; state must be ACTIVE.
            if oldanchor.count() == 0 {
                newanchor = newanchor.with_state(SbState::Full); // line 15
            } else {
                // lines 16-17: move as many credits as possible from the
                // anchor's count to the Active word.
                morecredits = oldanchor.count().min(inner.config.max_credits);
                newanchor = newanchor.with_count(oldanchor.count() - morecredits);
            }
        }
        if desc.cas_anchor(oldanchor, newanchor).is_ok() {
            break (block, oldanchor); // line 18
        }
        pop_tries += 1;
        watch(inner, heap, WatchSite::ActivePop, pop_tries);
    };
    crate::stat_hist!(inner, heap, anchor_cas, pop_tries);
    if reserved.credits() == 0 && oldanchor.count() > 0 {
        unsafe { update_active(inner, heap, desc_ptr, morecredits) }; // lines 19-20
    }
    Some((block, desc_ptr))
}

/// `UpdateActive` (Figure 4): try to reinstall `desc` as the active
/// superblock with `morecredits - 1` credits; if another superblock got
/// installed meanwhile, return the credits to the anchor and make the
/// superblock PARTIAL.
pub(crate) unsafe fn update_active<S: PageSource>(
    inner: &Inner<S>,
    heap: &ProcHeap,
    desc_ptr: *const Descriptor,
    morecredits: u32,
) {
    debug_assert!(morecredits >= 1);
    if malloc_api::fail_point!("active.update").kill {
        // Died holding `morecredits` reserved blocks: they leak, the
        // superblock floats unreferenced — legal per the paper's
        // availability argument.
        return;
    }
    let newactive = Active::pack(desc_ptr, morecredits - 1); // lines 1-2
    if heap.cas_active(Active::null(), newactive).is_ok() {
        return; // line 3
    }
    // Someone installed another active sb: return credits, go PARTIAL.
    let desc = unsafe { &*desc_ptr };
    let mut tries: u64 = 0;
    loop {
        let old = desc.load_anchor(); // line 4
        let new = old.with_count(old.count() + morecredits).with_state(SbState::Partial); // 5-6
        if desc.cas_anchor(old, new).is_ok() {
            break; // line 7
        }
        tries += 1;
        watch(inner, heap, WatchSite::UpdateActive, tries);
    }
    crate::stat_hist!(inner, heap, anchor_cas, tries);
    unsafe { heap_put_partial(inner, desc_ptr as *mut Descriptor) }; // line 8
}

/// `HeapPutPartial` (Figure 6): swap `desc` into the owning heap's
/// most-recently-used Partial slot; the displaced occupant (if any)
/// goes to the size class's partial list.
pub(crate) unsafe fn heap_put_partial<S: PageSource>(inner: &Inner<S>, desc: *mut Descriptor) {
    if malloc_api::fail_point!("partial.put").kill {
        // Died before re-linking: the descriptor (and its partial
        // superblock) leak, reachable from no structure.
        return;
    }
    let heap = unsafe { &*(*desc).heap() };
    crate::stat!(inner, heap, partial_push);
    let prev = heap.swap_partial(desc); // lines 1-2 (swap == CAS loop)
    if !prev.is_null() {
        let ci = heap.class();
        unsafe { inner.classes[ci].partial.put(&inner.domain, prev) }; // line 3
    }
}

/// `HeapGetPartial` (Figure 4): take the heap's Partial slot, falling
/// back to the size class's partial list.
unsafe fn heap_get_partial<S: PageSource>(
    inner: &Inner<S>,
    heap: &ProcHeap,
) -> Option<*mut Descriptor> {
    let mut tries: u64 = 0;
    loop {
        let fp = malloc_api::fail_point!("partial.get");
        if fp.kill {
            return None; // died before taking anything
        }
        if fp.retry {
            tries += 1;
            watch(inner, heap, WatchSite::PartialPop, tries);
            continue;
        }
        let desc = heap.load_partial(); // line 1
        if desc.is_null() {
            // line 3: ListGetPartial
            let got = unsafe { inner.classes[heap.class()].partial.get(&inner.domain) };
            if got.is_some() {
                crate::stat!(inner, heap, partial_pop);
            }
            return got;
        }
        if heap.cas_partial(desc, core::ptr::null_mut()) {
            crate::stat!(inner, heap, partial_pop);
            return Some(desc); // lines 4-5
        }
        tries += 1;
        watch(inner, heap, WatchSite::PartialPop, tries);
    }
}

/// `MallocFromPartial` (Figure 4): reserve `morecredits + 1` blocks from
/// a partial superblock in one CAS, pop one for the caller, and deposit
/// the rest in the Active word.
unsafe fn malloc_from_partial<S: PageSource>(
    inner: &Inner<S>,
    heap: &ProcHeap,
) -> Option<(usize, *const Descriptor)> {
    'retry: loop {
        let desc_ptr = unsafe { heap_get_partial(inner, heap) }?; // line 1-2
        if malloc_api::fail_point!("partial.reserve").kill {
            // Died holding a descriptor plucked from the partial list:
            // the descriptor and its superblock leak.
            return None;
        }
        let desc = unsafe { &*desc_ptr };
        desc.set_heap(heap as *const _ as *mut ProcHeap); // line 3

        // -- Reserve blocks (lines 4-10) -------------------------------
        let mut reserve_tries: u64 = 0;
        let morecredits = loop {
            let old = desc.load_anchor();
            if old.state() == SbState::Empty {
                // line 5-6: raced with the emptying free; recycle and
                // try another partial superblock.
                unsafe { inner.desc_pool.retire(&inner.domain, desc_ptr) };
                continue 'retry;
            }
            // "oldanchor state must be PARTIAL; oldanchor count must be > 0"
            debug_assert_eq!(old.state(), SbState::Partial);
            debug_assert!(old.count() > 0);
            let mc = (old.count() - 1).min(inner.config.max_credits); // line 7
            let new = old
                .with_count(old.count() - (mc + 1)) // line 8
                .with_state(if mc > 0 { SbState::Active } else { SbState::Full }); // line 9
            if desc.cas_anchor(old, new).is_ok() {
                break mc; // line 10
            }
            reserve_tries += 1;
            watch(inner, heap, WatchSite::PartialReserve, reserve_tries);
        };
        crate::stat_hist!(inner, heap, anchor_cas, reserve_tries);

        // -- Pop reserved block (lines 11-15) ---------------------------
        let mut pop_tries: u64 = 0;
        let block = loop {
            let old = desc.load_anchor();
            let sb = desc.sb() as usize;
            let sz = desc.sz() as usize;
            let block = sb + old.avail() as usize * sz; // line 12
            let next = unsafe { (*(block as *const AtomicU64)).load(Ordering::Acquire) };
            let new = old.with_avail(next as u32 & (MAX_BLOCKS - 1)).with_tag_bump(); // 13-14
            if desc.cas_anchor(old, new).is_ok() {
                break block; // line 15
            }
            pop_tries += 1;
            watch(inner, heap, WatchSite::PartialPop, pop_tries);
        };
        crate::stat_hist!(inner, heap, anchor_cas, pop_tries);
        if morecredits > 0 {
            unsafe { update_active(inner, heap, desc_ptr, morecredits) }; // lines 16-17
        }
        crate::stat!(inner, heap, partial_reuse);
        return Some((block, desc_ptr));
    }
}

/// `MallocFromNewSB` (Figure 4): build a fresh superblock and try to
/// install it as the heap's active superblock. On a lost race the
/// superblock and descriptor are recycled ("we prefer to deallocate the
/// superblock rather than take a block from it", §3.2.3).
unsafe fn malloc_from_new_sb<S: PageSource>(inner: &Inner<S>, heap: &ProcHeap) -> NewSb {
    let ci = heap.class();
    let sz = inner.classes[ci].sz as usize;
    let retries = inner.config.oom_retries;
    // line 1, with bounded backoff: a transient source outage (or a
    // momentarily drained reserve) should not surface as spurious OOM.
    let desc_ptr = crate::retry::with_backoff(retries, || {
        let p = unsafe { inner.desc_pool.alloc(&inner.domain, &inner.source) as *mut u8 };
        if p.is_null() {
            crate::stat_global!(inner, oom_backoffs);
        }
        p
    }) as *mut Descriptor;
    if desc_ptr.is_null() {
        crate::stat_event!(inner, OomBackoff, ci, 0);
        return NewSb::Done(None); // OS exhausted
    }
    let desc = unsafe { &*desc_ptr };
    // line 2, same retry policy.
    let sb = crate::retry::with_backoff(retries, || {
        let p = inner.sb_pool.alloc(&inner.source);
        if p.is_null() {
            crate::stat_global!(inner, oom_backoffs);
        }
        p
    });
    if sb.is_null() {
        unsafe { inner.desc_pool.retire(&inner.domain, desc_ptr) };
        crate::stat_event!(inner, OomBackoff, ci, 0);
        return NewSb::Done(None);
    }
    let maxcount = (SB_SIZE / sz) as u32;
    // line 3: organize blocks in a linked list starting with index 0.
    for i in 0..maxcount {
        unsafe {
            (*((sb as usize + i as usize * sz) as *const AtomicU64))
                .store(i as u64 + 1, Ordering::Relaxed);
        }
    }
    desc.set_heap(heap as *const _ as *mut ProcHeap); // line 4
    desc.set_sb(sb);
    desc.set_sz(sz as u32); // line 6
    desc.set_maxcount(maxcount); // line 7
    if inner.config.hardening != crate::harden::Hardening::Off {
        // A recycled descriptor can carry stale allocation bits from
        // blocks leaked on its previous superblock (kill-injected
        // frees); this superblock starts with every block free.
        desc.reset_alloc_bits();
    }
    let credits = (maxcount - 1).min(inner.config.max_credits) - 1; // line 9
    let count = (maxcount - 1) - (credits + 1); // line 10
    // lines 5, 10, 11 — preserving the descriptor's tag sequence across
    // reuse keeps the ABA argument intact.
    let anchor = desc
        .load_anchor()
        .with_avail(1)
        .with_count(count)
        .with_state(SbState::Active)
        .with_tag_bump();
    desc.store_anchor(anchor); // line 12's fence == this release store
    let newactive = Active::pack(desc_ptr, credits);
    if heap.cas_active(Active::null(), newactive).is_ok() {
        // line 13 success: block 0 is ours.
        crate::stat_event!(inner, SbAcquire, ci, sb as usize);
        NewSb::Done(Some((sb as usize, desc_ptr)))
    } else {
        // lines 16-17: lost the race; recycle everything.
        unsafe {
            inner.sb_pool.dealloc(sb);
            inner.desc_pool.retire(&inner.domain, desc_ptr);
        }
        NewSb::Lost
    }
}
