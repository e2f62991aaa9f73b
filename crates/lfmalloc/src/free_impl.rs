//! The free path — a faithful transcription of the paper's Figure 6.
//!
//! "The free algorithm for small blocks is simple. It primarily involves
//! pushing the freed block into its superblock's available list and
//! adjusting the superblock's state appropriately." One CAS in the
//! common case; the first free into a FULL superblock re-links it
//! (`HeapPutPartial`), and the free of the last allocated block empties
//! the superblock (recycle + `RemoveEmptyDesc`).

use crate::anchor::SbState;
use crate::config::PREFIX_SIZE;
use crate::descriptor::Descriptor;
use crate::heap::ProcHeap;
use crate::instance::Inner;
use core::sync::atomic::{AtomicU64, Ordering};
use osmem::PageSource;

/// Frees a small block. `ptr` is the user pointer; `desc_ptr` was read
/// from its prefix; `tid` comes from the entry step.
///
/// # Safety
///
/// `ptr` must be a live small block of this instance whose prefix named
/// `desc_ptr`.
pub(crate) unsafe fn free_small<S: PageSource>(
    inner: &Inner<S>,
    ptr: *mut u8,
    desc_ptr: *mut Descriptor,
    tid: Option<usize>,
) {
    let desc = unsafe { &*desc_ptr };
    let sb = desc.sb() as usize; // line 6
    let sz = desc.sz() as usize;
    // The prefix may sit anywhere inside the block (alignment offsets);
    // integer division recovers the block index (== the paper's
    // `(ptr-sb)/desc->sz` with the default 8-byte offset).
    let prefix_addr = ptr as usize - PREFIX_SIZE;
    let idx = (prefix_addr - sb) / sz; // line 9
    let block = sb + idx * sz;
    unsafe { push_free_block(inner, desc_ptr, block, tid) }
}

/// Pushes `block` (a block *start* address) onto its superblock's free
/// list and performs the state transitions of Figure 6 — the anchor-CAS
/// half of [`free_small`], shared with the hardened path, which releases
/// quarantined blocks through it.
///
/// # Safety
///
/// `block` must be an allocated block of `desc_ptr`'s superblock that no
/// other thread can free concurrently.
#[cfg_attr(not(feature = "stats"), allow(unused_variables))]
pub(crate) unsafe fn push_free_block<S: PageSource>(
    inner: &Inner<S>,
    desc_ptr: *mut Descriptor,
    block: usize,
    tid: Option<usize>,
) {
    let desc = unsafe { &*desc_ptr };
    let sb = desc.sb() as usize;
    let sz = desc.sz() as usize;
    let maxcount = desc.maxcount();
    let idx = ((block - sb) / sz) as u32;
    // Latency classification: a plain free-list push is the fast path;
    // an EMPTY transition or FULL→PARTIAL relink is the slow path.
    let t0 = crate::lat_start!();

    // The watchdog needs the owning heap for site attribution; read it
    // now, while the block still pins the descriptor (the heap table
    // itself lives until instance teardown, so the reference stays
    // valid even if the descriptor is recycled later).
    let owner = unsafe { &*desc.heap() };
    // Telemetry reads the owning heap under the same pinning argument.
    #[cfg(feature = "stats")]
    {
        if tid.is_none() {
            // TLS teardown: the freeing thread no longer has an
            // identity, so "local vs remote" is undecidable — it is
            // deliberately attributed as a *remote* free (the paper's
            // slow-path accounting) rather than defaulting to heap 0's
            // local path, and counted separately so teardown traffic is
            // visible. See `thread::Entered::tid`.
            inner.shard(owner).free_teardown.inc();
            inner.shard(owner).free_remote.inc();
        } else if core::ptr::eq(inner.heap_for(owner.class(), tid), owner) {
            inner.shard(owner).free_local.inc();
        } else {
            inner.shard(owner).free_remote.inc();
        }
    }

    let mut link_tries: u64 = 0;
    let mut heap: *mut ProcHeap = core::ptr::null_mut();
    let (oldanchor, newanchor) = loop {
        let fp = malloc_api::fail_point!("free.link");
        if fp.kill {
            // Died before the anchor CAS: the block simply stays
            // allocated forever; the superblock is untouched.
            return;
        }
        if fp.retry {
            // Forced CAS failure: counted so the watchdog sees it.
            link_tries += 1;
            crate::health::watch(inner, owner, crate::health::WatchSite::FreeLink, link_tries);
            continue;
        }
        let old = desc.load_anchor(); // line 7
        // line 8: link this block to the current list head. Written
        // before the CAS; the CAS's release ordering is the paper's
        // memory fence (line 17).
        unsafe {
            (*(block as *const AtomicU64)).store(old.avail() as u64, Ordering::Relaxed);
        }
        let mut new = old.with_avail(idx); // line 9
        if old.state() == SbState::Full {
            new = new.with_state(SbState::Partial); // lines 10-11
        }
        if old.count() == maxcount - 1 {
            // lines 12-15: this was the last allocated block. Read the
            // owning heap *before* the CAS (the paper's instruction
            // fence, line 14): after the CAS the descriptor may be
            // recycled by another thread at any time.
            heap = desc.heap(); // line 13
            new = new.with_state(SbState::Empty); // line 15
        } else {
            new = new.with_count(old.count() + 1); // line 16
        }
        match desc.cas_anchor(old, new) {
            Ok(()) => break (old, new), // line 18
            Err(_) => {
                link_tries += 1;
                crate::health::watch(inner, owner, crate::health::WatchSite::FreeLink, link_tries);
                continue;
            }
        }
    };
    crate::stat_hist!(inner, owner, anchor_cas, link_tries);

    if newanchor.state() == SbState::Empty {
        if malloc_api::fail_point!("free.empty").kill {
            // Died between the EMPTY transition and the recycle: the
            // superblock and its descriptor leak with the dead thread.
            return;
        }
        crate::stat!(inner, owner, free_empty);
        crate::stat_event!(inner, SbRetire, owner.class(), sb);
        // lines 19-21: recycle the superblock's memory, then make the
        // descriptor reclaimable.
        unsafe {
            inner.sb_pool.dealloc(sb as *mut u8); // line 20
            remove_empty_desc(inner, &*heap, desc_ptr); // line 21
        }
        crate::stat_lat!(inner, lat_free_slow, t0);
    } else if oldanchor.state() == SbState::Full {
        crate::stat_event!(inner, HeapTransition, owner.class(), sb);
        // lines 22-23: we are the first to free into a FULL superblock;
        // take responsibility for re-linking it.
        unsafe { crate::alloc::heap_put_partial(inner, desc_ptr) };
        crate::stat_lat!(inner, lat_free_slow, t0);
    } else {
        crate::stat_lat!(inner, lat_free_fast, t0);
    }
}

/// `RemoveEmptyDesc` (Figure 6): retire the descriptor if we can pluck
/// it from the heap's Partial slot; otherwise sweep one empty descriptor
/// out of the size class's partial list.
unsafe fn remove_empty_desc<S: PageSource>(
    inner: &Inner<S>,
    heap: &ProcHeap,
    desc: *mut Descriptor,
) {
    if heap.cas_partial(desc, core::ptr::null_mut()) {
        // lines 1-2
        unsafe { inner.desc_pool.retire(&inner.domain, desc) };
    } else {
        // line 3: ListRemoveEmptyDesc — the goal "is to ensure that
        // empty descriptors are eventually made available for reuse, and
        // not necessarily to remove a specific empty descriptor
        // immediately".
        let ci = heap.class();
        unsafe { inner.classes[ci].partial.remove_empty(&inner.domain, &inner.desc_pool) };
    }
}
