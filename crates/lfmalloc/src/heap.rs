//! Processor heaps and the thread → heap mapping.
//!
//! Paper, Figure 3:
//!
//! ```text
//! typedef procheap :
//!     active Active;       // initially NULL
//!     descriptor* Partial; // initially NULL
//!     sizeclass* sc;       // pointer to parent sizeclass
//! ```
//!
//! "Each size class contains multiple processor heaps proportional to
//! the number of processors in the system" (§3.1). "Threads use their
//! thread ids to decide which processor heap to use for malloc."
//! The `Partial` field is "a most-recently-used Partial slot" (§3.2.6)
//! in front of the size class's partial list.

use crate::active::Active;
use crate::config::HeapMode;
use crate::descriptor::Descriptor;
pub use crate::thread::try_thread_id;
use core::sync::atomic::{AtomicPtr, AtomicU64, AtomicUsize, Ordering};

/// One processor heap. Cache-line aligned and padded so neighbouring
/// heaps never share a line (avoiding allocator-induced false sharing,
/// one of the paper's headline properties).
#[repr(C, align(64))]
#[derive(Debug)]
pub struct ProcHeap {
    /// Packed `(descriptor, credits)` of the active superblock.
    active: AtomicU64,
    /// Most-recently-used partial superblock slot.
    partial: AtomicPtr<Descriptor>,
    /// Owning size-class index (set at initialization, immutable after).
    class: AtomicUsize,
}

impl ProcHeap {
    /// A heap with no active and no partial superblock.
    pub const fn new(class: usize) -> Self {
        ProcHeap {
            active: AtomicU64::new(0),
            partial: AtomicPtr::new(core::ptr::null_mut()),
            class: AtomicUsize::new(class),
        }
    }

    /// Loads the `Active` word.
    #[inline]
    pub fn load_active(&self) -> Active {
        Active::from_raw(self.active.load(Ordering::Acquire))
    }

    /// One CAS attempt on the `Active` word.
    #[inline]
    pub fn cas_active(&self, old: Active, new: Active) -> Result<(), Active> {
        match self.active.compare_exchange(
            old.raw(),
            new.raw(),
            Ordering::AcqRel,
            Ordering::Acquire,
        ) {
            Ok(_) => Ok(()),
            Err(observed) => Err(Active::from_raw(observed)),
        }
    }

    /// Loads the `Partial` slot.
    #[inline]
    pub fn load_partial(&self) -> *mut Descriptor {
        self.partial.load(Ordering::Acquire)
    }

    /// One CAS attempt on the `Partial` slot (used by `HeapGetPartial`
    /// and `RemoveEmptyDesc`).
    #[inline]
    pub fn cas_partial(&self, old: *mut Descriptor, new: *mut Descriptor) -> bool {
        self.partial
            .compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Unconditionally swaps the `Partial` slot (the `HeapPutPartial`
    /// exchange), returning the previous occupant.
    #[inline]
    pub fn swap_partial(&self, desc: *mut Descriptor) -> *mut Descriptor {
        self.partial.swap(desc, Ordering::AcqRel)
    }

    /// The owning size-class index.
    #[inline]
    pub fn class(&self) -> usize {
        self.class.load(Ordering::Relaxed)
    }
}

/// A small, dense per-thread id ("Threads use their thread ids to decide
/// which processor heap to use"). Falls back to 0 when thread-local
/// storage is unavailable (calls during thread teardown) — correctness
/// never depends on the id, only distribution does. The id lives in the
/// crate's one per-thread block, which re-issues it in a forked child
/// (DESIGN.md §12.2 I3).
#[inline]
pub fn thread_id() -> usize {
    try_thread_id().unwrap_or(0)
}

/// Maps the calling thread to a heap index under `mode`.
///
/// `HeapMode::Single` skips the thread-id lookup entirely — that skipped
/// lookup is the §4.2.4 uniprocessor optimization.
#[inline]
pub fn heap_index(mode: HeapMode) -> usize {
    match mode {
        HeapMode::Single => 0,
        HeapMode::PerCpu(n) => thread_id() % n.max(1),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heap_is_cache_line_sized() {
        assert_eq!(core::mem::align_of::<ProcHeap>(), 64);
        assert_eq!(core::mem::size_of::<ProcHeap>(), 64);
    }

    #[test]
    fn new_heap_is_inactive() {
        let h = ProcHeap::new(7);
        assert!(h.load_active().is_null());
        assert!(h.load_partial().is_null());
        assert_eq!(h.class(), 7);
    }

    #[test]
    fn cas_active_detects_interference() {
        let h = ProcHeap::new(0);
        let d = 0x40usize as *const Descriptor;
        let a = Active::pack(d, 3);
        h.cas_active(Active::null(), a).unwrap();
        let err = h.cas_active(Active::null(), a).unwrap_err();
        assert_eq!(err.raw(), a.raw());
        // Take a credit.
        h.cas_active(a, a.take_credit()).unwrap();
        assert_eq!(h.load_active().credits(), 2);
    }

    #[test]
    fn swap_partial_returns_previous() {
        let h = ProcHeap::new(0);
        let d1 = 0x40usize as *mut Descriptor;
        let d2 = 0x80usize as *mut Descriptor;
        assert!(h.swap_partial(d1).is_null());
        assert_eq!(h.swap_partial(d2), d1);
        assert_eq!(h.load_partial(), d2);
        assert!(h.cas_partial(d2, core::ptr::null_mut()));
        assert!(!h.cas_partial(d2, d1), "stale CAS must fail");
    }

    #[test]
    fn thread_ids_are_distinct_across_threads() {
        let id0 = thread_id();
        assert_eq!(id0, thread_id(), "stable within a thread");
        let other = std::thread::spawn(thread_id).join().unwrap();
        assert_ne!(id0, other);
    }

    #[test]
    fn heap_index_modes() {
        assert_eq!(heap_index(HeapMode::Single), 0);
        let n = 4;
        assert!(heap_index(HeapMode::PerCpu(n)) < n);
        assert_eq!(heap_index(HeapMode::PerCpu(1)), 0);
    }
}
