//! The one per-thread state block, and the entry step every allocator
//! entry point takes through it (DESIGN.md §12.4).
//!
//! The paper's only per-thread state is the thread id that "threads use
//! … to decide which processor heap to use" (§3.1). Everything else the
//! crate keeps per thread sits next to it in one const-initialised
//! `thread_local!`: no lazy-init allocation and no destructor
//! registration, so the malloc path itself may touch it. [`enter`]
//! checks and sets the reentrancy flag before it touches any other
//! field, so a signal handler that re-enters the allocator leaves
//! without writing a field the interrupted frame may be half-way
//! through updating.

use crate::instance::Inner;
use core::cell::Cell;
use core::sync::atomic::{AtomicUsize, Ordering};
use malloc_api::procfork;
use osmem::PageSource;

struct ThreadState {
    /// `(process generation, thread id)`; `u64::MAX` = never issued. The
    /// block survives a fork verbatim, so a stale stamp re-issues the id
    /// (DESIGN.md §12.2 I3).
    slot: Cell<(u64, usize)>,
    /// True while the thread is inside an entry point.
    in_alloc: Cell<bool>,
    /// `(instance epoch, thread index)`: the dense per-instance index the
    /// sampler seeds from and the flight recorder picks its ring by.
    #[cfg(any(feature = "profile", feature = "forensics"))]
    instance: Cell<(u64, u32)>,
    /// The sampler's `(rng, countdown)`, armed for `instance`.
    #[cfg(feature = "profile")]
    sampler: Cell<(u64, i64)>,
}

thread_local! {
    static STATE: ThreadState = const {
        ThreadState {
            slot: Cell::new((u64::MAX, 0)),
            in_alloc: Cell::new(false),
            #[cfg(any(feature = "profile", feature = "forensics"))]
            instance: Cell::new((0, 0)),
            #[cfg(feature = "profile")]
            sampler: Cell::new((0, 0)),
        }
    };
}

/// Next thread id. Keeps counting across a fork, so a child id can never
/// collide with an id some parent thread stamped into heap state.
static NEXT_THREAD_ID: AtomicUsize = AtomicUsize::new(0);

/// The thread's id at process generation `gen`, issuing a fresh one when
/// the stamp lags (first use on this thread, or first use since a fork).
#[inline]
fn id_at(t: &ThreadState, gen: u64) -> usize {
    let (stamp, id) = t.slot.get();
    if stamp == gen {
        return id;
    }
    let id = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    t.slot.set((gen, id));
    id
}

/// Like [`thread_id`](crate::heap::thread_id), but reports TLS teardown
/// as `None` instead of folding it into id 0. Entry points get the id
/// from their entry step instead.
#[inline]
pub fn try_thread_id() -> Option<usize> {
    STATE.try_with(|t| id_at(t, procfork::generation())).ok()
}

/// Proof that the calling thread is inside an entry point. Dropping it
/// clears the flag, on unwind too (`Hardening::Abort` and
/// `LivenessPolicy::Abort` panic through it).
#[derive(Default)]
pub(crate) struct Entered {
    /// The thread id for heap selection, the stats local/remote split,
    /// the quarantine shard and misuse reports. `None` (the default)
    /// marks a call from a TLS destructor: it runs unguarded and its
    /// frees count as remote + `free_teardown`.
    pub tid: Option<usize>,
    /// The per-instance thread index (`None` likewise).
    #[cfg(any(feature = "profile", feature = "forensics"))]
    pub index: Option<u32>,
}

impl Drop for Entered {
    fn drop(&mut self) {
        // A no-op during TLS teardown, where `enter` set no flag either.
        let _ = STATE.try_with(|t| t.in_alloc.set(false));
    }
}

/// The entry step of `allocate`, `allocate_zeroed` and `deallocate`: one
/// access to the block, and one generation load serving both the id
/// re-issue and fork recovery. `None` means a signal handler re-entered
/// the allocator: the entry (of block `ptr`, 0 for a malloc) is counted
/// under the id as last stamped, and the caller must fail fast.
#[inline]
pub(crate) fn enter<S: PageSource>(inner: &Inner<S>, ptr: usize) -> Option<Entered> {
    let gen = procfork::generation();
    let entered = match STATE.try_with(|t| {
        if t.in_alloc.replace(true) {
            return Err(t.slot.get().1);
        }
        Ok(Entered {
            tid: Some(id_at(t, gen)),
            #[cfg(any(feature = "profile", feature = "forensics"))]
            index: Some(instance_index(t, inner)),
        })
    }) {
        Ok(Ok(entered)) => entered,
        Ok(Err(tid)) => {
            crate::fork::reject_reentrant(inner, ptr, tid);
            return None;
        }
        Err(_) => Entered::default(),
    };
    // After the guard exists, so a recovery panic still clears the flag.
    crate::fork::maybe_recover(inner, gen);
    Some(entered)
}

/// Test-only: simulates being inside an allocator entry point on the
/// calling thread, so tests can exercise the reentrancy rejection path
/// deterministically (without arranging a real signal to land inside
/// the fast path). Panics if the thread is already inside one.
#[doc(hidden)]
pub fn hold_reentrancy_guard_for_testing() -> impl Drop {
    let held = STATE.with(|t| !t.in_alloc.replace(true));
    assert!(held, "thread already inside an allocator entry point");
    Entered::default()
}

/// Whether the calling thread is inside an entry point. Read-only and
/// async-signal-safe (one flag read), for the crash reporter.
#[cfg(feature = "forensics")]
pub(crate) fn in_allocator() -> bool {
    STATE.try_with(|t| t.in_alloc.get()).unwrap_or(false)
}

/// The sampler's `(rng, countdown)` cell; `None` during TLS teardown.
#[cfg(feature = "profile")]
pub(crate) fn with_sampler<R>(f: impl FnOnce(&Cell<(u64, i64)>) -> R) -> Option<R> {
    STATE.try_with(|t| f(&t.sampler)).ok()
}

/// The instance half of the `(instance epoch, thread index)` pair.
#[cfg(any(feature = "profile", feature = "forensics"))]
#[derive(Debug)]
pub(crate) struct InstanceThreads {
    /// Process-unique and never 0, so a fresh thread matches no instance.
    epoch: u64,
    /// Next thread index, issued in first-touch order.
    next_index: core::sync::atomic::AtomicU32,
}

#[cfg(any(feature = "profile", feature = "forensics"))]
impl InstanceThreads {
    pub(crate) fn new() -> Self {
        static EPOCH: core::sync::atomic::AtomicU64 = core::sync::atomic::AtomicU64::new(0);
        InstanceThreads {
            epoch: EPOCH.fetch_add(1, Ordering::Relaxed) + 1,
            next_index: core::sync::atomic::AtomicU32::new(0),
        }
    }
}

/// The thread's index in `inner`, re-keying the pair (and re-arming the
/// sampler) when the thread last ran on another instance.
#[cfg(any(feature = "profile", feature = "forensics"))]
#[inline]
fn instance_index<S: PageSource>(t: &ThreadState, inner: &Inner<S>) -> u32 {
    let (epoch, index) = t.instance.get();
    if epoch == inner.threads.epoch {
        return index;
    }
    let index = inner.threads.next_index.fetch_add(1, Ordering::Relaxed);
    t.instance.set((inner.threads.epoch, index));
    #[cfg(feature = "profile")]
    t.sampler.set(crate::profile::arm(&inner.profile, index));
    index
}
