//! A planted faulty allocator must fail the run: the wrapper below hands
//! one live block to a second owner, and the correctness gate has to see
//! it in `failed_ops_ratio` and in the verdict.

use lfbench::{end_to_end, new_lf, Lf, Target, Workload};
use malloc_api::RawMalloc;
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};

/// From this malloc call on, the first call whose size fits the calling
/// thread's previous block gets that block again.
const PLANT_AT: u64 = 1000;

thread_local! {
    /// This thread's most recent live block and its usable size.
    static LAST: Cell<(*mut u8, usize)> = const { Cell::new((core::ptr::null_mut(), 0)) };
}

/// Forwards to `lfmalloc`, except that one malloc hands out a block
/// that is still live. The block's first free is swallowed, so the real
/// allocator sees every block freed once and stays consistent.
struct DoubleHandout {
    inner: Lf,
    calls: AtomicU64,
    dup: AtomicPtr<u8>,
    swallowed: AtomicBool,
}

// SAFETY: forwards to `Lf`; the duplicated block is never freed twice.
unsafe impl RawMalloc for DoubleHandout {
    unsafe fn malloc(&self, size: usize) -> *mut u8 {
        if self.calls.fetch_add(1, Ordering::Relaxed) >= PLANT_AT {
            let (p, usable) = LAST.with(Cell::get);
            if !p.is_null()
                && size <= usable
                && self
                    .dup
                    .compare_exchange(
                        core::ptr::null_mut(),
                        p,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    )
                    .is_ok()
            {
                return p;
            }
        }
        let p = unsafe { self.inner.malloc(size) };
        if !p.is_null() {
            LAST.with(|l| l.set((p, unsafe { self.inner.usable_size(p) })));
        }
        p
    }

    unsafe fn free(&self, p: *mut u8) {
        LAST.with(|l| {
            if l.get().0 == p {
                l.set((core::ptr::null_mut(), 0));
            }
        });
        if p == self.dup.load(Ordering::Relaxed) && !self.swallowed.swap(true, Ordering::Relaxed) {
            return;
        }
        unsafe { self.inner.free(p) }
    }

    fn name(&self) -> &str {
        "double-handout"
    }

    fn stats(&self) -> malloc_api::AllocStats {
        RawMalloc::stats(&self.inner)
    }
}

impl Target for DoubleHandout {
    fn audit_clean(&self) -> Result<(), String> {
        self.inner.audit_clean()
    }
}

fn faulty() -> DoubleHandout {
    DoubleHandout {
        inner: new_lf(),
        calls: AtomicU64::new(0),
        dup: AtomicPtr::new(core::ptr::null_mut()),
        swallowed: AtomicBool::new(false),
    }
}

fn assert_caught(w: Workload) {
    let r = end_to_end(w, 7, 0.2, true, &faulty);
    assert!(
        r.failed > 0,
        "{}: the double hand-out went unnoticed",
        w.name()
    );
    assert!(
        r.get("failed_ops_ratio").unwrap() > 0.0,
        "{}: failed_ops_ratio stayed 0",
        w.name()
    );
    assert!(!r.correct(), "{}: the run passed", w.name());
}

#[test]
fn double_handout_fails_sbchurn() {
    assert_caught(Workload::Sbchurn2t);
}

#[test]
fn double_handout_fails_large() {
    assert_caught(Workload::Large1t);
}

#[test]
fn honest_allocator_passes() {
    for w in Workload::ALL {
        let r = end_to_end(w, 7, 0.2, true, &new_lf);
        assert!(r.correct(), "{}: {:?}", w.name(), r.problems);
        assert_eq!(r.get("failed_ops_ratio"), Some(0.0));
    }
}
