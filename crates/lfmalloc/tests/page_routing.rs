//! Which page-source call each large allocation makes: `malloc` and
//! `malloc_aligned` ask for uninitialised runs, `calloc` for the
//! zero-filled ones it may skip its memset on.

use lfmalloc::{Config, Hardening, LfMalloc, MisuseKind};
use malloc_api::RawMalloc;
use osmem::{PageSource, SystemSource};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;

/// Counts the calls of each allocation method, then serves them from
/// the system source.
#[derive(Default)]
struct Recording {
    zeroed: AtomicUsize,
    uninit: AtomicUsize,
}

impl Recording {
    /// `(alloc_pages, alloc_pages_uninit)` calls so far.
    fn calls(&self) -> (usize, usize) {
        (self.zeroed.load(Relaxed), self.uninit.load(Relaxed))
    }
}

unsafe impl PageSource for Recording {
    unsafe fn alloc_pages(&self, size: usize, align: usize) -> *mut u8 {
        self.zeroed.fetch_add(1, Relaxed);
        unsafe { SystemSource.alloc_pages(size, align) }
    }
    unsafe fn alloc_pages_uninit(&self, size: usize, align: usize) -> *mut u8 {
        self.uninit.fetch_add(1, Relaxed);
        unsafe { SystemSource.alloc_pages_uninit(size, align) }
    }
    unsafe fn dealloc_pages(&self, ptr: *mut u8, size: usize, align: usize) {
        unsafe { SystemSource.dealloc_pages(ptr, size, align) }
    }
    unsafe fn protect_pages(&self, ptr: *mut u8, len: usize, readwrite: bool) -> bool {
        unsafe { SystemSource.protect_pages(ptr, len, readwrite) }
    }
    fn zeroes_fresh_pages(&self) -> bool {
        SystemSource.zeroes_fresh_pages()
    }
}

const SIZE: usize = 64 * 1024;

/// Runs `op` and returns the `(alloc_pages, alloc_pages_uninit)` calls
/// it made, with the block it returned.
fn calls_of(src: &Recording, op: impl FnOnce() -> *mut u8) -> ((usize, usize), *mut u8) {
    let (z0, u0) = src.calls();
    let p = op();
    assert!(!p.is_null());
    let (z1, u1) = src.calls();
    ((z1 - z0, u1 - u0), p)
}

fn instance(hardening: Hardening) -> (Arc<Recording>, LfMalloc<Arc<Recording>>) {
    let src = Arc::new(Recording::default());
    let a = LfMalloc::with_config_and_source(
        Config::with_heaps(2).with_hardening(hardening),
        Arc::clone(&src),
    );
    (src, a)
}

#[test]
fn large_malloc_asks_for_uninit_runs_and_calloc_for_zeroed_ones() {
    for hardening in [Hardening::Off, Hardening::Detect] {
        let (src, a) = instance(hardening);
        unsafe {
            let (calls, p) = calls_of(&src, || a.malloc(SIZE));
            assert_eq!(calls, (0, 1), "malloc under {hardening:?}");
            a.free(p);

            let (calls, p) = calls_of(&src, || a.malloc_aligned(SIZE, SIZE));
            assert_eq!(calls, (0, 1), "malloc_aligned under {hardening:?}");
            assert_eq!(p as usize % SIZE, 0);
            a.free(p);

            let (calls, p) = calls_of(&src, || a.malloc_zeroed(SIZE));
            assert_eq!(calls, (1, 0), "calloc under {hardening:?}");
            assert!(core::slice::from_raw_parts(p, SIZE).iter().all(|&b| b == 0));
            a.free(p);
        }
        assert_eq!(a.misuse_counters().total(), 0);
        assert!(a.audit().is_clean(), "{:?}", a.audit());
    }
}

#[test]
fn uninit_large_block_still_reports_canary_overrun() {
    let (src, a) = instance(Hardening::Detect);
    unsafe {
        let (calls, p) = calls_of(&src, || a.malloc(SIZE));
        assert_eq!(calls, (0, 1));
        let usable = a.usable_size(p);
        assert!(usable >= SIZE);
        // One byte past the usable area lands on the canary page, which
        // the allocator wrote itself on the uninitialised run.
        p.add(usable).write(0);
        a.free(p);
    }
    let c = a.misuse_counters();
    assert_eq!(c.count(MisuseKind::GuardOverrun), 1);
    assert_eq!(c.total(), 1);
    assert!(a.audit().is_clean(), "{:?}", a.audit());
}
