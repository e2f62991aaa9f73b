//! Large blocks and zeroing: `malloc` takes uninitialised runs from the
//! page source, so a freed large block's bytes can come straight back
//! (glibc hands a freed chunk of the right size out again). `calloc`
//! must never take that path: every byte it returns is zero.

use lfmalloc_repro::prelude::*;
use std::alloc::{GlobalAlloc, Layout};

/// Sizes on the large path: just past the largest size class, the
/// benchmark's range and beyond.
const SIZES: [usize; 4] = [8200, 64 << 10, 256 << 10, 1 << 20];

/// Requests near `size` that a freed `size` block can serve.
fn neighbours(size: usize) -> [usize; 3] {
    [size, size - 24, size + 24]
}

fn all_zero(p: *const u8, len: usize) -> bool {
    unsafe { core::slice::from_raw_parts(p, len) }.iter().all(|&b| b == 0)
}

fn check_calloc_after_dirty_free(a: &LfMalloc) {
    for size in SIZES {
        for near in neighbours(size) {
            unsafe {
                let p = a.malloc(size);
                assert!(!p.is_null());
                core::ptr::write_bytes(p, 0xAB, size);
                a.free(p);
                let q = a.calloc(1, near);
                assert!(!q.is_null());
                assert!(all_zero(q, near), "calloc({near}) after a dirty free of {size} B");
                a.free(q);
            }
        }
    }
    assert_eq!(a.misuse_counters().total(), 0);
    assert!(a.audit().is_clean(), "{:?}", a.audit());
}

#[test]
fn calloc_after_dirty_free_is_zero() {
    check_calloc_after_dirty_free(&LfMalloc::new_default());
}

#[test]
fn calloc_after_dirty_free_is_zero_hardened() {
    check_calloc_after_dirty_free(&LfMalloc::with_config(
        Config::detect().with_hardening(Hardening::Detect),
    ));
}

#[test]
fn global_alloc_zeroed_after_dirty_free_is_zero() {
    let g = GlobalLfMalloc::new();
    for size in SIZES {
        for near in neighbours(size) {
            unsafe {
                let dirty = Layout::from_size_align(size, 8).unwrap();
                let p = g.alloc(dirty);
                assert!(!p.is_null());
                core::ptr::write_bytes(p, 0xAB, size);
                g.dealloc(p, dirty);
                let layout = Layout::from_size_align(near, 8).unwrap();
                let q = g.alloc_zeroed(layout);
                assert!(!q.is_null());
                assert!(all_zero(q, near), "alloc_zeroed({near}) after a dirty free of {size} B");
                g.dealloc(q, layout);
            }
        }
    }
}
