//! Large blocks: allocated directly from the OS, freed directly to the
//! OS (§3.1 / Figure 4 lines 2–3, Figure 6 lines 4–5).
//!
//! Layout of a large allocation:
//!
//! ```text
//! base (page aligned, >= align)
//! │ [ header: total_size | log2(os_align) ]   8 bytes
//! │ [ ...padding to satisfy user alignment... ]
//! │ [ prefix: (user_offset << 1) | 1 ]        8 bytes at user-8
//! └─[ user data: `size` bytes ]               at base + user_offset
//! ```
//!
//! The odd prefix word is the paper's "large block bit": `free` reads
//! the word before the user pointer and dispatches on the low bit
//! ("Large block - desc holds sz+1"). Descriptors are 64-byte aligned so
//! a genuine descriptor pointer is always even.

use crate::config::PREFIX_SIZE;
use crate::harden::{Hardening, GUARD_CANARY};
use crate::instance::Inner;
use core::sync::atomic::{AtomicUsize, Ordering};
use malloc_api::layout::align_up;
use osmem::source::{pages_for, PAGE_SIZE};
use osmem::PageSource;

/// Low prefix bit marking a large block.
pub(crate) const LARGE_FLAG: usize = 1;

/// Header flag field: total size is page-aligned, so its low 12 bits
/// are free for the alignment exponent and the hardening flags.
const ALIGN_EXP_MASK: usize = (1 << PAGE_SIZE.trailing_zeros()) - 1;

/// Alignment exponent: the low 6 flag bits (exponents reach at most 63
/// on a 64-bit address space).
const ALIGN_EXP_BITS: usize = 0x3F;

/// Header bit 6: the block carries two trailing guard pages (canary +
/// trap), excluded from its usable size.
const GUARDED_FLAG: usize = 1 << 6;

/// Header bit 7: the trailing guard page is hardware-protected
/// (`PROT_NONE`); it must be restored before the pages are released.
const HW_GUARD_FLAG: usize = 1 << 7;

/// Decodes a large-block header into `(total_bytes, guarded, hw_guard)`.
pub(crate) fn header_fields(header: usize) -> (usize, bool, bool) {
    (
        header & !ALIGN_EXP_MASK,
        header & GUARDED_FLAG != 0,
        header & HW_GUARD_FLAG != 0,
    )
}

/// Allocates a large block of `size` bytes at `align`. Only a `zeroed`
/// (`calloc`) block asks the source for zero-filled pages; any other
/// gets an uninitialised run, whose user bytes are unspecified.
pub(crate) unsafe fn alloc_large<S: PageSource>(
    inner: &Inner<S>,
    size: usize,
    align: usize,
    zeroed: bool,
) -> *mut u8 {
    let t0 = crate::lat_start!();
    // User data starts at least 16 bytes in: 8 for the header word at
    // base, 8 for the prefix at user-8.
    let user_off = align_up(2 * PREFIX_SIZE, align.max(PREFIX_SIZE));
    // Checked rounding: near-usize::MAX requests must fail cleanly, not
    // wrap into tiny page counts.
    let Some(needed) = size.checked_add(user_off) else {
        return core::ptr::null_mut();
    };
    let Some(padded) = needed.checked_add(PAGE_SIZE - 1) else {
        return core::ptr::null_mut();
    };
    // Hardened blocks carry two trailing guard pages: a canary page
    // whose bytes are verified on free, then a trap page that is made
    // PROT_NONE when the source supports it.
    let hardened = inner.config.hardening != Hardening::Off;
    let guard_bytes = if hardened { 2 * PAGE_SIZE } else { 0 };
    let Some(padded) = padded.checked_add(guard_bytes) else {
        return core::ptr::null_mut();
    };
    let total = pages_for(padded & !(PAGE_SIZE - 1));
    let os_align = align.max(PAGE_SIZE);
    // Bounded backoff: ride out a transient source outage rather than
    // reporting spurious OOM (same policy as the superblock carve).
    let base = crate::retry::with_backoff(inner.config.oom_retries, || {
        let p = unsafe {
            if zeroed {
                inner.source.alloc_pages(total, os_align)
            } else {
                inner.source.alloc_pages_uninit(total, os_align)
            }
        };
        if p.is_null() {
            crate::stat_global!(inner, oom_backoffs);
        }
        p
    });
    if base.is_null() {
        crate::stat_event!(inner, OomBackoff, 0, total);
        return core::ptr::null_mut();
    }
    debug_assert_eq!(total & ALIGN_EXP_MASK, 0);
    let mut header = total | os_align.trailing_zeros() as usize;
    if hardened {
        header |= GUARDED_FLAG;
        unsafe {
            core::ptr::write_bytes(
                base.add(total - 2 * PAGE_SIZE),
                GUARD_CANARY,
                PAGE_SIZE,
            );
            if inner.source.protect_pages(base.add(total - PAGE_SIZE), PAGE_SIZE, false) {
                header |= HW_GUARD_FLAG;
            }
        }
        // Register the span before the block can circulate; without a
        // registry entry a hardened free would reject the pointer.
        if !inner.large_spans.insert(base as usize, total) {
            unsafe {
                if header & HW_GUARD_FLAG != 0 {
                    inner.source.protect_pages(base.add(total - PAGE_SIZE), PAGE_SIZE, true);
                }
                inner.source.dealloc_pages(base, total, os_align);
            }
            return core::ptr::null_mut();
        }
    }
    unsafe {
        (*(base as *const AtomicUsize)).store(header, Ordering::Relaxed);
        let user = base.add(user_off);
        (*(user.sub(PREFIX_SIZE) as *const AtomicUsize))
            .store((user_off << 1) | LARGE_FLAG, Ordering::Relaxed);
        inner.large_live.fetch_add(1, Ordering::Relaxed);
        inner.large_bytes.fetch_add(total, Ordering::Relaxed);
        crate::stat_global!(inner, large_alloc);
        crate::stat_lat!(inner, lat_malloc_large, t0);
        user
    }
}

/// Usable bytes of a large block given its user pointer and prefix
/// (guard pages, when present, are not usable).
pub(crate) unsafe fn usable_size_large(ptr: *mut u8, prefix: usize) -> usize {
    debug_assert_eq!(prefix & LARGE_FLAG, LARGE_FLAG);
    let user_off = prefix >> 1;
    let base = ptr as usize - user_off;
    let header = unsafe { (*(base as *const AtomicUsize)).load(Ordering::Relaxed) };
    let (total, guarded, _) = header_fields(header);
    let guard_bytes = if guarded { 2 * PAGE_SIZE } else { 0 };
    total - guard_bytes - user_off
}

/// Frees a large block given its user pointer and (odd) prefix word
/// (the trusting non-hardened path; hardened frees route through
/// [`crate::harden`], which validates and then calls
/// [`release_large`]).
pub(crate) unsafe fn free_large<S: PageSource>(inner: &Inner<S>, ptr: *mut u8, prefix: usize) {
    debug_assert_eq!(prefix & LARGE_FLAG, LARGE_FLAG);
    let user_off = prefix >> 1;
    let base = unsafe { ptr.sub(user_off) };
    unsafe { release_large(inner, base as usize) };
}

/// Returns a large block's pages to the source and settles the
/// accounting, given its validated base address.
pub(crate) unsafe fn release_large<S: PageSource>(inner: &Inner<S>, base: usize) {
    let t0 = crate::lat_start!();
    let header = unsafe { (*(base as *const AtomicUsize)).load(Ordering::Relaxed) };
    let (total, _, _) = header_fields(header);
    let os_align = 1usize << (header & ALIGN_EXP_BITS);
    unsafe { inner.source.dealloc_pages(base as *mut u8, total, os_align) };
    inner.large_live.fetch_sub(1, Ordering::Relaxed);
    inner.large_bytes.fetch_sub(total, Ordering::Relaxed);
    crate::stat_global!(inner, large_free);
    crate::stat_lat!(inner, lat_free_large, t0);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_packing_roundtrip() {
        // total is page aligned; align exponent fits in the low bits.
        let total = 7 * PAGE_SIZE;
        let os_align = 1usize << 20;
        let header = total | os_align.trailing_zeros() as usize;
        assert_eq!(header_fields(header), (total, false, false));
        assert_eq!(1usize << (header & ALIGN_EXP_BITS), os_align);
        // Guard flags coexist with any exponent up to 63.
        let header = total | 63 | GUARDED_FLAG | HW_GUARD_FLAG;
        assert_eq!(header_fields(header), (total, true, true));
        assert_eq!(header & ALIGN_EXP_BITS, 63);
    }

    #[test]
    fn default_user_offset_is_16() {
        assert_eq!(align_up(2 * PREFIX_SIZE, PREFIX_SIZE), 16);
        assert_eq!(align_up(2 * PREFIX_SIZE, 64), 64);
        assert_eq!(align_up(2 * PREFIX_SIZE, 4096), 4096);
    }
}
