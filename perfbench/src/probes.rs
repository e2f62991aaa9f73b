//! Layer probes: timed loops over each module's public functions, on
//! the default (uninstrumented) build.
//!
//! The first group is the small-block pair's path (`pairs-1t`); the
//! second the superblock lifecycle (`sbchurn-2t`); the third the large
//! path (`large-1t`). `instance.residual_ns` is what the pair costs
//! beyond the layers the probes reach: the fork-generation and
//! reentrancy guards, which no public function exposes.

use crate::new_lf;
use crate::report::{median, Report};
use hazard::HazardDomain;
use lfmalloc::active::Active;
use lfmalloc::anchor::{Anchor, SbState};
use lfmalloc::config::{Config, MAX_CREDITS, SB_SHIFT};
use lfmalloc::descriptor::{Descriptor, DescriptorPool};
use lfmalloc::heap::{heap_index, ProcHeap};
use lfmalloc::partial::PartialList;
use lfmalloc::size_classes::{class_index, MAX_SMALL_TOTAL};
use lfmalloc::PartialMode;
use malloc_api::testkit::TestRng;
use malloc_api::RawMalloc;
use osmem::{PagePool, PageSource, SystemSource};
use std::hint::black_box;
use std::time::Instant;

/// The residual may be at most this share of the pair before the
/// reconciliation row flags it.
pub const RESIDUAL_FLAG: f64 = 0.15;

/// Runs `body(iters)` `reps` times; the median nanoseconds per
/// iteration.
fn per_call(iters: u64, reps: usize, mut body: impl FnMut(u64)) -> f64 {
    body(iters / 10 + 1); // warm caches and lazy set-up
    let mut v: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            body(iters);
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    median(&mut v)
}

/// A descriptor from a pool, with the pool and domain that own it.
struct DescRig {
    src: SystemSource,
    domain: Box<HazardDomain>,
    pool: Box<DescriptorPool>,
}

impl DescRig {
    fn new() -> DescRig {
        DescRig {
            src: SystemSource::new(),
            domain: Box::new(HazardDomain::new()),
            pool: Box::new(DescriptorPool::new()),
        }
    }

    fn desc(&self) -> *mut Descriptor {
        // SAFETY: `domain` is this pool's only domain and both live in
        // boxes for the rig's lifetime.
        let d = unsafe { self.pool.alloc(&self.domain, &self.src) };
        assert!(!d.is_null(), "descriptor pool out of memory");
        d
    }

    /// Drops the domain first (its retired nodes reclaim into the pool
    /// and into any partial list still alive), then unmaps the slabs.
    fn teardown(self) {
        drop(self.domain);
        // SAFETY: no descriptor of the pool is used after this.
        unsafe { self.pool.release_all(&self.src) };
    }
}

/// Every probe, with the reconciliation row.
pub fn run(tiny: bool) -> Report {
    let (scale, reps) = if tiny { (100, 3) } else { (1, 9) };
    let n = |iters: u64| (iters / scale).max(10);
    let mut r = Report::new();
    let put = |r: &mut Report, name: &str, ns: f64, iters: u64| {
        r.metric(
            name,
            ns,
            "ns",
            reps as u64,
            Some(format!("median of {reps} reps x {iters} calls")),
        );
    };

    // --- Small-block pair path (pairs-1t). ---
    let mut rng = TestRng::new(0xC1A55);
    let totals: Vec<usize> = (0..1024)
        .map(|_| rng.range(16, MAX_SMALL_TOTAL + 1))
        .collect();
    let it = n(10_000_000);
    let class_ns = per_call(it, reps, |k| {
        for i in 0..k {
            black_box(class_index(black_box(totals[i as usize & 1023])));
        }
    });
    put(&mut r, "size_classes.class_index_ns", class_ns, it);

    let mode = Config::detect().heap_mode;
    let thread_ns = per_call(it, reps, |k| {
        for _ in 0..k {
            black_box(heap_index(black_box(mode)));
        }
    });
    put(&mut r, "heap.thread_id_ns", thread_ns, it);

    let rig = DescRig::new();
    let d = rig.desc();
    let heap = ProcHeap::new(0);
    heap.cas_active(Active::null(), Active::pack(d, MAX_CREDITS - 1))
        .expect("fresh heap has no active");
    let it = n(2_000_000);
    let active_ns = per_call(it, reps, |k| {
        for _ in 0..k {
            let old = heap.load_active();
            let new = if old.credits() == 0 {
                Active::pack(d, MAX_CREDITS - 1)
            } else {
                old.take_credit()
            };
            let _ = black_box(heap.cas_active(old, new));
        }
    });
    put(&mut r, "heap.active_reserve_ns", active_ns, it);

    // SAFETY: `d` is a live descriptor owned by the rig and reachable
    // from no allocator structure.
    let desc = unsafe { &*d };
    desc.store_anchor(Anchor::new(0, 4000, SbState::Active));
    let anchor_ns = per_call(it, reps, |k| {
        for _ in 0..k {
            let a = desc.load_anchor();
            let new = if a.count() == 0 {
                a.with_avail(0).with_count(4000).with_tag_bump()
            } else {
                a.with_avail(a.avail() + 1)
                    .with_count(a.count() - 1)
                    .with_tag_bump()
            };
            let _ = black_box(desc.cas_anchor(a, new));
        }
    });
    put(&mut r, "descriptor.anchor_pop_ns", anchor_ns, it);

    let lf = new_lf();
    let it = n(500_000);
    let pair_ns = per_call(it, reps, |k| {
        for _ in 0..k {
            // SAFETY: the block is freed by the call that got it.
            unsafe {
                let p = lf.malloc(black_box(8));
                lf.free(black_box(p));
            }
        }
    });
    put(&mut r, "instance.small_pair_ns", pair_ns, it);
    let layers = class_ns + thread_ns + active_ns + 2.0 * anchor_ns;
    let residual = pair_ns - layers;
    let share = residual / pair_ns;
    let flag = if share > RESIDUAL_FLAG {
        "FLAGGED"
    } else {
        "ok"
    };
    r.metric(
        "instance.residual_ns",
        residual,
        "ns",
        reps as u64,
        Some(format!(
            "reconciliation: pair {pair_ns:.1} - layers {layers:.1} = {:.1}% of the pair, {flag} at {:.0}%",
            share * 100.0,
            RESIDUAL_FLAG * 100.0
        )),
    );
    if share > RESIDUAL_FLAG {
        r.notes.push(format!(
            "reconciliation: instance.residual_ns is {:.1}% of instance.small_pair_ns (flag above {:.0}%)",
            share * 100.0,
            RESIDUAL_FLAG * 100.0
        ));
    }

    // --- Superblock lifecycle (sbchurn-2t). ---
    let src = SystemSource::new();
    let pool: PagePool<SB_SHIFT> = PagePool::new(64);
    let it = n(2_000_000);
    let sb_ns = per_call(it, reps, |k| {
        for _ in 0..k {
            let sb = pool.alloc(&src);
            assert!(!sb.is_null(), "page pool out of memory");
            // SAFETY: `sb` came from this pool and is not used again.
            unsafe { pool.dealloc(black_box(sb)) };
        }
    });
    put(&mut r, "osmem.pool_sb_pair_ns", sb_ns, it);
    // SAFETY: every region went back to the pool.
    unsafe { pool.release_all(&src) };

    let it = n(1_000_000);
    let retire_ns = per_call(it, reps, |k| {
        for _ in 0..k {
            let d = rig.desc();
            // SAFETY: `d` was just popped and is reachable from nothing.
            unsafe { rig.pool.retire(&rig.domain, d) };
        }
    });
    put(&mut r, "descriptor.pool_alloc_retire_ns", retire_ns, it);

    unsafe fn keep(_ctx: *mut u8, _ptr: *mut u8) {}
    let domain = HazardDomain::new();
    let it = n(2_000_000);
    let scan_ns = per_call(it, reps, |k| {
        for i in 0..k {
            // SAFETY: the retired values are never dereferenced; `keep`
            // ignores them.
            unsafe {
                domain.retire(
                    ((i as usize + 1) << 6) as *mut u8,
                    core::ptr::null_mut(),
                    keep,
                )
            };
        }
        domain.flush();
    });
    put(&mut r, "hazard.retire_scan_ns", scan_ns, it);
    drop(domain);

    let list = Box::new(PartialList::new(PartialMode::Fifo));
    // SAFETY: the list is boxed (address-stable) and initialized once,
    // before use, with the rig's domain.
    unsafe { list.init(&rig.domain) };
    let d2 = rig.desc();
    let it = n(1_000_000);
    let partial_ns = per_call(it, reps, |k| {
        for _ in 0..k {
            // SAFETY: `d2` is in no other structure; every put is taken
            // back out by the get.
            unsafe {
                list.put(&rig.domain, d2);
                black_box(list.get(&rig.domain));
            }
        }
    });
    put(&mut r, "partial.put_get_ns", partial_ns, it);
    rig.teardown();
    drop(list);

    // --- Large path (large-1t). ---
    let it = n(20_000);
    let source_ns = per_call(it, reps, |k| {
        for _ in 0..k {
            // SAFETY: size and alignment are page multiples; the pages
            // are returned with the same layout.
            unsafe {
                let p = src.alloc_pages(64 << 10, osmem::PAGE_SIZE);
                assert!(!p.is_null(), "page source out of memory");
                src.dealloc_pages(black_box(p), 64 << 10, osmem::PAGE_SIZE);
            }
        }
    });
    put(&mut r, "osmem.source_64k_pair_ns", source_ns, it);

    let large_ns = per_call(it, reps, |k| {
        for _ in 0..k {
            // SAFETY: the block is freed by the call that got it.
            unsafe {
                let p = lf.malloc(black_box(64 << 10));
                lf.free(black_box(p));
            }
        }
    });
    put(&mut r, "instance.large_pair_ns", large_ns, it);
    r.audit(crate::Target::audit_clean(&lf));
    r
}
