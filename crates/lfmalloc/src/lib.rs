//! A completely lock-free dynamic memory allocator — a from-scratch Rust
//! reproduction of Maged M. Michael, *Scalable Lock-Free Dynamic Memory
//! Allocation*, PLDI 2004.
//!
//! # What the paper builds
//!
//! A `malloc`/`free` pair that is *lock-free*: whenever any thread takes
//! a finite number of steps, some allocator operation completes,
//! regardless of how other threads are delayed, preempted, or killed.
//! This yields deadlock immunity, async-signal-safety, priority-inversion
//! tolerance, kill-tolerant availability, and preemption tolerance —
//! without kernel support and using only single-word CAS.
//!
//! # Structure (paper §3)
//!
//! * Large blocks go straight to the OS ([`large`]).
//! * Small blocks come from 16 KiB **superblocks** divided into
//!   equal-size blocks; superblocks belong to **size classes**
//!   ([`size_classes`]), each size class has multiple **processor
//!   heaps** ([`heap`]).
//! * Each superblock is described by a **descriptor** ([`descriptor`])
//!   whose [`Anchor`](anchor::Anchor) word (avail index, free count,
//!   state, ABA tag) is updated with single CAS operations.
//! * Each heap's [`Active`](active::Active) word packs a descriptor
//!   pointer with a **credits** count so the common malloc path is one
//!   CAS to reserve plus one CAS to pop ([`alloc`]).
//! * A typical free is a single CAS push onto the superblock's free list
//!   ([`free_impl`]).
//! * Retired descriptors are recycled through hazard pointers (the
//!   paper's `SafeCAS`); size-class partial-superblock lists are
//!   lock-free FIFO queues ([`partial`]).
//!
//! # Quick start
//!
//! ```
//! use lfmalloc::LfMalloc;
//! use malloc_api::RawMalloc;
//!
//! let alloc = LfMalloc::new_default();
//! unsafe {
//!     let p = alloc.malloc(100);
//!     assert!(!p.is_null());
//!     core::ptr::write_bytes(p, 42, 100);
//!     alloc.free(p);
//! }
//! ```
//!
//! To install it as the Rust global allocator, see [`global::GlobalLfMalloc`].
//!
//! # Deviations from the paper
//!
//! Documented centrally in `DESIGN.md`; the load-bearing ones:
//! anchor bit-field widths are 12/12/2/38 instead of 10/10/2/42 (so a
//! 16 KiB superblock of 16-byte blocks fits), the block prefix
//! generalizes to alignments above 8, and empty superblocks return to a
//! never-unmapped page pool rather than `munmap` (the paper's hyperblock
//! scheme, §3.2.5).

// Telemetry increment macros (crate-internal). With the `stats` feature
// they hit the instance's shard/global counters; without it they expand
// to nothing, so instrumented call sites compile to zero code — the
// same contract as `malloc_api::fail_point!`. The local retry tallies
// feeding `stat_hist!` are *not* feature-gated: they also feed the
// always-on liveness watchdog (`health::watch`).
#[cfg(feature = "stats")]
macro_rules! stat {
    ($inner:expr, $heap:expr, $field:ident) => {
        $inner.shard($heap).$field.inc()
    };
}
#[cfg(not(feature = "stats"))]
macro_rules! stat {
    ($inner:expr, $heap:expr, $field:ident) => {};
}
#[cfg(feature = "stats")]
macro_rules! stat_hist {
    ($inner:expr, $heap:expr, $hist:ident, $n:expr) => {
        $inner.shard($heap).$hist.record($n)
    };
}
#[cfg(not(feature = "stats"))]
macro_rules! stat_hist {
    ($inner:expr, $heap:expr, $hist:ident, $n:expr) => {};
}
#[cfg(feature = "stats")]
macro_rules! stat_global {
    ($inner:expr, $field:ident) => {
        $inner.stats.$field.inc()
    };
}
#[cfg(not(feature = "stats"))]
macro_rules! stat_global {
    ($inner:expr, $field:ident) => {};
}
#[cfg(feature = "stats")]
macro_rules! stat_event {
    ($inner:expr, $kind:ident, $class:expr, $arg:expr) => {
        $inner.stats.record_event(crate::stats::EventKind::$kind, $class as u16, $arg as u64)
    };
}
#[cfg(not(feature = "stats"))]
macro_rules! stat_event {
    ($inner:expr, $kind:ident, $class:expr, $arg:expr) => {};
}
// Latency timing pair: `lat_start!()` captures a monotonic timestamp at
// the top of an operation and `stat_lat!` records the elapsed
// nanoseconds into one of the instance's `LatencyHist`s. Without
// `stats` both vanish (the timestamp is a constant the optimizer
// deletes), keeping clock reads off the default-build fast path.
#[cfg(feature = "stats")]
macro_rules! lat_start {
    () => {
        malloc_api::telemetry::monotonic_nanos()
    };
}
#[cfg(not(feature = "stats"))]
macro_rules! lat_start {
    () => {
        0u64
    };
}
#[cfg(feature = "stats")]
macro_rules! stat_lat {
    ($inner:expr, $field:ident, $t0:expr) => {
        $inner.stats.$field.record_since($t0)
    };
}
#[cfg(not(feature = "stats"))]
macro_rules! stat_lat {
    ($inner:expr, $field:ident, $t0:expr) => {{
        let _ = $t0;
    }};
}
pub(crate) use {lat_start, stat, stat_event, stat_global, stat_hist, stat_lat};

pub mod active;
pub mod alloc;
pub mod anchor;
pub mod audit;
pub mod config;
pub mod descriptor;
#[cfg(feature = "forensics")]
pub mod forensics;
pub mod fork;
pub mod free_impl;
pub mod global;
pub mod harden;
pub mod health;
pub mod heap;
#[cfg(feature = "forensics")]
pub mod heapdump;
pub mod instance;
pub mod large;
pub mod maintain;
#[cfg(feature = "stats")]
pub mod metrics;
pub mod partial;
#[cfg(feature = "profile")]
pub mod profile;
pub(crate) mod retry;
pub mod size_classes;
#[cfg(feature = "stats")]
pub mod stats;
pub(crate) mod thread;

pub use audit::{AuditReport, AuditViolation, ByteReconciliation};
pub use config::{Config, HeapMode, PartialMode};
pub use global::GlobalLfMalloc;
pub use harden::{process_misuse_counters, Hardening, MisuseCounters, MisuseKind, MisuseReport};
pub use health::{
    process_liveness_counters, HealthSnapshot, LivenessConfig, LivenessPolicy, WatchSite,
    DEFAULT_RETRY_CEILING, NUM_WATCH_SITES,
};
pub use config::ProfileParams;
#[cfg(feature = "forensics")]
pub use config::ForensicsParams;
#[cfg(feature = "forensics")]
pub use forensics::{FdWriter, FlightOp, OpKind, PtrKind, PtrReport, SigBuf};
#[cfg(feature = "forensics")]
pub use heapdump::{
    analyze_dump, diff_dumps, AnalyzeReport, ClassCensus, DescriptorCensus, DiffReport,
    LeakCandidate, SiteDelta, DUMP_VERSION,
};
pub use instance::{LfMalloc, OutOfMemory};
pub use maintain::{MaintenanceBudget, MaintenanceReport, ReaperConfig};
#[cfg(feature = "profile")]
pub use profile::{CallSite, LiveSample, ProfileSnapshot, SiteReport};
#[cfg(feature = "stats")]
pub use stats::{
    ClassStats, Event, EventKind, EventRing, FragSample, FragmentationStats, LatencyStats,
    StatsSnapshot,
};
