//! Fork torture: process-lifecycle robustness under concurrent load.
//!
//! Lock-freedom's availability argument (§2 of the paper: immunity to
//! deadlock "even if any number of threads are killed while operating")
//! extends naturally to `fork(2)`, which is a mass thread kill: the
//! child inherits the whole heap image but only the forking thread.
//! These tests fork repeatedly while other threads hammer the
//! allocators and then prove, in the child:
//!
//! * lfmalloc serves allocations immediately, adopts every orphaned
//!   hazard record, passes a full [`LfMalloc::audit`], and reports the
//!   recovery in its health snapshot (DESIGN.md §12);
//! * the reaper thread — which died in the fork — is respawned, and
//!   `stop_reaper` never tries to join the corpse;
//! * the three lock-based baselines, which WOULD deadlock when forked
//!   mid-allocation, never do so under their atfork guards (prepare
//!   acquires every lock, parent/child release);
//! * the differential oracle replays cleanly over a forked heap.
//!
//! Children communicate only via `_exit` codes (no panic unwinding, no
//! stdio flushing in the child); the parent reaps with a watchdog that
//! converts a hung child — i.e. a deadlock — into `SIGKILL` plus a test
//! failure instead of a hung CI job.

use lfmalloc_repro::prelude::*;
use malloc_api::procfork::{self, sys};
use malloc_api::testkit::for_each_seed;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Child exit codes (each failure mode gets its own, so a red test says
/// what broke without child-side stdio).
const OK: i32 = 0;
const NULL_ALLOC: i32 = 10;
const AUDIT_VIOLATION: i32 = 11;
const HEALTH_MISMATCH: i32 = 12;
const ORACLE_VIOLATION: i32 = 13;
const REAPER_STUCK: i32 = 14;
const STALE_THREAD_ID: i32 = 15;

/// Serializes fork scenarios: the test harness is multithreaded, and
/// concurrent `waitpid` loops could reap each other's children.
fn fork_lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(())).lock().unwrap_or_else(|p| p.into_inner())
}

/// Reaps `pid` with a deadline. A child that deadlocks (the exact bug
/// these tests exist to catch) is SIGKILLed and reported as a failure
/// rather than hanging the suite.
fn wait_child(pid: i32, what: &str) -> i32 {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let mut status = 0i32;
    loop {
        let r = unsafe { sys::waitpid(pid, &mut status, sys::WNOHANG) };
        if r == pid {
            match sys::exit_code(status) {
                Some(code) => return code,
                None => panic!("{what}: child {pid} killed by signal (status {status:#x})"),
            }
        }
        assert!(r == 0, "{what}: waitpid failed ({r})");
        if std::time::Instant::now() > deadline {
            unsafe {
                sys::kill(pid, sys::SIGKILL);
                sys::waitpid(pid, &mut status, 0);
            }
            panic!("{what}: child {pid} hung past the deadline — deadlock in the child");
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

/// Spawns `n` allocator-hammering threads that run until `stop`. The
/// returned closure is the per-thread body.
fn hammer<A: RawMalloc + Send + Sync>(a: &A, stop: &AtomicBool, seed: u64) {
    let mut x = seed | 1;
    let mut held: Vec<(*mut u8, usize)> = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        // xorshift: cheap deterministic size/action stream.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let size = 1 + (x as usize % 1500);
        unsafe {
            if held.len() >= 64 || (x & 3 == 0 && !held.is_empty()) {
                let (p, _) = held.swap_remove(x as usize % held.len());
                a.free(p);
            } else {
                let p = a.malloc(size);
                if !p.is_null() {
                    p.write(0xA5);
                    held.push((p, size));
                }
            }
        }
    }
    for (p, _) in held {
        unsafe { a.free(p) };
    }
}

/// Child-side proof for lfmalloc: the heap must work immediately, the
/// audit must be clean (every parent thread's hazard record adopted,
/// retired queues drained), the health snapshot must show exactly one
/// recovery at the child's generation, and the forking thread must have
/// been issued a new thread id (DESIGN.md §12.2 I3): `parent_tid` is its
/// id from before the fork.
fn lfmalloc_child_check(a: &LfMalloc, parent_tid: usize) -> ! {
    unsafe {
        let mut ptrs = Vec::new();
        for i in 0..2_000usize {
            let p = a.malloc(1 + (i * 37) % 4_000);
            if p.is_null() {
                sys::_exit(NULL_ALLOC);
            }
            p.write(0x5A);
            ptrs.push(p);
        }
        for p in ptrs {
            a.free(p);
        }
    }
    if !a.audit().is_clean() {
        unsafe { sys::_exit(AUDIT_VIOLATION) };
    }
    let h = a.health();
    if h.fork_recoveries != 1 || h.fork_generation != procfork::generation() {
        unsafe { sys::_exit(HEALTH_MISMATCH) };
    }
    if lfmalloc::heap::thread_id() == parent_tid {
        unsafe { sys::_exit(STALE_THREAD_ID) };
    }
    unsafe { sys::_exit(OK) };
}

/// The tentpole scenario: fork lfmalloc under multithreaded load, with
/// seeds varying the interleaving; the child must recover and audit
/// clean every time.
#[test]
fn lfmalloc_child_recovers_after_fork_under_load() {
    let _serial = fork_lock();
    for_each_seed("fork under load", &[0x5EED_1, 0x5EED_2, 0x5EED_3, 0x5EED_4], |seed| {
        let a = LfMalloc::new_default();
        let stop = AtomicBool::new(false);
        let (ar, stopr) = (&a, &stop);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                s.spawn(move || hammer(ar, stopr, seed.wrapping_mul(t + 1)));
            }
            // Let the hammers reach steady state, then fork mid-churn.
            std::thread::sleep(std::time::Duration::from_millis(30));
            let parent_tid = lfmalloc::heap::thread_id();
            let pid = unsafe { procfork::fork() };
            assert!(pid >= 0, "fork failed");
            if pid == 0 {
                lfmalloc_child_check(&a, parent_tid); // never returns
            }
            let code = wait_child(pid, "lfmalloc fork under load");
            stop.store(true, Ordering::Relaxed);
            assert_eq!(code, OK, "child failed (see exit-code constants)");
        });
        // The parent's heap was never perturbed: its own audit must
        // stay clean and it must have recorded zero recoveries.
        assert!(a.audit().is_clean(), "parent audit dirty after fork");
        assert_eq!(a.health().fork_recoveries, 0);
    });
}

/// The reaper dies in the fork. The child must (a) get a fresh reaper
/// via the atfork child hook, (b) be able to stop it — proving
/// `stop_reaper` joins the respawned thread, not the corpse — and (c)
/// restart it again.
#[test]
fn reaper_respawns_in_child_and_corpse_is_never_joined() {
    let _serial = fork_lock();
    let a = LfMalloc::new_default();
    assert!(a.start_reaper_with(ReaperConfig::every(std::time::Duration::from_millis(10))));
    // Give the reaper a beat to be genuinely parked in its loop.
    std::thread::sleep(std::time::Duration::from_millis(20));
    let pid = unsafe { procfork::fork() };
    assert!(pid >= 0, "fork failed");
    if pid == 0 {
        // Allocation works before anything reaper-related is touched.
        unsafe {
            let p = a.malloc(256);
            if p.is_null() {
                sys::_exit(NULL_ALLOC);
            }
            a.free(p);
        }
        // stop_reaper must return true (a live, respawned reaper was
        // stopped) and must not hang joining the parent's dead thread.
        if !a.stop_reaper() {
            unsafe { sys::_exit(REAPER_STUCK) };
        }
        // And the child can run its own reaper lifecycle afterwards.
        if !a.start_reaper_with(ReaperConfig::every(std::time::Duration::from_millis(10))) || !a.stop_reaper() {
            unsafe { sys::_exit(REAPER_STUCK) };
        }
        if !a.audit().is_clean() {
            unsafe { sys::_exit(AUDIT_VIOLATION) };
        }
        unsafe { sys::_exit(OK) };
    }
    let code = wait_child(pid, "reaper respawn");
    assert_eq!(code, OK, "child failed (see exit-code constants)");
    // The parent's reaper is untouched by the child's lifecycle.
    assert!(a.stop_reaper(), "parent lost its reaper");
}

/// Forks a lock-based baseline mid-allocation, repeatedly, with its
/// atfork guard armed. Without the guard the child would inherit a heap
/// mutex locked by a hammer thread and deadlock on first use — caught
/// here by the watchdog.
fn baseline_fork_torture<A: RawMalloc + Send + Sync>(a: &A, guard_armed: bool, what: &str) {
    assert!(guard_armed, "{what}: atfork guard failed to register");
    let stop = AtomicBool::new(false);
    let stopr = &stop;
    std::thread::scope(|s| {
        for t in 0..3u64 {
            s.spawn(move || hammer(a, stopr, 0x0DDB_1A5E + t));
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
        for round in 0..8 {
            let pid = unsafe { procfork::fork() };
            assert!(pid >= 0, "{what}: fork failed");
            if pid == 0 {
                // The child's heap must be usable at once: prepare held
                // every lock across the fork, child released them.
                unsafe {
                    for i in 0..200usize {
                        let p = a.malloc(1 + i * 13 % 2_000);
                        if p.is_null() {
                            sys::_exit(NULL_ALLOC);
                        }
                        a.free(p);
                    }
                    sys::_exit(OK);
                }
            }
            let code = wait_child(pid, what);
            assert_eq!(code, OK, "{what}: child failed in round {round}");
        }
        stop.store(true, Ordering::Relaxed);
    });
}

#[test]
fn dlheap_never_deadlocks_forked_mid_allocation() {
    let _serial = fork_lock();
    let a = LockedHeap::new();
    let g = a.atfork_guard();
    baseline_fork_torture(&a, g.is_armed(), "dlheap fork torture");
}

#[test]
fn hoard_never_deadlocks_forked_mid_allocation() {
    let _serial = fork_lock();
    let a = Hoard::new(4);
    let g = a.atfork_guard();
    baseline_fork_torture(&a, g.is_armed(), "hoard fork torture");
}

#[test]
fn ptmalloc_never_deadlocks_forked_mid_allocation() {
    let _serial = fork_lock();
    let a = Ptmalloc::new();
    let g = a.atfork_guard();
    baseline_fork_torture(&a, g.is_armed(), "ptmalloc fork torture");
}

/// Differential check across the fork boundary: an oracle-wrapped
/// lfmalloc is forked with live blocks outstanding; the child frees the
/// parent-era blocks, churns new ones, and every content/bounds check
/// must stay silent.
#[test]
fn child_heap_passes_oracle_differential_after_fork() {
    let _serial = fork_lock();
    for_each_seed("post-fork oracle", &[0x0AC1_E1, 0x0AC1_E2, 0x0AC1_E3, 0x0AC1_E4], |seed| {
        let oracle = Arc::new(OracleMalloc::new(LfMalloc::new_default()));
        // Parent-era live blocks the child will inherit and free.
        let mut live = Vec::new();
        unsafe {
            for i in 0..300usize {
                let p = oracle.malloc(1 + (seed as usize + i * 41) % 3_000);
                assert!(!p.is_null());
                live.push(p);
            }
        }
        let pid = unsafe { procfork::fork() };
        assert!(pid >= 0, "fork failed");
        if pid == 0 {
            unsafe {
                for p in live {
                    oracle.free(p); // content checks run on every free
                }
                for i in 0..500usize {
                    let p = oracle.malloc(1 + i * 29 % 2_000);
                    if p.is_null() {
                        sys::_exit(NULL_ALLOC);
                    }
                    oracle.free(p);
                }
                // Mode::Panic would have aborted already; belt and
                // braces, re-verify and check the inner allocator too.
                oracle.verify_all();
                if oracle.violation_count() != 0 {
                    sys::_exit(ORACLE_VIOLATION);
                }
                if !oracle.inner().audit().is_clean() {
                    sys::_exit(AUDIT_VIOLATION);
                }
                sys::_exit(OK);
            }
        }
        let code = wait_child(pid, "post-fork oracle");
        assert_eq!(code, OK, "child failed (see exit-code constants)");
        // Parent: its copy of the same blocks is still intact.
        unsafe {
            for p in live {
                oracle.free(p);
            }
        }
        assert_eq!(oracle.verify_all(), 0);
        assert_eq!(oracle.violation_count(), 0);
    });
}

/// Under `stats`, the parent records a `Fork` event and the child a
/// `ChildRecover` event with the adopted-record count.
#[cfg(feature = "stats")]
#[test]
fn fork_events_land_in_the_event_ring() {
    let _serial = fork_lock();
    let a = LfMalloc::new_default();
    unsafe {
        let p = a.malloc(64);
        assert!(!p.is_null());
        a.free(p);
    }
    let pid = unsafe { procfork::fork() };
    assert!(pid >= 0, "fork failed");
    if pid == 0 {
        unsafe {
            let p = a.malloc(64);
            if p.is_null() {
                sys::_exit(NULL_ALLOC);
            }
            a.free(p);
        }
        let ok = a.take_events().iter().any(|e| e.kind == EventKind::ChildRecover);
        unsafe { sys::_exit(if ok { OK } else { HEALTH_MISMATCH }) };
    }
    let code = wait_child(pid, "fork events");
    assert_eq!(code, OK, "child saw no ChildRecover event");
    let saw_fork = a.take_events().iter().any(|e| e.kind == EventKind::Fork);
    assert!(saw_fork, "parent saw no Fork event");
}
