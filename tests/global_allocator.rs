//! End-to-end: the lock-free allocator as this test binary's Rust
//! global allocator. Every `Vec`, `String`, `HashMap`, channel buffer
//! and test-harness allocation below is served by the PLDI 2004
//! algorithm.

use lfmalloc_repro::prelude::*;
use malloc_api::procfork::{self, sys};
use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};

#[global_allocator]
static GLOBAL: GlobalLfMalloc = GlobalLfMalloc::new();

/// Reaps `pid` with a deadline, SIGKILLing a hung child so a
/// process-lifecycle bug fails the test instead of wedging the run.
fn wait_child(pid: i32) -> Option<i32> {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(60);
    let mut status = 0i32;
    loop {
        let r = unsafe { sys::waitpid(pid, &mut status, sys::WNOHANG) };
        if r == pid {
            return sys::exit_code(status);
        }
        assert_eq!(r, 0, "waitpid failed");
        if std::time::Instant::now() > deadline {
            unsafe {
                sys::kill(pid, sys::SIGKILL);
                sys::waitpid(pid, &mut status, 0);
            }
            panic!("child {pid} hung — post-fork deadlock in the global allocator");
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
    }
}

#[test]
fn std_collections_work() {
    let mut m: HashMap<String, Vec<u32>> = HashMap::new();
    for i in 0..5_000u32 {
        m.entry(format!("k{}", i % 101)).or_default().push(i);
    }
    assert_eq!(m.values().map(Vec::len).sum::<usize>(), 5_000);
    let mut keys: Vec<&String> = m.keys().collect();
    keys.sort();
    assert_eq!(keys.len(), 101);
}

#[test]
fn multithreaded_string_churn() {
    let handles: Vec<_> = (0..4)
        .map(|t| {
            std::thread::spawn(move || {
                let mut v = Vec::new();
                for i in 0..10_000usize {
                    v.push(format!("t{t}-{i}-{}", "x".repeat(i % 64)));
                    if v.len() > 50 {
                        v.swap_remove(i % v.len());
                    }
                }
                v.into_iter().map(|s| s.len()).sum::<usize>()
            })
        })
        .collect();
    let total: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(total > 0);
}

#[test]
fn cross_thread_moves() {
    // Allocate on one thread, grow/drop on another (remote frees through
    // the global allocator).
    let (tx, rx) = std::sync::mpsc::channel::<Vec<u8>>();
    let producer = std::thread::spawn(move || {
        for i in 0..1_000usize {
            tx.send(vec![i as u8; 16 + i % 1_000]).unwrap();
        }
    });
    let mut bytes = 0usize;
    for mut v in rx {
        v.extend_from_slice(&[1, 2, 3]);
        bytes += v.len();
    }
    producer.join().unwrap();
    assert!(bytes > 0);
}

#[test]
fn large_and_aligned_layouts() {
    // Vec with large capacity exercises the large-block path through
    // GlobalAlloc; Box<[u128]> exercises 16-byte alignment.
    let big: Vec<u64> = (0..200_000).collect();
    assert_eq!(big.len(), 200_000);
    let aligned: Box<[u128]> = (0..1_000u128).collect();
    assert_eq!(aligned.as_ptr() as usize % 16, 0);
    assert_eq!(aligned[999], 999);
}

/// fork → allocate in the child *through the global allocator* → exec.
/// This is the canonical fork/exec pattern every process spawner uses;
/// the child's heap must work (DESIGN.md §12 child recovery) and exec
/// must replace the image cleanly, handing back the script's exit code.
#[test]
fn fork_alloc_exec_roundtrip() {
    let pid = unsafe { procfork::fork() };
    assert!(pid >= 0, "fork failed");
    if pid == 0 {
        // Every one of these goes through GLOBAL in the forked child.
        let mut v: Vec<String> = Vec::new();
        for i in 0..500usize {
            v.push(format!("child-{i}"));
        }
        if v.len() != 500 {
            unsafe { sys::_exit(99) };
        }
        drop(v);
        let path = b"/bin/sh\0";
        let arg0 = b"sh\0";
        let arg1 = b"-c\0";
        let arg2 = b"exit 7\0";
        let argv: [*const u8; 4] =
            [arg0.as_ptr(), arg1.as_ptr(), arg2.as_ptr(), core::ptr::null()];
        unsafe {
            sys::execv(path.as_ptr(), argv.as_ptr());
            sys::_exit(98); // only reached if exec failed
        }
    }
    assert_eq!(wait_child(pid), Some(7), "child did not exec cleanly after fork+alloc");
}

/// Allocating from a signal handler must never deadlock: it either
/// completes lock-free or — if the signal interrupted this same
/// thread's allocation — is rejected and counted as `ReentrantAlloc`.
/// Every delivery is accounted for: handled = completed + rejected.
#[test]
fn signal_handler_allocation_is_deadlock_free() {
    static COMPLETED: AtomicUsize = AtomicUsize::new(0);
    static REJECTED: AtomicUsize = AtomicUsize::new(0);

    extern "C" fn on_usr1(_sig: i32) {
        // Raw instance calls, not Vec: a rejected (null) allocation
        // must be *observable*, not routed to handle_alloc_error.
        unsafe {
            let p = GLOBAL.instance().malloc(96);
            if p.is_null() {
                REJECTED.fetch_add(1, Ordering::SeqCst);
            } else {
                p.write(0xEE);
                GLOBAL.instance().free(p);
                COMPLETED.fetch_add(1, Ordering::SeqCst);
            }
        }
    }

    let prev = unsafe { sys::signal(sys::SIGUSR1, on_usr1 as *const () as usize) };
    malloc_api::testkit::for_each_seed(
        "signal-handler allocation",
        &[0x51, 0x52, 0x53, 0x54],
        |seed| {
            let before = COMPLETED.load(Ordering::SeqCst) + REJECTED.load(Ordering::SeqCst);
            let mut x = seed | 1;
            for _ in 0..50 {
                // Interleave real allocator traffic with deliveries so
                // the handler races live heap state.
                x ^= x << 13;
                x ^= x >> 7;
                let v = vec![0u8; 1 + (x as usize % 2_000)];
                unsafe { sys::raise(sys::SIGUSR1) };
                drop(v);
            }
            let after = COMPLETED.load(Ordering::SeqCst) + REJECTED.load(Ordering::SeqCst);
            assert_eq!(after - before, 50, "a signal delivery was lost or deadlocked");
        },
    );
    unsafe { sys::signal(sys::SIGUSR1, prev) };
    // Any rejection must have been counted as misuse, never silent.
    assert!(
        GLOBAL.instance().misuse_counters().count(MisuseKind::ReentrantAlloc)
            >= REJECTED.load(Ordering::SeqCst) as u64
    );
}

/// Deterministic version of the reentrancy contract: with the guard
/// artificially held (as if a signal had landed mid-malloc), the fast
/// path fails fast with a counted rejection instead of recursing — a
/// malloc returns null, a free leaks its block — and the thread keeps
/// its id.
#[test]
fn reentrant_allocation_fails_fast_and_is_counted() {
    let inst = GLOBAL.instance();
    let tid = lfmalloc::heap::thread_id();
    for side in ["malloc", "free"] {
        let before = inst.misuse_counters().count(MisuseKind::ReentrantAlloc);
        // A real free would show on this block: the free-list link
        // overwrites its prefix word, hardened mode poisons its bytes.
        let block = unsafe { inst.malloc(64) };
        assert!(!block.is_null());
        let prefix = unsafe {
            block.write_bytes(0xA7, 64);
            (block as *const usize).sub(1).read()
        };
        {
            let _in_alloc = lfmalloc::fork::hold_reentrancy_guard_for_testing();
            // No Vec/String here: the global allocator would abort on the
            // deliberate null. Raw calls observe the rejection directly.
            if side == "malloc" {
                let p = unsafe { inst.malloc(64) };
                assert!(p.is_null(), "reentrant malloc must be rejected");
            } else {
                unsafe { inst.free(block) };
            }
        }
        let after = inst.misuse_counters().count(MisuseKind::ReentrantAlloc);
        assert!(after > before, "reentrant {side} was not counted");
        unsafe {
            assert_eq!((block as *const usize).sub(1).read(), prefix, "{side}: block was freed");
            assert!((0..64).all(|i| *block.add(i) == 0xA7), "{side}: block was freed");
        }
        assert_eq!(lfmalloc::heap::thread_id(), tid, "{side}: thread id changed");
        // Guard released: this thread allocates and frees normally again.
        let p = unsafe { inst.malloc(64) };
        assert!(!p.is_null());
        unsafe {
            inst.free(p);
            inst.free(block);
        }
    }
}

#[test]
fn allocator_reports_usage() {
    // Force some traffic, then check the instance accounting is sane.
    let v: Vec<Vec<u8>> = (0..100).map(|i| vec![0u8; 100 + i]).collect();
    let stats = GLOBAL.instance().os_stats();
    assert!(stats.peak_bytes > 0);
    assert!(stats.live_bytes > 0);
    drop(v);
}
