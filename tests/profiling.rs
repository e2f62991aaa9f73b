//! End-to-end tests of the heap-profiling subsystem through the public
//! API: sampler determinism, planted-leak attribution through the
//! retention report, latency percentiles in both human and JSON
//! surfaces, the fragmentation time series, and the OpenMetrics
//! exporter (rendered and scraped over HTTP).

#![cfg(feature = "stats")]

use lfmalloc_repro::prelude::*;

#[cfg(feature = "profile")]
mod profile {
    use super::*;
    use lfmalloc::json::Json;
    use lfmalloc::ProfileParams;
    use malloc_api::testkit::for_each_seed;

    /// Runs a fixed single-threaded allocation sequence on a fresh
    /// instance and returns the multiset of sampled *requested sizes*
    /// (pointer values differ between runs; the unique sizes identify
    /// which allocations of the sequence were sampled).
    fn sampled_sizes(seed: u64) -> Vec<u64> {
        let a = LfMalloc::with_config(
            Config::with_heaps(1).with_profile(ProfileParams::new(2048, seed)),
        );
        let mut live = Vec::new();
        unsafe {
            for i in 0..3000usize {
                let p = a.malloc(17 + i); // unique size per allocation
                assert!(!p.is_null());
                live.push(p);
            }
        }
        let mut sizes: Vec<u64> =
            a.profile().live.iter().map(|s| s.requested as u64).collect();
        sizes.sort_unstable();
        unsafe {
            for p in live {
                a.free(p);
            }
        }
        assert_eq!(a.profile().live.len(), 0, "frees must unsample");
        sizes
    }

    #[test]
    fn sampler_is_deterministic_per_seed() {
        // Same seed + same sequence => byte-for-byte identical sample
        // sets across fresh instances; the stride estimator also pins
        // the expected sample count to allocated_bytes / stride.
        for_each_seed("profile-determinism", &[1, 0xDEAD_BEEF, u64::MAX / 7], |seed| {
            let first = sampled_sizes(seed);
            let second = sampled_sizes(seed);
            assert!(!first.is_empty(), "stride 2048 over ~4.5MB must sample");
            assert_eq!(first, second, "sampling must be deterministic for seed {seed}");
        });
        // Distinct seeds see distinct byte offsets: at least one pair
        // of the three must differ (they cover different residues).
        let a = sampled_sizes(1);
        let b = sampled_sizes(2);
        let c = sampled_sizes(3);
        assert!(a != b || b != c, "distinct seeds never diverged");
    }

    /// One allocation site behind a `#[track_caller]` shim: the
    /// reported location is the *match arm*, giving the test 64 real,
    /// distinct call sites in the source.
    #[track_caller]
    fn alloc_at(a: &LfMalloc, size: usize) -> *mut u8 {
        unsafe { a.malloc(size) }
    }

    #[rustfmt::skip]
    fn alloc_site(a: &LfMalloc, which: usize, size: usize) -> *mut u8 {
        match which {
            0 => alloc_at(a, size),
            1 => alloc_at(a, size),
            2 => alloc_at(a, size),
            3 => alloc_at(a, size),
            4 => alloc_at(a, size),
            5 => alloc_at(a, size),
            6 => alloc_at(a, size),
            7 => alloc_at(a, size),
            8 => alloc_at(a, size),
            9 => alloc_at(a, size),
            10 => alloc_at(a, size),
            11 => alloc_at(a, size),
            12 => alloc_at(a, size),
            13 => alloc_at(a, size),
            14 => alloc_at(a, size),
            15 => alloc_at(a, size),
            16 => alloc_at(a, size),
            17 => alloc_at(a, size),
            18 => alloc_at(a, size),
            19 => alloc_at(a, size),
            20 => alloc_at(a, size),
            21 => alloc_at(a, size),
            22 => alloc_at(a, size),
            23 => alloc_at(a, size),
            24 => alloc_at(a, size),
            25 => alloc_at(a, size),
            26 => alloc_at(a, size),
            27 => alloc_at(a, size),
            28 => alloc_at(a, size),
            29 => alloc_at(a, size),
            30 => alloc_at(a, size),
            31 => alloc_at(a, size),
            32 => alloc_at(a, size),
            33 => alloc_at(a, size),
            34 => alloc_at(a, size),
            35 => alloc_at(a, size),
            36 => alloc_at(a, size),
            37 => alloc_at(a, size),
            38 => alloc_at(a, size),
            39 => alloc_at(a, size),
            40 => alloc_at(a, size),
            41 => alloc_at(a, size),
            42 => alloc_at(a, size),
            43 => alloc_at(a, size),
            44 => alloc_at(a, size),
            45 => alloc_at(a, size),
            46 => alloc_at(a, size),
            47 => alloc_at(a, size),
            48 => alloc_at(a, size),
            49 => alloc_at(a, size),
            50 => alloc_at(a, size),
            51 => alloc_at(a, size),
            52 => alloc_at(a, size),
            53 => alloc_at(a, size),
            54 => alloc_at(a, size),
            55 => alloc_at(a, size),
            56 => alloc_at(a, size),
            57 => alloc_at(a, size),
            58 => alloc_at(a, size),
            59 => alloc_at(a, size),
            60 => alloc_at(a, size),
            61 => alloc_at(a, size),
            62 => alloc_at(a, size),
            63 => alloc_at(a, size),
            _ => unreachable!(),
        }
    }

    const LEAK_SITE: usize = 13;
    const LEAK_SIZE: usize = 3333;

    #[test]
    fn planted_leak_ranks_first_among_64_sites() {
        // 64 distinct call sites; 63 keep a token working set, one
        // (LEAK_SITE) retains ~100x more. The ranked retention report
        // must put the leaking site first — the acceptance criterion —
        // and its per-site aggregates must carry the leak's signature
        // sizes so the attribution is provably the right line.
        let a = LfMalloc::with_config(
            Config::with_heaps(2).with_profile(ProfileParams::new(1024, 0x517E)),
        );
        let mut live = Vec::new();
        for site in 0..64usize {
            if site == LEAK_SITE {
                for _ in 0..256 {
                    let p = alloc_site(&a, site, LEAK_SIZE);
                    assert!(!p.is_null());
                    live.push(p); // never freed during the run: the leak
                }
            } else {
                for round in 0..32 {
                    let p = alloc_site(&a, site, 500);
                    assert!(!p.is_null());
                    if round < 8 {
                        live.push(p); // small retained working set
                    } else {
                        unsafe { a.free(p) };
                    }
                }
            }
        }

        let report = a.retention_report();
        assert!(
            report.len() >= 16,
            "track_caller must yield distinct sites per match arm, got {}",
            report.len()
        );
        let top = &report[0];
        assert!(
            top.live_samples > 0 && top.requested_bytes / top.live_samples as u64 == LEAK_SIZE as u64,
            "top site must be the planted {LEAK_SIZE}-byte leak, got {} ({} bytes over {} samples)",
            top.site,
            top.requested_bytes,
            top.live_samples
        );
        assert!(
            report[1..].iter().all(|r| r.live_bytes <= top.live_bytes),
            "report must be ranked by live bytes descending"
        );
        // The leak dominates: more estimated live bytes than all other
        // sites combined.
        let rest: u64 = report[1..].iter().map(|r| r.live_bytes).sum();
        assert!(top.live_bytes > rest, "leak site must dominate retention");
        // The snapshot embeds the same report in stats JSON.
        let json = a.stats().to_json();
        assert!(json.contains("\"profile\":{"), "stats JSON must embed the profile");
        assert!(json.contains("profiling.rs"), "sites must carry source attribution");
        // Site strings survive the writer -> parser round trip.
        let snap = a.stats();
        let v = Json::parse(&snap.to_json()).expect("stats JSON parses");
        let parsed: Vec<&str> = v
            .arr_at("profile.sites")
            .iter()
            .filter_map(|s| s.get("site").and_then(Json::as_str))
            .collect();
        let want: Vec<String> = snap.profile.sites().iter().map(|r| r.site.to_string()).collect();
        assert!(!want.is_empty());
        assert_eq!(parsed, want);

        for p in live {
            unsafe { a.free(p) };
        }
    }
}

#[test]
fn latency_percentiles_surface_in_dump_and_json() {
    let a = LfMalloc::with_config(Config::with_heaps(1));
    unsafe {
        let mut live = Vec::new();
        for i in 0..10_000usize {
            live.push(a.malloc(16 + i % 1000));
        }
        let big = a.malloc(1 << 20);
        for p in live {
            a.free(p);
        }
        a.free(big);
    }
    a.maintain(MaintenanceBudget::light());

    let mut buf = Vec::new();
    a.dump_stats(&mut buf).unwrap();
    let text = String::from_utf8(buf).unwrap();
    assert!(text.contains("latency"), "dump must have a latency section:\n{text}");
    assert!(text.contains("p99"), "dump must print p99 columns");
    assert!(text.contains("malloc_fast"), "fast-path malloc row missing");
    assert!(text.contains("fragmentation"), "dump must have a fragmentation section");

    let snap = a.stats();
    assert!(snap.latency.malloc_fast.count() > 0, "fast-path mallocs must be timed");
    assert!(snap.latency.malloc_large.count() >= 1, "large alloc must be timed");
    assert!(snap.latency.free_large.count() >= 1, "large free must be timed");
    assert!(snap.latency.maintain.count() >= 1, "maintenance pass must be timed");
    let p99 = snap.latency.malloc_fast.percentile(0.99);
    assert!(p99 > 0, "p99 of a timed path cannot be zero");
    assert!(p99 >= snap.latency.malloc_fast.percentile(0.50), "p99 < p50");

    let json = snap.to_json();
    assert!(json.contains("\"latency\":{"), "JSON must embed latency: {json}");
    assert!(json.contains("\"malloc_fast\":{\"count\":"), "per-path object missing");
    assert!(json.contains("\"p99\":"), "p99 missing from JSON");
    assert!(json.contains("\"fragmentation\":{"), "fragmentation missing from JSON");
}

#[test]
fn maintenance_feeds_the_fragmentation_series() {
    let a = LfMalloc::with_config(Config::with_heaps(1));
    let mut live = Vec::new();
    unsafe {
        for _ in 0..5000 {
            live.push(a.malloc(100));
        }
        // Free every other block: committed superblocks stay, live
        // bytes halve — visible external fragmentation.
        for (i, p) in live.iter().enumerate() {
            if i % 2 == 0 {
                a.free(*p);
            }
        }
    }
    for _ in 0..3 {
        a.maintain(MaintenanceBudget::light());
    }
    let series = a.take_frag_series();
    assert!(series.len() >= 3, "each maintenance pass must append a sample");
    let last = series.last().unwrap();
    assert!(last.small_committed_bytes > 0, "committed bytes must be tracked");
    assert!(
        last.small_live_bytes < last.small_committed_bytes,
        "half-freed heap must show live < committed"
    );
    assert!(last.external_frag_permille > 0, "fragmentation must be non-zero");
    assert!(
        series.windows(2).all(|w| w[0].nanos <= w[1].nanos),
        "series must be time-ordered"
    );
    unsafe {
        for (i, p) in live.iter().enumerate() {
            if i % 2 == 1 {
                a.free(*p);
            }
        }
    }
}

#[test]
fn openmetrics_round_trips_through_the_checker_and_http() {
    use std::io::{Read as _, Write as _};

    let a = LfMalloc::with_config(Config::with_heaps(2));
    unsafe {
        let mut live = Vec::new();
        for i in 0..2000usize {
            live.push(a.malloc(32 + i % 512));
        }
        for p in live {
            a.free(p);
        }
    }
    a.maintain(MaintenanceBudget::light());

    let text = a.render_openmetrics();
    lfmalloc::metrics::check_openmetrics(&text).expect("rendered exposition is well-formed");
    for needle in [
        "lfmalloc_mallocs_total{path=\"fast\"}",
        "lfmalloc_events_dropped",
        "lfmalloc_degraded 0",
        "lfmalloc_malloc_latency_seconds_bucket",
        "lfmalloc_frag_external_permille",
        "# EOF",
    ] {
        assert!(text.contains(needle), "missing {needle} in exposition");
    }

    // Scrape the same content over the HTTP endpoint.
    let addr = a.serve_metrics("127.0.0.1:0").expect("bind");
    let mut stream = std::net::TcpStream::connect(addr).expect("connect");
    stream.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
    let mut resp = String::new();
    stream.read_to_string(&mut resp).unwrap();
    assert!(resp.starts_with("HTTP/1.0 200 OK"));
    let body = resp.split("\r\n\r\n").nth(1).expect("http body");
    lfmalloc::metrics::check_openmetrics(body).expect("scraped exposition is well-formed");
    assert!(a.stop_metrics());
}
