//! `lfbench e2e ...` runs the end-to-end measurement of one workload;
//! `lfbench layers ...` runs the layer probes and the traced run. Both
//! print one line per metric and then one line of JSON, and exit 1 when
//! a check failed. Arguments: see [`lfbench::Args`].

use lfbench::{end_to_end, new_lf, probes, setup, trace, Args};

fn main() {
    lfbench::pin_page_source();
    let mut argv = std::env::args().skip(1);
    let mode = argv.next().unwrap_or_default();
    let args = match Args::parse(argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lfbench: {e}");
            std::process::exit(2);
        }
    };
    let name = args.workload.name();
    let report = match mode.as_str() {
        "e2e" => {
            println!("end-to-end: {name}, seed {}, {} s", args.seed, args.seconds);
            end_to_end(args.workload, args.seed, args.seconds, args.tiny, &new_lf)
        }
        "layers" => {
            println!("layer probes (uninstrumented build)");
            let mut r = probes::run(args.tiny);
            println!("traced run: {name}, seed {}, {} s", args.seed, args.seconds);
            let ready = setup(args.workload, args.seed, args.tiny, 1, &new_lf);
            r.count_ops(ready.warm_ops, ready.warm_failed);
            r.merge(trace::traced_run(
                &ready.alloc,
                &ready.inputs,
                args.seconds,
                args.tiny,
                args.out.as_deref(),
            ));
            r
        }
        _ => {
            eprintln!("lfbench: first argument must be e2e or layers");
            std::process::exit(2);
        }
    };
    report.print();
    std::process::exit(if report.correct() { 0 } else { 1 });
}
