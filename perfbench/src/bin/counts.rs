//! `lfbench-counts ...`: the counts run on the `stats` build. Prints
//! counts and ratios with their bases, never a time, then one line of
//! JSON; exits 1 when a check failed. Arguments: see [`lfbench::Args`].

fn main() {
    lfbench::pin_page_source();
    let args = match lfbench::Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("lfbench-counts: {e}");
            std::process::exit(2);
        }
    };
    println!(
        "counts (stats build): {}, seed {}",
        args.workload.name(),
        args.seed
    );
    let report = lfbench::counts::run(args.workload, args.seed, args.seconds, args.tiny);
    report.print();
    std::process::exit(if report.correct() { 0 } else { 1 });
}
