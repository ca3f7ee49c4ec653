//! CLI entry point regenerating the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p imprints-bench --bin experiments -- \
//!     --experiment all --rows 1000000 --rounds 4 --out bench_results
//! ```

use std::process::ExitCode;

use imprints_bench::experiments::{run, ExpConfig, ALL_EXPERIMENTS};

fn usage() -> ! {
    eprintln!(
        "usage: experiments [--experiment <name|all>] [--rows N] [--rounds N] [--seed N] [--out DIR]\n\
         experiments: {}",
        ALL_EXPERIMENTS.join(", ")
    );
    std::process::exit(2);
}

fn main() -> ExitCode {
    let mut cfg = ExpConfig::default();
    let mut experiment = String::from("all");
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut val = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--experiment" | "-e" => experiment = val(),
            "--rows" | "-n" => cfg.rows = val().parse().unwrap_or_else(|_| usage()),
            "--rounds" | "-r" => cfg.rounds = val().parse().unwrap_or_else(|_| usage()),
            "--seed" | "-s" => cfg.seed = val().parse().unwrap_or_else(|_| usage()),
            "--out" | "-o" => cfg.out_dir = val().into(),
            "--help" | "-h" => usage(),
            _ => usage(),
        }
    }
    println!(
        "column imprints experiment harness — experiment={experiment} rows={} rounds={} seed={}\n",
        cfg.rows, cfg.rounds, cfg.seed
    );
    let t0 = std::time::Instant::now();
    if !run(&experiment, &cfg) {
        eprintln!("unknown experiment {experiment:?}");
        usage();
    }
    println!("[done in {:.1}s]", t0.elapsed().as_secs_f64());
    ExitCode::SUCCESS
}
