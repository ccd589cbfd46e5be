//! The repository benchmark: end-to-end and per-layer figures for the
//! middleware on three workloads. See `perfbench/README.md`.
//!
//! ```text
//! perfbench --workload <sim-alloc|sim-overlay|live-loopback> --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is the JSON result; diagnostics go to
//! standard error. Scratch files live under `.perfbench_tmp/` in the
//! working directory and are removed before exit. A traced DES run leaves
//! its spans in `.bench_build/perfbench-spans-<workload>.jsonl`.

mod driver;
mod live;
mod report;
mod scenario;
mod sim;
mod stats;
mod wire;

use report::{Outcome, END_TO_END, PER_LAYER};
use scenario::SimShape;
use std::path::PathBuf;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        argv.iter()
            .position(|a| a == flag)
            .and_then(|i| argv.get(i + 1))
            .map(String::as_str)
            .ok_or(format!("missing {flag}"))
    };
    let num = |flag: &str| -> Result<u64, String> {
        get(flag)?.parse().map_err(|e| format!("bad {flag}: {e}"))
    };
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: num("--seed")?,
        seconds: num("--seconds")?.max(1),
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("bad --trace: {other}")),
        },
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <sim-alloc|sim-overlay|live-loopback> \
                 --seed N --seconds S --trace 0|1"
            );
            std::process::exit(2);
        }
    };
    let tmp = PathBuf::from(".perfbench_tmp").join(std::process::id().to_string());
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: creating {}: {e}", tmp.display());
        std::process::exit(1);
    }
    let shape = match args.workload.as_str() {
        "sim-alloc" => Some(SimShape::Alloc),
        "sim-overlay" => Some(SimShape::Overlay),
        _ => None,
    };
    let result: Result<Outcome, String> = match (shape, args.workload.as_str()) {
        (Some(shape), workload) => {
            let spans =
                PathBuf::from(".bench_build").join(format!("perfbench-spans-{workload}.jsonl"));
            Ok(sim::run(
                shape,
                args.seed,
                args.seconds,
                args.trace,
                &spans,
                &tmp,
            ))
        }
        (None, "live-loopback") => live::run(args.seed, args.seconds, args.trace, &tmp),
        (None, other) => Err(format!("unknown workload {other}")),
    };
    let _ = std::fs::remove_dir_all(&tmp);
    let _ = std::fs::remove_dir(".perfbench_tmp");
    match result {
        Ok(outcome) => {
            let table = if args.trace { PER_LAYER } else { END_TO_END };
            println!("{}", outcome.to_json(table));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
