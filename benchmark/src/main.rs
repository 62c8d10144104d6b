//! `benchmark` — runs one workload and prints its metrics.
//!
//! ```text
//! benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--spans FILE] [--smoke]
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`,
//! holding the end-to-end metrics, or with `--trace 1` the per-layer
//! ones. Exit codes: 0 correct output, 1 a failed check or a run error,
//! 2 a usage error.

use fastz_benchmark::report::{END_TO_END, PER_LAYER};
use fastz_benchmark::{args, measure, trace, workload};
use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let opts = match args::parse(&argv) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("benchmark: {msg}\n{}", args::USAGE);
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "benchmark: {} seed {} for {} s on {} host threads{}{}",
        opts.workload.name,
        opts.seed,
        opts.seconds,
        workload::host_threads(),
        if opts.trace { ", traced" } else { "" },
        if opts.smoke { ", smoke scale" } else { "" },
    );
    let (result, set) = if opts.trace {
        (trace::per_layer(&opts), &PER_LAYER[..])
    } else {
        (measure::end_to_end(&opts), &END_TO_END[..])
    };
    let (line, outcome) = match result.and_then(|mut o| {
        if o.attempted == 0 {
            o.fault("no operation was attempted");
        }
        o.json(set).map(|line| (line, o))
    }) {
        Ok(done) => done,
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(fault) = &outcome.fault {
        eprintln!("benchmark: check failed: {fault}");
    }
    println!("{line}");
    if outcome.fault.is_some() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
