//! `conformance` — fuzz the four FastZ engines against each other and
//! the dense DP oracle, emitting a JSON divergence report.
//!
//! ```text
//! conformance [--pairs N] [--seed S] [--out FILE] [--max-extent E]
//!             [--corrupt DELTA] [--fault-seed S] [--sanitize]
//!             [--engine interpreter|simd|bitvector]
//!             [--replay CATEGORY:SEED]
//! ```
//!
//! Exit status: 0 when every invariant held, 1 when any divergence was
//! found, 2 on usage errors.

use std::process::ExitCode;

use fastz_conformance::{replay, report, run_suite, Category, SuiteConfig};
use fastz_core::WavefrontBackend;

struct Args {
    config: SuiteConfig,
    out: Option<String>,
    metrics_out: Option<String>,
    replay: Option<(Category, u64)>,
    serve: bool,
    index: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: conformance [--pairs N] [--seed S] [--out FILE] [--max-extent E]\n\
         \x20                  [--corrupt DELTA] [--fault-seed S] [--metrics-out FILE]\n\
         \x20                  [--sanitize] [--serve] [--index persist]\n\
         \x20                  [--engine interpreter|simd|bitvector]\n\
         \x20                  [--replay CATEGORY:SEED]\n\
         \n\
         Fuzzes N reproducible pairs through the scalar exact, scalar\n\
         conservative, warp, and pipeline engines, checks the paper's\n\
         invariants cell-for-cell against a dense DP oracle, and writes a\n\
         JSON divergence report (first divergent cell, engine pair, replay\n\
         seed). --corrupt adds DELTA to the warp engine's match score to\n\
         demonstrate the report end to end. --fault-seed drills the\n\
         resilient pipeline under a seeded fault plan (hangs, bit flips,\n\
         stalls, shmem pressure) and demands fault-free\n\
         results with complete fault accounting. --metrics-out re-runs\n\
         the metrics engine-invariance drill (warp vs scalar strip\n\
         widths, identical semantic counters) and writes the warp run's\n\
         observability report as JSON. --sanitize drills every corpus\n\
         family through the warp engine on a shadow-sanitizer-attached\n\
         arena (initcheck, racecheck, bank conflicts, warp lints) plus a\n\
         sanitized pipeline workload, all of which must report zero\n\
         findings. --serve drills the alignment service: every request's\n\
         alignments and modeled-GPU-time bits must be identical served\n\
         solo or co-batched, the deduped union of a split workload must\n\
         equal the direct pipeline run, and seeded service chaos must\n\
         change nothing observable while accounting for every fault.\n\
         --index persist drills the persistent sharded seed index on\n\
         every corpus family: a save → validate → load round trip must\n\
         reproduce the in-memory index's anchors exactly, and the\n\
         pipeline over the persisted workload must match alignments,\n\
         bin counts, and modeled-GPU-time bits across sim-thread and\n\
         dispatch settings.\n\
         --engine picks the warp engine's wavefront backend\n\
         (simd, the default, or the interpreter oracle) for the whole\n\
         suite; every invariant must hold identically on either. --engine bitvector instead turns on\n\
         the cross-algorithm drill: the GenASM/Scrooge-style bitvector\n\
         backend against the dense edit-distance oracle and the affine\n\
         y-drop oracle on every corpus case — exact score agreement on\n\
         the unit-cost overlap domain, documented inequalities\n\
         elsewhere. --replay re-runs one case by its reported category\n\
         and seed."
    );
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        config: SuiteConfig::default(),
        out: None,
        metrics_out: None,
        replay: None,
        serve: false,
        index: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("missing value for {name}");
                usage();
            })
        };
        match flag.as_str() {
            "--pairs" => args.config.pairs = value("--pairs").parse().unwrap_or_else(|_| usage()),
            "--seed" => args.config.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--out" => args.out = Some(value("--out")),
            "--metrics-out" => args.metrics_out = Some(value("--metrics-out")),
            "--max-extent" => {
                args.config.max_extent = value("--max-extent").parse().unwrap_or_else(|_| usage())
            }
            "--corrupt" => {
                args.config.corrupt_warp_match =
                    value("--corrupt").parse().unwrap_or_else(|_| usage())
            }
            "--fault-seed" => {
                args.config.fault_seed =
                    Some(value("--fault-seed").parse().unwrap_or_else(|_| usage()))
            }
            "--sanitize" => args.config.sanitize = true,
            "--serve" => args.serve = true,
            "--index" => match value("--index").as_str() {
                "persist" => args.index = true,
                other => {
                    eprintln!("unknown index drill {other} (want persist)");
                    usage();
                }
            },
            "--engine" => match value("--engine").as_str() {
                "interpreter" => args.config.backend = WavefrontBackend::Interpreter,
                "simd" => args.config.backend = WavefrontBackend::Simd,
                "bitvector" => args.config.bitvector = true,
                other => {
                    eprintln!("unknown engine {other} (want interpreter, simd, or bitvector)");
                    usage();
                }
            },
            "--replay" => {
                let spec = value("--replay");
                let Some((cat, seed)) = spec.split_once(':') else {
                    eprintln!("--replay wants CATEGORY:SEED, got {spec}");
                    usage();
                };
                let Some(category) = Category::from_name(cat) else {
                    eprintln!("unknown category {cat}");
                    usage();
                };
                let seed = seed.parse().unwrap_or_else(|_| usage());
                args.replay = Some((category, seed));
            }
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage();
            }
        }
    }
    args
}

fn main() -> ExitCode {
    let args = parse_args();

    if let Some((category, seed)) = args.replay {
        let (case, checks, divergences) = replay(category, seed);
        println!(
            "replay {}:{} — target {} bp, query {} bp, {} checks",
            category.name(),
            seed,
            case.target.len(),
            case.query.len(),
            checks
        );
        for d in &divergences {
            println!(
                "  DIVERGENCE [{}] {}: {}{}",
                d.invariant,
                d.engines,
                d.message,
                d.first_divergent_cell
                    .map(|c| format!(" (first divergent cell ({}, {}))", c.i, c.j))
                    .unwrap_or_default()
            );
        }
        return if divergences.is_empty() {
            println!("  clean");
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let mut suite = run_suite(&args.config);

    if args.serve {
        let (checks, divergences) = fastz_conformance::serve::check_serve(
            args.config.seed,
            &fastz_conformance::suite_scoring(),
        );
        eprintln!(
            "serve drill: {} checks, {} divergences",
            checks,
            divergences.len()
        );
        suite.checks += checks;
        suite.divergences.extend(divergences);
    }

    if args.index {
        let (checks, divergences) = fastz_conformance::check_index_persist(
            args.config.seed,
            &fastz_conformance::suite_scoring(),
        );
        eprintln!(
            "index drill: {} checks, {} divergences",
            checks,
            divergences.len()
        );
        suite.checks += checks;
        suite.divergences.extend(divergences);
    }

    if let Some(path) = &args.metrics_out {
        let (_, divergences, recorder) = fastz_conformance::pipeline::check_pipeline_metrics(
            args.config.seed,
            &fastz_conformance::suite_scoring(),
        );
        if !divergences.is_empty() {
            eprintln!(
                "metrics drill diverged ({} divergences); report written anyway",
                divergences.len()
            );
        }
        let json = fastz_obs::export::json_report(&recorder);
        if let Err(e) = std::fs::write(path, &json) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
        println!("metrics report written to {path}");
    }

    let json = report::to_json(&suite);
    match &args.out {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(2);
            }
            println!("report written to {path}");
        }
        None => print!("{json}"),
    }
    eprintln!(
        "{} cases, {} checks, {} divergences",
        suite.cases,
        suite.checks,
        suite.divergences.len()
    );
    for d in suite.divergences.iter().take(10) {
        eprintln!(
            "  [{}] {} ({}:{}): {}",
            d.invariant,
            d.engines,
            d.category.name(),
            d.seed,
            d.message
        );
    }
    if suite.is_clean() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
