//! The untraced run: repeats the workload's operation for the requested
//! time and reports the end-to-end metrics.

use crate::args::Options;
use crate::check;
use crate::heap;
use crate::probe;
use crate::report::Outcome;
use crate::run::{self, Job, Pass};
use crate::stats::{median, quartiles};
use crate::workload::{Inputs, Spec};
use fastz_align::{dedupe_alignments, Alignment};
use fastz_core::{run_fastz, FastZConfig};
use fastz_seed::{Anchor, SeedIndex, Workload, WorkloadParams};
use std::time::Instant;

/// Operations measured even when one takes longer than the run time.
const MIN_OPS: usize = 3;
/// Set-up seconds timed back to back after each operation. One set-up
/// takes milliseconds, too little for one sample to mean much.
const SETUP_BURST_S: f64 = 0.1;

/// Calls `op` until `seconds` have passed and at least `min` calls ran.
pub(crate) fn repeat<T>(
    seconds: f64,
    min: usize,
    mut op: impl FnMut() -> Result<T, String>,
) -> Result<Vec<T>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    while out.len() < min || start.elapsed().as_secs_f64() < seconds {
        out.push(op()?);
    }
    Ok(out)
}

/// One measured operation and the set-ups timed after it, each scaled
/// to the reference host speed (see [`probe`]).
struct Cycle {
    /// Wall seconds of the operation, over the mean of the probes just
    /// before and after it (all threads), times [`probe::REFERENCE_S`].
    wall_s: f64,
    /// Peak live heap bytes during the operation, counted from the live
    /// bytes at its start.
    peak_bytes: usize,
    /// Median seconds of the set-ups in the burst, over the mean of the
    /// probe copies that ran on their thread just before and after it,
    /// times [`probe::REFERENCE_S`].
    setup_s: f64,
}

/// Repeats cycles for `seconds` (at least `min`): the operation `op`
/// (which returns its wall seconds), the probe, set-ups for `burst_s`
/// (at least one), and the probe again, which also opens the next cycle.
fn cycles(
    seconds: f64,
    min: usize,
    burst_s: f64,
    mut op: impl FnMut() -> Result<f64, String>,
    setup: impl Fn() -> Result<f64, String>,
) -> Result<Vec<Cycle>, String> {
    let scale =
        |secs: f64, before: f64, after: f64| secs / (before + after) * 2.0 * probe::REFERENCE_S;
    let mut open = probe::run();
    repeat(seconds, min, || {
        heap::reset_peak();
        let wall_s = op()?;
        let peak_bytes = heap::peak_bytes();
        let mid = probe::run();
        let burst = repeat(burst_s, 1, &setup)?;
        let close = probe::run();
        let setup_s = median(&burst).expect("at least one set-up");
        eprintln!(
            "benchmark: operation {wall_s:.6} s, median of {} set-ups {setup_s:.6} s, \
             probes {:.6} / {:.6} / {:.6} s, heap peak {:.3} MiB",
            burst.len(),
            open.all_s,
            mid.all_s,
            close.all_s,
            peak_bytes as f64 / heap::MIB
        );
        let cycle = Cycle {
            wall_s: scale(wall_s, open.all_s, mid.all_s),
            peak_bytes,
            setup_s: scale(setup_s, mid.this_thread_s, close.this_thread_s),
        };
        open = close;
        Ok(cycle)
    })
}

/// Checks one batch job's output and counts its seeds.
fn check_job(job: &Job, spec: &Spec, cfg: &FastZConfig, outcome: &mut Outcome) {
    let report = &job.report;
    let (bad, first) = check::alignments(
        &report.alignments,
        &job.target,
        &job.query,
        &cfg.scoring,
        spec.backend,
    );
    if let Some(msg) = first {
        outcome.fault(msg);
    }
    outcome.attempted += report.stats.seeds as u64;
    outcome.failed += (report.resilience.skipped_seeds.len() + bad) as u64;
}

/// Runs the workload for `opts.seconds` and returns its end-to-end
/// metrics.
///
/// `wall_s` and `setup_s` are medians over the run's cycles of the
/// operation's time and of the set-up time, each scaled to the reference
/// host speed (see [`Cycle`]); `peak_heap_mib` is the mean of the
/// operations' heap peaks.
pub fn end_to_end(opts: &Options) -> Result<Outcome, String> {
    let spec = opts.workload;
    let cfg = spec.config();
    let params = WorkloadParams::default();
    let inputs = Inputs::write(spec, opts.smoke, opts.seed)?;
    let (min, burst_s) = if opts.smoke {
        (1, 0.0)
    } else {
        (MIN_OPS, SETUP_BURST_S)
    };
    let setup = || run::setup_s(spec.serve, &inputs, &cfg, &params);
    let mut outcome = Outcome::default();
    let measured = if spec.serve {
        let reference = serve_reference(&inputs, &cfg, &params)?;
        let warm = run::pass(&inputs, &cfg, &params)?;
        let modeled = check_pass(&warm, &reference, &cfg, spec, &mut outcome);
        drop(warm);
        let pass = || {
            let pass = run::pass(&inputs, &cfg, &params)?;
            let again = check_pass(&pass, &reference, &cfg, spec, &mut outcome);
            if again.to_bits() != modeled.to_bits() {
                outcome.fault("a repeated pass produced a different modeled time");
            }
            Ok(pass.wall_s)
        };
        cycles(opts.seconds, min, burst_s, pass, setup)?
    } else {
        // The first job warms caches and the allocator; it is checked
        // but not timed, and every timed job must reproduce its output.
        let warm = run::job(&inputs, &cfg, &params)?;
        check_job(&warm, spec, &cfg, &mut outcome);
        let modeled = warm.report.modeled_time_s.to_bits();
        let expect = warm.report.alignments;
        let job = || {
            let job = run::job(&inputs, &cfg, &params)?;
            check_job(&job, spec, &cfg, &mut outcome);
            if job.report.alignments != expect || job.report.modeled_time_s.to_bits() != modeled {
                outcome.fault("a repeated job produced different output");
            }
            Ok(job.wall_s)
        };
        cycles(opts.seconds, min, burst_s, job, setup)?
    };
    let wall: Vec<f64> = measured.iter().map(|c| c.wall_s).collect();
    let setup: Vec<f64> = measured.iter().map(|c| c.setup_s).collect();
    if let Some([q1, q2, q3]) = quartiles(&wall) {
        eprintln!(
            "benchmark: {} operations, scaled wall quartiles {q1:.4} / {q2:.4} / {q3:.4} s",
            wall.len()
        );
    }
    let peak: Vec<f64> = measured
        .iter()
        .map(|c| c.peak_bytes as f64 / heap::MIB)
        .collect();
    let some = "at least one operation";
    outcome.set("wall_s", median(&wall).expect(some));
    outcome.set("setup_s", median(&setup).expect(some));
    outcome.set(
        "peak_heap_mib",
        peak.iter().sum::<f64>() / peak.len() as f64,
    );
    Ok(outcome)
}

/// What every service pass must reproduce.
pub(crate) struct ServeReference {
    /// The anchors seeded through an in-memory index.
    pub anchors: Vec<Anchor>,
    /// The direct `run_fastz` output over those anchors, deduped.
    pub alignments: Vec<Alignment>,
}

/// Untimed preparation of the service workload: persists the seed
/// index the passes load warm, and computes the reference output.
pub(crate) fn serve_reference(
    inputs: &Inputs,
    cfg: &FastZConfig,
    params: &WorkloadParams,
) -> Result<ServeReference, String> {
    let (target, query) = run::ingest(inputs)?;
    run::persist_index(inputs, &target, params)?;
    let index = SeedIndex::try_build(&target, params.shape.clone())
        .map_err(|e| format!("seed index: {e}"))?;
    let workload = Workload::build_with_index(&index, &query, params);
    let direct = run_fastz(
        &target,
        &query,
        &workload.anchors,
        workload.shape.span(),
        cfg,
    );
    Ok(ServeReference {
        anchors: workload.anchors,
        alignments: dedupe_alignments(direct.alignments),
    })
}

/// Checks one service pass against the reference; returns its modeled
/// GPU seconds (the sum over requests).
pub(crate) fn check_pass(
    pass: &Pass,
    reference: &ServeReference,
    cfg: &FastZConfig,
    spec: &Spec,
    outcome: &mut Outcome,
) -> f64 {
    if pass.anchors != reference.anchors {
        outcome.fault("anchors from the loaded index differ from the in-memory anchors");
    }
    let union: Vec<Alignment> = pass
        .served
        .iter()
        .flat_map(|s| s.alignments.iter().cloned())
        .collect();
    let union = dedupe_alignments(union);
    if union != reference.alignments {
        outcome.fault(format!(
            "the {} served alignments differ from the {} of the direct run",
            union.len(),
            reference.alignments.len(),
        ));
    }
    let (bad, first) = check::alignments(
        &union,
        &pass.target,
        &pass.query,
        &cfg.scoring,
        spec.backend,
    );
    if let Some(msg) = first {
        outcome.fault(msg);
    }
    outcome.attempted += pass.served.len() as u64;
    outcome.failed += pass
        .served
        .iter()
        .filter(|s| matches!(s.record.outcome.class(), "shed-error" | "deadline-error"))
        .count() as u64
        + bad as u64;
    pass.served.iter().map(|s| s.record.modeled_time_s).sum()
}
