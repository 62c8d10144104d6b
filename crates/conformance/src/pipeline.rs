//! Full-pipeline conformance: runs `run_fastz` on small synthetic
//! workloads and checks the report's internal accounting plus every
//! emitted alignment against an independent rescoring. The resilience
//! drill ([`check_pipeline_resilient`]) re-runs the same workload under
//! a seeded fault plan and demands the exact fault-free alignment set
//! plus complete fault accounting.

use fastz_core::{run_fastz, run_fastz_observed, FastZConfig, OptFlags, ResilienceConfig};
use fastz_genome::evolve::{default_classes, generate_pair, PairParams};
use fastz_genome::Scoring;
use fastz_gpu_sim::{DeviceSpec, FaultPlan};
use fastz_obs::{NoObs, Recorder};
use fastz_seed::{Anchor, Workload, WorkloadParams};

use crate::corpus::Category;
use crate::report::Divergence;

fn diverge(seed: u64, invariant: &'static str, message: String) -> Divergence {
    Divergence {
        category: Category::CleanHomology,
        seed,
        invariant,
        engines: "pipeline (run_fastz)",
        message,
        first_divergent_cell: None,
    }
}

fn diverge_resilient(seed: u64, message: String) -> Divergence {
    Divergence {
        category: Category::CleanHomology,
        seed,
        invariant: "pipeline-resilience",
        engines: "pipeline (run_fastz_observed)",
        message,
        first_divergent_cell: None,
    }
}

/// Runs one pipeline workload seeded by `seed`; returns
/// `(checks_evaluated, divergences)`.
pub fn check_pipeline(seed: u64, scoring: &Scoring) -> (usize, Vec<Divergence>) {
    // A scaled-down demo pair: big enough to fill several bins, small
    // enough that the suite's pipeline stage stays fast in debug builds.
    let pair = generate_pair(&PairParams {
        label: "conformance".to_string(),
        target_len: 30_000,
        query_len: 30_000,
        segments: 60,
        classes: default_classes(),
        gc: 0.42,
        rng_seed: seed,
    });
    let wl = Workload::build(
        &pair.target,
        &pair.query,
        &WorkloadParams {
            max_anchors: 400,
            ..WorkloadParams::default()
        },
    );
    let mut cfg = FastZConfig::new(scoring.clone(), DeviceSpec::rtx3080_ampere());
    cfg.flags = OptFlags::fastz();
    cfg.sim_threads = 1;
    let report = run_fastz(
        &pair.target,
        &pair.query,
        &wl.anchors,
        wl.shape.span(),
        &cfg,
    );

    let mut out = Vec::new();
    let mut checks = 0;

    // Accounting: every seed spawns two one-sided problems, and every
    // problem is resolved either eagerly or by the executor.
    checks += 1;
    let s = &report.stats;
    if s.problems != 2 * s.seeds {
        out.push(diverge(
            seed,
            "pipeline-accounting",
            format!(
                "{} problems for {} seeds (expected 2 per seed)",
                s.problems, s.seeds
            ),
        ));
    }
    checks += 1;
    if s.eager_resolved + s.executor_problems != s.problems {
        out.push(diverge(
            seed,
            "pipeline-accounting",
            format!(
                "eager ({}) + executor ({}) != problems ({})",
                s.eager_resolved, s.executor_problems, s.problems
            ),
        ));
    }
    checks += 1;
    // The Table 2 classification is per seed (one extent per anchor,
    // the max over its two one-sided problems), not per problem.
    if report.bin_counts.total() != s.seeds {
        out.push(diverge(
            seed,
            "pipeline-accounting",
            format!(
                "bin counts total {} != seeds {}",
                report.bin_counts.total(),
                s.seeds
            ),
        ));
    }

    // Every alignment must be geometrically consistent and rescore to
    // its reported score.
    checks += 1;
    for aln in &report.alignments {
        if !aln.is_consistent(&pair.target, &pair.query) {
            out.push(diverge(
                seed,
                "pipeline-alignment",
                format!(
                    "inconsistent alignment at t = {}, q = {}",
                    aln.target_start, aln.query_start
                ),
            ));
            continue;
        }
        let rescored = aln.rescore(&pair.target, &pair.query, scoring);
        if rescored != aln.score {
            out.push(diverge(
                seed,
                "pipeline-alignment",
                format!(
                    "alignment at t = {}, q = {} reports score {} but rescores to {}",
                    aln.target_start, aln.query_start, aln.score, rescored
                ),
            ));
        }
        if aln.score < scoring.gapped_threshold {
            out.push(diverge(
                seed,
                "pipeline-alignment",
                format!(
                    "alignment at t = {}, q = {} scores {} below the gapped threshold {}",
                    aln.target_start, aln.query_start, aln.score, scoring.gapped_threshold
                ),
            ));
        }
    }

    (checks, out)
}

fn diverge_metrics(seed: u64, message: String) -> Divergence {
    Divergence {
        category: Category::CleanHomology,
        seed,
        invariant: "pipeline-metrics",
        engines: "pipeline warp (width 32) vs scalar (width 1)",
        message,
        first_divergent_cell: None,
    }
}

/// Metrics engine-invariance drill: the observed pipeline at strip
/// width 32 (warp) and strip width 1 (scalar) must emit identical
/// *semantic* metrics — seeds, problems, eager hits, bin counts,
/// alignments, the seed-extent histogram — while the per-phase work
/// counters (steps, ALU ops, …, the `{phase="…"}`-labeled series) are
/// expected to differ, since strip mining changes how much machine work
/// produces the same answer. Returns the warp run's recorder so the CLI
/// can export it (`--metrics-out`).
pub fn check_pipeline_metrics(seed: u64, scoring: &Scoring) -> (usize, Vec<Divergence>, Recorder) {
    // Smaller than the main pipeline workload: this drill runs the
    // whole pipeline twice (once per engine width).
    let pair = generate_pair(&PairParams {
        label: "metrics-drill".to_string(),
        target_len: 20_000,
        query_len: 20_000,
        segments: 40,
        classes: default_classes(),
        gc: 0.42,
        rng_seed: seed,
    });
    let wl = Workload::build(
        &pair.target,
        &pair.query,
        &WorkloadParams {
            max_anchors: 200,
            ..WorkloadParams::default()
        },
    );
    let span = wl.shape.span();
    let mut cfg = FastZConfig::new(scoring.clone(), DeviceSpec::rtx3080_ampere());
    cfg.flags = OptFlags::fastz();
    cfg.sim_threads = 1;
    let rcfg = ResilienceConfig::disabled();

    let mut warp_rec = Recorder::new();
    let warp = run_fastz_observed(
        &pair.target,
        &pair.query,
        &wl.anchors,
        span,
        &cfg,
        &rcfg,
        &mut warp_rec,
    );
    cfg.strip_width = 1;
    let mut scalar_rec = Recorder::new();
    let scalar = run_fastz_observed(
        &pair.target,
        &pair.query,
        &wl.anchors,
        span,
        &cfg,
        &rcfg,
        &mut scalar_rec,
    );

    let mut out = Vec::new();
    let mut checks = 0;

    checks += 1;
    if warp.alignments != scalar.alignments {
        out.push(diverge_metrics(
            seed,
            format!(
                "strip-width invariance broken: warp emitted {} alignments, scalar {}",
                warp.alignments.len(),
                scalar.alignments.len()
            ),
        ));
    }

    // Semantic counters: everything except the `{phase="…"}`-labeled
    // work series (those measure machine effort, which legitimately
    // depends on the strip width).
    let semantic = |rec: &Recorder| -> Vec<(String, u64)> {
        rec.registry
            .counters()
            .into_iter()
            .filter(|(name, _)| !name.contains("{phase="))
            .collect()
    };
    checks += 1;
    let warp_sem = semantic(&warp_rec);
    let scalar_sem = semantic(&scalar_rec);
    if warp_sem != scalar_sem {
        let diff: Vec<String> = warp_sem
            .iter()
            .zip(scalar_sem.iter())
            .filter(|(a, b)| a != b)
            .map(|((n, w), (_, s))| format!("{n}: warp {w} vs scalar {s}"))
            .collect();
        out.push(diverge_metrics(
            seed,
            format!(
                "semantic counters differ across engines: {}",
                diff.join("; ")
            ),
        ));
    }
    checks += 1;
    let extent_hist = fastz_obs::names::SEED_EXTENT_HIST;
    if warp_rec.registry.histogram(extent_hist) != scalar_rec.registry.histogram(extent_hist) {
        out.push(diverge_metrics(
            seed,
            "seed-extent histograms differ across engines".to_string(),
        ));
    }
    // Sanity on the drill itself: the work counters MUST differ, or the
    // scalar run silently used the warp engine and the invariance
    // comparison above proved nothing.
    checks += 1;
    let work = |rec: &Recorder| -> Vec<(String, u64)> {
        rec.registry
            .counters()
            .into_iter()
            .filter(|(name, _)| name.contains("{phase="))
            .collect()
    };
    if work(&warp_rec) == work(&scalar_rec) {
        out.push(diverge_metrics(
            seed,
            "work counters identical across strip widths — drill is vacuous".to_string(),
        ));
    }

    (checks, out, warp_rec)
}

/// Fault-injection drill (the CLI's `--fault-seed`): the resilient
/// pipeline under a seeded fault plan — hangs, bit flips, stalls and
/// shared-memory pressure over every bin class — must complete without
/// panicking, emit a deduped alignment set byte-identical to the
/// fault-free run, and account for every injected fault
/// (`injected == detected + tolerated`).
pub fn check_pipeline_resilient(
    seed: u64,
    fault_seed: u64,
    scoring: &Scoring,
) -> (usize, Vec<Divergence>) {
    let pair = generate_pair(&PairParams {
        label: "resilience-drill".to_string(),
        target_len: 30_000,
        query_len: 30_000,
        segments: 60,
        classes: default_classes(),
        gc: 0.42,
        rng_seed: seed,
    });
    let wl = Workload::build(
        &pair.target,
        &pair.query,
        &WorkloadParams {
            max_anchors: 400,
            ..WorkloadParams::default()
        },
    );
    let anchors: &[Anchor] = &wl.anchors;
    let span = wl.shape.span();
    let mut cfg = FastZConfig::new(scoring.clone(), DeviceSpec::rtx3080_ampere());
    cfg.flags = OptFlags::fastz();
    cfg.sim_threads = 1;

    let clean = run_fastz(&pair.target, &pair.query, anchors, span, &cfg);
    let rcfg = ResilienceConfig::with_plan(FaultPlan::from_seed(fault_seed));
    let faulted = run_fastz_observed(
        &pair.target,
        &pair.query,
        anchors,
        span,
        &cfg,
        &rcfg,
        &mut NoObs,
    );

    let mut out = Vec::new();
    let mut checks = 0;

    checks += 1;
    if faulted.alignments != clean.alignments {
        out.push(diverge_resilient(
            seed,
            format!(
                "faulted run produced {} alignments, fault-free {} (sets differ)",
                faulted.alignments.len(),
                clean.alignments.len()
            ),
        ));
    }
    checks += 1;
    let r = &faulted.resilience;
    if !r.accounts_for_all_faults() {
        out.push(diverge_resilient(
            seed,
            format!(
                "fault accounting broken: injected {} != detected {} + tolerated {}",
                r.injected.total(),
                r.detected.total(),
                r.tolerated.total()
            ),
        ));
    }
    checks += 1;
    if r.injected.total() == 0 {
        out.push(diverge_resilient(
            seed,
            "drill injected no faults (plan or workload too small)".to_string(),
        ));
    }
    checks += 1;
    if r.overhead_s <= 0.0 || faulted.modeled_time_s <= clean.modeled_time_s {
        out.push(diverge_resilient(
            seed,
            format!(
                "fault recovery charged no modeled time (overhead {} s)",
                r.overhead_s
            ),
        ));
    }
    checks += 1;
    if !r.skipped_seeds.is_empty() {
        // The drill plan's max_consecutive is below the retry budget, so
        // every problem must converge without being skipped.
        out.push(diverge_resilient(
            seed,
            format!(
                "{} seeds skipped under a convergent plan",
                r.skipped_seeds.len()
            ),
        ));
    }

    (checks, out)
}
