//! Thread-invariance properties of the host execution pool.
//!
//! The pool's determinism contract: the `FastZReport` — alignments
//! (scores and edit scripts), bin counts, work counters, and the
//! modeled GPU time's exact bits — must be identical for every
//! `sim_threads` value, fault-free and under a `FaultPlan` alike. Only
//! host wall-clock may change. One case per property also runs the
//! pipeline in a static-chunking pool through `run_fastz_in_pool`: the
//! `host_throughput` bench times that pool as its baseline, and its
//! gate means nothing unless both pools compute the same report.
//!
//! CI runs this at a reduced case count via `FASTZ_PROP_CASES`.

use fastz_core::{
    run_fastz_in_pool, run_fastz_observed, FastZConfig, FastZReport, HostDispatch, HostPool,
    ResilienceConfig,
};
use fastz_genome::evolve::{generate_pair, PairParams};
use fastz_genome::{Scoring, Sequence};
use fastz_gpu_sim::{DeviceSpec, FaultPlan};
use fastz_obs::NoObs;
use fastz_seed::{Anchor, Workload, WorkloadParams};
use proptest::prelude::*;

/// Case count: default 10, overridable (CI smoke runs fewer).
fn cases() -> u32 {
    std::env::var("FASTZ_PROP_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(10)
}

fn corpus(seed: u64, segments: usize) -> (Sequence, Sequence, Vec<Anchor>, usize) {
    let pair = generate_pair(&PairParams {
        target_len: 9_000,
        query_len: 9_000,
        segments,
        ..PairParams::small_demo("inv", seed)
    });
    let wl = Workload::build(
        &pair.target,
        &pair.query,
        &WorkloadParams {
            max_anchors: 150,
            ..WorkloadParams::default()
        },
    );
    let span = wl.shape.span();
    (pair.target, pair.query, wl.anchors, span)
}

/// Everything in a report that must be invariant (host wall-clock and
/// kernel spec labels aside, the whole observable result).
#[derive(Debug, PartialEq)]
struct Fingerprint {
    alignments: Vec<fastz_align::Alignment>,
    bin_counts: fastz_core::BinCounts,
    modeled_time_bits: u64,
    eager_resolved: usize,
    executor_problems: usize,
    inspector_cells: u64,
    executor_cells: u64,
    skipped_seeds: Vec<usize>,
    overhead_bits: u64,
}

type Corpus = (Sequence, Sequence, Vec<Anchor>, usize);

fn config(threads: usize) -> FastZConfig {
    FastZConfig {
        sim_threads: threads,
        ..FastZConfig::new(Scoring::bench_scaled(), DeviceSpec::rtx3080_ampere())
    }
}

/// The fingerprint of a run on the pipeline's own (stealing) pool.
fn fingerprint(corpus: &Corpus, threads: usize, rcfg: &ResilienceConfig) -> Fingerprint {
    let (t, q, anchors, span) = corpus;
    digest(run_fastz_observed(
        t,
        q,
        anchors,
        *span,
        &config(threads),
        rcfg,
        &mut NoObs,
    ))
}

/// The fingerprint of a run on a static-chunking pool of `threads` workers.
fn static_fingerprint(corpus: &Corpus, threads: usize, rcfg: &ResilienceConfig) -> Fingerprint {
    let (t, q, anchors, span) = corpus;
    let cfg = config(threads);
    digest(std::thread::scope(|scope| {
        let pool = HostPool::new(scope, threads, &cfg.device, HostDispatch::Static, false);
        run_fastz_in_pool(t, q, anchors, *span, &cfg, rcfg, &mut NoObs, &pool)
    }))
}

fn digest(r: FastZReport) -> Fingerprint {
    Fingerprint {
        alignments: r.alignments,
        bin_counts: r.bin_counts,
        modeled_time_bits: r.modeled_time_s.to_bits(),
        eager_resolved: r.stats.eager_resolved,
        executor_problems: r.stats.executor_problems,
        inspector_cells: r.stats.inspector.total.cells,
        executor_cells: r.stats.executor.total.cells,
        skipped_seeds: r.resilience.skipped_seeds,
        overhead_bits: r.resilience.overhead_s.to_bits(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Fault-free runs: identical reports for sim_threads ∈
    /// {1, 2, 7, all-available}, and on a 3-worker static pool.
    #[test]
    fn report_is_invariant_across_sim_threads(
        seed in any::<u64>(),
        segments in 10usize..28,
    ) {
        let c = corpus(seed, segments);
        let rcfg = ResilienceConfig::disabled();
        let reference = fingerprint(&c, 1, &rcfg);
        prop_assert!(reference.bin_counts.total() > 0);
        for threads in [2usize, 7, 0] {
            let got = fingerprint(&c, threads, &rcfg);
            prop_assert_eq!(&got, &reference, "threads {} diverged", threads);
        }
        let got = static_fingerprint(&c, 3, &rcfg);
        prop_assert_eq!(&got, &reference, "static pool diverged");
    }

    /// The same invariance under an injected fault schedule: the
    /// bit-flip ladder, fallbacks, and skip-with-record decisions are
    /// keyed by problem index, never by worker.
    #[test]
    fn report_is_invariant_under_a_fault_plan(
        seed in any::<u64>(),
        plan_seed in any::<u64>(),
    ) {
        let c = corpus(seed, 16);
        let rcfg = ResilienceConfig::with_plan(FaultPlan::from_seed(plan_seed));
        let reference = fingerprint(&c, 1, &rcfg);
        for threads in [2usize, 7, 0] {
            let got = fingerprint(&c, threads, &rcfg);
            prop_assert_eq!(&got, &reference, "faulted run at threads {} diverged", threads);
        }
        let got = static_fingerprint(&c, 3, &rcfg);
        prop_assert_eq!(&got, &reference, "faulted run on a static pool diverged");
    }
}
