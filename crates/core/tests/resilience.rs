//! Resilient-dispatch integration tests: random fault schedules must
//! never change the final deduped alignment set (the
//! strip-width-invariant degradation ladder), retry backoff
//! must stay within its bounds, and checkpoint/resume must survive a
//! killed run.

use fastz_core::{
    run_fastz, run_fastz_observed, Checkpoint, FastZConfig, OptFlags, ResilienceConfig,
};
use fastz_genome::evolve::{generate_pair, PairParams};
use fastz_genome::{Scoring, Sequence};
use fastz_gpu_sim::{DeviceSpec, FaultPlan, FaultRates};
use fastz_obs::NoObs;
use fastz_seed::{Anchor, Workload, WorkloadParams};
use proptest::prelude::*;

fn workload(seed: u64) -> (Sequence, Sequence, Vec<Anchor>, usize) {
    let pair = generate_pair(&PairParams {
        target_len: 12_000,
        query_len: 12_000,
        segments: 24,
        ..PairParams::small_demo("res", seed)
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
    (pair.target, pair.query, wl.anchors, span)
}

fn config() -> FastZConfig {
    let mut cfg = FastZConfig::new(Scoring::bench_scaled(), DeviceSpec::rtx3080_ampere());
    cfg.flags = OptFlags::fastz();
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any random fault schedule (drill rates over every fault kind)
    /// must leave the deduped alignment set byte-identical to the
    /// fault-free run and account for every injected fault.
    #[test]
    fn random_fault_schedules_preserve_alignments(
        workload_seed in 200u64..204,
        fault_seed in any::<u64>(),
    ) {
        let (t, q, anchors, span) = workload(workload_seed);
        let cfg = config();
        let clean = run_fastz(&t, &q, &anchors, span, &cfg);
        let rcfg = ResilienceConfig::with_plan(FaultPlan::from_seed(fault_seed));
        let faulted = run_fastz_observed(&t, &q, &anchors, span, &cfg, &rcfg, &mut NoObs);
        prop_assert_eq!(&faulted.alignments, &clean.alignments);
        prop_assert!(faulted.resilience.accounts_for_all_faults());
        prop_assert!(faulted.resilience.skipped_seeds.is_empty());
        prop_assert!(faulted.modeled_time_s >= clean.modeled_time_s);

    }
}

#[test]
fn adversarial_plan_skips_with_record_instead_of_panicking() {
    // Bit flips on every attempt, with max_consecutive far above the
    // retry budget: every problem climbs the whole ladder
    // (warp → scalar → skip) and the run still completes, with every
    // seed recorded as skipped and zero alignments emitted.
    let (t, q, anchors, span) = workload(210);
    let cfg = config();
    let plan = FaultPlan::from_seed(5)
        .with_rates(FaultRates {
            bit_flip: 1.0,
            ..FaultRates::NONE
        })
        .with_max_consecutive(1_000);
    let rcfg = ResilienceConfig::with_plan(plan);
    let report = run_fastz_observed(&t, &q, &anchors, span, &cfg, &rcfg, &mut NoObs);
    assert!(
        report.alignments.is_empty(),
        "skipped seeds must not splice"
    );
    assert_eq!(report.resilience.skipped_seeds.len(), anchors.len());
    assert!(report.resilience.accounts_for_all_faults());
    assert!(
        report.resilience.fallbacks == 0,
        "no attempt survived to fall back"
    );
    assert!(report.resilience.retries > 0);
}

#[test]
fn fallback_rung_engages_between_retry_budget_and_max_consecutive() {
    // Flips stop after 3 consecutive attempts; the warp rung's budget is
    // 2, so every problem's first clean attempt (the 4th) lands on the
    // scalar rung — exercising the warp → scalar degradation while still
    // producing the fault-free alignment set.
    let (t, q, anchors, span) = workload(211);
    let cfg = config();
    let clean = run_fastz(&t, &q, &anchors, span, &cfg);
    let plan = FaultPlan::from_seed(6)
        .with_rates(FaultRates {
            bit_flip: 1.0,
            ..FaultRates::NONE
        })
        .with_max_consecutive(3);
    let rcfg = ResilienceConfig::with_plan(plan);
    let report = run_fastz_observed(&t, &q, &anchors, span, &cfg, &rcfg, &mut NoObs);
    assert_eq!(report.alignments, clean.alignments);
    assert_eq!(
        report.resilience.fallbacks,
        report.stats.problems as u64 + report.stats.executor_problems as u64,
        "every inspector and executor problem must degrade to the scalar rung"
    );
    assert!(report.resilience.skipped_seeds.is_empty());
    assert!(report.resilience.accounts_for_all_faults());
}

#[test]
fn checkpoint_resume_survives_a_killed_run() {
    let (t, q, anchors, span) = workload(212);
    let cfg = config();
    let clean = run_fastz(&t, &q, &anchors, span, &cfg);

    let dir = std::env::temp_dir().join("fastz-resume-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.ckpt");
    let _ = std::fs::remove_file(&path);

    // First run writes checkpoints after the inspector and each bin.
    let rcfg = ResilienceConfig {
        checkpoint: Some(path.clone()),
        ..ResilienceConfig::disabled()
    };
    let first = run_fastz_observed(&t, &q, &anchors, span, &cfg, &rcfg, &mut NoObs);
    assert_eq!(first.alignments, clean.alignments);
    assert!(first.resilience.checkpoints_written >= 2);
    assert!(!first.resilience.resumed);

    // Simulate a kill between the inspector checkpoint and the first
    // executor bin: drop every completed bin from the on-disk state.
    let mut ckpt = Checkpoint::load(&path).unwrap().unwrap();
    assert!(
        !ckpt.bins_done.is_empty(),
        "executor bins should checkpoint"
    );
    ckpt.retain_bins(0);
    ckpt.save(&path).unwrap();

    // The resumed run restores the inspector, recomputes the executor,
    // and matches the fault-free alignments.
    let resumed = run_fastz_observed(&t, &q, &anchors, span, &cfg, &rcfg, &mut NoObs);
    assert_eq!(resumed.alignments, clean.alignments);
    assert!(resumed.resilience.resumed);
    assert!(
        resumed.resilience.restored_problems >= anchors.len() as u64 * 2,
        "at least the inspector phase must restore"
    );

    // A third run restores everything and recomputes nothing.
    let third = run_fastz_observed(&t, &q, &anchors, span, &cfg, &rcfg, &mut NoObs);
    assert_eq!(third.alignments, clean.alignments);
    assert_eq!(
        third.resilience.restored_problems,
        (anchors.len() * 2 + third.stats.executor_problems) as u64
    );
    assert_eq!(third.resilience.checkpoints_written, 0);

    // A different workload must ignore the foreign checkpoint.
    let (t2, q2, anchors2, span2) = workload(213);
    let clean2 = run_fastz(&t2, &q2, &anchors2, span2, &cfg);
    let other = run_fastz_observed(&t2, &q2, &anchors2, span2, &cfg, &rcfg, &mut NoObs);
    assert_eq!(other.alignments, clean2.alignments);
    assert!(!other.resilience.resumed);
    assert_eq!(other.resilience.restored_problems, 0);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn checkpoint_cannot_resume_across_index_versions() {
    // A checkpoint written while seeding from persistent index version A
    // must be rejected (not silently restored) when the run resumes with
    // anchors from index version B — and an in-memory run (fingerprint
    // 0) keeps its historical checkpoint identity.
    let (t, q, anchors, span) = workload(215);
    let cfg = config();
    let clean = run_fastz(&t, &q, &anchors, span, &cfg);

    let dir = std::env::temp_dir().join("fastz-index-fp-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("run.ckpt");
    let _ = std::fs::remove_file(&path);
    let rcfg = ResilienceConfig {
        checkpoint: Some(path.clone()),
        ..ResilienceConfig::disabled()
    };

    let cfg_a = FastZConfig {
        index_fingerprint: 0xA11CE,
        ..cfg.clone()
    };
    let first = run_fastz_observed(&t, &q, &anchors, span, &cfg_a, &rcfg, &mut NoObs);
    assert_eq!(first.alignments, clean.alignments);
    assert!(first.resilience.checkpoints_written >= 2);

    // Same workload, same index version: restores.
    let same = run_fastz_observed(&t, &q, &anchors, span, &cfg_a, &rcfg, &mut NoObs);
    assert!(same.resilience.resumed);

    // Same workload, different index version: rejected with a recorded
    // reason, recomputed from scratch, identical results.
    let cfg_b = FastZConfig {
        index_fingerprint: 0xB0B,
        ..cfg.clone()
    };
    let crossed = run_fastz_observed(&t, &q, &anchors, span, &cfg_b, &rcfg, &mut NoObs);
    assert!(!crossed.resilience.resumed);
    assert_eq!(crossed.resilience.restored_problems, 0);
    assert!(
        crossed
            .resilience
            .checkpoints_rejected
            .iter()
            .any(|r| r.contains("does not match")),
        "rejection reason recorded: {:?}",
        crossed.resilience.checkpoints_rejected
    );
    assert_eq!(crossed.alignments, clean.alignments);

    // In-memory seeding (fingerprint 0) has its own identity, distinct
    // from both indexed runs.
    let in_mem = run_fastz_observed(&t, &q, &anchors, span, &cfg, &rcfg, &mut NoObs);
    assert!(!in_mem.resilience.resumed);
    assert_eq!(in_mem.alignments, clean.alignments);

    let _ = std::fs::remove_file(&path);
}

#[test]
fn fault_free_resilient_run_is_bit_identical_to_plain_run() {
    let (t, q, anchors, span) = workload(214);
    let cfg = config();
    let plain = run_fastz(&t, &q, &anchors, span, &cfg);
    let resilient = run_fastz_observed(
        &t,
        &q,
        &anchors,
        span,
        &cfg,
        &ResilienceConfig::disabled(),
        &mut NoObs,
    );
    assert_eq!(plain.alignments, resilient.alignments);
    assert_eq!(plain.modeled_time_s, resilient.modeled_time_s);
    assert_eq!(plain.timeline.entries().len(), 3, "no resilience phase");
    assert_eq!(resilient.resilience.injected.total(), 0);
}
