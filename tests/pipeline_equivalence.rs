//! Cross-crate integration: the FastZ pipeline against the sequential
//! LASTZ reference on catalog workloads — the paper's drop-in-replacement
//! guarantee ("identical (or occasionally longer) alignments", §3.4).

use fastz::align::{sequential_gapped, DriverConfig};
use fastz::core::{run_fastz, FastZConfig, OptFlags, WavefrontBackend};
use fastz::genome::{evolve::generate_pair, find_pair, Scale, Scoring};
use fastz::gpu_sim::DeviceSpec;
use fastz::seed::{Workload, WorkloadParams};

struct Setup {
    target: fastz::genome::Sequence,
    query: fastz::genome::Sequence,
    anchors: Vec<fastz::seed::Anchor>,
    span: usize,
}

fn setup(label: &str, max_anchors: usize) -> Setup {
    let entry = find_pair(label).expect("catalog pair");
    let pair = generate_pair(&entry.pair_params(Scale::TEST));
    let wl = Workload::build(
        &pair.target,
        &pair.query,
        &WorkloadParams {
            max_anchors,
            ..WorkloadParams::default()
        },
    );
    Setup {
        target: pair.target,
        query: pair.query,
        span: wl.shape.span(),
        anchors: wl.anchors,
    }
}

#[test]
fn fastz_covers_every_sequential_alignment() {
    let s = setup("C1_3,3", 500);
    let scoring = Scoring::bench_scaled();
    let seq = sequential_gapped(
        &s.target,
        &s.query,
        &s.anchors,
        s.span,
        &DriverConfig {
            work_reduction: false,
            ..DriverConfig::gapped(scoring.clone())
        },
    );
    let fz = run_fastz(
        &s.target,
        &s.query,
        &s.anchors,
        s.span,
        &FastZConfig::new(scoring.clone(), DeviceSpec::rtx3080_ampere()),
    );
    assert!(!seq.alignments.is_empty(), "reference found nothing");
    for a in &seq.alignments {
        let covered = fz.alignments.iter().any(|f| {
            f.target_start <= a.target_start
                && f.target_end >= a.target_end
                && f.query_start <= a.query_start
                && f.query_end >= a.query_end
                && f.score >= a.score
        });
        assert!(covered, "FastZ lost sequential alignment {a}");
    }
    // Identical in the overwhelming majority of cases.
    let identical = seq
        .alignments
        .iter()
        .filter(|a| fz.alignments.contains(a))
        .count();
    assert!(
        identical * 10 >= seq.alignments.len() * 9,
        "only {identical}/{} identical",
        seq.alignments.len()
    );
}

#[test]
fn fastz_alignments_are_valid_and_rescore() {
    let s = setup("A1_X,X", 400);
    let scoring = Scoring::bench_scaled();
    let fz = run_fastz(
        &s.target,
        &s.query,
        &s.anchors,
        s.span,
        &FastZConfig::new(scoring.clone(), DeviceSpec::qv100_volta()),
    );
    assert!(!fz.alignments.is_empty());
    for a in &fz.alignments {
        assert!(a.is_consistent(&s.target, &s.query), "{a}");
        assert_eq!(a.rescore(&s.target, &s.query, &scoring), a.score, "{a}");
        assert!(a.score >= scoring.gapped_threshold);
    }
}

#[test]
fn bin_counts_partition_the_seed_set() {
    let s = setup("C1_4,4", 400);
    let fz = run_fastz(
        &s.target,
        &s.query,
        &s.anchors,
        s.span,
        &FastZConfig::new(Scoring::bench_scaled(), DeviceSpec::rtx3080_ampere()),
    );
    assert_eq!(fz.bin_counts.total(), s.anchors.len());
    assert_eq!(
        fz.stats.eager_resolved + fz.stats.executor_problems,
        fz.stats.problems
    );
    assert_eq!(fz.stats.problems, 2 * s.anchors.len());
}

#[test]
fn cross_genus_pair_has_no_large_bins() {
    let s = setup("CD_1,2R", 400);
    let fz = run_fastz(
        &s.target,
        &s.query,
        &s.anchors,
        s.span,
        &FastZConfig::new(Scoring::bench_scaled(), DeviceSpec::rtx3080_ampere()),
    );
    assert_eq!(fz.bin_counts.bins[2], 0, "cross-genus bin3 not empty");
    assert_eq!(fz.bin_counts.bins[3], 0, "cross-genus bin4 not empty");
    assert!(fz.bin_counts.eager_fraction() > 0.5);
}

#[test]
fn ablation_configurations_preserve_results_and_order_timing() {
    let s = setup("D1_2R,2", 300);
    let scoring = Scoring::bench_scaled();
    let mut times = Vec::new();
    let mut reference: Option<Vec<fastz::align::Alignment>> = None;
    for (label, flags) in OptFlags::figure9_progression() {
        let fz = run_fastz(
            &s.target,
            &s.query,
            &s.anchors,
            s.span,
            &FastZConfig {
                flags,
                ..FastZConfig::new(scoring.clone(), DeviceSpec::rtx3080_ampere())
            },
        );
        times.push((label, fz.modeled_time_s));
        match &reference {
            None => reference = Some(fz.alignments),
            Some(r) => assert_eq!(r, &fz.alignments, "{label} changed alignments"),
        }
    }
    // Full FastZ (index 3) must beat the base configuration (index 0).
    assert!(
        times[3].1 < times[0].1,
        "FastZ {:?} not faster than base {:?}",
        times[3],
        times[0]
    );
}

#[test]
fn retime_is_consistent_with_the_run_device() {
    let s = setup("A2_X,X", 300);
    let cfg = FastZConfig::new(Scoring::bench_scaled(), DeviceSpec::rtx3080_ampere());
    let fz = run_fastz(&s.target, &s.query, &s.anchors, s.span, &cfg);
    let retimed = fz.retime(&DeviceSpec::rtx3080_ampere(), cfg.flags.streams);
    assert!(
        (retimed.total() - fz.modeled_time_s).abs() < 1e-12,
        "retime on the same device diverged: {} vs {}",
        retimed.total(),
        fz.modeled_time_s
    );
    // A slower device must not be faster.
    let pascal = fz.retime(&DeviceSpec::titan_x_pascal(), cfg.flags.streams);
    assert!(pascal.total() >= fz.modeled_time_s);
}

#[test]
fn default_backend_matches_the_interpreter_oracle() {
    // The production default is the SIMD wavefront on the runtime-chosen
    // ISA; the scalar interpreter is its oracle. Everything a run reports
    // must be bit-identical between the two.
    let s = setup("A1_X,X", 200);
    let default = FastZConfig::new(Scoring::bench_scaled(), DeviceSpec::rtx3080_ampere());
    assert_eq!(default.backend, WavefrontBackend::Simd);
    let oracle = FastZConfig {
        backend: WavefrontBackend::Interpreter,
        ..default.clone()
    };
    let got = run_fastz(&s.target, &s.query, &s.anchors, s.span, &default);
    let want = run_fastz(&s.target, &s.query, &s.anchors, s.span, &oracle);
    assert!(want.stats.problems > 0 && !want.alignments.is_empty());
    assert_eq!(got.alignments, want.alignments);
    assert_eq!(got.stats, want.stats);
    assert_eq!(got.bin_counts, want.bin_counts);
    assert_eq!(got.modeled_time_s.to_bits(), want.modeled_time_s.to_bits());
}
