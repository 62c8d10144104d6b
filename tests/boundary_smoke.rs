//! Boundary inputs to the library entry points: anchors past either
//! sequence end in a typed `ResilienceReport` record instead of a panic,
//! and anchors flush with an end, an empty anchor list and a zero
//! extension cap run to completion. Valid anchors align exactly as they
//! would without the rejected ones beside them.

use fastz::core::{
    run_fastz, run_fastz_observed, ExtendBackend, FastZConfig, FastZReport, ResilienceConfig,
};
use fastz::genome::evolve::random_codes;
use fastz::genome::{Scoring, Sequence};
use fastz::gpu_sim::DeviceSpec;
use fastz::seed::Anchor;
use fastz_obs::NoObs;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const SPAN: usize = 12;

/// A 12-kbp pair: the query is the target with ~4% substitutions.
fn pair() -> (Sequence, Sequence) {
    let mut rng = SmallRng::seed_from_u64(0xB0_0D);
    let t = random_codes(12_000, 0.5, &mut rng);
    let q: Vec<u8> = t
        .iter()
        .map(|&b| {
            if rng.gen_bool(0.04) {
                (b + rng.gen_range(1..4)) & 3
            } else {
                b
            }
        })
        .collect();
    (Sequence::from_codes("t", t), Sequence::from_codes("q", q))
}

fn cfg() -> FastZConfig {
    FastZConfig::new(Scoring::bench_scaled(), DeviceSpec::rtx3080_ampere())
}

fn anchor(target_pos: usize, query_pos: usize) -> Anchor {
    Anchor {
        target_pos: target_pos as u32,
        query_pos: query_pos as u32,
    }
}

/// Both entry points, which must agree.
fn run_both(t: &Sequence, q: &Sequence, anchors: &[Anchor], cfg: &FastZConfig) -> FastZReport {
    let plain = run_fastz(t, q, anchors, SPAN, cfg);
    let observed = run_fastz_observed(
        t,
        q,
        anchors,
        SPAN,
        cfg,
        &ResilienceConfig::disabled(),
        &mut NoObs,
    );
    assert_eq!(plain.alignments, observed.alignments);
    assert_eq!(
        plain.resilience.rejected_anchors,
        observed.resilience.rejected_anchors
    );
    plain
}

#[test]
fn anchors_past_either_end_are_rejected_not_extended() {
    let (t, q) = pair();
    let valid = [anchor(3_000, 3_000), anchor(9_000, 9_000)];
    let want = run_both(&t, &q, &valid, &cfg());
    assert!(!want.alignments.is_empty());
    assert!(want.resilience.rejected_anchors.is_empty());

    let probes = [
        // A far anchor.
        anchor(1_000_000, 3_000),
        // A one-base overhang of the seed past the target's end.
        anchor(t.len() - SPAN + 1, 5_000),
        // The same past the query's end.
        anchor(5_000, q.len() - SPAN + 1),
    ];
    for probe in probes {
        let anchors = [valid[0], probe, valid[1]];
        let got = run_both(&t, &q, &anchors, &cfg());
        assert_eq!(got.resilience.rejected_anchors, vec![1], "{probe:?}");
        assert_eq!(got.alignments, want.alignments, "{probe:?}");
    }

    // The bitvector backend extends through the same sides.
    let bitvec = FastZConfig {
        extend_backend: ExtendBackend::Bitvector,
        ..cfg()
    };
    let want = run_both(&t, &q, &valid, &bitvec);
    let got = run_both(&t, &q, &[valid[0], probes[0], valid[1]], &bitvec);
    assert_eq!(got.resilience.rejected_anchors, vec![1]);
    assert_eq!(got.alignments, want.alignments);
}

#[test]
fn anchors_flush_with_either_end_align() {
    let (t, q) = pair();
    let (tn, qn) = (t.len(), q.len());
    for a in [
        anchor(0, 0),
        anchor(tn - SPAN, qn - SPAN),
        anchor(0, qn - SPAN),
        anchor(tn - SPAN, 0),
    ] {
        let got = run_both(&t, &q, &[a], &cfg());
        assert!(got.resilience.rejected_anchors.is_empty(), "{a:?}");
    }
    // The homologous corner anchors find the shared sequence.
    let got = run_both(&t, &q, &[anchor(0, 0)], &cfg());
    assert_eq!(got.alignments.len(), 1);
}

#[test]
fn no_anchors_and_no_extension_run_to_completion() {
    let (t, q) = pair();
    let none = run_both(&t, &q, &[], &cfg());
    assert!(none.alignments.is_empty());
    assert!(none.resilience.rejected_anchors.is_empty());

    let capped = FastZConfig {
        max_extension: 0,
        ..cfg()
    };
    let anchors = [anchor(3_000, 3_000), anchor(1_000_000, 0)];
    let got = run_both(&t, &q, &anchors, &capped);
    assert_eq!(got.resilience.rejected_anchors, vec![1]);
}
