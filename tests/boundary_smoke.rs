//! Boundary inputs to the library entry points: anchors past either
//! sequence end in a typed `ResilienceReport` record instead of a panic,
//! and anchors flush with an end, an empty anchor list and a zero
//! extension cap run to completion. Valid anchors align exactly as they
//! would without the rejected ones beside them. Degenerate sequences
//! (all `N`, shorter than the seed span, empty) seed nothing and align
//! nothing on every path.

use fastz::core::{
    run_fastz, run_fastz_observed, ExtendBackend, FastZConfig, FastZReport, ResilienceConfig,
};
use fastz::genome::evolve::random_codes;
use fastz::genome::{Scoring, Sequence, N_CODE};
use fastz::gpu_sim::DeviceSpec;
use fastz::seed::{Anchor, Workload, WorkloadParams};
use fastz_obs::NoObs;
use fastz_serve::{AlignRequest, AlignService, Outcome, ServeConfig, ShedReason};
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

/// Seeds `t` against `q` with the default shape, which must find no
/// anchor, then extends `extra` on both backends and serves the empty
/// seeded request beside an `extra` one: nothing aligns, and `extra`
/// is rejected (shed by the service) exactly when it runs past a
/// sequence.
fn assert_aligns_nothing(name: &str, t: &Sequence, q: &Sequence, extra: &[Anchor]) {
    let wl = Workload::build(t, q, &WorkloadParams::default());
    assert!(wl.anchors.is_empty(), "{name}: seeded anchors");
    let in_bounds = extra.iter().all(|a| fits(a, t, q));
    for backend in [ExtendBackend::YDrop, ExtendBackend::Bitvector] {
        let cfg = FastZConfig {
            extend_backend: backend,
            ..cfg()
        };
        // `N` matches nothing on either backend, so an anchor placed by
        // hand inside an `N` run aligns nothing there.
        let got = run_both(t, q, extra, &cfg);
        assert!(got.alignments.is_empty(), "{name}: {backend:?} alignments");
        let rejected: Vec<usize> = if in_bounds {
            Vec::new()
        } else {
            (0..extra.len()).collect()
        };
        assert_eq!(
            got.resilience.rejected_anchors, rejected,
            "{name}: {backend:?}"
        );
    }
    let requests = [
        AlignRequest::new(0, wl.anchors, SPAN),
        AlignRequest::new(1, extra.to_vec(), SPAN),
    ];
    let report = AlignService::new(t, q, ServeConfig::new(cfg())).run(&requests);
    assert_eq!(report.records.len(), requests.len(), "{name}");
    for r in &report.records {
        assert!(r.alignments.is_empty(), "{name}: request {}", r.id);
        match &r.outcome {
            Outcome::Completed => assert!(r.id == 0 || in_bounds, "{name}"),
            Outcome::ShedError(ShedReason::BadAnchor { .. }) => assert!(!in_bounds, "{name}"),
            other => panic!("{name}: request {}: {other:?}", r.id),
        }
    }
}

/// Whether `a`'s seed window lies inside both sequences.
fn fits(a: &Anchor, t: &Sequence, q: &Sequence) -> bool {
    a.target_pos as usize + SPAN <= t.len() && a.query_pos as usize + SPAN <= q.len()
}

#[test]
fn degenerate_sequences_seed_and_align_nothing() {
    let (t, q) = pair();
    let all_n = Sequence::from_codes("n", vec![N_CODE; 2_000]);
    assert!(SPAN < WorkloadParams::default().shape.span());
    let short = Sequence::from_codes("short", t.codes()[..SPAN - 1].to_vec());
    let empty = Sequence::from_codes("empty", Vec::new());
    // An anchor inside the all-`N` pair is extended; on the other pairs
    // the origin anchor runs past a sequence and is rejected.
    let mid = [anchor(1_000, 1_000)];
    let origin = [anchor(0, 0)];
    assert_aligns_nothing("all-N pair", &all_n, &all_n, &mid);
    assert_aligns_nothing("all-N target", &all_n, &q, &mid);
    assert_aligns_nothing("short pair", &short, &short, &origin);
    assert_aligns_nothing("short query", &t, &short, &origin);
    assert_aligns_nothing("empty target", &empty, &q, &origin);
    assert_aligns_nothing("empty query", &t, &empty, &origin);
    assert_aligns_nothing("empty pair", &empty, &empty, &origin);
}
