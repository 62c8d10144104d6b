//! Property and regression tests for the warp engine.
//!
//! The strip-width sweep guards the spill path: every boundary-column
//! handoff between strips (the `Spill` buffer) is exercised at widths
//! from 1 (every column is a boundary) to 32 (one warp-wide strip),
//! and the result must not depend on the lane count.

use fastz_align::ydrop::{ydrop_extend_traced, YDropScratch};
use fastz_align::{DenseTrace, PruneMode};
use fastz_core::{warp_extend_on, OptFlags, SimdIsa, WarpConfig, WarpExtension};
use fastz_genome::evolve::random_codes;
use fastz_genome::{GapPenalties, Scoring, SubstMatrix};
use fastz_gpu_sim::SharedMem;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

fn scoring() -> Scoring {
    Scoring {
        subst: SubstMatrix::match_mismatch(10, -15),
        gaps: GapPenalties::new(30, 5),
        ydrop: 120,
        xdrop: 40,
        hsp_threshold: 50,
        gapped_threshold: 50,
    }
}

/// A noisy homologous pair: a random target and a mutated copy with a
/// handful of substitutions and one small indel.
fn homologous_pair(len: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let t = random_codes(len, 0.45, &mut rng);
    let mut q = t.clone();
    for b in q.iter_mut() {
        if rng.gen_bool(0.04) {
            *b = (*b + rng.gen_range(1..4)) & 3;
        }
    }
    let cut = rng.gen_range(0..q.len().saturating_sub(4).max(1));
    let indel = rng.gen_range(1..4.min(q.len() - cut).max(2));
    q.drain(cut..cut + indel);
    (t, q)
}

fn warp_at_width(t: &[u8], q: &[u8], width: usize) -> (WarpExtension, DenseTrace) {
    let cfg = WarpConfig::inspector(&OptFlags::fastz()).with_strip_width(width);
    let mut shared = SharedMem::new(96 * 1024);
    let mut trace = DenseTrace::default();
    let r = warp_extend_on(
        SimdIsa::dispatched(),
        t,
        q,
        &scoring(),
        &cfg,
        &mut shared,
        &mut Vec::new(),
        &mut trace,
    );
    (r, trace)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The inspector's (score, best_i, best_j) must be invariant under
    /// the strip width: narrower strips only change which columns spill
    /// through the boundary buffer, never the DP values.
    #[test]
    fn strip_width_leaves_results_invariant(
        len in 48usize..220,
        seed in any::<u64>(),
    ) {
        let (t, q) = homologous_pair(len, seed);
        let (reference, _) = warp_at_width(&t, &q, 32);
        for width in [1usize, 2, 4, 8, 16, 17, 31] {
            let (r, trace) = warp_at_width(&t, &q, width);
            prop_assert_eq!(
                (r.best_score, r.best_i, r.best_j),
                (reference.best_score, reference.best_i, reference.best_j),
                "width {} disagrees with width 32", width
            );
            // The best cell must carry the best score in the trace.
            if r.best_i > 0 && r.best_j > 0 {
                prop_assert_eq!(
                    trace.s(r.best_i, r.best_j),
                    Some(r.best_score),
                    "width {}: best cell missing from its own trace", width
                );
            }
            // Counter self-consistency scales with the width.
            prop_assert_eq!(r.counters.alu_ops, r.counters.steps * 9 * width as u64);
            prop_assert_eq!(r.counters.shuffles % 3, 0);
        }
    }

    /// Exact-scalar live cells form a subset of the warp engine's live
    /// cells (row 0 and column 0 are analytic in the warp engine and
    /// never recorded), and the warp values dominate.
    ///
    /// Regression: the strip-entry row window used to be judged against
    /// the *global* running best (`best_score - ydrop`). That best
    /// already contains cells from rows below the candidate row,
    /// computed in earlier strips — cells a row-major scan has not
    /// reached yet — so the window over-pruned rows the scalar engines
    /// keep (first seen as pruned cells in column `strip_base + 1` of
    /// the second strip). The window must be judged against the
    /// order-safe row-prefix maxima, like the in-strip threshold.
    #[test]
    fn warp_live_set_covers_exact_scalar(
        len in 48usize..220,
        seed in any::<u64>(),
    ) {
        let (t, q) = homologous_pair(len, seed);
        let mut exact_trace = DenseTrace::default();
        let exact = ydrop_extend_traced(
            &t,
            &q,
            &scoring(),
            PruneMode::Exact,
            false,
            &mut YDropScratch::default(),
            &mut exact_trace,
        );
        let (warp, warp_trace) = warp_at_width(&t, &q, 32);
        prop_assert!(
            warp.best_score >= exact.best_score,
            "warp {} < exact {}", warp.best_score, exact.best_score
        );
        for (&(i, j), cell) in exact_trace.cells.iter() {
            if i == 0 || j == 0 {
                continue;
            }
            let w = warp_trace.s(i, j);
            prop_assert!(
                w.is_some_and(|s| s >= cell.s),
                "cell ({}, {}) live in exact (S = {}) but warp has {:?}",
                i, j, cell.s, w
            );
        }
    }
}
