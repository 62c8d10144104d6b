//! Property-based tests (proptest) over the DP engines and core data
//! structures: invariants that must hold for *any* input, not just the
//! curated unit-test cases.

use fastz::align::ydrop::{ydrop_extend, PruneMode};
use fastz::align::EditOp;
use fastz::core::{
    classify, warp_extend_in, BinClass, OptFlags, WarpConfig, BIN_BOUNDS, EAGER_BOUND,
};
use fastz::genome::{GapPenalties, Scoring, SubstMatrix};
use fastz::gpu_sim::SharedMem;
use proptest::prelude::*;

fn scoring(ydrop: i32) -> Scoring {
    Scoring {
        subst: SubstMatrix::match_mismatch(10, -15),
        gaps: GapPenalties::new(30, 5),
        ydrop,
        xdrop: 40,
        hsp_threshold: 50,
        gapped_threshold: 50,
    }
}

/// Re-scores an edit script against raw code slices.
fn rescore_ops(t: &[u8], q: &[u8], ops: &[EditOp], sc: &Scoring) -> (usize, usize, i32) {
    let (mut ti, mut qi, mut score) = (0usize, 0usize, 0i32);
    for op in ops {
        match *op {
            EditOp::Diag(k) => {
                for _ in 0..k {
                    score += sc.subst.score(t[ti], q[qi]);
                    ti += 1;
                    qi += 1;
                }
            }
            EditOp::GapQ(k) => {
                score -= sc.gaps.gap_cost(k as usize);
                ti += k as usize;
            }
            EditOp::GapT(k) => {
                score -= sc.gaps.gap_cost(k as usize);
                qi += k as usize;
            }
        }
    }
    (ti, qi, score)
}

/// Strategy: a pair of related sequences (mutated copy) of modest size.
fn related_pair() -> impl Strategy<Value = (Vec<u8>, Vec<u8>)> {
    (
        proptest::collection::vec(0u8..4, 10..200),
        proptest::collection::vec(0u32..100, 0..20),
        any::<u64>(),
    )
        .prop_map(|(t, muts, _seed)| {
            let mut q = t.clone();
            for (k, m) in muts.iter().enumerate() {
                let pos = (*m as usize * (k + 7)) % q.len().max(1);
                if q.is_empty() {
                    break;
                }
                match m % 5 {
                    0..=2 => q[pos] = (q[pos] + 1 + (m % 3) as u8) % 4, // substitution
                    3 => {
                        q.insert(pos, (m % 4) as u8); // insertion
                    }
                    _ => {
                        q.remove(pos); // deletion
                    }
                }
            }
            (t, q)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The scalar engine's traceback must re-score exactly to the
    /// reported best score, and end at the reported best cell.
    #[test]
    fn scalar_traceback_rescoring((t, q) in related_pair()) {
        let sc = scoring(120);
        for mode in [PruneMode::Exact, PruneMode::Conservative] {
            let r = ydrop_extend(&t, &q, &sc, mode, true);
            let ops = r.ops.clone().unwrap();
            let (ti, qi, score) = rescore_ops(&t, &q, &ops, &sc);
            prop_assert_eq!(ti, r.best_j);
            prop_assert_eq!(qi, r.best_i);
            prop_assert_eq!(score, r.best_score);
            prop_assert!(r.best_score >= 0);
        }
    }

    /// Conservative pruning explores a superset: score and cell count
    /// dominate the exact engine's.
    #[test]
    fn conservative_dominates_exact((t, q) in related_pair()) {
        let sc = scoring(120);
        let exact = ydrop_extend(&t, &q, &sc, PruneMode::Exact, false);
        let cons = ydrop_extend(&t, &q, &sc, PruneMode::Conservative, false);
        prop_assert!(cons.best_score >= exact.best_score);
        prop_assert!(cons.stats.cells >= exact.stats.cells);
    }

    /// A larger y-drop can only explore more and score at least as well.
    #[test]
    fn ydrop_monotonicity((t, q) in related_pair(), y1 in 50i32..150, dy in 1i32..200) {
        let small = ydrop_extend(&t, &q, &scoring(y1), PruneMode::Exact, false);
        let large = ydrop_extend(&t, &q, &scoring(y1 + dy), PruneMode::Exact, false);
        prop_assert!(large.best_score >= small.best_score);
        prop_assert!(large.stats.cells >= small.stats.cells);
    }

    /// The warp engine never scores below the exact scalar engine and its
    /// eager traceback (when produced) re-scores to the reported best.
    #[test]
    fn warp_engine_dominates_and_rescans((t, q) in related_pair()) {
        let sc = scoring(120);
        let exact = ydrop_extend(&t, &q, &sc, PruneMode::Exact, false);
        let mut shared = SharedMem::new(96 * 1024);
        let warp = warp_extend_in(&t[..], &q[..], &sc, &WarpConfig::inspector(&OptFlags::fastz()), &mut shared, &mut Vec::new());
        prop_assert!(
            warp.best_score >= exact.best_score,
            "warp {} < exact {}", warp.best_score, exact.best_score
        );
        if let Some(ops) = &warp.eager_ops {
            let (ti, qi, score) = rescore_ops(&t, &q, ops, &sc);
            prop_assert_eq!(ti, warp.best_j);
            prop_assert_eq!(qi, warp.best_i);
            prop_assert_eq!(score, warp.best_score);
            prop_assert!(warp.best_i <= 16 && warp.best_j <= 16);
        }
    }

    /// Executor (trimmed to the inspector's optimum) reproduces the same
    /// optimum and a valid full traceback.
    #[test]
    fn executor_reproduces_inspector_optimum((t, q) in related_pair()) {
        let sc = scoring(120);
        let mut shared = SharedMem::new(96 * 1024);
        let insp = warp_extend_in(&t[..], &q[..], &sc, &WarpConfig::inspector(&OptFlags::fastz()), &mut shared, &mut Vec::new());
        shared.clear();
        let exec_cfg = WarpConfig::executor(&OptFlags::fastz(), insp.best_i, insp.best_j);
        let exec = warp_extend_in(&t[..], &q[..], &sc, &exec_cfg, &mut shared, &mut Vec::new());
        prop_assert_eq!(exec.best_score, insp.best_score);
        prop_assert_eq!((exec.best_i, exec.best_j), (insp.best_i, insp.best_j));
        let ops = exec.ops.unwrap();
        let (ti, qi, score) = rescore_ops(&t, &q, &ops, &sc);
        prop_assert_eq!((ti, qi), (exec.best_j, exec.best_i));
        prop_assert_eq!(score, exec.best_score);
    }

    /// Binning is total and consistent with its bounds.
    #[test]
    fn binning_partitions_all_extents(extent in 0usize..200_000) {
        match classify(extent) {
            BinClass::Eager => prop_assert!(extent <= EAGER_BOUND),
            BinClass::Bin(i) => {
                prop_assert!(i < BIN_BOUNDS.len());
                prop_assert!(extent <= BIN_BOUNDS[i]);
                if i > 0 {
                    prop_assert!(extent > BIN_BOUNDS[i - 1]);
                } else {
                    prop_assert!(extent > EAGER_BOUND);
                }
            }
            BinClass::Overflow => prop_assert!(extent > BIN_BOUNDS[BIN_BOUNDS.len() - 1]),
        }
    }

    /// Strand symmetry: extending (t, q) scores the same as extending the
    /// base-complemented pair (HOXD70 and the test matrix are symmetric
    /// under complement).
    #[test]
    fn complement_symmetry((t, q) in related_pair()) {
        let sc = scoring(120);
        let fwd = ydrop_extend(&t, &q, &sc, PruneMode::Exact, false);
        let tc: Vec<u8> = t.iter().map(|&b| 3 - b).collect();
        let qc: Vec<u8> = q.iter().map(|&b| 3 - b).collect();
        let comp = ydrop_extend(&tc, &qc, &sc, PruneMode::Exact, false);
        prop_assert_eq!(fwd.best_score, comp.best_score);
        prop_assert_eq!((fwd.best_i, fwd.best_j), (comp.best_i, comp.best_j));
    }
}
