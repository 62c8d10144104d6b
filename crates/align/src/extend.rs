//! Two-sided gapped seed extension.
//!
//! LASTZ (and FastZ) extend every seed site twice: leftward from the seed
//! start (on reversed sequences) and rightward from the seed end, then
//! splice the two half-alignments around the seed body (paper §3.1.2
//! explains why even a short half cannot be discarded early: the other
//! half may make the combined alignment high-scoring).

use crate::alignment::{push_op, Alignment, EditOp};
use crate::score;
use crate::trace::NoTrace;
use crate::ydrop::{
    ydrop_extend_traced, ExtensionStats, OneSidedExtension, PruneMode, YDropScratch,
};
use fastz_genome::{Scoring, Sequence};
use fastz_seed::Anchor;

/// Configuration for gapped extension.
#[derive(Clone, Debug)]
pub struct ExtendConfig {
    /// Pruning mode for the y-drop engine.
    pub mode: PruneMode,
    /// Whether to produce the edit script (the executor needs it; the
    /// inspector does not).
    pub traceback: bool,
    /// Cap on how many bases a one-sided extension may consume in either
    /// sequence (bounds the reversed-prefix copy for left extension; the
    /// paper's largest load-balancing bin is 32,768 — anything longer
    /// would need an additional bin anyway).
    pub max_extension: usize,
}

impl Default for ExtendConfig {
    fn default() -> Self {
        ExtendConfig {
            mode: PruneMode::Exact,
            traceback: true,
            max_extension: 40_000,
        }
    }
}

/// Reusable buffers for one extension worker.
#[derive(Default)]
pub struct ExtendScratch {
    ydrop: YDropScratch,
    rev_t: Vec<u8>,
    rev_q: Vec<u8>,
}

/// A completed two-sided extension.
#[derive(Clone, Debug)]
pub struct GappedExtension {
    /// The spliced alignment (ops present iff traceback was requested).
    pub alignment: Alignment,
    /// Search-space stats of the left half.
    pub left_stats: ExtensionStats,
    /// Search-space stats of the right half.
    pub right_stats: ExtensionStats,
    /// Optimal extents of the left half `(query_bases, target_bases)`.
    pub left_extent: (usize, usize),
    /// Optimal extents of the right half `(query_bases, target_bases)`.
    pub right_extent: (usize, usize),
}

impl GappedExtension {
    /// Total DP cells explored across both halves.
    pub fn cells(&self) -> u64 {
        self.left_stats.cells + self.right_stats.cells
    }

    /// The paper's binning extent: the larger optimal extent over both
    /// halves and both sequences.
    pub fn max_extent(&self) -> usize {
        self.left_extent
            .0
            .max(self.left_extent.1)
            .max(self.right_extent.0)
            .max(self.right_extent.1)
    }
}

/// Extends `anchor` (seed span `seed_span`) in both directions with
/// the y-drop engine and splices the halves.
pub fn gapped_extend(
    target: &Sequence,
    query: &Sequence,
    anchor: Anchor,
    seed_span: usize,
    scoring: &Scoring,
    config: &ExtendConfig,
    scratch: &mut ExtendScratch,
) -> GappedExtension {
    extend_and_splice(
        target,
        query,
        anchor,
        seed_span,
        scoring,
        config.max_extension,
        scratch,
        |t, q, ydrop| {
            ydrop_extend_traced(
                t,
                q,
                scoring,
                config.mode,
                config.traceback,
                ydrop,
                &mut NoTrace,
            )
        },
    )
}

/// Runs `one_sided` on both sides of `anchor` (right on the suffixes
/// after the seed, left on the reversed prefixes before it, each capped
/// at `max_extension` bases) and splices the halves around the seed
/// body: reversed left ops, the seed's `Diag`, right ops; the clamped sum
/// of the three scores; coordinates from the halves' optima. The script
/// is left empty when the halves carry no ops (traceback off).
#[allow(clippy::too_many_arguments)]
pub(crate) fn extend_and_splice(
    target: &Sequence,
    query: &Sequence,
    anchor: Anchor,
    seed_span: usize,
    scoring: &Scoring,
    max_extension: usize,
    scratch: &mut ExtendScratch,
    mut one_sided: impl FnMut(&[u8], &[u8], &mut YDropScratch) -> OneSidedExtension,
) -> GappedExtension {
    let (tc, qc) = (target.codes(), query.codes());
    let t0 = anchor.target_pos as usize;
    let q0 = anchor.query_pos as usize;
    assert!(t0 + seed_span <= tc.len(), "anchor outside target");
    assert!(q0 + seed_span <= qc.len(), "anchor outside query");
    let mut seed_score = 0i32;
    for k in 0..seed_span {
        seed_score = score::add_clamped(seed_score, scoring.subst.score(tc[t0 + k], qc[q0 + k]));
    }

    let right = one_sided(
        &tc[t0 + seed_span..tc.len().min(t0 + seed_span + max_extension)],
        &qc[q0 + seed_span..qc.len().min(q0 + seed_span + max_extension)],
        &mut scratch.ydrop,
    );
    scratch.rev_t.clear();
    scratch.rev_q.clear();
    scratch
        .rev_t
        .extend(tc[t0.saturating_sub(max_extension)..t0].iter().rev());
    scratch
        .rev_q
        .extend(qc[q0.saturating_sub(max_extension)..q0].iter().rev());
    let left = one_sided(&scratch.rev_t, &scratch.rev_q, &mut scratch.ydrop);

    let mut ops: Vec<EditOp> = Vec::new();
    if let (Some(left_ops), Some(right_ops)) = (&left.ops, &right.ops) {
        for &op in left_ops.iter().rev() {
            push_op(&mut ops, op);
        }
        push_op(&mut ops, EditOp::Diag(seed_span as u32));
        for &op in right_ops {
            push_op(&mut ops, op);
        }
    }
    let alignment = Alignment {
        target_start: t0 - left.best_j,
        target_end: t0 + seed_span + right.best_j,
        query_start: q0 - left.best_i,
        query_end: q0 + seed_span + right.best_i,
        score: score::add_clamped(
            score::add_clamped(left.best_score, seed_score),
            right.best_score,
        ),
        ops,
    };
    GappedExtension {
        alignment,
        left_stats: left.stats,
        right_stats: right.stats,
        left_extent: (left.best_i, left.best_j),
        right_extent: (right.best_i, right.best_j),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastz_genome::{GapPenalties, SubstMatrix};

    fn scoring() -> Scoring {
        Scoring {
            subst: SubstMatrix::match_mismatch(10, -15),
            gaps: GapPenalties::new(30, 5),
            ydrop: 100,
            xdrop: 40,
            hsp_threshold: 50,
            gapped_threshold: 50,
        }
    }

    fn seq(name: &str, s: &[u8]) -> Sequence {
        Sequence::from_ascii(name, s).unwrap()
    }

    #[test]
    fn seed_in_perfect_context_extends_both_ways() {
        let t = seq("t", b"ACGTACGTACGTACGTACGT");
        let a = Anchor {
            target_pos: 8,
            query_pos: 8,
        };
        let ext = gapped_extend(
            &t,
            &t,
            a,
            4,
            &scoring(),
            &ExtendConfig::default(),
            &mut ExtendScratch::default(),
        );
        let al = &ext.alignment;
        assert_eq!(al.target_start, 0);
        assert_eq!(al.target_end, 20);
        assert_eq!(al.query_start, 0);
        assert_eq!(al.query_end, 20);
        assert_eq!(al.score, 200);
        assert_eq!(al.ops, vec![EditOp::Diag(20)]);
        assert!(al.is_consistent(&t, &t));
        assert_eq!(al.rescore(&t, &t, &scoring()), al.score);
    }

    #[test]
    fn indels_on_both_sides_are_bridged() {
        //            left indel            seed          right indel
        // t: GGGG ACGTAC--GGCCGG [ACGT] CCGGAACCGGTTGACA TTTT   (-- absent)
        // q: CCCC ACGTACTAGGCCGG [ACGT] CCGGAA--GGTTGACA AAAA
        // Post-gap runs are long enough that bridging each 2-bp indel
        // gains strictly more than the gap cost (no score tie).
        let t = seq("t", b"GGGGACGTACGGCCGGACGTCCGGAACCGGTTGACATTTT");
        let q = seq("q", b"CCCCACGTACTAGGCCGGACGTCCGGAAGGTTGACAAAAA");
        let a = Anchor {
            target_pos: 16,
            query_pos: 18,
        };
        let sc = scoring();
        let ext = gapped_extend(
            &t,
            &q,
            a,
            4,
            &sc,
            &ExtendConfig::default(),
            &mut ExtendScratch::default(),
        );
        let al = &ext.alignment;
        assert!(al.is_consistent(&t, &q));
        assert_eq!(al.rescore(&t, &q, &sc), al.score);
        // Both halves bridge their indel: 30 diagonal matches total,
        // one 2-bp gap each side.
        assert_eq!(al.target_start, 4);
        assert_eq!(al.query_start, 4);
        assert_eq!(al.target_end, 36);
        assert_eq!(al.query_end, 36);
        let expected = 30 * 10 - 2 * (30 + 2 * 5);
        assert_eq!(al.score, expected);
    }

    #[test]
    fn anchor_at_origin_has_empty_left_half() {
        let t = seq("t", b"ACGTACGT");
        let a = Anchor {
            target_pos: 0,
            query_pos: 0,
        };
        let ext = gapped_extend(
            &t,
            &t,
            a,
            4,
            &scoring(),
            &ExtendConfig::default(),
            &mut ExtendScratch::default(),
        );
        assert_eq!(ext.left_extent, (0, 0));
        assert_eq!(ext.alignment.target_start, 0);
        assert_eq!(ext.alignment.target_end, 8);
    }

    #[test]
    fn max_extension_caps_reach() {
        let body: Vec<u8> = b"ACGT".iter().cycle().take(400).copied().collect();
        let t = seq("t", &body);
        let a = Anchor {
            target_pos: 200,
            query_pos: 200,
        };
        let cfg = ExtendConfig {
            max_extension: 50,
            ..ExtendConfig::default()
        };
        let ext = gapped_extend(
            &t,
            &t,
            a,
            4,
            &scoring(),
            &cfg,
            &mut ExtendScratch::default(),
        );
        assert!(ext.alignment.target_start >= 150);
        assert!(ext.alignment.target_end <= 254);
    }

    #[test]
    fn no_traceback_mode_omits_ops_but_keeps_extents() {
        let t = seq("t", b"ACGTACGTACGTACGT");
        let a = Anchor {
            target_pos: 8,
            query_pos: 8,
        };
        let cfg = ExtendConfig {
            traceback: false,
            ..ExtendConfig::default()
        };
        let ext = gapped_extend(
            &t,
            &t,
            a,
            4,
            &scoring(),
            &cfg,
            &mut ExtendScratch::default(),
        );
        assert!(ext.alignment.ops.is_empty());
        assert_eq!(ext.alignment.score, 160);
        assert_eq!(ext.max_extent(), 8);
    }

    #[test]
    fn stats_accumulate_across_halves() {
        let t = seq("t", b"ACGTACGTACGTACGTACGTACGT");
        let a = Anchor {
            target_pos: 12,
            query_pos: 12,
        };
        let ext = gapped_extend(
            &t,
            &t,
            a,
            4,
            &scoring(),
            &ExtendConfig::default(),
            &mut ExtendScratch::default(),
        );
        assert!(ext.cells() > 0);
        assert_eq!(ext.cells(), ext.left_stats.cells + ext.right_stats.cells);
    }
}
