//! Output checks and ground-truth recall.

use fastz_align::Alignment;
use fastz_core::ExtendBackend;
use fastz_genome::evolve::PlantedSegment;
use fastz_genome::{Scoring, Sequence};
use fastz_seed::Anchor;

/// Why an alignment fails the output check, or `None` when it passes:
/// its edit script must consume exactly its intervals inside the
/// sequences, it must clear the gapped threshold, and a y-drop score
/// must equal the rescored edit script. (Bitvector scores live in the
/// unit regime, which `rescore` does not model.)
pub fn alignment_fault(
    a: &Alignment,
    target: &Sequence,
    query: &Sequence,
    scoring: &Scoring,
    backend: ExtendBackend,
) -> Option<String> {
    if !a.is_consistent(target, query) {
        return Some(format!("inconsistent alignment {a}"));
    }
    if a.score < scoring.gapped_threshold {
        return Some(format!("alignment below the gapped threshold: {a}"));
    }
    if backend == ExtendBackend::YDrop {
        let rescored = a.rescore(target, query, scoring);
        if rescored != a.score {
            return Some(format!("score {} rescored as {rescored}: {a}", a.score));
        }
    }
    None
}

/// Checks every alignment; returns how many failed and the first fault.
pub(crate) fn alignments(
    alignments: &[Alignment],
    target: &Sequence,
    query: &Sequence,
    scoring: &Scoring,
    backend: ExtendBackend,
) -> (usize, Option<String>) {
    let mut faults = alignments
        .iter()
        .filter_map(|a| alignment_fault(a, target, query, scoring, backend));
    let first = faults.next();
    (first.iter().count() + faults.count(), first)
}

/// Planted segments at least this long count toward recall.
pub(crate) const RECALL_MIN_BP: usize = 500;

/// Recall of the planted segments of at least [`RECALL_MIN_BP`] that hold
/// an extended anchor: the share for which one alignment covers at least
/// half the segment's target interval and overlaps its query interval.
/// Returns `(recovered, seeded)`.
pub(crate) fn truth_recall(
    truth: &[PlantedSegment],
    anchors: &[Anchor],
    alignments: &[Alignment],
) -> (usize, usize) {
    let inside = |s: &PlantedSegment, a: &Anchor| {
        let (t, q) = (a.target_pos as usize, a.query_pos as usize);
        (s.target_start..s.target_start + s.target_len).contains(&t)
            && (s.query_start..s.query_start + s.query_len).contains(&q)
    };
    let recovered = |s: &PlantedSegment| {
        let (t0, t1) = (s.target_start, s.target_start + s.target_len);
        let (q0, q1) = (s.query_start, s.query_start + s.query_len);
        alignments.iter().any(|a| {
            let covered = a.target_end.min(t1).saturating_sub(a.target_start.max(t0));
            covered * 2 >= s.target_len && a.query_start < q1 && a.query_end > q0
        })
    };
    let seeded: Vec<&PlantedSegment> = truth
        .iter()
        .filter(|s| s.target_len >= RECALL_MIN_BP && anchors.iter().any(|a| inside(s, a)))
        .collect();
    let hits = seeded.iter().filter(|s| recovered(s)).count();
    (hits, seeded.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastz_align::EditOp;

    #[test]
    fn recall_counts_seeded_segments_only() {
        let seg = |start: usize, len: usize| PlantedSegment {
            class: "large",
            target_start: start,
            target_len: len,
            query_start: start + 100,
            query_len: len,
        };
        let truth = [
            seg(1_000, 600),
            seg(5_000, 800),
            seg(9_000, 900),
            seg(20_000, 100),
        ];
        let anchor = |t: usize| Anchor {
            target_pos: t as u32,
            query_pos: (t + 100) as u32,
        };
        // Segments 0, 1 and 3 hold an anchor; 3 is too short to count.
        let anchors = [anchor(1_100), anchor(5_400), anchor(20_010)];
        let aln = |t0: usize, t1: usize| Alignment {
            target_start: t0,
            target_end: t1,
            query_start: t0 + 100,
            query_end: t1 + 100,
            score: 5_000,
            ops: vec![EditOp::Diag((t1 - t0) as u32)],
        };
        // Covers 400 of segment 0's 600 bp and 200 of segment 1's 800.
        let found = [aln(1_100, 1_500), aln(5_600, 5_800)];
        assert_eq!(truth_recall(&truth, &anchors, &found), (1, 2));
        assert_eq!(truth_recall(&truth, &anchors, &[]), (0, 2));
        assert_eq!(truth_recall(&truth, &[], &found), (0, 0));
    }
}
