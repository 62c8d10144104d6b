//! Alignment-set summary statistics: count, score and length figures
//! for one alignment set.

use crate::alignment::Alignment;

/// Summary statistics of an alignment set.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AlignmentSummary {
    /// Number of alignments.
    pub count: usize,
    /// Total score.
    pub total_score: i64,
    /// Maximum score (0 for an empty set).
    pub max_score: i32,
    /// Mean alignment length (larger-extent convention).
    pub mean_length: f64,
    /// Median alignment length.
    pub median_length: usize,
    /// Maximum alignment length.
    pub max_length: usize,
    /// Total aligned base pairs (target extents).
    pub aligned_bp: usize,
}

/// Computes summary statistics.
pub fn summarize(alignments: &[Alignment]) -> AlignmentSummary {
    if alignments.is_empty() {
        return AlignmentSummary::default();
    }
    let mut lengths: Vec<usize> = alignments.iter().map(|a| a.length()).collect();
    lengths.sort_unstable();
    AlignmentSummary {
        count: alignments.len(),
        total_score: alignments.iter().map(|a| a.score as i64).sum(),
        max_score: alignments.iter().map(|a| a.score).max().unwrap(),
        mean_length: lengths.iter().sum::<usize>() as f64 / lengths.len() as f64,
        median_length: lengths[lengths.len() / 2],
        max_length: *lengths.last().unwrap(),
        aligned_bp: alignments.iter().map(|a| a.target_len()).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(ts: usize, te: usize, score: i32) -> Alignment {
        Alignment {
            target_start: ts,
            target_end: te,
            query_start: ts,
            query_end: te,
            score,
            ops: vec![],
        }
    }

    #[test]
    fn empty_summary() {
        let s = summarize(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.max_score, 0);
    }

    #[test]
    fn summary_math() {
        let set = [a(0, 10, 100), a(20, 50, 300), a(60, 160, 50)];
        let s = summarize(&set);
        assert_eq!(s.count, 3);
        assert_eq!(s.total_score, 450);
        assert_eq!(s.max_score, 300);
        assert_eq!(s.median_length, 30);
        assert_eq!(s.max_length, 100);
        assert_eq!(s.aligned_bp, 140);
        assert!((s.mean_length - 140.0 / 3.0).abs() < 1e-9);
    }
}
