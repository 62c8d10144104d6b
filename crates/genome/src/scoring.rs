//! Alignment scoring: substitution matrices and affine gap penalties.
//!
//! Defaults mirror LASTZ: the HOXD70 substitution matrix (Chiaromonte,
//! Yap & Miller 2002), gap open 400 / gap extend 30 (expressed as negative
//! scores in the recurrences), y-drop `O + 300·E = 9400`, x-drop 910 for the
//! ungapped filter, and an HSP / gapped-alignment score threshold of 3000.

use crate::alphabet::{Base, ALPHABET_SIZE};

/// A substitution score matrix over the 5-letter code alphabet (ACGTN).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct SubstMatrix {
    scores: [[i32; ALPHABET_SIZE]; ALPHABET_SIZE],
}

impl SubstMatrix {
    /// Builds a matrix from a 4x4 ACGT score table; every pairing involving
    /// `N` is assigned `n_score` (strongly negative by default usage so that
    /// extensions never run through unknown sequence).
    pub fn from_acgt(table: [[i32; 4]; 4], n_score: i32) -> SubstMatrix {
        let mut scores = [[n_score; ALPHABET_SIZE]; ALPHABET_SIZE];
        for (i, row) in table.iter().enumerate() {
            scores[i][..4].copy_from_slice(row);
        }
        SubstMatrix { scores }
    }

    /// The LASTZ default HOXD70 matrix. `N` scores −1000 against everything.
    pub fn hoxd70() -> SubstMatrix {
        SubstMatrix::from_acgt(
            [
                //  A     C     G     T
                [91, -114, -31, -123],  // A
                [-114, 100, -125, -31], // C
                [-31, -125, 100, -114], // G
                [-123, -31, -114, 91],  // T
            ],
            -1000,
        )
    }

    /// A uniform match/mismatch matrix (useful in unit tests and property
    /// tests where hand-checkable scores are needed).
    pub fn match_mismatch(match_score: i32, mismatch_score: i32) -> SubstMatrix {
        let mut table = [[mismatch_score; 4]; 4];
        for (i, row) in table.iter_mut().enumerate() {
            row[i] = match_score;
        }
        SubstMatrix::from_acgt(table, mismatch_score.min(-1))
    }

    /// Score of aligning code `a` against code `b`.
    #[inline(always)]
    pub fn score(&self, a: u8, b: u8) -> i32 {
        self.scores[a as usize][b as usize]
    }

    /// Score of aligning two [`Base`]s.
    #[inline]
    pub fn score_bases(&self, a: Base, b: Base) -> i32 {
        self.score(a.code(), b.code())
    }

    /// Maximum score in the matrix (the best possible per-base gain).
    pub fn max_score(&self) -> i32 {
        let mut m = i32::MIN;
        for row in &self.scores {
            for &s in &row[..4] {
                m = m.max(s);
            }
        }
        m
    }
}

/// Affine gap penalties, stored as positive costs.
///
/// A gap of length `g` costs `open + extend * g`; in the Gotoh recurrences
/// the first gapped cell therefore pays `-(open + extend)` and each further
/// cell `-extend`, matching Fig. 1 of the paper (`s_o + s_e` then `s_e`).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct GapPenalties {
    /// Cost for opening a gap (LASTZ default 400).
    pub open: i32,
    /// Cost per gapped base (LASTZ default 30).
    pub extend: i32,
}

impl GapPenalties {
    /// LASTZ defaults: open 400, extend 30.
    pub const LASTZ_DEFAULT: GapPenalties = GapPenalties {
        open: 400,
        extend: 30,
    };

    /// Creates gap penalties from positive costs.
    ///
    /// # Panics
    /// Panics if either cost is negative or `extend` is zero (a zero extend
    /// cost makes y-drop termination unsound).
    pub fn new(open: i32, extend: i32) -> GapPenalties {
        assert!(open >= 0, "gap open cost must be non-negative");
        assert!(extend > 0, "gap extend cost must be positive");
        GapPenalties { open, extend }
    }

    /// The score delta for opening a gap (first gapped base): `-(open+extend)`.
    #[inline(always)]
    pub fn open_score(&self) -> i32 {
        -(self.open + self.extend)
    }

    /// The score delta for extending a gap by one base: `-extend`.
    #[inline(always)]
    pub fn extend_score(&self) -> i32 {
        -self.extend
    }

    /// Total cost of a gap of `len` bases.
    pub fn gap_cost(&self, len: usize) -> i32 {
        if len == 0 {
            0
        } else {
            self.open + self.extend * len as i32
        }
    }
}

/// Complete scoring configuration for the WGA pipeline.
#[derive(Clone, Debug)]
pub struct Scoring {
    /// Substitution matrix.
    pub subst: SubstMatrix,
    /// Affine gap penalties.
    pub gaps: GapPenalties,
    /// Gapped-extension termination threshold: a DP cell is abandoned when
    /// its score falls more than `ydrop` below the best score seen so far.
    pub ydrop: i32,
    /// Ungapped-extension termination threshold (LASTZ `--xdrop`).
    pub xdrop: i32,
    /// Minimum ungapped HSP score for the ungapped filtering stage
    /// (LASTZ `--hspthresh`).
    pub hsp_threshold: i32,
    /// Minimum final gapped alignment score to report
    /// (LASTZ `--gappedthresh`).
    pub gapped_threshold: i32,
}

impl Scoring {
    /// LASTZ defaults: HOXD70, 400/30 gaps, ydrop = open + 300·extend = 9400,
    /// xdrop = 10·A-match = 910, hspthresh = gappedthresh = 3000.
    pub fn lastz_default() -> Scoring {
        let gaps = GapPenalties::LASTZ_DEFAULT;
        Scoring {
            subst: SubstMatrix::hoxd70(),
            gaps,
            ydrop: gaps.open + 300 * gaps.extend,
            xdrop: 910,
            hsp_threshold: 3000,
            gapped_threshold: 3000,
        }
    }

    /// A scaled-down configuration for benchmark harnesses: identical matrix
    /// and gap costs, but a smaller y-drop so that the explored search space
    /// around each (scaled-down) seed keeps the paper's ratio of search
    /// space to optimal alignment without requiring chromosome-scale inputs.
    pub fn bench_scaled() -> Scoring {
        let mut s = Scoring::lastz_default();
        s.ydrop = s.gaps.open + 90 * s.gaps.extend; // 3100
        s.hsp_threshold = 1500;
        s.gapped_threshold = 1500;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hoxd70_known_entries() {
        let m = SubstMatrix::hoxd70();
        assert_eq!(m.score_bases(Base::A, Base::A), 91);
        assert_eq!(m.score_bases(Base::C, Base::C), 100);
        assert_eq!(m.score_bases(Base::G, Base::G), 100);
        assert_eq!(m.score_bases(Base::T, Base::T), 91);
        assert_eq!(m.score_bases(Base::A, Base::G), -31);
        assert_eq!(m.score_bases(Base::C, Base::T), -31);
        assert_eq!(m.score_bases(Base::A, Base::T), -123);
        assert_eq!(m.score_bases(Base::C, Base::G), -125);
    }

    #[test]
    fn hoxd70_transitions_cheaper_than_transversions() {
        // A<->G and C<->T are transitions; they must score better than
        // transversions under HOXD70.
        let m = SubstMatrix::hoxd70();
        let transition = m.score_bases(Base::A, Base::G);
        assert!(transition > m.score_bases(Base::A, Base::T));
        assert!(transition > m.score_bases(Base::C, Base::G));
    }

    #[test]
    fn n_scores_badly() {
        let m = SubstMatrix::hoxd70();
        for b in Base::NUCLEOTIDES {
            assert_eq!(m.score_bases(Base::N, b), -1000);
            assert_eq!(m.score_bases(b, Base::N), -1000);
        }
    }

    #[test]
    fn match_mismatch_matrix() {
        let m = SubstMatrix::match_mismatch(5, -4);
        assert_eq!(m.score_bases(Base::A, Base::A), 5);
        assert_eq!(m.score_bases(Base::A, Base::C), -4);
        assert_eq!(m.max_score(), 5);
    }

    #[test]
    fn gap_penalties_scores() {
        let g = GapPenalties::new(400, 30);
        assert_eq!(g.open_score(), -430);
        assert_eq!(g.extend_score(), -30);
        assert_eq!(g.gap_cost(0), 0);
        assert_eq!(g.gap_cost(1), 430);
        assert_eq!(g.gap_cost(10), 700);
    }

    #[test]
    #[should_panic]
    fn zero_extend_rejected() {
        GapPenalties::new(400, 0);
    }

    #[test]
    fn lastz_default_parameters() {
        let s = Scoring::lastz_default();
        assert_eq!(s.gaps.open, 400);
        assert_eq!(s.gaps.extend, 30);
        assert_eq!(s.ydrop, 9400);
        assert_eq!(s.hsp_threshold, 3000);
    }
}
