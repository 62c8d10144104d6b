//! Dense full-matrix reference implementation of y-drop extension.
//!
//! The production engines (`fastz_align::ydrop`, the warp engine) carry
//! interval tracking, scratch reuse, strip mining, spill buffers and
//! register rotation — all performance machinery that can hide bugs.
//! This oracle is the same DP written the boring way: a dense
//! `(m+1)×(n+1)` sweep with the Gotoh recurrences of paper Fig. 1 and
//! the same two pruning rules, storing every cell. It exists to be
//! obviously correct, so the optimized engines can be checked against
//! it cell for cell.
//!
//! Equivalence argument (why dense == interval): a cell the interval
//! engine never computes has all-dead inputs here, and a dead input is
//! the same `NEG_INF` sentinel the engine substitutes at its interval
//! edges, so the dense sweep marks exactly the same cells dead and
//! stores exactly the same values for the live ones. The suite verifies
//! this on every corpus case rather than trusting the argument.

use fastz_align::ydrop::NEG_INF;
use fastz_align::{CellScores, PruneMode};
use fastz_genome::{Scoring, N_CODE};

/// Result of one dense oracle run.
#[derive(Clone, Debug)]
pub struct OracleRun {
    /// Best score found (the origin scores 0).
    pub best_score: i32,
    /// Query bases consumed at the best cell.
    pub best_i: usize,
    /// Target bases consumed at the best cell.
    pub best_j: usize,
    /// Live cells in row-major order: `(i, j, scores)`.
    pub live: Vec<(usize, usize, CellScores)>,
    /// Rows actually swept (the sweep stops after the first all-dead
    /// row, like the engines).
    pub rows: usize,
}

impl OracleRun {
    /// The S value at `(i, j)` if the cell is live.
    pub fn s(&self, i: usize, j: usize) -> Option<i32> {
        self.live
            .iter()
            .find(|&&(li, lj, _)| li == i && lj == j)
            .map(|&(_, _, c)| c.s)
    }
}

/// Runs the dense reference DP. Intended for bounded inputs (the suite
/// caps `m·n`); memory is one dense row triple, but `live` holds every
/// unpruned cell.
pub fn oracle_extend(target: &[u8], query: &[u8], scoring: &Scoring, mode: PruneMode) -> OracleRun {
    let so_se = scoring.gaps.open_score();
    let se = scoring.gaps.extend_score();
    let ydrop = scoring.ydrop;
    let n = target.len();
    let m = query.len();

    let mut best_score = 0i32;
    let (mut best_i, mut best_j) = (0usize, 0usize);
    let mut live: Vec<(usize, usize, CellScores)> = Vec::new();

    // Row 0: the origin plus the I gap chain, live while within y-drop
    // of the origin's score.
    let mut s_prev = vec![NEG_INF; n + 1];
    let mut d_prev = vec![NEG_INF; n + 1];
    for (j, slot) in s_prev.iter_mut().enumerate() {
        let (s, i_chain) = if j == 0 {
            (0, NEG_INF)
        } else {
            let v = so_se + se * (j as i32 - 1);
            (v, v)
        };
        if j == 0 || s >= -ydrop {
            *slot = s;
            live.push((
                0,
                j,
                CellScores {
                    s,
                    i: i_chain,
                    d: NEG_INF,
                },
            ));
        } else {
            break; // the chain only decays further
        }
    }

    let mut rows = 1usize;
    for i in 1..=m {
        let row_start_best = best_score;
        let mut running_best = best_score;
        let mut s_row = vec![NEG_INF; n + 1];
        let mut d_row = vec![NEG_INF; n + 1];
        let mut any_live = false;
        let mut s_left = NEG_INF;
        let mut i_left = NEG_INF;
        for j in 0..=n {
            let i_val = (s_left + so_se).max(i_left + se);
            let d_val = (s_prev[j] + so_se).max(d_prev[j] + se);
            let diag_val = if j >= 1 {
                s_prev[j - 1] + scoring.subst.score(target[j - 1], query[i - 1])
            } else {
                NEG_INF
            };
            let s_val = diag_val.max(i_val).max(d_val);

            let threshold = match mode {
                PruneMode::Exact => running_best - ydrop,
                PruneMode::Conservative => row_start_best - ydrop,
            };
            let dead = s_val < threshold && i_val < threshold && d_val < threshold;
            if dead {
                s_left = NEG_INF;
                i_left = NEG_INF;
                continue; // row buffers already hold NEG_INF
            }
            any_live = true;
            // Same NEG_INF floor clamp as the engines.
            let (s_c, i_c, d_c) = (s_val, i_val.max(NEG_INF), d_val.max(NEG_INF));
            s_row[j] = s_c;
            d_row[j] = d_c;
            live.push((
                i,
                j,
                CellScores {
                    s: s_c,
                    i: i_c,
                    d: d_c,
                },
            ));
            if s_c > best_score {
                best_score = s_c;
                best_i = i;
                best_j = j;
            }
            if s_c > running_best {
                running_best = s_c;
            }
            s_left = s_c;
            i_left = i_c;
        }
        if !any_live {
            break;
        }
        rows = i + 1;
        s_prev = s_row;
        d_prev = d_row;
    }

    OracleRun {
        best_score,
        best_i,
        best_j,
        live,
        rows,
    }
}

/// Result of the dense edit-distance (unit-cost) oracle.
///
/// This is the reference the bitvector backend is checked against: the
/// full `(m+1)×(n+1)` Levenshtein matrix, written the boring way, plus
/// the best cell under the unit-cost *score* identity
/// `score(i, j) = (i + j) − 3·ED(i, j)` (+2 per match, −1 per
/// mismatch, −2 per gap base — exactly the regime the bitvector engine
/// optimizes, and exactly what the affine engine computes under
/// [`crate::unit_scoring`]).
#[derive(Clone, Debug)]
pub struct EditOracleRun {
    /// `(m+1)·(n+1)` distances, row-major (`i` = query rows).
    dist: Vec<u32>,
    /// Row stride (`n + 1`).
    cols: usize,
    /// Best unit-cost score over all cells (the origin scores 0, so
    /// this is never negative).
    pub best_score: i32,
    /// Query bases consumed at the best cell.
    pub best_i: usize,
    /// Target bases consumed at the best cell.
    pub best_j: usize,
}

impl EditOracleRun {
    /// Edit distance of the `(i, j)` prefix pair.
    pub fn ed(&self, i: usize, j: usize) -> u32 {
        self.dist[i * self.cols + j]
    }

    /// Unit-cost score of the `(i, j)` prefix pair.
    pub fn unit_score(&self, i: usize, j: usize) -> i32 {
        (i + j) as i32 - 3 * self.ed(i, j) as i32
    }
}

/// Runs the dense unit-cost edit-distance DP over codes. A match is
/// equal codes below `N`, as in the bitvector engine: `N` matches
/// nothing, not even `N`. Intended for bounded inputs; the suite caps
/// `m·n` before calling.
pub fn edit_oracle(target: &[u8], query: &[u8]) -> EditOracleRun {
    let n = target.len();
    let m = query.len();
    let cols = n + 1;
    let mut dist = vec![0u32; (m + 1) * cols];
    for (j, slot) in dist[..cols].iter_mut().enumerate() {
        *slot = j as u32;
    }
    let mut best_score = 0i32;
    let (mut best_i, mut best_j) = (0usize, 0usize);
    for i in 1..=m {
        dist[i * cols] = i as u32;
        for j in 1..=n {
            let t = target[j - 1];
            let sub = u32::from(t >= N_CODE || t != query[i - 1]);
            let d = (dist[(i - 1) * cols + j - 1] + sub)
                .min(dist[(i - 1) * cols + j] + 1)
                .min(dist[i * cols + j - 1] + 1);
            dist[i * cols + j] = d;
            let score = (i + j) as i32 - 3 * d as i32;
            if score > best_score {
                best_score = score;
                best_i = i;
                best_j = j;
            }
        }
    }
    EditOracleRun {
        dist,
        cols,
        best_score,
        best_i,
        best_j,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastz_genome::{GapPenalties, Sequence, SubstMatrix};

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

    fn codes(s: &[u8]) -> Vec<u8> {
        Sequence::from_ascii("x", s).unwrap().codes().to_vec()
    }

    #[test]
    fn perfect_match_scores_full_length() {
        let t = codes(b"ACGTACGTAC");
        let r = oracle_extend(&t, &t, &scoring(), PruneMode::Exact);
        assert_eq!(r.best_score, 100);
        assert_eq!((r.best_i, r.best_j), (10, 10));
    }

    #[test]
    fn gap_is_bridged_like_the_engine() {
        let t = codes(b"ACGTACTTACGTAC");
        let q = codes(b"ACGTACACGTAC");
        let r = oracle_extend(&t, &q, &scoring(), PruneMode::Exact);
        assert_eq!(r.best_score, 80); // 12 matches − (30 + 2·5)
        assert_eq!((r.best_i, r.best_j), (12, 14));
    }

    #[test]
    fn edit_oracle_matches_hand_counts() {
        let t = codes(b"ACGTACGT");
        let r = edit_oracle(&t, &t);
        assert_eq!(r.ed(8, 8), 0);
        assert_eq!(r.best_score, 16); // 8 matches · +2
        assert_eq!((r.best_i, r.best_j), (8, 8));

        // One substitution: ED(8,8) = 1, best full-length score 16−3.
        let q = codes(b"ACGAACGT");
        let r = edit_oracle(&t, &q);
        assert_eq!(r.ed(8, 8), 1);
        assert_eq!(r.unit_score(8, 8), 13);

        // One deletion from the query: kitten-style banding sanity.
        let q = codes(b"ACGTCGT");
        let r = edit_oracle(&t, &q);
        assert_eq!(r.ed(7, 8), 1);
    }

    #[test]
    fn edit_oracle_agrees_with_affine_unit_regime() {
        // Under unit scoring the affine DP and the edit identity must
        // produce the same best score: the overlap-domain contract in
        // miniature.
        let t = codes(b"ACGTACGTTTACGGACGTAC");
        let q = codes(b"ACGTACGAAACGGACGTTAC");
        let unit = crate::unit_scoring();
        let affine = oracle_extend(&t, &q, &unit, PruneMode::Exact);
        let edit = edit_oracle(&t, &q);
        assert_eq!(affine.best_score, edit.best_score);
    }

    #[test]
    fn edit_oracle_counts_n_as_an_edit_like_the_affine_unit_regime() {
        // `N` matches nothing, not even `N`: the unit substitution
        // matrix scores it −1, and the edit oracle must agree.
        let t = codes(b"ACGTNNACGTACGNACGTAC");
        let q = codes(b"ACGTNNACGTACGTACGNAC");
        let edit = edit_oracle(&t, &t);
        assert_eq!(edit.ed(20, 20), 3);
        assert_eq!(edit.unit_score(20, 20), 40 - 9);
        let unit = crate::unit_scoring();
        for (a, b) in [(&t, &t), (&t, &q), (&q, &t)] {
            let affine = oracle_extend(a, b, &unit, PruneMode::Exact);
            assert_eq!(affine.best_score, edit_oracle(a, b).best_score);
        }
    }

    #[test]
    fn conservative_is_a_superset_of_exact() {
        let t = codes(b"ACGTACGTTTACGGACGTACCGTAACGT");
        let q = codes(b"ACGTACGTAAACGGACGTACGGTAACGA");
        let e = oracle_extend(&t, &q, &scoring(), PruneMode::Exact);
        let c = oracle_extend(&t, &q, &scoring(), PruneMode::Conservative);
        assert!(c.live.len() >= e.live.len());
        assert!(c.best_score >= e.best_score);
    }
}
