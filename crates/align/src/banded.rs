//! Banded Smith-Waterman extension (the Darwin-WGA heuristic baseline).
//!
//! Darwin-WGA bounds the search space to a fixed-width band around the
//! seed diagonal (paper §2.1/§2.3). The band makes the work per seed
//! O(rows × band) but can miss optimal alignments whose path strays more
//! than `band` cells off-diagonal — the reason FastZ pursues the exact
//! (unbanded) y-drop search instead. We implement it both as a comparison
//! baseline and to demonstrate that miss in tests.

use crate::score;
use crate::ydrop::{
    tb, walk_traceback_with, ExtensionStats, OneSidedExtension, Traceback, NEG_INF,
};
use fastz_genome::Scoring;

/// One-sided banded extension: explores only cells with `|j - i| <= band`,
/// still y-drop terminated row-wise.
pub fn banded_extend(
    target: &[u8],
    query: &[u8],
    band: usize,
    scoring: &Scoring,
    want_traceback: bool,
) -> OneSidedExtension {
    let so_se = scoring.gaps.open_score();
    let se = scoring.gaps.extend_score();
    let n = target.len();
    let m = query.len();

    let mut best_score = 0i32;
    let (mut best_i, mut best_j) = (0usize, 0usize);
    let mut stats = ExtensionStats::default();
    let mut tbm = Traceback::default();

    // Row storage over the band window of the previous row.
    let mut prev_lo = 0usize;
    let mut s_prev: Vec<i32> = Vec::new();
    let mut d_prev: Vec<i32> = Vec::new();

    // Row 0: I chain out to the band edge.
    {
        let hi0 = n.min(band) + 1;
        let mut tb_row = Vec::new();
        for j in 0..hi0 {
            let s_val = if j == 0 {
                if want_traceback {
                    tb_row.push(tb::S_ORIGIN);
                }
                0
            } else {
                let i_val = score::gap_chain(so_se, se, j as i32 - 1);
                if want_traceback {
                    let mut byte = tb::S_FROM_I;
                    if j > 1 {
                        byte |= tb::I_EXTEND;
                    }
                    tb_row.push(byte);
                }
                i_val
            };
            stats.cells += 1;
            s_prev.push(s_val);
            d_prev.push(NEG_INF);
        }
        stats.rows = 1;
        stats.max_cols = hi0;
        if want_traceback {
            tbm.push_row(0, tb_row);
        }
    }

    for i in 1..=m {
        let lo = i.saturating_sub(band);
        let hi = n.min(i + band) + 1;
        if lo >= hi {
            break;
        }
        let threshold = score::add_clamped(best_score, -scoring.ydrop);
        let mut s_cur = Vec::with_capacity(hi - lo);
        let mut d_cur = Vec::with_capacity(hi - lo);
        let mut tb_row = Vec::new();
        let mut any_live = false;
        let mut i_left = NEG_INF;
        let mut s_left = NEG_INF;
        for j in lo..hi {
            let fetch_prev = |col: usize| -> (i32, i32) {
                if col >= prev_lo && col - prev_lo < s_prev.len() {
                    (s_prev[col - prev_lo], d_prev[col - prev_lo])
                } else {
                    (NEG_INF, NEG_INF)
                }
            };
            let (s_up, d_up) = fetch_prev(j);
            let s_diag = if j >= 1 { fetch_prev(j - 1).0 } else { NEG_INF };

            // fastz-lint: allow(clamped-score-arith, Gotoh recurrence adds
            // stay raw by contract — operands are clamped stored values and
            // clamping here could flip the `ext >= open` tie-break at the
            // sentinel floor; see crate::score module docs)
            let (i_val, i_ext) = {
                let open = s_left + so_se;
                let ext = i_left + se;
                if ext >= open {
                    (ext, true)
                } else {
                    (open, false)
                }
            };
            let (d_val, d_ext) = {
                let open = s_up + so_se;
                let ext = d_up + se;
                if ext >= open {
                    (ext, true)
                } else {
                    (open, false)
                }
            };
            let diag_val = if j >= 1 {
                s_diag + scoring.subst.score(target[j - 1], query[i - 1])
            } else {
                NEG_INF
            };
            let (mut s_val, mut s_src) = (diag_val, tb::S_DIAG);
            if i_val > s_val {
                s_val = i_val;
                s_src = tb::S_FROM_I;
            }
            if d_val > s_val {
                s_val = d_val;
                s_src = tb::S_FROM_D;
            }
            stats.cells += 1;

            let dead = s_val < threshold && i_val < threshold && d_val < threshold;
            let (s_store, i_store, d_store) = if dead {
                (NEG_INF, NEG_INF, NEG_INF)
            } else {
                // A live cell's I/D may still be sentinel-derived; clamp
                // at the NEG_INF floor so dead gap chains cannot drift
                // toward i32::MIN across rows (the PR 1 ydrop fix, which
                // this banded baseline had missed).
                (s_val, score::clamp(i_val), score::clamp(d_val))
            };
            if !dead {
                any_live = true;
                if s_store > best_score {
                    best_score = s_store;
                    best_i = i;
                    best_j = j;
                }
            }
            if want_traceback {
                let mut byte = if dead || s_val <= NEG_INF / 2 {
                    tb::S_ORIGIN
                } else {
                    s_src
                };
                if i_ext {
                    byte |= tb::I_EXTEND;
                }
                if d_ext {
                    byte |= tb::D_EXTEND;
                }
                tb_row.push(byte);
            }
            s_cur.push(s_store);
            d_cur.push(d_store);
            s_left = s_store;
            i_left = i_store;
        }
        if !any_live {
            break;
        }
        stats.rows = i + 1;
        stats.max_cols = stats.max_cols.max(hi);
        if want_traceback {
            tbm.push_row(lo, tb_row);
        }
        prev_lo = lo;
        s_prev = s_cur;
        d_prev = d_cur;
    }

    let ops = want_traceback.then(|| walk_traceback_with(|i, j| tbm.get(i, j), best_i, best_j));
    OneSidedExtension {
        best_score,
        best_i,
        best_j,
        ops,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::alignment::EditOp;
    use crate::ydrop::{ydrop_extend, PruneMode};
    use fastz_genome::{GapPenalties, Sequence, SubstMatrix};

    fn codes(s: &[u8]) -> Vec<u8> {
        Sequence::from_ascii("x", s).unwrap().codes().to_vec()
    }

    fn scoring() -> Scoring {
        Scoring {
            subst: SubstMatrix::match_mismatch(10, -15),
            gaps: GapPenalties::new(30, 5),
            ydrop: 150,
            xdrop: 40,
            hsp_threshold: 50,
            gapped_threshold: 50,
        }
    }

    #[test]
    fn matches_unbanded_on_diagonal_homology() {
        let t = codes(b"ACGTACGGTACGTACGATCGAC");
        let q = codes(b"ACGTACGGTACGTACGATCGAC");
        let banded = banded_extend(&t, &q, 8, &scoring(), true);
        let exact = ydrop_extend(&t, &q, &scoring(), PruneMode::Exact, true);
        assert_eq!(banded.best_score, exact.best_score);
        assert_eq!(banded.ops, exact.ops);
    }

    #[test]
    fn band_misses_large_indel() {
        // A 12-bp insertion in the query pushes the optimum 12 cells off
        // the diagonal: a band of 4 cannot reach it, the exact engine can.
        let t = codes(b"ACGTACGTACGTACGTACGTACGT");
        let q = codes(b"ACGTACGTACGTTTTTTTTTTTTTACGTACGTACGT");
        let sc = Scoring {
            ydrop: 400,
            ..scoring()
        };
        let banded = banded_extend(&t, &q, 4, &sc, false);
        let exact = ydrop_extend(&t, &q, &sc, PruneMode::Exact, false);
        assert!(
            exact.best_score > banded.best_score,
            "exact {} vs banded {}",
            exact.best_score,
            banded.best_score
        );
    }

    #[test]
    fn banded_work_is_linear_in_band() {
        let t = codes(&b"ACGT".repeat(100));
        let narrow = banded_extend(&t, &t, 2, &scoring(), false);
        let wide = banded_extend(&t, &t, 32, &scoring(), false);
        assert!(narrow.stats.cells < wide.stats.cells);
        assert!(narrow.stats.cells < 410 * 6);
    }

    #[test]
    fn traceback_consistent() {
        let t = codes(b"ACGTAACGGTACGTAC");
        let q = codes(b"ACGTACGGTACGTTAC");
        let r = banded_extend(&t, &q, 6, &scoring(), true);
        let ops = r.ops.unwrap();
        let (mut ti, mut qi) = (0usize, 0usize);
        for op in &ops {
            match *op {
                EditOp::Diag(k) => {
                    ti += k as usize;
                    qi += k as usize;
                }
                EditOp::GapQ(k) => ti += k as usize,
                EditOp::GapT(k) => qi += k as usize,
            }
        }
        assert_eq!((ti, qi), (r.best_j, r.best_i));
    }

    #[test]
    fn empty_inputs() {
        let r = banded_extend(&[], &[], 8, &scoring(), true);
        assert_eq!(r.best_score, 0);
        assert_eq!(r.ops.unwrap(), vec![]);
    }
}
