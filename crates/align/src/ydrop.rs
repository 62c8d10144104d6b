//! One-sided gapped y-drop extension (the scalar reference engine).
//!
//! This is the CPU equivalent of LASTZ's `ydrop_one_sided_align`, the
//! function the paper measures at > 99.75 % of gapped LASTZ's runtime.
//! An extension starts at an anchor boundary (matrix origin), explores the
//! DP matrix of the Gotoh affine-gap recurrences (paper Fig. 1), prunes
//! cells whose score trails the best score seen so far by more than
//! `ydrop`, and reports the best-scoring cell plus (optionally) the
//! traceback to it.
//!
//! Two pruning modes are provided:
//!
//! * [`PruneMode::Exact`] — LASTZ's sequential rule: the pruning threshold
//!   tracks the *running* best score, updated cell by cell.
//! * [`PruneMode::Conservative`] — the parallel-safe approximation used by
//!   FastZ and Darwin-WGA (paper §3.4): the threshold uses only scores
//!   from *completed* rows, so pruning decisions never depend on values
//!   still being computed concurrently. This explores a superset of the
//!   exact mode's cells and can only find an equal or higher score.

use crate::alignment::EditOp;
use crate::score;
use crate::trace::{CellScores, CellSink, NoTrace};
use fastz_genome::Scoring;

/// Sentinel for unreachable DP states; low enough that adding any score
/// never overflows, high enough that two adds stay negative.
///
/// Overflow discipline: every value the engine *stores* is clamped to at
/// least `NEG_INF` (see the store sites below), so any single addition of
/// a stored value and a bounded score constant stays far above
/// `i32::MIN`. Without the clamp, a long dead I/D chain accumulates
/// `NEG_INF + k·extend_score` and would wrap after ~3·10⁸ columns.
pub const NEG_INF: i32 = i32::MIN / 4;

/// Pruning rule (see module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PruneMode {
    /// LASTZ's sequential running-best pruning.
    Exact,
    /// Parallel-safe previous-row-best pruning (FastZ / Darwin-WGA).
    Conservative,
}

/// Work statistics for one extension (feed the cost models and Table 2).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ExtensionStats {
    /// DP cells computed (the search space, not the optimal alignment).
    pub cells: u64,
    /// Rows explored (query extent of the search space).
    pub rows: usize,
    /// Maximum target extent (columns) explored in any row.
    pub max_cols: usize,
}

/// Result of a one-sided extension.
#[derive(Clone, Debug)]
pub struct OneSidedExtension {
    /// Best score found (≥ 0; the origin scores 0).
    pub best_score: i32,
    /// Query bases consumed at the best cell.
    pub best_i: usize,
    /// Target bases consumed at the best cell.
    pub best_j: usize,
    /// Edit script from the origin to the best cell (present when
    /// traceback was requested). Ops are in forward order.
    pub ops: Option<Vec<EditOp>>,
    /// Search-space statistics.
    pub stats: ExtensionStats,
}

/// Packed traceback byte layout (paper §3.1.3: 1+1+2 bits in one byte).
pub mod tb {
    /// Mask for the S-choice field (bits 0-1).
    pub const S_MASK: u8 = 0b0011;
    /// S came from the diagonal (match/substitution).
    pub const S_DIAG: u8 = 0;
    /// S came from the I (horizontal gap) matrix.
    pub const S_FROM_I: u8 = 1;
    /// S came from the D (vertical gap) matrix.
    pub const S_FROM_D: u8 = 2;
    /// Origin / unreachable.
    pub const S_ORIGIN: u8 = 3;
    /// I extended an existing gap (bit 2); otherwise it opened from S.
    pub const I_EXTEND: u8 = 0b0100;
    /// D extended an existing gap (bit 3); otherwise it opened from S.
    pub const D_EXTEND: u8 = 0b1000;
}

/// One row of the ragged traceback matrix.
#[derive(Clone, Debug)]
struct TbRow {
    /// First column stored in this row.
    lo: usize,
    /// Packed bytes for columns `lo .. lo + bytes.len()`.
    bytes: Vec<u8>,
}

/// Ragged traceback matrix for the explored region.
#[derive(Clone, Debug, Default)]
pub struct Traceback {
    rows: Vec<TbRow>,
}

impl Traceback {
    pub(crate) fn push_row(&mut self, lo: usize, bytes: Vec<u8>) {
        self.rows.push(TbRow { lo, bytes });
    }

    /// The packed byte at `(i, j)`; `S_ORIGIN` outside the stored region.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> u8 {
        match self.rows.get(i) {
            Some(row) if j >= row.lo && j - row.lo < row.bytes.len() => row.bytes[j - row.lo],
            _ => tb::S_ORIGIN,
        }
    }
}

/// Walks a packed traceback from `(i, j)` back to the origin, returning
/// forward-ordered, run-length-merged edit ops. `get` is the packed-byte
/// source: a [`Traceback`], the warp engine's shared-memory eager window
/// or the executor's trimmed matrix.
pub fn walk_traceback_with(
    get: impl Fn(usize, usize) -> u8,
    mut i: usize,
    mut j: usize,
) -> Vec<EditOp> {
    #[derive(PartialEq)]
    enum State {
        S,
        I,
        D,
    }
    let mut state = State::S;
    let mut rev: Vec<EditOp> = Vec::new();
    let push = |rev: &mut Vec<EditOp>, op: EditOp| match (rev.last_mut(), op) {
        (Some(EditOp::Diag(a)), EditOp::Diag(b)) => *a += b,
        (Some(EditOp::GapQ(a)), EditOp::GapQ(b)) => *a += b,
        (Some(EditOp::GapT(a)), EditOp::GapT(b)) => *a += b,
        _ => rev.push(op),
    };
    while i > 0 || j > 0 {
        let byte = get(i, j);
        match state {
            State::S => match byte & tb::S_MASK {
                tb::S_DIAG => {
                    assert!(i > 0 && j > 0, "diagonal move out of bounds at ({i},{j})");
                    push(&mut rev, EditOp::Diag(1));
                    i -= 1;
                    j -= 1;
                }
                tb::S_FROM_I => state = State::I,
                tb::S_FROM_D => state = State::D,
                _ => panic!("traceback hit an unreachable cell at ({i},{j})"),
            },
            State::I => {
                assert!(j > 0, "I move out of bounds at ({i},{j})");
                push(&mut rev, EditOp::GapQ(1));
                let extend = byte & tb::I_EXTEND != 0;
                j -= 1;
                if !extend {
                    state = State::S;
                }
            }
            State::D => {
                assert!(i > 0, "D move out of bounds at ({i},{j})");
                push(&mut rev, EditOp::GapT(1));
                let extend = byte & tb::D_EXTEND != 0;
                i -= 1;
                if !extend {
                    state = State::S;
                }
            }
        }
    }
    rev.reverse();
    rev
}

/// Scratch buffers reused across extensions (the drivers run millions of
/// extensions; reallocating three score rows per call would dominate).
#[derive(Default)]
pub struct YDropScratch {
    s_prev: Vec<i32>,
    d_prev: Vec<i32>,
    s_cur: Vec<i32>,
    d_cur: Vec<i32>,
}

/// Runs one-sided y-drop extension of `query` against `target` (both are
/// the suffix slices in the extension direction; the caller reverses them
/// for leftward extension).
pub fn ydrop_extend(
    target: &[u8],
    query: &[u8],
    scoring: &Scoring,
    mode: PruneMode,
    want_traceback: bool,
) -> OneSidedExtension {
    ydrop_extend_traced(
        target,
        query,
        scoring,
        mode,
        want_traceback,
        &mut YDropScratch::default(),
        &mut NoTrace,
    )
}

/// [`ydrop_extend`] with caller-provided scratch buffers that
/// additionally reports every live cell to `sink` (the conformance
/// oracle's cell-for-cell hook; [`NoTrace`] compiles the calls away on
/// the production path).
pub fn ydrop_extend_traced<K: CellSink>(
    target: &[u8],
    query: &[u8],
    scoring: &Scoring,
    mode: PruneMode,
    want_traceback: bool,
    scratch: &mut YDropScratch,
    sink: &mut K,
) -> OneSidedExtension {
    let so_se = scoring.gaps.open_score();
    let se = scoring.gaps.extend_score();
    let ydrop = scoring.ydrop;

    let n = target.len(); // columns (j consumes target)
    let m = query.len(); // rows (i consumes query)

    let mut best_score = 0i32;
    let mut best_i = 0usize;
    let mut best_j = 0usize;
    let mut stats = ExtensionStats::default();
    let mut tbm = Traceback::default();

    // ---- Row 0: pure I chain along the target. -------------------------
    // prev-row state: S and D values over [prev_lo, prev_hi).
    let mut s_prev = std::mem::take(&mut scratch.s_prev);
    let mut d_prev = std::mem::take(&mut scratch.d_prev);
    let mut s_cur_buf = std::mem::take(&mut scratch.s_cur);
    let mut d_cur_buf = std::mem::take(&mut scratch.d_cur);
    s_prev.clear();
    d_prev.clear();
    let mut prev_lo = 0usize;

    {
        let mut tb_row: Vec<u8> = Vec::new();
        let mut i_val = NEG_INF;
        let mut s_val;
        let mut j = 0usize;
        loop {
            if j == 0 {
                s_val = 0;
                if want_traceback {
                    tb_row.push(tb::S_ORIGIN);
                }
            } else {
                i_val = if j == 1 {
                    so_se
                } else {
                    score::add_clamped(i_val, se)
                };
                s_val = i_val;
                if want_traceback {
                    let mut byte = tb::S_FROM_I;
                    if j > 1 {
                        byte |= tb::I_EXTEND;
                    }
                    tb_row.push(byte);
                }
            }
            stats.cells += 1;
            sink.record(
                0,
                j,
                CellScores {
                    s: s_val,
                    i: i_val,
                    d: NEG_INF,
                },
            );
            s_prev.push(s_val);
            d_prev.push(NEG_INF);
            j += 1;
            // Row 0's threshold: best score so far is 0 in both modes.
            if j > n || (j >= 1 && score::gap_chain(so_se, se, j as i32 - 1) < -ydrop) {
                break;
            }
        }
        stats.rows = 1;
        stats.max_cols = s_prev.len();
        if want_traceback {
            tbm.push_row(0, tb_row);
        }
    }
    let mut prev_hi = s_prev.len(); // exclusive

    // ---- Rows 1..  ------------------------------------------------------
    let mut i = 1usize;
    while i <= m && prev_lo < prev_hi {
        let best_ref = best_score; // snapshot: Conservative uses this all row
        let mut running_best = best_score;
        let threshold_base = match mode {
            PruneMode::Exact => 0, // recomputed per cell from running_best
            PruneMode::Conservative => best_ref - ydrop,
        };

        let s_cur = &mut s_cur_buf;
        let d_cur = &mut d_cur_buf;
        s_cur.clear();
        d_cur.clear();
        let mut tb_row: Vec<u8> = Vec::new();

        let lo = prev_lo;
        let mut row_first_live: Option<usize> = None;
        let mut row_last_live = 0usize;
        let mut i_left = NEG_INF; // I[i][j-1]
        let mut s_left = NEG_INF; // S[i][j-1]
        let mut j = lo;
        loop {
            // Inputs from the previous row. A column maps into the stored
            // interval iff `prev_lo <= col < prev_hi`; `checked_sub`
            // makes the underflowing cases (`col < prev_lo`, or the
            // diagonal into column 0) explicit instead of relying on
            // wrapped indices being out of range.
            debug_assert!(prev_lo <= prev_hi);
            let prev_idx = |col: usize| col.checked_sub(prev_lo).filter(|&k| k < prev_hi - prev_lo);
            let (s_up, d_up) = match prev_idx(j) {
                Some(k) => (s_prev[k], d_prev[k]),
                None => (NEG_INF, NEG_INF),
            };
            let s_diag = match j.checked_sub(1).and_then(prev_idx) {
                Some(k) => s_prev[k],
                None => NEG_INF, // no diagonal into column 0 / outside interval
            };

            // Gotoh recurrences (paper Fig. 1).
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

            // Pruning.
            let threshold = match mode {
                PruneMode::Exact => running_best - ydrop,
                PruneMode::Conservative => threshold_base,
            };
            let dead = s_val < threshold && i_val < threshold && d_val < threshold;
            let (s_store, i_store, d_store) = if dead {
                (NEG_INF, NEG_INF, NEG_INF)
            } else {
                // A live cell's S is a real path score (it is >= the
                // threshold, which is >= -ydrop), but its I/D may still
                // be sentinel-derived garbage; clamp those at the
                // NEG_INF floor so dead gap chains cannot drift toward
                // i32::MIN (see the constant's docs).
                debug_assert!(
                    s_val > NEG_INF / 2,
                    "live cell ({i},{j}) carries a sentinel-derived S value {s_val}"
                );
                (s_val, score::clamp(i_val), score::clamp(d_val))
            };
            if !dead {
                sink.record(
                    i,
                    j,
                    CellScores {
                        s: s_store,
                        i: i_store,
                        d: d_store,
                    },
                );
            }

            s_cur.push(s_store);
            d_cur.push(d_store);
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

            if !dead {
                if row_first_live.is_none() {
                    row_first_live = Some(j);
                }
                row_last_live = j;
                if s_store > best_score {
                    best_score = s_store;
                    best_i = i;
                    best_j = j;
                }
                if s_store > running_best {
                    running_best = s_store;
                }
            }

            s_left = s_store;
            i_left = i_store;

            j += 1;
            if j > n {
                break;
            }
            // Past the previous row's interval only the I chain feeds new
            // cells; stop once it cannot recover above the threshold.
            if j > prev_hi {
                let threshold = match mode {
                    PruneMode::Exact => running_best - ydrop,
                    PruneMode::Conservative => threshold_base,
                };
                if i_left < threshold && s_left < threshold {
                    break;
                }
            }
        }

        let Some(first_live) = row_first_live else {
            break; // entire row pruned → extension terminates
        };

        if want_traceback {
            tbm.push_row(lo, tb_row);
        }
        stats.rows = i + 1;
        stats.max_cols = stats.max_cols.max(j);

        // Shrink the stored interval to the live cells for the next row.
        let hi = row_last_live + 1;
        let drop_left = first_live - lo;
        std::mem::swap(&mut s_prev, &mut s_cur_buf);
        std::mem::swap(&mut d_prev, &mut d_cur_buf);
        if drop_left > 0 {
            s_prev.drain(..drop_left);
            d_prev.drain(..drop_left);
        }
        s_prev.truncate(hi - first_live);
        d_prev.truncate(hi - first_live);
        prev_lo = first_live;
        prev_hi = hi;
        i += 1;
    }

    scratch.s_prev = s_prev;
    scratch.d_prev = d_prev;
    scratch.s_cur = s_cur_buf;
    scratch.d_cur = d_cur_buf;
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
    use fastz_genome::{Scoring, Sequence, SubstMatrix};

    fn codes(s: &[u8]) -> Vec<u8> {
        Sequence::from_ascii("x", s).unwrap().codes().to_vec()
    }

    fn simple_scoring() -> Scoring {
        let mut s = Scoring::lastz_default();
        s.subst = SubstMatrix::match_mismatch(10, -15);
        s.gaps = fastz_genome::GapPenalties::new(30, 5);
        s.ydrop = 100;
        s
    }

    #[test]
    fn empty_inputs_yield_origin() {
        let s = simple_scoring();
        for mode in [PruneMode::Exact, PruneMode::Conservative] {
            let r = ydrop_extend(&[], &[], &s, mode, true);
            assert_eq!(r.best_score, 0);
            assert_eq!((r.best_i, r.best_j), (0, 0));
            assert_eq!(r.ops.as_deref(), Some(&[][..]));
        }
    }

    #[test]
    fn perfect_match_extends_fully() {
        let s = simple_scoring();
        let t = codes(b"ACGTACGTAC");
        let r = ydrop_extend(&t, &t, &s, PruneMode::Exact, true);
        assert_eq!(r.best_score, 100);
        assert_eq!((r.best_i, r.best_j), (10, 10));
        assert_eq!(r.ops.unwrap(), vec![EditOp::Diag(10)]);
    }

    #[test]
    fn mismatch_tail_is_not_included() {
        let s = simple_scoring();
        let t = codes(b"ACGTACGTCCCCCCCC");
        let q = codes(b"ACGTACGTGGGGGGGG");
        let r = ydrop_extend(&t, &q, &s, PruneMode::Exact, true);
        assert_eq!(r.best_score, 80);
        assert_eq!((r.best_i, r.best_j), (8, 8));
        assert_eq!(r.ops.unwrap(), vec![EditOp::Diag(8)]);
    }

    #[test]
    fn single_gap_is_bridged() {
        let s = simple_scoring();
        // query lacks 2 bases present in target: 6M 2D 6M.
        let t = codes(b"ACGTACTTACGTAC");
        let q = codes(b"ACGTACACGTAC");
        let r = ydrop_extend(&t, &q, &s, PruneMode::Exact, true);
        // 12 matches − (30 + 2·5) = 120 − 40 = 80.
        assert_eq!(r.best_score, 80);
        assert_eq!((r.best_i, r.best_j), (12, 14));
        assert_eq!(
            r.ops.unwrap(),
            vec![EditOp::Diag(6), EditOp::GapQ(2), EditOp::Diag(6)]
        );
    }

    #[test]
    fn gap_in_other_direction() {
        let s = simple_scoring();
        let t = codes(b"ACGTACACGTAC");
        let q = codes(b"ACGTACTTACGTAC");
        let r = ydrop_extend(&t, &q, &s, PruneMode::Exact, true);
        assert_eq!(r.best_score, 80);
        assert_eq!(
            r.ops.unwrap(),
            vec![EditOp::Diag(6), EditOp::GapT(2), EditOp::Diag(6)]
        );
    }

    #[test]
    fn ydrop_terminates_search_quickly() {
        let s = simple_scoring();
        // After an 8-bp match, pure garbage: exploration must stop well
        // before the end of the 2000-bp tail.
        let mut t = codes(b"ACGTACGT");
        let mut q = t.clone();
        t.extend(codes(&vec![b'C'; 2000]));
        q.extend(codes(&vec![b'G'; 2000]));
        let r = ydrop_extend(&t, &q, &s, PruneMode::Exact, false);
        assert_eq!(r.best_score, 80);
        assert!(r.stats.rows < 100, "explored {} rows", r.stats.rows);
        assert!(r.stats.cells < 20_000, "computed {} cells", r.stats.cells);
    }

    #[test]
    fn conservative_explores_superset() {
        let s = simple_scoring();
        let t = codes(b"ACGTACGTTTACGGACGTACCGTAACGT");
        let q = codes(b"ACGTACGTAAACGGACGTACGGTAACGA");
        let exact = ydrop_extend(&t, &q, &s, PruneMode::Exact, false);
        let cons = ydrop_extend(&t, &q, &s, PruneMode::Conservative, false);
        assert!(cons.stats.cells >= exact.stats.cells);
        assert!(cons.best_score >= exact.best_score);
    }

    #[test]
    fn traceback_rescores_to_reported_score() {
        let s = simple_scoring();
        let t = codes(b"ACGTTACGGACGTACCGTAACGTACGTACGT");
        let q = codes(b"ACGTACGGACGTACGGTAACGTAACGTACGT");
        for mode in [PruneMode::Exact, PruneMode::Conservative] {
            let r = ydrop_extend(&t, &q, &s, mode, true);
            let ops = r.ops.clone().unwrap();
            // Re-score the edit script directly.
            let (mut ti, mut qi, mut score) = (0usize, 0usize, 0i32);
            for op in &ops {
                match *op {
                    EditOp::Diag(k) => {
                        for _ in 0..k {
                            score += s.subst.score(t[ti], q[qi]);
                            ti += 1;
                            qi += 1;
                        }
                    }
                    EditOp::GapQ(k) => {
                        score -= s.gaps.gap_cost(k as usize);
                        ti += k as usize;
                    }
                    EditOp::GapT(k) => {
                        score -= s.gaps.gap_cost(k as usize);
                        qi += k as usize;
                    }
                }
            }
            assert_eq!(ti, r.best_j, "{mode:?}");
            assert_eq!(qi, r.best_i, "{mode:?}");
            assert_eq!(score, r.best_score, "{mode:?}");
        }
    }

    #[test]
    fn extension_is_clipped_at_sequence_ends() {
        let s = simple_scoring();
        let t = codes(b"ACG");
        let q = codes(b"ACGTACGT");
        let r = ydrop_extend(&t, &q, &s, PruneMode::Exact, true);
        assert_eq!(r.best_score, 30);
        assert_eq!((r.best_i, r.best_j), (3, 3));
    }

    #[test]
    fn n_bases_block_extension() {
        let s = Scoring {
            ydrop: 100,
            ..Scoring::lastz_default()
        };
        let t = codes(b"ACGTACGTNNNNACGTACGT");
        let q = codes(b"ACGTACGTNNNNACGTACGT");
        let r = ydrop_extend(&t, &q, &s, PruneMode::Exact, false);
        // N scores −1000 each; y-drop 100 kills the extension at the Ns.
        assert_eq!(r.best_i, 8);
    }

    #[test]
    fn scratch_reuse_is_equivalent() {
        let s = simple_scoring();
        let t = codes(b"ACGTTACGGACGTAC");
        let q = codes(b"ACGTACGGACGTAAC");
        let mut scratch = YDropScratch::default();
        let mut run = || {
            ydrop_extend_traced(
                &t,
                &q,
                &s,
                PruneMode::Exact,
                true,
                &mut scratch,
                &mut NoTrace,
            )
        };
        let (a, b) = (run(), run());
        assert_eq!(a.best_score, b.best_score);
        assert_eq!(a.ops, b.ops);
    }

    #[test]
    fn stats_are_populated() {
        let s = simple_scoring();
        let t = codes(b"ACGTACGTACGTACGT");
        let r = ydrop_extend(&t, &t, &s, PruneMode::Exact, false);
        assert!(r.stats.cells as usize >= t.len());
        assert_eq!(r.stats.rows, t.len() + 1);
        assert!(r.stats.max_cols >= t.len());
    }
}
