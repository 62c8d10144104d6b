//! Cross-algorithm conformance: "algorithms agree where their
//! guarantees overlap".
//!
//! The rest of the suite checks that *engines implementing the same
//! algorithm* agree (scalar vs warp vs pipeline, interpreter vs SIMD).
//! This module checks a stronger, narrower contract between two
//! *different algorithms*: affine-gap y-drop extension and
//! GenASM/Scrooge-style bitvector edit alignment.
//!
//! The contract, exactly as the drill asserts it:
//!
//! 1. **Script self-consistency** (every case, every config): the
//!    bitvector's returned edit script, re-walked over the inputs,
//!    reproduces its claimed consumption `(best_i, best_j)`, its
//!    claimed unit-regime score (`+2` match, `−1` mismatch, `−2` per
//!    gap base), and its claimed edit count — and the score is never
//!    negative (the origin scores 0).
//! 2. **Exact agreement on the unit-cost overlap domain**: on a prefix
//!    subcase small enough that one 64-row window with edit budget
//!    `k = 63` covers every cell that could carry the optimum
//!    (`query ≤ 48`, `target ≤ query + 56`; any cell with `ED > 63`
//!    scores below 0 there and cannot win), three independent
//!    algorithms must produce the *same best score*: the bitvector
//!    engine, the dense edit-distance oracle through the identity
//!    `score(i,j) = (i+j) − 3·ED(i,j)`, and the affine Gotoh oracle
//!    under [`crate::unit_scoring`] (where every path scores exactly
//!    `(i+j) − 3·ED_path`).
//! 3. **Bounded divergence elsewhere** (full case, dense oracles capped
//!    at `(m+1)·(n+1) ≤ 2^19` cells): where the algorithms' guarantees
//!    do not overlap, only inequalities hold, and the drill asserts
//!    each one:
//!    * `windowed bitvector ≤ dense unit optimum` — the greedy window
//!      chain emits a real alignment path, so its unit score cannot
//!      exceed `max_{i,j} (i+j) − 3·ED(i,j)`;
//!    * `y-drop ≤ unpruned affine` — pruning only loses score;
//!    * `affine(bitvector script) ≤ unpruned affine` — the bitvector's
//!      script re-scored under the affine matrix is one path of the
//!      affine DP;
//!    * `unpruned affine best ≤ (M·(i+j) − c₂·ED(i,j)) / 2` at its own
//!      best cell, with `M` the best substitution score and
//!      `c₂ = min(2·(M − X̂), M + 2E)` (`X̂` = best mismatch score,
//!      `E` = gap extension): every affine path with `ED_path` edits
//!      obeys it, and `ED(i,j) ≤ ED_path`.
//!
//! The same checks double as the mutation corpus's detector: each
//! planted [`fastz_core::BitvecMutation`] must trip at least one of
//! them (see `tests/bitvec_mutation.rs`).

use crate::corpus::Case;
use crate::invariants::rescore_ops;
use crate::oracle::{edit_oracle, oracle_extend};
use crate::report::{CellDiff, Divergence};
use crate::unit_scoring;
use fastz_align::{EditOp, PruneMode};
use fastz_core::{bitvec_extend, BitvecConfig};
use fastz_genome::{Scoring, N_CODE};

/// Dense-oracle cell budget: full-case inequality checks only run when
/// `(m+1)·(n+1)` fits (fuzz cases always do; the largest bin-boundary
/// extents are covered by checks 1–2 only).
const DENSE_CELL_CAP: usize = 1 << 19;

/// Query prefix length of the exact-overlap subcase.
const OVERLAP_QUERY: usize = 48;
/// Extra target bases past the query prefix in the overlap subcase
/// (must stay ≤ `63 − 7` so a k=63 window reaches every column and no
/// `ED > 63` cell can score ≥ 0).
const OVERLAP_TARGET_SLACK: usize = 56;

fn diverge(
    case: &Case,
    invariant: &'static str,
    engines: &'static str,
    message: String,
    cell: Option<CellDiff>,
) -> Divergence {
    Divergence {
        category: case.category,
        seed: case.seed,
        invariant,
        engines,
        message,
        first_divergent_cell: cell,
    }
}

/// Re-walks an edit script under the unit-cost regime, where a match
/// is equal codes below `N`. Returns
/// `(target consumed, query consumed, unit score, edit count)`, or
/// `None` if the script runs off either sequence.
fn unit_walk(t: &[u8], q: &[u8], ops: &[EditOp]) -> Option<(usize, usize, i32, u32)> {
    let (mut ti, mut qi, mut score, mut edits) = (0usize, 0usize, 0i32, 0u32);
    for op in ops {
        match *op {
            EditOp::Diag(k) => {
                for _ in 0..k {
                    if ti >= t.len() || qi >= q.len() {
                        return None;
                    }
                    if t[ti] < N_CODE && t[ti] == q[qi] {
                        score += 2;
                    } else {
                        score -= 1;
                        edits += 1;
                    }
                    ti += 1;
                    qi += 1;
                }
            }
            EditOp::GapQ(k) => {
                ti += k as usize;
                score -= 2 * k as i32;
                edits += k;
            }
            EditOp::GapT(k) => {
                qi += k as usize;
                score -= 2 * k as i32;
                edits += k;
            }
        }
    }
    if ti > t.len() || qi > q.len() {
        return None;
    }
    Some((ti, qi, score, edits))
}

/// The `c₂` constant of the affine-vs-edit upper bound for `scoring`:
/// `affine path score ≤ (M·(i+j) − c₂·ED_path) / 2` holds per path
/// whenever `c₂ ≤ min(2·(M − X̂), M + 2E)`.
fn edit_bound_c2(scoring: &Scoring) -> (i32, i32) {
    let mut m_best = i32::MIN;
    let mut x_best = i32::MIN;
    for a in 0..5u8 {
        for b in 0..5u8 {
            let s = scoring.subst.score(a, b);
            if a == b {
                m_best = m_best.max(s);
            } else {
                x_best = x_best.max(s);
            }
        }
    }
    let e = -scoring.gaps.extend_score();
    (m_best, (2 * (m_best - x_best)).min(m_best + 2 * e))
}

/// Checks the whole cross-algorithm contract on one corpus case with
/// the given bitvector config (the mutation corpus passes planted-bug
/// configs; the suite passes the default). Returns
/// `(checks run, divergences)`.
pub fn check_bitvec_case(
    case: &Case,
    cfg: &BitvecConfig,
    scoring: &Scoring,
) -> (usize, Vec<Divergence>) {
    let mut checks = 0usize;
    let mut divergences = Vec::new();
    let t = &case.target;
    let q = &case.query;

    // ── Check 1: script self-consistency on the full case. ──────────
    let bv = bitvec_extend(t, q, cfg);
    checks += 5;
    let walk = unit_walk(t, q, &bv.ops);
    let script_in_bounds = walk.is_some();
    match walk {
        None => divergences.push(diverge(
            case,
            "bitvec-script-bounds",
            "bitvector/self",
            format!(
                "script walks off the inputs (target {} / query {})",
                t.len(),
                q.len()
            ),
            None,
        )),
        Some((ti, qi, score, edits)) => {
            if (qi, ti) != (bv.best_i, bv.best_j) {
                divergences.push(diverge(
                    case,
                    "bitvec-script-consumption",
                    "bitvector/self",
                    format!(
                        "script consumes (i={qi}, j={ti}) but the engine claims (i={}, j={})",
                        bv.best_i, bv.best_j
                    ),
                    Some(CellDiff {
                        i: qi,
                        j: ti,
                        lhs: bv.best_i as i64,
                        rhs: bv.best_j as i64,
                    }),
                ));
            }
            if score != bv.best_score {
                divergences.push(diverge(
                    case,
                    "bitvec-script-score",
                    "bitvector/self",
                    format!(
                        "script re-walks to unit score {score} but the engine claims {}",
                        bv.best_score
                    ),
                    Some(CellDiff {
                        i: bv.best_i,
                        j: bv.best_j,
                        lhs: i64::from(bv.best_score),
                        rhs: i64::from(score),
                    }),
                ));
            }
            if edits != bv.edit_distance {
                divergences.push(diverge(
                    case,
                    "bitvec-script-edits",
                    "bitvector/self",
                    format!(
                        "script carries {edits} edits but the engine claims {}",
                        bv.edit_distance
                    ),
                    None,
                ));
            }
        }
    }
    if bv.best_score < 0 {
        divergences.push(diverge(
            case,
            "bitvec-score-nonnegative",
            "bitvector/self",
            format!("best score {} below the origin's 0", bv.best_score),
            None,
        ));
    }

    // ── Check 2: exact agreement on the unit-cost overlap domain. ───
    let qlen = q.len().min(OVERLAP_QUERY);
    let tlen = t.len().min(qlen + OVERLAP_TARGET_SLACK);
    let (ot, oq) = (&t[..tlen], &q[..qlen]);
    let exact_cfg = BitvecConfig {
        window: 64,
        overlap: 16,
        k: 63,
        mutation: cfg.mutation,
    };
    let bv_exact = bitvec_extend(ot, oq, &exact_cfg);
    let edit = edit_oracle(ot, oq);
    let unit = unit_scoring();
    let affine_unit = oracle_extend(ot, oq, &unit, PruneMode::Exact);
    checks += 2;
    if edit.best_score != affine_unit.best_score {
        divergences.push(diverge(
            case,
            "unit-oracle-identity",
            "edit-oracle/affine-oracle",
            format!(
                "edit identity optimum {} vs affine unit-regime optimum {}",
                edit.best_score, affine_unit.best_score
            ),
            Some(CellDiff {
                i: edit.best_i,
                j: edit.best_j,
                lhs: i64::from(edit.best_score),
                rhs: i64::from(affine_unit.best_score),
            }),
        ));
    }
    if bv_exact.best_score != edit.best_score {
        divergences.push(diverge(
            case,
            "unit-overlap-exact",
            "bitvector/edit-oracle",
            format!(
                "single-window bitvector best {} vs dense edit-identity best {} \
                 (overlap domain {qlen}×{tlen}, k=63)",
                bv_exact.best_score, edit.best_score
            ),
            Some(CellDiff {
                i: edit.best_i,
                j: edit.best_j,
                lhs: i64::from(bv_exact.best_score),
                rhs: i64::from(edit.best_score),
            }),
        ));
    }

    // ── Check 3: bounded-divergence inequalities on the full case. ──
    if (t.len() + 1) * (q.len() + 1) <= DENSE_CELL_CAP {
        let edit_full = edit_oracle(t, q);
        let noprune_scoring = Scoring {
            ydrop: 1 << 20,
            ..scoring.clone()
        };
        let ydrop_run = oracle_extend(t, q, scoring, PruneMode::Exact);
        let noprune = oracle_extend(t, q, &noprune_scoring, PruneMode::Exact);
        checks += 4;
        if bv.best_score > edit_full.best_score {
            divergences.push(diverge(
                case,
                "bitvec-windowed-le-unit-optimum",
                "bitvector/edit-oracle",
                format!(
                    "windowed bitvector best {} exceeds the dense unit optimum {}",
                    bv.best_score, edit_full.best_score
                ),
                Some(CellDiff {
                    i: bv.best_i,
                    j: bv.best_j,
                    lhs: i64::from(bv.best_score),
                    rhs: i64::from(edit_full.best_score),
                }),
            ));
        }
        if ydrop_run.best_score > noprune.best_score {
            divergences.push(diverge(
                case,
                "ydrop-le-unpruned",
                "affine-oracle/affine-oracle",
                format!(
                    "y-drop best {} exceeds the unpruned optimum {}",
                    ydrop_run.best_score, noprune.best_score
                ),
                None,
            ));
        }
        // `rescore_ops` indexes the sequences directly, so it only runs
        // on scripts check 1 already proved in-bounds (a mutation that
        // desynchronizes the script is reported there instead).
        let affine_script = if script_in_bounds {
            rescore_ops(t, q, scoring, &bv.ops).2
        } else {
            i32::MIN
        };
        if affine_script > noprune.best_score {
            divergences.push(diverge(
                case,
                "bitvec-script-affine-le-unpruned",
                "bitvector/affine-oracle",
                format!(
                    "bitvector script re-scores to {affine_script} under the affine matrix, \
                     above the unpruned affine optimum {}",
                    noprune.best_score
                ),
                None,
            ));
        }
        let (m_best, c2) = edit_bound_c2(scoring);
        let (bi, bj) = (noprune.best_i, noprune.best_j);
        let bound_num = m_best * (bi + bj) as i32 - c2 * edit_full.ed(bi, bj) as i32;
        // `S ≤ bound_num / 2` checked as `2·S ≤ bound_num` to stay in
        // integers (bound_num may be odd).
        if 2 * noprune.best_score > bound_num {
            divergences.push(diverge(
                case,
                "affine-edit-upper-bound",
                "affine-oracle/edit-oracle",
                format!(
                    "unpruned affine best {} at (i={bi}, j={bj}) exceeds the edit-distance \
                     bound {}/2 (M={m_best}, c2={c2}, ED={})",
                    noprune.best_score,
                    bound_num,
                    edit_full.ed(bi, bj)
                ),
                Some(CellDiff {
                    i: bi,
                    j: bj,
                    lhs: i64::from(2 * noprune.best_score),
                    rhs: i64::from(bound_num),
                }),
            ));
        }
    }

    (checks, divergences)
}
