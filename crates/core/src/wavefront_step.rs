//! The per-step wavefront kernels: one anti-diagonal of the warp
//! engine's DP recurrence, factored out of the strip loop so the scalar
//! interpreter and the host-SIMD backend are two interchangeable
//! realizations of the *same* step.
//!
//! [`step_interpreter`] executes the 32 lanes one at a time — it is the
//! reference semantics, lifted verbatim from the engine's original lane
//! loop. [`step_simd`] computes the whole warp with 32-wide vector
//! operations from [`fastz_gpu_sim::lanes32`]. Everything stateful —
//! shuffles, traceback writes, counters, best-cell tracking, register
//! rotation, spill — stays in the engine and is shared by both
//! backends, so the two can only diverge inside this module; the
//! differential tests pin them together per step, field by field.
//!
//! Both kernels write deterministic values for inactive lanes
//! ([`NEG_INF`] stores, zero traceback bytes), so whole-struct equality
//! of [`StepOut`] is meaningful.
//!
//! The module also holds the whole-warp helpers the engine wraps around
//! either kernel: the per-strip `target_profile` and its
//! `profile_select` (the substitution gather as a vector select), and
//! the step reductions `reduce_max` / `first_lane_at`. Both backends
//! share them, so the step inputs and the bookkeeping over its outputs
//! are the same vector code whichever kernel runs.

use fastz_align::score;
use fastz_align::ydrop::{tb, NEG_INF};
use fastz_genome::{SubstMatrix, ALPHABET_SIZE};
use fastz_gpu_sim::{lanes32, splat, Lanes, WARP_SIZE};

/// One strip's substitution scores by query code: `profile[c][l]` scores
/// lane `l`'s target base (`strip_target[l]`) against query code `c`.
/// Lanes past the end of `strip_target` (a partial last strip) score 0;
/// they are never active.
pub(crate) fn target_profile(
    subst: &SubstMatrix,
    strip_target: &[u8],
) -> [Lanes<i32>; ALPHABET_SIZE] {
    let mut profile = [splat(0); ALPHABET_SIZE];
    for (c, row) in profile.iter_mut().enumerate() {
        for (cell, &t) in row.iter_mut().zip(strip_target) {
            *cell = subst.score(t, c as u8);
        }
    }
    profile
}

/// The substitution score of every lane's cell: lane `l` picks
/// `profile[codes[l]][l]`. A chain of `codes >= c` selects in ascending
/// `c` leaves each lane on its own code's row, so the gather costs
/// `ALPHABET_SIZE − 1` compare-and-select pairs and no memory lookups.
/// Every code must lie in `0..ALPHABET_SIZE`.
#[inline(always)]
pub(crate) fn profile_select(
    profile: &[Lanes<i32>; ALPHABET_SIZE],
    codes: &Lanes<i32>,
) -> Lanes<i32> {
    let mut out = profile[0];
    for (c, row) in profile.iter().enumerate().skip(1) {
        out = lanes32::select(&lanes32::ge(codes, &splat(c as i32)), row, &out);
    }
    out
}

/// Largest lane value (`NEG_INF` floors it). Over a step's `s_store`,
/// whose dead and inactive lanes hold `NEG_INF`, this is the best live
/// S of the step.
#[inline(always)]
pub(crate) fn reduce_max(v: &Lanes<i32>) -> i32 {
    v.iter().fold(NEG_INF, |m, &x| m.max(x))
}

/// The first lane holding `max`, which must be the largest value of
/// `v`: lanes `>= max` are exactly the lanes equal to it. The lowest
/// lane wins ties, the same cell a lane-order scan with a strict `>`
/// update keeps.
#[inline(always)]
pub(crate) fn first_lane_at(v: &Lanes<i32>, max: i32) -> usize {
    lanes32::movemask(&lanes32::ge(v, &splat(max))).trailing_zeros() as usize
}

/// Inputs of one wavefront step, prepared by the engine and identical
/// for both backends.
///
/// The shuffled neighbor vectors (`s_left`, `i_left`, `s_diag`) already
/// carry the strip-boundary spill injected at lane 0; `subst` and
/// `threshold` are per-lane gathers (substitution score of the lane's
/// cell, and the order-safe pruning threshold for the lane's row) that
/// the engine performs once and feeds to whichever kernel runs.
pub struct StepIn<'a> {
    /// Left neighbor's S (shuffled up by one lane, spill-filled).
    pub s_left: &'a Lanes<i32>,
    /// Left neighbor's I (shuffled up by one lane, spill-filled).
    pub i_left: &'a Lanes<i32>,
    /// Diagonal neighbor's S (previous diagonal, shuffled, spill-filled).
    pub s_diag: &'a Lanes<i32>,
    /// Own S of the previous row (vertical dependency).
    pub s_cur: &'a Lanes<i32>,
    /// Own D of the previous row (vertical dependency).
    pub d_cur: &'a Lanes<i32>,
    /// Substitution score of each active lane's cell (undefined outside
    /// `lo..=hi`, masked by the kernels).
    pub subst: &'a Lanes<i32>,
    /// Per-lane pruning threshold: `max(lagged diagonal best, row prefix
    /// best) − ydrop` (undefined outside `lo..=hi`).
    pub threshold: &'a Lanes<i32>,
    /// Gap-open + first-extend penalty (negative).
    pub so_se: i32,
    /// Gap-extend penalty (negative).
    pub se: i32,
    /// First active lane of this step (the wavefront's trailing edge).
    pub lo: usize,
    /// Last active lane of this step; the step is empty when `lo > hi`.
    pub hi: usize,
}

/// Outputs of one wavefront step: the post-pruning register values to
/// rotate into the cyclic buffer, packed traceback bytes, and the
/// lane-activity ballots.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StepOut {
    /// S to store per lane (`NEG_INF` for pruned or inactive lanes).
    pub s_store: Lanes<i32>,
    /// I to store per lane (clamped; `NEG_INF` for pruned/inactive).
    pub i_store: Lanes<i32>,
    /// D to store per lane (clamped; `NEG_INF` for pruned/inactive).
    pub d_store: Lanes<i32>,
    /// Packed traceback byte per lane (0 for inactive lanes).
    pub tb: Lanes<u8>,
    /// Ballot of active lanes that survived pruning.
    pub live_mask: u32,
    /// Ballot of active lanes (bits `lo..=hi`).
    pub active_mask: u32,
}

impl StepOut {
    /// The step with no active lanes.
    fn inactive() -> StepOut {
        StepOut {
            s_store: splat(NEG_INF),
            i_store: splat(NEG_INF),
            d_store: splat(NEG_INF),
            tb: [0u8; WARP_SIZE],
            live_mask: 0,
            active_mask: 0,
        }
    }
}

/// The reference step: each lane's Gotoh recurrence, pruning decision,
/// clamped stores, and traceback byte, executed lane by lane.
pub fn step_interpreter(inp: &StepIn) -> StepOut {
    let mut out = StepOut::inactive();
    if inp.lo > inp.hi {
        return out;
    }
    for l in inp.lo..=inp.hi {
        out.active_mask |= 1 << l;

        // Affine gap recurrences. The adds stay raw (not clamped): both
        // operands sit well above i32::MIN by construction, and clamping
        // here could flip the `ext >= open` tie-break at the sentinel
        // floor, changing the extend flags in the traceback byte.
        // fastz-lint: allow(clamped-score-arith, recurrence adds stay raw
        // by the tie-break contract above; see fastz_align score docs)
        let (i_val, i_ext) = {
            let open = inp.s_left[l] + inp.so_se;
            let ext = inp.i_left[l] + inp.se;
            if ext >= open {
                (ext, true)
            } else {
                (open, false)
            }
        };
        let (d_val, d_ext) = {
            let open = inp.s_cur[l] + inp.so_se;
            let ext = inp.d_cur[l] + inp.se;
            if ext >= open {
                (ext, true)
            } else {
                (open, false)
            }
        };
        let diag_val = inp.s_diag[l] + inp.subst[l];

        // Best source, diagonal first (LASTZ's tie order).
        let mut s_val = diag_val;
        let mut s_src = tb::S_DIAG;
        if i_val > s_val {
            s_val = i_val;
            s_src = tb::S_FROM_I;
        }
        if d_val > s_val {
            s_val = d_val;
            s_src = tb::S_FROM_D;
        }

        let th = inp.threshold[l];
        let dead = s_val < th && i_val < th && d_val < th;
        let (s_store, i_store, d_store) = if dead {
            (NEG_INF, NEG_INF, NEG_INF)
        } else {
            out.live_mask |= 1 << l;
            (s_val, score::clamp(i_val), score::clamp(d_val))
        };
        out.s_store[l] = s_store;
        out.i_store[l] = i_store;
        out.d_store[l] = d_store;

        let mut byte = if dead { tb::S_ORIGIN } else { s_src };
        if i_ext {
            byte |= tb::I_EXTEND;
        }
        if d_ext {
            byte |= tb::D_EXTEND;
        }
        out.tb[l] = byte;
    }
    out
}

/// The vector step: the same recurrence as [`step_interpreter`], but the
/// S/I/D register files are 32-wide i32 vectors and every lane decision
/// is a mask (`shfl` already arrived vectorized in [`StepIn`]; ballots
/// fall out of [`lanes32::movemask`]). Always inlined, so each
/// ISA-specialized engine body compiles it for its own vector width.
#[inline(always)]
pub fn step_simd(inp: &StepIn) -> StepOut {
    use lanes32 as v;
    if inp.lo > inp.hi {
        return StepOut::inactive();
    }
    let so_se = splat(inp.so_se);
    let se = splat(inp.se);

    // I / D: open-vs-extend with the same `ext >= open` tie-break; the
    // ge masks double as the extend flags of the traceback byte.
    let open_i = v::add(inp.s_left, &so_se);
    let ext_i = v::add(inp.i_left, &se);
    let m_i_ext = v::ge(&ext_i, &open_i);
    let i_val = v::select(&m_i_ext, &ext_i, &open_i);

    let open_d = v::add(inp.s_cur, &so_se);
    let ext_d = v::add(inp.d_cur, &se);
    let m_d_ext = v::ge(&ext_d, &open_d);
    let d_val = v::select(&m_d_ext, &ext_d, &open_d);

    let diag = v::add(inp.s_diag, inp.subst);

    // Best source, diagonal first: two strict-greater selects reproduce
    // the interpreter's priority chain exactly.
    let m_from_i = v::gt(&i_val, &diag);
    let s_after_i = v::select(&m_from_i, &i_val, &diag);
    let m_from_d = v::gt(&d_val, &s_after_i);
    let s_val = v::select(&m_from_d, &d_val, &s_after_i);
    let src = v::select(
        &m_from_d,
        &splat(tb::S_FROM_D as i32),
        &v::select(
            &m_from_i,
            &splat(tb::S_FROM_I as i32),
            &splat(tb::S_DIAG as i32),
        ),
    );

    // Prune: dead iff all three values fall below the lane's threshold.
    let dead = v::and(
        &v::and(&v::lt(&s_val, inp.threshold), &v::lt(&i_val, inp.threshold)),
        &v::lt(&d_val, inp.threshold),
    );

    // Stores: NEG_INF for pruned lanes, clamped values otherwise. The
    // max-with-splat is the vector form of `score::clamp`.
    let neg = splat(NEG_INF);
    let active = v::range_mask(inp.lo, inp.hi);
    let s_store = v::select(&dead, &neg, &s_val);
    let i_store = v::select(&dead, &neg, &v::max(&i_val, &neg));
    let d_store = v::select(&dead, &neg, &v::max(&d_val, &neg));

    // Traceback byte: source field (S_ORIGIN when pruned) OR'd with the
    // extend flags.
    let byte = v::or(
        &v::select(&dead, &splat(tb::S_ORIGIN as i32), &src),
        &v::or(
            &v::and(&m_i_ext, &splat(tb::I_EXTEND as i32)),
            &v::and(&m_d_ext, &splat(tb::D_EXTEND as i32)),
        ),
    );

    // Mask inactive lanes to the same defaults the interpreter leaves.
    let s_store = v::select(&active, &s_store, &neg);
    let i_store = v::select(&active, &i_store, &neg);
    let d_store = v::select(&active, &d_store, &neg);
    let byte = v::and(&active, &byte);

    let active_mask = v::range_bits(inp.lo, inp.hi);
    let live_mask = !v::movemask(&dead) & active_mask;

    let mut tb_bytes = [0u8; WARP_SIZE];
    for (l, b) in tb_bytes.iter_mut().enumerate() {
        *b = byte[l] as u8;
    }
    StepOut {
        s_store,
        i_store,
        d_store,
        tb: tb_bytes,
        live_mask,
        active_mask,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// A matrix whose transpose differs, so a swapped profile shows.
    fn asymmetric() -> SubstMatrix {
        SubstMatrix::from_acgt(
            [
                [12, -9, -3, -17],
                [-6, 10, -14, -2],
                [-1, -13, 11, -8],
                [-15, -4, -7, 9],
            ],
            -40,
        )
    }

    #[test]
    fn profile_select_matches_the_scalar_gather() {
        let m = asymmetric();
        let mut rng = SmallRng::seed_from_u64(5);
        for len in [1usize, 7, 31, 32] {
            let target: Vec<u8> = (0..len).map(|_| rng.gen_range(0..5)).collect();
            let profile = target_profile(&m, &target);
            let mut codes = [0i32; WARP_SIZE];
            for c in codes.iter_mut() {
                *c = rng.gen_range(0..ALPHABET_SIZE as i32);
            }
            let got = profile_select(&profile, &codes);
            for (l, &t) in target.iter().enumerate() {
                assert_eq!(got[l], m.score(t, codes[l] as u8), "len {len} lane {l}");
            }
        }
    }

    #[test]
    fn step_reductions_match_a_strict_lane_scan() {
        // The lane-order scan the engine's per-lane loop used: a strict
        // `>` keeps the first lane of the maximum.
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..200 {
            let mut v = splat(NEG_INF);
            for x in v.iter_mut() {
                if rng.gen_bool(0.7) {
                    *x = rng.gen_range(-5..5); // many ties
                }
            }
            let (mut best, mut lane) = (NEG_INF, WARP_SIZE);
            for (l, &x) in v.iter().enumerate() {
                if x > best {
                    (best, lane) = (x, l);
                }
            }
            assert_eq!(reduce_max(&v), best);
            if lane < WARP_SIZE {
                assert_eq!(first_lane_at(&v, best), lane);
            }
        }
        assert_eq!(reduce_max(&splat(NEG_INF)), NEG_INF);
    }
}
