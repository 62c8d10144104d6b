//! The per-step wavefront kernels: one anti-diagonal of the warp
//! engine's DP recurrence, factored out of the strip loop so the scalar
//! interpreter and the vector step are two interchangeable realizations
//! of the *same* step.
//!
//! [`step_interpreter`] executes the 32 lanes one at a time — it is the
//! reference semantics, lifted verbatim from the engine's original lane
//! loop. `step_lanes` computes the whole warp with the operations of a
//! `LaneVec`, the lane type of one [`SimdIsa`] level, so its register
//! files stay in vector registers. Everything stateful — shuffles,
//! traceback writes, counters, best-cell tracking, register rotation,
//! spill — stays in the engine and is shared by both backends, so the
//! two can only diverge inside this module; the differential tests pin
//! them together per step, field by field, on every lane type.
//!
//! Both kernels write deterministic values for inactive lanes
//! ([`NEG_INF`] stores, zero traceback bytes), so whole-struct equality
//! of [`StepOut`] is meaningful.
//!
//! The module also holds the step's first-lane-of-max rule
//! `first_lane_at`, which the engine applies to either kernel's
//! outputs. The substitution gather feeding both kernels is the lane
//! type's own lookup (`LaneVec::subst`), so the step inputs and the
//! bookkeeping over its outputs are the same vector code whichever
//! kernel runs.

use crate::lanes::{IsaKernel, LaneMask, LaneVec, SimdIsa};
use fastz_align::score;
use fastz_align::ydrop::{tb, NEG_INF};
use fastz_gpu_sim::{lanes32, splat, Lanes, WARP_SIZE};

/// The first lane holding `max`, which must be the largest value of
/// `v`: lanes `>= max` are exactly the lanes equal to it. The lowest
/// lane wins ties, the same cell a lane-order scan with a strict `>`
/// update keeps.
#[inline(always)]
pub(crate) fn first_lane_at<V: LaneVec>(v: V, max: i32) -> usize {
    v.ge(V::splat(max)).bits().trailing_zeros() as usize
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

/// [`StepIn`] on a lane type: the same fields, held by value, plus the
/// active-lane window as a mask and a ballot (the caller often has them
/// already).
#[derive(Clone, Copy)]
pub(crate) struct LaneIn<V: LaneVec> {
    pub s_left: V,
    pub i_left: V,
    pub s_diag: V,
    pub s_cur: V,
    pub d_cur: V,
    pub subst: V,
    pub threshold: V,
    pub so_se: i32,
    pub se: i32,
    pub lo: usize,
    pub hi: usize,
    /// `V::range_mask(lo, hi)`.
    pub active: V::Mask,
    /// `lanes32::range_bits(lo, hi)`.
    pub active_bits: u32,
}

impl<V: LaneVec> LaneIn<V> {
    /// Loads the public array form.
    #[inline(always)]
    fn load(inp: &StepIn) -> LaneIn<V> {
        LaneIn {
            s_left: V::load(inp.s_left),
            i_left: V::load(inp.i_left),
            s_diag: V::load(inp.s_diag),
            s_cur: V::load(inp.s_cur),
            d_cur: V::load(inp.d_cur),
            subst: V::load(inp.subst),
            threshold: V::load(inp.threshold),
            so_se: inp.so_se,
            se: inp.se,
            lo: inp.lo,
            hi: inp.hi,
            active: V::range_mask(inp.lo, inp.hi),
            active_bits: lanes32::range_bits(inp.lo, inp.hi),
        }
    }
}

/// [`StepOut`] on a lane type. The traceback bytes are packed only when
/// asked for ([`LaneOut::tb`]): most inspector steps write none.
#[derive(Clone, Copy)]
pub(crate) struct LaneOut<V: LaneVec> {
    pub s_store: V,
    pub i_store: V,
    pub d_store: V,
    pub live_mask: u32,
    pub active_mask: u32,
    tb: TbBytes<V::Mask>,
}

/// Where a [`LaneOut`]'s traceback bytes come from.
#[derive(Clone, Copy)]
enum TbBytes<M> {
    /// Packed by the interpreter.
    Packed(Lanes<u8>),
    /// The vector step's lane decisions, packed on demand.
    Masks {
        alive: M,
        from_i: M,
        from_d: M,
        i_ext: M,
        d_ext: M,
        active: M,
    },
}

impl<V: LaneVec> LaneOut<V> {
    /// Packed traceback byte per lane (0 for inactive lanes): the source
    /// field (`S_ORIGIN` when pruned) plus the extend flags, which
    /// occupy disjoint bits.
    #[inline(always)]
    pub(crate) fn tb(&self) -> Lanes<u8> {
        match self.tb {
            TbBytes::Packed(bytes) => bytes,
            TbBytes::Masks {
                alive,
                from_i,
                from_d,
                i_ext,
                d_ext,
                active,
            } => {
                let k = |b: u8| V::splat(i32::from(b));
                let src = V::select(
                    from_d,
                    k(tb::S_FROM_D),
                    V::select(from_i, k(tb::S_FROM_I), k(tb::S_DIAG)),
                );
                let byte = V::select(alive, src, k(tb::S_ORIGIN))
                    .add(V::select(i_ext, k(tb::I_EXTEND), k(0)))
                    .add(V::select(d_ext, k(tb::D_EXTEND), k(0)));
                V::select(active, byte, k(0)).to_bytes()
            }
        }
    }

    /// The public array form.
    #[inline(always)]
    fn store(&self) -> StepOut {
        StepOut {
            s_store: self.s_store.to_array(),
            i_store: self.i_store.to_array(),
            d_store: self.d_store.to_array(),
            tb: self.tb(),
            live_mask: self.live_mask,
            active_mask: self.active_mask,
        }
    }

    /// [`step_interpreter`] on lane-type operands (the oracle backend
    /// inside the engine body).
    #[inline(always)]
    pub(crate) fn interpreted(inp: &LaneIn<V>) -> LaneOut<V> {
        let out = step_interpreter(&StepIn {
            s_left: &inp.s_left.to_array(),
            i_left: &inp.i_left.to_array(),
            s_diag: &inp.s_diag.to_array(),
            s_cur: &inp.s_cur.to_array(),
            d_cur: &inp.d_cur.to_array(),
            subst: &inp.subst.to_array(),
            threshold: &inp.threshold.to_array(),
            so_se: inp.so_se,
            se: inp.se,
            lo: inp.lo,
            hi: inp.hi,
        });
        LaneOut {
            s_store: V::load(&out.s_store),
            i_store: V::load(&out.i_store),
            d_store: V::load(&out.d_store),
            live_mask: out.live_mask,
            active_mask: out.active_mask,
            tb: TbBytes::Packed(out.tb),
        }
    }
}

/// The vector step: the same recurrence as [`step_interpreter`], but the
/// S/I/D register files are lane vectors and every lane decision is a
/// mask (`shfl` already arrived vectorized in [`LaneIn`]; ballots are
/// the masks' bits). Always inlined, so each [`SimdIsa`] instantiation
/// of the engine body compiles it on its own lane type. An empty window
/// (`lo > hi`) needs no branch: the active mask is empty, so every lane
/// takes the inactive defaults.
#[inline(always)]
pub(crate) fn step_lanes<V: LaneVec>(inp: &LaneIn<V>) -> LaneOut<V> {
    let so_se = V::splat(inp.so_se);
    let se = V::splat(inp.se);

    // I / D: open-vs-extend with the same `ext >= open` tie-break; the
    // ge masks double as the extend flags of the traceback byte.
    let open_i = inp.s_left.add(so_se);
    let ext_i = inp.i_left.add(se);
    let i_ext = ext_i.ge(open_i);
    let i_val = V::select(i_ext, ext_i, open_i);

    let open_d = inp.s_cur.add(so_se);
    let ext_d = inp.d_cur.add(se);
    let d_ext = ext_d.ge(open_d);
    let d_val = V::select(d_ext, ext_d, open_d);

    let diag = inp.s_diag.add(inp.subst);

    // Best source, diagonal first: two strict-greater selects reproduce
    // the interpreter's priority chain exactly.
    let from_i = i_val.gt(diag);
    let s_after_i = V::select(from_i, i_val, diag);
    let from_d = d_val.gt(s_after_i);
    let s_val = V::select(from_d, d_val, s_after_i);

    // Prune: dead iff all three values fall below the lane's threshold.
    // `s_val` is the largest of the three, so that is `s_val < threshold`.
    let alive = s_val.ge(inp.threshold);

    // Stores: NEG_INF for pruned and inactive lanes, clamped values
    // otherwise. The max-with-splat is the vector form of `score::clamp`.
    let neg = V::splat(NEG_INF);
    let active = inp.active;
    let live = alive.and(active);
    LaneOut {
        s_store: V::select(live, s_val, neg),
        i_store: V::select(live, i_val.max(neg), neg),
        d_store: V::select(live, d_val.max(neg), neg),
        live_mask: live.bits(),
        active_mask: inp.active_bits,
        tb: TbBytes::Masks {
            alive,
            from_i,
            from_d,
            i_ext,
            d_ext,
            active,
        },
    }
}

/// The vector step on the lane type [`SimdIsa::dispatched`] picks — the
/// kernel production runs — on the public array form.
pub fn step_simd(inp: &StepIn) -> StepOut {
    step_simd_on(SimdIsa::dispatched(), inp)
}

/// [`step_simd`] on `isa`'s lane type (the per-lane-type differential
/// tests' hook).
///
/// # Panics
///
/// When the CPU does not support `isa` (see [`SimdIsa::supported`]).
#[doc(hidden)]
pub fn step_simd_on(isa: SimdIsa, inp: &StepIn) -> StepOut {
    isa.run(VectorStep::<false>(inp))
}

/// [`step_simd_on`] on `isa`'s 16-bit lane type (`LaneVec::Narrow`),
/// the one the engine sweeps a strip on when its scores provably fit:
/// equal to the 32-bit step only on inputs inside that precondition
/// (every real score and every sum the step forms from it strictly
/// between the sentinel band and `i16::MAX`, and no live cell fed only
/// by sentinels). The per-step differential tests' hook.
///
/// # Panics
///
/// When the CPU does not support `isa` (see [`SimdIsa::supported`]).
#[doc(hidden)]
pub fn step_simd_narrow_on(isa: SimdIsa, inp: &StepIn) -> StepOut {
    isa.run(VectorStep::<true>(inp))
}

/// [`step_lanes`] as an [`IsaKernel`], on the level's 16-bit lane type
/// when `NARROW`.
struct VectorStep<'a, 'b, const NARROW: bool>(&'a StepIn<'b>);

impl<const NARROW: bool> IsaKernel for VectorStep<'_, '_, NARROW> {
    type Output = StepOut;

    #[inline(always)]
    fn run<V: LaneVec>(self) -> StepOut {
        if NARROW {
            step_lanes(&LaneIn::<V::Narrow>::load(self.0)).store()
        } else {
            step_lanes(&LaneIn::<V>::load(self.0)).store()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

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
            assert_eq!(v.reduce_max(), best);
            if lane < WARP_SIZE {
                assert_eq!(first_lane_at(v, best), lane);
            }
        }
        assert_eq!(splat(NEG_INF).reduce_max(), NEG_INF);
    }
}
