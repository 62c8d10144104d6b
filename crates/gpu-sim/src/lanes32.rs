//! 32-wide i32 vector operations: the host-SIMD realization of one
//! warp's lane-parallel arithmetic.
//!
//! The warp engine's interpreter executes the 32 lanes of a wavefront
//! step one at a time; this module provides the same step as whole-warp
//! vector operations so the engine's SIMD backend can keep the S/I/D
//! register files in 32-wide vectors. The mapping to the CUDA warp
//! primitives the kernels are written against:
//!
//! | CUDA / [`crate::warp`]        | lanes32                                |
//! |-------------------------------|----------------------------------------|
//! | `__shfl_up_sync(…, 1)`        | [`shift_up1`] — vector shift, edge-lane injection |
//! | `__ballot_sync(pred)`         | [`movemask`] over a comparison mask    |
//! | per-lane `max` / `select`     | [`max`], [`select`] on lane masks      |
//! | cyclic 3-row register buffer  | whole-vector assignment of `Lanes<i32>` |
//!
//! Two implementations sit behind one API:
//!
//! * the **portable fallback** (default): fixed-width `[i32; 32]` loops
//!   that LLVM autovectorizes on stable Rust — no nightly, no new
//!   dependencies;
//! * the **`nightly-simd` feature**: the same operations expressed with
//!   `std::simd` (`portable_simd`), for toolchains that have it.
//!
//! Both are bit-identical by construction (wrapping lane adds, `-1/0`
//! comparison masks, sign-bit movemask), which the unit tests pin
//! against the scalar [`crate::warp`] primitives. Comparison masks are
//! plain `Lanes<i32>` holding `-1` (true) or `0` (false) per lane, so
//! they compose with [`select`]/[`and`]/[`or`] as bitwise operations.

use crate::warp::{Lanes, WARP_SIZE};

/// Broadcasts one value to all 32 lanes (re-exported for symmetry with
/// the scalar warp module).
pub use crate::warp::splat;

#[cfg(feature = "nightly-simd")]
mod imp {
    use super::{Lanes, WARP_SIZE};
    use std::simd::cmp::{SimdOrd, SimdPartialOrd};
    use std::simd::{Select, Simd};

    type V = Simd<i32, WARP_SIZE>;

    /// A `-1`/`0` lane mask from a `std::simd` boolean mask.
    #[inline(always)]
    fn to_lanes(m: std::simd::Mask<i32, WARP_SIZE>) -> Lanes<i32> {
        m.select(V::splat(-1), V::splat(0)).to_array()
    }

    #[inline(always)]
    pub fn add(a: &Lanes<i32>, b: &Lanes<i32>) -> Lanes<i32> {
        // `std::simd` lane addition wraps, matching the portable path.
        (V::from_array(*a) + V::from_array(*b)).to_array()
    }

    #[inline(always)]
    pub fn max(a: &Lanes<i32>, b: &Lanes<i32>) -> Lanes<i32> {
        V::from_array(*a).simd_max(V::from_array(*b)).to_array()
    }

    #[inline(always)]
    pub fn ge(a: &Lanes<i32>, b: &Lanes<i32>) -> Lanes<i32> {
        to_lanes(V::from_array(*a).simd_ge(V::from_array(*b)))
    }

    #[inline(always)]
    pub fn gt(a: &Lanes<i32>, b: &Lanes<i32>) -> Lanes<i32> {
        to_lanes(V::from_array(*a).simd_gt(V::from_array(*b)))
    }

    #[inline(always)]
    pub fn lt(a: &Lanes<i32>, b: &Lanes<i32>) -> Lanes<i32> {
        to_lanes(V::from_array(*a).simd_lt(V::from_array(*b)))
    }

    #[inline(always)]
    pub fn and(a: &Lanes<i32>, b: &Lanes<i32>) -> Lanes<i32> {
        (V::from_array(*a) & V::from_array(*b)).to_array()
    }

    #[inline(always)]
    pub fn or(a: &Lanes<i32>, b: &Lanes<i32>) -> Lanes<i32> {
        (V::from_array(*a) | V::from_array(*b)).to_array()
    }

    #[inline(always)]
    pub fn select(m: &Lanes<i32>, a: &Lanes<i32>, b: &Lanes<i32>) -> Lanes<i32> {
        let m = V::from_array(*m);
        ((V::from_array(*a) & m) | (V::from_array(*b) & !m)).to_array()
    }
}

#[cfg(not(feature = "nightly-simd"))]
mod imp {
    use super::{Lanes, WARP_SIZE};

    #[inline(always)]
    pub fn add(a: &Lanes<i32>, b: &Lanes<i32>) -> Lanes<i32> {
        let mut out = [0i32; WARP_SIZE];
        for l in 0..WARP_SIZE {
            out[l] = a[l].wrapping_add(b[l]);
        }
        out
    }

    #[inline(always)]
    pub fn max(a: &Lanes<i32>, b: &Lanes<i32>) -> Lanes<i32> {
        let mut out = [0i32; WARP_SIZE];
        for l in 0..WARP_SIZE {
            out[l] = a[l].max(b[l]);
        }
        out
    }

    #[inline(always)]
    pub fn ge(a: &Lanes<i32>, b: &Lanes<i32>) -> Lanes<i32> {
        let mut out = [0i32; WARP_SIZE];
        for l in 0..WARP_SIZE {
            out[l] = -((a[l] >= b[l]) as i32);
        }
        out
    }

    #[inline(always)]
    pub fn gt(a: &Lanes<i32>, b: &Lanes<i32>) -> Lanes<i32> {
        let mut out = [0i32; WARP_SIZE];
        for l in 0..WARP_SIZE {
            out[l] = -((a[l] > b[l]) as i32);
        }
        out
    }

    #[inline(always)]
    pub fn lt(a: &Lanes<i32>, b: &Lanes<i32>) -> Lanes<i32> {
        let mut out = [0i32; WARP_SIZE];
        for l in 0..WARP_SIZE {
            out[l] = -((a[l] < b[l]) as i32);
        }
        out
    }

    #[inline(always)]
    pub fn and(a: &Lanes<i32>, b: &Lanes<i32>) -> Lanes<i32> {
        let mut out = [0i32; WARP_SIZE];
        for l in 0..WARP_SIZE {
            out[l] = a[l] & b[l];
        }
        out
    }

    #[inline(always)]
    pub fn or(a: &Lanes<i32>, b: &Lanes<i32>) -> Lanes<i32> {
        let mut out = [0i32; WARP_SIZE];
        for l in 0..WARP_SIZE {
            out[l] = a[l] | b[l];
        }
        out
    }

    #[inline(always)]
    pub fn select(m: &Lanes<i32>, a: &Lanes<i32>, b: &Lanes<i32>) -> Lanes<i32> {
        let mut out = [0i32; WARP_SIZE];
        for l in 0..WARP_SIZE {
            out[l] = (a[l] & m[l]) | (b[l] & !m[l]);
        }
        out
    }
}

/// Lane-wise wrapping addition.
#[inline(always)]
pub fn add(a: &Lanes<i32>, b: &Lanes<i32>) -> Lanes<i32> {
    imp::add(a, b)
}

/// Lane-wise maximum (the SIMT `max` instruction, whole warp at once).
#[inline(always)]
pub fn max(a: &Lanes<i32>, b: &Lanes<i32>) -> Lanes<i32> {
    imp::max(a, b)
}

/// Lane-wise `a >= b` as a `-1`/`0` mask.
#[inline(always)]
pub fn ge(a: &Lanes<i32>, b: &Lanes<i32>) -> Lanes<i32> {
    imp::ge(a, b)
}

/// Lane-wise `a > b` as a `-1`/`0` mask.
#[inline(always)]
pub fn gt(a: &Lanes<i32>, b: &Lanes<i32>) -> Lanes<i32> {
    imp::gt(a, b)
}

/// Lane-wise `a < b` as a `-1`/`0` mask.
#[inline(always)]
pub fn lt(a: &Lanes<i32>, b: &Lanes<i32>) -> Lanes<i32> {
    imp::lt(a, b)
}

/// Lane-wise bitwise AND (mask conjunction).
#[inline(always)]
pub fn and(a: &Lanes<i32>, b: &Lanes<i32>) -> Lanes<i32> {
    imp::and(a, b)
}

/// Lane-wise bitwise OR (mask disjunction / flag merge).
#[inline(always)]
pub fn or(a: &Lanes<i32>, b: &Lanes<i32>) -> Lanes<i32> {
    imp::or(a, b)
}

/// Lane-wise `m ? a : b` for a `-1`/`0` mask `m` (predicated move).
#[inline(always)]
pub fn select(m: &Lanes<i32>, a: &Lanes<i32>, b: &Lanes<i32>) -> Lanes<i32> {
    imp::select(m, a, b)
}

/// `__ballot_sync` over a comparison mask: bit `l` set iff lane `l`'s
/// mask is non-zero (the mask's sign bit, since masks are `-1`/`0`).
#[inline(always)]
pub fn movemask(m: &Lanes<i32>) -> u32 {
    let mut bits = 0u32;
    for (l, &v) in m.iter().enumerate() {
        bits |= ((v as u32) >> 31) << l;
    }
    bits
}

/// The `-1`/`0` mask of the contiguous lane range `lo..=hi` (empty when
/// `lo > hi`) — the active-lane predicate of one wavefront step. The
/// bounds clamp to `0..=WARP_SIZE` so the lane compare stays in `i32`
/// lanes and vectorizes.
#[inline(always)]
pub fn range_mask(lo: usize, hi: usize) -> Lanes<i32> {
    let (lo, hi) = (lo.min(WARP_SIZE) as i32, hi.min(WARP_SIZE) as i32);
    let mut out = [0i32; WARP_SIZE];
    for (l, v) in out.iter_mut().enumerate() {
        let l = l as i32;
        *v = -((lo <= l) as i32 & (l <= hi) as i32);
    }
    out
}

/// The lane-range mask as ballot bits: bits `lo..=hi` set, 0 when empty.
#[inline(always)]
pub fn range_bits(lo: usize, hi: usize) -> u32 {
    if lo > hi {
        return 0;
    }
    let hi = hi.min(WARP_SIZE - 1);
    let span = (hi - lo + 1) as u32;
    (u32::MAX >> (32 - span)) << lo
}

/// `__shfl_up_sync(…, delta = 1)` as one whole-vector shift with
/// edge-lane injection: lane `l` receives lane `l − 1`'s value and lane
/// 0 receives `fill`. Bit-identical to
/// [`crate::warp::shfl_up`]`(v, 1, fill)` — the warp engine's SIMD
/// backend uses this form, the interpreter uses the scalar model, and
/// the unit tests pin the two together.
#[inline(always)]
pub fn shift_up1(v: &Lanes<i32>, fill: i32) -> Lanes<i32> {
    let mut out = [fill; WARP_SIZE];
    out[1..].copy_from_slice(&v[..WARP_SIZE - 1]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::warp::{ballot, lane_max, shfl_up};

    fn iota(k: i32) -> Lanes<i32> {
        let mut v = [0i32; WARP_SIZE];
        for (l, x) in v.iter_mut().enumerate() {
            *x = k.wrapping_add(l as i32);
        }
        v
    }

    #[test]
    fn add_wraps_like_scalar_wrapping_add() {
        let a = iota(i32::MAX - 16);
        let b = splat(10);
        let s = add(&a, &b);
        for l in 0..WARP_SIZE {
            assert_eq!(s[l], a[l].wrapping_add(10), "lane {l}");
        }
    }

    #[test]
    fn max_matches_the_warp_primitive() {
        let a = iota(-5);
        let mut b = splat(7);
        b[31] = -100;
        assert_eq!(max(&a, &b), lane_max(&a, &b));
    }

    #[test]
    fn comparison_masks_are_minus_one_or_zero() {
        let a = iota(0);
        let b = splat(10);
        let m = lt(&a, &b);
        for (l, &bit) in m.iter().enumerate() {
            assert_eq!(bit, if (l as i32) < 10 { -1 } else { 0 }, "lane {l}");
        }
        let m = ge(&a, &b);
        for (l, &bit) in m.iter().enumerate() {
            assert_eq!(bit, if l as i32 >= 10 { -1 } else { 0 }, "lane {l}");
        }
        let e = gt(&a, &a);
        assert_eq!(e, splat(0), "gt is strict");
        assert_eq!(ge(&a, &a), splat(-1), "ge accepts equality");
    }

    #[test]
    fn select_is_a_predicated_move() {
        let a = splat(111);
        let b = splat(-7);
        let mut m = splat(0);
        m[3] = -1;
        m[17] = -1;
        let s = select(&m, &a, &b);
        for (l, &got) in s.iter().enumerate() {
            let want = if l == 3 || l == 17 { 111 } else { -7 };
            assert_eq!(got, want, "lane {l}");
        }
    }

    #[test]
    fn movemask_matches_ballot_on_the_same_predicate() {
        let a = iota(0);
        let b = splat(20);
        let m = lt(&a, &b);
        let pred: Lanes<bool> = {
            let mut p = [false; WARP_SIZE];
            for l in 0..WARP_SIZE {
                p[l] = a[l] < b[l];
            }
            p
        };
        assert_eq!(movemask(&m), ballot(&pred));
        assert_eq!(movemask(&splat(0)), 0);
        assert_eq!(movemask(&splat(-1)), u32::MAX);
    }

    #[test]
    fn shift_up1_matches_shfl_up_delta_one() {
        let v = iota(100);
        assert_eq!(shift_up1(&v, -9), shfl_up(&v, 1, -9));
        assert_eq!(shift_up1(&splat(0), 5)[0], 5);
    }

    #[test]
    fn range_helpers_agree() {
        for (lo, hi) in [(0, 31), (0, 0), (5, 11), (31, 31), (3, 2)] {
            let m = range_mask(lo, hi);
            assert_eq!(movemask(&m), range_bits(lo, hi), "range {lo}..={hi}");
        }
        assert_eq!(range_bits(0, 31), u32::MAX);
        assert_eq!(range_bits(1, 0), 0);
    }
}
