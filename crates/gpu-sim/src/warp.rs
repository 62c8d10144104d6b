//! Functional warp model: 32-lane lockstep values and the scalar forms
//! of the CUDA `__shfl_up_sync` / `__ballot_sync` / per-lane `max` the
//! paper's kernels use.
//!
//! The kernels themselves run on vector lane types ([`crate::lanes32`]
//! and fastz-core's per-ISA lane types); these one-lane-at-a-time forms
//! are the references their tests compare against.

/// Lanes per warp (fixed at 32 on every NVIDIA architecture).
pub const WARP_SIZE: usize = 32;

/// A per-lane value vector.
pub type Lanes<T> = [T; WARP_SIZE];

/// Broadcasts one value to all lanes.
#[inline]
pub fn splat<T: Copy>(v: T) -> Lanes<T> {
    [v; WARP_SIZE]
}

/// `__shfl_up_sync`: lane `l` receives lane `l - delta`'s value; the low
/// `delta` lanes receive `fill` (CUDA leaves them unchanged; FastZ always
/// feeds a boundary value there, which `fill` models directly).
///
/// `delta == WARP_SIZE` is legal and yields all-`fill` (every lane's
/// source is below lane 0), matching the hardware, where a delta of
/// exactly `warpSize` shifts every source out of range.
///
/// # Panics
/// Panics with a shuffle-specific diagnostic if `delta > WARP_SIZE` —
/// on real hardware `__shfl_up_sync` silently produces undefined lane
/// values there, a bug class the simulator refuses to model quietly.
#[inline]
pub fn shfl_up<T: Copy>(v: &Lanes<T>, delta: usize, fill: T) -> Lanes<T> {
    assert!(
        delta <= WARP_SIZE,
        "shfl_up delta {delta} exceeds WARP_SIZE ({WARP_SIZE}): \
         __shfl_up_sync requires delta <= warpSize"
    );
    let mut out = splat(fill);
    out[delta..].copy_from_slice(&v[..WARP_SIZE - delta]);
    out
}

/// `__ballot_sync`: bitmask of lanes whose predicate holds.
#[inline]
pub fn ballot(pred: &Lanes<bool>) -> u32 {
    let mut mask = 0u32;
    for (l, &p) in pred.iter().enumerate() {
        if p {
            mask |= 1 << l;
        }
    }
    mask
}

/// Per-lane binary max (what the SIMT `max` instruction does).
#[inline]
pub fn lane_max(a: &Lanes<i32>, b: &Lanes<i32>) -> Lanes<i32> {
    let mut out = *a;
    for l in 0..WARP_SIZE {
        if b[l] > out[l] {
            out[l] = b[l];
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn iota() -> Lanes<i32> {
        let mut v = splat(0);
        for (l, x) in v.iter_mut().enumerate() {
            *x = l as i32;
        }
        v
    }

    #[test]
    fn shfl_up_shifts_and_fills() {
        let v = iota();
        let s = shfl_up(&v, 1, -7);
        assert_eq!(s[0], -7);
        assert_eq!(s[1], 0);
        assert_eq!(s[31], 30);
        let s2 = shfl_up(&v, 2, 0);
        assert_eq!(s2[1], 0);
        assert_eq!(s2[2], 0);
        assert_eq!(s2[31], 29);
    }

    #[test]
    fn shfl_full_warp_delta_is_legal_and_all_fill() {
        // delta == WARP_SIZE is the hardware boundary case: every
        // source lane is out of range, so every lane gets the fill.
        let v = iota();
        assert_eq!(shfl_up(&v, WARP_SIZE, -7), splat(-7));
    }

    #[test]
    #[should_panic(expected = "shfl_up delta 33 exceeds WARP_SIZE (32)")]
    fn shfl_up_past_warp_size_is_diagnosed() {
        let v = iota();
        let _ = shfl_up(&v, WARP_SIZE + 1, 0);
    }

    #[test]
    fn shfl_zero_delta_is_identity() {
        let v = iota();
        assert_eq!(shfl_up(&v, 0, 0), v);
    }

    #[test]
    fn ballot_sets_one_bit_per_true_lane() {
        let mut p = splat(false);
        assert_eq!(ballot(&p), 0);
        p[0] = true;
        p[31] = true;
        assert_eq!(ballot(&p), 1 | (1 << 31));
        let t = splat(true);
        assert_eq!(ballot(&t), u32::MAX);
    }

    #[test]
    fn lane_max_elementwise() {
        let a = iota();
        let mut b = splat(15);
        b[31] = 100;
        let m = lane_max(&a, &b);
        assert_eq!(m[0], 15);
        assert_eq!(m[20], 20);
        assert_eq!(m[31], 100);
    }
}
