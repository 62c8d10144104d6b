//! Differential pinning of the bitvector window step to a dense
//! edit-distance reference, mirroring `simd_step.rs`.
//!
//! The per-window property drives [`fastz_core::bitvec::window_masks`],
//! which runs the engine's own column step and live-band start, with
//! adversarial windows — every pattern length 1..=64, text runs
//! past the reachable diagonal, `N`s on both sides, *every* edit budget
//! `k in 1..=63` — and demands bit-for-bit equality of the dead masks
//! against a dense Levenshtein DP in which `N` matches nothing: bit `b` of `R[d]` at column `j` is set exactly when
//! `ED(pattern[..b+1], text[..j]) > d`, and every beyond-window bit is
//! set. The whole-extension property then checks the unit-cost score
//! relation on full engine runs: the dense edit distance lower-bounds
//! the script's edit count, so the engine's score never exceeds the
//! dense unit-cost optimum — with exact equality on the single-window
//! overlap domain. The final tests mirror the satellite clamp audit:
//! the candidate-score arithmetic the engine routes through
//! `score::add_clamped` must saturate, not wrap, for i32::MIN-adjacent
//! operands.

use fastz_align::score;
use fastz_core::bitvec::window_masks;
use fastz_core::{bitvec_extend, BitvecConfig};
use fastz_genome::evolve::random_codes;
use fastz_genome::N_CODE;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The engine's score floor (`fastz_align::ydrop::NEG_INF`), restated
/// so this file fails loudly if the sentinel ever moves.
const NEG_INF: i32 = i32::MIN / 4;

/// Whether two codes match under the unit regime: equal and below `N`
/// (`N` matches nothing, not even `N`).
fn unit_match(a: u8, b: u8) -> bool {
    a < N_CODE && a == b
}

/// Dense `(m+1)×(n+1)` Levenshtein matrix over codes (row-major,
/// stride `n+1`) — the boring reference the bit-parallel step is
/// pinned to.
fn dense_edit(target: &[u8], query: &[u8]) -> Vec<u32> {
    let (n, m) = (target.len(), query.len());
    let cols = n + 1;
    let mut ed = vec![0u32; (m + 1) * cols];
    for (j, slot) in ed.iter_mut().enumerate().take(n + 1) {
        *slot = j as u32;
    }
    for i in 1..=m {
        ed[i * cols] = i as u32;
        for j in 1..=n {
            let sub = u32::from(!unit_match(target[j - 1], query[i - 1]));
            ed[i * cols + j] = (ed[(i - 1) * cols + j - 1] + sub)
                .min(ed[(i - 1) * cols + j] + 1)
                .min(ed[i * cols + j - 1] + 1);
        }
    }
    ed
}

/// Best unit-cost score over the dense matrix:
/// `max_{i,j} (i + j) − 3·ED(i, j)`, floored at the origin's 0.
fn dense_unit_optimum(target: &[u8], query: &[u8]) -> i32 {
    let (n, m) = (target.len(), query.len());
    let cols = n + 1;
    let ed = dense_edit(target, query);
    let mut best = 0i32;
    for i in 0..=m {
        for j in 0..=n {
            best = best.max((i + j) as i32 - 3 * ed[i * cols + j] as i32);
        }
    }
    best
}

/// A correlated window pair: the text is the pattern with noise, so the
/// dead masks carry long live runs (the interesting regime for SENE).
/// Each pattern base is an `N` with probability `n_rate`, copied into
/// the text (`N`–`N` pairs), and the text gets its own `N`s at the same
/// rate after the noise.
fn window_pair(wlen: usize, tlen: usize, noise: f64, n_rate: f64, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut pattern = random_codes(wlen, 0.45, &mut rng);
    plant_n(&mut pattern, n_rate, &mut rng);
    let mut text: Vec<u8> = (0..tlen)
        .map(|i| {
            pattern
                .get(i)
                .copied()
                .unwrap_or_else(|| rng.gen_range(0..4))
        })
        .collect();
    for b in text.iter_mut() {
        if rng.gen_bool(noise) {
            *b = (*b + rng.gen_range(1..4)) & 3;
        }
    }
    plant_n(&mut text, n_rate, &mut rng);
    (text, pattern)
}

fn plant_n(codes: &mut [u8], n_rate: f64, rng: &mut SmallRng) {
    for c in codes.iter_mut() {
        if rng.gen_bool(n_rate) {
            *c = N_CODE;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// One window, every budget: the bit-parallel dead masks must equal
    /// the dense Levenshtein reference bit for bit, for every `k` the
    /// representation admits, and every row below a column's live-band
    /// start (never computed, read as `!0`) must be all-dead there.
    #[test]
    fn window_masks_match_dense_edit_dp(
        wlen in 1usize..=64,
        extra in 0usize..80,
        noise in 0.0f64..0.6,
        n_rate in 0.0f64..0.1,
        seed in any::<u64>(),
    ) {
        let (text, pattern) = window_pair(wlen, wlen + extra, noise, n_rate, seed);
        let ed = dense_edit(&text, &pattern);
        let cols = text.len() + 1;
        let window_mask: u64 = if wlen == 64 { !0 } else { (1u64 << wlen) - 1 };
        let mut skipped = 0usize;
        for k in 1usize..=63 {
            let sweep = window_masks(&text, &pattern, k);
            let masks = sweep.masks;
            prop_assert_eq!(masks.len(), cols * (k + 1));
            prop_assert_eq!(sweep.starts.len(), cols);
            for (j, &start) in sweep.starts.iter().enumerate() {
                // The live band skips only dead rows: row d is all-dead
                // iff every pattern prefix's edit distance exceeds d.
                let nearest = (1..=wlen).map(|b| ed[b * cols + j]).min().unwrap_or(0);
                prop_assert!(nearest >= start as u32,
                    "k={} j={}: start {} skips a row with a prefix at ED {}",
                    k, j, start, nearest);
                prop_assert!(start <= k + 1 && (j == 0 || start < j),
                    "k={} j={}: start {}", k, j, start);
                skipped += start;
            }
            for (j, rows) in masks.chunks_exact(k + 1).enumerate() {
                for (d, &row) in rows.iter().enumerate() {
                    // Beyond-window bits are always dead.
                    prop_assert_eq!(row & !window_mask, !window_mask,
                        "k={} j={} d={}: beyond bits cleared", k, j, d);
                    for b in 0..wlen {
                        let dead = (row >> b) & 1 == 1;
                        let want = ed[(b + 1) * cols + j] > d as u32;
                        prop_assert_eq!(dead, want,
                            "k={} j={} d={} b={}: dead-bit vs dense ED {}",
                            k, j, d, b, ed[(b + 1) * cols + j]);
                    }
                }
            }
        }
        // Correlated windows over long texts skip rows, so the start
        // check above has something to hold.
        if wlen >= 8 && extra >= 40 && noise < 0.3 {
            prop_assert!(skipped > 0, "no row skipped");
        }
    }
}

/// Re-walks a script under the unit regime (self-consistency half of
/// the whole-extension property).
fn unit_walk(t: &[u8], q: &[u8], ops: &[fastz_align::EditOp]) -> (usize, usize, i32, u32) {
    use fastz_align::EditOp;
    let (mut ti, mut qi, mut score, mut edits) = (0usize, 0usize, 0i32, 0u32);
    for op in ops {
        match *op {
            EditOp::Diag(k) => {
                for _ in 0..k {
                    if unit_match(t[ti], q[qi]) {
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
    (ti, qi, score, edits)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Whole-extension score relation: the dense edit distance
    /// lower-bounds the script's edit count at the reported best cell,
    /// so the windowed engine's score never exceeds the dense unit
    /// optimum; the script itself must justify the claimed score.
    #[test]
    fn extension_score_is_bounded_by_dense_unit_optimum(
        qlen in 16usize..220,
        extra in 0usize..40,
        noise in 0.0f64..0.35,
        n_rate in 0.0f64..0.1,
        seed in any::<u64>(),
    ) {
        let (text, pattern) = window_pair(qlen, qlen + extra, noise, n_rate, seed);
        let bv = bitvec_extend(&text, &pattern, &BitvecConfig::default());
        let (ti, qi, score, edits) = unit_walk(&text, &pattern, &bv.ops);
        prop_assert_eq!((qi, ti), (bv.best_i, bv.best_j), "script consumption");
        prop_assert_eq!(score, bv.best_score, "script score");
        prop_assert_eq!(edits, bv.edit_distance, "script edits");

        let ed = dense_edit(&text, &pattern);
        let cols = text.len() + 1;
        prop_assert!(
            bv.edit_distance >= ed[bv.best_i * cols + bv.best_j],
            "dense ED {} must lower-bound the script's {} edits",
            ed[bv.best_i * cols + bv.best_j], bv.edit_distance
        );
        prop_assert!(
            bv.best_score <= dense_unit_optimum(&text, &pattern),
            "windowed score {} above the dense unit optimum", bv.best_score
        );
    }

    /// On the single-window overlap domain (`pattern ≤ 48`,
    /// `text ≤ pattern + 56`, `k = 63`) the bound is tight: the engine
    /// must *equal* the dense unit optimum.
    #[test]
    fn single_window_extension_is_exact(
        qlen in 1usize..=48,
        extra in 0usize..=56,
        noise in 0.0f64..0.6,
        n_rate in 0.0f64..0.1,
        seed in any::<u64>(),
    ) {
        let (text, pattern) = window_pair(qlen, qlen + extra.min(56), noise, n_rate, seed);
        let cfg = BitvecConfig { window: 64, overlap: 16, k: 63, ..BitvecConfig::default() };
        let bv = bitvec_extend(&text, &pattern, &cfg);
        prop_assert_eq!(bv.best_score, dense_unit_optimum(&text, &pattern));
    }
}

/// Satellite clamp audit, mirrored at the consumer: the bitvector
/// candidate-score arithmetic routes through `score::add_clamped`, so
/// i32::MIN-adjacent operands must saturate at the engine's `NEG_INF`
/// floor and never wrap positive.
#[test]
fn candidate_score_arithmetic_saturates_near_i32_min() {
    // The exact shape the engine computes: extents + (−3·ed).
    assert_eq!(score::add_clamped(191, -3 * 63), 2);
    // An adversarial edit count large enough that the raw product
    // wraps: a penalty that comes out *positive* is exactly the bug the
    // clamp discipline exists to stop; the clamped form floors instead.
    let huge_ed = (i32::MAX / 3) + 1;
    assert!(
        huge_ed.wrapping_mul(-3) > 0,
        "raw penalty arithmetic would wrap positive"
    );
    assert_eq!(score::add_clamped(191, huge_ed.saturating_mul(-3)), NEG_INF);
    // MIN-adjacent accumulators stay floored.
    assert_eq!(score::add_clamped(i32::MIN + 100, -300), NEG_INF);
    assert_eq!(score::add_clamped(i32::MIN, i32::MIN), NEG_INF);
    assert!(score::add_clamped(i32::MIN, -1) >= NEG_INF);
    assert_eq!(score::clamp(i32::MIN + 1), NEG_INF);
}

/// Extension results can never report a score below the origin, even
/// on pure-garbage inputs where every candidate is negative — the
/// floor discipline seen end to end.
#[test]
fn garbage_extension_never_goes_negative() {
    let mut rng = SmallRng::seed_from_u64(99);
    for len in [8usize, 64, 200] {
        let t = random_codes(len, 0.5, &mut rng);
        let q: Vec<u8> = t.iter().map(|b| (b + 2) & 3).collect();
        let bv = bitvec_extend(&t, &q, &BitvecConfig::default());
        assert!(bv.best_score >= 0, "len {len}: score {}", bv.best_score);
        assert!(bv.best_score > NEG_INF);
    }
}
