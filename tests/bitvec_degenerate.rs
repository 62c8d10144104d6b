//! Degenerate inputs to the bitvector engine: empty and 1-base sides,
//! text shorter than the edit budget or exhausted after one window,
//! identical pairs, one-row windows and windows that keep one row.
//!
//! These are the shapes the column sweep's live-band start and its
//! per-column dead-prefix table index into at their edges. Each run
//! must return without panicking, and its edit script must re-walk to
//! the reported best cell, score and edit count.

use fastz::align::EditOp;
use fastz::core::{bitvec_extend, BitvecConfig, BitvecExtension};
use fastz::genome::evolve::random_codes;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Re-walks `e.ops` under the unit regime (+2 match, −1 mismatch, −2
/// per gap base) and checks it lands on what `e` claims.
fn assert_rewalks(label: &str, text: &[u8], pattern: &[u8], e: &BitvecExtension) {
    let (mut j, mut i, mut score, mut edits) = (0usize, 0usize, 0i32, 0u32);
    for op in &e.ops {
        match *op {
            EditOp::Diag(k) => {
                for _ in 0..k {
                    if text[j] == pattern[i] {
                        score += 2;
                    } else {
                        score -= 1;
                        edits += 1;
                    }
                    i += 1;
                    j += 1;
                }
            }
            EditOp::GapQ(k) => {
                j += k as usize;
                score -= 2 * k as i32;
                edits += k;
            }
            EditOp::GapT(k) => {
                i += k as usize;
                score -= 2 * k as i32;
                edits += k;
            }
        }
    }
    assert_eq!((i, j), (e.best_i, e.best_j), "{label}: script end");
    assert_eq!(score, e.best_score, "{label}: script score");
    assert_eq!(edits, e.edit_distance, "{label}: script edits");
    assert!(e.best_score >= 0, "{label}: negative score");
}

fn run(label: &str, text: &[u8], pattern: &[u8], cfg: &BitvecConfig) -> BitvecExtension {
    let e = bitvec_extend(text, pattern, cfg);
    assert_rewalks(label, text, pattern, &e);
    e
}

fn cfg(window: usize, overlap: usize, k: usize) -> BitvecConfig {
    BitvecConfig {
        window,
        overlap,
        k,
        ..BitvecConfig::default()
    }
}

#[test]
fn empty_sides_return_the_origin() {
    let s = [0u8, 1, 2, 3];
    let dflt = BitvecConfig::default();
    for (text, pattern) in [(&s[..], &[][..]), (&[][..], &s[..]), (&[][..], &[][..])] {
        let e = run("empty side", text, pattern, &dflt);
        assert_eq!((e.best_score, e.best_i, e.best_j), (0, 0, 0));
        assert!(e.ops.is_empty());
    }
}

#[test]
fn one_base_sides() {
    let mut rng = SmallRng::seed_from_u64(0x1BA5E);
    let long = random_codes(90, 0.5, &mut rng);
    for k in [1usize, 31, 63] {
        let c = cfg(64, 16, k);
        let m = run("1 x 1 match", &[2], &[2], &c);
        assert_eq!((m.best_score, m.best_i, m.best_j), (2, 1, 1));
        let x = run("1 x 1 mismatch", &[2], &[1], &c);
        assert_eq!(x.best_score, 0);
        run("1-base text", &long[..1], &long, &c);
        run("1-base pattern", &long, &long[..1], &c);
    }
    for window in [1usize, 2, 64] {
        run("1-base, narrow window", &[3], &[3], &cfg(window, 0, 4));
    }
}

#[test]
fn text_shorter_than_the_budget() {
    let mut rng = SmallRng::seed_from_u64(0x5_4077);
    let pattern = random_codes(150, 0.5, &mut rng);
    for (len, k) in [(10usize, 31usize), (30, 31), (1, 63), (62, 63), (3, 5)] {
        let e = run("text < k", &pattern[..len], &pattern, &cfg(64, 16, k));
        assert_eq!((e.best_i, e.best_j), (len, len), "k {k}: identical prefix");
    }
}

#[test]
fn text_exhausted_after_the_first_window() {
    let mut rng = SmallRng::seed_from_u64(0xE8_4A57);
    let pattern = random_codes(200, 0.5, &mut rng);
    // Text ending where the first window's committed rows end, just
    // before, and just after.
    for len in [47usize, 48, 49, 64, 95] {
        let e = run(
            "exhausted",
            &pattern[..len],
            &pattern,
            &BitvecConfig::default(),
        );
        assert_eq!(
            e.best_j, len,
            "text {len}: identical prefix runs to its end"
        );
    }
}

#[test]
fn identical_pairs_score_two_per_base() {
    let mut rng = SmallRng::seed_from_u64(0x1D_E471);
    for len in [1usize, 63, 64, 65, 500] {
        let s = random_codes(len, 0.5, &mut rng);
        for c in [BitvecConfig::default(), cfg(64, 16, 1), cfg(7, 3, 63)] {
            let e = run("identical", &s, &s, &c);
            assert_eq!((e.best_score, e.edit_distance), (2 * len as i32, 0));
        }
    }
}

#[test]
fn one_row_windows_and_one_row_commits() {
    let mut rng = SmallRng::seed_from_u64(0x0_E1DE);
    let t = random_codes(160, 0.5, &mut rng);
    let mut q = t.clone();
    for b in q.iter_mut().step_by(11) {
        *b = (*b + 1) & 3;
    }
    q.drain(70..73);
    let unrelated = random_codes(120, 0.5, &mut rng);
    for c in [
        cfg(1, 0, 1),
        cfg(1, 0, 63),
        cfg(2, 1, 3),
        cfg(8, 7, 5),
        cfg(64, 63, 31),
    ] {
        let e = run("homologous", &t, &q, &c);
        assert!(e.best_i > 100, "{c:?}: the chain follows the homology");
        run("unrelated", &t, &unrelated, &c);
        run("identical", &t, &t, &c);
    }
}
