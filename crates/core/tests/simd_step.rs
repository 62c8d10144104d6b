//! Differential pinning of the SIMD wavefront kernel to the
//! interpreter, per step and per engine run.
//!
//! The per-step property drives the interpreter and the vector step on
//! every lane type this CPU supports (one per [`SimdIsa`] level) with
//! adversarial register files — values across the full engine range
//! including exact `NEG_INF` sentinels, every `[lo, hi]` lane window,
//! thresholds from prune-nothing to prune-everything — and demands
//! whole-struct equality of [`StepOut`]: S/I/D stores, packed traceback
//! bytes, and both ballots. The engine-level property then runs full extensions
//! under each backend at every strip width and compares results and
//! cell traces, so the shared bookkeeping around the kernels is pinned
//! too.

use fastz_align::DenseTrace;
use fastz_core::{
    step_interpreter, step_simd_narrow_on, step_simd_on, OptFlags, SimdIsa, StepIn, WarpConfig,
    WavefrontBackend,
};
use fastz_genome::evolve::random_codes;
use fastz_genome::{GapPenalties, Scoring, SubstMatrix};
use fastz_gpu_sim::{Lanes, SharedMem, WARP_SIZE};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The engine's score floor (`fastz_align::ydrop::NEG_INF`), restated
/// here so the test fails loudly if the sentinel ever moves.
const NEG_INF: i32 = i32::MIN / 4;

/// A register file with lane values across the live score range, a
/// sprinkling of exact `NEG_INF` sentinels (fresh or pruned lanes), and
/// a sprinkling of near-floor values (decayed gap chains).
fn register_file(rng: &mut SmallRng) -> Lanes<i32> {
    let mut v = [0i32; WARP_SIZE];
    for x in v.iter_mut() {
        *x = match rng.gen_range(0u8..10) {
            0..=1 => NEG_INF,
            2 => NEG_INF + rng.gen_range(0..200),
            _ => rng.gen_range(-20_000i32..=20_000),
        };
    }
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// One wavefront step: the vector step on every supported lane type
    /// must equal `step_interpreter` field for field on arbitrary
    /// register files and lane windows.
    #[test]
    fn simd_step_matches_interpreter_step(
        seed in any::<u64>(),
        lo in 0usize..WARP_SIZE,
        span in 0usize..WARP_SIZE,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let hi = (lo + span).min(WARP_SIZE - 1);

        let s_left = register_file(&mut rng);
        let i_left = register_file(&mut rng);
        let s_diag = register_file(&mut rng);
        let s_cur = register_file(&mut rng);
        let d_cur = register_file(&mut rng);
        let mut subst = [0i32; WARP_SIZE];
        let mut threshold = [0i32; WARP_SIZE];
        for l in 0..WARP_SIZE {
            subst[l] = rng.gen_range(-200i32..=200);
            // From "keep everything" through the live band to "prune
            // everything" — the dead mask must agree in all regimes.
            threshold[l] = match rng.gen_range(0u8..4) {
                0 => NEG_INF,
                1 => rng.gen_range(-25_000i32..=25_000),
                _ => rng.gen_range(-300i32..=300),
            };
        }

        let inp = StepIn {
            s_left: &s_left,
            i_left: &i_left,
            s_diag: &s_diag,
            s_cur: &s_cur,
            d_cur: &d_cur,
            subst: &subst,
            threshold: &threshold,
            so_se: -rng.gen_range(1i32..=80),
            se: -rng.gen_range(1i32..=12),
            lo,
            hi,
        };
        let want = step_interpreter(&inp);
        for isa in SimdIsa::ALL.into_iter().filter(|isa| isa.supported()) {
            let got = step_simd_on(isa, &inp);
            prop_assert_eq!(want, got, "{} lane type", isa.name());
        }
        prop_assert_eq!(want, step_simd_on(SimdIsa::dispatched(), &inp), "dispatched lane type");
    }
}

/// One lane's cell as a 16-bit strip sees it: a real S in the live
/// range with a real or sentinel gap value (I or D), or a dead cell,
/// both `NEG_INF`. A real gap value never sits beside a sentinel S.
fn narrow_cell(rng: &mut SmallRng) -> (i32, i32) {
    match rng.gen_range(0u8..6) {
        0 => (NEG_INF, NEG_INF),
        1 => (rng.gen_range(-20_000i32..=20_000), NEG_INF),
        _ => (
            rng.gen_range(-20_000i32..=20_000),
            rng.gen_range(-20_000i32..=20_000),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// One wavefront step on every supported 16-bit lane type equals
    /// `step_interpreter` field for field on register files inside the
    /// engine's 16-bit precondition: real scores within ±20000 (every
    /// sum the step forms stays above the sentinel band), substitution
    /// scores down to HOXD70's `N` (−1000), sentinels exactly `NEG_INF`,
    /// and no lane whose every source is a sentinel under a sentinel
    /// threshold (the engine's no-sentinel-derived-live-cell invariant).
    #[test]
    fn narrow_step_matches_interpreter_inside_the_precondition(
        seed in any::<u64>(),
        lo in 0usize..WARP_SIZE,
        span in 0usize..WARP_SIZE,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let hi = (lo + span).min(WARP_SIZE - 1);
        let mut s_left = [0i32; WARP_SIZE];
        let mut i_left = [0i32; WARP_SIZE];
        let mut s_cur = [0i32; WARP_SIZE];
        let mut d_cur = [0i32; WARP_SIZE];
        let mut s_diag = [0i32; WARP_SIZE];
        let mut subst = [0i32; WARP_SIZE];
        let mut threshold = [0i32; WARP_SIZE];
        for l in 0..WARP_SIZE {
            (s_left[l], i_left[l]) = narrow_cell(&mut rng);
            (s_cur[l], d_cur[l]) = narrow_cell(&mut rng);
            s_diag[l] = narrow_cell(&mut rng).0;
            subst[l] = rng.gen_range(-1000i32..=100);
            threshold[l] = match rng.gen_range(0u8..4) {
                0 => {
                    // Under a sentinel threshold the cell has a real source.
                    s_diag[l] = rng.gen_range(-20_000i32..=20_000);
                    NEG_INF
                }
                1 => rng.gen_range(-22_000i32..=20_000),
                _ => rng.gen_range(-300i32..=300),
            };
        }
        let se = -rng.gen_range(1i32..=50);
        let inp = StepIn {
            s_left: &s_left,
            i_left: &i_left,
            s_diag: &s_diag,
            s_cur: &s_cur,
            d_cur: &d_cur,
            subst: &subst,
            threshold: &threshold,
            so_se: se - rng.gen_range(0i32..=450),
            se,
            lo,
            hi,
        };
        let want = step_interpreter(&inp);
        for isa in SimdIsa::ALL.into_iter().filter(|isa| isa.supported()) {
            let got = step_simd_narrow_on(isa, &inp);
            prop_assert_eq!(want, got, "{} 16-bit lane type", isa.name());
        }
    }
}

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

/// A noisy homologous pair (same recipe as `properties.rs`).
fn homologous_pair(len: usize, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let t = random_codes(len, 0.45, &mut rng);
    let mut q = t.clone();
    for b in q.iter_mut() {
        if rng.gen_bool(0.04) {
            *b = (*b + rng.gen_range(1..4)) & 3;
        }
    }
    let cut = rng.gen_range(0..q.len().saturating_sub(4).max(1));
    let indel = rng.gen_range(1..4.min(q.len() - cut).max(2));
    q.drain(cut..cut + indel);
    (t, q)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Whole-engine differential run: at every strip width, the SIMD
    /// backend's extension — optimum, counters, explored extents, and
    /// the full cell trace — is bit-identical to the interpreter's.
    #[test]
    fn simd_engine_matches_interpreter_engine(
        len in 48usize..200,
        seed in any::<u64>(),
    ) {
        let (t, q) = homologous_pair(len, seed);
        for width in [1usize, 2, 8, 31, 32] {
            let run = |backend: WavefrontBackend| {
                let cfg = WarpConfig::inspector(&OptFlags::fastz())
                    .with_strip_width(width)
                    .with_backend(backend);
                let mut shared = SharedMem::new(96 * 1024);
                let mut trace = DenseTrace::default();
                let r = fastz_core::warp_extend_on(
                    SimdIsa::dispatched(), &t[..], &q[..], &scoring(), &cfg, &mut shared,
                    &mut Vec::new(), &mut trace,
                );
                (r, trace)
            };
            let (a, trace_a) = run(WavefrontBackend::Interpreter);
            let (b, trace_b) = run(WavefrontBackend::Simd);
            prop_assert_eq!(
                (a.best_score, a.best_i, a.best_j),
                (b.best_score, b.best_i, b.best_j),
                "width {}: optimum diverged", width
            );
            prop_assert_eq!(a.counters, b.counters, "width {}: counters diverged", width);
            prop_assert_eq!(
                (a.explored_rows, a.explored_cols),
                (b.explored_rows, b.explored_cols),
                "width {}: explored extents diverged", width
            );
            prop_assert_eq!(&a.eager_ops, &b.eager_ops, "width {}: eager ops diverged", width);
            prop_assert_eq!(
                &trace_a.cells, &trace_b.cells,
                "width {}: cell traces diverged", width
            );
        }
    }
}
