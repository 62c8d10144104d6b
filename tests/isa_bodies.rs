//! Per-ISA differential over the warp engine body.
//!
//! The engine body is one generic compiled once per `SimdIsa` level,
//! each on its own lane type; production runs only the widest level the
//! CPU supports. This test runs every supported level's vector body
//! against the interpreter on the portable body — whole `WarpExtension`,
//! every traced cell and the eager-window bytes left in shared memory,
//! in inspector and trimmed-executor mode — so the narrower bodies stay
//! covered on hosts that never dispatch them.
//!
//! The sink and an attached sanitizer pick compile-time variants of the
//! body: a traced run compiles the per-cell walk in, a `NoTrace` run
//! (the one production makes) compiles it out, and a sanitized run
//! writes the eager window straight to shared memory where the others
//! stage it. Each level's `NoTrace` and sanitized runs must match its
//! traced run exactly.
//!
//! The `NoTrace` run is also the only one that sweeps strips on the
//! level's 16-bit lane type, wherever an exact score bound admits a
//! strip; every other run is all 32-bit. So the `NoTrace`-vs-traced
//! comparisons are 16-bit-vs-32-bit comparisons, and the tests below
//! check through the host-only strip count that the 16-bit strips ran,
//! that a best score past the 16-bit ceiling switches to 32-bit strips
//! at the right strip, and that a scoring outside the 16-bit floor never
//! leaves 32 bits.

use fastz::align::{CellScores, CellSink, DenseTrace, NoTrace};
use fastz::core::{
    strip_widths, warp_extend_traced_on, OptFlags, SimdIsa, StripWidths, WarpConfig, WarpExtension,
    WavefrontBackend,
};
use fastz::genome::{GapPenalties, Scoring, SubstMatrix};
use fastz::gpu_sim::SharedMem;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

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

/// A homologous pair: ~6% substitutions and a short deletion.
fn pair(len: usize, rng: &mut SmallRng) -> (Vec<u8>, Vec<u8>) {
    let t: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4)).collect();
    let mut q: Vec<u8> = t
        .iter()
        .map(|&b| {
            if rng.gen_bool(0.06) {
                (b + rng.gen_range(1..4)) & 3
            } else {
                b
            }
        })
        .collect();
    let cut = rng.gen_range(1..len - 4);
    q.drain(cut..cut + 3);
    (t, q)
}

/// The eager-window bytes of `cfg` in `shared`.
fn window(shared: &SharedMem, cfg: &WarpConfig) -> Vec<u8> {
    let w = cfg.eager_window;
    (0..w * w).map(|o| shared.read_u8(o)).collect()
}

/// One run on `isa` into `sink`, with a sanitizer attached when
/// `sanitize`: the extension and the eager-window bytes.
fn run_into<K: CellSink>(
    isa: SimdIsa,
    t: &[u8],
    q: &[u8],
    cfg: &WarpConfig,
    sanitize: bool,
    sink: &mut K,
) -> (WarpExtension, Vec<u8>) {
    run_scored(isa, t, q, &scoring(), cfg, sanitize, sink)
}

/// [`run_into`] under `sc`.
fn run_scored<K: CellSink>(
    isa: SimdIsa,
    t: &[u8],
    q: &[u8],
    sc: &Scoring,
    cfg: &WarpConfig,
    sanitize: bool,
    sink: &mut K,
) -> (WarpExtension, Vec<u8>) {
    let mut shared = SharedMem::new(96 * 1024);
    if sanitize {
        shared.attach_sanitizer();
    }
    let ext = warp_extend_traced_on(isa, t, q, sc, cfg, &mut shared, &mut Vec::new(), sink);
    if let Some(report) = shared.take_sanitize_report() {
        assert!(
            report.is_clean(),
            "{}: sanitizer findings {report:?}",
            isa.name()
        );
    }
    (ext, window(&shared, cfg))
}

type Traced = (WarpExtension, BTreeMap<(usize, usize), CellScores>, Vec<u8>);

/// A traced run: the extension, every live cell and the window bytes.
fn run(isa: SimdIsa, t: &[u8], q: &[u8], cfg: &WarpConfig) -> Traced {
    let mut trace = DenseTrace::default();
    let (ext, bytes) = run_into(isa, t, q, cfg, false, &mut trace);
    (ext, trace.cells, bytes)
}

/// Checks `isa`'s `NoTrace` and sanitized runs of `cfg` against its
/// traced run `traced`.
fn untraced_runs_match(
    isa: SimdIsa,
    t: &[u8],
    q: &[u8],
    cfg: &WarpConfig,
    traced: &Traced,
    ctx: &str,
) {
    let want = (traced.0.clone(), traced.2.clone());
    let plain = run_into(isa, t, q, cfg, false, &mut NoTrace);
    assert_eq!(plain, want, "{ctx} (NoTrace)");
    let sanitized = run_into(isa, t, q, cfg, true, &mut NoTrace);
    assert_eq!(sanitized, want, "{ctx} (sanitized)");
}

#[test]
fn every_supported_isa_body_matches_the_interpreter() {
    let mut rng = SmallRng::seed_from_u64(0x15A_B0D1);
    let isas: Vec<SimdIsa> = SimdIsa::ALL
        .into_iter()
        .filter(|isa| isa.supported())
        .collect();
    assert!(isas.contains(&SimdIsa::Portable));
    for len in [9usize, 40, 75, 140] {
        let (t, q) = pair(len, &mut rng);
        for width in [7usize, 32] {
            let inspector = WarpConfig::inspector(&OptFlags::fastz()).with_strip_width(width);
            let oracle = WavefrontBackend::Interpreter;
            let want = run(SimdIsa::Portable, &t, &q, &inspector.with_backend(oracle));
            let executor = WarpConfig::executor(&OptFlags::fastz(), want.0.best_i, want.0.best_j)
                .with_strip_width(width);
            let want_exec = run(SimdIsa::Portable, &t, &q, &executor.with_backend(oracle));
            assert!(want_exec.0.ops.is_some());
            for &isa in &isas {
                let simd = WavefrontBackend::Simd;
                let ctx = format!("{} / {len} bp / width {width}", isa.name());
                let cfg = inspector.with_backend(simd);
                let got = run(isa, &t, &q, &cfg);
                assert_eq!(got, want, "{ctx} (inspector)");
                untraced_runs_match(isa, &t, &q, &cfg, &got, &format!("{ctx} (inspector)"));
                let cfg = executor.with_backend(simd);
                let got = run(isa, &t, &q, &cfg);
                assert_eq!(got, want_exec, "{ctx} (executor)");
                untraced_runs_match(isa, &t, &q, &cfg, &got, &format!("{ctx} (executor)"));
            }
        }
    }
}

/// The strips `f` swept at each lane width on this thread.
fn strips_of<R>(f: impl FnOnce() -> R) -> (R, StripWidths) {
    let before = strip_widths();
    let out = f();
    let after = strip_widths();
    let swept = StripWidths {
        narrow: after.narrow - before.narrow,
        wide: after.wide - before.wide,
    };
    (out, swept)
}

/// Each supported level's `NoTrace` inspector run of `t`/`q` under `sc`
/// against its traced (all 32-bit) run: the whole extension and the
/// window bytes. Returns the `NoTrace` runs' strip counts per level.
fn narrow_vs_wide(sc: &Scoring, t: &[u8], q: &[u8], ctx: &str) -> Vec<StripWidths> {
    let cfg = WarpConfig::inspector(&OptFlags::fastz());
    let mut counts = Vec::new();
    for isa in SimdIsa::ALL.into_iter().filter(|isa| isa.supported()) {
        let mut trace = DenseTrace::default();
        let (want, wide) = strips_of(|| run_scored(isa, t, q, sc, &cfg, false, &mut trace));
        assert_eq!(
            wide.narrow,
            0,
            "{ctx} / {}: a traced run is all i32",
            isa.name()
        );
        let (got, swept) = strips_of(|| run_scored(isa, t, q, sc, &cfg, false, &mut NoTrace));
        assert_eq!(
            got,
            want,
            "{ctx} / {}: i16 strips vs the i32 run",
            isa.name()
        );
        assert_eq!(
            swept.narrow + swept.wide,
            wide.wide,
            "{ctx} / {}: same strips",
            isa.name()
        );
        counts.push(swept);
    }
    counts
}

#[test]
fn notrace_runs_sweep_16_bit_strips() {
    let mut rng = SmallRng::seed_from_u64(0x16_B175);
    for len in [40usize, 300, 900] {
        let (t, q) = pair(len, &mut rng);
        for swept in narrow_vs_wide(&scoring(), &t, &q, &format!("{len} bp")) {
            assert!(swept.narrow > 0 && swept.wide == 0, "{len} bp: {swept:?}");
        }
    }
}

#[test]
fn a_best_past_the_16_bit_ceiling_switches_to_32_bit_strips() {
    // A 4000-bp perfect homology scores 10 per base: 40000 at its end,
    // past i16::MAX. Strip k enters with best 320·k, and the ceiling
    // admits it while 320·k + 32·10 (its own gain) + 256 (headroom)
    // ≤ 32767: strips 0..=100 in 16 bits, the other 24 of the 125 in
    // 32 bits.
    let t: Vec<u8> = (0..4000u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 7) as u8 & 3)
        .collect();
    for swept in narrow_vs_wide(&scoring(), &t, &t, "perfect 4000 bp") {
        assert_eq!(
            swept,
            StripWidths {
                narrow: 101,
                wide: 24
            }
        );
    }
}

#[test]
fn a_scoring_outside_the_16_bit_floor_runs_every_strip_in_32_bits() {
    // A 32700 y-drop keeps live scores down to −32700: with strip 0's
    // two gap opens (−70) and a gap extend on top (−40) they would reach
    // the sentinel band below −32758, so no strip qualifies.
    let sc = Scoring {
        ydrop: 32_700,
        ..scoring()
    };
    let mut rng = SmallRng::seed_from_u64(0xF1_0012);
    let (t, q) = pair(300, &mut rng);
    for swept in narrow_vs_wide(&sc, &t, &q, "ydrop 32700") {
        assert!(swept.narrow == 0 && swept.wide > 0, "{swept:?}");
    }
}
