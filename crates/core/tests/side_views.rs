//! A left side read in place through a reversed `BaseView` must extend
//! exactly as the same engine extends a reversed copy of it.
//!
//! The pipeline hands every left-side problem to the engines as two
//! reversed views over the sequences, where it used to reverse both
//! prefixes into scratch buffers. Any index slip in a view read (the
//! warp engine's strip gather and per-step query base, the bitvector
//! engine's pattern windows, text columns and traceback walk) changes a
//! score, a script or a counter on some input, so this test compares
//! whole results: score, best cell, script, work counters, SENE/DENT
//! stats and explored extents, and the scratchpad traffic an attached
//! sanitizer records. Sides are 0–600 bases long and carry `N` runs,
//! inside and at the flanks. Both engines run through the entry the
//! pipeline calls (`warp_extend_in`, `bitvec_extend_in`); the warp
//! engine also runs on every `SimdIsa` level this CPU supports through
//! its per-level hook, in inspector and executor configurations.

use fastz_align::trace::NoTrace;
use fastz_core::{
    bitvec_extend_in, warp_extend_in, warp_extend_on, BaseView, BitvecConfig, OptFlags, SimdIsa,
    WarpConfig, WarpExtension, WavefrontBackend,
};
use fastz_genome::{GapPenalties, Scoring, SubstMatrix, N_CODE};
use fastz_gpu_sim::{SanitizeReport, SharedMem};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Scratchpad size for every run: the modeled RTX 3080's 128 KiB.
const SHARED: usize = 128 * 1024;

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

/// Overwrites up to three runs of `seq` with `N`, one of them sometimes
/// at a flank.
fn plant_n_runs(seq: &mut [u8], rng: &mut SmallRng) {
    if seq.is_empty() {
        return;
    }
    for _ in 0..rng.gen_range(0..=3) {
        let len = rng.gen_range(1..=40).min(seq.len());
        let at = match rng.gen_range(0..4) {
            0 => 0,
            1 => seq.len() - len,
            _ => rng.gen_range(0..=seq.len() - len),
        };
        seq[at..at + len].fill(N_CODE);
    }
}

/// A (target, query) side pair: a random target of 0–600 bases and a
/// query that shares it with substitutions and an indel or is unrelated,
/// each cut to a random length and given `N` runs.
fn side(rng: &mut SmallRng) -> (Vec<u8>, Vec<u8>) {
    let len = rng.gen_range(0..=600);
    let mut t: Vec<u8> = (0..len).map(|_| rng.gen_range(0..4)).collect();
    let mut q: Vec<u8> = if rng.gen_bool(0.2) {
        (0..rng.gen_range(0..=600))
            .map(|_| rng.gen_range(0..4))
            .collect()
    } else {
        t.iter()
            .map(|&b| {
                if rng.gen_bool(0.06) {
                    (b + rng.gen_range(1..4)) & 3
                } else {
                    b
                }
            })
            .collect()
    };
    if q.len() > 10 && rng.gen_bool(0.5) {
        let cut = rng.gen_range(0..q.len() - 6);
        q.drain(cut..cut + rng.gen_range(1..6));
    }
    if rng.gen_bool(0.3) {
        q.truncate(rng.gen_range(0..=q.len()));
    }
    plant_n_runs(&mut t, rng);
    plant_n_runs(&mut q, rng);
    (t, q)
}

fn reversed(s: &[u8]) -> Vec<u8> {
    s.iter().rev().copied().collect()
}

/// A scratchpad, sanitized when asked.
fn scratchpad(capacity: usize, sanitize: bool) -> SharedMem {
    let mut shared = SharedMem::new(capacity);
    if sanitize {
        shared.attach_sanitizer();
        shared.sanitize_context("inspector", 7);
    }
    shared
}

fn corpus() -> Vec<(Vec<u8>, Vec<u8>)> {
    let mut rng = SmallRng::seed_from_u64(0x51DE_7E35);
    let mut cases: Vec<(Vec<u8>, Vec<u8>)> = (0..40).map(|_| side(&mut rng)).collect();
    // Empty and all-`N` sides.
    cases.push((Vec::new(), vec![1, 2, 3]));
    cases.push((vec![0, 1, 2], Vec::new()));
    cases.push((vec![N_CODE; 120], vec![N_CODE; 90]));
    cases
}

#[test]
fn reversed_bitvector_views_match_reversed_copies() {
    let small = BitvecConfig {
        window: 17,
        overlap: 5,
        k: 12,
        ..BitvecConfig::default()
    };
    for (c, (t, q)) in corpus().iter().enumerate() {
        let (rt, rq) = (reversed(t), reversed(q));
        for (label, cfg, capacity) in [
            ("default", BitvecConfig::default(), SHARED),
            ("window 17", small, SHARED),
            ("small scratchpad", BitvecConfig::default(), 4096),
        ] {
            for sanitize in [false, true] {
                let ctx = format!("case {c} ({} × {}), {label}", t.len(), q.len());
                let mut want_mem = scratchpad(capacity, sanitize);
                let want = bitvec_extend_in(&rt[..], &rq[..], &cfg, &mut want_mem);
                let mut got_mem = scratchpad(capacity, sanitize);
                let got = bitvec_extend_in(
                    BaseView::reversed(t),
                    BaseView::reversed(q),
                    &cfg,
                    &mut got_mem,
                );
                assert_eq!(got, want, "{ctx}");
                let reports: [Option<SanitizeReport>; 2] = [
                    got_mem.take_sanitize_report(),
                    want_mem.take_sanitize_report(),
                ];
                assert_eq!(reports[0], reports[1], "{ctx}: sanitizer traffic");
            }
        }
    }
}

/// One warp extension through the per-level hook on `isa`, or through
/// the production entry when `isa` is `None`.
fn warp_run(
    isa: Option<SimdIsa>,
    t: BaseView<'_>,
    q: BaseView<'_>,
    sc: &Scoring,
    cfg: &WarpConfig,
    shared: &mut SharedMem,
    tbm: &mut Vec<u8>,
) -> WarpExtension {
    match isa {
        Some(isa) => warp_extend_on(isa, t, q, sc, cfg, shared, tbm, &mut NoTrace),
        None => warp_extend_in(t, q, sc, cfg, shared, tbm),
    }
}

#[test]
fn reversed_warp_views_match_reversed_copies_on_every_isa() {
    let sc = scoring();
    let flags = OptFlags::fastz();
    let entries: Vec<Option<SimdIsa>> = SimdIsa::ALL
        .into_iter()
        .filter(|isa| isa.supported())
        .map(Some)
        .chain([None])
        .collect();
    for (c, (t, q)) in corpus().iter().enumerate() {
        let (rt, rq) = (reversed(t), reversed(q));
        let (ft, fq) = (BaseView::forward(&rt), BaseView::forward(&rq));
        for &isa in &entries {
            let name = isa.map_or("warp_extend_in", SimdIsa::name);
            let inspector = WarpConfig::inspector(&flags).with_backend(WavefrontBackend::Simd);
            let mut shared = SharedMem::new(SHARED);
            let insp = warp_run(isa, ft, fq, &sc, &inspector, &mut shared, &mut Vec::new());
            let executor = WarpConfig::executor(&flags, insp.best_i, insp.best_j)
                .with_backend(WavefrontBackend::Simd);
            for (label, cfg) in [("inspector", inspector), ("executor", executor)] {
                for sanitize in [false, true] {
                    let ctx = format!(
                        "case {c} ({} × {}), {}, {label}, sanitized {sanitize}",
                        t.len(),
                        q.len(),
                        name
                    );
                    let (mut want_mem, mut want_tb) = (scratchpad(SHARED, sanitize), Vec::new());
                    let want = warp_run(isa, ft, fq, &sc, &cfg, &mut want_mem, &mut want_tb);
                    let (mut got_mem, mut got_tb) = (scratchpad(SHARED, sanitize), Vec::new());
                    let (vt, vq) = (BaseView::reversed(t), BaseView::reversed(q));
                    let got = warp_run(isa, vt, vq, &sc, &cfg, &mut got_mem, &mut got_tb);
                    assert_eq!(got, want, "{ctx}");
                    assert_eq!(got_tb, want_tb, "{ctx}: traceback band");
                    assert_eq!(
                        got_mem.take_sanitize_report(),
                        want_mem.take_sanitize_report(),
                        "{ctx}: sanitizer traffic"
                    );
                    let w = cfg.eager_window;
                    let window =
                        |m: &SharedMem| (0..w * w).map(|o| m.read_u8(o)).collect::<Vec<_>>();
                    assert_eq!(window(&got_mem), window(&want_mem), "{ctx}: eager window");
                }
            }
        }
    }
}
