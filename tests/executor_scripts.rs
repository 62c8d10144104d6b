//! Pins the executor's results: edit scripts, optima, work counters and
//! explored extents over a fixed corpus, hashed with the shared FNV-1a;
//! and the inspector's, with the eager-window bytes it leaves in shared
//! memory.
//!
//! The engine-vs-engine differentials (`isa_bodies`, the core crate's
//! `every_isa` test) compare bodies that share one traceback store, so
//! a storage bug every ISA shares passes them. This pin does not: the
//! literal was captured from a known-good build, and any change to how
//! executor traceback is stored or walked must reproduce it exactly.
//!
//! The corpus covers strip widths 1, 7 and 32 with partial last strips,
//! long alignments whose later strips start below row 0, homologies
//! that run into unrelated sequence (strips that end on the dead-window
//! break), and trimmed and untrimmed executor configurations. The
//! inspector pin adds short homologies whose optimum falls inside the
//! eager window, and an asymmetric substitution matrix, whose transpose
//! scores differently.

use fastz::align::EditOp;
use fastz::core::{
    strip_widths, warp_extend, warp_extend_in, OptFlags, WarpConfig, WarpExtension,
    WavefrontBackend,
};
use fastz::genome::evolve::random_codes;
use fastz::genome::{fnv1a, GapPenalties, Scoring, SubstMatrix, FNV1A_BASIS};
use fastz::gpu_sim::{SharedMem, WarpCounters};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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

/// A copy of `t` with substitutions at rate `rate`.
fn mutate(t: &[u8], rate: f64, rng: &mut SmallRng) -> Vec<u8> {
    t.iter()
        .map(|&b| {
            if rng.gen_bool(rate) {
                (b + rng.gen_range(1..4)) & 3
            } else {
                b
            }
        })
        .collect()
}

/// (label, target, query) pairs.
fn corpus() -> Vec<(String, Vec<u8>, Vec<u8>)> {
    let mut rng = SmallRng::seed_from_u64(0xE8EC_5C21);
    let mut cases = Vec::new();
    // Homologous pairs with a short indel; lengths that leave partial
    // last strips at widths 7 and 32, and long enough that later strips
    // start well below row 0.
    for len in [5usize, 45, 101, 333, 700] {
        let t = random_codes(len, 0.5, &mut rng);
        let mut q = mutate(&t, 0.06, &mut rng);
        if len > 8 {
            let cut = rng.gen_range(2..len - 6);
            q.drain(cut..cut + 3);
        }
        cases.push((format!("homology {len}"), t, q));
    }
    // A long gap in either sequence: the band drifts by its length.
    let t = random_codes(420, 0.5, &mut rng);
    let mut q = mutate(&t, 0.03, &mut rng);
    q.drain(150..190);
    cases.push(("40-bp deletion".to_string(), t.clone(), q.clone()));
    cases.push(("40-bp insertion".to_string(), q, t));
    // Homology into unrelated sequence: the y-drop ends strips on the
    // dead-window break.
    for (hom, tail) in [(150usize, 400usize), (61, 250)] {
        let mut t = random_codes(hom, 0.5, &mut rng);
        let mut q = mutate(&t, 0.04, &mut rng);
        t.extend(random_codes(tail, 0.5, &mut rng));
        q.extend(random_codes(tail + 17, 0.5, &mut rng));
        cases.push((format!("homology {hom} then {tail} unrelated"), t, q));
    }
    // Unrelated pair: the optimum is near the origin.
    let t = random_codes(90, 0.5, &mut rng);
    let q = random_codes(77, 0.5, &mut rng);
    cases.push(("unrelated".to_string(), t, q));
    cases
}

fn fold_u64(h: u64, v: u64) -> u64 {
    fnv1a(h, &v.to_le_bytes())
}

fn fold_counters(h: u64, c: &WarpCounters) -> u64 {
    [
        c.steps,
        c.cells,
        c.alu_ops,
        c.divergent_steps,
        c.global_read,
        c.global_written,
        c.shared_bytes,
        c.shuffles,
        c.scalar_ops,
    ]
    .into_iter()
    .fold(h, fold_u64)
}

/// Folds everything observable about one executor run into `h`.
fn fold_extension(mut h: u64, e: &WarpExtension) -> u64 {
    h = fold_u64(h, e.best_score as i64 as u64);
    h = fold_u64(h, e.best_i as u64);
    h = fold_u64(h, e.best_j as u64);
    h = fold_u64(h, e.explored_rows as u64);
    h = fold_u64(h, e.explored_cols as u64);
    h = fold_u64(h, u64::from(e.eager_ops.is_some()));
    h = fold_ops(h, e.ops.as_ref().expect("executor edit script"));
    fold_counters(h, &e.counters)
}

/// Hash of every executor run over the corpus on `backend`.
fn executor_hash(backend: WavefrontBackend) -> u64 {
    let sc = scoring();
    let untrimmed = OptFlags {
        executor_trimming: false,
        ..OptFlags::fastz()
    };
    let mut shared = SharedMem::new(96 * 1024);
    // One reused buffer across every run, as a worker arena reuses it.
    let mut tbm = Vec::new();
    let mut h = FNV1A_BASIS;
    for (label, t, q) in corpus() {
        let insp = warp_extend(
            &t,
            &q,
            &sc,
            &WarpConfig::inspector(&OptFlags::fastz()).with_backend(backend),
            &mut shared,
        );
        let (bi, bj) = (insp.best_i, insp.best_j);
        let configs = [
            WarpConfig::executor(&OptFlags::fastz(), bi, bj),
            WarpConfig::executor(&untrimmed, bi, bj),
            // The pipeline's untrimmed executor: the inspector's
            // explored extents.
            WarpConfig {
                max_rows: insp.explored_rows,
                max_cols: insp.explored_cols,
                ..WarpConfig::executor(&untrimmed, bi, bj)
            },
        ];
        for cfg in configs {
            for width in [1usize, 7, 32] {
                let cfg = cfg.with_strip_width(width).with_backend(backend);
                shared.clear();
                let e = warp_extend_in(&t, &q, &sc, &cfg, &mut shared, &mut tbm);
                assert_eq!(
                    (e.best_score, e.best_i, e.best_j),
                    (insp.best_score, bi, bj),
                    "{label} / width {width}: the executor moved the optimum"
                );
                h = fold_extension(h, &e);
            }
        }
    }
    h
}

/// A matrix whose transpose differs, so a swapped substitution lookup
/// shows.
fn asymmetric() -> Scoring {
    Scoring {
        subst: SubstMatrix::from_acgt(
            [
                [12, -9, -3, -17],
                [-6, 10, -14, -2],
                [-1, -13, 11, -8],
                [-15, -4, -7, 9],
            ],
            -40,
        ),
        ..scoring()
    }
}

/// Folds an edit script (length, then each op) into `h`.
fn fold_ops(mut h: u64, ops: &[EditOp]) -> u64 {
    h = fold_u64(h, ops.len() as u64);
    for op in ops {
        let (tag, k) = match *op {
            EditOp::Diag(k) => (0u8, k),
            EditOp::GapQ(k) => (1, k),
            EditOp::GapT(k) => (2, k),
        };
        h = fnv1a(h, &[tag]);
        h = fnv1a(h, &k.to_le_bytes());
    }
    h
}

/// Hash of every inspector run over the corpus plus short homologies
/// that end inside the eager window, on `backend`: optimum, extents,
/// eager script, counters and the window's shared-memory bytes.
fn inspector_hash(backend: WavefrontBackend) -> u64 {
    let mut cases = corpus();
    let mut rng = SmallRng::seed_from_u64(0x1_E6E5);
    for hom in [3usize, 9, 14, 16] {
        let mut t = random_codes(hom, 0.5, &mut rng);
        let mut q = mutate(&t, 0.08, &mut rng);
        t.extend(random_codes(60, 0.5, &mut rng));
        q.extend(random_codes(53, 0.5, &mut rng));
        cases.push((format!("{hom}-bp homology"), t, q));
    }
    let cfg = WarpConfig::inspector(&OptFlags::fastz());
    let window = cfg.eager_window * cfg.eager_window;
    let mut shared = SharedMem::new(96 * 1024);
    let mut h = FNV1A_BASIS;
    for sc in [scoring(), asymmetric()] {
        for (_, t, q) in &cases {
            for width in [1usize, 7, 32] {
                shared.clear();
                let e = warp_extend(
                    t,
                    q,
                    &sc,
                    &cfg.with_strip_width(width).with_backend(backend),
                    &mut shared,
                );
                for v in [e.best_score as i64 as u64, e.best_i as u64, e.best_j as u64] {
                    h = fold_u64(h, v);
                }
                h = fold_u64(h, e.explored_rows as u64);
                h = fold_u64(h, e.explored_cols as u64);
                h = fold_u64(h, u64::from(e.ops.is_some()));
                h = match &e.eager_ops {
                    Some(ops) => fold_ops(fold_u64(h, 1), ops),
                    None => fold_u64(h, 0),
                };
                h = fold_counters(h, &e.counters);
                let bytes: Vec<u8> = (0..window).map(|o| shared.read_u8(o)).collect();
                h = fnv1a(h, &bytes);
            }
        }
    }
    h
}

#[test]
fn inspector_results_are_pinned() {
    // The vector backend's production body sweeps this corpus's strips
    // in 16-bit lanes (its best scores stay far below the ceiling), the
    // interpreter sweeps them in 32-bit ones: the one literal pins both.
    const PINNED: u64 = 0xd998_8b8c_3e57_30e1;
    for backend in [WavefrontBackend::Simd, WavefrontBackend::Interpreter] {
        let before = strip_widths();
        assert_eq!(
            inspector_hash(backend),
            PINNED,
            "inspector results changed on the {backend:?} backend"
        );
        let after = strip_widths();
        let (narrow, wide) = (after.narrow - before.narrow, after.wide - before.wide);
        match backend {
            WavefrontBackend::Simd => assert!(narrow > 0 && wide == 0, "{narrow} / {wide}"),
            WavefrontBackend::Interpreter => assert!(narrow == 0 && wide > 0, "{narrow} / {wide}"),
        }
    }
}

#[test]
fn executor_results_are_pinned() {
    const PINNED: u64 = 0xa8f3_f7f2_6580_7dbe;
    for backend in [WavefrontBackend::Simd, WavefrontBackend::Interpreter] {
        assert_eq!(
            executor_hash(backend),
            PINNED,
            "executor results changed on the {backend:?} backend"
        );
    }
}

/// Re-scores `e`'s edit script from the sequences, checking that it
/// ends at the reported optimum.
fn rescore(e: &WarpExtension, t: &[u8], q: &[u8], sc: &Scoring) -> i32 {
    let (mut ti, mut qi, mut score) = (0usize, 0usize, 0i32);
    for op in e.ops.as_ref().expect("executor edit script") {
        match *op {
            EditOp::Diag(k) => {
                for _ in 0..k {
                    score += sc.subst.score(t[ti], q[qi]);
                    ti += 1;
                    qi += 1;
                }
            }
            EditOp::GapQ(k) => {
                score -= sc.gaps.gap_cost(k as usize);
                ti += k as usize;
            }
            EditOp::GapT(k) => {
                score -= sc.gaps.gap_cost(k as usize);
                qi += k as usize;
            }
        }
    }
    assert_eq!((ti, qi), (e.best_j, e.best_i));
    score
}

#[test]
fn untrimmed_executor_beyond_the_old_allocation_cap_returns_a_script() {
    // A 93-kbp pair sharing only a 300-bp prefix: the untrimmed
    // executor's bounding rectangle is 8.65 G cells, past the 8 Gi-cell
    // cap a dense traceback matrix needed, but the y-drop explores only
    // a thin band around the prefix.
    let len = 93_000;
    let mut rng = SmallRng::seed_from_u64(0x93_0300);
    let prefix = random_codes(300, 0.5, &mut rng);
    let mut t = prefix.clone();
    let mut q = prefix;
    t.extend(random_codes(len - 300, 0.5, &mut rng));
    q.extend(random_codes(len - 300, 0.5, &mut rng));
    assert!(len * len > 8 << 30);

    let sc = scoring();
    let untrimmed = OptFlags {
        executor_trimming: false,
        ..OptFlags::fastz()
    };
    let cfg = WarpConfig::executor(&untrimmed, 0, 0);
    assert_eq!((cfg.max_rows, cfg.max_cols), (usize::MAX, usize::MAX));
    let mut shared = SharedMem::new(96 * 1024);
    let mut tbm = Vec::new();
    let e = warp_extend_in(&t, &q, &sc, &cfg, &mut shared, &mut tbm);
    assert!(
        e.best_i >= 280 && e.best_j >= 280,
        "optimum ({}, {})",
        e.best_i,
        e.best_j
    );
    assert_eq!(rescore(&e, &t, &q, &sc), e.best_score);
    let bound = cfg.strip_width as u64 * e.counters.steps;
    assert!(
        tbm.len() as u64 <= bound,
        "traceback buffer of {} bytes exceeds width × steps = {bound}",
        tbm.len()
    );
}
