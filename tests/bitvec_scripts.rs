//! Pins the bitvector engine's results: edit scripts, optima, SENE/DENT
//! counters, work counters, explored extents and the shared-memory
//! traffic an attached sanitizer sees, over a fixed corpus, hashed with
//! the shared FNV-1a.
//!
//! The cross-algorithm drill checks scores and script consistency, not
//! which of several equally good scripts the engine returns, nor its
//! counters. This pin does: the literal was captured from a known-good
//! build, and any change to how the column sweep stores, discards or
//! walks its rows, or to how the script is assembled across windows,
//! must reproduce it exactly.
//!
//! The corpus covers one-window and multi-window extensions (one of
//! more than 200 windows), last windows shorter than 64 rows, text that
//! runs out mid-window, SENE stops inside a window and the stop on a
//! window with no live end bit, budgets k = 1, 31 and 63, narrow
//! windows, and a scratchpad small enough to force the budget down.

use fastz::align::EditOp;
use fastz::core::{bitvec_extend, bitvec_extend_in, BitvecConfig, BitvecExtension};
use fastz::genome::evolve::random_codes;
use fastz::genome::{fnv1a, FNV1A_BASIS};
use fastz::gpu_sim::{SanitizeReport, SharedMem, WarpCounters};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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

/// (label, text, pattern) pairs: `text` is the target side (columns),
/// `pattern` the query side (rows).
fn corpus() -> Vec<(String, Vec<u8>, Vec<u8>)> {
    let mut rng = SmallRng::seed_from_u64(0xB17_5C21);
    let mut cases = Vec::new();
    // Homologous pairs with a short indel: one window (40), a last
    // window shorter than 64 rows (100, 333), several windows (700).
    for len in [40usize, 100, 333, 700] {
        let t = random_codes(len, 0.5, &mut rng);
        let mut q = mutate(&t, 0.05, &mut rng);
        let cut = rng.gen_range(2..len - 6);
        q.drain(cut..cut + 3);
        cases.push((format!("homology {len}"), t, q));
    }
    // More than 200 windows of 48 committed rows each.
    let t = random_codes(10_000, 0.5, &mut rng);
    let q = mutate(&t, 0.03, &mut rng);
    cases.push(("homology 10000".to_string(), t, q));
    // Text runs out mid-window: a 90-base text under a 300-row pattern.
    let q = random_codes(300, 0.5, &mut rng);
    let t = mutate(&q[..90], 0.04, &mut rng);
    cases.push(("text exhausted".to_string(), t, q));
    // Homology into unrelated sequence: SENE stops a window early.
    for (hom, tail) in [(150usize, 400usize), (61, 250)] {
        let mut t = random_codes(hom, 0.5, &mut rng);
        let mut q = mutate(&t, 0.04, &mut rng);
        t.extend(random_codes(tail, 0.5, &mut rng));
        q.extend(random_codes(tail + 17, 0.5, &mut rng));
        cases.push((format!("homology {hom} then {tail} unrelated"), t, q));
    }
    // A long gap: the window chain drifts off the main diagonal.
    let t = random_codes(420, 0.5, &mut rng);
    let mut q = mutate(&t, 0.03, &mut rng);
    q.drain(150..170);
    cases.push(("20-bp deletion".to_string(), t.clone(), q.clone()));
    cases.push(("20-bp insertion".to_string(), q, t));
    // Unrelated pair, and a complemented one: no live end bit in the
    // first window.
    let t = random_codes(200, 0.5, &mut rng);
    let q = random_codes(180, 0.5, &mut rng);
    cases.push(("unrelated".to_string(), t.clone(), q));
    let q: Vec<u8> = t.iter().map(|b| (b + 2) & 3).collect();
    cases.push(("complement".to_string(), t, q));
    cases
}

/// Engine configurations: (label, config, scratchpad capacity). A
/// `None` capacity sizes the scratchpad for the full budget.
fn configs() -> Vec<(&'static str, BitvecConfig, Option<usize>)> {
    let cfg = |window, overlap, k| BitvecConfig {
        window,
        overlap,
        k,
        ..BitvecConfig::default()
    };
    vec![
        ("default", BitvecConfig::default(), None),
        ("k=1", cfg(64, 16, 1), None),
        ("k=63", cfg(64, 16, 63), None),
        ("window 17", cfg(17, 5, 12), None),
        ("window 1", cfg(1, 0, 4), None),
        // (64 + k + 1)·(k + 1)·8 bytes must fit: 4 KiB forces k to 5.
        ("small scratchpad", BitvecConfig::default(), Some(4096)),
    ]
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

/// Folds everything observable about one extension into `h`.
fn fold_extension(mut h: u64, e: &BitvecExtension) -> u64 {
    h = fold_u64(h, e.best_score as i64 as u64);
    h = fold_u64(h, e.best_i as u64);
    h = fold_u64(h, e.best_j as u64);
    h = fold_u64(h, u64::from(e.edit_distance));
    h = fold_u64(h, e.explored_rows as u64);
    h = fold_u64(h, e.explored_cols as u64);
    h = fold_u64(h, e.stats.windows);
    h = fold_u64(h, e.stats.sene_skips);
    h = fold_u64(h, e.stats.dent_discards);
    h = fold_u64(h, e.ops.len() as u64);
    for op in &e.ops {
        let (tag, k) = match *op {
            EditOp::Diag(k) => (0u8, k),
            EditOp::GapQ(k) => (1, k),
            EditOp::GapT(k) => (2, k),
        };
        h = fnv1a(h, &[tag]);
        h = fnv1a(h, &k.to_le_bytes());
    }
    fold_counters(h, &e.counters)
}

/// Folds the scratchpad traffic a sanitizer recorded into `h`.
fn fold_sanitizer(mut h: u64, r: &SanitizeReport) -> u64 {
    h = fold_u64(h, r.total_findings());
    h = fold_u64(h, r.shared_reads);
    h = fold_u64(h, r.shared_writes);
    h = fold_u64(h, r.barriers);
    for (phase, b) in &r.banks {
        h = fnv1a(h, phase.as_bytes());
        h = [
            b.groups,
            b.conflict_events,
            b.serialized_extra,
            u64::from(b.max_ways),
        ]
        .into_iter()
        .fold(h, fold_u64);
    }
    h
}

/// Hash of every extension over corpus × configurations.
fn bitvec_hash() -> u64 {
    // One scratchpad reused across every full-budget run, as a worker
    // arena reuses it, and one with a sanitizer attached.
    let mut shared = SharedMem::new(96 * 1024);
    let mut sanitized = SharedMem::new(96 * 1024);
    sanitized.attach_sanitizer();
    let mut h = FNV1A_BASIS;
    for (label, t, q) in corpus() {
        for (name, cfg, capacity) in configs() {
            if let Some(bytes) = capacity {
                let e = bitvec_extend_in(&t[..], &q[..], &cfg, &mut SharedMem::new(bytes));
                h = fold_extension(h, &e);
                continue;
            }
            let e = bitvec_extend_in(&t[..], &q[..], &cfg, &mut shared);
            assert_eq!(
                e,
                bitvec_extend(&t, &q, &cfg),
                "{label} / {name}: a reused scratchpad changed the result"
            );
            h = fold_extension(h, &e);
            // A worker clears its arena between problems.
            sanitized.clear();
            let s = bitvec_extend_in(&t[..], &q[..], &cfg, &mut sanitized);
            assert_eq!(s, e, "{label} / {name}: the sanitizer changed the result");
            let report = sanitized.take_sanitize_report().expect("attached");
            assert!(report.is_clean(), "{label} / {name}: {report:?}");
            h = fold_sanitizer(h, &report);
        }
    }
    h
}

#[test]
fn bitvec_results_are_pinned() {
    const PINNED: u64 = 0x61b3_c57e_5471_fcee;
    let h = bitvec_hash();
    assert_eq!(h, PINNED, "bitvector results changed: {h:#x}");
}

#[test]
fn corpus_covers_the_sweep_edges() {
    let cases = corpus();
    let case = |label: &str| {
        let (_, t, q) = cases.iter().find(|(l, _, _)| l == label).expect(label);
        (t.as_slice(), q.as_slice())
    };
    let dflt = BitvecConfig::default();
    let run = |label: &str| {
        let (t, q) = case(label);
        bitvec_extend(t, q, &dflt)
    };
    assert_eq!(run("homology 40").stats.windows, 1);
    assert!(run("homology 10000").stats.windows >= 200);
    // Two windows: rows 0..64, then the remaining rows from row 48.
    let (_, q) = case("homology 100");
    let short = run("homology 100");
    assert_eq!(short.stats.windows, 2);
    assert_eq!(short.explored_rows, q.len());
    assert!(q.len() - 48 < 64, "a last window shorter than 64 rows");
    let exhausted = run("text exhausted");
    assert_eq!(exhausted.explored_cols, 90);
    assert!(
        exhausted.explored_rows < 300,
        "the chain stops with the text"
    );
    let sene = run("homology 150 then 400 unrelated");
    assert!(sene.stats.sene_skips > 1, "SENE stops a window early");
    // One window of a 180-row pattern: the chain stopped on a window
    // with no live end bit.
    let dead = run("complement");
    assert_eq!(dead.stats.windows, 1);
    assert!(dead.stats.sene_skips >= 1);
    let (t, q) = case("homology 333");
    let small = bitvec_extend_in(t, q, &dflt, &mut SharedMem::new(4096));
    assert!(small.counters.cells < run("homology 333").counters.cells);
}
