//! Pins the LASTZ baseline drivers' output on one seeded pair: the
//! alignment set, the `DriverStats` counts with `total_cells`, and the
//! per-extension records, each hashed with the shared FNV-1a.
//!
//! The drivers' own tests compare them with each other (multicore vs
//! sequential, banded vs exact), so a change every driver shares passes
//! them. These literals were captured from a known-good build: any
//! change to work reduction, the HSP filter, the splice, the partition
//! merge or the records must reproduce them exactly.

use fastz::align::{
    multicore_gapped, sequential_banded, sequential_gapped, sequential_ungapped_filtered,
    Alignment, DriverConfig, DriverReport, EditOp, ExtensionRecord,
};
use fastz::genome::evolve::{generate_pair, PairParams};
use fastz::genome::{fnv1a, Scoring, Sequence, FNV1A_BASIS};
use fastz::seed::{find_anchors, Anchor, SeedIndex, SeedShape};

/// A 12-kbp pair with dense (unfiltered) seeds, so work reduction and
/// the HSP filter both have seeds to skip.
fn pair() -> (Sequence, Sequence, Vec<Anchor>, usize) {
    let pair = generate_pair(&PairParams {
        target_len: 12_000,
        query_len: 12_000,
        segments: 24,
        ..PairParams::small_demo("driver-pins", 19)
    });
    let index = SeedIndex::build(&pair.target, SeedShape::lastz_12of19());
    let anchors = find_anchors(&index, &pair.query);
    (pair.target, pair.query, anchors, index.shape().span())
}

fn hash_alignment(h: u64, a: &Alignment) -> u64 {
    let mut h = [a.target_start, a.target_end, a.query_start, a.query_end]
        .iter()
        .fold(h, |h, &v| fnv1a(h, &(v as u64).to_le_bytes()));
    h = fnv1a(h, &a.score.to_le_bytes());
    for op in &a.ops {
        let (tag, n) = match *op {
            EditOp::Diag(n) => (0u8, n),
            EditOp::GapQ(n) => (1, n),
            EditOp::GapT(n) => (2, n),
        };
        h = fnv1a(fnv1a(h, &[tag]), &n.to_le_bytes());
    }
    fnv1a(h, b";")
}

fn hash_record(h: u64, r: &ExtensionRecord) -> u64 {
    let words = [
        u64::from(r.anchor.target_pos),
        u64::from(r.anchor.query_pos),
        r.score as u64,
        r.max_extent as u64,
        r.cells,
        r.optimal_cells,
        r.left_stats.cells,
        r.left_stats.rows as u64,
        r.left_stats.max_cols as u64,
        r.right_stats.cells,
        r.right_stats.rows as u64,
        r.right_stats.max_cols as u64,
    ];
    words.iter().fold(h, |h, w| fnv1a(h, &w.to_le_bytes()))
}

/// `alignments (count, hash) | seeds extended skipped total_cells |
/// records (count, hash)`.
fn digest(r: &DriverReport) -> String {
    let a = r.alignments.iter().fold(FNV1A_BASIS, hash_alignment);
    let rec = r.records.iter().fold(FNV1A_BASIS, hash_record);
    let s = &r.stats;
    format!(
        "{} {a:016x} | {} {} {} {} | {} {rec:016x}",
        r.alignments.len(),
        s.seeds,
        s.extended,
        s.skipped,
        s.total_cells,
        r.records.len()
    )
}

#[test]
fn driver_outputs_are_pinned() {
    let (t, q, anchors, span) = pair();
    let cfg = DriverConfig {
        record_extensions: true,
        ..DriverConfig::gapped(Scoring::bench_scaled())
    };
    let no_reduction = DriverConfig {
        work_reduction: false,
        ..cfg.clone()
    };
    let runs = [
        ("gapped", sequential_gapped(&t, &q, &anchors, span, &cfg)),
        (
            "gapped, no work reduction",
            sequential_gapped(&t, &q, &anchors, span, &no_reduction),
        ),
        (
            "ungapped filtered",
            sequential_ungapped_filtered(&t, &q, &anchors, span, &cfg),
        ),
        (
            "banded 16",
            sequential_banded(&t, &q, &anchors, span, 16, &cfg),
        ),
        (
            "banded 64",
            sequential_banded(&t, &q, &anchors, span, 64, &cfg),
        ),
        (
            "multicore 1",
            multicore_gapped(&t, &q, &anchors, span, &cfg, 1),
        ),
        (
            "multicore 4",
            multicore_gapped(&t, &q, &anchors, span, &cfg, 4),
        ),
    ];
    let got: Vec<String> = runs
        .iter()
        .map(|(label, r)| format!("{label}: {}", digest(r)))
        .collect();
    let expected = [
        "gapped: 25 6845f60539687fd1 | 603 37 566 2524898 | 37 c52a7e3fc4a3fae4",
        "gapped, no work reduction: 25 6845f60539687fd1 | 603 603 0 58034609 | 603 b49326a08f8b6e72",
        "ungapped filtered: 25 6845f60539687fd1 | 603 25 578 1782829 | 25 6fcf875ffa14d54d",
        "banded 16: 25 7cfa4f770339bd21 | 603 37 566 534967 | 0 cbf29ce484222325",
        "banded 64: 25 6845f60539687fd1 | 603 37 566 2446081 | 0 cbf29ce484222325",
        "multicore 1: 25 6845f60539687fd1 | 603 37 566 2524898 | 37 c52a7e3fc4a3fae4",
        "multicore 4: 25 6845f60539687fd1 | 603 40 563 2860108 | 40 453afb790f26fae5",
    ];
    assert_eq!(got, expected, "got:\n{}", got.join("\n"));
}
