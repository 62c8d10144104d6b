//! Integration tests for the extension features built on top of the
//! paper's core: both-strand alignment, seed masking, output formats and
//! summary statistics, exercised together on synthetic workloads.

use fastz::align::{
    sequential_gapped_both_strands, summarize, write_general, write_maf, DriverConfig, Strand,
};
use fastz::genome::evolve::{generate_pair, random_sequence, PairParams};
use fastz::genome::{Scoring, Sequence};
use fastz::seed::{
    find_anchors, find_anchors_masked, SeedIndex, SeedShape, WordMask, WorkloadParams,
};

fn demo_pair() -> fastz::genome::GenomePair {
    generate_pair(&PairParams {
        target_len: 20_000,
        query_len: 20_000,
        segments: 40,
        ..PairParams::small_demo("ext", 909)
    })
}

#[test]
fn both_strands_and_formats_work_together() {
    // Forward homology from the mosaic pair...
    let pair = demo_pair();
    let report = sequential_gapped_both_strands(
        &pair.target,
        &pair.query,
        &WorkloadParams::default(),
        &DriverConfig::gapped(Scoring::bench_scaled()),
    );
    assert!(!report.forward.alignments.is_empty());
    let plus = report
        .alignments
        .iter()
        .filter(|a| a.strand == Strand::Forward)
        .count();
    assert_eq!(plus, report.forward.alignments.len());

    // ... render both formats and sanity-check the output.
    let mut maf = Vec::new();
    write_maf(
        &mut maf,
        &report.forward.alignments,
        &pair.target,
        &pair.query,
    )
    .unwrap();
    let maf = String::from_utf8(maf).unwrap();
    assert!(maf.starts_with("##maf"));
    assert_eq!(
        maf.matches("a score=").count(),
        report.forward.alignments.len()
    );

    let mut gen = Vec::new();
    write_general(
        &mut gen,
        &report.forward.alignments,
        &pair.target,
        &pair.query,
    )
    .unwrap();
    let gen = String::from_utf8(gen).unwrap();
    assert_eq!(gen.lines().count(), report.forward.alignments.len() + 1);

    // Summary statistics agree with the alignment set.
    let s = summarize(&report.forward.alignments);
    assert_eq!(s.count, report.forward.alignments.len());
    assert!(s.max_score >= Scoring::bench_scaled().gapped_threshold);
}

#[test]
fn masking_suppresses_a_planted_repeat_family() {
    // Target and query share a high-copy repeat plus one genuine homology.
    let mut t_codes = random_sequence("t", 8_000, 0.5, 31).codes().to_vec();
    let mut q_codes = random_sequence("q", 8_000, 0.5, 32).codes().to_vec();
    let unit = random_sequence("u", 40, 0.5, 33).codes().to_vec();
    for k in 0..30 {
        let at = 100 + k * 250;
        t_codes[at..at + 40].copy_from_slice(&unit);
        q_codes[at + 37..at + 77].copy_from_slice(&unit);
    }
    let gene = random_sequence("g", 300, 0.5, 34).codes().to_vec();
    t_codes[7_500..7_800].copy_from_slice(&gene);
    q_codes[7_500..7_800].copy_from_slice(&gene);
    let target = Sequence::from_codes("t", t_codes);
    let query = Sequence::from_codes("q", q_codes);

    let shape = SeedShape::lastz_12of19();
    let index = SeedIndex::build(&target, shape.clone());
    let mask = WordMask::build(&target, &shape, 8);
    assert!(mask.masked_words() > 0);

    let unmasked = find_anchors(&index, &query);
    let masked = find_anchors_masked(&index, &query, &mask);
    // The repeat family dominates the raw anchors; masking removes the
    // quadratic blow-up…
    assert!(
        masked.len() * 5 < unmasked.len(),
        "masking removed too little: {} -> {}",
        unmasked.len(),
        masked.len()
    );
    // …but keeps the genuine single-copy homology.
    assert!(
        masked
            .iter()
            .any(|a| a.target_pos >= 7_500 && a.target_pos < 7_800),
        "masking lost the single-copy gene anchors"
    );
}
