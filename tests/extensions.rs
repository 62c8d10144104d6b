//! Integration tests for the extension features built on top of the
//! paper's core: output formats and summary statistics, exercised
//! together on a synthetic workload.

use fastz::align::{sequential_gapped, summarize, write_general, write_maf, DriverConfig};
use fastz::genome::evolve::{generate_pair, PairParams};
use fastz::genome::Scoring;
use fastz::seed::{Workload, WorkloadParams};

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
    // Forward homology from the mosaic pair (the CLI's `--both-strands`
    // runs the same seeding and driver on the reverse complement; see
    // `crates/cli/tests/cli.rs`)...
    let pair = demo_pair();
    let wl = Workload::build(&pair.target, &pair.query, &WorkloadParams::default());
    let alignments = sequential_gapped(
        &pair.target,
        &pair.query,
        &wl.anchors,
        wl.shape.span(),
        &DriverConfig::gapped(Scoring::bench_scaled()),
    )
    .alignments;
    assert!(!alignments.is_empty());

    // ... render both formats and sanity-check the output.
    let mut maf = Vec::new();
    write_maf(&mut maf, &alignments, &pair.target, &pair.query).unwrap();
    let maf = String::from_utf8(maf).unwrap();
    assert!(maf.starts_with("##maf"));
    assert_eq!(maf.matches("a score=").count(), alignments.len());

    let mut gen = Vec::new();
    write_general(&mut gen, &alignments, &pair.target, &pair.query).unwrap();
    let gen = String::from_utf8(gen).unwrap();
    assert_eq!(gen.lines().count(), alignments.len() + 1);

    // Summary statistics agree with the alignment set.
    let s = summarize(&alignments);
    assert_eq!(s.count, alignments.len());
    assert!(s.max_score >= Scoring::bench_scaled().gapped_threshold);
}
