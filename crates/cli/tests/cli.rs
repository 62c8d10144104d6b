//! End-to-end tests of the `fastz` binary: multi-record FASTA inputs,
//! the refusals that go with them, and the minus strand running the
//! same seeding and engine configuration as the plus strand.

use fastz_core::{run_fastz, ExtendBackend, FastZConfig};
use fastz_genome::evolve::random_sequence;
use fastz_genome::{write_fasta_file, Scoring, Sequence};
use fastz_gpu_sim::DeviceSpec;
use fastz_seed::{SeedShape, Workload, WorkloadParams};
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

/// A fresh scratch directory for one test.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("fastz-cli-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A small target, and a query that copies 5 kbp of it with one
/// substitution every 37 bp: homology on the plus strand.
fn pair() -> (Sequence, Sequence) {
    let target = random_sequence("t", 10_000, 0.5, 7);
    let mut codes = target.codes()[2_000..7_000].to_vec();
    for c in codes.iter_mut().step_by(37) {
        *c = (*c + 1) % 4;
    }
    (target, Sequence::from_codes("q", codes))
}

fn fasta(dir: &Path, name: &str, records: &[Sequence]) -> String {
    let path = dir.join(name);
    write_fasta_file(&path, records).unwrap();
    path.to_str().unwrap().to_string()
}

fn fastz(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_fastz"))
        .args(args)
        .output()
        .unwrap()
}

fn stdout(out: &Output) -> String {
    assert!(
        out.status.success(),
        "fastz failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).unwrap()
}

/// TSV rows (header lines dropped) whose strand column is `strand`.
fn rows(tsv: &str, strand: &str) -> Vec<String> {
    tsv.lines()
        .filter(|l| !l.starts_with('#') && l.split('\t').nth(7) == Some(strand))
        .map(str::to_string)
        .collect()
}

#[test]
fn every_query_record_is_aligned_against_the_one_target() {
    let dir = scratch("multi-query");
    let (target, query) = pair();
    let q1 = Sequence::from_codes("q1", query.codes().to_vec());
    let q2 = Sequence::from_codes("q2", query.reverse_complement().codes().to_vec());
    let t = fasta(&dir, "t.fa", &[target]);
    let both = fasta(&dir, "q12.fa", &[q1.clone(), q2.clone()]);
    let only1 = fasta(&dir, "q1.fa", &[q1]);
    let only2 = fasta(&dir, "q2.fa", &[q2]);

    let joint = stdout(&fastz(&[&t, &both, "--both-strands"]));
    let separate = stdout(&fastz(&[&t, &only1, "--both-strands"]))
        + &stdout(&fastz(&[&t, &only2, "--both-strands"]));
    assert_eq!(joint, separate, "records align in turn, as if run alone");
    let has = |qname: &str, strand: &str| {
        rows(&joint, strand)
            .iter()
            .any(|r| r.split('\t').nth(4) == Some(qname))
    };
    assert!(has("q1", "+"), "the first record's forward homology");
    assert!(has("q2(-)", "-"), "the second record's reverse homology");

    // One pipeline run per export: several jobs refuse them up front.
    for flag in ["--checkpoint", "--metrics-out", "--trace-out"] {
        let file = dir.join("out").to_str().unwrap().to_string();
        let out = fastz(&[&t, &both, flag, &file]);
        assert_eq!(out.status.code(), Some(1), "{flag} with two records");
        assert!(!dir.join("out").exists(), "{flag} wrote before refusing");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_multi_record_target_and_an_unknown_format_are_refused() {
    let dir = scratch("refusals");
    let (target, query) = pair();
    let t2 = fasta(&dir, "t2.fa", &[target.clone(), query.clone()]);
    let t = fasta(&dir, "t.fa", &[target]);
    let q = fasta(&dir, "q.fa", &[query]);

    let out = fastz(&[&t2, &q]);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains(&t2), "the error names the file: {err}");
    assert!(out.stdout.is_empty());

    let out = fastz(&[&t, &q, "--format", "bed"]);
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown output format bed"));
    assert!(out.stdout.is_empty());

    let file = dir.join("m.json").to_str().unwrap().to_string();
    let out = fastz(&[&t, &q, "--both-strands", "--metrics-out", &file]);
    assert_eq!(out.status.code(), Some(1), "two strands are two jobs");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn the_minus_strand_honours_the_seed_and_extension_flags() {
    let dir = scratch("minus");
    let (target, query) = pair();
    // A query whose reverse complement carries the homology.
    let query = Sequence::from_codes("q", query.reverse_complement().codes().to_vec());
    let t = fasta(&dir, "t.fa", std::slice::from_ref(&target));
    let q = fasta(&dir, "q.fa", std::slice::from_ref(&query));

    let out = stdout(&fastz(&[
        &t,
        &q,
        "--both-strands",
        "--seed",
        "exact19",
        "--extend",
        "bitvector",
    ]));

    let rc = query.reverse_complement();
    let params = WorkloadParams {
        shape: SeedShape::exact(19),
        ..WorkloadParams::default()
    };
    let wl = Workload::build(&target, &rc, &params);
    let cfg = FastZConfig {
        extend_backend: ExtendBackend::Bitvector,
        ..FastZConfig::new(Scoring::lastz_default(), DeviceSpec::rtx3080_ampere())
    };
    let library: Vec<String> = run_fastz(&target, &rc, &wl.anchors, wl.shape.span(), &cfg)
        .alignments
        .iter()
        .map(|a| {
            format!(
                "{}\t{}\t{}\t{}\t{}\t{}\t{}\t-\t{}",
                a.score,
                target.name(),
                a.target_start,
                a.target_end,
                rc.name(),
                a.query_start,
                a.query_end,
                a.cigar()
            )
        })
        .collect();
    assert!(!library.is_empty(), "the reverse strand carries homology");
    assert_eq!(rows(&out, "-"), library);
    let _ = std::fs::remove_dir_all(&dir);
}
