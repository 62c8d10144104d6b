//! Pins the on-disk identities: the checkpoint fingerprint a run writes
//! and the persistent seed index's checksum, fingerprint and artifact
//! name. These values key files that outlive a build, so a hash change
//! would orphan every checkpoint and index artifact already on disk. The
//! literals below were captured from a known-good build; a refactor of
//! the hashing or fingerprint code must reproduce them exactly.

use fastz::core::{run_fastz_observed, Checkpoint, ExtendBackend, FastZConfig, ResilienceConfig};
use fastz::genome::evolve::{generate_pair, PairParams};
use fastz::genome::{GenomePair, Scoring};
use fastz::gpu_sim::DeviceSpec;
use fastz::seed::{SeedShape, ShardedSeedIndex, Workload, WorkloadParams};
use fastz_obs::NoObs;

fn pair() -> GenomePair {
    generate_pair(&PairParams {
        target_len: 6_000,
        query_len: 6_000,
        segments: 12,
        ..PairParams::small_demo("fingerprint", 31)
    })
}

/// The fingerprint of the checkpoint a small fixed run writes.
fn checkpoint_fingerprint(backend: ExtendBackend, index_fingerprint: u64) -> u64 {
    let pair = pair();
    let wl = Workload::build(
        &pair.target,
        &pair.query,
        &WorkloadParams {
            max_anchors: 40,
            ..WorkloadParams::default()
        },
    );
    let cfg = FastZConfig {
        extend_backend: backend,
        index_fingerprint,
        sim_threads: 1,
        ..FastZConfig::new(Scoring::bench_scaled(), DeviceSpec::rtx3080_ampere())
    };
    let path = std::env::temp_dir().join(format!(
        "fastz-fingerprint-pin-{}-{backend:?}-{index_fingerprint:x}.ckpt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let rcfg = ResilienceConfig {
        checkpoint: Some(path.clone()),
        ..ResilienceConfig::disabled()
    };
    let report = run_fastz_observed(
        &pair.target,
        &pair.query,
        &wl.anchors,
        wl.shape.span(),
        &cfg,
        &rcfg,
        &mut NoObs,
    );
    assert!(report.resilience.checkpoints_written >= 1);
    let fp = Checkpoint::load(&path)
        .expect("checkpoint reads back")
        .expect("checkpoint exists")
        .fingerprint;
    let _ = std::fs::remove_file(&path);
    fp
}

#[test]
fn checkpoint_fingerprints_are_pinned() {
    let got = [
        checkpoint_fingerprint(ExtendBackend::YDrop, 0),
        checkpoint_fingerprint(ExtendBackend::YDrop, 0x5eed_1dec_0000_0042),
        checkpoint_fingerprint(ExtendBackend::Bitvector, 0),
        checkpoint_fingerprint(ExtendBackend::Bitvector, 0x5eed_1dec_0000_0042),
    ];
    let want: [u64; 4] = [
        0x266f_6b03_b8c4_b0e4,
        0x2237_f3ad_565e_4226,
        0xb5a6_5282_8605_6e39,
        0x01ea_d005_7a94_6ad3,
    ];
    assert_eq!(got, want, "checkpoint fingerprints {got:016x?}");
}

#[test]
fn seed_index_identity_is_pinned() {
    let pair = pair();
    let shape = SeedShape::lastz_12of19();
    let idx = ShardedSeedIndex::build(&pair.target, shape.clone(), 3).expect("index builds");
    let name = ShardedSeedIndex::artifact_name(idx.genome_id(), &shape, 3);
    let got = (idx.checksum(), idx.fingerprint());
    assert_eq!(
        got,
        (0x1b0d_3f5a_1e12_94d1, 0xab36_576d_7744_89c2),
        "index checksum/fingerprint {got:016x?}"
    );
    assert_eq!(name, "idx-d802719d521c4743-12of19-s3.fzsidx");
}
