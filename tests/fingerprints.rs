//! Pins the on-disk identities: the checkpoint fingerprint a run writes
//! and the persistent seed index's checksum, fingerprint and artifact
//! name. These values key files that outlive a build, so a hash change
//! would orphan every checkpoint and index artifact already on disk. The
//! literals below were captured from a known-good build; a refactor of
//! the hashing or fingerprint code must reproduce them exactly.

use fastz::core::{
    run_fastz_observed, Checkpoint, ExtendBackend, FastZConfig, FastZReport, ResilienceConfig,
};
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

fn workload(pair: &GenomePair) -> Workload {
    Workload::build(
        &pair.target,
        &pair.query,
        &WorkloadParams {
            max_anchors: 40,
            ..WorkloadParams::default()
        },
    )
}

/// Runs `wl` under `cfg`, checkpointing to `path` (resuming from it when
/// a checkpoint is already there).
fn run_checkpointed(
    pair: &GenomePair,
    wl: &Workload,
    cfg: &FastZConfig,
    path: &std::path::Path,
) -> FastZReport {
    let rcfg = ResilienceConfig {
        checkpoint: Some(path.to_path_buf()),
        ..ResilienceConfig::disabled()
    };
    run_fastz_observed(
        &pair.target,
        &pair.query,
        &wl.anchors,
        wl.shape.span(),
        cfg,
        &rcfg,
        &mut NoObs,
    )
}

/// The fingerprint of the checkpoint a small fixed run writes.
fn checkpoint_fingerprint(backend: ExtendBackend, index_fingerprint: u64) -> u64 {
    let pair = pair();
    let wl = workload(&pair);
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
    let report = run_checkpointed(&pair, &wl, &cfg, &path);
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

/// The bitvector engine clamps its edit budget to the device's shared
/// memory: k = 31 fits the RTX 3080's 128 KiB, but a 16-KiB scratchpad
/// holds only k = 22. A checkpoint written on the large device holds
/// k = 31 results, so resuming it on the small one must be refused, and
/// the run must match a fresh one on the small device.
#[test]
fn bitvector_checkpoint_does_not_resume_across_a_budget_clamp() {
    let pair = pair();
    let wl = workload(&pair);
    let big = FastZConfig {
        extend_backend: ExtendBackend::Bitvector,
        sim_threads: 1,
        ..FastZConfig::new(Scoring::bench_scaled(), DeviceSpec::rtx3080_ampere())
    };
    let small = FastZConfig {
        device: DeviceSpec {
            name: "rtx3080-16k-shared",
            shared_kib_per_sm: 16,
            ..DeviceSpec::rtx3080_ampere()
        },
        ..big.clone()
    };
    let path = std::env::temp_dir().join(format!(
        "fastz-fingerprint-clamp-{}.ckpt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&path);
    let written = run_checkpointed(&pair, &wl, &big, &path);
    assert!(written.resilience.checkpoints_written >= 1);
    let resumed = run_checkpointed(&pair, &wl, &small, &path);
    let _ = std::fs::remove_file(&path);
    let fresh = run_checkpointed(&pair, &wl, &small, &path);
    let _ = std::fs::remove_file(&path);

    assert!(!resumed.resilience.resumed, "resumed across the k clamp");
    assert_eq!(resumed.resilience.restored_problems, 0);
    assert_eq!(resumed.resilience.checkpoints_rejected.len(), 1);
    assert!(
        resumed.resilience.checkpoints_rejected[0].contains("does not match workload"),
        "{:?}",
        resumed.resilience.checkpoints_rejected
    );
    assert_eq!(fresh.resilience.checkpoints_rejected, Vec::<String>::new());
    assert_eq!(digest(&resumed), digest(&fresh));
    // The clamp is real on this workload: the budgets give other results.
    assert_ne!(digest(&written), digest(&fresh));
}

/// Everything a resume could change: alignments, bin counts, bitvector
/// counters and the modeled time's bits.
fn digest(r: &FastZReport) -> String {
    format!(
        "{:?} {:?} {:?} {}",
        r.alignments,
        r.bin_counts,
        r.stats.bitvec,
        r.modeled_time_s.to_bits()
    )
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
