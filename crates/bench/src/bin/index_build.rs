//! Persistent-index benchmark: warm artifact loads vs per-run rebuilds,
//! plus the single-table build's peak-memory accounting gate.
//!
//! Three measurements over one seeded genome:
//!
//! 1. **Cold build** — `ShardedSeedIndex::load_or_build` with no
//!    artifact on disk: index construction plus the atomic save.
//! 2. **Warm service** vs **per-run rebuild** at several request
//!    counts — a service front end acquiring the index once per request
//!    through the [`IndexCache`] (one disk load, then resident hits)
//!    against the pre-persistence behaviour of rebuilding the index for
//!    every request. The warm path must be at least [`WARM_GATE`]×
//!    faster at 8+ requests (a 10% tolerance below the promised 5×
//!    fails the run).
//! 3. **Peak build bytes** — the single-table counting-sort build's
//!    modeled transient peak vs the replaced staged build (full
//!    `(word, pos)` staging buffer + three `u32` tables) on the same
//!    index dimensions. The new accounting must be strictly smaller —
//!    the run fails otherwise.
//!
//! Anchors through the loaded index are checksum-verified against the
//! in-memory index before any timing is reported. Results land in
//! `BENCH_index.json`.

use fastz_bench::fnv1a;
use fastz_bench::gate::{at_least, best_of, write_report, Arm, INDEX_BUILD};
use fastz_bench::json_obj;
use fastz_genome::evolve::{generate_pair, PairParams};
use fastz_genome::Sequence;
use fastz_seed::{
    build_peak_bytes, legacy_build_peak_bytes, Anchor, IndexOrigin, SeedIndex, SeedShape,
    ShardedSeedIndex, Workload, WorkloadParams,
};
use fastz_serve::{AcquireOrigin, IndexCache, IndexCacheConfig};

/// Required warm-path speedup over per-run rebuilds at 8+ requests:
/// the promised 5× with a 10% regression margin.
const WARM_GATE: f64 = 5.0 * 0.9;

fn corpus() -> (Sequence, Sequence) {
    let pair = generate_pair(&PairParams {
        target_len: 160_000,
        query_len: 24_000,
        segments: 48,
        ..PairParams::small_demo("index-bench", 31)
    });
    (pair.target, pair.query)
}

/// FNV-1a over the anchor list, order-sensitive.
fn checksum(anchors: &[Anchor]) -> u64 {
    fnv1a(
        anchors
            .iter()
            .flat_map(|a| [a.target_pos as u64, a.query_pos as u64]),
    )
}

fn main() {
    let args = INDEX_BUILD.from_env();
    let shards = args.get("--shards").unwrap_or(4);
    let (target, query) = corpus();
    let shape = SeedShape::lastz_12of19();
    let params = WorkloadParams::default();
    let dir = std::env::temp_dir().join("fastz-bench-index");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("bench artifact dir");
    eprintln!(
        "index_build: {} bp target, {} shards, best of {}",
        target.len(),
        shards,
        args.repeats,
    );

    // Checksum first: anchors through a persisted-and-loaded index must
    // equal anchors through a fresh in-memory index.
    let fresh = SeedIndex::build(&target, shape.clone());
    let wl_mem = Workload::build_with_index(&fresh, &query, &params);
    let built = ShardedSeedIndex::build(&target, shape.clone(), shards).expect("build");
    built
        .save(&ShardedSeedIndex::artifact_path(
            &dir, &target, &shape, shards,
        ))
        .expect("save");
    let (loaded, origin) =
        ShardedSeedIndex::load_or_build(&dir, &target, shape.clone(), shards).expect("load");
    assert_eq!(origin, IndexOrigin::LoadedFromDisk, "artifact not reused");
    let wl_disk = Workload::build_with_index(&loaded, &query, &params);
    let mem_sum = checksum(&wl_mem.anchors);
    let disk_sum = checksum(&wl_disk.anchors);
    assert_eq!(
        mem_sum, disk_sum,
        "loaded index diverged from the in-memory index"
    );
    eprintln!(
        "checksum: OK ({mem_sum:016x}, {} anchors, {} index entries)",
        wl_mem.anchors.len(),
        loaded.len()
    );

    // 3. Peak-bytes accounting: the single-table build vs the replaced
    // staged build on this index's real dimensions.
    let n_windows = target.len() - (shape.span() - 1);
    let n_entries = fresh.len();
    let n_buckets = (fresh.heap_bytes() - n_entries * 16) / 4 - 1;
    let peak_now = build_peak_bytes(n_entries, n_buckets);
    let peak_before = legacy_build_peak_bytes(n_windows, n_entries, n_buckets);
    assert!(
        peak_now < peak_before,
        "single-table build peak {peak_now} B not below staged build {peak_before} B"
    );
    eprintln!(
        "build peak: {:.1} MiB now vs {:.1} MiB staged ({:.2}x less transient memory)",
        peak_now as f64 / (1 << 20) as f64,
        peak_before as f64 / (1 << 20) as f64,
        peak_before as f64 / peak_now as f64,
    );

    // 1. Cold build+save, the artifact removed before each run.
    let artifact = ShardedSeedIndex::artifact_path(&dir, &target, &shape, shards);
    let cold_s = best_of(
        args.repeats,
        &mut [Arm::new("cold", || {
            let _ = std::fs::remove_file(&artifact);
            let (idx, origin) =
                ShardedSeedIndex::load_or_build(&dir, &target, shape.clone(), shards)
                    .expect("cold build");
            assert_eq!(origin, IndexOrigin::Built);
            std::hint::black_box(idx.len());
        })],
        |_, ()| {},
    )[0];

    // 2. Warm service vs per-run rebuild across request counts. The warm
    // side acquires through the IndexCache (first acquire loads the
    // artifact the last cold run saved, the rest hit the resident
    // index); the rebuild side reconstructs the sharded index for every
    // request, which is exactly what every run paid before persistence.
    let mut rows = Vec::new();
    let mut gate_failed = false;
    for requests in [1usize, 4, 8, 16] {
        let walls = best_of(
            args.repeats,
            &mut [
                Arm::new("warm", || {
                    let mut cache = IndexCache::new(IndexCacheConfig {
                        dir: Some(dir.clone()),
                        shards,
                    });
                    for r in 0..requests {
                        let got = cache.acquire(&target, shape.clone()).expect("acquire");
                        assert_eq!(
                            got.origin,
                            if r == 0 {
                                AcquireOrigin::LoadedFromDisk
                            } else {
                                AcquireOrigin::Resident
                            }
                        );
                        std::hint::black_box(got.index.len());
                    }
                }),
                Arm::new("rebuild", || {
                    for _ in 0..requests {
                        let idx = ShardedSeedIndex::build(&target, shape.clone(), shards)
                            .expect("rebuild");
                        std::hint::black_box(idx.len());
                    }
                }),
            ],
            |_, ()| {},
        );
        let (warm_s, rebuild_s) = (walls[0], walls[1]);
        let speedup = rebuild_s / warm_s;
        eprintln!(
            "{requests:>3} requests: warm {warm_s:.6} s vs rebuild {rebuild_s:.6} s \
             ({speedup:.1}x)"
        );
        if requests >= 8 && !at_least(speedup, WARM_GATE) {
            gate_failed = true;
        }
        rows.push(json_obj! {
            "requests" => requests, "warm_s" => warm_s,
            "rebuild_s" => rebuild_s, "speedup" => speedup,
        });
    }

    let report = json_obj! {
        "bench" => "index_build",
        "shards" => shards,
        "repeats" => args.repeats,
        "corpus" => json_obj! {
            "target_bp" => target.len(), "query_bp" => query.len(),
            "index_entries" => loaded.len(), "anchors" => wl_mem.anchors.len(),
        },
        "checksum" => format!("{mem_sum:016x}"),
        "cold_build_s" => cold_s,
        "requests" => rows[..],
        "build_peak_bytes" => json_obj! {
            "single_table" => peak_now, "staged" => peak_before,
            "ratio" => peak_now as f64 / peak_before as f64,
        },
        "gate" => json_obj! {
            "min_warm_speedup_at_8_requests" => WARM_GATE, "passed" => !gate_failed,
        },
        "methodology" => format!("Seeded {} bp genome indexed under the 12-of-19 shape into {shards} target-interval shards. Cold is load_or_build with the artifact removed at the start of each timed run (build + checksummed atomic save), best of {}. For each request count, warm acquires the index once per request through the serve IndexCache over a saved artifact (one validated disk load, then resident hits), while rebuild constructs the sharded index per request — the pre-persistence behaviour; both are best of {} after one warmup each, in rounds that alternate their order. Anchors through the loaded index are checksum-verified against a fresh in-memory index before timing. Peak build bytes compare the single-table counting-sort build (one u32 table + entries) with the replaced staged build (word staging buffer + three tables) on the same dimensions; the gate fails if the warm speedup at 8+ requests drops below {WARM_GATE:.2}x or the new peak is not strictly smaller.", target.len(), args.repeats, args.repeats),
    };
    write_report(&args.out, &report);
    println!(
        "cold build {cold_s:.4} s; warm gate {} (>= {WARM_GATE:.2}x at 8+ requests)  -> {}",
        if gate_failed { "FAILED" } else { "passed" },
        args.out
    );
    let _ = std::fs::remove_dir_all(&dir);

    if gate_failed {
        eprintln!("FAIL: warm index loads below the {WARM_GATE:.2}x speedup gate");
        std::process::exit(1);
    }
}
