//! Persistent-index conformance: seeding through a persisted sharded
//! index must be *transparent* to the pipeline.
//!
//! Checks, per drill seed, on every corpus family:
//!
//! 1. **Anchor identity** — the workload built through a sharded index
//!    that made a full save → validate → load round trip equals the
//!    workload built through a fresh in-memory [`SeedIndex`], anchor for
//!    anchor (raw counts, filtered counts, order).
//! 2. **Pipeline bit identity** — the full pipeline over both workloads
//!    produces identical alignments, identical bin counts, and
//!    bit-identical modeled GPU time, across `sim_threads` values (a
//!    knob documented as wall-clock-only must stay wall-clock-only when
//!    anchors come off disk).
//! 3. **Shard-count invariance** — the loaded index's lookups are the
//!    same whole-index sequence at every shard count.

use fastz_core::{run_fastz, FastZConfig, OptFlags};
use fastz_genome::{Scoring, Sequence};
use fastz_gpu_sim::DeviceSpec;
use fastz_seed::{SeedIndex, SeedShape, ShardedSeedIndex, Workload, WorkloadParams};

use crate::corpus::{make_case, Category};
use crate::report::Divergence;

fn diverge(category: Category, seed: u64, invariant: &'static str, message: String) -> Divergence {
    Divergence {
        category,
        seed,
        invariant,
        engines: "persisted sharded index vs in-memory index",
        message,
        first_divergent_cell: None,
    }
}

/// The families the drill sweeps — all six, with a fixed representative
/// seed for the prescribed-extent bin-boundary family (bound 2048,
/// exact) and the drill seed elsewhere.
fn family_cases(seed: u64) -> Vec<(Category, u64)> {
    let mut cases: Vec<(Category, u64)> = Category::FUZZ.iter().map(|&c| (c, seed)).collect();
    cases.push((Category::BinBoundary, (1 << 2) | 1));
    cases
}

/// Runs the persistent-index drill for `seed`; returns
/// `(checks, divergences)`.
pub fn check_index_persist(seed: u64, scoring: &Scoring) -> (usize, Vec<Divergence>) {
    let mut checks = 0usize;
    let mut div = Vec::new();

    let dir = std::env::temp_dir().join(format!("fastz-conformance-index-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        div.push(diverge(
            Category::CleanHomology,
            seed,
            "index-drill-setup",
            format!("cannot create {}: {e}", dir.display()),
        ));
        return (checks, div);
    }

    // Corpus cases are short, so seed with a short exact shape — every
    // family (including the disjoint-alphabet edge families) produces
    // windows, and garbage pairs still exercise the near-empty path.
    let shape = SeedShape::exact(8);
    let params = WorkloadParams {
        shape: shape.clone(),
        ..WorkloadParams::default()
    };

    for (category, case_seed) in family_cases(seed) {
        let case = make_case(category, case_seed);
        let name = format!("idx-drill-{}", category.name());
        let target = Sequence::from_codes(name.clone(), case.target.clone());
        let query = Sequence::from_codes(format!("{name}-q"), case.query.clone());

        // In-memory reference workload.
        let fresh = SeedIndex::build(&target, shape.clone());
        let wl_mem = Workload::build_with_index(&fresh, &query, &params);

        // Persisted workload: build sharded, save, load back, seed.
        let persisted = (|| {
            let built = ShardedSeedIndex::build(&target, shape.clone(), 3)?;
            built.save(&ShardedSeedIndex::artifact_path(&dir, &target, &shape, 3))?;
            ShardedSeedIndex::load_or_build(&dir, &target, shape.clone(), 3)
        })();
        let (loaded, origin) = match persisted {
            Ok(pair) => pair,
            Err(e) => {
                div.push(diverge(
                    category,
                    case_seed,
                    "index-round-trip",
                    format!("save/load failed: {e}"),
                ));
                continue;
            }
        };
        checks += 1;
        if origin != fastz_seed::IndexOrigin::LoadedFromDisk {
            div.push(diverge(
                category,
                case_seed,
                "index-round-trip",
                "saved artifact was not loaded back (rebuilt instead)".to_string(),
            ));
        }
        let wl_disk = Workload::build_with_index(&loaded, &query, &params);

        // 1. Anchor identity.
        checks += 1;
        if wl_mem.anchors != wl_disk.anchors
            || wl_mem.raw_anchors != wl_disk.raw_anchors
            || wl_mem.filtered_anchors != wl_disk.filtered_anchors
        {
            div.push(diverge(
                category,
                case_seed,
                "index-anchor-identity",
                format!(
                    "in-memory {} raw / {} anchors vs persisted {} raw / {} anchors",
                    wl_mem.raw_anchors,
                    wl_mem.anchors.len(),
                    wl_disk.raw_anchors,
                    wl_disk.anchors.len()
                ),
            ));
            continue;
        }

        // 3. Shard-count invariance of the loaded artifact's lookups.
        checks += 1;
        for shards in [1usize, 5] {
            let other = match ShardedSeedIndex::build(&target, shape.clone(), shards) {
                Ok(i) => i,
                Err(e) => {
                    div.push(diverge(
                        category,
                        case_seed,
                        "index-shard-invariance",
                        format!("{shards}-shard build failed: {e}"),
                    ));
                    continue;
                }
            };
            let wl_other = Workload::build_with_index(&other, &query, &params);
            if wl_other.anchors != wl_mem.anchors {
                div.push(diverge(
                    category,
                    case_seed,
                    "index-shard-invariance",
                    format!("{shards}-shard anchors differ from the in-memory index"),
                ));
            }
        }

        // 2. Pipeline bit identity across the wall-clock-only knobs.
        let span = wl_mem.shape.span();
        let mut reference: Option<(Vec<_>, _, u64)> = None;
        for sim_threads in [1usize, 2, 0] {
            let mut cfg = FastZConfig::new(scoring.clone(), DeviceSpec::rtx3080_ampere());
            cfg.flags = OptFlags::fastz();
            cfg.sim_threads = sim_threads;
            let mem = run_fastz(&target, &query, &wl_mem.anchors, span, &cfg);
            let disk = run_fastz(&target, &query, &wl_disk.anchors, span, &cfg);
            checks += 3;
            if mem.alignments != disk.alignments {
                div.push(diverge(
                    category,
                    case_seed,
                    "index-pipeline-alignments",
                    format!(
                        "{} vs {} alignments (sim_threads {sim_threads})",
                        mem.alignments.len(),
                        disk.alignments.len()
                    ),
                ));
            }
            if mem.bin_counts != disk.bin_counts {
                div.push(diverge(
                    category,
                    case_seed,
                    "index-pipeline-bins",
                    format!(
                        "bin counts {:?} vs {:?} (sim_threads {sim_threads})",
                        mem.bin_counts, disk.bin_counts
                    ),
                ));
            }
            if mem.modeled_time_s.to_bits() != disk.modeled_time_s.to_bits() {
                div.push(diverge(
                    category,
                    case_seed,
                    "index-pipeline-modeled-bits",
                    format!(
                        "modeled {:.9e} s vs {:.9e} s (sim_threads {sim_threads})",
                        mem.modeled_time_s, disk.modeled_time_s
                    ),
                ));
            }
            // The knob itself must stay wall-clock-only on the persisted
            // path: every sim_threads value agrees with the first.
            checks += 1;
            match &reference {
                None => {
                    reference = Some((
                        disk.alignments.clone(),
                        disk.bin_counts,
                        disk.modeled_time_s.to_bits(),
                    ));
                }
                Some((al, bins, bits)) => {
                    if al != &disk.alignments
                        || bins != &disk.bin_counts
                        || *bits != disk.modeled_time_s.to_bits()
                    {
                        div.push(diverge(
                            category,
                            case_seed,
                            "index-knob-invariance",
                            format!("persisted-path results vary with sim_threads {sim_threads}"),
                        ));
                    }
                }
            }
        }
    }

    let _ = std::fs::remove_dir_all(&dir);
    (checks, div)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_drill_is_clean() {
        let (checks, div) = check_index_persist(7, &crate::suite_scoring());
        assert!(div.is_empty(), "divergences: {div:?}");
        // 6 families × (round-trip + anchors + shard-invariance +
        // 3 knob combos × 4 checks).
        assert!(checks >= 6 * 15, "only {checks} checks ran");
    }
}
