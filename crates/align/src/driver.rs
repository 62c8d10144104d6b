//! The LASTZ baseline drivers (paper §2, Fig. 2).
//!
//! * [`sequential_gapped`] — gapped LASTZ: every filtered seed is gapped-
//!   extended, with LASTZ's sequential work reduction (an anchor interior
//!   to a previously found alignment is skipped, paper §2.1).
//! * [`sequential_ungapped_filtered`] — "ungapped LASTZ": seeds pass an
//!   ungapped x-drop HSP filter first; only survivors are gapped-extended.
//!   Faster, lower sensitivity (paper Fig. 2).
//! * [`sequential_banded`] — Darwin-WGA-style banding: each side is
//!   extended with banded Smith-Waterman instead of the exact search.
//! * [`multicore_gapped`] — multicore LASTZ (paper §3.4): the gapped
//!   driver over static anchor partitions, one scoped thread each.
//!
//! All four run one per-seed loop over static partitions of the seed set
//! (a single partition for the sequential drivers) and differ only in
//! the extension they hand it. The loop owns work reduction, the gapped
//! threshold, the stats and the optional records; partitions merge in
//! order and the merged alignments are deduplicated. Work reduction is
//! local to a partition: it cannot see alignments another worker finds
//! concurrently, the same limitation the paper describes for any
//! parallel implementation.

use crate::alignment::Alignment;
use crate::banded::banded_extend;
use crate::extend::{
    extend_and_splice, gapped_extend, ExtendConfig, ExtendScratch, GappedExtension,
};
use crate::ungapped::xdrop_extend;
use crate::ydrop::ExtensionStats;
use fastz_genome::{Scoring, Sequence};
use fastz_seed::Anchor;
use std::time::{Duration, Instant};

/// Outcome class of one seed extension (drives Table 2 and the cost
/// models).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExtensionRecord {
    /// The anchor that was extended.
    pub anchor: Anchor,
    /// Final combined score.
    pub score: i32,
    /// The paper's binning extent (max optimal extent over both halves).
    pub max_extent: usize,
    /// DP cells explored by both halves (search space).
    pub cells: u64,
    /// DP cells inside the optimal region only (what a trimmed executor
    /// would recompute): `Σ (best_i+1)·(best_j+1)` over both halves.
    pub optimal_cells: u64,
    /// Search-space statistics of the left half.
    pub left_stats: ExtensionStats,
    /// Search-space statistics of the right half.
    pub right_stats: ExtensionStats,
}

/// Aggregate driver statistics.
#[derive(Clone, Debug, Default)]
pub struct DriverStats {
    /// Seeds offered to the driver.
    pub seeds: usize,
    /// Seeds actually extended (not skipped by work reduction).
    pub extended: usize,
    /// Seeds skipped because they fell inside a previous alignment.
    pub skipped: usize,
    /// Total DP cells explored.
    pub total_cells: u64,
    /// Wall-clock time of the run.
    pub wall_time: Duration,
}

/// Result of a driver run.
#[derive(Clone, Debug, Default)]
pub struct DriverReport {
    /// Alignments meeting the score threshold, deduplicated.
    pub alignments: Vec<Alignment>,
    /// Aggregate stats.
    pub stats: DriverStats,
    /// Per-extension records (present when requested).
    pub records: Vec<ExtensionRecord>,
}

/// Driver configuration.
#[derive(Clone, Debug)]
pub struct DriverConfig {
    /// Scoring scheme.
    pub scoring: Scoring,
    /// Gapped-extension settings.
    pub extend: ExtendConfig,
    /// Apply LASTZ's sequential terminate-at-previous-alignment rule.
    pub work_reduction: bool,
    /// Keep per-extension records (needed by Table 2 / cost models).
    pub record_extensions: bool,
}

impl DriverConfig {
    /// The gapped-LASTZ default for a scoring scheme.
    pub fn gapped(scoring: Scoring) -> DriverConfig {
        DriverConfig {
            scoring,
            extend: ExtendConfig::default(),
            work_reduction: true,
            record_extensions: false,
        }
    }
}

/// Removes duplicate alignments (same coordinates), keeping the first,
/// and sorts by (target_start, query_start).
pub fn dedupe_alignments(mut alignments: Vec<Alignment>) -> Vec<Alignment> {
    alignments.sort_by_key(|a| (a.target_start, a.query_start, a.target_end, a.query_end));
    alignments.dedup_by(|a, b| {
        a.target_start == b.target_start
            && a.query_start == b.query_start
            && a.target_end == b.target_end
            && a.query_end == b.query_end
    });
    alignments
}

fn record_of(anchor: Anchor, ext: &GappedExtension) -> ExtensionRecord {
    let opt = |e: (usize, usize)| ((e.0 + 1) as u64) * ((e.1 + 1) as u64);
    ExtensionRecord {
        anchor,
        score: ext.alignment.score,
        max_extent: ext.max_extent(),
        cells: ext.cells(),
        optimal_cells: opt(ext.left_extent) + opt(ext.right_extent),
        left_stats: ext.left_stats,
        right_stats: ext.right_stats,
    }
}

/// Offers each seed of `anchors` in order to `extend`, which returns
/// `None` for a seed its filter rejects, and keeps the extensions that
/// reach the gapped threshold, in seed order (not yet deduplicated).
/// Records each extension when `record`.
fn seed_loop(
    anchors: &[Anchor],
    config: &DriverConfig,
    record: bool,
    extend: &impl Fn(Anchor, &mut ExtendScratch) -> Option<GappedExtension>,
) -> DriverReport {
    let mut scratch = ExtendScratch::default();
    let mut part = DriverReport::default();
    part.stats.seeds = anchors.len();
    for &anchor in anchors {
        let t = anchor.target_pos as usize;
        let q = anchor.query_pos as usize;
        // LASTZ's sequential rule: a seed interior to an alignment we
        // already produced cannot yield a better, different alignment.
        let interior =
            config.work_reduction && part.alignments.iter().any(|a| a.contains_point(t, q));
        let ext = if interior {
            None
        } else {
            extend(anchor, &mut scratch)
        };
        let Some(ext) = ext else {
            part.stats.skipped += 1;
            continue;
        };
        part.stats.extended += 1;
        part.stats.total_cells += ext.cells();
        if record {
            part.records.push(record_of(anchor, &ext));
        }
        if ext.alignment.score >= config.scoring.gapped_threshold {
            part.alignments.push(ext.alignment);
        }
    }
    part
}

/// Runs [`seed_loop`] over `workers` static partitions of `anchors`
/// (on the calling thread for one), merges them in partition order and
/// deduplicates the alignments.
fn drive(
    anchors: &[Anchor],
    config: &DriverConfig,
    workers: usize,
    record: bool,
    extend: impl Fn(Anchor, &mut ExtendScratch) -> Option<GappedExtension> + Sync,
) -> DriverReport {
    let start = Instant::now();
    let workers = workers.min(anchors.len()).max(1);
    let parts = if workers == 1 {
        vec![seed_loop(anchors, config, record, &extend)]
    } else {
        let extend = &extend;
        std::thread::scope(|scope| {
            let handles: Vec<_> = anchors
                .chunks(anchors.len().div_ceil(workers))
                .map(|part| scope.spawn(move || seed_loop(part, config, record, extend)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    };
    let mut report = DriverReport::default();
    for part in parts {
        report.alignments.extend(part.alignments);
        report.records.extend(part.records);
        report.stats.seeds += part.stats.seeds;
        report.stats.extended += part.stats.extended;
        report.stats.skipped += part.stats.skipped;
        report.stats.total_cells += part.stats.total_cells;
    }
    report.alignments = dedupe_alignments(report.alignments);
    report.stats.wall_time = start.elapsed();
    report
}

/// Runs the gapped (high-sensitivity) sequential driver.
pub fn sequential_gapped(
    target: &Sequence,
    query: &Sequence,
    anchors: &[Anchor],
    seed_span: usize,
    config: &DriverConfig,
) -> DriverReport {
    multicore_gapped(target, query, anchors, seed_span, config, 1)
}

/// Runs the gapped driver over `workers` static anchor partitions, each
/// with its own scratch buffers and its own local work reduction.
pub fn multicore_gapped(
    target: &Sequence,
    query: &Sequence,
    anchors: &[Anchor],
    seed_span: usize,
    config: &DriverConfig,
    workers: usize,
) -> DriverReport {
    assert!(workers >= 1, "need at least one worker");
    drive(
        anchors,
        config,
        workers,
        config.record_extensions,
        |anchor, scratch| {
            Some(gapped_extend(
                target,
                query,
                anchor,
                seed_span,
                &config.scoring,
                &config.extend,
                scratch,
            ))
        },
    )
}

/// Runs the ungapped-filtered (lower-sensitivity) sequential driver:
/// x-drop HSP filter, then gapped extension of survivors only.
pub fn sequential_ungapped_filtered(
    target: &Sequence,
    query: &Sequence,
    anchors: &[Anchor],
    seed_span: usize,
    config: &DriverConfig,
) -> DriverReport {
    drive(
        anchors,
        config,
        1,
        config.record_extensions,
        |anchor, scratch| {
            let hsp = xdrop_extend(
                target.codes(),
                query.codes(),
                anchor.target_pos as usize,
                anchor.query_pos as usize,
                seed_span,
                &config.scoring,
            );
            (hsp.score >= config.scoring.hsp_threshold).then(|| {
                gapped_extend(
                    target,
                    query,
                    anchor,
                    seed_span,
                    &config.scoring,
                    &config.extend,
                    scratch,
                )
            })
        },
    )
}

/// Runs a Darwin-WGA-style banded-filtered driver: seeds are extended
/// with *banded* Smith-Waterman (band ±`band` cells around the seed
/// diagonal, paper §2.1/§2.3) and kept when the banded score reaches the
/// gapped threshold. Faster than the exact search but may miss optimal
/// alignments whose paths stray outside the band — the sensitivity loss
/// FastZ avoids by doing the exact y-drop search instead. It keeps no
/// extension records.
pub fn sequential_banded(
    target: &Sequence,
    query: &Sequence,
    anchors: &[Anchor],
    seed_span: usize,
    band: usize,
    config: &DriverConfig,
) -> DriverReport {
    let scoring = &config.scoring;
    drive(anchors, config, 1, false, |anchor, scratch| {
        Some(extend_and_splice(
            target,
            query,
            anchor,
            seed_span,
            scoring,
            config.extend.max_extension,
            scratch,
            |t, q, _| banded_extend(t, q, band, scoring, config.extend.traceback),
        ))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastz_genome::evolve::{generate_pair, PairParams};
    use fastz_genome::Scoring;
    use fastz_seed::{find_anchors, SeedIndex, SeedShape};

    fn demo_pair(label: &str, rng_seed: u64) -> (Sequence, Sequence, Vec<Anchor>, usize) {
        let pair = generate_pair(&PairParams {
            target_len: 30_000,
            query_len: 30_000,
            segments: 60,
            ..PairParams::small_demo(label, rng_seed)
        });
        // Dense seeds (unfiltered): the sequential work-reduction rule
        // needs anchors interior to found alignments to exercise.
        let index = SeedIndex::build(&pair.target, SeedShape::lastz_12of19());
        let anchors = find_anchors(&index, &pair.query);
        let span = index.shape().span();
        (pair.target, pair.query, anchors, span)
    }

    fn demo() -> (Sequence, Sequence, Vec<Anchor>, usize) {
        demo_pair("drv", 31)
    }

    #[test]
    fn gapped_driver_finds_alignments() {
        let (t, q, anchors, span) = demo();
        let cfg = DriverConfig {
            record_extensions: true,
            ..DriverConfig::gapped(Scoring::bench_scaled())
        };
        let report = sequential_gapped(&t, &q, &anchors, span, &cfg);
        assert!(!report.alignments.is_empty());
        assert_eq!(report.stats.seeds, anchors.len());
        assert_eq!(
            report.stats.extended + report.stats.skipped,
            report.stats.seeds
        );
        assert_eq!(report.records.len(), report.stats.extended);
        for a in &report.alignments {
            assert!(a.is_consistent(&t, &q));
            assert_eq!(a.rescore(&t, &q, &cfg.scoring), a.score);
            assert!(a.score >= cfg.scoring.gapped_threshold);
        }
    }

    #[test]
    fn work_reduction_skips_interior_seeds() {
        let (t, q, anchors, span) = demo();
        let with = sequential_gapped(
            &t,
            &q,
            &anchors,
            span,
            &DriverConfig::gapped(Scoring::bench_scaled()),
        );
        let without = sequential_gapped(
            &t,
            &q,
            &anchors,
            span,
            &DriverConfig {
                work_reduction: false,
                ..DriverConfig::gapped(Scoring::bench_scaled())
            },
        );
        assert!(with.stats.skipped > 0, "expected some skips");
        assert_eq!(without.stats.skipped, 0);
        assert!(with.stats.total_cells < without.stats.total_cells);
        // Work reduction is a heuristic (LASTZ §2.1): skipped seeds are
        // assumed to re-find the enclosing alignment, so the reduced run
        // reports a subset of the full run's alignments — and not a much
        // smaller one.
        for a in &with.alignments {
            assert!(without.alignments.contains(a), "reduced run invented {a}");
        }
        assert!(
            with.alignments.len() * 10 >= without.alignments.len() * 9,
            "work reduction lost too many alignments: {} vs {}",
            with.alignments.len(),
            without.alignments.len()
        );
    }

    #[test]
    fn ungapped_filter_is_less_sensitive() {
        let (t, q, anchors, span) = demo();
        let cfg = DriverConfig::gapped(Scoring::bench_scaled());
        let gapped = sequential_gapped(&t, &q, &anchors, span, &cfg);
        let ungapped = sequential_ungapped_filtered(&t, &q, &anchors, span, &cfg);
        assert!(
            ungapped.alignments.len() <= gapped.alignments.len(),
            "ungapped {} vs gapped {}",
            ungapped.alignments.len(),
            gapped.alignments.len()
        );
        // And it does less DP work.
        assert!(ungapped.stats.total_cells <= gapped.stats.total_cells);
    }

    #[test]
    fn dedupe_removes_coordinate_duplicates() {
        let a = Alignment {
            target_start: 0,
            target_end: 10,
            query_start: 0,
            query_end: 10,
            score: 5,
            ops: vec![],
        };
        let out = dedupe_alignments(vec![a.clone(), a.clone()]);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn empty_anchor_list() {
        let (t, q, _, span) = demo();
        let report = sequential_gapped(
            &t,
            &q,
            &[],
            span,
            &DriverConfig::gapped(Scoring::bench_scaled()),
        );
        assert!(report.alignments.is_empty());
        assert_eq!(report.stats.seeds, 0);
    }

    #[test]
    fn banded_driver_finds_alignments_but_can_miss_optima() {
        let (t, q, anchors, span) = demo();
        // Work reduction off: band width changes alignment lengths, which
        // changes which seeds get skipped — confounding the comparison.
        let cfg = DriverConfig {
            work_reduction: false,
            ..DriverConfig::gapped(Scoring::bench_scaled())
        };
        let exact = sequential_gapped(&t, &q, &anchors, span, &cfg);
        let banded = sequential_banded(&t, &q, &anchors, span, 16, &cfg);
        assert!(!banded.alignments.is_empty());
        // The band explores (often far) fewer cells per seed.
        assert!(banded.stats.total_cells < exact.stats.total_cells * 2);
        // Sensitivity: per anchor the band explores a subset of the exact
        // search, so the best banded score cannot beat the best exact one.
        let best = |r: &DriverReport| r.alignments.iter().map(|a| a.score).max().unwrap_or(0);
        assert!(
            best(&exact) >= best(&banded),
            "banded best {} beat exact best {}",
            best(&banded),
            best(&exact)
        );
        for a in &banded.alignments {
            assert!(a.is_consistent(&t, &q));
            assert_eq!(a.rescore(&t, &q, &cfg.scoring), a.score);
        }
    }

    #[test]
    fn banded_driver_without_traceback_has_no_script() {
        // Like the gapped driver: no traceback, no script (a lone seed
        // run would contradict the alignment's coordinates).
        let (t, q, anchors, span) = demo();
        let with = DriverConfig::gapped(Scoring::bench_scaled());
        let mut without = with.clone();
        without.extend.traceback = false;
        let traced = sequential_banded(&t, &q, &anchors, span, 16, &with);
        let plain = sequential_banded(&t, &q, &anchors, span, 16, &without);
        assert!(!plain.alignments.is_empty());
        assert_eq!(plain.alignments.len(), traced.alignments.len());
        for (p, a) in plain.alignments.iter().zip(&traced.alignments) {
            assert!(p.ops.is_empty(), "script without traceback: {p}");
            assert_eq!(
                Alignment {
                    ops: vec![],
                    ..a.clone()
                },
                *p
            );
        }
    }

    #[test]
    fn wider_bands_recover_sensitivity() {
        let (t, q, anchors, span) = demo();
        let cfg = DriverConfig {
            work_reduction: false,
            ..DriverConfig::gapped(Scoring::bench_scaled())
        };
        let narrow = sequential_banded(&t, &q, &anchors, span, 4, &cfg);
        let wide = sequential_banded(&t, &q, &anchors, span, 64, &cfg);
        let best = |r: &DriverReport| r.alignments.iter().map(|a| a.score).max().unwrap_or(0);
        assert!(
            best(&wide) >= best(&narrow),
            "wide best {} < narrow best {}",
            best(&wide),
            best(&narrow)
        );
        assert!(wide.stats.total_cells > narrow.stats.total_cells);
    }

    #[test]
    fn multicore_matches_sequential_alignments() {
        let (t, q, anchors, span) = demo_pair("mc", 77);
        // Disable work reduction so both paths do identical extensions.
        let cfg = DriverConfig {
            work_reduction: false,
            ..DriverConfig::gapped(Scoring::bench_scaled())
        };
        let seq = sequential_gapped(&t, &q, &anchors, span, &cfg);
        let par = multicore_gapped(&t, &q, &anchors, span, &cfg, 4);
        assert_eq!(seq.alignments, par.alignments);
        assert_eq!(seq.stats.total_cells, par.stats.total_cells);
    }

    #[test]
    fn multicore_with_local_work_reduction_finds_superset() {
        // Per-partition work reduction skips fewer seeds than global, so
        // the parallel run's alignment set must contain the sequential
        // run's (identical coordinates, possibly more entries — the
        // paper's "identical or occasionally longer" guarantee works the
        // same way).
        let (t, q, anchors, span) = demo_pair("mc", 77);
        let cfg = DriverConfig::gapped(Scoring::bench_scaled());
        let seq = sequential_gapped(&t, &q, &anchors, span, &cfg);
        let par = multicore_gapped(&t, &q, &anchors, span, &cfg, 4);
        assert!(par.stats.skipped <= seq.stats.skipped);
        for a in &seq.alignments {
            assert!(
                par.alignments.contains(a),
                "parallel run lost alignment {a}"
            );
        }
    }

    #[test]
    fn worker_count_larger_than_anchors() {
        let (t, q, anchors, span) = demo_pair("mc", 77);
        let cfg = DriverConfig::gapped(Scoring::bench_scaled());
        let few = &anchors[..3.min(anchors.len())];
        let par = multicore_gapped(&t, &q, few, span, &cfg, 64);
        assert_eq!(par.stats.seeds, few.len());
    }
}
