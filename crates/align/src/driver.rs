//! Sequential whole-genome-alignment drivers (the LASTZ baselines).
//!
//! * [`sequential_gapped`] — gapped LASTZ: every filtered seed is gapped-
//!   extended, with LASTZ's sequential work reduction (an anchor interior
//!   to a previously found alignment is skipped, paper §2.1).
//! * [`sequential_ungapped_filtered`] — "ungapped LASTZ": seeds pass an
//!   ungapped x-drop HSP filter first; only survivors are gapped-extended.
//!   Faster, lower sensitivity (paper Fig. 2).

use crate::alignment::Alignment;
use crate::extend::{gapped_extend_with, ExtendConfig, ExtendScratch};
use crate::score;
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
#[derive(Clone, Debug)]
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

fn record_of(anchor: Anchor, ext: &crate::extend::GappedExtension) -> ExtensionRecord {
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

/// Runs the gapped (high-sensitivity) sequential driver.
pub fn sequential_gapped(
    target: &Sequence,
    query: &Sequence,
    anchors: &[Anchor],
    seed_span: usize,
    config: &DriverConfig,
) -> DriverReport {
    let start = Instant::now();
    let mut scratch = ExtendScratch::default();
    let mut alignments: Vec<Alignment> = Vec::new();
    let mut records = Vec::new();
    let mut stats = DriverStats {
        seeds: anchors.len(),
        ..DriverStats::default()
    };

    for &anchor in anchors {
        if config.work_reduction {
            let t = anchor.target_pos as usize;
            let q = anchor.query_pos as usize;
            // LASTZ's sequential rule: a seed interior to an alignment we
            // already produced cannot yield a better, different alignment.
            if alignments.iter().any(|a| a.contains_point(t, q)) {
                stats.skipped += 1;
                continue;
            }
        }
        let ext = gapped_extend_with(
            target,
            query,
            anchor,
            seed_span,
            &config.scoring,
            &config.extend,
            &mut scratch,
        );
        stats.extended += 1;
        stats.total_cells += ext.cells();
        if config.record_extensions {
            records.push(record_of(anchor, &ext));
        }
        if ext.alignment.score >= config.scoring.gapped_threshold {
            alignments.push(ext.alignment);
        }
    }

    stats.wall_time = start.elapsed();
    DriverReport {
        alignments: dedupe_alignments(alignments),
        stats,
        records,
    }
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
    let start = Instant::now();
    let mut scratch = ExtendScratch::default();
    let mut alignments: Vec<Alignment> = Vec::new();
    let mut records = Vec::new();
    let mut stats = DriverStats {
        seeds: anchors.len(),
        ..DriverStats::default()
    };

    for &anchor in anchors {
        let hsp = xdrop_extend(
            target.codes(),
            query.codes(),
            anchor.target_pos as usize,
            anchor.query_pos as usize,
            seed_span,
            &config.scoring,
        );
        if hsp.score < config.scoring.hsp_threshold {
            stats.skipped += 1;
            continue;
        }
        if config.work_reduction {
            let t = anchor.target_pos as usize;
            let q = anchor.query_pos as usize;
            if alignments.iter().any(|a| a.contains_point(t, q)) {
                stats.skipped += 1;
                continue;
            }
        }
        let ext = gapped_extend_with(
            target,
            query,
            anchor,
            seed_span,
            &config.scoring,
            &config.extend,
            &mut scratch,
        );
        stats.extended += 1;
        stats.total_cells += ext.cells();
        if config.record_extensions {
            records.push(record_of(anchor, &ext));
        }
        if ext.alignment.score >= config.scoring.gapped_threshold {
            alignments.push(ext.alignment);
        }
    }

    stats.wall_time = start.elapsed();
    DriverReport {
        alignments: dedupe_alignments(alignments),
        stats,
        records,
    }
}

/// Runs a Darwin-WGA-style banded-filtered driver: seeds are extended
/// with *banded* Smith-Waterman (band ±`band` cells around the seed
/// diagonal, paper §2.1/§2.3) and kept when the banded score reaches the
/// gapped threshold. Faster than the exact search but may miss optimal
/// alignments whose paths stray outside the band — the sensitivity loss
/// FastZ avoids by doing the exact y-drop search instead.
pub fn sequential_banded(
    target: &Sequence,
    query: &Sequence,
    anchors: &[Anchor],
    seed_span: usize,
    band: usize,
    config: &DriverConfig,
) -> DriverReport {
    use crate::alignment::{push_op, EditOp};
    use crate::banded::banded_extend;

    let start = Instant::now();
    let mut alignments: Vec<Alignment> = Vec::new();
    let mut stats = DriverStats {
        seeds: anchors.len(),
        ..DriverStats::default()
    };

    let tc = target.codes();
    let qc = query.codes();
    let max_ext = config.extend.max_extension;
    for &anchor in anchors {
        let t0 = anchor.target_pos as usize;
        let q0 = anchor.query_pos as usize;
        if config.work_reduction && alignments.iter().any(|a| a.contains_point(t0, q0)) {
            stats.skipped += 1;
            continue;
        }
        // Seed body.
        let mut seed_score = 0i32;
        for k in 0..seed_span {
            seed_score = score::add_clamped(
                seed_score,
                config.scoring.subst.score(tc[t0 + k], qc[q0 + k]),
            );
        }
        // Right half.
        let rt = &tc[t0 + seed_span..tc.len().min(t0 + seed_span + max_ext)];
        let rq = &qc[q0 + seed_span..qc.len().min(q0 + seed_span + max_ext)];
        let right = banded_extend(rt, rq, band, &config.scoring, config.extend.traceback);
        // Left half on reversed prefixes.
        let lt: Vec<u8> = tc[t0.saturating_sub(max_ext)..t0]
            .iter()
            .rev()
            .copied()
            .collect();
        let lq: Vec<u8> = qc[q0.saturating_sub(max_ext)..q0]
            .iter()
            .rev()
            .copied()
            .collect();
        let left = banded_extend(&lt, &lq, band, &config.scoring, config.extend.traceback);

        stats.extended += 1;
        stats.total_cells += left.stats.cells + right.stats.cells;

        let score = score::add_clamped(
            score::add_clamped(left.best_score, seed_score),
            right.best_score,
        );
        if score >= config.scoring.gapped_threshold {
            let mut ops: Vec<EditOp> = Vec::new();
            if let Some(lops) = &left.ops {
                for &op in lops.iter().rev() {
                    push_op(&mut ops, op);
                }
            }
            push_op(&mut ops, EditOp::Diag(seed_span as u32));
            if let Some(rops) = &right.ops {
                for &op in rops {
                    push_op(&mut ops, op);
                }
            }
            alignments.push(Alignment {
                target_start: t0 - left.best_j,
                target_end: t0 + seed_span + right.best_j,
                query_start: q0 - left.best_i,
                query_end: q0 + seed_span + right.best_i,
                score,
                ops,
            });
        }
    }

    stats.wall_time = start.elapsed();
    DriverReport {
        alignments: dedupe_alignments(alignments),
        stats,
        records: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastz_genome::evolve::{generate_pair, PairParams};
    use fastz_genome::Scoring;
    use fastz_seed::{find_anchors, SeedIndex, SeedShape};

    fn demo() -> (Sequence, Sequence, Vec<Anchor>, usize) {
        let pair = generate_pair(&PairParams {
            target_len: 30_000,
            query_len: 30_000,
            segments: 60,
            ..PairParams::small_demo("drv", 31)
        });
        // Dense seeds (unfiltered): the sequential work-reduction rule
        // needs anchors interior to found alignments to exercise.
        let index = SeedIndex::build(&pair.target, SeedShape::lastz_12of19());
        let anchors = find_anchors(&index, &pair.query);
        let span = index.shape().span();
        (pair.target, pair.query, anchors, span)
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
}
