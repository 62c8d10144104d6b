//! Multicore LASTZ (paper §3.4, "Multicore Implementation").
//!
//! The paper's multicore baseline partitions the seed set across
//! processes, each running the default sequential DP for its partition.
//! We reproduce that structure with scoped threads: one static partition
//! per worker, each with its own scratch buffers and its own *local* work
//! reduction (the sequential terminate-at-previous-alignment rule cannot
//! see alignments found concurrently by other workers — the same
//! limitation the paper describes for any parallel implementation).

use crate::alignment::Alignment;
use crate::driver::{dedupe_alignments, DriverConfig, DriverReport, DriverStats};
use crate::extend::{gapped_extend_with, ExtendScratch};
use fastz_genome::Sequence;
use fastz_seed::Anchor;
use std::time::Instant;

/// Runs the gapped driver over `workers` static anchor partitions.
pub fn multicore_gapped(
    target: &Sequence,
    query: &Sequence,
    anchors: &[Anchor],
    seed_span: usize,
    config: &DriverConfig,
    workers: usize,
) -> DriverReport {
    assert!(workers >= 1, "need at least one worker");
    let start = Instant::now();
    let workers = workers.min(anchors.len().max(1));
    let chunk = anchors.len().div_ceil(workers);

    let partials: Vec<(
        Vec<Alignment>,
        DriverStats,
        Vec<crate::driver::ExtensionRecord>,
    )> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(workers);
        for part in anchors.chunks(chunk.max(1)) {
            handles.push(scope.spawn(move || {
                let mut scratch = ExtendScratch::default();
                let mut alignments: Vec<Alignment> = Vec::new();
                let mut records = Vec::new();
                let mut stats = DriverStats {
                    seeds: part.len(),
                    ..DriverStats::default()
                };
                for &anchor in part {
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
                        records.push(crate::driver::ExtensionRecord {
                            anchor,
                            score: ext.alignment.score,
                            max_extent: ext.max_extent(),
                            cells: ext.cells(),
                            optimal_cells: ((ext.left_extent.0 + 1) * (ext.left_extent.1 + 1)
                                + (ext.right_extent.0 + 1) * (ext.right_extent.1 + 1))
                                as u64,
                            left_stats: ext.left_stats,
                            right_stats: ext.right_stats,
                        });
                    }
                    if ext.alignment.score >= config.scoring.gapped_threshold {
                        alignments.push(ext.alignment);
                    }
                }
                (alignments, stats, records)
            }));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("worker panicked"))
            .collect()
    });

    let mut alignments = Vec::new();
    let mut records = Vec::new();
    let mut stats = DriverStats::default();
    for (a, s, r) in partials {
        alignments.extend(a);
        records.extend(r);
        stats.seeds += s.seeds;
        stats.extended += s.extended;
        stats.skipped += s.skipped;
        stats.total_cells += s.total_cells;
    }
    stats.wall_time = start.elapsed();

    DriverReport {
        alignments: dedupe_alignments(alignments),
        stats,
        records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::sequential_gapped;
    use fastz_genome::evolve::{generate_pair, PairParams};
    use fastz_genome::Scoring;
    use fastz_seed::{find_anchors, SeedIndex, SeedShape};

    fn demo() -> (Sequence, Sequence, Vec<Anchor>, usize) {
        let pair = generate_pair(&PairParams {
            target_len: 30_000,
            query_len: 30_000,
            segments: 60,
            ..PairParams::small_demo("mc", 77)
        });
        // Dense seeds (unfiltered): the sequential work-reduction rule
        // needs anchors interior to found alignments to exercise.
        let index = SeedIndex::build(&pair.target, SeedShape::lastz_12of19());
        let anchors = find_anchors(&index, &pair.query);
        let span = index.shape().span();
        (pair.target, pair.query, anchors, span)
    }

    #[test]
    fn multicore_matches_sequential_alignments() {
        let (t, q, anchors, span) = demo();
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
        let (t, q, anchors, span) = demo();
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
    fn single_worker_equals_sequential() {
        let (t, q, anchors, span) = demo();
        let cfg = DriverConfig::gapped(Scoring::bench_scaled());
        let seq = sequential_gapped(&t, &q, &anchors, span, &cfg);
        let par = multicore_gapped(&t, &q, &anchors, span, &cfg, 1);
        assert_eq!(seq.alignments, par.alignments);
        assert_eq!(seq.stats.skipped, par.stats.skipped);
    }

    #[test]
    fn worker_count_larger_than_anchors() {
        let (t, q, anchors, span) = demo();
        let cfg = DriverConfig::gapped(Scoring::bench_scaled());
        let few = &anchors[..3.min(anchors.len())];
        let par = multicore_gapped(&t, &q, few, span, &cfg, 64);
        assert_eq!(par.stats.seeds, few.len());
    }
}
