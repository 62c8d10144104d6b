//! Bitvector pre-filter benchmark: cheap-reject throughput vs full
//! y-drop on a garbage-heavy (high-divergence) anchor corpus.
//!
//! The corpus doubles a seeded homologous workload with planted garbage
//! anchors (real target windows pointed at unrelated query regions), so
//! half the anchor population is provably hopeless. Three measurements:
//!
//! 1. **Soundness first** — the filtered pipeline's alignments must
//!    checksum-match the unfiltered run before any timing is reported
//!    (the probe may only drop anchors that cannot clear
//!    `gapped_threshold`).
//! 2. **Reject throughput** — host wall clock of the probe alone,
//!    reported as anchors/second, plus the reject fraction.
//! 3. **End-to-end** — best-of-N host wall of probe + pipeline on the
//!    kept anchors vs the full pipeline on every anchor, and the
//!    modeled-GPU-time saving from the problems never dispatched.
//!
//! Results land in `BENCH_bitvec.json`. With `--check`, the run fails
//! if the filtered path regresses more than 10% against unfiltered
//! y-drop (on a half-garbage corpus it should win, not merely tie).

use fastz_align::dedupe_alignments;
use fastz_bench::alignment_checksum;
use fastz_bench::gate::{best_of, homologous_workload, within, write_report, Arm, BITVEC_FILTER};
use fastz_bench::json_obj;
use fastz_core::{prefilter_anchors, run_fastz, FastZConfig, PrefilterConfig};
use fastz_genome::{Scoring, Sequence};
use fastz_gpu_sim::DeviceSpec;
use fastz_seed::Anchor;

const GATE: f64 = 0.10;

/// Homologous workload doubled with planted garbage: every real anchor
/// is shadowed by one whose query coordinate sits thousands of bases
/// off the homologous diagonal — random-vs-random seed and flanks, the
/// population the reject rung exists for.
fn corpus() -> (Sequence, Sequence, Vec<Anchor>, usize, usize) {
    let (target, query, real, span) = homologous_workload("bitvec-bench", 31);
    let qlen = query.len();
    let mut anchors = Vec::with_capacity(real.len() * 2);
    let mut garbage = 0usize;
    for a in &real {
        anchors.push(*a);
        let q = (a.query_pos as usize + 9_001 + 131 * garbage) % (qlen - 2 * span);
        anchors.push(Anchor {
            target_pos: a.target_pos,
            query_pos: q as u32,
        });
        garbage += 1;
    }
    (target, query, anchors, span, garbage)
}

fn main() {
    let args = BITVEC_FILTER.from_env();
    let (target, query, anchors, span, garbage) = corpus();
    // The probe is conclusive only when its rectangle covers the flank:
    // cap extensions at the probe size (PrefilterConfig docs).
    let cfg = FastZConfig {
        max_extension: 256,
        ..FastZConfig::new(Scoring::bench_scaled(), DeviceSpec::rtx3080_ampere())
    };
    let pf = PrefilterConfig::default();
    eprintln!(
        "bitvec_filter: {} anchors ({garbage} planted garbage) over {} + {} bp, best of {}",
        anchors.len(),
        target.len(),
        query.len(),
        args.repeats,
    );
    let probe = || {
        prefilter_anchors(
            &target,
            &query,
            &anchors,
            span,
            &cfg.scoring,
            cfg.max_extension,
            &pf,
        )
    };

    // Soundness before timing: the filtered alignment set must equal
    // the unfiltered one.
    let (kept, rejected) = probe();
    assert!(rejected > 0, "the garbage population must be rejectable");
    let full = run_fastz(&target, &query, &anchors, span, &cfg);
    let filtered = run_fastz(&target, &query, &kept, span, &cfg);
    let full_sum = alignment_checksum(&dedupe_alignments(full.alignments.clone()));
    let filt_sum = alignment_checksum(&dedupe_alignments(filtered.alignments.clone()));
    assert_eq!(full_sum, filt_sum, "pre-filter changed the alignment set");
    eprintln!(
        "checksum: OK ({full_sum:016x}); rejected {rejected}/{} anchors",
        anchors.len()
    );
    let modeled_saving = 1.0 - filtered.modeled_time_s / full.modeled_time_s;

    // The filtered arm pays for its own probe.
    let probe_again = || {
        let (kept, rej) = probe();
        assert_eq!(rej, rejected, "probe is deterministic");
        kept
    };
    let walls = best_of(
        args.repeats,
        &mut [
            Arm::new("probe", || {
                probe_again();
            }),
            Arm::new("unfiltered", || {
                run_fastz(&target, &query, &anchors, span, &cfg);
            }),
            Arm::new("probe+filtered", || {
                run_fastz(&target, &query, &probe_again(), span, &cfg);
            }),
        ],
        |_, ()| {},
    );
    let (probe_wall, full_wall, filt_wall) = (walls[0], walls[1], walls[2]);
    let reject_per_s = anchors.len() as f64 / probe_wall;
    let speedup = full_wall / filt_wall;

    let report = json_obj! {
        "bench" => "bitvec_filter",
        "repeats" => args.repeats,
        "corpus" => json_obj! {
            "anchors" => anchors.len(), "garbage" => garbage,
            "target_bp" => target.len(), "query_bp" => query.len(),
        },
        "checksum" => format!("{full_sum:016x}"),
        "probe" => json_obj! {
            "rejected" => rejected, "reject_fraction" => rejected as f64 / anchors.len() as f64,
            "wall_s" => probe_wall, "anchors_per_s" => reject_per_s,
        },
        "end_to_end" => json_obj! {
            "unfiltered_wall_s" => full_wall, "filtered_wall_s" => filt_wall, "speedup" => speedup,
            "modeled_gpu_saving" => modeled_saving, "gate" => GATE,
        },
        "methodology" => format!("Seeded 48 kbp homologous pair; every real anchor is shadowed by a planted garbage anchor (query coordinate shifted thousands of bases off the homologous diagonal), so at least half the population is provably below gapped_threshold (spurious chance seeds among the real workload anchors are rejected too). prefilter_anchors probes each anchor (exact seed score + per-flank bitvector quick-accept or exact mini-DP bound, max_extension capped at the probe rectangle so the bound is conclusive); the filtered pipeline runs y-drop on the kept anchors only. Alignment sets are checksum-verified identical before timing. Walls are best-of-{} after one warmup each, in rounds that alternate the arms' order; the filtered arm runs the probe itself before its pipeline. --check fails the run if probe+filtered regresses >10% against unfiltered y-drop.", args.repeats),
    };
    write_report(&args.out, &report);
    println!(
        "prefilter: {rejected}/{} rejected at {reject_per_s:.0} anchors/s; probe+filtered \
         {speedup:.2}x vs unfiltered ({:+.1}% modeled GPU)  -> {}",
        anchors.len(),
        -modeled_saving * 100.0,
        args.out
    );

    if args.check && !within(filt_wall, full_wall, GATE) {
        eprintln!(
            "FAIL: filtered path {:.1}% slower than unfiltered y-drop (gate {:.0}%)",
            (filt_wall / full_wall - 1.0) * 100.0,
            GATE * 100.0
        );
        std::process::exit(1);
    }
}
