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

use std::time::Instant;

use fastz_align::dedupe_alignments;
use fastz_bench::alignment_checksum;
use fastz_core::{prefilter_anchors, run_fastz, FastZConfig, PrefilterConfig};
use fastz_genome::evolve::{generate_pair, PairParams};
use fastz_genome::{Scoring, Sequence};
use fastz_gpu_sim::DeviceSpec;
use fastz_seed::{Anchor, Workload, WorkloadParams};

const GATE: f64 = 0.10;

struct Args {
    repeats: usize,
    check: bool,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        repeats: 3,
        check: false,
        out: "BENCH_bitvec.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut grab = || it.next().unwrap_or_else(|| panic!("{a} needs a value"));
        match a.as_str() {
            "--repeats" => args.repeats = grab().parse().expect("--repeats"),
            "--check" => args.check = true,
            "--out" => args.out = grab(),
            other => panic!("unknown argument {other} (see --repeats/--check/--out)"),
        }
    }
    args
}

/// Homologous workload doubled with planted garbage: every real anchor
/// is shadowed by one whose query coordinate sits thousands of bases
/// off the homologous diagonal — random-vs-random seed and flanks, the
/// population the reject rung exists for.
fn corpus() -> (Sequence, Sequence, Vec<Anchor>, usize, usize) {
    let pair = generate_pair(&PairParams {
        target_len: 48_000,
        query_len: 48_000,
        segments: 96,
        ..PairParams::small_demo("bitvec-bench", 31)
    });
    let wl = Workload::build(
        &pair.target,
        &pair.query,
        &WorkloadParams {
            max_anchors: 600,
            ..WorkloadParams::default()
        },
    );
    let span = wl.shape.span();
    let qlen = pair.query.len();
    let mut anchors = Vec::with_capacity(wl.anchors.len() * 2);
    let mut garbage = 0usize;
    for a in &wl.anchors {
        anchors.push(*a);
        let q = (a.query_pos as usize + 9_001 + 131 * garbage) % (qlen - 2 * span);
        anchors.push(Anchor {
            target_pos: a.target_pos,
            query_pos: q as u32,
        });
        garbage += 1;
    }
    (pair.target, pair.query, anchors, span, garbage)
}

fn main() {
    let args = parse_args();
    let (target, query, anchors, span, garbage) = corpus();
    // The probe is conclusive only when its rectangle covers the flank:
    // cap extensions at the probe size (PrefilterConfig docs).
    let cfg = FastZConfig {
        max_extension: 256,
        ..FastZConfig::new(Scoring::bench_scaled(), DeviceSpec::rtx3080_ampere())
    };
    let pf = PrefilterConfig::default();
    eprintln!(
        "bitvec_filter: {} anchors ({} planted garbage) over {} + {} bp, best of {}",
        anchors.len(),
        garbage,
        target.len(),
        query.len(),
        args.repeats,
    );

    // Soundness before timing: the filtered alignment set must equal
    // the unfiltered one.
    let (kept, rejected) = prefilter_anchors(
        &target,
        &query,
        &anchors,
        span,
        &cfg.scoring,
        cfg.max_extension,
        &pf,
    );
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

    // Warm both paths once, then best-of-N walls.
    let mut probe_wall = f64::INFINITY;
    let mut full_wall = f64::INFINITY;
    let mut filt_wall = f64::INFINITY;
    for rep in 0..args.repeats.max(1) {
        let t0 = Instant::now();
        let (kept_r, rej_r) = prefilter_anchors(
            &target,
            &query,
            &anchors,
            span,
            &cfg.scoring,
            cfg.max_extension,
            &pf,
        );
        let wp = t0.elapsed().as_secs_f64();
        assert_eq!(rej_r, rejected, "probe is deterministic");
        let t1 = Instant::now();
        run_fastz(&target, &query, &anchors, span, &cfg);
        let wf = t1.elapsed().as_secs_f64();
        let t2 = Instant::now();
        run_fastz(&target, &query, &kept_r, span, &cfg);
        let wk = t2.elapsed().as_secs_f64() + wp;
        probe_wall = probe_wall.min(wp);
        full_wall = full_wall.min(wf);
        filt_wall = filt_wall.min(wk);
        eprintln!("  rep {rep}: probe {wp:.4}s  unfiltered {wf:.3}s  probe+filtered {wk:.3}s");
    }
    let reject_per_s = anchors.len() as f64 / probe_wall;
    let speedup = full_wall / filt_wall;
    let regression = filt_wall / full_wall - 1.0;

    let json = format!(
        "{{\n  \"bench\": \"bitvec_filter\",\n  \"repeats\": {},\n  \
         \"corpus\": {{ \"anchors\": {}, \"garbage\": {}, \"target_bp\": {}, \"query_bp\": {} }},\n  \
         \"checksum\": \"{:016x}\",\n  \
         \"probe\": {{ \"rejected\": {}, \"reject_fraction\": {:.4}, \"wall_s\": {:.6}, \
         \"anchors_per_s\": {:.1} }},\n  \
         \"end_to_end\": {{ \"unfiltered_wall_s\": {:.6}, \"filtered_wall_s\": {:.6}, \
         \"speedup\": {:.4}, \"modeled_gpu_saving\": {:.4}, \"gate\": {:.2} }},\n  \
         \"methodology\": \"Seeded 48 kbp homologous pair; every real anchor is shadowed by a planted garbage anchor (query coordinate shifted thousands of bases off the homologous diagonal), so at least half the population is provably below gapped_threshold (spurious chance seeds among the real workload anchors are rejected too). prefilter_anchors probes each anchor (exact seed score + per-flank bitvector quick-accept or exact mini-DP bound, max_extension capped at the probe rectangle so the bound is conclusive); the filtered pipeline runs y-drop on the kept anchors only. Alignment sets are checksum-verified identical before timing. Walls are best-of-{}; the filtered column includes the probe itself. --check fails the run if probe+filtered regresses >10% against unfiltered y-drop.\"\n}}\n",
        args.repeats,
        anchors.len(),
        garbage,
        target.len(),
        query.len(),
        full_sum,
        rejected,
        rejected as f64 / anchors.len() as f64,
        probe_wall,
        reject_per_s,
        full_wall,
        filt_wall,
        speedup,
        modeled_saving,
        GATE,
        args.repeats,
    );
    std::fs::write(&args.out, json).expect("write BENCH_bitvec.json");
    println!(
        "prefilter: {rejected}/{} rejected at {:.0} anchors/s; probe+filtered {speedup:.2}x vs \
         unfiltered ({:+.1}% modeled GPU)  -> {}",
        anchors.len(),
        reject_per_s,
        -modeled_saving * 100.0,
        args.out
    );

    if args.check && regression > GATE {
        eprintln!(
            "FAIL: filtered path {:.1}% slower than unfiltered y-drop (gate {:.0}%)",
            regression * 100.0,
            GATE * 100.0
        );
        std::process::exit(1);
    }
}
