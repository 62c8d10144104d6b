//! Service-throughput benchmark: cross-request batched binning vs
//! per-request dispatch, plus the fault-free service overhead gate.
//!
//! Three measurements over one seeded corpus:
//!
//! 1. **Batched vs per-request executor schedule** — the corpus splits
//!    into many small requests whose individual bin launches are ragged
//!    (each request strands a handful of tasks per length bin). The
//!    service's [`ServeReport`] carries both modeled executor times:
//!    `solo_exec_s` (every request dispatching its own launches) and
//!    `batched_exec_s` (the wave's tasks merged into shared per-bin
//!    launches). Batching must win — the run fails otherwise.
//! 2. **Fault-free service overhead** — one request holding the whole
//!    corpus through [`AlignService`] vs the same corpus through plain
//!    `run_fastz`, best-of-N host wall clock. The service machinery
//!    (queue, virtual clock, bin packer, wave timing) must cost ≤ 2%.
//! 3. **Checksum verification** — the deduped union of the served
//!    requests' alignments must checksum-match the direct run before
//!    any timing is reported.
//!
//! Results land in `BENCH_serve.json`.

use std::time::Instant;

use fastz_align::{dedupe_alignments, Alignment};
use fastz_bench::alignment_checksum;
use fastz_core::{run_fastz, FastZConfig};
use fastz_genome::evolve::{generate_pair, PairParams};
use fastz_genome::{Scoring, Sequence};
use fastz_gpu_sim::DeviceSpec;
use fastz_seed::{Anchor, Workload, WorkloadParams};
use fastz_serve::{AlignRequest, AlignService, ServeConfig};

const GATE: f64 = 0.02;

struct Args {
    repeats: usize,
    requests: usize,
    out: String,
}

fn parse_args() -> Args {
    let mut args = Args {
        repeats: 5,
        requests: 12,
        out: "BENCH_serve.json".to_string(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut grab = || it.next().unwrap_or_else(|| panic!("{a} needs a value"));
        match a.as_str() {
            "--repeats" => args.repeats = grab().parse().expect("--repeats"),
            "--requests" => args.requests = grab().parse().expect("--requests"),
            "--out" => args.out = grab(),
            other => panic!("unknown argument {other} (see --repeats/--requests/--out)"),
        }
    }
    args
}

fn corpus() -> (Sequence, Sequence, Vec<Anchor>, usize) {
    let pair = generate_pair(&PairParams {
        target_len: 48_000,
        query_len: 48_000,
        segments: 96,
        ..PairParams::small_demo("serve-bench", 23)
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
    (pair.target, pair.query, wl.anchors, span)
}

fn main() {
    let args = parse_args();
    let (target, query, anchors, span) = corpus();
    let cfg = FastZConfig::new(Scoring::bench_scaled(), DeviceSpec::rtx3080_ampere());
    eprintln!(
        "serve_throughput: {} anchors over {} + {} bp, {} requests, best of {}",
        anchors.len(),
        target.len(),
        query.len(),
        args.requests,
        args.repeats,
    );

    // Quiet service sized to admit everything: admission never sheds, so
    // the only difference between the two executor columns is the
    // schedule itself.
    let mut scfg = ServeConfig::new(cfg.clone());
    scfg.admission.queue_cap = args.requests.max(scfg.admission.queue_cap);
    scfg.admission.work_budget = f64::INFINITY;
    scfg.wave = args.requests.max(1);
    let per = anchors.len().div_ceil(args.requests).max(1);
    let requests: Vec<AlignRequest> = anchors
        .chunks(per)
        .enumerate()
        .map(|(i, chunk)| AlignRequest::new(i as u64, chunk.to_vec(), span))
        .collect();

    // Checksum first: timing a service that loses or perturbs results
    // would be meaningless.
    let direct = run_fastz(&target, &query, &anchors, span, &cfg);
    let service = AlignService::new(&target, &query, scfg.clone());
    let split = service.run(&requests);
    assert_eq!(split.records.len(), requests.len(), "no request lost");
    let union: Vec<Alignment> = split
        .records
        .iter()
        .flat_map(|r| r.alignments.iter().cloned())
        .collect();
    let served_sum = alignment_checksum(&dedupe_alignments(union));
    let direct_sum = alignment_checksum(&dedupe_alignments(direct.alignments.clone()));
    assert_eq!(
        served_sum, direct_sum,
        "served alignments diverged from the direct run"
    );
    eprintln!(
        "checksum: OK ({served_sum:016x}, {} merged launches)",
        split.merged_launches
    );

    // 1. Modeled executor schedule: merged cross-request launches vs
    // every request dispatching its own ragged launches. Deterministic —
    // one run is exact.
    let batching_speedup = split.solo_exec_s / split.batched_exec_s;
    eprintln!(
        "executor schedule: batched {:.6} s vs per-request {:.6} s ({batching_speedup:.3}x, \
         mean bin fill {:.2})",
        split.batched_exec_s,
        split.solo_exec_s,
        split.bin_fills.iter().sum::<f64>() / split.bin_fills.len().max(1) as f64,
    );

    // 2. Fault-free overhead: the whole corpus as ONE request through
    // the service vs plain run_fastz — a like-for-like measure of the
    // service machinery. Best-of-N min damps scheduler noise; one
    // untimed warmup per side.
    let single = [AlignRequest::new(0, anchors.clone(), span)];
    let solo_service = AlignService::new(&target, &query, scfg.clone());
    run_fastz(&target, &query, &anchors, span, &cfg);
    solo_service.run(&single);
    let mut direct_wall = f64::INFINITY;
    let mut serve_wall = f64::INFINITY;
    for rep in 0..args.repeats.max(1) {
        let t0 = Instant::now();
        let d = run_fastz(&target, &query, &anchors, span, &cfg);
        let wd = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let s = solo_service.run(&single);
        let ws = t1.elapsed().as_secs_f64();
        assert_eq!(
            d.modeled_time_s.to_bits(),
            s.records[0].modeled_time_s.to_bits(),
            "service changed the modeled time"
        );
        direct_wall = direct_wall.min(wd);
        serve_wall = serve_wall.min(ws);
        eprintln!("  rep {rep}: direct {wd:.3}s  service {ws:.3}s");
    }
    let overhead = serve_wall / direct_wall - 1.0;

    let json = format!(
        "{{\n  \"bench\": \"serve_throughput\",\n  \"requests\": {},\n  \"repeats\": {},\n  \
         \"corpus\": {{ \"anchors\": {}, \"target_bp\": {}, \"query_bp\": {} }},\n  \
         \"checksum\": \"{:016x}\",\n  \
         \"executor_schedule\": {{ \"batched_s\": {:.9}, \"per_request_s\": {:.9}, \
         \"speedup\": {:.4}, \"merged_launches\": {}, \"mean_bin_fill\": {:.4} }},\n  \
         \"overhead\": {{ \"direct_wall_s\": {:.6}, \"service_wall_s\": {:.6}, \
         \"fraction\": {:.5}, \"gate\": {:.2} }},\n  \
         \"methodology\": \"Seeded 48 kbp homologous pair, {} anchors. The corpus splits into {} requests served in one wave; solo_exec_s re-times every request's own executor launches while batched_exec_s times the wave's tasks merged into shared per-bin launches (same tasks, same device model, stream-pipelined either way) — the speedup is pure schedule, results are checksum-verified against a direct run_fastz first. Overhead is best-of-{} wall clock of the whole corpus as one request through AlignService vs plain run_fastz, with bit-identical modeled time asserted every repeat; the gate fails the run above 2%.\"\n}}\n",
        args.requests,
        args.repeats,
        anchors.len(),
        target.len(),
        query.len(),
        served_sum,
        split.batched_exec_s,
        split.solo_exec_s,
        batching_speedup,
        split.merged_launches,
        split.bin_fills.iter().sum::<f64>() / split.bin_fills.len().max(1) as f64,
        direct_wall,
        serve_wall,
        overhead,
        GATE,
        anchors.len(),
        requests.len(),
        args.repeats,
    );
    std::fs::write(&args.out, json).expect("write BENCH_serve.json");
    println!(
        "batched binning {batching_speedup:.2}x vs per-request dispatch; service overhead \
         {:+.2}% (gate {:.0}%)  -> {}",
        overhead * 100.0,
        GATE * 100.0,
        args.out
    );

    if batching_speedup < 1.0 {
        eprintln!("FAIL: batched binning slower than per-request dispatch");
        std::process::exit(1);
    }
    if overhead > GATE {
        eprintln!(
            "FAIL: fault-free service overhead {:.2}% exceeds the {:.0}% gate",
            overhead * 100.0,
            GATE * 100.0
        );
        std::process::exit(1);
    }
}
