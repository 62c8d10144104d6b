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

use fastz_align::{dedupe_alignments, Alignment};
use fastz_bench::alignment_checksum;
use fastz_bench::gate::{
    at_least, best_of, homologous_workload, within, write_report, Arm, SERVE_THROUGHPUT,
};
use fastz_bench::json_obj;
use fastz_core::{run_fastz, FastZConfig};
use fastz_genome::Scoring;
use fastz_gpu_sim::DeviceSpec;
use fastz_serve::{AlignRequest, AlignService, ServeConfig};

const GATE: f64 = 0.02;

fn main() {
    let args = SERVE_THROUGHPUT.from_env();
    let n_requests = args.get("--requests").unwrap_or(12);
    let (target, query, anchors, span) = homologous_workload("serve-bench", 23);
    let cfg = FastZConfig::new(Scoring::bench_scaled(), DeviceSpec::rtx3080_ampere());
    eprintln!(
        "serve_throughput: {} anchors over {} + {} bp, {n_requests} requests, best of {}",
        anchors.len(),
        target.len(),
        query.len(),
        args.repeats,
    );

    // Quiet service sized to admit everything: admission never sheds, so
    // the only difference between the two executor columns is the
    // schedule itself.
    let mut scfg = ServeConfig::new(cfg.clone());
    scfg.admission.queue_cap = n_requests.max(scfg.admission.queue_cap);
    scfg.admission.work_budget = f64::INFINITY;
    scfg.wave = n_requests;
    let per = anchors.len().div_ceil(n_requests).max(1);
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
    let mean_bin_fill = split.bin_fills.iter().sum::<f64>() / split.bin_fills.len().max(1) as f64;
    eprintln!(
        "executor schedule: batched {:.6} s vs per-request {:.6} s ({batching_speedup:.3}x, \
         mean bin fill {mean_bin_fill:.2})",
        split.batched_exec_s, split.solo_exec_s,
    );

    // 2. Fault-free overhead: the whole corpus as ONE request through
    // the service vs plain run_fastz — a like-for-like measure of the
    // service machinery. The service must not change the modeled time.
    let single = [AlignRequest::new(0, anchors.clone(), span)];
    let solo_service = AlignService::new(&target, &query, scfg.clone());
    let walls = best_of(
        args.repeats,
        &mut [
            Arm::new("direct", || {
                run_fastz(&target, &query, &anchors, span, &cfg).modeled_time_s
            }),
            Arm::new("service", || {
                solo_service.run(&single).records[0].modeled_time_s
            }),
        ],
        |_, modeled| {
            assert_eq!(
                modeled.to_bits(),
                direct.modeled_time_s.to_bits(),
                "service changed the modeled time"
            )
        },
    );
    let (direct_wall, serve_wall) = (walls[0], walls[1]);
    let overhead = serve_wall / direct_wall - 1.0;

    let report = json_obj! {
        "bench" => "serve_throughput",
        "requests" => n_requests,
        "repeats" => args.repeats,
        "corpus" => json_obj! {
            "anchors" => anchors.len(), "target_bp" => target.len(), "query_bp" => query.len(),
        },
        "checksum" => format!("{served_sum:016x}"),
        "executor_schedule" => json_obj! {
            "batched_s" => split.batched_exec_s, "per_request_s" => split.solo_exec_s,
            "speedup" => batching_speedup,
            "merged_launches" => split.merged_launches, "mean_bin_fill" => mean_bin_fill,
        },
        "overhead" => json_obj! {
            "direct_wall_s" => direct_wall, "service_wall_s" => serve_wall,
            "fraction" => overhead, "gate" => GATE,
        },
        "methodology" => format!("Seeded 48 kbp homologous pair, {} anchors. The corpus splits into {} requests served in one wave; solo_exec_s re-times every request's own executor launches while batched_exec_s times the wave's tasks merged into shared per-bin launches (same tasks, same device model, stream-pipelined either way) — the speedup is pure schedule, results are checksum-verified against a direct run_fastz first. Overhead is best-of-{} wall clock of the whole corpus as one request through AlignService vs plain run_fastz, after one warmup each, in rounds that alternate the two sides' order, with bit-identical modeled time asserted on every run; the gate fails the run above 2%.", anchors.len(), requests.len(), args.repeats),
    };
    write_report(&args.out, &report);
    println!(
        "batched binning {batching_speedup:.2}x vs per-request dispatch; service overhead \
         {:+.2}% (gate {:.0}%)  -> {}",
        overhead * 100.0,
        GATE * 100.0,
        args.out
    );

    if !at_least(batching_speedup, 1.0) {
        eprintln!("FAIL: batched binning slower than per-request dispatch");
        std::process::exit(1);
    }
    if !within(serve_wall, direct_wall, GATE) {
        eprintln!(
            "FAIL: fault-free service overhead {:.2}% exceeds the {:.0}% gate",
            overhead * 100.0,
            GATE * 100.0
        );
        std::process::exit(1);
    }
}
