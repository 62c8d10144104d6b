//! Host-throughput benchmark: work-stealing dispatch vs static chunking.
//!
//! Builds a deliberately imbalanced corpus — a handful of long 32768-bin
//! seeds clustered at the *front* of the anchor list, followed by
//! hundreds of eager-class seeds — so static chunking strands every
//! expensive problem in worker 0's home chunk while the remaining
//! workers idle. Every run goes through `run_fastz_in_pool` on a
//! `HostPool` built with the dispatch mode under test; the stealing
//! pool is the one `run_fastz` builds. The harness then:
//!
//! 1. verifies the determinism contract: the report — alignments, bin
//!    counts, work counters, and the modeled GPU time's exact bits — is
//!    identical across pool sizes ∈ {1, N} and both dispatch modes;
//! 2. measures host wall-clock for `HostDispatch::Static` against
//!    `HostDispatch::Stealing` at the same thread count (best-of-N,
//!    interleaved repeats);
//! 3. times every pool task serially with the same engine calls the
//!    pipeline issues and projects both dispatchers' critical paths
//!    (static home chunks vs the stealing dispatcher's greedy list
//!    schedule) — the speedup a host with ≥N real cores realizes.
//!
//! Results land in `BENCH_host.json`. The measured ratio is reported as
//! the headline speedup whenever the host has real parallelism; on a
//! single-core runner both modes serialize to the same total work, so
//! the critical-path projection is reported instead (and labeled as
//! such). In `--check` mode (CI smoke) the corpus shrinks and the run
//! fails if stealing *regresses* more than 10% against static chunking.

use fastz_bench::gate::{
    best_of, random_codes, report_fingerprint, timed, within, write_report, Arm, HOST_THROUGHPUT,
};
use fastz_bench::json_obj;
use fastz_core::{
    run_fastz_in_pool, warp_extend_in, FastZConfig, FastZReport, HostDispatch, HostPool, OptFlags,
    ResilienceConfig, WarpConfig,
};
use fastz_genome::{Scoring, Sequence};
use fastz_gpu_sim::{DeviceSpec, SharedMem};
use fastz_obs::NoObs;
use fastz_seed::Anchor;

/// Repeat-region length shared verbatim by target and query; heavy
/// anchors sit at its centre so both extension sides stay homologous.
const HEAVY_REGION: usize = 22_000;
/// Anchor window span handed to the pipeline.
const SEED_SPAN: usize = 16;

/// The imbalanced corpus: `heavy` 32768-bin seeds first, then `light`
/// eager-class seeds over unrelated sequence.
fn corpus(heavy: usize, light: usize) -> (Sequence, Sequence, Vec<Anchor>) {
    let light_len = 2_000 + light * 140;
    let shared: Vec<u8> = (0..HEAVY_REGION).map(|i| (i % 4) as u8).collect();
    let mut t = shared.clone();
    t.extend(random_codes(light_len, 0x7A26));
    let mut q = shared;
    q.extend(random_codes(light_len, 0x9E37));
    let mut anchors = Vec::with_capacity(heavy + light);
    for i in 0..heavy {
        let p = (HEAVY_REGION / 2 + i * 32) as u32;
        anchors.push(Anchor {
            target_pos: p,
            query_pos: p,
        });
    }
    for i in 0..light {
        let p = (HEAVY_REGION + 1_000 + i * 140) as u32;
        anchors.push(Anchor {
            target_pos: p,
            query_pos: p,
        });
    }
    (
        Sequence::from_codes("bench-target", t),
        Sequence::from_codes("bench-query", q),
        anchors,
    )
}

/// Extension depth: every heavy seed's optimal extent lands in the
/// 32768 bin (extent > 8192) without leaving the repeat region.
const MAX_EXTENSION: usize = 9_000;

fn config(threads: usize) -> FastZConfig {
    FastZConfig {
        sim_threads: threads,
        max_extension: MAX_EXTENSION,
        ..FastZConfig::new(Scoring::bench_scaled(), DeviceSpec::rtx3080_ampere())
    }
}

fn run_once(
    t: &Sequence,
    q: &Sequence,
    anchors: &[Anchor],
    threads: usize,
    dispatch: HostDispatch,
) -> FastZReport {
    let cfg = config(threads);
    std::thread::scope(|scope| {
        let pool = HostPool::new(scope, threads, &cfg.device, dispatch, cfg.sanitize);
        let rcfg = ResilienceConfig::disabled();
        run_fastz_in_pool(t, q, anchors, SEED_SPAN, &cfg, &rcfg, &mut NoObs, &pool)
    })
}

/// The (target, query) slices of one problem side — the pipeline's own
/// geometry: reversed prefixes on the left, suffixes on the right.
fn side(codes: &[u8], pos: usize, left: bool) -> Vec<u8> {
    if left {
        codes[pos.saturating_sub(MAX_EXTENSION)..pos]
            .iter()
            .rev()
            .copied()
            .collect()
    } else {
        let end = codes.len().min(pos + SEED_SPAN + MAX_EXTENSION);
        codes[pos + SEED_SPAN..end].to_vec()
    }
}

/// Serial per-task durations for both pool phases, measured with the
/// same engine calls the pipeline issues: the full inspector task list
/// (in dispatch order) and the heavy executor bin (trimmed, traceback
/// recorded into one reused buffer, like a single worker's arena).
fn measure_tasks(t: &Sequence, q: &Sequence, anchors: &[Anchor]) -> (Vec<f64>, Vec<f64>) {
    let scoring = Scoring::bench_scaled();
    let flags = OptFlags::fastz();
    let insp_cfg = WarpConfig::inspector(&flags);
    let device = DeviceSpec::rtx3080_ampere();
    let mut sm = SharedMem::for_device(&device);
    let mut tbm = Vec::new();
    let mut insp = Vec::with_capacity(anchors.len() * 2);
    let mut trims = Vec::new();
    for (idx, a) in anchors
        .iter()
        .flat_map(|a| [(0usize, a), (1usize, a)])
        .enumerate()
    {
        let (lr, a) = a;
        let ts = side(t.codes(), a.target_pos as usize, lr == 0);
        let qs = side(q.codes(), a.query_pos as usize, lr == 0);
        sm.clear();
        let (r, wall) = timed(|| warp_extend_in(&ts, &qs, &scoring, &insp_cfg, &mut sm, &mut tbm));
        insp.push(wall);
        // Sides the eager window can't resolve go to the executor.
        if r.best_i.max(r.best_j) > 16 {
            trims.push((idx, r.best_i, r.best_j));
        }
    }
    let mut exec = Vec::with_capacity(trims.len());
    for (idx, best_i, best_j) in trims {
        let a = &anchors[idx / 2];
        let lr = idx % 2;
        let ts = side(t.codes(), a.target_pos as usize, lr == 0);
        let qs = side(q.codes(), a.query_pos as usize, lr == 0);
        let cfg = WarpConfig::executor(&flags, best_i, best_j);
        sm.clear();
        exec.push(timed(|| warp_extend_in(&ts, &qs, &scoring, &cfg, &mut sm, &mut tbm)).1);
    }
    (insp, exec)
}

/// Phase critical path under static home-chunk assignment: the busiest
/// worker's share.
fn static_critical_path(durs: &[f64], workers: usize) -> f64 {
    let chunk = durs.len().div_ceil(workers);
    durs.chunks(chunk.max(1))
        .map(|c| c.iter().sum())
        .fold(0.0, f64::max)
}

/// Phase critical path under the stealing dispatcher: tasks claimed in
/// index order by whichever worker frees first (greedy list schedule).
fn stealing_critical_path(durs: &[f64], workers: usize) -> f64 {
    let mut clocks = vec![0.0f64; workers.max(1)];
    for &d in durs {
        let w = clocks
            .iter()
            .enumerate()
            .min_by(|a, b| a.1.total_cmp(b.1))
            .map(|(i, _)| i)
            .unwrap();
        clocks[w] += d;
    }
    clocks.iter().fold(0.0f64, |m, &c| m.max(c))
}

fn main() {
    let args = HOST_THROUGHPUT.from_env();
    let threads = args.get("--threads").unwrap_or(8);
    let (heavy, light) = if args.check { (4, 96) } else { (6, 250) };
    let heavy = args.get("--heavy").unwrap_or(heavy);
    let light = args.get("--light").unwrap_or(light);
    let repeats = if args.check {
        args.repeats.min(3)
    } else {
        args.repeats
    };
    let (t, q, anchors) = corpus(heavy, light);

    eprintln!(
        "host_throughput: {heavy} heavy + {light} light seeds, {threads} threads, \
         {repeats} repeats ({} mode)",
        args.mode(),
    );

    // Determinism contract first: serial static vs pooled stealing must
    // agree on every observable byte before timings mean anything.
    let (r1, serial_wall) = timed(|| run_once(&t, &q, &anchors, 1, HostDispatch::Stealing));
    let reference = report_fingerprint(&r1);
    for (threads, dispatch) in [
        (1, HostDispatch::Static),
        (threads, HostDispatch::Static),
        (threads, HostDispatch::Stealing),
    ] {
        assert_eq!(
            report_fingerprint(&run_once(&t, &q, &anchors, threads, dispatch)),
            reference,
            "report diverged at sim_threads={threads} dispatch={dispatch:?}"
        );
    }
    let heavy_bin = r1.bin_counts.bins[fastz_core::BIN_BOUNDS.len() - 1];
    assert_eq!(heavy_bin, heavy, "heavy seeds missed the 32768 bin");
    eprintln!(
        "determinism: OK (reports identical across sim_threads {{1, {threads}}} and both \
         dispatch modes; serial reference {serial_wall:.3}s)"
    );

    let walls = best_of(
        repeats,
        &mut [
            Arm::new("static", || {
                run_once(&t, &q, &anchors, threads, HostDispatch::Static)
            }),
            Arm::new("stealing", || {
                run_once(&t, &q, &anchors, threads, HostDispatch::Stealing)
            }),
        ],
        |_, _| {},
    );
    let (static_wall, pooled_wall) = (walls[0], walls[1]);
    let wall_ratio = static_wall / pooled_wall;

    // Critical-path projection from serial per-task times.
    let (insp_durs, exec_durs) = measure_tasks(&t, &q, &anchors);
    let static_cp =
        static_critical_path(&insp_durs, threads) + static_critical_path(&exec_durs, threads);
    let stealing_cp =
        stealing_critical_path(&insp_durs, threads) + stealing_critical_path(&exec_durs, threads);
    let projected = static_cp / stealing_cp;
    eprintln!(
        "critical path at {threads} workers: static {static_cp:.3}s  stealing {stealing_cp:.3}s  \
         (projected {projected:.2}x from {} inspector + {} executor task timings)",
        insp_durs.len(),
        exec_durs.len(),
    );

    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    // A single core serializes both dispatchers to the same total work,
    // so the measured wall ratio says nothing about the dispatcher; the
    // headline falls back to the projection and says so.
    let (speedup, source) = if cores > 1 {
        (wall_ratio, "measured wall-clock")
    } else {
        (projected, "critical-path projection (single-core host)")
    };
    let report = json_obj! {
        "bench" => "host_throughput",
        "mode" => args.mode(),
        "threads" => threads,
        "repeats" => repeats,
        "host_parallelism" => cores,
        "corpus" => json_obj! {
            "heavy_32768_seeds" => heavy, "eager_seeds" => light, "problems" => (heavy + light) * 2,
        },
        "measured" => json_obj! {
            "serial_wall_s" => serial_wall, "static_wall_s" => static_wall,
            "pooled_wall_s" => pooled_wall, "wall_ratio" => wall_ratio,
        },
        "projected" => json_obj! {
            "static_critical_path_s" => static_cp, "stealing_critical_path_s" => stealing_cp,
            "speedup" => projected,
            "basis" => format!(
                "greedy list schedule of measured serial per-task times at {threads} workers"
            ),
        },
        "speedup" => speedup,
        "speedup_source" => source,
        "reports_identical" => true,
        "methodology" => format!("Imbalanced corpus: {heavy} seeds whose optimal extent lands in the 32768 bin sit at the front of the anchor list over a period-4 repeat region, followed by {light} eager-class seeds over unrelated sequence, so HostDispatch::Static (per-phase contiguous chunks, one per worker) strands every expensive problem in worker 0's home chunk while HostDispatch::Stealing redistributes them. Reports (alignments, bin counts, counters, modeled-time bits) verified identical across pool sizes in {{1, {threads}}} and both dispatch modes before timing; only host wall-clock may differ. Wall-clock is best-of-{repeats} runs of run_fastz_in_pool (one pool per run, as run_fastz builds) after one warmup per mode, in rounds that alternate the two modes' order. The projection times every pool task serially with the pipeline's own engine calls and compares the busiest static home chunk against a greedy list schedule — what the stealing dispatcher executes — at {threads} workers; it is the headline figure only when the host cannot run the workers in parallel, in which case the measured ratio necessarily sits near 1.0 and the CI gate only rejects regressions (pooled > 1.10x static)."),
    };
    write_report(&args.out, &report);
    println!(
        "measured {wall_ratio:.2}x (static {static_wall:.3}s / stealing {pooled_wall:.3}s), \
         projected {projected:.2}x at {threads} workers  -> {}",
        args.out
    );

    if args.check && !within(pooled_wall, static_wall, 0.10) {
        eprintln!(
            "FAIL: stealing dispatch regressed {:.1}% vs static chunking (gate: 10%)",
            (pooled_wall / static_wall - 1.0) * 100.0
        );
        std::process::exit(1);
    }
}
