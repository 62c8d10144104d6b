//! Host-throughput benchmark: work-stealing dispatch vs static chunking.
//!
//! Builds a deliberately imbalanced corpus — a handful of long 32768-bin
//! seeds clustered at the *front* of the anchor list, followed by
//! hundreds of eager-class seeds — so the legacy static chunking strands
//! every expensive problem in worker 0's home chunk while the remaining
//! workers idle. The harness then:
//!
//! 1. verifies the determinism contract: the report — alignments, bin
//!    counts, work counters, and the modeled GPU time's exact bits — is
//!    identical across `sim_threads` ∈ {1, N} and both dispatch modes;
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

use std::time::Instant;

use fastz_bench::{args_or_exit, flag_number};
use fastz_core::{
    run_fastz, warp_extend_in, FastZConfig, FastZReport, HostDispatch, OptFlags, WarpConfig,
};
use fastz_genome::{Scoring, Sequence};
use fastz_gpu_sim::{DeviceSpec, SharedMem};
use fastz_seed::Anchor;

/// Repeat-region length shared verbatim by target and query; heavy
/// anchors sit at its centre so both extension sides stay homologous.
const HEAVY_REGION: usize = 22_000;
/// Anchor window span handed to the pipeline.
const SEED_SPAN: usize = 16;

struct Args {
    check: bool,
    threads: usize,
    repeats: usize,
    heavy: Option<usize>,
    light: Option<usize>,
    out: String,
}

const USAGE: &str = "usage: host_throughput [--check] [--threads N] [--repeats N] \
                     [--heavy N] [--light N] [--out FILE]";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        check: false,
        threads: 8,
        repeats: 5,
        heavy: None,
        light: None,
        out: "BENCH_host.json".to_string(),
    };
    let mut it = argv.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => args.check = true,
            "--threads" => args.threads = flag_number(a, it.next())?,
            "--repeats" => args.repeats = flag_number(a, it.next())?,
            "--heavy" => args.heavy = Some(flag_number(a, it.next())?),
            "--light" => args.light = Some(flag_number(a, it.next())?),
            "--out" => args.out = it.next().ok_or("--out needs a value")?.clone(),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

/// `xorshift64*` — deterministic corpus without any RNG dependency.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

fn random_codes(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| ((xorshift(&mut state) >> 33) & 3) as u8)
        .collect()
}

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

fn config(threads: usize, dispatch: HostDispatch) -> FastZConfig {
    FastZConfig {
        sim_threads: threads,
        host_dispatch: dispatch,
        max_extension: MAX_EXTENSION,
        ..FastZConfig::new(Scoring::bench_scaled(), DeviceSpec::rtx3080_ampere())
    }
}

/// Everything observable in a report except host wall-clock, as one
/// comparable string (float fields by exact bits).
fn fingerprint(r: &FastZReport) -> String {
    format!(
        "alignments={:?} bins={:?} modeled_bits={} other_bits={} stats={:?} \
         timeline={:?} ikernels={:?} ekernels={:?} alloc={:?}/{:?}",
        r.alignments,
        r.bin_counts,
        r.modeled_time_s.to_bits(),
        r.other_s.to_bits(),
        r.stats,
        r.timeline,
        r.inspector_kernels,
        r.executor_kernels,
        r.inspector_alloc_bytes,
        r.executor_alloc_bytes,
    )
}

fn run_once(
    t: &Sequence,
    q: &Sequence,
    anchors: &[Anchor],
    threads: usize,
    dispatch: HostDispatch,
) -> (FastZReport, f64) {
    let start = Instant::now();
    let report = run_fastz(t, q, anchors, SEED_SPAN, &config(threads, dispatch));
    (report, start.elapsed().as_secs_f64())
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
        let start = Instant::now();
        let r = warp_extend_in(&ts, &qs, &scoring, &insp_cfg, &mut sm, &mut tbm);
        insp.push(start.elapsed().as_secs_f64());
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
        let start = Instant::now();
        warp_extend_in(&ts, &qs, &scoring, &cfg, &mut sm, &mut tbm);
        exec.push(start.elapsed().as_secs_f64());
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
    let args = args_or_exit(parse_args, USAGE);
    let (mut heavy, mut light) = if args.check { (4, 96) } else { (6, 250) };
    heavy = args.heavy.unwrap_or(heavy);
    light = args.light.unwrap_or(light);
    let repeats = if args.check {
        args.repeats.min(3)
    } else {
        args.repeats
    };
    let (t, q, anchors) = corpus(heavy, light);

    eprintln!(
        "host_throughput: {} heavy + {} light seeds, {} threads, {} repeats{}",
        heavy,
        light,
        args.threads,
        repeats,
        if args.check { " (check mode)" } else { "" },
    );

    // Determinism contract first: serial static vs pooled stealing must
    // agree on every observable byte before timings mean anything.
    let (r1, serial_wall) = run_once(&t, &q, &anchors, 1, HostDispatch::Stealing);
    let reference = fingerprint(&r1);
    for (threads, dispatch) in [
        (1, HostDispatch::Static),
        (args.threads, HostDispatch::Static),
        (args.threads, HostDispatch::Stealing),
    ] {
        let (r, _) = run_once(&t, &q, &anchors, threads, dispatch);
        assert_eq!(
            fingerprint(&r),
            reference,
            "report diverged at sim_threads={threads} dispatch={dispatch:?}"
        );
    }
    let heavy_bin = r1.bin_counts.bins[fastz_core::BIN_BOUNDS.len() - 1];
    assert_eq!(heavy_bin, heavy, "heavy seeds missed the 32768 bin");
    eprintln!(
        "determinism: OK (reports identical across sim_threads {{1, {}}} and both dispatch \
         modes; serial reference {serial_wall:.3}s)",
        args.threads
    );

    // Interleaved best-of-N wall clock, one untimed warmup per mode.
    run_once(&t, &q, &anchors, args.threads, HostDispatch::Static);
    run_once(&t, &q, &anchors, args.threads, HostDispatch::Stealing);
    let mut static_wall = f64::INFINITY;
    let mut pooled_wall = f64::INFINITY;
    for rep in 0..repeats {
        let (_, ws) = run_once(&t, &q, &anchors, args.threads, HostDispatch::Static);
        let (_, wp) = run_once(&t, &q, &anchors, args.threads, HostDispatch::Stealing);
        static_wall = static_wall.min(ws);
        pooled_wall = pooled_wall.min(wp);
        eprintln!("  rep {rep}: static {ws:.3}s  stealing {wp:.3}s");
    }
    let wall_ratio = static_wall / pooled_wall;

    // Critical-path projection from serial per-task times.
    let (insp_durs, exec_durs) = measure_tasks(&t, &q, &anchors);
    let static_cp = static_critical_path(&insp_durs, args.threads)
        + static_critical_path(&exec_durs, args.threads);
    let stealing_cp = stealing_critical_path(&insp_durs, args.threads)
        + stealing_critical_path(&exec_durs, args.threads);
    let projected = static_cp / stealing_cp;
    eprintln!(
        "critical path at {} workers: static {static_cp:.3}s  stealing {stealing_cp:.3}s  \
         (projected {projected:.2}x from {} inspector + {} executor task timings)",
        args.threads,
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
    let json = format!(
        "{{\n  \"bench\": \"host_throughput\",\n  \"mode\": \"{}\",\n  \
         \"threads\": {},\n  \"repeats\": {},\n  \"host_parallelism\": {},\n  \
         \"corpus\": {{ \"heavy_32768_seeds\": {}, \"eager_seeds\": {}, \"problems\": {} }},\n  \
         \"measured\": {{ \"serial_wall_s\": {:.6}, \"static_wall_s\": {:.6}, \
         \"pooled_wall_s\": {:.6}, \"wall_ratio\": {:.3} }},\n  \
         \"projected\": {{ \"static_critical_path_s\": {:.6}, \
         \"stealing_critical_path_s\": {:.6}, \"speedup\": {:.3}, \
         \"basis\": \"greedy list schedule of measured serial per-task times at {} workers\" }},\n  \
         \"speedup\": {:.3},\n  \"speedup_source\": \"{}\",\n  \
         \"reports_identical\": true,\n  \
         \"methodology\": \"Imbalanced corpus: {} seeds whose optimal extent lands in the 32768 bin sit at the front of the anchor list over a period-4 repeat region, followed by {} eager-class seeds over unrelated sequence, so HostDispatch::Static (the legacy per-phase chunking, reproduced in-process by the pool) strands every expensive problem in worker 0's home chunk while HostDispatch::Stealing redistributes them. Reports (alignments, bin counts, counters, modeled-time bits) verified identical across sim_threads in {{1, {}}} and both dispatch modes before timing; only host wall-clock may differ. Wall-clock is best-of-{} interleaved runs of run_fastz after one warmup per mode. The projection times every pool task serially with the pipeline's own engine calls and compares the busiest static home chunk against a greedy list schedule — what the stealing dispatcher executes — at {} workers; it is the headline figure only when the host cannot run the workers in parallel, in which case the measured ratio necessarily sits near 1.0 and the CI gate only rejects regressions (pooled > 1.10x static).\"\n}}\n",
        if args.check { "check" } else { "full" },
        args.threads,
        repeats,
        cores,
        heavy,
        light,
        (heavy + light) * 2,
        serial_wall,
        static_wall,
        pooled_wall,
        wall_ratio,
        static_cp,
        stealing_cp,
        projected,
        args.threads,
        speedup,
        source,
        heavy,
        light,
        args.threads,
        repeats,
        args.threads,
    );
    std::fs::write(&args.out, json).expect("write BENCH_host.json");
    println!(
        "measured {wall_ratio:.2}x (static {static_wall:.3}s / stealing {pooled_wall:.3}s), \
         projected {projected:.2}x at {} workers  -> {}",
        args.threads, args.out
    );

    if args.check && pooled_wall > static_wall * 1.10 {
        eprintln!(
            "FAIL: stealing dispatch regressed {:.1}% vs static chunking (gate: 10%)",
            (pooled_wall / static_wall - 1.0) * 100.0
        );
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn flags_parse_or_report_an_error() {
        let a = parse_args(&argv(&["--check", "--threads", "3", "--heavy", "2"])).unwrap();
        assert!(a.check);
        assert_eq!((a.threads, a.heavy, a.light), (3, Some(2), None));
        for bad in [
            &["--threads"][..],
            &["--light", "-1"],
            &["--out"],
            &["--bogus"],
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }
}
