//! Multi-GPU FastZ (the paper's §6 "Multi-GPU/node extension",
//! deferred there as future work and implemented here).
//!
//! Seeds partition trivially across devices: each GPU runs the complete
//! inspector-executor pipeline on its share of the anchors, and the host
//! concatenates the alignments. Two partitioning policies are provided:
//!
//! * [`Partition::Block`] — contiguous anchor ranges (minimal host
//!   bookkeeping, but conserved regions cluster, so one device can
//!   inherit most of the long alignments);
//! * [`Partition::Strided`] — round-robin (spreads the long-alignment
//!   tail across devices; the better default, mirroring the multicore
//!   driver's layout).
//!
//! The modeled wall time is the slowest device's pipeline time plus a
//! host-side scatter/gather term; results are identical to a single-GPU
//! run by construction (asserted in tests).

use crate::pipeline::{run_fastz_observed, sim_threads, FastZConfig, FastZReport};
use crate::resilient::{ResilienceConfig, ResilienceReport};
use fastz_align::{dedupe_alignments, Alignment};
use fastz_genome::Sequence;
use fastz_gpu_sim::fault::{scope, FaultKind, FaultSite};
use fastz_gpu_sim::{DeviceSpec, PhaseTimeline};
use fastz_obs::NoObs;
use fastz_seed::Anchor;

/// Anchor partitioning policy across devices.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Partition {
    /// Contiguous blocks of the anchor list.
    Block,
    /// Round-robin striding (default).
    Strided,
}

/// Per-host-side cost of scattering anchors / gathering alignments, per
/// device (PCIe setup plus result copy).
pub const HOST_SCATTER_GATHER_S: f64 = 2.0e-4;

/// Result of a multi-GPU run.
#[derive(Clone, Debug)]
pub struct MultiGpuReport {
    /// Concatenated, deduplicated alignments (identical to a single-GPU
    /// run over the full anchor list).
    pub alignments: Vec<Alignment>,
    /// Per-device reports, in device order.
    pub per_device: Vec<FastZReport>,
    /// Modeled wall time: slowest device + host scatter/gather.
    pub modeled_time_s: f64,
    /// Slowest device index (the straggler).
    pub straggler: usize,
    /// Partitioning policy used.
    pub partition: Partition,
    /// Aggregated fault accounting across all devices, including
    /// device-loss re-dispatch (all zeros on a fault-free run).
    pub resilience: ResilienceReport,
    /// Devices lost mid-run (their unfinished anchors were re-dispatched
    /// to the survivors).
    pub lost_devices: Vec<usize>,
}

impl MultiGpuReport {
    /// Parallel efficiency versus a single device of the same type:
    /// `t_single / (n · t_multi)`.
    pub fn efficiency(&self, single_device_time_s: f64) -> f64 {
        let n = self.per_device.len() as f64;
        single_device_time_s / (n * self.modeled_time_s)
    }

    /// The combined phase timeline of the straggler (what bounds the run).
    pub fn straggler_timeline(&self) -> &PhaseTimeline {
        &self.per_device[self.straggler].timeline
    }

    /// Emits the multi-GPU summary into `sink`: per-device modeled
    /// seconds, the straggler ordinal, end-to-end modeled time, alignment
    /// count, and the aggregated fault accounting. Hand this a fresh
    /// sink — the aggregated resilience counters would double-count on
    /// top of per-device pipeline emissions.
    pub fn record_metrics<S: fastz_obs::MetricsSink>(&self, sink: &mut S) {
        use fastz_obs::names;
        for (ord, dev) in self.per_device.iter().enumerate() {
            sink.gauge_set(
                &fastz_obs::metrics::labeled(
                    names::DEVICE_MODELED_SECONDS,
                    "device",
                    &ord.to_string(),
                ),
                dev.modeled_time_s,
            );
        }
        sink.gauge_set(names::STRAGGLER_DEVICE, self.straggler as f64);
        sink.gauge_set(names::MODELED_TIME_SECONDS, self.modeled_time_s);
        sink.counter_add(names::ALIGNMENTS_TOTAL, self.alignments.len() as u64);
        self.resilience.record_into(sink);
    }
}

/// Index of the largest modeled time under [`f64::total_cmp`] — the
/// straggler ranking. `total_cmp` gives NaN a defined order (positive
/// NaN sorts greatest), so a degenerate custom [`DeviceSpec`] — e.g.
/// zero bandwidth or a zero clock, whose modeled times go infinite or
/// NaN — ranks deterministically instead of panicking the way
/// `partial_cmp().unwrap()` did. Ties keep the last index, matching the
/// old comparator on finite input.
///
/// # Panics
/// Panics on an empty iterator (the device list is never empty here).
pub fn straggler_index(times: impl Iterator<Item = f64>) -> usize {
    times
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one device")
        .0
}

/// Modeled cost of migrating one resident index shard onto a device it
/// is not already resident on (PCIe transfer + table install). The
/// rebalancer charges it per placement, which is what makes locality
/// matter: a shard stays put unless moving it buys more than this.
pub const SHARD_MOVE_COST_S: f64 = 5.0e-4;

/// A shard-to-device placement decided by [`rebalance_shards`].
#[derive(Clone, Debug, PartialEq)]
pub struct ShardSchedule {
    /// `assignments[s]` is the device shard `s` runs on.
    pub assignments: Vec<usize>,
    /// Modeled completion time per device under the placement (work
    /// scaled by device speed, plus move costs).
    pub device_load_s: Vec<f64>,
    /// The straggler device's completion time (the fleet finishes when
    /// its slowest member does).
    pub makespan_s: f64,
    /// The straggler device under the placement.
    pub straggler: usize,
    /// Shards that stayed on the device they were already resident on.
    pub reused: usize,
    /// Shards placed on a device they were not resident on (cold loads
    /// and migrations — each paid [`SHARD_MOVE_COST_S`]).
    pub moved: usize,
}

/// A device's relative throughput for seeding work, derived from its
/// spec: lanes × clock × issue efficiency, normalized so the reference
/// Ampere part is ~1. Degenerate custom specs (zero clock) yield 0.0,
/// which the rebalancer treats as "effectively unusable" rather than
/// panicking — the same philosophy as [`straggler_index`].
pub fn device_speed(spec: &DeviceSpec) -> f64 {
    let raw =
        spec.sm_count as f64 * spec.lanes_per_sm as f64 * spec.clock_ghz * spec.issue_efficiency;
    // RTX 3080 Ampere: 68 SMs × 128 lanes × 1.71 GHz × 0.294 issue eff.
    let reference = 68.0 * 128.0 * 1.71 * 0.294;
    raw / reference
}

/// Locality-aware shard rebalancer: the `total_cmp` straggler ranking
/// grown into a placement policy.
///
/// Assigns each shard (with modeled load `shard_loads[s]` seconds on a
/// unit-speed device) to one of `device_speeds.len()` devices using
/// longest-processing-time greedy: shards are placed heaviest-first,
/// each onto the device whose completion time after taking it is
/// smallest. A shard already resident on a device (per `residency`)
/// runs there free of the [`SHARD_MOVE_COST_S`] migration charge, so
/// placements prefer residency unless the load imbalance it causes
/// outweighs the move — that is the locality/balance trade SaLoBa makes.
///
/// All comparisons use `f64::total_cmp`, so NaN/infinite loads (a
/// degenerate device model) order deterministically instead of
/// panicking; ties prefer the lower device index. An empty device list
/// clamps to one unit-speed device, mirroring `partition_anchors`.
pub fn rebalance_shards(
    shard_loads: &[f64],
    device_speeds: &[f64],
    residency: &[Option<usize>],
) -> ShardSchedule {
    let fallback = [1.0f64];
    let speeds: &[f64] = if device_speeds.is_empty() {
        &fallback
    } else {
        device_speeds
    };
    let n_dev = speeds.len();
    // Heaviest shard first; ties keep the lower shard id so the
    // schedule is deterministic under equal loads.
    let mut order: Vec<usize> = (0..shard_loads.len()).collect();
    order.sort_by(|&a, &b| shard_loads[b].total_cmp(&shard_loads[a]).then(a.cmp(&b)));

    let mut assignments = vec![0usize; shard_loads.len()];
    let mut device_load_s = vec![0.0f64; n_dev];
    let mut reused = 0usize;
    let mut moved = 0usize;
    for &s in &order {
        let home = residency.get(s).copied().flatten().filter(|&d| d < n_dev);
        let mut best = 0usize;
        let mut best_t = f64::INFINITY;
        for (d, &speed) in speeds.iter().enumerate() {
            let scaled = if speed > 0.0 {
                shard_loads[s] / speed
            } else {
                f64::INFINITY
            };
            let move_cost = if home == Some(d) {
                0.0
            } else {
                SHARD_MOVE_COST_S
            };
            let t = device_load_s[d] + scaled + move_cost;
            if d == 0 || t.total_cmp(&best_t).is_lt() {
                best = d;
                best_t = t;
            }
        }
        assignments[s] = best;
        device_load_s[best] = best_t;
        if home == Some(best) {
            reused += 1;
        } else {
            moved += 1;
        }
    }

    let straggler = if n_dev == 0 {
        0
    } else {
        straggler_index(device_load_s.iter().copied())
    };
    let makespan_s = device_load_s.get(straggler).copied().unwrap_or(0.0);
    ShardSchedule {
        assignments,
        device_load_s,
        makespan_s,
        straggler,
        reused,
        moved,
    }
}

/// Splits `anchors` across `n` partitions under `policy`.
///
/// `n == 0` is a caller configuration bug, not a reason to bring a long
/// run down: it clamps to one partition.
pub fn partition_anchors(anchors: &[Anchor], n: usize, policy: Partition) -> Vec<Vec<Anchor>> {
    let n = n.max(1);
    match policy {
        Partition::Block => {
            let chunk = anchors.len().div_ceil(n).max(1);
            let mut parts: Vec<Vec<Anchor>> = anchors.chunks(chunk).map(|c| c.to_vec()).collect();
            parts.resize(n, Vec::new());
            parts
        }
        Partition::Strided => {
            let mut parts = vec![Vec::with_capacity(anchors.len() / n + 1); n];
            for (i, &a) in anchors.iter().enumerate() {
                parts[i % n].push(a);
            }
            parts
        }
    }
}

/// Runs FastZ over `devices`, partitioning the anchors by `policy`,
/// under a [`ResilienceConfig`] ([`ResilienceConfig::disabled`] for a
/// fault-free run).
///
/// Each device gets the same optimization flags and scoring from `cfg`;
/// `cfg.device` is ignored in favour of the per-device specs. Each
/// device's partition is dispatched in
/// [`ResilienceConfig::dispatch_chunks`] host-visible chunks whose
/// results are gathered as they complete. A device lost at a chunk
/// boundary keeps its completed chunks (already on the host) and its
/// unfinished anchors are re-dispatched round-robin to the surviving
/// devices — each anchor is processed exactly once, so the deduped
/// alignment set is identical to a fault-free run. At least one device
/// always survives (a loss that would orphan the whole run is not
/// applied). Checkpointing is a single-run facility; per-device runs
/// here do not checkpoint.
#[allow(clippy::too_many_arguments)]
pub fn run_fastz_multi_gpu(
    target: &Sequence,
    query: &Sequence,
    anchors: &[Anchor],
    seed_span: usize,
    cfg: &FastZConfig,
    devices: &[DeviceSpec],
    policy: Partition,
    rcfg: &ResilienceConfig,
) -> MultiGpuReport {
    // Guard (like `partition_anchors`): an empty device list clamps to
    // one device modeled from `cfg` instead of panicking.
    let fallback;
    let devices: &[DeviceSpec] = if devices.is_empty() {
        fallback = [cfg.device.clone()];
        &fallback
    } else {
        devices
    };
    let parts = partition_anchors(anchors, devices.len(), policy);

    // Device-loss schedule: probe each device's dispatch-chunk boundaries.
    let n_chunks = rcfg.dispatch_chunks.max(1);
    let mut kept: Vec<Vec<Anchor>> = Vec::with_capacity(devices.len());
    let mut orphans: Vec<Anchor> = Vec::new();
    let mut lost_devices: Vec<usize> = Vec::new();
    let mut res = ResilienceReport::default();
    for (d, part) in parts.iter().enumerate() {
        let chunk = part.len().div_ceil(n_chunks).max(1);
        let mut loss_at = None;
        if !rcfg.plan.is_none() && !part.is_empty() {
            for c in 0..part.len().div_ceil(chunk) {
                let site = FaultSite::new(d as u32, scope::DEVICE, c as u64);
                if rcfg.plan.fires(FaultKind::DeviceLoss, site, 0) {
                    loss_at = Some(c * chunk);
                    break;
                }
            }
        }
        match loss_at {
            // Last-survivor guard: a loss that would leave no device
            // alive is not applied.
            Some(at) if lost_devices.len() + 1 < devices.len() => {
                lost_devices.push(d);
                res.injected.device_losses += 1;
                res.detected.device_losses += 1;
                res.redispatched_anchors += part.len() - at;
                res.overhead_s += HOST_SCATTER_GATHER_S;
                orphans.extend(part[at..].iter().copied());
                kept.push(part[..at].to_vec());
            }
            _ => kept.push(part.clone()),
        }
    }
    res.devices_lost = lost_devices.len();
    let survivors: Vec<usize> = (0..devices.len())
        .filter(|d| !lost_devices.contains(d))
        .collect();
    for (i, a) in orphans.into_iter().enumerate() {
        kept[survivors[i % survivors.len()]].push(a);
    }

    // Devices run concurrently on host threads (each with its own share
    // of the simulation pool so the fleet does not oversubscribe the
    // host), gathered back in device order; a device thread's panic is
    // re-raised here with its original payload. Results are identical
    // to the old serial loop by the pipeline's determinism contract.
    let per_device_threads = (sim_threads(cfg) / devices.len()).max(1);
    let per_device: Vec<FastZReport> = std::thread::scope(|s| {
        let handles: Vec<_> = devices
            .iter()
            .zip(&kept)
            .enumerate()
            .map(|(d, (dev, part))| {
                let dev_cfg = FastZConfig {
                    device: dev.clone(),
                    sim_threads: per_device_threads,
                    ..cfg.clone()
                };
                let dev_rcfg = ResilienceConfig {
                    device_ord: d as u32,
                    checkpoint: None,
                    ..rcfg.clone()
                };
                s.spawn(move || {
                    run_fastz_observed(
                        target, query, part, seed_span, &dev_cfg, &dev_rcfg, &mut NoObs,
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
            .collect()
    });
    let mut alignments = Vec::new();
    for report in &per_device {
        res.merge(&report.resilience);
        alignments.extend(report.alignments.iter().cloned());
    }

    let straggler = straggler_index(per_device.iter().map(|r| r.modeled_time_s));
    let slowest = per_device[straggler].modeled_time_s;

    MultiGpuReport {
        alignments: dedupe_alignments(alignments),
        modeled_time_s: slowest
            + HOST_SCATTER_GATHER_S * devices.len() as f64
            + HOST_SCATTER_GATHER_S * lost_devices.len() as f64,
        per_device,
        straggler,
        partition: policy,
        resilience: res,
        lost_devices,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablation::OptFlags;
    use crate::pipeline::run_fastz;
    use fastz_genome::evolve::{generate_pair, PairParams};
    use fastz_genome::Scoring;
    use fastz_seed::{Workload, WorkloadParams};

    fn demo() -> (Sequence, Sequence, Vec<Anchor>, usize) {
        let pair = generate_pair(&PairParams {
            target_len: 15_000,
            query_len: 15_000,
            segments: 30,
            ..PairParams::small_demo("mgpu", 606)
        });
        let wl = Workload::build(
            &pair.target,
            &pair.query,
            &WorkloadParams {
                max_anchors: 240,
                ..WorkloadParams::default()
            },
        );
        let span = wl.shape.span();
        (pair.target, pair.query, wl.anchors, span)
    }

    fn cfg() -> FastZConfig {
        FastZConfig {
            flags: OptFlags::fastz(),
            ..FastZConfig::new(Scoring::bench_scaled(), DeviceSpec::rtx3080_ampere())
        }
    }

    #[test]
    fn partitioning_is_total_and_disjoint() {
        let anchors: Vec<Anchor> = (0..100)
            .map(|i| Anchor {
                target_pos: i,
                query_pos: i,
            })
            .collect();
        for policy in [Partition::Block, Partition::Strided] {
            let parts = partition_anchors(&anchors, 3, policy);
            assert_eq!(parts.len(), 3);
            let total: usize = parts.iter().map(|p| p.len()).sum();
            assert_eq!(total, anchors.len());
            let mut all: Vec<_> = parts.concat();
            all.sort_by_key(|a| a.target_pos);
            assert_eq!(all, anchors);
        }
    }

    #[test]
    fn zero_devices_and_zero_partitions_clamp() {
        let anchors: Vec<Anchor> = (0..10)
            .map(|i| Anchor {
                target_pos: i,
                query_pos: i,
            })
            .collect();
        let parts = partition_anchors(&anchors, 0, Partition::Strided);
        assert_eq!(parts.len(), 1);
        assert_eq!(parts[0].len(), 10);
        let (t, q, anchors, span) = demo();
        let report = run_fastz_multi_gpu(
            &t,
            &q,
            &anchors,
            span,
            &cfg(),
            &[],
            Partition::Strided,
            &ResilienceConfig::disabled(),
        );
        assert_eq!(
            report.per_device.len(),
            1,
            "empty fleet clamps to one device"
        );
        assert!(!report.alignments.is_empty());
    }

    #[test]
    fn device_loss_redispatches_and_preserves_alignments() {
        use fastz_gpu_sim::{FaultPlan, FaultRates};
        let (t, q, anchors, span) = demo();
        let single = run_fastz(&t, &q, &anchors, span, &cfg());
        let devices = vec![DeviceSpec::rtx3080_ampere(); 4];
        // Certain loss at the first chunk boundary of every device: the
        // last-survivor guard must keep exactly one alive, and that one
        // inherits every anchor.
        let plan = FaultPlan::from_seed(3).with_rates(FaultRates {
            device_loss: 1.0,
            ..FaultRates::NONE
        });
        let rcfg = ResilienceConfig::with_plan(plan);
        let multi = run_fastz_multi_gpu(
            &t,
            &q,
            &anchors,
            span,
            &cfg(),
            &devices,
            Partition::Strided,
            &rcfg,
        );
        assert_eq!(multi.lost_devices.len(), 3, "all but the last survivor die");
        assert_eq!(multi.resilience.devices_lost, 3);
        assert!(multi.resilience.redispatched_anchors > 0);
        assert_eq!(
            multi.alignments, single.alignments,
            "re-dispatch changed the alignment set"
        );
        assert!(multi.resilience.accounts_for_all_faults());

        // A drill-rate plan (partial losses) preserves the set too.
        let drill = ResilienceConfig::with_plan(FaultPlan::from_seed(9));
        let drilled = run_fastz_multi_gpu(
            &t,
            &q,
            &anchors,
            span,
            &cfg(),
            &devices,
            Partition::Strided,
            &drill,
        );
        assert_eq!(drilled.alignments, single.alignments);
        assert!(drilled.resilience.accounts_for_all_faults());
    }

    #[test]
    fn multi_gpu_matches_single_gpu_alignments() {
        let (t, q, anchors, span) = demo();
        let single = run_fastz(&t, &q, &anchors, span, &cfg());
        let devices = vec![DeviceSpec::rtx3080_ampere(); 4];
        for policy in [Partition::Block, Partition::Strided] {
            let multi = run_fastz_multi_gpu(
                &t,
                &q,
                &anchors,
                span,
                &cfg(),
                &devices,
                policy,
                &ResilienceConfig::disabled(),
            );
            assert_eq!(
                multi.alignments, single.alignments,
                "{policy:?} changed the alignments"
            );
        }
    }

    #[test]
    fn more_gpus_are_not_slower() {
        let (t, q, anchors, span) = demo();
        let one = run_fastz_multi_gpu(
            &t,
            &q,
            &anchors,
            span,
            &cfg(),
            &[DeviceSpec::rtx3080_ampere()],
            Partition::Strided,
            &ResilienceConfig::disabled(),
        );
        let four = run_fastz_multi_gpu(
            &t,
            &q,
            &anchors,
            span,
            &cfg(),
            &vec![DeviceSpec::rtx3080_ampere(); 4],
            Partition::Strided,
            &ResilienceConfig::disabled(),
        );
        // Host scatter/gather grows with device count, so compare the
        // device component.
        let one_dev = one.modeled_time_s - HOST_SCATTER_GATHER_S;
        let four_dev = four.modeled_time_s - 4.0 * HOST_SCATTER_GATHER_S;
        assert!(
            four_dev <= one_dev,
            "4 GPUs slower: {four_dev} vs {one_dev}"
        );
        assert!(four.efficiency(one_dev) <= 1.05);
    }

    #[test]
    fn strided_partitioning_balances_the_long_tail() {
        // With a long alignment cluster at the front of the anchor list,
        // block partitioning puts it all on device 0; striding spreads it.
        let (t, q, anchors, span) = demo();
        let devices = vec![DeviceSpec::rtx3080_ampere(); 4];
        let block = run_fastz_multi_gpu(
            &t,
            &q,
            &anchors,
            span,
            &cfg(),
            &devices,
            Partition::Block,
            &ResilienceConfig::disabled(),
        );
        let strided = run_fastz_multi_gpu(
            &t,
            &q,
            &anchors,
            span,
            &cfg(),
            &devices,
            Partition::Strided,
            &ResilienceConfig::disabled(),
        );
        assert!(strided.modeled_time_s <= block.modeled_time_s * 1.25);
        assert_eq!(block.alignments, strided.alignments);
    }

    #[test]
    fn straggler_ranking_handles_nan_and_infinity() {
        // `partial_cmp().unwrap()` panicked on the NaN; `total_cmp`
        // ranks it greatest (positive NaN sorts above +inf).
        assert_eq!(straggler_index([1.0, f64::NAN, 0.5].into_iter()), 1);
        assert_eq!(straggler_index([1.0, f64::INFINITY, 2.0].into_iter()), 1);
        assert_eq!(straggler_index([0.25, 0.5, 0.125].into_iter()), 1);
        // Ties keep the last index, like the old finite-input comparator.
        assert_eq!(straggler_index([3.0, 3.0].into_iter()), 1);
    }

    #[test]
    fn zero_bandwidth_device_ranks_without_panicking() {
        // A degenerate custom spec (no DRAM bandwidth, no clock) drives
        // the modeled kernel times through divisions by zero. The run
        // must complete, rank the degenerate device as the straggler,
        // and keep the alignment set intact.
        let (t, q, anchors, span) = demo();
        let broken = DeviceSpec {
            name: "degenerate",
            dram_bw_gbps: 0.0,
            clock_ghz: 0.0,
            ..DeviceSpec::rtx3080_ampere()
        };
        let devices = vec![broken, DeviceSpec::rtx3080_ampere()];
        let single = run_fastz(&t, &q, &anchors, span, &cfg());
        let multi = run_fastz_multi_gpu(
            &t,
            &q,
            &anchors,
            span,
            &cfg(),
            &devices,
            Partition::Strided,
            &ResilienceConfig::disabled(),
        );
        assert_eq!(multi.straggler, 0, "the degenerate device must straggle");
        assert!(
            !multi.modeled_time_s.is_finite(),
            "a zero-bandwidth device cannot finish in finite modeled time"
        );
        assert_eq!(multi.alignments, single.alignments);
    }

    #[test]
    fn rebalancer_balances_load_and_prefers_residency() {
        // Four equal devices, twelve equal shards, no residency: greedy
        // LPT spreads them three per device.
        let loads = vec![1.0; 12];
        let speeds = vec![1.0; 4];
        let cold = rebalance_shards(&loads, &speeds, &[None; 12]);
        assert_eq!(cold.reused, 0);
        assert_eq!(cold.moved, 12);
        for d in 0..4 {
            assert_eq!(
                cold.assignments.iter().filter(|&&a| a == d).count(),
                3,
                "device {d} shard count"
            );
        }
        // Warm pass with the cold placement as residency: every shard
        // stays home and the makespan drops by the waived move costs.
        let residency: Vec<Option<usize>> = cold.assignments.iter().map(|&d| Some(d)).collect();
        let warm = rebalance_shards(&loads, &speeds, &residency);
        assert_eq!(warm.reused, 12);
        assert_eq!(warm.moved, 0);
        assert_eq!(warm.assignments, cold.assignments);
        assert!(warm.makespan_s < cold.makespan_s);
        // A heavily skewed residency is overridden: balance beats
        // locality when one device holds everything.
        let all_on_0: Vec<Option<usize>> = vec![Some(0); 12];
        let spread = rebalance_shards(&loads, &speeds, &all_on_0);
        assert!(
            spread.moved >= 8,
            "only {} shards moved off the hot device",
            spread.moved
        );
        assert!(spread.makespan_s < 12.0 * (1.0 + SHARD_MOVE_COST_S) / 2.0);
    }

    #[test]
    fn rebalancer_scales_by_device_speed_and_survives_degenerate_specs() {
        // A device twice as fast should take roughly twice the work.
        let loads = vec![1.0; 9];
        let sched = rebalance_shards(&loads, &[2.0, 1.0], &[None; 9]);
        let fast = sched.assignments.iter().filter(|&&d| d == 0).count();
        assert!(fast >= 5, "fast device took only {fast}/9 shards");
        assert_eq!(
            sched.straggler,
            straggler_index(sched.device_load_s.iter().copied())
        );
        // Zero-speed and NaN inputs order deterministically, never panic.
        let weird = rebalance_shards(&[f64::NAN, 1.0, f64::INFINITY], &[0.0, 1.0], &[None; 3]);
        assert_eq!(weird.assignments.len(), 3);
        assert_eq!(
            weird.assignments[1], 1,
            "finite shard lands on the usable device"
        );
        // With finite loads, a zero-speed device is simply avoided.
        let avoid = rebalance_shards(&[1.0; 3], &[0.0, 1.0], &[None; 3]);
        assert!(
            avoid.assignments.iter().all(|&d| d == 1),
            "unusable device avoided"
        );
        // Empty fleet clamps to one device.
        let clamped = rebalance_shards(&[1.0, 2.0], &[], &[None, None]);
        assert!(clamped.assignments.iter().all(|&d| d == 0));
        // Speed proxy sanity: Ampere ≈ 1, Pascal slower, degenerate 0.
        assert!((device_speed(&DeviceSpec::rtx3080_ampere()) - 1.0).abs() < 0.2);
        assert!(device_speed(&DeviceSpec::titan_x_pascal()) < 1.0);
        let dead = DeviceSpec {
            clock_ghz: 0.0,
            ..DeviceSpec::rtx3080_ampere()
        };
        assert_eq!(device_speed(&dead), 0.0);
    }

    #[test]
    fn heterogeneous_devices_straggle_on_the_slowest() {
        let (t, q, anchors, span) = demo();
        let devices = vec![DeviceSpec::rtx3080_ampere(), DeviceSpec::titan_x_pascal()];
        let multi = run_fastz_multi_gpu(
            &t,
            &q,
            &anchors,
            span,
            &cfg(),
            &devices,
            Partition::Strided,
            &ResilienceConfig::disabled(),
        );
        // The straggler index reflects the slowest per-device time (which
        // partition holds the longest problem varies with the stride).
        let argmax = multi
            .per_device
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.modeled_time_s.total_cmp(&b.1.modeled_time_s))
            .unwrap()
            .0;
        assert_eq!(multi.straggler, argmax);
        assert!(multi.straggler_timeline().total() > 0.0);
        // And an all-Pascal fleet is slower than an all-Ampere fleet.
        let pascal_fleet = run_fastz_multi_gpu(
            &t,
            &q,
            &anchors,
            span,
            &cfg(),
            &vec![DeviceSpec::titan_x_pascal(); 2],
            Partition::Strided,
            &ResilienceConfig::disabled(),
        );
        let ampere_fleet = run_fastz_multi_gpu(
            &t,
            &q,
            &anchors,
            span,
            &cfg(),
            &vec![DeviceSpec::rtx3080_ampere(); 2],
            Partition::Strided,
            &ResilienceConfig::disabled(),
        );
        assert!(pascal_fleet.modeled_time_s > ampere_fleet.modeled_time_s);
    }
}
