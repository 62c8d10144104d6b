//! Multi-GPU FastZ (the paper's §6 "Multi-GPU/node extension",
//! deferred there as future work and implemented here).
//!
//! Seeds partition trivially across devices: each GPU runs the complete
//! inspector-executor pipeline on its share of the anchors, and the host
//! concatenates the alignments. Anchors are strided round-robin across
//! devices: conserved regions cluster in the anchor list, so striding
//! spreads their long-alignment tail instead of handing it to one
//! device (the multicore driver's layout).
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

/// Strides `anchors` round-robin across `n` partitions: anchor `i`
/// goes to partition `i % n`.
///
/// `n == 0` is a caller configuration bug, not a reason to bring a long
/// run down: it clamps to one partition.
pub fn partition_anchors(anchors: &[Anchor], n: usize) -> Vec<Vec<Anchor>> {
    let n = n.max(1);
    let mut parts = vec![Vec::with_capacity(anchors.len() / n + 1); n];
    for (i, &a) in anchors.iter().enumerate() {
        parts[i % n].push(a);
    }
    parts
}

/// Runs FastZ over `devices`, striding the anchors across them, under a [`ResilienceConfig`] ([`ResilienceConfig::disabled`] for a
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
pub fn run_fastz_multi_gpu(
    target: &Sequence,
    query: &Sequence,
    anchors: &[Anchor],
    seed_span: usize,
    cfg: &FastZConfig,
    devices: &[DeviceSpec],
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
    let parts = partition_anchors(anchors, devices.len());

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
        let parts = partition_anchors(&anchors, 3);
        assert_eq!(parts.len(), 3);
        let total: usize = parts.iter().map(|p| p.len()).sum();
        assert_eq!(total, anchors.len());
        let mut all: Vec<_> = parts.concat();
        all.sort_by_key(|a| a.target_pos);
        assert_eq!(all, anchors);
    }

    #[test]
    fn zero_devices_and_zero_partitions_clamp() {
        let anchors: Vec<Anchor> = (0..10)
            .map(|i| Anchor {
                target_pos: i,
                query_pos: i,
            })
            .collect();
        let parts = partition_anchors(&anchors, 0);
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
        let multi = run_fastz_multi_gpu(&t, &q, &anchors, span, &cfg(), &devices, &rcfg);
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
        let drilled = run_fastz_multi_gpu(&t, &q, &anchors, span, &cfg(), &devices, &drill);
        assert_eq!(drilled.alignments, single.alignments);
        assert!(drilled.resilience.accounts_for_all_faults());
    }

    #[test]
    fn multi_gpu_matches_single_gpu_alignments() {
        let (t, q, anchors, span) = demo();
        let single = run_fastz(&t, &q, &anchors, span, &cfg());
        let devices = vec![DeviceSpec::rtx3080_ampere(); 4];
        let multi = run_fastz_multi_gpu(
            &t,
            &q,
            &anchors,
            span,
            &cfg(),
            &devices,
            &ResilienceConfig::disabled(),
        );
        assert_eq!(multi.alignments, single.alignments);
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
            &ResilienceConfig::disabled(),
        );
        let four = run_fastz_multi_gpu(
            &t,
            &q,
            &anchors,
            span,
            &cfg(),
            &vec![DeviceSpec::rtx3080_ampere(); 4],
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
            &ResilienceConfig::disabled(),
        );
        let ampere_fleet = run_fastz_multi_gpu(
            &t,
            &q,
            &anchors,
            span,
            &cfg(),
            &vec![DeviceSpec::rtx3080_ampere(); 2],
            &ResilienceConfig::disabled(),
        );
        assert!(pascal_fleet.modeled_time_s > ampere_fleet.modeled_time_s);
    }
}
