//! Pre-filter soundness: the bitvector cheap-reject rung never changes
//! what the service aligns.
//!
//! The corpus plants garbage anchors (coordinates far off the true
//! diagonal, so seed and flanks are effectively random-vs-random) among
//! a real homologous workload. With the rung on, those anchors are
//! rejected host-side before dispatch; with the rung off, the pipeline
//! extends them and drops the sub-threshold results itself. The
//! soundness contract under test: the served alignment set is
//! *identical* either way — across `sim_threads`, under a seeded
//! [`FaultPlan`] — and the reject counts surface
//! through `obs::names` with zero-emission discipline (the series
//! exists, at zero, even when the rung is off).
//!
//! One subtlety the assertions account for: fault sites are keyed by
//! *problem index*, so removing anchors shifts the fault schedule
//! between the rung-on and rung-off runs. The retry ladder absorbs any
//! such fault exactly (warp→scalar fallbacks are bit-identical); only
//! the skip-with-record rung could change results, so both runs assert
//! `skipped_seeds` stayed empty — making alignment-set identity exactly
//! the no-false-reject claim.

use fastz_core::{FastZConfig, OptFlags, PrefilterConfig};
use fastz_genome::evolve::{generate_pair, PairParams};
use fastz_genome::{Scoring, Sequence};
use fastz_gpu_sim::{DeviceSpec, FaultPlan};
use fastz_obs::{names, Recorder};
use fastz_seed::{Anchor, Workload, WorkloadParams};
use fastz_serve::{AlignRequest, AlignService, Priority, ServeConfig};

/// Homologous workload plus planted garbage anchors. Every other
/// anchor points a real target window at an unrelated query region
/// (diagonal offset in the thousands): under `bench_scaled` scoring the
/// seed is strongly negative and both flank upper bounds hover near
/// zero, so the probe proves the anchor cannot clear
/// `gapped_threshold` — while the homologous anchors trip the
/// bitvector quick-accept tier and are always kept.
fn corpus() -> (Sequence, Sequence, Vec<Anchor>, usize, usize) {
    let pair = generate_pair(&PairParams {
        target_len: 12_000,
        query_len: 12_000,
        segments: 24,
        ..PairParams::small_demo("serve", 11)
    });
    let wl = Workload::build(
        &pair.target,
        &pair.query,
        &WorkloadParams {
            max_anchors: 96,
            ..WorkloadParams::default()
        },
    );
    let span = wl.shape.span();
    let mut anchors = Vec::new();
    let mut garbage = 0usize;
    for a in &wl.anchors {
        anchors.push(*a);
        // Same target window, query coordinate shifted far off the
        // homologous diagonal (kept in bounds with seed-span room).
        let q = (a.query_pos as usize + 4_096 + 97 * garbage) % (12_000 - 2 * span);
        anchors.push(Anchor {
            target_pos: a.target_pos,
            query_pos: q as u32,
        });
        garbage += 1;
    }
    (pair.target, pair.query, anchors, span, garbage)
}

fn pipeline_cfg(sim_threads: usize) -> FastZConfig {
    let mut cfg = FastZConfig::new(Scoring::bench_scaled(), DeviceSpec::rtx3080_ampere());
    cfg.flags = OptFlags::fastz();
    cfg.sim_threads = sim_threads;
    // The probe is conclusive only when its rectangle covers the whole
    // flank (`PrefilterConfig` docs): cap extensions at the default
    // probe size so hopeless anchors are provably hopeless.
    cfg.max_extension = 256;
    cfg
}

/// A quiet service (huge queue, no overload shedding) with the seeded
/// chaos plan: soundness must hold with faults firing, not just on the
/// happy path.
fn serve_cfg(sim_threads: usize, prefilter: bool) -> ServeConfig {
    let mut cfg =
        ServeConfig::new(pipeline_cfg(sim_threads)).with_chaos(FaultPlan::from_seed(0xB17F));
    cfg.admission.queue_cap = 1024;
    cfg.wave = 3;
    if prefilter {
        cfg = cfg.with_prefilter(PrefilterConfig::default());
    }
    cfg
}

fn requests(anchors: &[Anchor], seed_span: usize, n: usize) -> Vec<AlignRequest> {
    let per = anchors.len().div_ceil(n);
    anchors
        .chunks(per)
        .enumerate()
        .map(|(i, chunk)| {
            AlignRequest::new(i as u64, chunk.to_vec(), seed_span)
                .with_priority(Priority::ALL[i % Priority::ALL.len()])
        })
        .collect()
}

#[test]
fn prefilter_rung_never_changes_the_alignment_set() {
    let (target, query, anchors, span, garbage) = corpus();
    assert!(garbage >= 8, "corpus planted a real garbage population");
    let reqs = requests(&anchors, span, 8);

    // Rung off: the reference alignment set, with the same chaos seed.
    let off = AlignService::new(&target, &query, serve_cfg(2, false)).run(&reqs);
    assert_eq!(off.prefilter_probed, 0, "rung off probes nothing");
    assert_eq!(off.prefilter_rejected, 0);
    assert!(
        off.resilience.skipped_seeds.is_empty(),
        "skip rung must stay quiet for set identity to be the soundness claim"
    );
    assert!(off.records.iter().all(|r| r.outcome.served()));
    assert!(off.records.iter().all(|r| r.prefiltered == 0));

    let mut base: Option<fastz_serve::ServeReport> = None;
    for threads in [1, 2, 3] {
        let on = AlignService::new(&target, &query, serve_cfg(threads, true)).run(&reqs);

        // The rung actually fired: every dispatched anchor was probed
        // and the garbage population was rejected.
        assert_eq!(on.prefilter_probed, anchors.len() as u64);
        assert!(
            on.prefilter_rejected >= garbage as u64,
            "rejected {} of {} planted garbage anchors",
            on.prefilter_rejected,
            garbage
        );
        assert!(on.resilience.skipped_seeds.is_empty());
        let recorded: usize = on.records.iter().map(|r| r.prefiltered).sum();
        assert_eq!(
            recorded as u64, on.prefilter_rejected,
            "per-request records sum up"
        );

        // No false rejects: every request's alignments are identical to
        // the rung-off run's.
        assert_eq!(on.records.len(), off.records.len());
        for r in &on.records {
            let o = off
                .records
                .iter()
                .find(|x| x.id == r.id)
                .expect("same request population");
            assert_eq!(r.alignments, o.alignments, "request {} alignment set", r.id);
        }

        // And the rung-on runs are bit-identical among themselves,
        // across sim_threads.
        match &base {
            None => base = Some(on),
            Some(b) => {
                assert_eq!(on.records.len(), b.records.len());
                for (a, c) in on.records.iter().zip(&b.records) {
                    assert_eq!(a.id, c.id);
                    assert_eq!(a.outcome, c.outcome);
                    assert_eq!(a.alignments, c.alignments);
                    assert_eq!(a.prefiltered, c.prefiltered);
                    assert_eq!(a.modeled_time_s.to_bits(), c.modeled_time_s.to_bits());
                }
                assert_eq!(on.prefilter_rejected, b.prefilter_rejected);
                assert_eq!(on.makespan_s.to_bits(), b.makespan_s.to_bits());
            }
        }
    }

    // The rung is an optimization, not a no-op: rejecting hopeless
    // anchors strictly reduced modeled GPU time.
    let on = base.expect("three rung-on runs completed");
    assert!(
        on.makespan_s < off.makespan_s,
        "prefilter saved modeled time: {} vs {}",
        on.makespan_s,
        off.makespan_s
    );
}

#[test]
fn prefilter_counters_surface_with_zero_emission_discipline() {
    let (target, query, anchors, span, _) = corpus();
    let reqs = requests(&anchors, span, 6);

    // Rung off: both series are still emitted — at zero — so the
    // exported metric set never depends on configuration.
    let mut quiet = Recorder::new();
    AlignService::new(&target, &query, serve_cfg(2, false)).run_observed(&reqs, &mut quiet);
    assert_eq!(
        quiet.registry.counter(names::SERVE_PREFILTER_PROBED_TOTAL),
        Some(0)
    );
    assert_eq!(
        quiet
            .registry
            .counter(names::SERVE_PREFILTER_REJECTED_TOTAL),
        Some(0)
    );

    // Rung on: the counters carry the report's exact tallies.
    let mut rec = Recorder::new();
    let report =
        AlignService::new(&target, &query, serve_cfg(2, true)).run_observed(&reqs, &mut rec);
    assert!(report.prefilter_rejected > 0);
    assert_eq!(
        rec.registry.counter(names::SERVE_PREFILTER_PROBED_TOTAL),
        Some(report.prefilter_probed)
    );
    assert_eq!(
        rec.registry.counter(names::SERVE_PREFILTER_REJECTED_TOTAL),
        Some(report.prefilter_rejected)
    );
}
