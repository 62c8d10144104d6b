//! Stable metric and span names.
//!
//! Exporters, golden fixtures, CI gates, and the conformance drill all
//! key on these strings; treat them as a public wire format and never
//! rename without regenerating the fixtures.

use crate::metrics::labeled;

// ---------------------------------------------------------------------------
// Span names (the phase-scoped timeline)
// ---------------------------------------------------------------------------

/// Inspector phase span.
pub const SPAN_INSPECTOR: &str = "inspector";
/// Eager-traceback sub-span (inside the inspector).
pub const SPAN_EAGER_TRACEBACK: &str = "eager_traceback";
/// Stream launch/dispatch overhead span.
pub const SPAN_STREAM_DISPATCH: &str = "stream_dispatch";
/// Fault-recovery overhead span (absent on fault-free runs).
pub const SPAN_RESILIENT_RETRY: &str = "resilient_retry";
/// Host-side "other" span (copies, sorting, bookkeeping).
pub const SPAN_OTHER: &str = "other";

/// Executor-bin span name for an executor slot's upper bound
/// (`None` = the overflow class beyond the largest bin).
pub fn executor_bin_span(bound: Option<usize>) -> &'static str {
    match bound {
        Some(512) => "executor_bin512",
        Some(2048) => "executor_bin2048",
        Some(8192) => "executor_bin8192",
        Some(32768) => "executor_bin32768",
        None => "executor_bin_overflow",
        Some(other) => panic!("no executor bin with bound {other}"),
    }
}

// ---------------------------------------------------------------------------
// Counter names (semantic — engine- and timing-invariant)
// ---------------------------------------------------------------------------

/// Seed anchors processed.
pub const SEEDS_TOTAL: &str = "fastz_seeds_total";
/// One-sided extension problems (2 per seed).
pub const PROBLEMS_TOTAL: &str = "fastz_problems_total";
/// Problems finished by eager traceback in the inspector.
pub const EAGER_RESOLVED_TOTAL: &str = "fastz_eager_resolved_total";
/// Problems that required the executor.
pub const EXECUTOR_PROBLEMS_TOTAL: &str = "fastz_executor_problems_total";
/// Alignments emitted after dedup and thresholding.
pub const ALIGNMENTS_TOTAL: &str = "fastz_alignments_total";
/// Per-bin seed counts; label `bin` ∈ eager|512|2048|8192|32768|overflow.
pub const BIN_SEEDS_TOTAL: &str = "fastz_bin_seeds_total";

/// Bitvector-backend windows processed (zero under y-drop).
pub const BITVEC_WINDOWS_TOTAL: &str = "fastz_bitvec_windows_total";
/// Scrooge SENE events: columns skipped after an all-dead column plus
/// windows abandoned without a live end-bit candidate.
pub const BITVEC_SENE_SKIPS_TOTAL: &str = "fastz_bitvec_sene_skips_total";
/// Scrooge DENT events: all-dead traceback rows never stored.
pub const BITVEC_DENT_DISCARDS_TOTAL: &str = "fastz_bitvec_dent_discards_total";

/// Per-phase work counters (label `phase` ∈ inspector|executor).
pub const CELLS_TOTAL: &str = "fastz_cells_total";
/// Wavefront steps (see [`CELLS_TOTAL`] for labeling).
pub const STEPS_TOTAL: &str = "fastz_steps_total";
/// Scalar ALU operations.
pub const ALU_OPS_TOTAL: &str = "fastz_alu_ops_total";
/// Steps with at least one divergent branch.
pub const DIVERGENT_STEPS_TOTAL: &str = "fastz_divergent_steps_total";
/// Bytes read from global memory.
pub const GLOBAL_READ_BYTES_TOTAL: &str = "fastz_global_read_bytes_total";
/// Bytes written to global memory.
pub const GLOBAL_WRITTEN_BYTES_TOTAL: &str = "fastz_global_written_bytes_total";
/// Bytes moved through shared memory (elided DRAM traffic).
pub const SHARED_BYTES_TOTAL: &str = "fastz_shared_bytes_total";
/// Warp shuffle operations.
pub const SHUFFLES_TOTAL: &str = "fastz_shuffles_total";
/// Sequential single-lane operations (traceback walks).
pub const SCALAR_OPS_TOTAL: &str = "fastz_scalar_ops_total";
/// Warp tasks priced into the timing model.
pub const WARP_TASKS_TOTAL: &str = "fastz_warp_tasks_total";

/// Fault accounting; labels `class` ∈ injected|detected|tolerated and
/// `kind` (a `FaultKind::name()` string, e.g. `bit-flip`).
pub const FAULTS_TOTAL: &str = "fastz_faults_total";
/// Kernel relaunches plus problem re-runs.
pub const RETRIES_TOTAL: &str = "fastz_retries_total";
/// Problems degraded from the warp engine to the scalar path.
pub const FALLBACKS_TOTAL: &str = "fastz_fallbacks_total";
/// Seeds dropped by the skip-with-record rung.
pub const SKIPPED_SEEDS_TOTAL: &str = "fastz_skipped_seeds_total";
/// Checkpoint files written.
pub const CHECKPOINTS_WRITTEN_TOTAL: &str = "fastz_checkpoints_written_total";
/// Checkpoints found on disk but rejected (torn file, foreign
/// fingerprint) instead of resumed from.
pub const CHECKPOINTS_REJECTED_TOTAL: &str = "fastz_checkpoints_rejected_total";
/// Problems restored from a checkpoint.
pub const RESTORED_PROBLEMS_TOTAL: &str = "fastz_restored_problems_total";
/// Anchors re-run on a replacement after a service-scope device loss.
pub const REDISPATCHED_ANCHORS_TOTAL: &str = "fastz_redispatched_anchors_total";
/// Devices lost mid-run (service chaos mode).
pub const DEVICES_LOST_TOTAL: &str = "fastz_devices_lost_total";

// ---------------------------------------------------------------------------
// Gauge names (timing- and model-derived; engine-variant)
// ---------------------------------------------------------------------------

/// Modeled end-to-end GPU time in seconds.
pub const MODELED_TIME_SECONDS: &str = "fastz_modeled_time_seconds";
/// Per-phase modeled seconds; label `phase` names a Figure 8 phase.
pub const PHASE_SECONDS: &str = "fastz_phase_seconds";
/// Eager-traceback hit rate ∈ [0, 1].
pub const EAGER_HIT_RATIO: &str = "fastz_eager_hit_ratio";
/// Fraction of would-be DRAM traffic elided by cyclic register
/// buffering (shared bytes over shared + global) — the paper's ≥96 %.
pub const GLOBAL_TRAFFIC_ELISION_RATIO: &str = "fastz_global_traffic_elision_ratio";
/// Roofline operational intensity (label `phase`), ops/byte.
pub const ROOFLINE_INTENSITY: &str = "fastz_roofline_intensity";
/// Divergence-derated roofline threshold, ops/byte.
pub const ROOFLINE_DERATED_THRESHOLD: &str = "fastz_roofline_derated_threshold";
/// 1.0 when the phase is compute-bound, 0.0 when memory-bound
/// (label `phase`).
pub const ROOFLINE_COMPUTE_BOUND: &str = "fastz_roofline_compute_bound";
/// Pipeline compute component in seconds (label `phase`).
pub const PIPELINE_COMPUTE_SECONDS: &str = "fastz_pipeline_compute_seconds";
/// Pipeline DRAM component in seconds (label `phase`).
pub const PIPELINE_MEMORY_SECONDS: &str = "fastz_pipeline_memory_seconds";
/// Pipeline launch overhead in seconds (label `phase`).
pub const PIPELINE_LAUNCH_SECONDS: &str = "fastz_pipeline_launch_seconds";

// ---------------------------------------------------------------------------
// Host execution pool (wall-clock-side telemetry; the modeled GPU time
// is invariant to all of it)
// ---------------------------------------------------------------------------

/// Worker threads in the host execution pool.
pub const POOL_WORKERS: &str = "fastz_pool_workers";
/// Phases dispatched onto the pool.
pub const POOL_PHASES_TOTAL: &str = "fastz_pool_phases_total";
/// Problems executed by the pool.
pub const POOL_TASKS_TOTAL: &str = "fastz_pool_tasks_total";
/// Problem claims outside the claiming worker's home chunk.
pub const POOL_STEALS_TOTAL: &str = "fastz_pool_steals_total";
/// Fraction of worker-phase slots that ran at least one task, in [0, 1].
pub const POOL_OCCUPANCY_RATIO: &str = "fastz_pool_occupancy_ratio";
/// Arena traceback leases served without reallocating.
pub const ARENA_TB_HITS_TOTAL: &str = "fastz_arena_tb_hits_total";
/// Arena traceback leases that grew the buffer.
pub const ARENA_TB_MISSES_TOTAL: &str = "fastz_arena_tb_misses_total";
/// Modeled per-SM shared-memory capacity in bytes (from the device
/// spec — 131072 on the RTX 3080, 98304 on the paper's Pascal/Volta).
pub const SHARED_CAPACITY_BYTES: &str = "fastz_shared_capacity_bytes";

// ---------------------------------------------------------------------------
// Sanitizer (labels: kind = finding class, phase = pipeline phase).
// All series are emitted on every observed run — zeros when the
// sanitizer is off — so the exported series set never depends on
// configuration.
// ---------------------------------------------------------------------------

/// Sanitizer findings by class (label `kind`: `uninit_read`,
/// `oob_read`, `raw_hazard`, `war_hazard`, `bank_conflict`,
/// `ballot_inactive_lane`, `divergence_depth`).
pub const SANITIZE_FINDINGS_TOTAL: &str = "fastz_sanitize_findings_total";
/// Shared-memory reads observed by the sanitizer.
pub const SANITIZE_SHARED_READS_TOTAL: &str = "fastz_sanitize_shared_reads_total";
/// Shared-memory writes observed by the sanitizer.
pub const SANITIZE_SHARED_WRITES_TOTAL: &str = "fastz_sanitize_shared_writes_total";
/// Kernel-stage barriers observed by the sanitizer.
pub const SANITIZE_BARRIERS_TOTAL: &str = "fastz_sanitize_barriers_total";
/// Warp-step access groups with a multi-word bank collision (label
/// `phase`).
pub const BANK_CONFLICTS_TOTAL: &str = "fastz_bank_conflicts_total";
/// Extra serialized shared-memory passes, Σ over banks of (words − 1)
/// (label `phase`).
pub const BANK_SERIALIZED_TOTAL: &str = "fastz_bank_serialized_passes_total";
/// Worst n-way bank conflict observed (label `phase`).
pub const BANK_MAX_WAYS: &str = "fastz_bank_conflict_max_ways";
/// Roofline view of bank pressure: extra serialized passes per access
/// group — 0.0 is conflict-free tiling (label `phase`).
pub const BANK_SERIALIZATION_RATIO: &str = "fastz_roofline_bank_serialization_ratio";

// ---------------------------------------------------------------------------
// Alignment service (`fastz-serve`). All series are emitted on every
// service run — zeros when a class never fired — so the exported set
// never depends on traffic shape (zero-emission discipline).
// ---------------------------------------------------------------------------

/// Requests waiting in the admission queue (gauge, sampled at each
/// scheduler step; the exported value is the final depth).
pub const SERVE_QUEUE_DEPTH: &str = "fastz_serve_queue_depth";
/// Peak queue depth observed over the run.
pub const SERVE_QUEUE_DEPTH_PEAK: &str = "fastz_serve_queue_depth_peak";
/// Requests admitted past admission control (label `priority`).
pub const SERVE_ADMITTED_TOTAL: &str = "fastz_serve_admitted_total";
/// Requests shed — rejected at admission or dropped under overload
/// (labels `priority`, `reason` ∈ queue-full|budget|overload|bad-anchor).
pub const SERVE_SHED_TOTAL: &str = "fastz_serve_shed_total";
/// Admitted requests whose deadline expired before completion
/// (label `priority`).
pub const SERVE_DEADLINE_MISSED_TOTAL: &str = "fastz_serve_deadline_missed_total";
/// Admitted requests completed at full fidelity (label `priority`).
pub const SERVE_COMPLETED_TOTAL: &str = "fastz_serve_completed_total";
/// Admitted requests served degraded — scalar path or skip-with-record
/// under overload/faults (label `priority`).
pub const SERVE_DEGRADED_TOTAL: &str = "fastz_serve_degraded_total";
/// Cross-request merged executor launches formed by the bin packer.
pub const SERVE_MERGED_LAUNCHES_TOTAL: &str = "fastz_serve_merged_launches_total";

/// Fill ratio of cross-request merged bin launches (occupied warp slots
/// over batch capacity), one observation per merged launch.
pub const SERVE_BIN_FILL_HIST: &str = "fastz_serve_bin_fill_ratio";
/// Bucket bounds for [`SERVE_BIN_FILL_HIST`] (fractions of a full bin).
pub const SERVE_BIN_FILL_BUCKETS: [f64; 5] = [0.25, 0.5, 0.75, 0.9, 1.0];

// ---------------------------------------------------------------------------
// Histograms
// ---------------------------------------------------------------------------

/// Per-seed optimal extent histogram (buckets mirror the executor
/// bins: eager ≤16, then 512/2048/8192/32768, +Inf = overflow).
pub const SEED_EXTENT_HIST: &str = "fastz_seed_extent";
/// Bucket bounds for [`SEED_EXTENT_HIST`].
pub const SEED_EXTENT_BUCKETS: [f64; 5] = [16.0, 512.0, 2048.0, 8192.0, 32768.0];

/// Per-problem modeled task cycles, inspector phase.
pub const TASK_CYCLES_INSPECTOR_HIST: &str = "fastz_task_cycles{phase=\"inspector\"}";
/// Per-problem modeled task cycles, executor phase.
pub const TASK_CYCLES_EXECUTOR_HIST: &str = "fastz_task_cycles{phase=\"executor\"}";
/// Bucket bounds for the task-cycle histograms (decades).
pub const TASK_CYCLES_BUCKETS: [f64; 6] = [1e2, 1e3, 1e4, 1e5, 1e6, 1e7];

// ---------------------------------------------------------------------------
// Registry slices. `fastz-lint` (metric-name-registry) holds `ALL` in
// one-to-one correspondence with the declared consts above; the obs
// registry test holds `PIPELINE` to the golden fixture's base-series
// set and `ALL` to the disjoint union of the partitions. Adding a
// metric means adding it here (and to its partition) or the lint gate
// fails the build.
// ---------------------------------------------------------------------------

/// Every series of one observed pipeline run — the golden fixture's
/// base-series set (`fastz_task_cycles` appears once per phase label).
pub const PIPELINE: &[&str] = &[
    SEEDS_TOTAL,
    PROBLEMS_TOTAL,
    EAGER_RESOLVED_TOTAL,
    EXECUTOR_PROBLEMS_TOTAL,
    ALIGNMENTS_TOTAL,
    BIN_SEEDS_TOTAL,
    BITVEC_WINDOWS_TOTAL,
    BITVEC_SENE_SKIPS_TOTAL,
    BITVEC_DENT_DISCARDS_TOTAL,
    CELLS_TOTAL,
    STEPS_TOTAL,
    ALU_OPS_TOTAL,
    DIVERGENT_STEPS_TOTAL,
    GLOBAL_READ_BYTES_TOTAL,
    GLOBAL_WRITTEN_BYTES_TOTAL,
    SHARED_BYTES_TOTAL,
    SHUFFLES_TOTAL,
    SCALAR_OPS_TOTAL,
    WARP_TASKS_TOTAL,
    FAULTS_TOTAL,
    RETRIES_TOTAL,
    FALLBACKS_TOTAL,
    SKIPPED_SEEDS_TOTAL,
    CHECKPOINTS_WRITTEN_TOTAL,
    CHECKPOINTS_REJECTED_TOTAL,
    RESTORED_PROBLEMS_TOTAL,
    REDISPATCHED_ANCHORS_TOTAL,
    DEVICES_LOST_TOTAL,
    MODELED_TIME_SECONDS,
    PHASE_SECONDS,
    EAGER_HIT_RATIO,
    GLOBAL_TRAFFIC_ELISION_RATIO,
    ROOFLINE_INTENSITY,
    ROOFLINE_DERATED_THRESHOLD,
    ROOFLINE_COMPUTE_BOUND,
    PIPELINE_COMPUTE_SECONDS,
    PIPELINE_MEMORY_SECONDS,
    PIPELINE_LAUNCH_SECONDS,
    POOL_WORKERS,
    POOL_PHASES_TOTAL,
    POOL_TASKS_TOTAL,
    POOL_STEALS_TOTAL,
    POOL_OCCUPANCY_RATIO,
    ARENA_TB_HITS_TOTAL,
    ARENA_TB_MISSES_TOTAL,
    SHARED_CAPACITY_BYTES,
    SANITIZE_FINDINGS_TOTAL,
    SANITIZE_SHARED_READS_TOTAL,
    SANITIZE_SHARED_WRITES_TOTAL,
    SANITIZE_BARRIERS_TOTAL,
    BANK_CONFLICTS_TOTAL,
    BANK_SERIALIZED_TOTAL,
    BANK_MAX_WAYS,
    BANK_SERIALIZATION_RATIO,
    SEED_EXTENT_HIST,
    TASK_CYCLES_INSPECTOR_HIST,
    TASK_CYCLES_EXECUTOR_HIST,
];

/// Series the alignment service adds on service runs (zero-emission
/// discipline: all of them, zeros included, on every service run).
pub const SERVICE: &[&str] = &[
    SERVE_QUEUE_DEPTH,
    SERVE_QUEUE_DEPTH_PEAK,
    SERVE_ADMITTED_TOTAL,
    SERVE_SHED_TOTAL,
    SERVE_DEADLINE_MISSED_TOTAL,
    SERVE_COMPLETED_TOTAL,
    SERVE_DEGRADED_TOTAL,
    SERVE_MERGED_LAUNCHES_TOTAL,
    SERVE_BIN_FILL_HIST,
];

/// The full registry: every declared `fastz_` name, exactly once.
/// Const slices cannot be concatenated on stable, so the union is
/// written out; the registry test pins `ALL` to the disjoint union of
/// [`PIPELINE`] and [`SERVICE`].
pub const ALL: &[&str] = &[
    SEEDS_TOTAL,
    PROBLEMS_TOTAL,
    EAGER_RESOLVED_TOTAL,
    EXECUTOR_PROBLEMS_TOTAL,
    ALIGNMENTS_TOTAL,
    BIN_SEEDS_TOTAL,
    BITVEC_WINDOWS_TOTAL,
    BITVEC_SENE_SKIPS_TOTAL,
    BITVEC_DENT_DISCARDS_TOTAL,
    CELLS_TOTAL,
    STEPS_TOTAL,
    ALU_OPS_TOTAL,
    DIVERGENT_STEPS_TOTAL,
    GLOBAL_READ_BYTES_TOTAL,
    GLOBAL_WRITTEN_BYTES_TOTAL,
    SHARED_BYTES_TOTAL,
    SHUFFLES_TOTAL,
    SCALAR_OPS_TOTAL,
    WARP_TASKS_TOTAL,
    FAULTS_TOTAL,
    RETRIES_TOTAL,
    FALLBACKS_TOTAL,
    SKIPPED_SEEDS_TOTAL,
    CHECKPOINTS_WRITTEN_TOTAL,
    CHECKPOINTS_REJECTED_TOTAL,
    RESTORED_PROBLEMS_TOTAL,
    REDISPATCHED_ANCHORS_TOTAL,
    DEVICES_LOST_TOTAL,
    MODELED_TIME_SECONDS,
    PHASE_SECONDS,
    EAGER_HIT_RATIO,
    GLOBAL_TRAFFIC_ELISION_RATIO,
    ROOFLINE_INTENSITY,
    ROOFLINE_DERATED_THRESHOLD,
    ROOFLINE_COMPUTE_BOUND,
    PIPELINE_COMPUTE_SECONDS,
    PIPELINE_MEMORY_SECONDS,
    PIPELINE_LAUNCH_SECONDS,
    POOL_WORKERS,
    POOL_PHASES_TOTAL,
    POOL_TASKS_TOTAL,
    POOL_STEALS_TOTAL,
    POOL_OCCUPANCY_RATIO,
    ARENA_TB_HITS_TOTAL,
    ARENA_TB_MISSES_TOTAL,
    SHARED_CAPACITY_BYTES,
    SANITIZE_FINDINGS_TOTAL,
    SANITIZE_SHARED_READS_TOTAL,
    SANITIZE_SHARED_WRITES_TOTAL,
    SANITIZE_BARRIERS_TOTAL,
    BANK_CONFLICTS_TOTAL,
    BANK_SERIALIZED_TOTAL,
    BANK_MAX_WAYS,
    BANK_SERIALIZATION_RATIO,
    SERVE_QUEUE_DEPTH,
    SERVE_QUEUE_DEPTH_PEAK,
    SERVE_ADMITTED_TOTAL,
    SERVE_SHED_TOTAL,
    SERVE_DEADLINE_MISSED_TOTAL,
    SERVE_COMPLETED_TOTAL,
    SERVE_DEGRADED_TOTAL,
    SERVE_MERGED_LAUNCHES_TOTAL,
    SERVE_BIN_FILL_HIST,
    SEED_EXTENT_HIST,
    TASK_CYCLES_INSPECTOR_HIST,
    TASK_CYCLES_EXECUTOR_HIST,
];

/// `base{phase="<phase>"}` convenience.
pub fn phase(base: &str, phase: &str) -> String {
    labeled(base, "phase", phase)
}

/// `fastz_bin_seeds_total{bin="<bin>"}` convenience.
pub fn bin(bin: &str) -> String {
    labeled(BIN_SEEDS_TOTAL, "bin", bin)
}

/// `fastz_faults_total{class="<class>",kind="<kind>"}` convenience.
pub fn fault(class: &str, kind: &str) -> String {
    format!("{FAULTS_TOTAL}{{class=\"{class}\",kind=\"{kind}\"}}")
}

/// `fastz_sanitize_findings_total{kind="<kind>"}` convenience.
pub fn sanitize_kind(kind: &str) -> String {
    labeled(SANITIZE_FINDINGS_TOTAL, "kind", kind)
}

/// `base{priority="<priority>"}` convenience for the service counters.
pub fn priority(base: &str, priority: &str) -> String {
    labeled(base, "priority", priority)
}

/// `fastz_serve_shed_total{priority="<priority>",reason="<reason>"}`
/// convenience.
pub fn shed(priority: &str, reason: &str) -> String {
    format!("{SERVE_SHED_TOTAL}{{priority=\"{priority}\",reason=\"{reason}\"}}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn helpers_compose_labels() {
        assert_eq!(
            phase(CELLS_TOTAL, "inspector"),
            "fastz_cells_total{phase=\"inspector\"}"
        );
        assert_eq!(bin("512"), "fastz_bin_seeds_total{bin=\"512\"}");
        assert_eq!(
            fault("injected", "bit-flip"),
            "fastz_faults_total{class=\"injected\",kind=\"bit-flip\"}"
        );
        assert_eq!(
            sanitize_kind("uninit_read"),
            "fastz_sanitize_findings_total{kind=\"uninit_read\"}"
        );
        assert_eq!(
            priority(SERVE_ADMITTED_TOTAL, "high"),
            "fastz_serve_admitted_total{priority=\"high\"}"
        );
        assert_eq!(
            shed("low", "queue-full"),
            "fastz_serve_shed_total{priority=\"low\",reason=\"queue-full\"}"
        );
    }

    #[test]
    fn executor_bin_spans_cover_all_bounds() {
        assert_eq!(executor_bin_span(Some(512)), "executor_bin512");
        assert_eq!(executor_bin_span(Some(32768)), "executor_bin32768");
        assert_eq!(executor_bin_span(None), "executor_bin_overflow");
    }

    #[test]
    #[should_panic]
    fn unknown_bin_bound_panics() {
        executor_bin_span(Some(1024));
    }
}
