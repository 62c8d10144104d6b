//! Metric names and the result line.

use std::collections::BTreeMap;

/// A metric's name and unit, as `BENCHMARK.json` lists it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Metric {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> Metric {
    Metric { name, unit }
}

/// Printed by every untraced run.
pub const END_TO_END: [Metric; 3] = [
    m("wall_s", "s"),
    m("setup_s", "s"),
    m("peak_heap_mib", "MiB"),
];

/// Printed by every traced run. A layer a workload does not exercise
/// reports zero work and zero time.
pub const PER_LAYER: [Metric; 68] = [
    m("genome.ingest_s", "s"),
    m("genome.ingest_mib_per_s", "MiB/s"),
    m("seed.index_build_s", "s"),
    m("seed.index_load_s", "s"),
    m("seed.index_mib", "MiB"),
    m("seed.anchor_s", "s"),
    m("seed.raw_anchors", "count"),
    m("seed.kept_anchors", "count"),
    m("seed.keep_ratio", "fraction"),
    m("core.pipeline.run_s", "s"),
    m("core.pipeline.problems", "count"),
    m("core.pipeline.eager_resolved", "count"),
    m("core.pipeline.eager_ratio", "fraction"),
    m("core.pipeline.executor_problems", "count"),
    m("core.pipeline.skipped_seeds", "count"),
    m("core.pipeline.seeds_eager", "count"),
    m("core.pipeline.seeds_bin512", "count"),
    m("core.pipeline.seeds_bin2048", "count"),
    m("core.pipeline.seeds_bin8192", "count"),
    m("core.pipeline.seeds_bin32768", "count"),
    m("core.pipeline.seeds_overflow", "count"),
    m("core.pipeline.parallel_efficiency", "fraction"),
    m("core.warp_engine.inspector_s", "s"),
    m("core.warp_engine.inspector_cells", "count"),
    m("core.warp_engine.inspector_gcups", "Gcell/s"),
    m("core.warp_engine.inspector_task_p50_us", "us"),
    m("core.warp_engine.inspector_task_max_ms", "ms"),
    m("core.warp_engine.executor_s", "s"),
    m("core.warp_engine.executor_cells", "count"),
    m("core.warp_engine.executor_gcups", "Gcell/s"),
    m("core.warp_engine.executor_task_max_ms", "ms"),
    m("core.warp_engine.executor_bin512_s", "s"),
    m("core.warp_engine.executor_bin2048_s", "s"),
    m("core.warp_engine.executor_bin8192_s", "s"),
    m("core.warp_engine.executor_bin32768_s", "s"),
    m("core.warp_engine.executor_overflow_s", "s"),
    m("core.bitvec.extend_s", "s"),
    m("core.bitvec.problems", "count"),
    m("core.bitvec.windows", "count"),
    m("core.bitvec.sene_skips", "count"),
    m("core.bitvec.dent_discards", "count"),
    m("gpu-sim.modeled_s", "s"),
    m("gpu-sim.inspector_s", "s"),
    m("gpu-sim.executor_s", "s"),
    m("gpu-sim.other_s", "s"),
    m("gpu-sim.host_per_modeled_inspector", "ratio"),
    m("gpu-sim.host_per_modeled_executor", "ratio"),
    m("align.alignments", "count"),
    m("align.format_s", "s"),
    m("align.check_failures", "count"),
    m("align.truth_recall", "fraction"),
    m("align.truth_segments", "count"),
    m("serve.requests", "count"),
    m("serve.completed", "count"),
    m("serve.degraded", "count"),
    m("serve.shed", "count"),
    m("serve.deadline_missed", "count"),
    m("serve.merged_launches", "count"),
    m("serve.mean_bin_fill", "fraction"),
    m("serve.batching_gain", "ratio"),
    m("serve.peak_depth", "count"),
    m("serve.requests_per_s", "1/s"),
    m("serve.latency_p50_s", "s"),
    m("serve.latency_tail_s", "s"),
    m("serve.latency_tail_pct", "percentile"),
    m("serve.latency_samples", "count"),
    m("serve.first_chunk_p50_s", "s"),
    m("obs.recorder_overhead_frac", "fraction"),
];

/// `num / den`, or 0 when there is nothing to divide by.
pub(crate) fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// The outcome of one run: checks, operation counts and metric values.
#[derive(Debug, Default)]
pub struct Outcome {
    /// First failed check, if any (the run's output is wrong).
    pub fault: Option<String>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records a failed check; the first one is kept for the report.
    pub fn fault(&mut self, msg: impl Into<String>) {
        self.fault.get_or_insert_with(|| msg.into());
    }

    /// Sets a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// The result line: one JSON object with `correct`, `attempted`,
    /// `failed` and every metric of `set` with its unit. Fails if a
    /// metric is missing or not finite.
    pub fn json(&self, set: &[Metric]) -> Result<String, String> {
        let mut fields = Vec::with_capacity(set.len());
        for metric in set {
            let v = *self
                .values
                .get(metric.name)
                .ok_or_else(|| format!("metric {} was not measured", metric.name))?;
            if !v.is_finite() {
                return Err(format!("metric {} is {v}", metric.name));
            }
            fields.push(format!(
                "\"{}\": {{\"value\": {v:?}, \"unit\": \"{}\"}}",
                metric.name, metric.unit
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.fault.is_none(),
            self.attempted,
            self.failed,
            fields.join(", ")
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|m| m.name)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }

    #[test]
    fn result_line_carries_every_metric_with_all_digits() {
        let mut o = Outcome {
            attempted: 12,
            ..Outcome::default()
        };
        o.set("wall_s", 1.234_567_890_123);
        o.set("setup_s", 3e-7);
        o.set("peak_heap_mib", 100.5);
        let line = o.json(&END_TO_END).unwrap();
        assert!(line.starts_with("{\"correct\": true, \"attempted\": 12, \"failed\": 0,"));
        assert!(line.contains("\"wall_s\": {\"value\": 1.234567890123, \"unit\": \"s\"}"));
        assert!(line.contains("\"setup_s\": {\"value\": 3e-7, \"unit\": \"s\"}"));
        o.fault("bad");
        o.fault("worse");
        assert!(o
            .json(&END_TO_END)
            .unwrap()
            .starts_with("{\"correct\": false"));
        assert_eq!(o.fault.as_deref(), Some("bad"));
    }

    #[test]
    fn missing_or_non_finite_metrics_are_errors() {
        let mut o = Outcome::default();
        assert!(o.json(&END_TO_END).is_err());
        for m in &END_TO_END {
            o.set(m.name, 1.0);
        }
        assert!(o.json(&END_TO_END).is_ok());
        o.set("wall_s", f64::NAN);
        assert!(o.json(&END_TO_END).is_err());
    }
}
