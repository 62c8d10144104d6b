//! Exporters: JSON report, Prometheus text format, Chrome-trace JSON.
//!
//! All three are pure functions of the recorded state and emit keys in
//! deterministic order, so a fixed-seed run exports byte-identical
//! output across invocations, machines, and thread counts.

use crate::metrics::{Histogram, MetricValue, Registry};
use crate::recorder::Recorder;
use crate::span::Timeline;
use std::fmt::Write as _;

/// JSON-safe f64: finite values print with Rust's shortest round-trip
/// formatting; non-finite values become `null` (JSON has no Inf/NaN).
pub fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// Prometheus-safe f64 (`+Inf` / `-Inf` / `NaN` are legal there).
fn prom_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else if v.is_nan() {
        "NaN".to_string()
    } else if v > 0.0 {
        "+Inf".to_string()
    } else {
        "-Inf".to_string()
    }
}

/// Appends `s` to `out` as a quoted JSON string — the escaper every
/// JSON report in the workspace writes strings with.
pub fn json_escape(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn json_f64_list(vals: &[f64]) -> String {
    let items: Vec<String> = vals.iter().map(|&v| json_f64(v)).collect();
    format!("[{}]", items.join(","))
}

fn json_u64_list(vals: &[u64]) -> String {
    let items: Vec<String> = vals.iter().map(|v| v.to_string()).collect();
    format!("[{}]", items.join(","))
}

/// Serializes the full observability report (metrics + spans) as JSON.
/// Metric keys are sorted; spans keep recording order.
pub fn json_report(rec: &Recorder) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"tool\": \"fastz-obs\",\n  \"version\": 1,\n  \"metrics\": {\n");
    let metrics: Vec<(&str, &MetricValue)> = rec.registry.iter().collect();
    for (idx, (name, value)) in metrics.iter().enumerate() {
        out.push_str("    ");
        json_escape(&mut out, name);
        out.push_str(": ");
        match value {
            MetricValue::Counter(c) => {
                let _ = write!(out, "{{\"type\":\"counter\",\"value\":{c}}}");
            }
            MetricValue::Gauge(g) => {
                let _ = write!(out, "{{\"type\":\"gauge\",\"value\":{}}}", json_f64(*g));
            }
            MetricValue::Histogram(h) => {
                let _ = write!(
                    out,
                    "{{\"type\":\"histogram\",\"bounds\":{},\"counts\":{},\"sum\":{},\"count\":{}}}",
                    json_f64_list(&h.bounds),
                    json_u64_list(&h.counts),
                    json_f64(h.sum),
                    h.count
                );
            }
        }
        if idx + 1 < metrics.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  },\n  \"spans\": [\n");
    let spans = rec.timeline.spans();
    for (idx, s) in spans.iter().enumerate() {
        out.push_str("    {\"name\": ");
        json_escape(&mut out, &s.name);
        out.push_str(", \"cat\": ");
        json_escape(&mut out, &s.cat);
        let _ = write!(
            out,
            ", \"start_us\": {}, \"dur_us\": {}}}",
            json_f64(s.start_us),
            json_f64(s.dur_us)
        );
        if idx + 1 < spans.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("  ]\n}\n");
    out
}

/// Splits `fastz_x_total{phase="inspector"}` into the base name and the
/// brace-enclosed label body (`""` when unlabeled).
fn split_labels(name: &str) -> (&str, &str) {
    match name.find('{') {
        Some(at) => (
            &name[..at],
            name[at..].trim_start_matches('{').trim_end_matches('}'),
        ),
        None => (name, ""),
    }
}

fn prom_series(base: &str, labels: &str, extra: Option<(&str, &str)>) -> String {
    let mut all = String::new();
    if !labels.is_empty() {
        all.push_str(labels);
    }
    if let Some((k, v)) = extra {
        if !all.is_empty() {
            all.push(',');
        }
        let _ = write!(all, "{k}=\"{v}\"");
    }
    if all.is_empty() {
        base.to_string()
    } else {
        format!("{base}{{{all}}}")
    }
}

fn prom_histogram(out: &mut String, base: &str, labels: &str, h: &Histogram) {
    let cumulative = h.cumulative();
    for (i, cum) in cumulative.iter().enumerate() {
        let le = if i < h.bounds.len() {
            prom_f64(h.bounds[i])
        } else {
            "+Inf".to_string()
        };
        let series = prom_series(&format!("{base}_bucket"), labels, Some(("le", &le)));
        let _ = writeln!(out, "{series} {cum}");
    }
    let _ = writeln!(
        out,
        "{} {}",
        prom_series(&format!("{base}_sum"), labels, None),
        prom_f64(h.sum)
    );
    let _ = writeln!(
        out,
        "{} {}",
        prom_series(&format!("{base}_count"), labels, None),
        h.count
    );
}

/// Serializes the registry in the Prometheus text exposition format.
/// One `# TYPE` line per metric family, series sorted by name.
pub fn prometheus(registry: &Registry) -> String {
    let mut out = String::new();
    let mut last_base = String::new();
    for (name, value) in registry.iter() {
        let (base, labels) = split_labels(name);
        if base != last_base {
            let kind = match value {
                MetricValue::Counter(_) => "counter",
                MetricValue::Gauge(_) => "gauge",
                MetricValue::Histogram(_) => "histogram",
            };
            let _ = writeln!(out, "# TYPE {base} {kind}");
            last_base = base.to_string();
        }
        match value {
            MetricValue::Counter(c) => {
                let _ = writeln!(out, "{name} {c}");
            }
            MetricValue::Gauge(g) => {
                let _ = writeln!(out, "{name} {}", prom_f64(*g));
            }
            MetricValue::Histogram(h) => prom_histogram(&mut out, base, labels, h),
        }
    }
    out
}

/// Serializes the timeline as Chrome-trace JSON (load it at
/// `chrome://tracing` or <https://ui.perfetto.dev>). All events are
/// complete (`"ph": "X"`) spans on pid 0 / tid 0; timestamps are modeled
/// microseconds on the logical clock.
pub fn chrome_trace(timeline: &Timeline) -> String {
    let mut out = String::new();
    out.push_str("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let spans = timeline.spans();
    for (idx, s) in spans.iter().enumerate() {
        out.push_str("{\"name\":");
        json_escape(&mut out, &s.name);
        out.push_str(",\"cat\":");
        json_escape(&mut out, &s.cat);
        let _ = write!(
            out,
            ",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":0,\"tid\":0}}",
            json_f64(s.start_us),
            json_f64(s.dur_us)
        );
        if idx + 1 < spans.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricsSink;

    fn demo_recorder() -> Recorder {
        let mut r = Recorder::new();
        r.counter_add("fastz_seeds_total", 10);
        r.counter_add("fastz_cells_total{phase=\"inspector\"}", 100);
        r.counter_add("fastz_cells_total{phase=\"executor\"}", 50);
        r.gauge_set("fastz_modeled_time_seconds", 0.125);
        r.observe("fastz_seed_extent", &[16.0, 512.0], 3.0);
        r.observe("fastz_seed_extent", &[16.0, 512.0], 600.0);
        r.span("inspector", "gpu", 0.0, 100.0);
        r.span("executor_bin512", "gpu", 100.0, 50.0);
        r
    }

    #[test]
    fn json_report_is_deterministic_and_parsable_shape() {
        let r = demo_recorder();
        let a = json_report(&r);
        let b = json_report(&r);
        assert_eq!(a, b);
        assert!(a.contains("\"fastz_seeds_total\": {\"type\":\"counter\",\"value\":10}"));
        assert!(a.contains("\"sum\":603"));
        assert!(a.contains("\"name\": \"inspector\""));
        // Sorted keys: executor label sorts before inspector label.
        let exec = a.find("phase=\\\"executor\\\"").unwrap();
        let insp = a.find("phase=\\\"inspector\\\"").unwrap();
        assert!(exec < insp);
    }

    #[test]
    fn prometheus_emits_type_lines_once_per_family() {
        let r = demo_recorder();
        let text = prometheus(&r.registry);
        assert_eq!(text.matches("# TYPE fastz_cells_total counter").count(), 1);
        assert!(text.contains("fastz_cells_total{phase=\"inspector\"} 100"));
        assert!(text.contains("fastz_modeled_time_seconds 0.125"));
        assert!(text.contains("fastz_seed_extent_bucket{le=\"16\"} 1"));
        assert!(text.contains("fastz_seed_extent_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("fastz_seed_extent_count 2"));
    }

    #[test]
    fn labeled_histograms_put_le_last() {
        let mut r = Recorder::new();
        r.observe("fastz_task_cycles{phase=\"inspector\"}", &[10.0], 5.0);
        let text = prometheus(&r.registry);
        assert!(
            text.contains("fastz_task_cycles_bucket{phase=\"inspector\",le=\"10\"} 1"),
            "{text}"
        );
        assert!(text.contains("fastz_task_cycles_sum{phase=\"inspector\"} 5"));
        assert!(text.contains("# TYPE fastz_task_cycles histogram"));
    }

    #[test]
    fn chrome_trace_emits_complete_events() {
        let r = demo_recorder();
        let trace = chrome_trace(&r.timeline);
        assert!(trace.starts_with("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["));
        assert!(trace.contains(
            "{\"name\":\"inspector\",\"cat\":\"gpu\",\"ph\":\"X\",\"ts\":0,\"dur\":100,\"pid\":0,\"tid\":0}"
        ));
        assert!(trace.trim_end().ends_with("]}"));
    }

    #[test]
    fn non_finite_values_are_json_null_and_prom_inf() {
        let mut r = Recorder::new();
        r.gauge_set("fastz_roofline_intensity", f64::INFINITY);
        assert!(json_report(&r).contains("{\"type\":\"gauge\",\"value\":null}"));
        assert!(prometheus(&r.registry).contains("fastz_roofline_intensity +Inf"));
    }
}
