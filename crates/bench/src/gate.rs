//! The protocol every regression-gate binary shares: one flag parser,
//! one best-of-N timer, one verdict rule, one JSON writer for the
//! `BENCH_*.json` reports, the deterministic corpus generator and the
//! pipeline-report fingerprint.

use std::time::Instant;

use fastz_core::FastZReport;
use fastz_genome::evolve::{generate_pair, PairParams};
use fastz_genome::Sequence;
use fastz_obs::export::{json_escape, json_f64};
use fastz_seed::{Anchor, Workload, WorkloadParams};

use crate::opts::{args_or_exit, flag_number, flag_value, FlagError};

/// The command line of one gate binary: the common `--check`,
/// `--repeats N` and `--out FILE` flags plus its own numeric flags.
#[derive(Debug)]
pub struct GateSpec {
    /// Binary name, for the usage text.
    pub name: &'static str,
    /// Default report path.
    pub out: &'static str,
    /// Default timed rounds.
    pub repeats: usize,
    /// Whether the binary has a `--check` (CI smoke) mode.
    pub check: bool,
    /// The binary's own numeric flags, each with its smallest value.
    pub extras: &'static [(&'static str, usize)],
}

/// `host_throughput`: stealing vs static pool dispatch.
pub const HOST_THROUGHPUT: GateSpec = GateSpec {
    name: "host_throughput",
    out: "BENCH_host.json",
    repeats: 5,
    check: true,
    extras: &[("--threads", 1), ("--heavy", 0), ("--light", 0)],
};

/// `simd_wavefront`: vector step vs the lane-by-lane interpreter
/// (`--pairs 0` picks the mode's corpus size).
pub const SIMD_WAVEFRONT: GateSpec = GateSpec {
    name: "simd_wavefront",
    out: "BENCH_simd.json",
    repeats: 5,
    check: true,
    extras: &[("--pairs", 0), ("--len", 1)],
};

/// `serve_throughput`: batched service vs direct runs.
pub const SERVE_THROUGHPUT: GateSpec = GateSpec {
    name: "serve_throughput",
    out: "BENCH_serve.json",
    repeats: 5,
    check: false,
    extras: &[("--requests", 1)],
};

/// `index_build`: warm persisted-index loads vs per-run rebuilds.
pub const INDEX_BUILD: GateSpec = GateSpec {
    name: "index_build",
    out: "BENCH_index.json",
    repeats: 3,
    check: false,
    extras: &[("--shards", 1)],
};

/// A parsed gate command line.
#[derive(Debug)]
pub struct GateArgs {
    /// CI smoke mode: smaller corpus, at most three rounds.
    pub check: bool,
    /// Timed rounds (at least 1).
    pub repeats: usize,
    /// Report path.
    pub out: String,
    extras: Vec<(&'static str, usize)>,
}

impl GateArgs {
    /// The value given for one of the spec's extra flags, if any.
    pub fn get(&self, flag: &str) -> Option<usize> {
        self.extras.iter().rev().find(|e| e.0 == flag).map(|e| e.1)
    }

    /// `"check"` or `"full"`, the `mode` key of a report.
    pub fn mode(&self) -> &'static str {
        if self.check {
            "check"
        } else {
            "full"
        }
    }
}

/// A count flag's value, refused below `min`.
fn count(flag: &str, value: Option<&String>, min: usize) -> Result<usize, FlagError> {
    let got = flag_number(flag, value)?;
    if got < min {
        return Err(FlagError::TooSmall(flag.to_string(), min, got));
    }
    Ok(got)
}

impl GateSpec {
    /// The usage line printed with a refused command line.
    pub fn usage(&self) -> String {
        let mut u = format!("usage: {}", self.name);
        if self.check {
            u.push_str(" [--check]");
        }
        u.push_str(" [--repeats N] [--out FILE]");
        for (flag, _) in self.extras {
            u.push_str(&format!(" [{flag} N]"));
        }
        u
    }

    /// Parses an argument list.
    pub fn parse(&self, argv: &[String]) -> Result<GateArgs, FlagError> {
        let mut args = GateArgs {
            check: false,
            repeats: self.repeats,
            out: self.out.to_string(),
            extras: Vec::new(),
        };
        let mut it = argv.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--check" if self.check => args.check = true,
                "--repeats" => args.repeats = count(a, it.next(), 1)?,
                "--out" => args.out = flag_value(a, it.next())?.clone(),
                other => match self.extras.iter().find(|(flag, _)| *flag == other) {
                    Some(&(flag, min)) => args.extras.push((flag, count(flag, it.next(), min)?)),
                    None => return Err(FlagError::Unknown(other.to_string())),
                },
            }
        }
        Ok(args)
    }

    /// Parses the process arguments; exits with status 2 and the usage
    /// text on a bad command line.
    pub fn from_env(&self) -> GateArgs {
        args_or_exit(|argv| self.parse(argv), &self.usage())
    }
}

/// Runs `f` once and returns its output with the wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// One timed configuration of a gate.
pub struct Arm<'a, T> {
    name: &'static str,
    run: Box<dyn FnMut() -> T + 'a>,
}

impl<'a, T> Arm<'a, T> {
    /// An arm named `name` (for the per-round log) that runs `run`.
    pub fn new(name: &'static str, run: impl FnMut() -> T + 'a) -> Self {
        Arm {
            name,
            run: Box::new(run),
        }
    }
}

/// The timer: one untimed warm-up per arm, then `repeats` rounds that
/// run every arm once, in order on even rounds and reversed on odd ones,
/// so host drift lands on all arms alike instead of reading as the
/// overhead of whichever ran later. Returns each arm's best (minimum)
/// wall time in seconds; the minimum damps scheduler noise. Every
/// output, warm-ups included, goes to `seen(arm_index, output)` outside
/// the timed region.
pub fn best_of<T>(
    repeats: usize,
    arms: &mut [Arm<'_, T>],
    mut seen: impl FnMut(usize, T),
) -> Vec<f64> {
    for (k, arm) in arms.iter_mut().enumerate() {
        seen(k, (arm.run)());
    }
    let mut best = vec![f64::INFINITY; arms.len()];
    for round in 0..repeats {
        let mut order: Vec<usize> = (0..arms.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        let mut log = format!("  rep {round}:");
        for k in order {
            let (out, wall) = timed(&mut arms[k].run);
            seen(k, out);
            best[k] = best[k].min(wall);
            log.push_str(&format!("  {} {wall:.4}s", arms[k].name));
        }
        eprintln!("{log}");
    }
    best
}

/// The verdict rule for a timed comparison: `candidate` passes when it
/// is at most `1 + bound` times `baseline`. A non-finite or non-positive
/// wall fails, so an arm that timed nothing can never pass.
pub fn within(candidate: f64, baseline: f64, bound: f64) -> bool {
    let measured = |w: f64| w.is_finite() && w > 0.0;
    measured(candidate) && measured(baseline) && candidate <= baseline * (1.0 + bound)
}

/// The verdict rule for a ratio with a floor: `value` passes when it is
/// finite and at least `floor`.
pub fn at_least(value: f64, floor: f64) -> bool {
    value.is_finite() && value >= floor
}

/// A value a report can hold: strings are written with the workspace's
/// one escaper, and non-finite numbers as `null`.
pub trait ToJson {
    /// The value as JSON text.
    fn to_json(&self) -> String;
}

impl ToJson for f64 {
    fn to_json(&self) -> String {
        json_f64(*self)
    }
}

impl ToJson for str {
    fn to_json(&self) -> String {
        let mut out = String::new();
        json_escape(&mut out, self);
        out
    }
}

impl ToJson for String {
    fn to_json(&self) -> String {
        self.as_str().to_json()
    }
}

macro_rules! display_json {
    ($($t:ty),*) => {
        $(impl ToJson for $t {
            fn to_json(&self) -> String {
                self.to_string()
            }
        })*
    };
}
display_json!(bool, u64, usize);

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> String {
        let items: Vec<String> = self.iter().map(ToJson::to_json).collect();
        format!("[{}]", items.join(", "))
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> String {
        (**self).to_json()
    }
}

/// A report object: its keys in order, each with its value already
/// written. Build one with [`json_obj!`](crate::json_obj).
#[derive(Clone, Debug, Default)]
pub struct JsonObj(pub Vec<(&'static str, String)>);

impl JsonObj {
    fn join(&self, open: &str, sep: &str, close: &str) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(key, value)| format!("{}: {value}", key.to_json()))
            .collect();
        format!("{open}{}{close}", fields.join(sep))
    }

    /// The report text: one top-level key per line, nested values inline.
    pub fn render(&self) -> String {
        self.join("{\n  ", ",\n  ", "\n}\n")
    }
}

impl ToJson for JsonObj {
    fn to_json(&self) -> String {
        self.join("{ ", ", ", " }")
    }
}

/// A [`JsonObj`](crate::gate::JsonObj) from `"key" => value` pairs.
#[macro_export]
macro_rules! json_obj {
    ($($key:literal => $value:expr),* $(,)?) => {
        $crate::gate::JsonObj(vec![$(($key, $crate::gate::ToJson::to_json(&$value))),*])
    };
}

/// Writes `report` to `path`; a report that cannot be written fails the
/// run with status 1.
pub fn write_report(path: &str, report: &JsonObj) {
    if let Err(err) = std::fs::write(path, report.render()) {
        eprintln!("FAIL: cannot write {path}: {err}");
        std::process::exit(1);
    }
}

/// `xorshift64*`: a deterministic corpus without any RNG dependency.
pub fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// `len` uniformly random 2-bit base codes from `seed`.
pub fn random_codes(len: usize, seed: u64) -> Vec<u8> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| ((xorshift(&mut state) >> 33) & 3) as u8)
        .collect()
}

/// The seeded 48 kbp homologous pair named `label` and its workload
/// anchors (at most 600): (target, query, anchors, seed span).
pub fn homologous_workload(label: &str, seed: u64) -> (Sequence, Sequence, Vec<Anchor>, usize) {
    let pair = generate_pair(&PairParams {
        target_len: 48_000,
        query_len: 48_000,
        segments: 96,
        ..PairParams::small_demo(label, seed)
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

/// Everything observable in a pipeline report except host wall-clock,
/// as one comparable string (float fields by exact bits).
pub fn report_fingerprint(r: &FastZReport) -> String {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    fn missing(flag: &str) -> FlagError {
        FlagError::Missing(flag.to_string())
    }

    fn invalid(flag: &str, value: &str) -> FlagError {
        FlagError::Invalid(flag.to_string(), value.to_string())
    }

    #[test]
    fn every_gate_flag_set_parses_or_reports_a_typed_error() {
        let gates = [
            &HOST_THROUGHPUT,
            &SIMD_WAVEFRONT,
            &SERVE_THROUGHPUT,
            &INDEX_BUILD,
        ];
        for spec in gates {
            let a = spec.parse(&[]).unwrap();
            assert_eq!(
                (a.check, a.repeats, a.out.as_str()),
                (false, spec.repeats, spec.out)
            );

            let mut good = sv(&["--repeats", "2", "--out", "x.json"]);
            if spec.check {
                good.push("--check".into());
            }
            for (flag, min) in spec.extras {
                good.extend([flag.to_string(), (min + 3).to_string()]);
            }
            let a = spec.parse(&good).unwrap();
            assert_eq!(
                (a.check, a.repeats, a.out.as_str()),
                (spec.check, 2, "x.json")
            );
            for (flag, min) in spec.extras {
                assert_eq!(a.get(flag), Some(min + 3), "{}: {flag}", spec.name);
            }

            let mut bad = vec![
                (sv(&["--repeats"]), missing("--repeats")),
                (sv(&["--repeats", "x"]), invalid("--repeats", "x")),
                (
                    sv(&["--repeats", "0"]),
                    FlagError::TooSmall("--repeats".into(), 1, 0),
                ),
                (sv(&["--out"]), missing("--out")),
                (sv(&["--bogus"]), FlagError::Unknown("--bogus".into())),
            ];
            if !spec.check {
                bad.push((sv(&["--check"]), FlagError::Unknown("--check".into())));
            }
            for &(flag, min) in spec.extras {
                bad.push((sv(&[flag]), missing(flag)));
                bad.push((sv(&[flag, "x"]), invalid(flag, "x")));
                bad.push((sv(&[flag, "-1"]), invalid(flag, "-1")));
                if min > 0 {
                    let got = min - 1;
                    let too_small = FlagError::TooSmall(flag.into(), min, got);
                    bad.push((sv(&[flag, &got.to_string()]), too_small));
                }
            }
            for (argv, want) in bad {
                assert_eq!(
                    spec.parse(&argv).unwrap_err(),
                    want,
                    "{}: {argv:?}",
                    spec.name
                );
            }
        }
    }

    #[test]
    fn usage_lists_every_flag() {
        assert_eq!(
            HOST_THROUGHPUT.usage(),
            "usage: host_throughput [--check] [--repeats N] [--out FILE] \
             [--threads N] [--heavy N] [--light N]"
        );
        assert_eq!(
            SERVE_THROUGHPUT.usage(),
            "usage: serve_throughput [--repeats N] [--out FILE] [--requests N]"
        );
    }

    #[test]
    fn verdicts_fail_on_walls_that_timed_nothing() {
        assert!(within(1.10, 1.0, 0.10));
        assert!(!within(1.11, 1.0, 0.10));
        for wall in [f64::INFINITY, f64::NAN, 0.0] {
            assert!(!within(wall, 1.0, 0.10), "{wall}");
            assert!(!within(1.0, wall, 0.10), "{wall}");
        }
        assert!(!within(f64::INFINITY, f64::INFINITY, 0.10));
        assert!(at_least(4.5, 4.5));
        assert!(!at_least(4.4, 4.5));
        assert!(!at_least(f64::NAN, 1.0));
        assert!(!at_least(f64::INFINITY, 1.0));
    }

    #[test]
    fn timer_warms_up_then_alternates_arm_order() {
        let mut order = String::new();
        let walls = best_of(
            3,
            &mut [Arm::new("a", || 'a'), Arm::new("b", || 'b')],
            |_, out| order.push(out),
        );
        assert_eq!(
            order, "ababbaab",
            "warm-ups, then rounds in alternating order"
        );
        assert_eq!(walls.len(), 2);
        assert!(walls.iter().all(|w| w.is_finite() && *w >= 0.0));
    }

    #[test]
    fn json_writes_null_for_non_finite_and_escapes_strings() {
        let report = crate::json_obj! {
            "bench" => "x\"y",
            "wall_s" => f64::INFINITY,
            "ratio" => f64::NAN,
            "inner" => crate::json_obj! { "n" => 3usize, "ok" => true },
            "widths" => [1usize, 8][..],
        };
        assert_eq!(
            report.render(),
            "{\n  \"bench\": \"x\\\"y\",\n  \"wall_s\": null,\n  \"ratio\": null,\n  \
             \"inner\": { \"n\": 3, \"ok\": true },\n  \"widths\": [1, 8]\n}\n"
        );
    }

    #[test]
    fn corpus_generator_is_pinned() {
        // The host_throughput and simd_wavefront corpora are built from
        // these codes; a change here changes their checksums.
        assert_eq!(
            random_codes(12, 0x7A26),
            [3, 1, 1, 1, 2, 1, 0, 2, 1, 1, 1, 2]
        );
    }
}
