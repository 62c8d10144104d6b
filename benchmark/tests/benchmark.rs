//! Smoke test of the benchmark: `BENCHMARK.json` agrees with the binary,
//! every workload runs at test scale and prints every metric with its
//! unit, the workload property gates hold on more than one seed, the
//! output checker rejects tampered alignments, and bad flags exit 2.

use fastz_align::{Alignment, EditOp};
use fastz_benchmark::report::{Metric, END_TO_END, PER_LAYER};
use fastz_benchmark::workload::{generate, Inputs, Spec, WORKLOADS};
use fastz_benchmark::{check, run};
use fastz_seed::WorkloadParams;
use std::collections::BTreeMap;
use std::path::Path;
use std::process::{Command, Output};

/// A parsed JSON value (just enough for `BENCHMARK.json` and the
/// result line).
#[derive(Clone, Debug, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing text after JSON value");
        v
    }

    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            _ => panic!("not a number: {self:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            _ => panic!("not an array: {self:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            _ => panic!("not an object: {self:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, b: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&b),
            "expected {:?} at {}",
            b as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    let Json::Str(k) = self.value() else {
                        panic!("object key is not a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(v),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not used here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
            }
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| b"+-.eE0123456789".contains(c))
                {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root"))
}

fn listed(j: &Json, key: &str) -> Vec<(String, String)> {
    j.get(key)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

fn pairs(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

/// Runs the benchmark binary in a scratch directory of its own.
fn benchmark(args: &[&str]) -> Output {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(args.join("_"));
    std::fs::create_dir_all(&dir).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_benchmark"))
        .args(args)
        .current_dir(&dir)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();
    out
}

/// Runs one smoke-scale workload and returns its result line.
fn smoke(workload: &str, trace: bool) -> Json {
    let out = benchmark(&[
        "--workload",
        workload,
        "--smoke",
        "--seconds",
        "0",
        "--trace",
        if trace { "1" } else { "0" },
    ]);
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} failed: {}\n{stdout}",
        String::from_utf8_lossy(&out.stderr)
    );
    Json::parse(stdout.lines().last().expect("a result line"))
}

/// Checks a result line's shape and returns its metric values by name.
fn metric_values(result: &Json, expected: &[(String, String)]) -> BTreeMap<String, f64> {
    assert_eq!(result.get("correct"), &Json::Bool(true));
    assert!(result.get("attempted").num() >= 1.0);
    assert_eq!(result.get("failed").num(), 0.0);
    let metrics = result.get("metrics").obj();
    assert_eq!(metrics.len(), expected.len());
    expected
        .iter()
        .map(|(name, unit)| {
            let m = &metrics[name];
            assert_eq!(m.get("unit").str(), unit, "{name}");
            (name.clone(), m.get("value").num())
        })
        .collect()
}

#[test]
fn benchmark_json_agrees_with_the_binary() {
    let j = benchmark_json();
    assert_eq!(listed(&j, "end_to_end"), pairs(&END_TO_END));
    assert_eq!(listed(&j, "per_layer"), pairs(&PER_LAYER));
    let names: Vec<&str> = j
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(names, WORKLOADS.iter().map(|w| w.name).collect::<Vec<_>>());
    assert_eq!(j.get("paths").arr(), [Json::Str("benchmark".into())]);
    for m in j.get("end_to_end").arr() {
        let bound = m.get("bound").num();
        assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
    }
}

/// The settings of a manifest's `[profile.release]` table, comments
/// dropped.
fn release_profile(manifest: &Path) -> Vec<String> {
    std::fs::read_to_string(manifest)
        .unwrap()
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty())
        .map(str::to_string)
        .collect()
}

/// The benchmark is a workspace of its own, so it cannot inherit the
/// root profile: it must copy it, or it measures other code than the
/// `fastz` binary runs.
#[test]
fn release_profile_matches_the_root_workspace() {
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    assert_eq!(
        release_profile(&here.join("Cargo.toml")),
        release_profile(&here.join("../Cargo.toml"))
    );
}

#[test]
fn every_workload_prints_every_metric_and_passes_its_gates() {
    let end_to_end = listed(&benchmark_json(), "end_to_end");
    let per_layer = listed(&benchmark_json(), "per_layer");
    for w in &WORKLOADS {
        let values = metric_values(&smoke(w.name, false), &end_to_end);
        assert!(values.values().all(|v| *v > 0.0), "{}: {values:?}", w.name);
        let layers = metric_values(&smoke(w.name, true), &per_layer);
        // The replay must see every problem the run saw.
        assert!(layers["core.pipeline.problems"] > 0.0);
        match w.name {
            "eager-cross" => assert!(layers["core.pipeline.eager_ratio"] >= 0.85, "{layers:?}"),
            "bin4-nematode" => assert!(
                layers["core.pipeline.seeds_bin8192"] + layers["core.pipeline.seeds_bin32768"]
                    >= 4.0,
                "{layers:?}"
            ),
            "bitvec-large" => {
                assert_eq!(layers["core.warp_engine.inspector_cells"], 0.0);
                assert_eq!(layers["core.warp_engine.executor_cells"], 0.0);
                assert!(layers["core.bitvec.problems"] > 0.0);
            }
            "serve-cross" => {
                assert!(layers["serve.requests"] > 0.0);
                assert_eq!(layers["serve.completed"], layers["serve.requests"]);
            }
            other => panic!("no gate for workload {other}"),
        }
    }
}

/// The property gates, on the library path the binary uses.
fn gates_hold(spec: &Spec, seed: u64) {
    let inputs = Inputs::write(spec, true, seed).unwrap();
    let job = run::job(&inputs, &spec.config(), &WorkloadParams::default()).unwrap();
    let stats = &job.report.stats;
    let bins = &job.report.bin_counts;
    match spec.name {
        "eager-cross" | "serve-cross" => {
            let ratio = stats.eager_resolved as f64 / stats.problems as f64;
            assert!(ratio >= 0.85, "seed {seed}: eager ratio {ratio}");
        }
        "bin4-nematode" => assert!(bins.bins[2] + bins.bins[3] >= 4, "seed {seed}: {bins:?}"),
        "bitvec-large" => {
            assert_eq!(stats.executor_problems, 0);
            assert_eq!(stats.executor.total.cells, 0);
        }
        other => panic!("no gate for workload {other}"),
    }
}

#[test]
fn other_seeds_change_the_inputs_and_pass_the_gates() {
    for spec in &WORKLOADS {
        let a = generate(spec, true, 2);
        let b = generate(spec, true, 3);
        assert_ne!(a.target.codes(), b.target.codes(), "{}", spec.name);
        assert_ne!(a.query.codes(), b.query.codes(), "{}", spec.name);
        for seed in [2, 3] {
            gates_hold(spec, seed);
        }
    }
}

#[test]
fn the_checker_rejects_tampered_output() {
    let spec = Spec::by_name("eager-cross").unwrap();
    let cfg = spec.config();
    let inputs = Inputs::write(spec, true, 1).unwrap();
    let job = run::job(&inputs, &cfg, &WorkloadParams::default()).unwrap();
    let (t, q) = (&job.target, &job.query);
    let good = job.report.alignments.first().expect("an alignment").clone();
    let fault = |a: &Alignment| check::alignment_fault(a, t, q, &cfg.scoring, spec.backend);
    assert_eq!(fault(&good), None);

    let mut score = good.clone();
    score.score += 1;
    assert!(fault(&score).is_some(), "tampered score passed");

    let mut short = good.clone();
    short.ops.pop();
    assert!(fault(&short).is_some(), "truncated op list passed");

    // Same extent, but one diagonal column traded for a gap pair.
    let mut gapped = good;
    let k = gapped
        .ops
        .iter()
        .position(|op| matches!(op, EditOp::Diag(n) if *n >= 2))
        .expect("a diagonal run");
    let EditOp::Diag(n) = gapped.ops[k] else {
        unreachable!()
    };
    gapped.ops.splice(
        k..=k,
        [EditOp::Diag(n - 1), EditOp::GapQ(1), EditOp::GapT(1)],
    );
    assert!(gapped.is_consistent(t, q));
    assert!(fault(&gapped).is_some(), "tampered op list passed");
}

#[test]
fn bad_flags_exit_2_without_a_result() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "eager-cross", "--seconds", "x"],
        &["--trace", "1"],
    ] {
        let out = benchmark(args);
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
    }
}
