//! Command-line parsing. Every malformed flag is a [`Result`] error that
//! `main` turns into a usage message and exit code 2 — never a panic.

use crate::workload::{Spec, WORKLOADS};
use std::path::PathBuf;
use std::str::FromStr;

/// Usage text printed with every parse error.
pub const USAGE: &str = "usage: benchmark --workload NAME [--seed N] [--seconds S] \
[--trace 0|1] [--spans FILE] [--smoke]
  --workload NAME  one of: eager-cross, bin4-nematode, bitvec-large, serve-cross
  --seed N         input seed (default 1)
  --seconds S      measured time per run (default 10)
  --trace 0|1      1 prints the per-layer metrics instead of the end-to-end ones
  --spans FILE     with --trace 1: write host-clock spans as Chrome-trace JSON
  --smoke          small inputs (test scale) for a quick end-to-end check";

/// Parsed options.
#[derive(Clone, Debug)]
pub struct Options {
    /// The workload to run.
    pub workload: &'static Spec,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Measured seconds per run.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end one.
    pub trace: bool,
    /// Where a traced run writes its spans.
    pub spans: Option<PathBuf>,
    /// Test-scale inputs.
    pub smoke: bool,
}

fn value<T: FromStr>(flag: &str, raw: Option<&String>) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: cannot parse {raw:?}"))
}

/// Parses the arguments after the program name.
pub fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let mut opts = Options {
        workload: &WORKLOADS[0],
        seed: 1,
        seconds: 10.0,
        trace: false,
        spans: None,
        smoke: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--workload" => {
                let name: String = value(flag, it.next())?;
                let spec =
                    Spec::by_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))?;
                workload = Some(spec);
            }
            "--seed" => opts.seed = value(flag, it.next())?,
            "--seconds" => {
                opts.seconds = value(flag, it.next())?;
                if !(opts.seconds.is_finite() && opts.seconds >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
            }
            "--trace" => {
                opts.trace = match value::<u8>(flag, it.next())? {
                    0 => false,
                    1 => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                }
            }
            "--spans" => opts.spans = Some(PathBuf::from(value::<String>(flag, it.next())?)),
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    opts.workload = workload.ok_or("--workload is required")?;
    if opts.spans.is_some() && !opts.trace {
        return Err("--spans needs --trace 1".to_string());
    }
    Ok(opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_strs(args: &[&str]) -> Result<Options, String> {
        parse(&args.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn full_command_line() {
        let o = parse_strs(&[
            "--workload",
            "bin4-nematode",
            "--seed",
            "7",
            "--seconds",
            "12",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(o.workload.name, "bin4-nematode");
        assert_eq!(o.seed, 7);
        assert_eq!(o.seconds, 12.0);
        assert!(o.trace);
        assert!(!o.smoke);
    }

    #[test]
    fn defaults() {
        let o = parse_strs(&["--workload", "eager-cross"]).unwrap();
        assert_eq!((o.seed, o.seconds, o.trace), (1, 10.0, false));
        assert!(o.spans.is_none());
    }

    #[test]
    fn bad_flags_are_errors() {
        for bad in [
            &[][..],
            &["--workload"],
            &["--workload", "nope"],
            &["--workload", "eager-cross", "--seed", "-3"],
            &["--workload", "eager-cross", "--seed"],
            &["--workload", "eager-cross", "--seconds", "abc"],
            &["--workload", "eager-cross", "--seconds", "-1"],
            &["--workload", "eager-cross", "--seconds", "inf"],
            &["--workload", "eager-cross", "--trace", "2"],
            &["--workload", "eager-cross", "--spans", "s.json"],
            &["--workload", "eager-cross", "--bogus"],
            &["eager-cross"],
        ] {
            assert!(parse_strs(bad).is_err(), "{bad:?} parsed");
        }
    }
}
