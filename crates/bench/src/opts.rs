//! Command-line options shared by all harness binaries.

use std::str::FromStr;

use fastz_genome::Scale;

/// Parses the process arguments with `parse`; on an error prints it and
/// `usage` to standard error and exits with status 2.
pub fn args_or_exit<A>(parse: impl FnOnce(&[String]) -> Result<A, String>, usage: &str) -> A {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse(&args).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        eprintln!("{usage}");
        std::process::exit(2);
    })
}

/// The numeric value of `flag` (`value` is the argument after it).
pub fn flag_number<T: FromStr>(flag: &str, value: Option<&String>) -> Result<T, String> {
    let v = value.ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse()
        .map_err(|_| format!("{flag} must be a number, got {v:?}"))
}

/// Parsed harness options.
#[derive(Clone, Debug)]
pub struct HarnessOpts {
    /// Workload scale (default [`Scale::BENCH`]).
    pub scale: Scale,
    /// Seed budget per pair (0 = unlimited; default 6000 keeps single-core
    /// simulation times reasonable).
    pub max_anchors: usize,
    /// Restrict to these pair labels (empty = all).
    pub pairs: Vec<String>,
    /// Print extra detail.
    pub verbose: bool,
}

impl Default for HarnessOpts {
    fn default() -> Self {
        HarnessOpts {
            scale: Scale::BENCH,
            max_anchors: 6_000,
            pairs: Vec::new(),
            verbose: false,
        }
    }
}

impl HarnessOpts {
    /// Parses `std::env::args()`:
    /// `--scale test|bench|large`, `--max-anchors N`, `--pairs A,B`,
    /// `--verbose`.
    ///
    /// Exits the process with a usage message on bad input.
    pub fn from_env() -> HarnessOpts {
        args_or_exit(
            HarnessOpts::parse,
            "usage: [--scale test|bench|large] [--max-anchors N] \
             [--pairs L1+L2+...] [--verbose]",
        )
    }

    /// Parses an argument list.
    pub fn parse(args: &[String]) -> Result<HarnessOpts, String> {
        let mut opts = HarnessOpts::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = it.next().ok_or("--scale needs a value")?;
                    opts.scale = match v.as_str() {
                        "test" => Scale::TEST,
                        "bench" => Scale::BENCH,
                        "large" => Scale::LARGE,
                        other => return Err(format!("unknown scale {other}")),
                    };
                }
                "--max-anchors" => opts.max_anchors = flag_number(arg, it.next())?,
                "--pairs" => {
                    // Pair labels contain commas (C1_1,1), so the list
                    // separator is '+': --pairs C1_1,1+A1_X,X
                    let v = it.next().ok_or("--pairs needs a value")?;
                    opts.pairs = v.split('+').map(str::to_string).collect();
                }
                "--verbose" => opts.verbose = true,
                other => return Err(format!("unknown option {other}")),
            }
        }
        Ok(opts)
    }

    /// True if `label` is selected by `--pairs` (or no filter is set).
    pub fn selects(&self, label: &str) -> bool {
        self.pairs.is_empty() || self.pairs.iter().any(|p| p == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults() {
        let o = HarnessOpts::parse(&[]).unwrap();
        assert_eq!(o.scale, Scale::BENCH);
        assert_eq!(o.max_anchors, 6_000);
        assert!(o.selects("anything"));
    }

    #[test]
    fn full_parse() {
        let o = HarnessOpts::parse(&sv(&[
            "--scale",
            "test",
            "--max-anchors",
            "123",
            "--pairs",
            "C1_1,1",
            "--verbose",
        ]))
        .unwrap();
        assert_eq!(o.scale, Scale::TEST);
        assert_eq!(o.max_anchors, 123);
        assert!(o.verbose);
    }

    #[test]
    fn pair_filter() {
        let o = HarnessOpts::parse(&sv(&["--pairs", "A1_X,X+C1_1,1"])).unwrap();
        assert!(o.selects("A1_X,X"));
        assert!(o.selects("C1_1,1"));
        assert!(!o.selects("D1_2R,2"));
    }

    #[test]
    fn errors() {
        assert!(HarnessOpts::parse(&sv(&["--scale"])).is_err());
        assert!(HarnessOpts::parse(&sv(&["--scale", "huge"])).is_err());
        assert!(HarnessOpts::parse(&sv(&["--bogus"])).is_err());
        assert!(HarnessOpts::parse(&sv(&["--max-anchors", "x"])).is_err());
    }
}
