//! Command-line options shared by all harness binaries.

use std::fmt;
use std::str::FromStr;

use fastz_genome::Scale;

/// Why a harness command line was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FlagError {
    /// An argument that is not one of the binary's flags.
    Unknown(String),
    /// A flag given without its value.
    Missing(String),
    /// A flag given a value it cannot take: (flag, value).
    Invalid(String, String),
    /// A count below the flag's minimum: (flag, minimum, value). A
    /// `--repeats 0` would time nothing.
    TooSmall(String, usize, usize),
}

impl fmt::Display for FlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlagError::Unknown(arg) => write!(f, "unknown argument {arg}"),
            FlagError::Missing(flag) => write!(f, "{flag} needs a value"),
            FlagError::Invalid(flag, value) => write!(f, "{flag} cannot take {value:?}"),
            FlagError::TooSmall(flag, min, got) => {
                write!(f, "{flag} must be at least {min}, got {got}")
            }
        }
    }
}

/// Parses the process arguments with `parse`; on an error prints it and
/// `usage` to standard error and exits with status 2.
pub fn args_or_exit<A, E: fmt::Display>(
    parse: impl FnOnce(&[String]) -> Result<A, E>,
    usage: &str,
) -> A {
    let args: Vec<String> = std::env::args().skip(1).collect();
    parse(&args).unwrap_or_else(|err| {
        eprintln!("{err}");
        eprintln!("{usage}");
        std::process::exit(2);
    })
}

/// The value after `flag`, which must be present.
pub fn flag_value<'a>(flag: &str, value: Option<&'a String>) -> Result<&'a String, FlagError> {
    value.ok_or_else(|| FlagError::Missing(flag.to_string()))
}

/// The numeric value of `flag` (`value` is the argument after it).
pub fn flag_number<T: FromStr>(flag: &str, value: Option<&String>) -> Result<T, FlagError> {
    let v = flag_value(flag, value)?;
    v.parse()
        .map_err(|_| FlagError::Invalid(flag.to_string(), v.clone()))
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
    pub fn parse(args: &[String]) -> Result<HarnessOpts, FlagError> {
        let mut opts = HarnessOpts::default();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            match arg.as_str() {
                "--scale" => {
                    let v = flag_value(arg, it.next())?;
                    opts.scale = match v.as_str() {
                        "test" => Scale::TEST,
                        "bench" => Scale::BENCH,
                        "large" => Scale::LARGE,
                        _ => return Err(FlagError::Invalid(arg.clone(), v.clone())),
                    };
                }
                "--max-anchors" => opts.max_anchors = flag_number(arg, it.next())?,
                "--pairs" => {
                    // Pair labels contain commas (C1_1,1), so the list
                    // separator is '+': --pairs C1_1,1+A1_X,X
                    let v = flag_value(arg, it.next())?;
                    opts.pairs = v.split('+').map(str::to_string).collect();
                }
                "--verbose" => opts.verbose = true,
                other => return Err(FlagError::Unknown(other.to_string())),
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
