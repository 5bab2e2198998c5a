//! Strict command-line parsing: every flag is known, every value checked.
//! Anything else is a usage error (exit code 2), never a silent default.

use std::fmt;

pub const USAGE: &str = "\
usage: orbbench --workload <bulk-zc|bulk-std|rpc-shared> [--seed <u64>] [--seconds <s>] [--trace <0|1>]

  --workload  which traffic to run (required)
  --seed      input generator seed: payload contents and request sizes (default 1)
  --seconds   measured time per run, 0 < s <= 600 (default 10)
  --trace     0: untraced run, prints end-to-end metrics;
              1: untraced + traced halves, prints per-layer metrics (default 0)
  --help      print this text";

/// The three traffic mixes (see README.md for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    BulkZc,
    BulkStd,
    RpcShared,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::BulkZc, Workload::BulkStd, Workload::RpcShared];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BulkZc => "bulk-zc",
            Workload::BulkStd => "bulk-std",
            Workload::RpcShared => "rpc-shared",
        }
    }

    pub fn is_bulk(self) -> bool {
        !matches!(self, Workload::RpcShared)
    }

    /// Closed-loop caller threads (and so callers sharing the connection).
    pub fn callers(self) -> usize {
        if self.is_bulk() {
            1
        } else {
            2
        }
    }

    /// Highest percentile reported as `latency_tail_us`.
    pub fn tail_cap(self) -> f64 {
        if self.is_bulk() {
            99.0
        } else {
            99.9
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

#[derive(Debug, PartialEq)]
pub enum CliError {
    /// `--help`: print usage, exit 0.
    Help,
    /// Anything malformed: print the message and usage, exit 2.
    Usage(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Help => f.write_str(USAGE),
            CliError::Usage(msg) => write!(f, "orbbench: {msg}\n{USAGE}"),
        }
    }
}

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, CliError> {
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        if flag == "--help" {
            return Err(CliError::Help);
        }
        let known = ["--workload", "--seed", "--seconds", "--trace"];
        if !known.contains(&flag.as_str()) {
            return Err(usage(format!("unknown argument {flag:?}")));
        }
        let value = it
            .next()
            .ok_or_else(|| usage(format!("{flag} needs a value")))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| usage(format!("unknown workload {value:?}")))?,
                );
            }
            "--seed" => {
                seed = value
                    .parse()
                    .map_err(|_| usage(format!("--seed wants a u64, got {value:?}")))?;
            }
            "--seconds" => {
                seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| usage(format!("--seconds wants 0 < s <= 600, got {value:?}")))?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(usage(format!("--trace wants 0 or 1, got {value:?}"))),
                };
            }
            _ => unreachable!("flag checked against the known list"),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(|| usage("--workload is required"))?,
        seed,
        seconds,
        trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(args: &[&str]) -> Result<Args, CliError> {
        parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn full_command_line_parses() {
        let a = p(&[
            "--workload",
            "rpc-shared",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Workload::RpcShared);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
    }

    #[test]
    fn bad_input_is_a_usage_error() {
        for bad in [
            &["--workload", "bulk-zc", "--bogus"][..],
            &["--workload", "nope"],
            &["--workload", "bulk-zc", "--seed", "-1"],
            &["--workload", "bulk-zc", "--seconds", "0"],
            &["--workload", "bulk-zc", "--trace", "2"],
            &["--workload"],
            &["--seed", "3"],
        ] {
            assert!(matches!(p(bad), Err(CliError::Usage(_))), "{bad:?}");
        }
        assert_eq!(p(&["--help"]), Err(CliError::Help));
    }
}
