//! The one command-line parser every `zc-bench` binary uses.
//!
//! Each tool declares the flags it knows; anything else is a usage error.
//! An unknown flag, a stray argument, a missing or unparsable value prints
//! the message and the usage text on stderr and exits with code 2 before
//! any work starts. `--help` (or `-h`) prints the usage text on stdout and
//! exits 0, also before any work starts.

use std::str::FromStr;

/// One flag a tool accepts.
pub struct Flag {
    /// The spelling, `--name`.
    pub name: &'static str,
    /// The value's placeholder (`FILE`, `N`, …) when the flag takes one.
    pub value: Option<&'static str>,
    /// One line for the usage text.
    pub help: &'static str,
}

/// A switch: `--name`, no value.
pub const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        value: None,
        help,
    }
}

/// An option: `--name VALUE`.
pub const fn option(name: &'static str, value: &'static str, help: &'static str) -> Flag {
    Flag {
        name,
        value: Some(value),
        help,
    }
}

/// The shared `--json` switch.
pub const JSON: Flag = switch("--json", "emit the shared JSON format instead of tables");
/// The shared `--full` switch.
pub const FULL: Flag = switch("--full", "widen the measured sweep to paper-scale sizes");
/// The shared `--no-trace` switch.
pub const NO_TRACE: Flag = switch("--no-trace", "turn telemetry off for the measured runs");

/// A tool's parsed command line.
pub struct Args {
    tool: &'static str,
    usage: String,
    /// `(flag, value)` in command-line order.
    given: Vec<(&'static str, Option<String>)>,
}

impl Args {
    /// Parse the process's arguments against `flags`; on error or `--help`
    /// this prints and exits (see the module docs).
    pub fn parse(tool: &'static str, about: &str, flags: &[Flag]) -> Args {
        match Args::parse_from(tool, about, flags, std::env::args().skip(1)) {
            Ok(args) => args,
            Err(Exit::Help(usage)) => {
                print!("{usage}");
                std::process::exit(0);
            }
            Err(Exit::Usage(msg)) => {
                eprint!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Parse `argv` (without the program name) against `flags`.
    pub fn parse_from(
        tool: &'static str,
        about: &str,
        flags: &[Flag],
        argv: impl IntoIterator<Item = String>,
    ) -> Result<Args, Exit> {
        let usage = usage(tool, about, flags);
        let argv: Vec<String> = argv.into_iter().collect();
        if argv.iter().any(|a| a == "--help" || a == "-h") {
            return Err(Exit::Help(usage));
        }
        let mut given = Vec::new();
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            let Some(flag) = flags.iter().find(|f| f.name == arg) else {
                let what = if arg.starts_with('-') {
                    "unknown flag"
                } else {
                    "unexpected argument"
                };
                return Err(Exit::Usage(format!("{tool}: {what} `{arg}`\n{usage}")));
            };
            let value = match flag.value {
                None => None,
                Some(placeholder) => match argv.next() {
                    Some(v) => Some(v),
                    None => {
                        return Err(Exit::Usage(format!(
                            "{tool}: {} needs a value ({placeholder})\n{usage}",
                            flag.name
                        )))
                    }
                },
            };
            given.push((flag.name, value));
        }
        Ok(Args { tool, usage, given })
    }

    /// Whether switch or option `name` was given.
    pub fn has(&self, name: &str) -> bool {
        self.given.iter().any(|(n, _)| *n == name)
    }

    /// The value of option `name` (the last one, if repeated).
    pub fn value(&self, name: &str) -> Option<&str> {
        self.given
            .iter()
            .rev()
            .find(|(n, _)| *n == name)
            .and_then(|(_, v)| v.as_deref())
    }

    /// The value of option `name` parsed as `T`, or `default` when absent.
    /// An unparsable value is a usage error: printed, exit 2.
    pub fn parsed<T: FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                self.usage_error(&format!("bad value `{v}` for {name}"));
            }),
        }
    }

    /// Report a usage error found after parsing (a missing required
    /// option, say) and exit 2.
    pub fn usage_error(&self, msg: &str) -> ! {
        eprint!("{}: {msg}\n{}", self.tool, self.usage);
        std::process::exit(2);
    }
}

/// Why parsing stopped short of a result.
#[derive(Debug, PartialEq)]
pub enum Exit {
    /// `--help`: the usage text, for stdout, exit 0.
    Help(String),
    /// A usage error: message and usage text, for stderr, exit 2.
    Usage(String),
}

fn usage(tool: &str, about: &str, flags: &[Flag]) -> String {
    let mut out = format!("usage: {tool}");
    for f in flags {
        match f.value {
            None => out.push_str(&format!(" [{}]", f.name)),
            Some(v) => out.push_str(&format!(" [{} {v}]", f.name)),
        }
    }
    out.push_str(&format!("\n\n{about}\n\n"));
    let width = flags
        .iter()
        .map(|f| f.name.len() + f.value.map_or(0, |v| v.len() + 1))
        .max()
        .unwrap_or(0);
    for f in flags
        .iter()
        .chain([&switch("--help", "print this text and exit")])
    {
        let spelled = match f.value {
            None => f.name.to_string(),
            Some(v) => format!("{} {v}", f.name),
        };
        out.push_str(&format!("  {spelled:width$}  {}\n", f.help));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const FLAGS: &[Flag] = &[
        switch("--smoke", "small run"),
        option("--out", "FILE", "where to write"),
        option("--rounds", "N", "how many"),
    ];

    fn parse(argv: &[&str]) -> Result<Args, Exit> {
        Args::parse_from("tool", "A tool.", FLAGS, argv.iter().map(|s| s.to_string()))
    }

    #[test]
    fn known_flags_parse() {
        let a = parse(&["--smoke", "--out", "x.json", "--rounds", "7"]).unwrap();
        assert!(a.has("--smoke"));
        assert_eq!(a.value("--out"), Some("x.json"));
        assert_eq!(a.parsed("--rounds", 1u32), 7);
        assert_eq!(a.parsed("--missing", 3u32), 3);
    }

    #[test]
    fn unknown_flags_and_stray_arguments_are_usage_errors() {
        for argv in [&["--bogus"][..], &["stray"], &["--smoke", "--out"]] {
            match parse(argv) {
                Err(Exit::Usage(msg)) => assert!(msg.contains("usage: tool"), "{msg}"),
                other => panic!("{argv:?}: expected a usage error, got {:?}", other.is_ok()),
            }
        }
    }

    #[test]
    fn help_wins_over_everything_else() {
        match parse(&["--bogus", "--help", "--smoke"]) {
            Err(Exit::Help(text)) => {
                assert!(text.contains("--out FILE") && text.contains("A tool."));
            }
            other => panic!("expected help, got {:?}", other.is_ok()),
        }
    }
}
