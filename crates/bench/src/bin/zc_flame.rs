//! `zc-flame` — offline critical-path analyzer over trace-spool segments.
//!
//! ```text
//! cargo run -p zc-bench --bin zc_flame -- --dir /tmp/zc-spool
//! cargo run -p zc-bench --bin zc_flame -- --dir /tmp/zc-spool --json --out flame.json
//! ```
//!
//! Reads every `spool-*.zcs` segment under `--dir` (oldest first, torn
//! tails tolerated — the segments are untrusted input), reconstructs
//! request journeys across their attempts, and renders either a text
//! flamegraph with per-stage/per-cause aggregates (the default) or the
//! `zcorba-flame/v1` machine summary (`--json`). `--top N` bounds the
//! per-journey detail (longest critical path first, default 10).

use std::path::PathBuf;
use std::process::ExitCode;

use zc_bench::cli;
use zc_bench::flame::{analyze_spool_dir, render_json, render_text};

fn main() -> ExitCode {
    let args = cli::Args::parse(
        "zc_flame",
        "Offline critical-path analysis of the trace-spool segments under --dir.",
        &[
            cli::option(
                "--dir",
                "SPOOL_DIR",
                "the spool directory to read (required)",
            ),
            cli::switch("--json", "the zcorba-flame/v1 machine summary"),
            cli::option("--out", "FILE", "write to FILE instead of stdout"),
            cli::option("--top", "N", "journeys shown in detail (default 10)"),
        ],
    );
    let Some(dir) = args.value("--dir") else {
        args.usage_error("--dir is required");
    };
    let top: usize = args.parsed("--top", 10);

    let analysis = match analyze_spool_dir(&PathBuf::from(dir)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("zc_flame: {dir}: {e}");
            return ExitCode::FAILURE;
        }
    };

    let rendered = if args.has("--json") {
        render_json(&analysis, top)
    } else {
        render_text(&analysis, top)
    };

    match args.value("--out") {
        Some(path) => {
            if let Err(e) = std::fs::write(path, rendered.as_bytes()) {
                eprintln!("zc_flame: write {path}: {e}");
                return ExitCode::FAILURE;
            }
        }
        None => {
            // write_all, not println!: a downstream `| head` closing the
            // pipe early must end the program quietly, not panic it.
            use std::io::Write as _;
            let mut out = std::io::stdout().lock();
            let _ = out.write_all(rendered.as_bytes());
            let _ = out.write_all(b"\n");
        }
    }
    ExitCode::SUCCESS
}
