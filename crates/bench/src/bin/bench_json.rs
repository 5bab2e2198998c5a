//! `bench_json` — one trajectory point of the continuous benchmark:
//! regenerate the sweeps, emit a schema-versioned `BENCH_*.json`, compare
//! against the newest prior snapshot and print a regression verdict.
//!
//! ```text
//! cargo run -p zc-bench --bin bench_json --release                # full point
//! cargo run -p zc-bench --bin bench_json -- --smoke               # CI-sized run
//! cargo run -p zc-bench --bin bench_json -- --advisory            # never fail the exit code
//! cargo run -p zc-bench --bin bench_json -- --out BENCH_PR5.json  # choose the file
//! cargo run -p zc-bench --bin bench_json -- --baseline old.json   # explicit baseline
//! ```
//!
//! Gates (see `zc_bench::trajectory`): a matching measured-goodput point
//! dropping more than 10 %, or a matching breakdown stage's p99 growing
//! more than 25 %, fails the run (exit 1) unless `--advisory`.

use std::path::PathBuf;

use zc_bench::cli;
use zc_bench::trajectory::{unix_ms, GoodputPoint, LatencyPoint};
use zc_bench::{
    compare, find_baseline, overload_sweep, parse_json, run_breakdown, OverloadParams,
    TrajectorySnapshot,
};
use zc_ttcp::{run_latency, run_measured, run_modeled, TtcpParams, TtcpTransport, TtcpVersion};

fn main() {
    let args = cli::Args::parse(
        "bench_json",
        "One trajectory point: regenerate the sweeps, write BENCH_*.json, compare to a baseline.",
        &[
            cli::switch("--smoke", "CI-sized run"),
            cli::switch(
                "--advisory",
                "report regressions but never fail the exit code",
            ),
            cli::option(
                "--out",
                "FILE",
                "the snapshot to write (default BENCH_PR9.json)",
            ),
            cli::option(
                "--baseline",
                "FILE",
                "compare against FILE instead of the newest prior",
            ),
        ],
    );
    let smoke = args.has("--smoke");
    let advisory = args.has("--advisory");
    let out_path = PathBuf::from(args.value("--out").unwrap_or("BENCH_PR9.json"));
    let label = out_path
        .file_stem()
        .and_then(|s| s.to_str())
        .and_then(|s| s.strip_prefix("BENCH_"))
        .unwrap_or("PR8")
        .to_string();

    // ---- goodput sweep: every version, sim transport, modeled + measured ----
    let sizes: &[usize] = if smoke {
        &[64 << 10, 1 << 20]
    } else {
        &[4 << 10, 64 << 10, 1 << 20, 4 << 20]
    };
    let mut goodput = Vec::new();
    for version in TtcpVersion::ALL {
        for &block in sizes {
            let total = if smoke {
                (block * 8).clamp(2 << 20, 16 << 20)
            } else {
                zc_bench::measured_total(block)
            };
            let mut p = TtcpParams::new(version, block, total);
            p.traced = true;
            let out = run_measured(&p);
            let t = out.telemetry.expect("traced run produces telemetry");
            goodput.push(GoodputPoint {
                version,
                transport: "sim",
                block_bytes: block,
                modeled_mbit_s: run_modeled(version, block),
                measured_mbit_s: out.mbit_s,
                overhead_copy_factor: out.overhead_copy_factor,
                spec_hit_rate: t.spec_hit_rate(),
            });
        }
    }

    // ---- latency points ----
    let rounds = if smoke { 60 } else { 200 };
    let mut latency = Vec::new();
    for version in [
        TtcpVersion::RawTcp,
        TtcpVersion::ZcTcp,
        TtcpVersion::CorbaStd,
        TtcpVersion::CorbaZc,
    ] {
        for &size in &[4usize << 10, 64 << 10] {
            latency.push(LatencyPoint {
                version,
                msg_bytes: size,
                stats: run_latency(version, size, rounds, rounds / 10 + 1),
            });
        }
    }

    // ---- §5.2 breakdown ----
    let (bd_block, bd_total) = if smoke {
        (256 << 10, 4 << 20)
    } else {
        (1 << 20, 16 << 20)
    };
    let breakdown = run_breakdown(bd_block, bd_total, TtcpTransport::Sim);

    // ---- overload curve: goodput vs offered load, seed vs admission ----
    let overload_params = if smoke {
        OverloadParams::smoke(42)
    } else {
        OverloadParams::full(42)
    };
    let overload = overload_sweep(&overload_params, |line| println!("overload: {line}"));

    let snapshot = TrajectorySnapshot {
        label,
        smoke,
        generated_unix_ms: unix_ms(),
        goodput,
        latency,
        breakdown,
        overload: Some(overload),
    };
    let json = snapshot.to_json();

    // The emitted document must parse with our own reader (schema validity).
    let current = parse_json(&json).unwrap_or_else(|e| {
        eprintln!("emitted JSON failed self-parse: {e}");
        std::process::exit(2);
    });
    if let Some(parent) = out_path.parent().filter(|p| !p.as_os_str().is_empty()) {
        std::fs::create_dir_all(parent).ok();
    }
    std::fs::write(&out_path, &json).unwrap_or_else(|e| {
        eprintln!("cannot write {}: {e}", out_path.display());
        std::process::exit(2);
    });
    println!("wrote {}", out_path.display());

    // ---- baseline comparison ----
    let baseline_path = args.value("--baseline").map(PathBuf::from).or_else(|| {
        let dir = out_path
            .parent()
            .filter(|p| !p.as_os_str().is_empty())
            .map(PathBuf::from)
            .unwrap_or_else(|| PathBuf::from("."));
        find_baseline(&dir, &out_path)
    });
    let Some(baseline_path) = baseline_path else {
        println!("no prior BENCH_*.json found; this point starts the trajectory");
        return;
    };
    let baseline_text = match std::fs::read_to_string(&baseline_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("cannot read baseline {}: {e}", baseline_path.display());
            std::process::exit(2);
        }
    };
    let baseline = match parse_json(&baseline_text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!(
                "baseline {} is not valid JSON: {e}",
                baseline_path.display()
            );
            std::process::exit(2);
        }
    };
    println!("baseline: {}", baseline_path.display());
    let verdict = compare(&current, &baseline);
    print!("{}", verdict.render());
    if !verdict.passed() && !advisory {
        std::process::exit(1);
    }
    if !verdict.passed() {
        println!("(advisory mode: regressions reported, exit code suppressed)");
    }
}
