//! Every `zc-bench` tool parses its command line strictly: an unknown flag
//! prints usage and exits 2, and `--help` prints usage and exits 0, both
//! before any work starts.

use std::path::PathBuf;
use std::process::{Command, Output};

const TOOLS: &[&str] = &[
    env!("CARGO_BIN_EXE_ablations"),
    env!("CARGO_BIN_EXE_bench_json"),
    env!("CARGO_BIN_EXE_cpu_utilization"),
    env!("CARGO_BIN_EXE_demo_server"),
    env!("CARGO_BIN_EXE_fig5"),
    env!("CARGO_BIN_EXE_fig6_orb"),
    env!("CARGO_BIN_EXE_fig6_sockets"),
    env!("CARGO_BIN_EXE_latency"),
    env!("CARGO_BIN_EXE_overhead_breakdown"),
    env!("CARGO_BIN_EXE_overload_curve"),
    env!("CARGO_BIN_EXE_sweep_csv"),
    env!("CARGO_BIN_EXE_transcoder"),
    env!("CARGO_BIN_EXE_zc_flame"),
    env!("CARGO_BIN_EXE_zc-top"),
];

/// An empty directory of its own for one run.
fn scratch_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_in(dir: &PathBuf, exe: &str, args: &[&str]) -> Output {
    Command::new(exe)
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run tool")
}

#[test]
fn bench_json_rejects_an_unknown_flag_and_writes_nothing() {
    let dir = scratch_dir("bench_json_bogus");
    let out = run_in(&dir, env!("CARGO_BIN_EXE_bench_json"), &["--bogus"]);
    assert_eq!(out.status.code(), Some(2));
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("--bogus") && stderr.contains("usage: bench_json"));
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "wrote {written:?}");
}

#[test]
fn every_tool_rejects_unknown_flags_and_answers_help() {
    let dir = scratch_dir("tools_help");
    for exe in TOOLS {
        let out = run_in(&dir, exe, &["--bogus"]);
        assert_eq!(out.status.code(), Some(2), "{exe} --bogus");
        assert!(String::from_utf8_lossy(&out.stderr).contains("usage: "));

        let out = run_in(&dir, exe, &["--help"]);
        assert_eq!(out.status.code(), Some(0), "{exe} --help");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            stdout.starts_with("usage: ") && stdout.contains("--help"),
            "{exe}: {stdout}"
        );
    }
    let written: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
    assert!(written.is_empty(), "--help or --bogus wrote {written:?}");
}
