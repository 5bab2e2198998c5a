//! `orbbench`: one ORB benchmark over loopback TCP.
//!
//! Runs one workload through the public `zc_orb` API (server and client
//! ORB in this process, talking over the host's loopback interface),
//! verifies every reply, and prints every metric by name with its unit.
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}` — the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! See README.md for the workloads and metric definitions.

mod cli;
mod procstat;
mod report;
mod spans;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use zc_buffers::CopyLayer;
use zc_trace::Telemetry;

use cli::{Args, CliError, Workload};
use report::Metric;
use workload::{Inputs, Phase, Session};

#[global_allocator]
static ALLOC: procstat::CountingAlloc = procstat::CountingAlloc;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 21;
/// Untimed closed-loop calls before each measured phase, so connection,
/// pool and allocator state have settled.
const WARMUP: Duration = Duration::from_millis(500);

fn main() -> ExitCode {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(CliError::Help) => {
            println!("{}", cli::USAGE);
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("orbbench: {e}");
            ExitCode::from(1)
        }
    }
}

/// Checks every run must pass before it may report a number.
struct Checks {
    failures: Vec<String>,
}

impl Checks {
    fn require(&mut self, ok: bool, what: impl Into<String>) {
        if !ok {
            self.failures.push(what.into());
        }
    }

    fn phase(&mut self, workload: Workload, label: &str, p: &Phase, session: &Session) {
        self.require(p.attempted > 0, format!("{label}: no call attempted"));
        self.require(
            p.failed == 0,
            format!(
                "{label}: {} of {} replies failed or were wrong",
                p.failed, p.attempted
            ),
        );
        let bad = session.servant.bad_requests();
        self.require(
            bad == 0,
            format!("{label}: servant saw {bad} corrupted requests"),
        );
        let zc = session.refs[0].is_zero_copy();
        match workload {
            Workload::BulkZc => {
                self.require(zc, format!("{label}: bulk-zc did not negotiate zero-copy"));
                for layer in [CopyLayer::Marshal, CopyLayer::Demarshal] {
                    let bytes = p.counters.copy_bytes(layer);
                    self.require(
                        bytes == 0,
                        format!("{label}: bulk-zc copied {bytes} bytes at {}", layer.name()),
                    );
                }
            }
            Workload::BulkStd => {
                self.require(!zc, format!("{label}: bulk-std negotiated zero-copy"));
            }
            Workload::RpcShared => {}
        }
    }

    fn finite(&mut self, metrics: &[Metric]) {
        for x in metrics {
            self.require(x.value.is_finite(), format!("{} is not a number", x.name));
        }
    }
}

/// Run `SETUPS` set-ups (keeping the last session) and warm it up.
fn set_up(args: &Args, inputs: &Inputs, checks: &mut Checks) -> Result<(Session, f64), String> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut session = None;
    for _ in 0..SETUPS {
        // The previous session is torn down before the next is timed.
        drop(session.take());
        let (s, t) = Session::open(args.workload, inputs, None)?;
        times.push(t);
        session = Some(s);
    }
    let mut session = session.expect("SETUPS > 0");
    warm_up(args.workload, &mut session, inputs, checks);
    Ok((session, stats::median(&times)))
}

/// Untimed calls before a measured phase; their replies are checked too.
fn warm_up(workload: Workload, session: &mut Session, inputs: &Inputs, checks: &mut Checks) {
    let warm = workload::run_phase(session, inputs, WARMUP, false);
    checks.phase(workload, "warm-up", &warm, session);
}

fn spans_path(workload: Workload) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("spans-{}.tsv", workload.name()))
}

fn run(args: &Args) -> Result<bool, String> {
    let w = args.workload;
    let inputs = Inputs::generate(w, args.seed);
    let mut checks = Checks {
        failures: Vec::new(),
    };
    let (mut session, setup_s) = set_up(args, &inputs, &mut checks)?;
    println!(
        "orbbench workload={} seed={} seconds={} trace={} transport=loopback-tcp callers={} cpus={}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        w.callers(),
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    let measured = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let plain = workload::run_phase(
        &mut session,
        &inputs,
        Duration::from_secs_f64(measured),
        false,
    );
    checks.phase(w, "untraced", &plain, &session);
    drop(session);
    let e2e = report::end_to_end(&plain, setup_s);
    let tail = report::tail(w, &plain);
    println!(
        "latency_tail_us is p{} with {} of {} samples beyond it",
        tail.percentile,
        tail.beyond,
        plain.latencies_ns.len()
    );
    let rates: Vec<f64> = plain
        .slices
        .iter()
        .map(|s| s.calls as f64 / s.wall_s)
        .collect();
    let lo = rates.iter().copied().fold(f64::INFINITY, f64::min);
    let hi = rates.iter().copied().fold(0.0, f64::max);
    println!(
        "calls_per_s over {} slices: min {lo:.1} median {:.1} max {hi:.1}",
        rates.len(),
        stats::median(&rates)
    );
    print!("{}", report::human_lines(&e2e));
    if !args.trace {
        println!("(not gated: reported as per-layer metrics by --trace 1)");
        print!(
            "{}",
            report::human_lines(&report::untraced_extras(w, &plain))
        );
    }

    let (attempted, failed, result) = if args.trace {
        // The traced half gets a fresh session whose ORBs share one enabled
        // telemetry handle: that feeds the stage histograms and merged
        // transport totals, and its cost is part of the tracing overhead.
        let (mut ts, _) = Session::open(w, &inputs, Some(Telemetry::new_shared()))?;
        warm_up(w, &mut ts, &inputs, &mut checks);
        let traced = workload::run_phase(&mut ts, &inputs, Duration::from_secs_f64(measured), true);
        checks.phase(w, "traced", &traced, &ts);
        for (name, want) in [
            (spans::CALL, traced.attempted),
            (spans::DISPATCH, traced.verified()),
        ] {
            let got = traced.spans.iter().filter(|s| s.name == name).count() as u64;
            checks.require(
                got == want,
                format!("traced: {got} {name} spans for {want} calls"),
            );
        }
        let stages = ts.client_orb.telemetry_snapshot().metrics.stage_ns;
        drop(ts);
        let path = spans_path(w);
        write_spans(&path, &traced.spans)?;
        println!("wrote {} spans to {}", traced.spans.len(), path.display());
        let layers = report::per_layer(w, &plain, &traced, &stages);
        print!("{}", report::human_lines(&layers));
        (
            plain.attempted + traced.attempted,
            plain.failed + traced.failed,
            layers,
        )
    } else {
        (plain.attempted, plain.failed, e2e)
    };
    checks.finite(&result);
    let correct = checks.failures.is_empty();
    for f in &checks.failures {
        eprintln!("orbbench: check failed: {f}");
    }
    // A run that breaks a check reports failure instead of numbers.
    let shown: &[Metric] = if correct { &result } else { &[] };
    println!("{}", report::json_line(correct, attempted, failed, shown));
    Ok(correct)
}

fn write_spans(path: &Path, spans: &[spans::Span]) -> Result<(), String> {
    let dir = path.parent().expect("spans path has a parent");
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let file =
        std::fs::File::create(path).map_err(|e| format!("create {}: {e}", path.display()))?;
    spans::write_tsv(file, spans).map_err(|e| format!("write {}: {e}", path.display()))
}
