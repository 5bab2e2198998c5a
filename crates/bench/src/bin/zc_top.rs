//! `zc-top` — a terminal dashboard over the in-band `_ZcTelemetry` object.
//!
//! Polls a live server's reserved management object over plain GIOP and
//! renders goodput, windowed load rates, copy-meter deltas, stage p99s,
//! breaker/degrade gauges and pool/queue watermarks as a refreshing frame.
//!
//! ```text
//! cargo run -p zc-bench --bin zc-top -- --connect 127.0.0.1:47117
//! cargo run -p zc-bench --bin zc-top -- --connect 127.0.0.1:47117 --once --json
//! ```
//!
//! Flags:
//! * `--connect HOST:PORT` (required) — the server to poll.
//! * `--interval-ms N` — poll interval (default 1000).
//! * `--frames N` — stop after N frames (default: run until killed).
//! * `--once` — take two closely-spaced polls, emit one summary, exit.
//! * `--json` — machine output (`zcorba-top/v1`), one object per frame.
//! * `--keys` — print the `--once --json` schema's required keys, one per
//!   line, and exit (no server needed); CI asserts against this list.
//!
//! Exit codes: 0 ok, 2 usage, 3 connect/poll failure.

use std::io::Write as _;
use std::time::{Duration, Instant};

use zc_bench::cli;
use zc_bench::top::{
    delta, render_frame, render_once_json, TopDelta, TopSample, REQUIRED_JSON_KEYS,
};
use zc_orb::{Orb, TelemetryClient};

fn poll(client: &TelemetryClient) -> Result<TopSample, String> {
    let text = client
        .snapshot_json()
        .map_err(|e| format!("snapshot_json poll failed: {e}"))?;
    TopSample::parse(&text)
}

fn main() {
    let args = cli::Args::parse(
        "zc-top",
        "A terminal dashboard over a live server's _ZcTelemetry object.",
        &[
            cli::option("--connect", "HOST:PORT", "the server to poll (required)"),
            cli::option("--interval-ms", "N", "poll interval (default 1000)"),
            cli::option(
                "--frames",
                "N",
                "stop after N frames (default: run until killed)",
            ),
            cli::switch("--once", "two closely spaced polls, one summary, exit"),
            cli::switch(
                "--json",
                "machine output (zcorba-top/v1), one object per frame",
            ),
            cli::switch(
                "--keys",
                "print the --once --json schema's required keys and exit",
            ),
        ],
    );
    // `--keys` needs no server: print the `--once --json` schema contract
    // (one key per line) for scripts and CI to assert against.
    if args.has("--keys") {
        for key in REQUIRED_JSON_KEYS {
            println!("{key}");
        }
        return;
    }
    let Some(endpoint) = args.value("--connect") else {
        args.usage_error("--connect is required");
    };
    let Some((host, port)) = endpoint.rsplit_once(':') else {
        eprintln!("zc-top: --connect wants HOST:PORT, got {endpoint:?}");
        std::process::exit(2);
    };
    let Ok(port) = port.parse::<u16>() else {
        eprintln!("zc-top: bad port in {endpoint:?}");
        std::process::exit(2);
    };
    let once = args.has("--once");
    let json = args.has("--json");
    let interval = Duration::from_millis(args.parsed("--interval-ms", 1000));
    let frames: u64 = args.parsed("--frames", 0);

    let orb = Orb::builder().tcp().build();
    let client = match TelemetryClient::connect(&orb, host, port) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("zc-top: cannot connect to {endpoint}: {e}");
            std::process::exit(3);
        }
    };

    let run = || -> Result<(), String> {
        if once {
            // Two closely-spaced polls so rates/deltas are live, not
            // lifetime averages.
            let first = poll(&client)?;
            let t0 = Instant::now();
            std::thread::sleep(Duration::from_millis(250));
            let second = poll(&client)?;
            let d = delta(&first, &second, t0.elapsed().as_secs_f64());
            if json {
                println!("{}", render_once_json(&second, &d, endpoint));
            } else {
                print!("{}", render_frame(&second, Some(&d), endpoint));
            }
            return Ok(());
        }
        let mut prev: Option<(TopSample, Instant)> = None;
        let mut n = 0u64;
        loop {
            let sample = poll(&client)?;
            let now = Instant::now();
            let d: Option<TopDelta> = prev
                .as_ref()
                .map(|(p, t)| delta(p, &sample, now.duration_since(*t).as_secs_f64()));
            if json {
                println!(
                    "{}",
                    render_once_json(&sample, &d.unwrap_or_default(), endpoint)
                );
            } else {
                // Clear + home, then the frame: a cheap full-screen refresh.
                print!(
                    "\x1b[2J\x1b[H{}",
                    render_frame(&sample, d.as_ref(), endpoint)
                );
                let _ = std::io::stdout().flush();
            }
            prev = Some((sample, now));
            n += 1;
            if frames != 0 && n >= frames {
                return Ok(());
            }
            std::thread::sleep(interval);
        }
    };

    if let Err(e) = run() {
        eprintln!("zc-top: {e}");
        std::process::exit(3);
    }
}
