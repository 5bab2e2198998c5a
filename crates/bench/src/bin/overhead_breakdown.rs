//! Experiment E4 — the §5.2 instrumentation: *where* the standard ORB's
//! time goes.
//!
//! "We instrumented the ORB source code to pinpoint the sources of this
//! overhead. The test shows that the highest cost incurs due to data
//! copying and data inspection."
//!
//! The shared reporter (`zc_bench::report`) joins, per configuration
//! (standard / ZC-marshal-only / all-ZC), the measured request-span stage
//! latencies, the copy-meter bytes and the modeled P-II per-block budget.
//! `--json` emits the same breakdown as one JSON object; `--full` uses
//! paper-scale 1 MiB blocks over 16 MiB instead of the quick default;
//! `--tcp` measures over real loopback TCP instead of the simulated
//! kernel stacks (the span layer works identically over both).

use zc_bench::cli::{self, switch};
use zc_bench::{render_breakdown_json, render_breakdown_text, run_breakdown};
use zc_ttcp::TtcpTransport;

fn main() {
    let args = cli::Args::parse(
        "overhead_breakdown",
        "Where the standard ORB's time goes: stage latencies, copy bytes and the modeled budget.",
        &[
            cli::JSON,
            switch("--full", "paper-scale 1 MiB blocks over 16 MiB"),
            switch(
                "--tcp",
                "measure over loopback TCP instead of the simulated stacks",
            ),
        ],
    );
    let (block, total) = if args.has("--full") {
        (1 << 20, 16 << 20)
    } else {
        (256 << 10, 4 << 20)
    };
    let transport = if args.has("--tcp") {
        TtcpTransport::Tcp
    } else {
        TtcpTransport::Sim
    };
    let b = run_breakdown(block, total, transport);
    if args.has("--json") {
        println!("{}", render_breakdown_json(&b));
    } else {
        print!("{}", render_breakdown_text(&b));
        println!(
            "\n=> copy-bound stages (CDR marshal, socket copies) carry the standard\n\
             column and shrink to ~0 in the all-ZC column; the wire and the fixed\n\
             per-request work are what remains."
        );
    }
}
