//! Round-trip latency percentiles per TTCP version — the per-request view
//! that complements the bandwidth figures (the paper's related work [18]
//! measured exactly this for contemporary ORBs).
//!
//! ```text
//! cargo run -p zc-bench --bin latency --release [-- --rounds N] [--json]
//! ```

use zc_bench::cli;
use zc_bench::report::latency_json;
use zc_ttcp::{run_latency, TtcpVersion};

fn main() {
    let args = cli::Args::parse(
        "latency",
        "Round-trip latency percentiles per TTCP version on this host.",
        &[
            cli::option("--rounds", "N", "round trips per cell (default 200)"),
            cli::JSON,
        ],
    );
    let rounds = args.parsed("--rounds", 200);
    let json = args.has("--json");

    if !json {
        println!("## round-trip latency on this host ({rounds} rounds per cell)\n");
    }
    for &size in &[0usize, 4 << 10, 64 << 10, 1 << 20] {
        if !json {
            println!("message size {} bytes:", size);
        }
        for v in [
            TtcpVersion::RawTcp,
            TtcpVersion::ZcTcp,
            TtcpVersion::CorbaStd,
            TtcpVersion::CorbaZc,
        ] {
            let s = run_latency(v, size, rounds, rounds / 10 + 1);
            if json {
                println!("{}", latency_json(v, size, &s));
            } else {
                println!("  {:<26} {}", v.label(), s);
            }
        }
        if !json {
            println!();
        }
    }
    if !json {
        println!(
            "expected shape: zero-copy variants win by a margin that grows with\n\
             message size (per-byte copies sit on the round-trip critical path);\n\
             at size 0 the gap reflects per-request costs only."
        );
    }
}
