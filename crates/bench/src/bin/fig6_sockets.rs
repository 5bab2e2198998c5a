//! Experiment E2 — **Figure 6 (left)**: raw TCP over the conventional
//! stack vs the zero-copy socket interface.
//!
//! Paper observations: the zero-copy stack wins across the board, with a
//! large small-message gain from the cheaper read()/write() calls and
//! "very good throughput figures for transfers as small as a single
//! memory page".
//!
//! `--json` switches every section to the shared JSON format.

use zc_bench::report::series_json;
use zc_bench::{
    cli, measured_block_sizes, measured_series_traced, modeled_series, print_telemetry,
};
use zc_ttcp::{format_series_table, TtcpVersion};

fn main() {
    let args = cli::Args::parse(
        "fig6_sockets",
        "Figure 6 (left): raw TCP over the conventional vs the zero-copy socket stack.",
        &[cli::JSON, cli::FULL, cli::NO_TRACE],
    );
    let traced = !args.has("--no-trace");
    let json = args.has("--json");
    let sizes = zc_simnet::paper_block_sizes();
    let modeled = [
        modeled_series(TtcpVersion::RawTcp, &sizes),
        modeled_series(TtcpVersion::ZcTcp, &sizes),
    ];
    let title_m =
        "Figure 6 (left) — raw TCP: copying vs zero-copy sockets (modeled, P-II 400 / GbE)";
    if json {
        println!("{}", series_json(title_m, &sizes, &modeled));
    } else {
        println!("{}", format_series_table(title_m, &sizes, &modeled));
    }

    let msizes = measured_block_sizes(args.has("--full"));
    let (raw, _) = measured_series_traced(TtcpVersion::RawTcp, &msizes, traced);
    let (zc, telemetry) = measured_series_traced(TtcpVersion::ZcTcp, &msizes, traced);
    let title_h = "Figure 6 (left) — same configurations executed on this host";
    if json {
        println!("{}", series_json(title_h, &msizes, &[raw, zc]));
    } else {
        println!("{}", format_series_table(title_h, &msizes, &[raw, zc]));
    }
    if let Some(t) = telemetry {
        print_telemetry(
            "telemetry of the last measured zero-copy run (disable with --no-trace)",
            &t,
            json,
        );
    }
}
