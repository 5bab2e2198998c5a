//! Experiment E1 — **Figure 5**: TTCP bandwidths for unoptimized sockets
//! and unoptimized CORBA, block sizes 4 KiB … 16 MiB.
//!
//! Paper anchors: raw TCP saturates ≈ 330 Mbit/s; CORBA saturates
//! ≈ 50 Mbit/s ("would not even use a Fast Ethernet to its limit").
//!
//! `--json` switches every section to the shared JSON format.

use zc_bench::report::series_json;
use zc_bench::{
    cli, measured_block_sizes, measured_series_traced, modeled_series, print_telemetry,
};
use zc_ttcp::{format_series_table, TtcpVersion};

fn main() {
    let args = cli::Args::parse(
        "fig5",
        "Figure 5: TTCP bandwidths for unoptimized sockets and CORBA, modeled and measured.",
        &[cli::JSON, cli::FULL, cli::NO_TRACE],
    );
    let traced = !args.has("--no-trace");
    let json = args.has("--json");
    let sizes = zc_simnet::paper_block_sizes();
    let modeled = [
        modeled_series(TtcpVersion::RawTcp, &sizes),
        modeled_series(TtcpVersion::CorbaStd, &sizes),
    ];
    let title_m = "Figure 5 — unoptimized sockets vs unoptimized CORBA (modeled, P-II 400 / GbE)";
    if json {
        println!("{}", series_json(title_m, &sizes, &modeled));
    } else {
        println!("{}", format_series_table(title_m, &sizes, &modeled));
    }

    let msizes = measured_block_sizes(args.has("--full"));
    let (raw, _) = measured_series_traced(TtcpVersion::RawTcp, &msizes, traced);
    let (std, telemetry) = measured_series_traced(TtcpVersion::CorbaStd, &msizes, traced);
    let title_h = "Figure 5 — same configurations executed on this host (real copies)";
    if json {
        println!("{}", series_json(title_h, &msizes, &[raw, std]));
    } else {
        println!("{}", format_series_table(title_h, &msizes, &[raw, std]));
        println!("paper anchors: raw TCP ≈ 330 Mbit/s, CORBA ≈ 50 Mbit/s at saturation");
    }
    if let Some(t) = telemetry {
        print_telemetry(
            "telemetry of the last measured CORBA run (disable with --no-trace)",
            &t,
            json,
        );
    }
}
