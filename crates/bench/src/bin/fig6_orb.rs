//! Experiment E3 — **Figure 6 (right)**: the ORB comparison — standard vs
//! zero-copy MICO over both TCP stacks.
//!
//! Paper anchors: "for the zero-copy version of the ORB the large
//! overheads of CORBA are gone and the performance of the optimized
//! zero-copy ORB nearly matches the raw TCP-socket version"; the winning
//! combination (zero-copy ORB over zero-copy TCP) reaches ≈ 550 Mbit/s —
//! ten times the ≈ 50 Mbit/s of the original ORB over the standard stack.
//!
//! `--json` switches every section to the shared JSON format.

use zc_bench::report::series_json;
use zc_bench::{
    cli, measured_block_sizes, measured_series_traced, modeled_series, print_telemetry,
};
use zc_ttcp::{format_series_table, run_modeled, TtcpVersion};

fn main() {
    let args = cli::Args::parse(
        "fig6_orb",
        "Figure 6 (right): standard vs zero-copy ORB over both TCP stacks, modeled and measured.",
        &[cli::JSON, cli::FULL, cli::NO_TRACE],
    );
    let traced = !args.has("--no-trace");
    let json = args.has("--json");
    let sizes = zc_simnet::paper_block_sizes();
    let modeled = [
        modeled_series(TtcpVersion::CorbaStd, &sizes),
        modeled_series(TtcpVersion::CorbaStdOverZcTcp, &sizes),
        modeled_series(TtcpVersion::CorbaZcOverTcp, &sizes),
        modeled_series(TtcpVersion::CorbaZc, &sizes),
    ];
    let title_m = "Figure 6 (right) — ORB variants over both stacks (modeled, P-II 400 / GbE)";
    if json {
        println!("{}", series_json(title_m, &sizes, &modeled));
    } else {
        println!("{}", format_series_table(title_m, &sizes, &modeled));
        let big = 16 << 20;
        let slow = run_modeled(TtcpVersion::CorbaStd, big);
        let fast = run_modeled(TtcpVersion::CorbaZc, big);
        println!(
            "modeled improvement at 16M blocks: {slow:.0} → {fast:.0} Mbit/s ({:.1}×; paper: 50 → 550, 10×)\n",
            fast / slow
        );
    }

    let msizes = measured_block_sizes(args.has("--full"));
    let (s1, _) = measured_series_traced(TtcpVersion::CorbaStd, &msizes, traced);
    let (s2, _) = measured_series_traced(TtcpVersion::CorbaStdOverZcTcp, &msizes, traced);
    let (s3, _) = measured_series_traced(TtcpVersion::CorbaZcOverTcp, &msizes, traced);
    let (s4, telemetry) = measured_series_traced(TtcpVersion::CorbaZc, &msizes, traced);
    let title_h = "Figure 6 (right) — same configurations executed on this host";
    if json {
        println!("{}", series_json(title_h, &msizes, &[s1, s2, s3, s4]));
    } else {
        println!(
            "{}",
            format_series_table(title_h, &msizes, &[s1, s2, s3, s4])
        );
    }
    if let Some(t) = telemetry {
        print_telemetry(
            "telemetry of the last measured all-zero-copy run (disable with --no-trace)",
            &t,
            json,
        );
    }
}
