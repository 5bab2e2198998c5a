//! The shared §5.2 reporter: one consistent rendering of the
//! stage-latency × copy-accounting breakdown, used by every harness
//! binary (text and `--json` views alike).
//!
//! "We instrumented the ORB source code to pinpoint the sources of this
//! overhead." — the breakdown joins three accounts of the same requests:
//!
//! 1. the **request-span stage clocks** (`zc_trace::Stage`) measured on
//!    this host;
//! 2. the **copy-meter bytes** per [`CopyLayer`];
//! 3. the **modeled stage budget** on the calibrated P-II testbed
//!    ([`zc_simnet::stage_budget`]).
//!
//! Columns are the paper's three ORB configurations: the standard ORB on
//! the standard stack, the zero-copy ORB on the standard stack ("ZC
//! marshal only" — the marshal loop is gone but the socket still copies),
//! and the all-zero-copy combination.

use std::fmt::Write as _;

use zc_buffers::{CopyLayer, CopySnapshot};
use zc_simnet::{stage_budget, Scenario, StageBudget};
use zc_trace::{HistogramSnapshot, Stage, StageSnapshots};
use zc_ttcp::{run_measured, LatencyStats, Series, TtcpParams, TtcpTransport, TtcpVersion};

/// The three §5.2 columns, in paper order.
pub const BREAKDOWN_CONFIGS: [(TtcpVersion, &str); 3] = [
    (TtcpVersion::CorbaStd, "standard"),
    (TtcpVersion::CorbaZcOverTcp, "zc-marshal-only"),
    (TtcpVersion::CorbaZc, "all-zc"),
];

/// Copy layers shown in the breakdown, in data-path order.
pub const BREAKDOWN_COPY_LAYERS: [CopyLayer; 7] = [
    CopyLayer::Marshal,
    CopyLayer::SocketSend,
    CopyLayer::KernelFrag,
    CopyLayer::KernelDefrag,
    CopyLayer::SocketRecv,
    CopyLayer::Demarshal,
    CopyLayer::DepositFallback,
];

/// One measured+modeled column of the breakdown table.
#[derive(Debug, Clone)]
pub struct BreakdownColumn {
    /// Which TTCP version this column ran.
    pub version: TtcpVersion,
    /// Short config name (`standard` / `zc-marshal-only` / `all-zc`).
    pub config: &'static str,
    /// Measured goodput on this host.
    pub mbit_s: f64,
    /// Overhead bytes copied per payload byte.
    pub overhead_copy_factor: f64,
    /// Receive-speculation hit rate (zero-copy stack only).
    pub spec_hit_rate: f64,
    /// Per-stage latency histograms from the request spans.
    pub stages: StageSnapshots,
    /// Data-block wire flight time.
    pub data_wire_ns: HistogramSnapshot,
    /// Copy-meter delta over the timed section.
    pub copies: CopySnapshot,
    /// Modeled per-stage seconds for one block on the paper testbed.
    pub modeled: StageBudget,
}

/// The full breakdown: three columns over one block size.
#[derive(Debug, Clone)]
pub struct Breakdown {
    /// Payload bytes per request.
    pub block_bytes: usize,
    /// Total payload moved per column.
    pub total_bytes: usize,
    /// Substrate the measured runs used.
    pub transport: TtcpTransport,
    /// One column per configuration of [`BREAKDOWN_CONFIGS`].
    pub columns: Vec<BreakdownColumn>,
}

/// Run the three configurations traced and collect the joined breakdown.
pub fn run_breakdown(
    block_bytes: usize,
    total_bytes: usize,
    transport: TtcpTransport,
) -> Breakdown {
    let columns = BREAKDOWN_CONFIGS
        .iter()
        .map(|&(version, config)| {
            let mut p = TtcpParams::new(version, block_bytes, total_bytes);
            p.transport = transport;
            p.traced = true;
            let out = run_measured(&p);
            let t = out.telemetry.expect("traced run produces telemetry");
            let (socket, orb) = version.to_modes();
            BreakdownColumn {
                version,
                config,
                mbit_s: out.mbit_s,
                overhead_copy_factor: out.overhead_copy_factor,
                spec_hit_rate: t.spec_hit_rate(),
                stages: t.metrics.stage_ns,
                data_wire_ns: t.metrics.data_wire_ns,
                copies: out.copies,
                modeled: stage_budget(&Scenario::on_testbed(socket, orb, block_bytes)),
            }
        })
        .collect();
    Breakdown {
        block_bytes,
        total_bytes,
        transport,
        columns,
    }
}

fn transport_name(t: TtcpTransport) -> &'static str {
    match t {
        TtcpTransport::Sim => "sim",
        TtcpTransport::Tcp => "tcp",
    }
}

/// Render the breakdown as an aligned text table: stage rows (p50 µs per
/// request), then copy-meter bytes per payload byte, then the modeled
/// per-block budget.
pub fn render_breakdown_text(b: &Breakdown) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "## §5.2 overhead breakdown — {} blocks, {} total, {} transport\n",
        zc_ttcp::report::human_size(b.block_bytes),
        zc_ttcp::report::human_size(b.total_bytes),
        transport_name(b.transport),
    );
    let _ = write!(out, "{:<24}", "");
    for c in &b.columns {
        let _ = write!(out, "{:>18}", c.config);
    }
    let _ = writeln!(out);

    let _ = writeln!(out, "-- measured stage p50 (µs/request) --");
    for stage in Stage::ALL {
        if b.columns.iter().all(|c| c.stages.get(stage).count == 0) {
            continue;
        }
        let _ = write!(out, "{:<24}", stage.name());
        for c in &b.columns {
            let h = c.stages.get(stage);
            if h.count == 0 {
                let _ = write!(out, "{:>18}", "-");
            } else {
                let _ = write!(out, "{:>18.1}", h.quantile(0.5) as f64 / 1e3);
            }
        }
        let _ = writeln!(out);
    }
    let _ = write!(out, "{:<24}", "data wire (p50 µs)");
    for c in &b.columns {
        if c.data_wire_ns.count == 0 {
            let _ = write!(out, "{:>18}", "-");
        } else {
            let _ = write!(out, "{:>18.1}", c.data_wire_ns.quantile(0.5) as f64 / 1e3);
        }
    }
    let _ = writeln!(out);

    let _ = writeln!(out, "-- copy-meter bytes per payload byte --");
    let payload = b.total_bytes as f64;
    for layer in BREAKDOWN_COPY_LAYERS {
        if b.columns.iter().all(|c| c.copies.bytes(layer) == 0) {
            continue;
        }
        let _ = write!(out, "{:<24}", layer.name());
        for c in &b.columns {
            let _ = write!(out, "{:>18.3}", c.copies.bytes(layer) as f64 / payload);
        }
        let _ = writeln!(out);
    }

    let _ = writeln!(out, "-- summary --");
    let _ = write!(out, "{:<24}", "goodput (Mbit/s)");
    for c in &b.columns {
        let _ = write!(out, "{:>18.1}", c.mbit_s);
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<24}", "copy factor (×payload)");
    for c in &b.columns {
        let _ = write!(out, "{:>18.3}", c.overhead_copy_factor);
    }
    let _ = writeln!(out);
    let _ = write!(out, "{:<24}", "spec hit rate");
    for c in &b.columns {
        let _ = write!(out, "{:>18.3}", c.spec_hit_rate);
    }
    let _ = writeln!(out);

    let _ = writeln!(out, "-- modeled per-block budget (ms, P-II 400 / GbE) --");
    for (name, pick) in MODELED_ROWS {
        let _ = write!(out, "{:<24}", name);
        for c in &b.columns {
            let _ = write!(out, "{:>18.3}", pick(&c.modeled) * 1e3);
        }
        let _ = writeln!(out);
    }
    out
}

type BudgetPick = fn(&StageBudget) -> f64;

/// The modeled rows, in causal order (names match the JSON keys).
pub const MODELED_ROWS: [(&str, BudgetPick); 7] = [
    ("marshal", |m| m.marshal_s),
    ("send-copy", |m| m.send_copy_s),
    ("wire", |m| m.wire_s),
    ("recv-copy", |m| m.recv_copy_s),
    ("demarshal", |m| m.demarshal_s),
    ("fixed", |m| m.fixed_s),
    ("total", |m| m.total()),
];

/// Render one breakdown column as a JSON object (used both by
/// `--json` binaries and the trajectory file).
pub fn breakdown_column_json(c: &BreakdownColumn, payload_bytes: usize) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"config\":\"{}\",\"version\":\"{}\",\"mbit_s\":{:.3},\
         \"overhead_copy_factor\":{:.4},\"spec_hit_rate\":{:.4},\"stages\":[",
        c.config,
        json_escape(c.version.label()),
        c.mbit_s,
        c.overhead_copy_factor,
        c.spec_hit_rate
    );
    let mut first = true;
    for (stage, h) in c.stages.iter() {
        if h.count == 0 {
            continue;
        }
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(
            out,
            "{{\"stage\":\"{}\",\"count\":{},\"mean_ns\":{:.0},\"p50_ns\":{},\"p99_ns\":{}}}",
            stage.name(),
            h.count,
            h.mean(),
            h.quantile(0.5),
            h.quantile(0.99)
        );
    }
    out.push_str("],\"copy_bytes\":{");
    let mut first = true;
    for layer in BREAKDOWN_COPY_LAYERS {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":{}", layer.name(), c.copies.bytes(layer));
    }
    let _ = write!(out, "}},\"payload_bytes\":{payload_bytes}");
    let w = &c.data_wire_ns;
    if w.count > 0 {
        let _ = write!(
            out,
            ",\"data_wire_ns\":{{\"count\":{},\"mean_ns\":{:.0},\"p50_ns\":{},\"p99_ns\":{}}}",
            w.count,
            w.mean(),
            w.quantile(0.5),
            w.quantile(0.99)
        );
    }
    if c.data_wire_ns.count != 0 {
        let _ = write!(
            out,
            ",\"data_wire_p50_ns\":{},\"data_wire_p99_ns\":{}",
            c.data_wire_ns.quantile(0.5),
            c.data_wire_ns.quantile(0.99)
        );
    }
    out.push_str(",\"modeled_ms\":{");
    let mut first = true;
    for (name, pick) in MODELED_ROWS {
        if !first {
            out.push(',');
        }
        first = false;
        let _ = write!(out, "\"{}\":{:.6}", name, pick(&c.modeled) * 1e3);
    }
    out.push_str("}}");
    out
}

/// Render the whole breakdown as one JSON object.
pub fn render_breakdown_json(b: &Breakdown) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"block_bytes\":{},\"total_bytes\":{},\"transport\":\"{}\",\"columns\":[",
        b.block_bytes,
        b.total_bytes,
        transport_name(b.transport)
    );
    for (i, c) in b.columns.iter().enumerate() {
        if i != 0 {
            out.push(',');
        }
        out.push_str(&breakdown_column_json(c, b.total_bytes));
    }
    out.push_str("]}");
    out
}

/// Render a figure series set as one JSON object (the `--json` view of
/// [`zc_ttcp::format_series_table`]).
pub fn series_json(title: &str, sizes: &[usize], series: &[Series]) -> String {
    let mut out = String::new();
    let _ = write!(
        out,
        "{{\"title\":\"{}\",\"block_bytes\":{:?},\"series\":[",
        json_escape(title),
        sizes
    );
    for (i, s) in series.iter().enumerate() {
        if i != 0 {
            out.push(',');
        }
        let _ = write!(out, "{{\"name\":\"{}\",\"mbit_s\":[", json_escape(&s.name));
        for (j, v) in s.values.iter().enumerate() {
            if j != 0 {
                out.push(',');
            }
            let _ = write!(out, "{v:.3}");
        }
        out.push_str("]}");
    }
    out.push_str("]}");
    out
}

/// Render one latency measurement as a JSON object.
pub fn latency_json(version: TtcpVersion, msg_bytes: usize, s: &LatencyStats) -> String {
    format!(
        "{{\"version\":\"{}\",\"msg_bytes\":{},\"rounds\":{},\"min_us\":{:.2},\
         \"p50_us\":{:.2},\"p90_us\":{:.2},\"p99_us\":{:.2},\"max_us\":{:.2},\"mean_us\":{:.2}}}",
        json_escape(version.label()),
        msg_bytes,
        s.rounds,
        s.min_us,
        s.p50_us,
        s.p90_us,
        s.p99_us,
        s.max_us,
        s.mean_us
    )
}

/// Print a telemetry snapshot in the shared format: JSON lines under
/// `--json`, the aligned text table (with the request-span stage section)
/// otherwise.
pub fn print_telemetry(label: &str, t: &zc_trace::OrbTelemetry, json: bool) {
    if json {
        print!("{}", t.json_lines());
    } else {
        println!("\n{label}:");
        print!("{}", t.text_table());
    }
}

/// Escape a string for embedding in JSON output.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn breakdown_shows_copy_stages_collapsing() {
        let b = run_breakdown(256 << 10, 2 << 20, TtcpTransport::Sim);
        assert_eq!(b.columns.len(), 3);
        let std_col = &b.columns[0];
        let zc_col = &b.columns[2];
        // CDR marshal bytes shrink to ~0 in the all-ZC column…
        assert!(std_col.copies.bytes(CopyLayer::Marshal) > 0);
        assert_eq!(zc_col.copies.bytes(CopyLayer::Marshal), 0);
        // …and the socket copies shrink to control-header dust (the bulk
        // payload crosses by reference; only small GIOP headers are copied).
        assert!(std_col.copies.bytes(CopyLayer::SocketSend) >= b.total_bytes as u64);
        assert!(zc_col.copies.bytes(CopyLayer::SocketSend) < (b.total_bytes / 100) as u64);
        // Stage clocks exist for both columns.
        assert!(std_col.stages.get(Stage::ClientMarshal).count > 0);
        assert!(zc_col.stages.get(Stage::ClientMarshal).count > 0);
        // Renderings carry the key sections.
        let text = render_breakdown_text(&b);
        assert!(text.contains("measured stage p50"));
        assert!(text.contains("copy-meter bytes"));
        assert!(text.contains("modeled per-block budget"));
        let json = render_breakdown_json(&b);
        assert!(json.contains("\"config\":\"standard\""));
        assert!(json.contains("\"config\":\"all-zc\""));
        assert!(json.contains("\"stage\":\"marshal\""));
        assert!(json.contains("\"modeled_ms\""));
    }

    #[test]
    fn json_escaping() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn series_json_shape() {
        let s = series_json("T", &[1024, 2048], &[Series::new("raw", vec![1.0, 2.0])]);
        assert!(s.contains("\"title\":\"T\""));
        assert!(s.contains("\"mbit_s\":[1.000,2.000]"));
    }
}
