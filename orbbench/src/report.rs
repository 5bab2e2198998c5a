//! Metric computation and output: aligned human-readable lines, then one
//! JSON object as the last line of standard output.

use std::fmt::Write as _;

use zc_buffers::CopyLayer;
use zc_trace::{Stage, StageSnapshots};

use crate::cli::Workload;
use crate::spans;
use crate::stats::{self, Tail};
use crate::workload::{Phase, Slice};

const MIB: f64 = (1 << 20) as f64;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// `a / b`, or 0 when there is nothing to divide by.
fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

pub fn tail(workload: Workload, p: &Phase) -> Tail {
    stats::tail(&p.latencies_ns, workload.tail_cap())
}

/// Median over the phase's slices of `f`.
fn per_slice(p: &Phase, f: impl Fn(&Slice) -> f64) -> f64 {
    stats::median(&p.slices.iter().map(f).collect::<Vec<_>>())
}

/// The gated end-to-end metrics of an untraced phase: set-up time and the
/// per-call costs that repeat exactly from run to run, copies and heap
/// allocations, over the whole phase.
pub fn end_to_end(p: &Phase, setup_s: f64) -> Vec<Metric> {
    vec![
        m("setup_s", setup_s, "s"),
        m(
            "copy_bytes_per_byte",
            ratio(
                p.counters.overhead_copy_bytes() as f64,
                p.payload_bytes as f64,
            ),
            "B/B",
        ),
        m(
            "allocs_per_call",
            ratio(p.counters.allocs.0 as f64, p.verified() as f64),
            "allocs/call",
        ),
    ]
}

/// End-to-end quantities reported with the per-layer metrics because they
/// cannot be gated. Wall-clock rates and latencies, and process CPU time
/// too, follow the load other tenants put on a shared host: they moved by
/// up to 2x between runs, slice medians notwithstanding. The peak RSS
/// follows where the allocator places 1 MiB buffers. Rates, CPU costs and
/// the median latency are medians over slices; the tail and the RSS cover
/// the whole phase.
pub fn untraced_extras(workload: Workload, p: &Phase) -> Vec<Metric> {
    vec![
        m(
            "goodput_mbit_s",
            per_slice(p, |s| ratio(s.payload_bytes as f64 * 8.0 / 1e6, s.wall_s)),
            "Mbit/s",
        ),
        m(
            "calls_per_s",
            per_slice(p, |s| ratio(s.calls as f64, s.wall_s)),
            "1/s",
        ),
        m(
            "latency_p50_us",
            per_slice(p, |s| s.latency_p50_ns as f64 / 1e3),
            "us",
        ),
        m(
            "latency_tail_us",
            tail(workload, p).value as f64 / 1e3,
            "us",
        ),
        m(
            "cpu_ns_per_byte",
            per_slice(p, |s| ratio(s.cpu_ns as f64, s.payload_bytes as f64)),
            "ns/B",
        ),
        m(
            "cpu_us_per_call",
            per_slice(p, |s| ratio(s.cpu_ns as f64 / 1e3, s.calls as f64)),
            "us",
        ),
        m(
            "peak_rss_mib",
            p.counters.usage.maxrss_kib as f64 / 1024.0,
            "MiB",
        ),
    ]
}

/// Per-layer metric name of a copy layer, e.g. `copy.socket_send_per_byte`.
pub fn copy_metric(layer: CopyLayer) -> String {
    format!("copy.{}_per_byte", layer.name().replace('-', "_"))
}

/// The per-layer metrics: spans, copy, transport and buffer counters and
/// stage histograms from the traced phase; process costs and
/// [`untraced_extras`] from the untraced phase, which the benchmark's own
/// span recording does not disturb.
pub fn per_layer(
    workload: Workload,
    plain: &Phase,
    traced: &Phase,
    stages: &StageSnapshots,
) -> Vec<Metric> {
    let mut out = untraced_extras(workload, plain);
    let span_stats = spans::self_times(&traced.spans);
    for name in spans::REPORTED {
        let (self_mean, p50) = match span_stats.get(name) {
            Some(s) => {
                let mut dur = s.dur_ns.clone();
                dur.sort_unstable();
                (
                    stats::mean(&s.self_ns),
                    stats::percentile(&dur, 50.0) as f64,
                )
            }
            None => (0.0, 0.0),
        };
        out.push(m(format!("{name}.self_us"), self_mean / 1e3, "us"));
        out.push(m(format!("{name}.p50_us"), p50 / 1e3, "us"));
    }
    let max_stall = traced.latencies_ns.last().copied().unwrap_or(0);
    out.push(m("core.max_stall_ms", max_stall as f64 / 1e6, "ms"));
    let total: u64 = traced.per_caller.iter().sum();
    let min_share = traced.per_caller.iter().min().copied().unwrap_or(0);
    out.push(m(
        "core.min_caller_share",
        ratio(min_share as f64, total as f64),
        "ratio",
    ));

    let c = &traced.counters;
    let payload = traced.payload_bytes as f64;
    let calls = traced.verified() as f64;
    for layer in CopyLayer::overhead_layers() {
        out.push(m(
            copy_metric(layer),
            ratio(c.copy_bytes(layer) as f64, payload),
            "B/B",
        ));
    }
    let t = &c.transport;
    out.push(m(
        "transport.frames_per_call",
        ratio(t.frames_sent as f64, calls),
        "frames/call",
    ));
    out.push(m(
        "transport.control_msgs_per_call",
        ratio(t.control_sent as f64, calls),
        "msgs/call",
    ));
    out.push(m(
        "transport.data_blocks_per_call",
        ratio(t.data_blocks_sent as f64, calls),
        "blocks/call",
    ));
    out.push(m(
        "transport.wire_bytes_per_byte",
        ratio(t.wire_bytes_sent as f64, payload),
        "B/B",
    ));
    out.push(m(
        "buffers.pool_reuse_ratio",
        ratio(c.pool.reuses as f64, (c.pool.fresh + c.pool.reuses) as f64),
        "ratio",
    ));
    out.push(m(
        "buffers.pool_retained_mib",
        c.pool.retained_bytes as f64 / MIB,
        "MiB",
    ));

    let pc = &plain.counters;
    let plain_calls = plain.verified() as f64;
    out.push(m(
        "proc.alloc_bytes_per_call",
        ratio(pc.allocs.1 as f64, plain_calls),
        "B/call",
    ));
    out.push(m(
        "proc.vcsw_per_call",
        ratio(pc.usage.nvcsw as f64, plain_calls),
        "csw/call",
    ));
    out.push(m(
        "proc.ivcsw_per_call",
        ratio(pc.usage.nivcsw as f64, plain_calls),
        "csw/call",
    ));
    out.push(m(
        "proc.minflt_per_call",
        ratio(pc.usage.minflt as f64, plain_calls),
        "faults/call",
    ));
    out.push(m(
        "proc.sys_cpu_share",
        ratio(pc.usage.sys_ns as f64, pc.usage.cpu_ns() as f64),
        "ratio",
    ));

    let rate = |p: &Phase| ratio(p.verified() as f64, p.wall_s);
    let cpu_per_call = |p: &Phase| ratio(p.counters.usage.cpu_ns() as f64, p.verified() as f64);
    out.push(m(
        "trace.overhead_pct",
        100.0 * (ratio(rate(plain), rate(traced)) - 1.0),
        "%",
    ));
    out.push(m(
        "trace.cpu_overhead_pct",
        100.0 * (ratio(cpu_per_call(traced), cpu_per_call(plain)) - 1.0),
        "%",
    ));
    for stage in Stage::ALL {
        out.push(m(
            format!("stage.{}.p50_ns", stage.name()),
            stages.get(stage).quantile(0.5) as f64,
            "ns",
        ));
    }
    let attempted = plain.attempted + traced.attempted;
    let failed = plain.failed + traced.failed;
    out.push(m(
        "error_rate",
        ratio(failed as f64, attempted as f64),
        "ratio",
    ));
    out
}

/// One aligned `name value unit` line per metric.
pub fn human_lines(metrics: &[Metric]) -> String {
    let mut s = String::new();
    for x in metrics {
        let _ = writeln!(s, "{:<34} {:>16.4} {}", x.name, x.value, x.unit);
    }
    s
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
/// Values print with every digit Rust's shortest round-trip form gives;
/// callers report a non-finite value as a failed check, never print it.
pub fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, x) in metrics.iter().enumerate() {
        let value = x.value;
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            s,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            x.name, x.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_shape() {
        let line = json_line(true, 3, 0, &[m("a", 1.25, "ms"), m("b", 2.0, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.25, \"unit\": \"ms\"}, \"b\": {\"value\": 2, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn copy_metric_names_have_no_dashes() {
        assert_eq!(
            copy_metric(CopyLayer::SocketSend),
            "copy.socket_send_per_byte"
        );
        assert_eq!(CopyLayer::overhead_layers().count(), 7);
    }
}
