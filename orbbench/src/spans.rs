//! Benchmark-side spans: recorded around each call the benchmark makes into
//! a layer's public functions, kept in memory, joined across threads by the
//! call id the request carries, and written out when the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::sync::OnceLock;
use std::time::Instant;

/// Client: one whole call, `ObjectRef::request` through reply verification.
pub const CALL: &str = "bench.call";
/// Client: `ObjectRef::request` (locks the possibly shared connection).
pub const CONN_WAIT: &str = "core.conn_wait";
/// Client: `StaticRequest::arg`, every argument.
pub const MARSHAL: &str = "cdr.marshal";
/// Client: `StaticRequest::invoke`.
pub const INVOKE: &str = "core.invoke";
/// Derived: `invoke` start to servant entry.
pub const REQUEST_LEG: &str = "core.request_leg";
/// Derived: servant exit to `invoke` return.
pub const REPLY_LEG: &str = "core.reply_leg";
/// Server: the servant's `dispatch` body.
pub const DISPATCH: &str = "servant.dispatch";
/// Server: `ServerRequest::arg`, every argument.
pub const DEMARSHAL: &str = "cdr.demarshal";
/// Server: the servant's own work (the control: no ORB code runs here).
pub const WORK: &str = "servant.work";
/// Server: `ServerRequest::result`.
pub const REPLY_MARSHAL: &str = "cdr.reply_marshal";
/// Client: `Reply::result`.
pub const REPLY_DEMARSHAL: &str = "cdr.reply_demarshal";
/// Client: the benchmark's reply check.
pub const VERIFY: &str = "bench.verify";

/// Spans reported as per-layer metrics, in data-path order. (`bench.call`
/// is the end-to-end latency, and its children tile it.)
pub const REPORTED: [&str; 10] = [
    CONN_WAIT,
    MARSHAL,
    INVOKE,
    REQUEST_LEG,
    DISPATCH,
    DEMARSHAL,
    WORK,
    REPLY_MARSHAL,
    REPLY_LEG,
    REPLY_DEMARSHAL,
];

/// One timed interval. Spans of one call share `call`; `parent` names the
/// span (of the same call, on any thread) that caused this one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<&'static str>,
    pub call: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Nanoseconds on one process-wide monotonic clock, so spans from the
/// client and server threads are comparable.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Add the request and reply legs of every call that has both an
/// [`INVOKE`] span (client thread) and a [`DISPATCH`] span (server thread).
pub fn derive_legs(spans: &mut Vec<Span>) {
    let mut invoke = BTreeMap::new();
    let mut dispatch = BTreeMap::new();
    for s in spans.iter() {
        match s.name {
            INVOKE => invoke.insert(s.call, *s),
            DISPATCH => dispatch.insert(s.call, *s),
            _ => None,
        };
    }
    for (call, inv) in invoke {
        if let Some(d) = dispatch.get(&call) {
            let leg = |name, start_ns, end_ns| Span {
                name,
                parent: Some(CALL),
                call,
                start_ns,
                end_ns,
            };
            spans.push(leg(REQUEST_LEG, inv.start_ns, d.start_ns));
            spans.push(leg(REPLY_LEG, d.end_ns, inv.end_ns));
        }
    }
}

/// Per span name: every instance's self time and duration, in ns.
#[derive(Debug, Default)]
pub struct SpanStats {
    pub self_ns: Vec<u64>,
    pub dur_ns: Vec<u64>,
}

/// Self time of every span: its duration minus the part of its interval
/// that its children (same call, `parent` = its name) cover. Children may
/// come from other threads and may overlap each other.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SpanStats> {
    let mut by_call: BTreeMap<u64, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        by_call.entry(s.call).or_default().push(s);
    }
    let mut out: BTreeMap<&'static str, SpanStats> = BTreeMap::new();
    for group in by_call.values() {
        for s in group {
            let children: Vec<(u64, u64)> = group
                .iter()
                .filter(|c| c.parent == Some(s.name))
                .map(|c| (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            let stats = out.entry(s.name).or_default();
            stats.self_ns.push(s.dur() - union_len(children));
            stats.dur_ns.push(s.dur());
        }
    }
    out
}

/// Total length covered by a set of possibly overlapping intervals.
fn union_len(mut iv: Vec<(u64, u64)>) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Write spans as tab-separated `call name parent start_ns end_ns` rows.
pub fn write_tsv(out: impl Write, spans: &[Span]) -> io::Result<()> {
    let mut w = io::BufWriter::new(out);
    writeln!(w, "call\tname\tparent\tstart_ns\tend_ns")?;
    for s in spans {
        writeln!(
            w,
            "{}\t{}\t{}\t{}\t{}",
            s.call,
            s.name,
            s.parent.unwrap_or("-"),
            s.start_ns,
            s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<&'static str>, call: u64, a: u64, b: u64) -> Span {
        Span {
            name,
            parent,
            call,
            start_ns: a,
            end_ns: b,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_cross_thread_children() {
        let mut spans = vec![
            // Client thread, call 7.
            span(CALL, None, 7, 0, 1_000),
            span(CONN_WAIT, Some(CALL), 7, 0, 50),
            span(MARSHAL, Some(CALL), 7, 50, 100),
            span(INVOKE, Some(CALL), 7, 100, 900),
            // Server thread, call 7: a child of INVOKE recorded elsewhere.
            span(DISPATCH, Some(INVOKE), 7, 300, 700),
            span(DEMARSHAL, Some(DISPATCH), 7, 300, 350),
            span(WORK, Some(DISPATCH), 7, 350, 650),
            // Overlaps WORK by 20 ns: the union counts it once.
            span(REPLY_MARSHAL, Some(DISPATCH), 7, 630, 690),
            // Another call's server span must not count against call 7.
            span(DISPATCH, Some(INVOKE), 8, 100, 900),
        ];
        derive_legs(&mut spans);
        let st = self_times(&spans);
        let one = |name: &str| (st[name].self_ns[0], st[name].dur_ns[0]);
        assert_eq!(one(INVOKE), (400, 800));
        assert_eq!(one(DISPATCH), (10, 400));
        assert_eq!(one(WORK), (300, 300));
        // Legs are children of the call and lie inside INVOKE.
        assert_eq!(one(REQUEST_LEG), (200, 200));
        assert_eq!(one(REPLY_LEG), (200, 200));
        assert_eq!(one(CALL), (100, 1_000));
        // Call 8 has a dispatch but no invoke: no legs, full self time.
        assert_eq!(st[DISPATCH].self_ns[1], 800);
        assert_eq!(st[REQUEST_LEG].self_ns.len(), 1);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(INVOKE, None, 1, 100, 200),
            span(DISPATCH, Some(INVOKE), 1, 50, 150),
        ];
        assert_eq!(self_times(&spans)[INVOKE].self_ns, vec![50]);
    }

    #[test]
    fn tsv_has_one_row_per_span() {
        let mut buf = Vec::new();
        write_tsv(&mut buf, &[span(CALL, None, 3, 1, 2)]).unwrap();
        assert_eq!(
            String::from_utf8(buf).unwrap(),
            "call\tname\tparent\tstart_ns\tend_ns\n3\tbench.call\t-\t1\t2\n"
        );
    }
}
