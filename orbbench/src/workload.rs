//! Inputs, the servant, and the closed-loop callers, all over the public
//! `zc_orb` API on loopback TCP.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use zc_buffers::{AlignedBuf, CopyLayer, ZcBytes};
use zc_cdr::{OctetSeq, ZcOctetSeq};
use zc_orb::{ObjectAdapterExt, ObjectRef, Orb, OrbResult, Servant, ServerHandle, ServerRequest};
use zc_trace::{Telemetry, TransportTotals};

use crate::cli::Workload;
use crate::procstat::{self, Usage};
use crate::spans::{self, now_ns, Span};
use crate::stats;

/// Bytes in each echoed block on the bulk workloads.
const BULK_LEN: usize = 1 << 20;
/// Distinct seeded inputs each run cycles through.
const INPUTS: usize = 1024;
const BULK_INPUTS: usize = 4;
/// The servant's emulated backend I/O on `rpc-shared`.
const RPC_BACKEND_WAIT: Duration = Duration::from_micros(100);
const PAGE: usize = 4096;
const OBJECT_KEY: &str = "bench-1";
const TYPE_ID: &str = "IDL:zcorba/Bench:1.0";

/// SplitMix64: the only source of randomness, seeded from `--seed`.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn fill(&mut self, buf: &mut [u8]) {
        for chunk in buf.chunks_mut(8) {
            let word = self.next_u64().to_le_bytes();
            chunk.copy_from_slice(&word[..chunk.len()]);
        }
    }
}

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

/// Page-stride fingerprint: length plus 8 bytes from every page, at an
/// offset that moves from page to page, so a lost, swapped or shifted page
/// changes it.
fn fingerprint(data: &[u8]) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, &(data.len() as u64).to_le_bytes());
    for (k, page) in data.chunks(PAGE).enumerate() {
        let off = (k * 523) % page.len().saturating_sub(8).max(1);
        let end = (off + 8).min(page.len());
        h = fnv1a(h, &page[off..end]);
    }
    h
}

/// The reply `lookup` returns: FNV-1a over key, bytes and sequence number.
fn rpc_checksum(prefix: u64, seq: u64) -> u64 {
    fnv1a(prefix, &seq.to_le_bytes())
}

fn rpc_prefix(key: &str, bytes: &[u8]) -> u64 {
    fnv1a(fnv1a(FNV_OFFSET, key.as_bytes()), bytes)
}

pub struct BulkInput {
    pub block: ZcOctetSeq,
    pub fingerprint: u64,
}

pub struct RpcInput {
    pub key: String,
    pub bytes: OctetSeq,
    /// Checksum state over `key` and `bytes`; the sequence number folds in
    /// per call.
    pub prefix: u64,
}

/// Every input a run sends, generated from the seed before any timing.
pub enum Inputs {
    Bulk(Vec<BulkInput>),
    Rpc(Vec<RpcInput>),
}

impl Inputs {
    pub fn generate(workload: Workload, seed: u64) -> Inputs {
        let mut rng = Rng::new(seed);
        if workload.is_bulk() {
            Inputs::Bulk(
                (0..BULK_INPUTS)
                    .map(|_| {
                        let mut buf = AlignedBuf::zeroed(BULK_LEN);
                        rng.fill(buf.as_mut_slice());
                        let block = ZcOctetSeq::from_zc(ZcBytes::from_aligned(buf));
                        let fingerprint = fingerprint(&block);
                        BulkInput { block, fingerprint }
                    })
                    .collect(),
            )
        } else {
            Inputs::Rpc(
                (0..INPUTS)
                    .map(|i| {
                        let len = 64 + (rng.next_u64() % (1024 - 64 + 1)) as usize;
                        let mut bytes = vec![0u8; len];
                        rng.fill(&mut bytes);
                        let key = format!("key-{:04x}-{i}", rng.next_u64() & 0xffff);
                        let prefix = rpc_prefix(&key, &bytes);
                        RpcInput {
                            key,
                            bytes: OctetSeq(bytes),
                            prefix,
                        }
                    })
                    .collect(),
            )
        }
    }

    /// Application payload bytes one verified call carries, both directions:
    /// the block twice on bulk; sequence number, key, octets and the
    /// checksum reply on rpc.
    pub fn payload_bytes(&self, call: u64) -> u64 {
        match self {
            Inputs::Bulk(_) => 2 * BULK_LEN as u64,
            Inputs::Rpc(v) => {
                let inp = &v[call as usize % v.len()];
                (8 + inp.key.len() + inp.bytes.len() + 8) as u64
            }
        }
    }
}

/// The benchmark's servant: `echo` returns the block it got; `lookup`
/// waits [`RPC_BACKEND_WAIT`] and returns a checksum of its arguments.
pub struct BenchServant {
    traced: AtomicBool,
    spans: Mutex<Vec<Span>>,
    /// Echo requests whose block did not match the seeded input.
    bad_requests: AtomicU64,
    expected: Vec<u64>,
}

impl BenchServant {
    fn new(inputs: &Inputs) -> BenchServant {
        let expected = match inputs {
            Inputs::Bulk(v) => v.iter().map(|b| b.fingerprint).collect(),
            Inputs::Rpc(_) => Vec::new(),
        };
        BenchServant {
            traced: AtomicBool::new(false),
            spans: Mutex::new(Vec::new()),
            bad_requests: AtomicU64::new(0),
            expected,
        }
    }

    pub fn bad_requests(&self) -> u64 {
        self.bad_requests.load(Ordering::Relaxed)
    }

    /// Start (or stop) recording server-side spans.
    fn set_traced(&self, on: bool) {
        // A mode flag only: the spans it guards sit behind their own mutex.
        self.traced.store(on, Ordering::Relaxed);
    }

    fn take_spans(&self) -> Vec<Span> {
        std::mem::take(
            &mut *self
                .spans
                .lock()
                .expect("span lock poisoned by a servant panic"),
        )
    }

    fn record(&self, call: u64, t: [u64; 4]) {
        let s = |name, parent, start_ns, end_ns| Span {
            name,
            parent: Some(parent),
            call,
            start_ns,
            end_ns,
        };
        let batch = [
            s(spans::DISPATCH, spans::INVOKE, t[0], t[3]),
            s(spans::DEMARSHAL, spans::DISPATCH, t[0], t[1]),
            s(spans::WORK, spans::DISPATCH, t[1], t[2]),
            s(spans::REPLY_MARSHAL, spans::DISPATCH, t[2], t[3]),
        ];
        self.spans
            .lock()
            .expect("span lock poisoned by a servant panic")
            .extend_from_slice(&batch);
    }

    fn echo(&self, req: &mut ServerRequest<'_>) -> OrbResult<()> {
        let t0 = now_ns();
        let call: u64 = req.arg()?;
        let block: ZcOctetSeq = req.arg()?;
        let t1 = now_ns();
        let want = self.expected[call as usize % self.expected.len()];
        if fingerprint(&block) != want {
            self.bad_requests.fetch_add(1, Ordering::Relaxed);
        }
        let t2 = now_ns();
        req.result(&block)?;
        if self.traced.load(Ordering::Relaxed) {
            self.record(call, [t0, t1, t2, now_ns()]);
        }
        Ok(())
    }

    fn lookup(&self, req: &mut ServerRequest<'_>) -> OrbResult<()> {
        let t0 = now_ns();
        let seq: u64 = req.arg()?;
        let key: String = req.arg()?;
        let bytes: OctetSeq = req.arg()?;
        let t1 = now_ns();
        std::thread::sleep(RPC_BACKEND_WAIT);
        let sum = rpc_checksum(rpc_prefix(&key, &bytes), seq);
        let t2 = now_ns();
        req.result(&sum)?;
        if self.traced.load(Ordering::Relaxed) {
            self.record(seq, [t0, t1, t2, now_ns()]);
        }
        Ok(())
    }
}

impl Servant for BenchServant {
    fn repo_id(&self) -> &'static str {
        TYPE_ID
    }

    fn dispatch(&self, op: &str, req: &mut ServerRequest<'_>) -> OrbResult<()> {
        match op {
            "echo" => self.echo(req),
            "lookup" => self.lookup(req),
            _ => req.bad_operation(op),
        }
    }
}

/// A server ORB, a client ORB and one object reference per caller.
pub struct Session {
    server_orb: Orb,
    pub client_orb: Orb,
    pub servant: Arc<BenchServant>,
    pub refs: Vec<ObjectRef>,
    /// Next call number per caller (call 0 was the set-up call).
    next_call: Vec<u64>,
    server: Option<ServerHandle>,
}

impl Session {
    /// Build both ORBs, connect every caller and make each caller's first
    /// call. Returns the session and the seconds from building the server
    /// ORB to the last caller's first verified reply.
    pub fn open(
        workload: Workload,
        inputs: &Inputs,
        telemetry: Option<Arc<Telemetry>>,
    ) -> Result<(Session, f64), String> {
        let t0 = Instant::now();
        let mut server_builder = Orb::builder().tcp().zc(workload != Workload::BulkStd);
        let mut client_builder = Orb::builder().tcp();
        if let Some(t) = telemetry {
            server_builder = server_builder.telemetry(Arc::clone(&t));
            client_builder = client_builder.telemetry(t);
        }
        let server_orb = server_builder.build();
        let servant = Arc::new(BenchServant::new(inputs));
        server_orb
            .adapter()
            .register(OBJECT_KEY, Arc::clone(&servant) as Arc<dyn Servant>);
        let server = server_orb.serve(0).map_err(|e| format!("serve: {e}"))?;
        let ior = server
            .ior_for(OBJECT_KEY, TYPE_ID)
            .map_err(|e| format!("ior: {e}"))?;
        let client_orb = client_builder.build();
        let mut refs = Vec::new();
        for caller in 0..workload.callers() {
            // Default resolve: every caller shares the cached connection.
            let r = client_orb
                .resolve(&ior)
                .map_err(|e| format!("resolve: {e}"))?;
            let first = one_call(&r, inputs, call_id(caller as u64, 0), None);
            if !first.ok {
                return Err(format!("first call of caller {caller} failed"));
            }
            refs.push(r);
        }
        let setup_s = t0.elapsed().as_secs_f64();
        Ok((
            Session {
                server_orb,
                client_orb,
                servant,
                next_call: vec![1; refs.len()],
                refs,
                server: Some(server),
            },
            setup_s,
        ))
    }

    /// Cumulative counters of both ORBs and of the process.
    fn counters(&self) -> Counters {
        let (c, s) = (
            self.client_orb.meter().snapshot(),
            self.server_orb.meter().snapshot(),
        );
        let (cp, sp) = (
            self.client_orb.pool().stats(),
            self.server_orb.pool().stats(),
        );
        Counters {
            copy: CopyLayer::ALL.map(|l| c.bytes(l) + s.bytes(l)),
            pool: PoolCounters {
                fresh: cp.fresh_allocations + sp.fresh_allocations,
                reuses: cp.reuses + sp.reuses,
                retained_bytes: cp.retained_bytes + sp.retained_bytes,
            },
            // The client and server share one telemetry handle when traced,
            // so these totals merge both ends' `ConnStats`.
            transport: self.client_orb.telemetry_snapshot().transport,
            usage: Usage::now(),
            allocs: procstat::allocs(),
        }
    }
}

impl Drop for Session {
    fn drop(&mut self) {
        self.refs.clear();
        if let Some(s) = self.server.take() {
            s.shutdown();
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
pub struct PoolCounters {
    pub fresh: u64,
    pub reuses: u64,
    /// A gauge, not a counter: bytes on both pools' free lists.
    pub retained_bytes: u64,
}

/// Counters of both ORBs and of the process; subtract two for a phase.
#[derive(Debug, Clone, Copy, Default)]
pub struct Counters {
    /// Copy bytes per [`CopyLayer`], indexed like `CopyLayer::ALL`.
    pub copy: [u64; 8],
    pub pool: PoolCounters,
    pub transport: TransportTotals,
    pub usage: Usage,
    /// `(allocation calls, bytes)`.
    pub allocs: (u64, u64),
}

impl Counters {
    fn since(&self, e: &Counters) -> Counters {
        let t = |f: fn(&TransportTotals) -> u64| f(&self.transport) - f(&e.transport);
        Counters {
            copy: std::array::from_fn(|i| self.copy[i] - e.copy[i]),
            pool: PoolCounters {
                fresh: self.pool.fresh - e.pool.fresh,
                reuses: self.pool.reuses - e.pool.reuses,
                retained_bytes: self.pool.retained_bytes,
            },
            transport: TransportTotals {
                control_sent: t(|x| x.control_sent),
                data_blocks_sent: t(|x| x.data_blocks_sent),
                frames_sent: t(|x| x.frames_sent),
                wire_bytes_sent: t(|x| x.wire_bytes_sent),
                ..TransportTotals::default()
            },
            usage: self.usage.since(&e.usage),
            allocs: (self.allocs.0 - e.allocs.0, self.allocs.1 - e.allocs.1),
        }
    }

    pub fn copy_bytes(&self, layer: CopyLayer) -> u64 {
        self.copy[layer as usize]
    }

    pub fn overhead_copy_bytes(&self) -> u64 {
        CopyLayer::overhead_layers()
            .map(|l| self.copy_bytes(l))
            .sum()
    }
}

/// Equal time slices each measured phase is cut into. Rates and CPU costs
/// are medians over them, so a burst of outside load that covers a few
/// slices does not move them.
pub const SLICES: u32 = 40;

/// One slice of a phase: the calls that completed in it and the process
/// CPU time it took.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub wall_s: f64,
    pub calls: u64,
    pub payload_bytes: u64,
    pub cpu_ns: u64,
    pub latency_p50_ns: u64,
}

/// What one measured phase produced.
pub struct Phase {
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Every call's wall time, ascending.
    pub latencies_ns: Vec<u64>,
    /// Verified calls per caller.
    pub per_caller: Vec<u64>,
    /// Payload bytes of the verified calls.
    pub payload_bytes: u64,
    pub counters: Counters,
    pub slices: Vec<Slice>,
    /// Client and server spans plus the derived legs (traced phases only).
    pub spans: Vec<Span>,
}

impl Phase {
    pub fn verified(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// Give up a caller after this many failures in a row.
const MAX_FAILURE_STREAK: u64 = 100;

/// Run every caller in a closed loop for `dur`, then gather what they did.
/// Meanwhile this thread samples process CPU time at every slice boundary.
pub fn run_phase(session: &mut Session, inputs: &Inputs, dur: Duration, traced: bool) -> Phase {
    session.servant.set_traced(traced);
    let before = session.counters();
    let start = Instant::now();
    let deadline = start + dur;
    let mut marks = vec![(now_ns(), Usage::now())];
    let results: Vec<CallerRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = session
            .refs
            .iter()
            .zip(session.next_call.iter_mut())
            .enumerate()
            .map(|(caller, (r, next))| {
                scope.spawn(move || caller_loop(r, inputs, caller as u64, next, deadline, traced))
            })
            .collect();
        for k in 1..=SLICES {
            let boundary = start + dur.mul_f64(f64::from(k) / f64::from(SLICES));
            std::thread::sleep(boundary.saturating_duration_since(Instant::now()));
            marks.push((now_ns(), Usage::now()));
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let counters = session.counters().since(&before);
    session.servant.set_traced(false);
    let mut spans = session.servant.take_spans();
    let mut phase = Phase {
        wall_s,
        attempted: 0,
        failed: 0,
        latencies_ns: Vec::new(),
        per_caller: Vec::new(),
        payload_bytes: 0,
        counters,
        slices: Vec::new(),
        spans: Vec::new(),
    };
    let mut records = Vec::new();
    for r in results {
        let verified = r.calls.iter().filter(|c| c.ok).count() as u64;
        phase.attempted += r.calls.len() as u64;
        phase.failed += r.calls.len() as u64 - verified;
        phase.per_caller.push(verified);
        phase.payload_bytes += r.calls.iter().map(|c| c.payload_bytes).sum::<u64>();
        records.extend_from_slice(&r.calls);
        spans.extend_from_slice(&r.spans);
    }
    phase.latencies_ns = records.iter().map(|c| c.latency_ns).collect();
    phase.latencies_ns.sort_unstable();
    records.sort_unstable_by_key(|c| c.end_ns);
    phase.slices = marks
        .windows(2)
        .map(|w| {
            let ((a, ua), (b, ub)) = (w[0], w[1]);
            let lo = records.partition_point(|c| c.end_ns < a);
            let hi = records.partition_point(|c| c.end_ns < b);
            let done = &records[lo..hi];
            let mut lat: Vec<u64> = done.iter().map(|c| c.latency_ns).collect();
            lat.sort_unstable();
            Slice {
                wall_s: (b - a) as f64 / 1e9,
                calls: done.iter().filter(|c| c.ok).count() as u64,
                payload_bytes: done.iter().map(|c| c.payload_bytes).sum(),
                cpu_ns: ub.since(&ua).cpu_ns(),
                latency_p50_ns: stats::percentile(&lat, 50.0),
            }
        })
        .collect();
    if traced {
        spans::derive_legs(&mut spans);
        phase.spans = spans;
    }
    phase
}

/// One call as its caller saw it.
#[derive(Debug, Clone, Copy)]
struct CallRecord {
    end_ns: u64,
    latency_ns: u64,
    ok: bool,
    /// Payload bytes carried (0 unless `ok`).
    payload_bytes: u64,
}

struct CallerRun {
    calls: Vec<CallRecord>,
    spans: Vec<Span>,
}

fn caller_loop(
    r: &ObjectRef,
    inputs: &Inputs,
    caller: u64,
    next: &mut u64,
    deadline: Instant,
    traced: bool,
) -> CallerRun {
    let mut run = CallerRun {
        calls: Vec::with_capacity(1 << 16),
        spans: Vec::with_capacity(if traced { 1 << 18 } else { 0 }),
    };
    let mut streak = 0;
    while Instant::now() < deadline && streak < MAX_FAILURE_STREAK {
        let call = call_id(caller, *next);
        *next += 1;
        let out = one_call(r, inputs, call, traced.then_some(&mut run.spans));
        streak = if out.ok { 0 } else { streak + 1 };
        run.calls.push(CallRecord {
            end_ns: out.end_ns,
            latency_ns: out.latency_ns,
            ok: out.ok,
            payload_bytes: if out.ok {
                inputs.payload_bytes(call)
            } else {
                0
            },
        });
    }
    run
}

/// Caller `caller`'s `n`-th call id; it travels in the request so server
/// spans join the client's.
fn call_id(caller: u64, n: u64) -> u64 {
    (caller << 48) | n
}

struct CallOutcome {
    ok: bool,
    latency_ns: u64,
    end_ns: u64,
}

/// One call of the workload's operation, verified against its input. With
/// `trace`, the client-side spans of the call are appended to it.
fn one_call(
    r: &ObjectRef,
    inputs: &Inputs,
    call: u64,
    trace: Option<&mut Vec<Span>>,
) -> CallOutcome {
    let traced = trace.is_some();
    let stamp = || if traced { now_ns() } else { 0 };
    let t0 = now_ns();
    let req = r.request(match inputs {
        Inputs::Bulk(_) => "echo",
        Inputs::Rpc(_) => "lookup",
    });
    let t1 = stamp();
    let (ok, t2, t3, t4) = match inputs {
        Inputs::Bulk(v) => {
            let input = &v[call as usize % v.len()];
            let req = req.arg(&call).and_then(|q| q.arg(&input.block));
            let t2 = stamp();
            let reply = req.and_then(|q| q.invoke());
            let t3 = stamp();
            let back = reply.and_then(|rep| rep.result::<ZcOctetSeq>());
            let t4 = now_ns();
            let ok =
                back.is_ok_and(|b| b.len() == BULK_LEN && fingerprint(&b) == input.fingerprint);
            (ok, t2, t3, t4)
        }
        Inputs::Rpc(v) => {
            let input = &v[call as usize % v.len()];
            let req = req
                .arg(&call)
                .and_then(|q| q.arg(&input.key))
                .and_then(|q| q.arg(&input.bytes));
            let t2 = stamp();
            let reply = req.and_then(|q| q.invoke());
            let t3 = stamp();
            let back = reply.and_then(|rep| rep.result::<u64>());
            let t4 = now_ns();
            let ok = back.is_ok_and(|sum| sum == rpc_checksum(input.prefix, call));
            (ok, t2, t3, t4)
        }
    };
    if let Some(out) = trace {
        let t5 = now_ns();
        let s = |name, parent, start_ns, end_ns| Span {
            name,
            parent,
            call,
            start_ns,
            end_ns,
        };
        out.extend_from_slice(&[
            s(spans::CALL, None, t0, t5),
            s(spans::CONN_WAIT, Some(spans::CALL), t0, t1),
            s(spans::MARSHAL, Some(spans::CALL), t1, t2),
            s(spans::INVOKE, Some(spans::CALL), t2, t3),
            s(spans::REPLY_DEMARSHAL, Some(spans::CALL), t3, t4),
            s(spans::VERIFY, Some(spans::CALL), t4, t5),
        ]);
    }
    CallOutcome {
        ok,
        latency_ns: t4 - t0,
        end_ns: t4,
    }
}
