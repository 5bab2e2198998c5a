//! End-to-end trace propagation: the `ZC_TRACE` service context carries the
//! client's trace id to the server, so both sides' flight-recorder spans
//! correlate; unknown service contexts are skipped, never rejected.

use std::sync::Arc;

use zcorba::cdr::ZcOctetSeq;
use zcorba::orb::{ObjectAdapterExt, Orb, OrbResult, Servant, ServerRequest};
use zcorba::trace::{EventKind, Telemetry, TraceEvent};
use zcorba::transport::{SimConfig, SimNetwork};

struct Echo;
impl Servant for Echo {
    fn repo_id(&self) -> &'static str {
        "IDL:it/Echo:1.0"
    }
    fn dispatch(&self, op: &str, req: &mut ServerRequest<'_>) -> OrbResult<()> {
        match op {
            "echo" => {
                let d: ZcOctetSeq = req.arg()?;
                req.result(&d)
            }
            "echo_std" => {
                let d: zcorba::cdr::OctetSeq = req.arg()?;
                req.result(&d)
            }
            other => req.bad_operation(other),
        }
    }
}

fn find(events: &[TraceEvent], kind: EventKind) -> Option<&TraceEvent> {
    events.iter().find(|e| e.kind == kind)
}

/// Run one traced invocation over a pair of ORBs sharing `telemetry`;
/// returns the recorded events.
fn one_traced_call(client: &Orb, server_orb: &Orb, telemetry: &Telemetry) -> Vec<TraceEvent> {
    server_orb.adapter().register("echo", Arc::new(Echo));
    let server = server_orb.serve(0).unwrap();
    let obj = client
        .resolve(&server.ior_for("echo", "IDL:it/Echo:1.0").unwrap())
        .unwrap();
    let payload = ZcOctetSeq::with_length(64 << 10);
    let back: ZcOctetSeq = obj
        .request("echo")
        .arg(&payload)
        .unwrap()
        .invoke()
        .unwrap()
        .result()
        .unwrap();
    assert_eq!(back.len(), 64 << 10);
    let events = telemetry.recorder().events();
    server.shutdown();
    events
}

fn assert_spans_correlate(events: &[TraceEvent]) {
    let sent = find(events, EventKind::RequestSent).expect("client span recorded");
    let received = find(events, EventKind::RequestReceived).expect("server span recorded");
    assert_ne!(sent.trace_id, 0, "requests are stamped with a trace id");
    assert_eq!(
        sent.trace_id, received.trace_id,
        "server span carries the client's trace id"
    );
    assert_ne!(
        sent.conn_id, received.conn_id,
        "the two spans come from the two connection endpoints"
    );
    let dispatch = find(events, EventKind::Dispatch).expect("server dispatch recorded");
    assert_eq!(dispatch.trace_id, sent.trace_id);
    let invoke = find(events, EventKind::Invoke).expect("client invoke recorded");
    assert_eq!(invoke.trace_id, sent.trace_id);
}

#[test]
fn trace_id_propagates_over_sim() {
    let telemetry = Telemetry::new_shared();
    let net = SimNetwork::new(SimConfig::zero_copy());
    let server_orb = Orb::builder()
        .sim(net.clone())
        .telemetry(Arc::clone(&telemetry))
        .build();
    let client = Orb::builder()
        .sim(net)
        .telemetry(Arc::clone(&telemetry))
        .build();
    let events = one_traced_call(&client, &server_orb, &telemetry);
    assert_spans_correlate(&events);
    assert!(find(&events, EventKind::DepositSent).is_some());
    assert!(find(&events, EventKind::DepositReceived).is_some());
}

#[test]
fn trace_id_propagates_over_tcp() {
    let telemetry = Telemetry::new_shared();
    let server_orb = Orb::builder()
        .tcp()
        .telemetry(Arc::clone(&telemetry))
        .build();
    let client = Orb::builder()
        .tcp()
        .telemetry(Arc::clone(&telemetry))
        .build();
    let events = one_traced_call(&client, &server_orb, &telemetry);
    assert_spans_correlate(&events);
}

#[test]
fn telemetry_snapshot_merges_all_sources() {
    let telemetry = Telemetry::new_shared();
    let net = SimNetwork::new(SimConfig::zero_copy());
    let server_orb = Orb::builder()
        .sim(net.clone())
        .telemetry(Arc::clone(&telemetry))
        .build();
    let client = Orb::builder()
        .sim(net)
        .telemetry(Arc::clone(&telemetry))
        .build();
    let _ = one_traced_call(&client, &server_orb, &telemetry);

    let snap = client.telemetry_snapshot();
    assert!(snap.enabled);
    assert!(snap.events_recorded > 0);
    assert!(snap.metrics.requests_sent >= 1);
    assert!(snap.metrics.requests_received >= 1);
    assert!(snap.metrics.trace_contexts_seen >= 1);
    assert!(
        snap.metrics.request_latency_ns.count >= 1,
        "request-latency histogram populated"
    );
    assert!(snap.metrics.deposit_block_bytes.count >= 1);
    assert!(snap.transport.bytes_sent > 0, "merged transport totals");
    assert!(snap.transport.wire_bytes_recv > 0);
    assert!(snap.copies.total_bytes() > 0, "merged copy meter");

    let table = snap.text_table();
    assert!(table.contains("zcorba telemetry"));
    assert!(table.contains("request_latency_ns"));
    let json = snap.json_lines();
    assert!(json.lines().count() > 5);
    assert!(json.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
}

/// A hand-rolled client sends a Request carrying an *unknown* service
/// context (plus a trace context): the server must skip the unknown one
/// per standard CORBA rules — the request succeeds — while still honoring
/// the trace id next to it.
#[test]
fn unknown_service_context_is_ignored_not_rejected() {
    use zcorba::cdr::{ByteOrder, CdrDecoder, CdrEncoder};
    use zcorba::giop::{
        GiopHeader, Handshake, MessageType, ReplyHeader, ReplyStatus, RequestHeader,
        ServiceContext, TraceContext, GIOP_HEADER_LEN,
    };
    use zcorba::transport::TransportCtx;

    let telemetry = Telemetry::new_shared();
    let net = SimNetwork::new(SimConfig::zero_copy());
    let server_orb = Orb::builder()
        .sim(net.clone())
        .telemetry(Arc::clone(&telemetry))
        .build();
    server_orb.adapter().register("echo", Arc::new(Echo));
    let server = server_orb.serve(0).unwrap();

    // Raw transport connection, no GiopConn on our side: we are the
    // "foreign peer" composing messages by hand.
    let mut conn = net.connect(server.port(), TransportCtx::new()).unwrap();
    conn.send_control(&[Handshake::foreign().encode().as_slice()])
        .unwrap();
    let _server_handshake = conn.recv_control().unwrap();

    let order = ByteOrder::Big; // the GIOP frame flags carry the order
    let mut header = RequestHeader::new(9, b"echo".to_vec(), "echo_std");
    header.response_expected = true;
    header.service_contexts.push(ServiceContext {
        id: 0x4646_0001, // not a zcorba context id
        data: vec![0xDE, 0xAD, 0xBE, 0xEF],
    });
    header.service_contexts.push(
        TraceContext {
            trace_id: 777,
            ..Default::default()
        }
        .to_context(),
    );
    let mut enc = CdrEncoder::new(order);
    header.marshal(&mut enc).unwrap();
    enc.align(8);
    enc.write_octet_seq(&[1, 2, 3, 4]); // echo_std's OctetSeq argument
    let body = enc.finish_stream();
    let giop_header = GiopHeader::new(
        zcorba::giop::GiopVersion::V1_2,
        order,
        MessageType::Request,
        body.len() as u32,
    );
    conn.send_control(&[&giop_header.encode(), &body]).unwrap();

    let raw = conn.recv_control().unwrap();
    let hdr_bytes: [u8; GIOP_HEADER_LEN] = raw[..GIOP_HEADER_LEN].try_into().unwrap();
    let hdr = GiopHeader::decode(&hdr_bytes).unwrap();
    assert_eq!(hdr.msg_type, MessageType::Reply);
    let mut dec = CdrDecoder::new(&raw[GIOP_HEADER_LEN..], hdr.flags.order);
    let reply = ReplyHeader::demarshal(&mut dec).unwrap();
    assert_eq!(reply.request_id, 9);
    assert_eq!(
        reply.status,
        ReplyStatus::NoException,
        "unknown service context must be skipped, not faulted"
    );

    // The trace context riding alongside the unknown one was honored.
    let events = telemetry.recorder().events();
    let received = find(&events, EventKind::RequestReceived).expect("server span");
    assert_eq!(received.trace_id, 777);
    assert_eq!(telemetry.metrics().snapshot().trace_contexts_seen, 1);
    server.shutdown();
}
