//! Golden wire-format tests: the exact bytes of canonical GIOP artifacts.
//!
//! These pin the wire representation so that refactors of the encoder
//! cannot silently change what goes on the network — the property that
//! keeps independently built zcorba processes interoperable.

use zc_buffers::ZcBytes;
use zc_cdr::{ByteOrder, CdrDecoder, CdrEncoder};
use zc_giop::{
    begin_message, set_msg_size, ContextOut, GiopHeader, GiopVersion, Ior, MessageType,
    ReplyHeaderOut, ReplyHeaderRef, ReplyStatus, RequestHeader, RequestHeaderOut, RequestHeaderRef,
    ServiceContext, TraceContext, ZcHealthContext, GIOP_HEADER_LEN,
};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn golden_giop_header_big_endian() {
    let h = GiopHeader::new(
        GiopVersion::V1_2,
        ByteOrder::Big,
        MessageType::Request,
        0x1234,
    );
    // GIOP | 1 2 | flags=0 (BE, no frag) | type=0 | size BE
    assert_eq!(hex(&h.encode()), "47494f500102000000001234");
    assert_eq!(h.encode().len(), GIOP_HEADER_LEN);
}

#[test]
fn golden_giop_header_little_endian() {
    let h = GiopHeader::new(GiopVersion::V1_0, ByteOrder::Little, MessageType::Reply, 7);
    // flags=1 (LE), type=1, size LE
    assert_eq!(
        hex(&h.encode()),
        "47494f50010001010700000000000000"[..24].to_string()
    );
}

#[test]
fn golden_request_header_body() {
    // A canonical request: no service contexts, id 1, response expected,
    // 4-byte key "key\0" spelled out, operation "op".
    let h = RequestHeader {
        service_contexts: vec![],
        request_id: 1,
        response_expected: true,
        object_key: b"key".to_vec(),
        operation: "op".to_string(),
    };
    let mut enc = CdrEncoder::new(ByteOrder::Big);
    h.marshal(&mut enc).unwrap();
    let bytes = enc.finish_stream();
    // contexts count(4) | request id(4) | bool(1) + pad(3) |
    // key len(4) + "key" + pad(1) | op len(4)="op\0"(3)... | principal(4)
    let expected = concat!(
        "00000000", // 0 service contexts
        "00000001", // request id 1
        "01",       // response expected
        "000000",   // padding to 4
        "00000003", // key length 3
        "6b6579",   // "key"
        "00",       // pad to 4 for the op-length ulong
        "00000003", // operation length incl NUL
        "6f7000",   // "op\0"
        "00",       // pad (op ended at odd offset; ulong aligns)
        "00000000", // principal: empty sequence
    );
    assert_eq!(hex(&bytes), expected);
}

#[test]
fn golden_empty_message() {
    let enc = begin_message(
        Vec::new(),
        GiopVersion::V1_0,
        ByteOrder::Big,
        MessageType::CloseConnection,
    );
    let (mut f, _) = enc.finish();
    set_msg_size(&mut f, 0);
    assert_eq!(hex(&f), "47494f500100000500000000");
}

/// Argument bytes sent after the header part. Thirteen of them, so the
/// message does not end on an alignment boundary.
const ARGS: [u8; 13] = [
    0xA0, 0xA1, 0xA2, 0xA3, 0xA4, 0xA5, 0xA6, 0xA7, 0xA8, 0xA9, 0xAA, 0xAB, 0xAC,
];

fn trace() -> TraceContext {
    TraceContext {
        trace_id: 0x1122_3344_5566_7788,
        sent_at_ns: 0x0102_0304_0506_0708,
        journey_id: 0xAB_CDEF,
        attempt: 2,
        cause: 1,
    }
}

fn health() -> ZcHealthContext {
    ZcHealthContext {
        spec_hits: 1000,
        spec_misses: 7,
    }
}

/// A Request as the connection sends it: the header part encoded in
/// place behind the GIOP header, then the argument bytes.
fn encode_request(order: ByteOrder) -> Vec<u8> {
    let blocks = [
        ZcBytes::zeroed(1 << 20),
        ZcBytes::zeroed(0),
        ZcBytes::zeroed(4096),
    ];
    let contexts = [
        Some(ContextOut::Deposits(&blocks)),
        Some(ContextOut::Trace(trace())),
        Some(ContextOut::Health(health())),
    ];
    let mut enc = begin_message(Vec::new(), GiopVersion::V1_2, order, MessageType::Request);
    RequestHeaderOut {
        contexts: &contexts,
        request_id: 42,
        response_expected: true,
        object_key: b"bench-1",
        operation: "lookup",
    }
    .marshal(&mut enc);
    enc.align(8);
    let (mut head, _) = enc.finish();
    set_msg_size(&mut head, ARGS.len());
    [&head[..], &ARGS].concat()
}

/// A Reply as the connection sends it (contexts in reply order: manifest,
/// health, then the trace echo).
fn encode_reply(order: ByteOrder) -> Vec<u8> {
    let blocks = [ZcBytes::zeroed(1 << 20)];
    let contexts = [
        Some(ContextOut::Deposits(&blocks)),
        Some(ContextOut::Health(health())),
        Some(ContextOut::Trace(TraceContext {
            trace_id: 0x1122_3344_5566_7788,
            sent_at_ns: 0x0102_0304_0506_0708,
            ..Default::default()
        })),
    ];
    let mut enc = begin_message(Vec::new(), GiopVersion::V1_2, order, MessageType::Reply);
    ReplyHeaderOut {
        contexts: &contexts,
        request_id: 42,
        status: ReplyStatus::NoException,
    }
    .marshal(&mut enc);
    enc.align(8);
    let (mut head, _) = enc.finish();
    set_msg_size(&mut head, 5);
    [&head[..], &ARGS[..5]].concat()
}

// Wire bytes of the two messages above as the previous, copying encoder
// produced them (owned header + service-context list, framed by copying
// header and body into one buffer). The context data is a native-order
// encapsulation whatever the message order, so these fixtures assume a
// little-endian host.
const REQUEST_BE: &str = concat!(
    "47494f5001020000000000ad000000035a43000100000020010000000300000000001000000000000000000000000000",
    "00100000000000005a43000300000028010000000000000088776655443322110807060504030201efcdab0000000000",
    "01020000000000005a430004000000180100000000000000e80300000000000007000000000000000000002a01000000",
    "0000000762656e63682d3100000000076c6f6f6b7570000000000000a0a1a2a3a4a5a6a7a8a9aaabac",
);
const REQUEST_LE: &str = concat!(
    "47494f5001020100ad000000030000000100435a20000000010000000300000000001000000000000000000000000000",
    "00100000000000000300435a28000000010000000000000088776655443322110807060504030201efcdab0000000000",
    "01020000000000000400435a180000000100000000000000e80300000000000007000000000000002a00000001000000",
    "0700000062656e63682d3100070000006c6f6f6b7570000000000000a0a1a2a3a4a5a6a7a8a9aaabac",
);
const REPLY_BE: &str = concat!(
    "47494f50010200010000007d000000035a43000100000010010000000100000000001000000000005a43000400000018",
    "0100000000000000e80300000000000007000000000000005a4300030000002801000000000000008877665544332211",
    "0807060504030201000000000000000000000000000000000000002a0000000000000000a0a1a2a3a4",
);
const REPLY_LE: &str = concat!(
    "47494f50010201017d000000030000000100435a10000000010000000100000000001000000000000400435a18000000",
    "0100000000000000e80300000000000007000000000000000300435a2800000001000000000000008877665544332211",
    "0807060504030201000000000000000000000000000000002a0000000000000000000000a0a1a2a3a4",
);

#[test]
fn golden_request_with_zcorba_contexts() {
    if ByteOrder::native() != ByteOrder::Little {
        return;
    }
    assert_eq!(hex(&encode_request(ByteOrder::Big)), REQUEST_BE);
    assert_eq!(hex(&encode_request(ByteOrder::Little)), REQUEST_LE);
}

#[test]
fn golden_reply_with_zcorba_contexts() {
    if ByteOrder::native() != ByteOrder::Little {
        return;
    }
    assert_eq!(hex(&encode_reply(ByteOrder::Big)), REPLY_BE);
    assert_eq!(hex(&encode_reply(ByteOrder::Little)), REPLY_LE);
}

fn body_of(msg: &[u8]) -> (&[u8], ByteOrder) {
    let hdr = GiopHeader::decode(&msg[..GIOP_HEADER_LEN].try_into().unwrap()).unwrap();
    assert_eq!(hdr.msg_size as usize, msg.len() - GIOP_HEADER_LEN);
    (&msg[GIOP_HEADER_LEN..], hdr.flags.order)
}

#[test]
fn golden_messages_decode_in_place() {
    for order in [ByteOrder::Big, ByteOrder::Little] {
        let msg = encode_request(order);
        let (body, wire_order) = body_of(&msg);
        assert_eq!(wire_order, order);
        let mut dec = CdrDecoder::new(body, order);
        let h = RequestHeaderRef::decode(&mut dec).unwrap();
        assert_eq!(h.request_id, 42);
        assert!(h.response_expected);
        assert_eq!(h.object_key, b"bench-1");
        assert_eq!(h.operation, "lookup");
        let m = h.contexts.deposits.unwrap();
        assert_eq!(m.lengths().collect::<Vec<_>>(), vec![1 << 20, 0, 4096]);
        assert_eq!(h.contexts.trace, Some(trace()));
        assert_eq!(h.contexts.health, Some(health()));
        dec.align(8).unwrap();
        assert_eq!(dec.read_raw(ARGS.len()).unwrap(), ARGS);

        let msg = encode_reply(order);
        let (body, _) = body_of(&msg);
        let mut dec = CdrDecoder::new(body, order);
        let h = ReplyHeaderRef::decode(&mut dec).unwrap();
        assert_eq!(h.request_id, 42);
        assert_eq!(h.status, ReplyStatus::NoException);
        assert_eq!(h.contexts.deposits.unwrap().total_bytes(), 1 << 20);
        assert_eq!(h.contexts.trace.unwrap().journey_id, 0);
        assert_eq!(h.contexts.health, Some(health()));
    }
}

#[test]
fn unknown_service_context_is_skipped_by_the_borrowed_decode() {
    // A foreign peer's context (OMG-style id, opaque 13-byte data) sits
    // between ours; decoding skips it and still finds every known field.
    let mut h = RequestHeader::new(7, b"obj".to_vec(), "ping");
    h.service_contexts.push(ServiceContext {
        id: 0x4F4D_4701,
        data: vec![0x5A; 13],
    });
    h.service_contexts.push(trace().to_context());
    for order in [ByteOrder::Big, ByteOrder::Little] {
        let mut enc = CdrEncoder::new(order);
        h.marshal(&mut enc).unwrap();
        enc.align(8);
        enc.write_u32(0xFEED_F00D);
        let bytes = enc.finish_stream();
        let mut dec = CdrDecoder::new(&bytes, order);
        let back = RequestHeaderRef::decode(&mut dec).unwrap();
        assert_eq!(back.request_id, 7);
        assert_eq!(back.object_key, b"obj");
        assert_eq!(back.operation, "ping");
        assert!(back.contexts.deposits.is_none());
        assert!(back.contexts.health.is_none());
        assert_eq!(back.contexts.trace, Some(trace()));
        dec.align(8).unwrap();
        assert_eq!(dec.read_u32().unwrap(), 0xFEED_F00D);
    }
}

#[test]
fn golden_ior_string_is_stable() {
    // The IOR string of a fixed reference must never change (users persist
    // IOR strings in files and naming services).
    let ior = Ior::new_iiop("IDL:g/X:1.0", "h", 1, b"k");
    let s = ior.to_ior_string();
    // Re-parsing and restringifying is the identity.
    assert_eq!(Ior::from_ior_string(&s).unwrap().to_ior_string(), s);
    // And the exact text is pinned (native little-endian encapsulation).
    if ByteOrder::native() == ByteOrder::Little {
        assert_eq!(
            s,
            "IOR:010000000c00000049444c3a672f583a312e3000010000000000000011000000010102000200000068000100010000006b"
        );
    }
}

#[test]
fn golden_handshake_frame() {
    // Handshake bytes for a fixed declaration (must stay parseable by old
    // peers; pin the layout).
    let h = zc_giop::Handshake {
        byte_order: ByteOrder::Little,
        word_size: 8,
        page_size: 4096,
        arch: "x".to_string(),
        zc_supported: true,
    };
    let bytes = h.encode();
    assert_eq!(&bytes[..4], b"ZCH1");
    assert_eq!(bytes[4], 1, "LE flag");
    assert_eq!(bytes[5], 8, "word size");
    assert_eq!(bytes[6], 1, "zc flag");
    // page size LE at offset 8 (after 1 pad byte to align the ulong)
    assert_eq!(&bytes[8..12], &4096u32.to_le_bytes());
}
