//! Property tests for the ORB: RPC identity under arbitrary payloads and
//! configurations, and server survival under arbitrary wire garbage.

use std::sync::Arc;

use proptest::prelude::*;

use zc_buffers::{AlignedBuf, ZcBytes};
use zc_cdr::{OctetSeq, ZcOctetSeq};
use zc_orb::{ObjectAdapterExt, Orb, OrbResult, Servant, ServerRequest};
use zc_transport::{SimConfig, SimNetwork, TransportCtx};

struct Mirror;
impl Servant for Mirror {
    fn repo_id(&self) -> &'static str {
        "IDL:prop/Mirror:1.0"
    }
    fn dispatch(&self, op: &str, req: &mut ServerRequest<'_>) -> OrbResult<()> {
        match op {
            // mirrors a mixed-signature request back verbatim
            "mirror" => {
                let nums: Vec<i32> = req.arg()?;
                let blob: ZcOctetSeq = req.arg()?;
                let text: String = req.arg()?;
                let std_blob: OctetSeq = req.arg()?;
                let flag: bool = req.arg()?;
                req.result(&nums)?;
                req.out(&blob)?;
                req.out(&text)?;
                req.out(&std_blob)?;
                req.out(&flag)
            }
            other => req.bad_operation(other),
        }
    }
}

/// Each frame of a fragmented GIOP message as one owned buffer (header
/// then body), ready to be mutated like a hostile peer would.
fn fragment_frames(
    version: zc_giop::GiopVersion,
    order: zc_cdr::ByteOrder,
    msg_type: zc_giop::MessageType,
    body: &[u8],
    max_body: usize,
) -> Vec<Vec<u8>> {
    zc_giop::fragments(version, order, msg_type, [body, &[]], max_body)
        .map(|(header, [a, b])| [&header[..], a, b].concat())
        .collect()
}

fn fixture(cfg: SimConfig, zc: bool) -> (zc_orb::ObjectRef, zc_orb::ServerHandle, Orb, SimNetwork) {
    let net = SimNetwork::new(cfg);
    let server_orb = Orb::builder().sim(net.clone()).zc(zc).build();
    server_orb.adapter().register("mirror", Arc::new(Mirror));
    let server = server_orb.serve(0).unwrap();
    let client = Orb::builder().sim(net.clone()).zc(zc).build();
    let obj = client
        .resolve(&server.ior_for("mirror", "IDL:prop/Mirror:1.0").unwrap())
        .unwrap();
    (obj, server, client, net)
}

fn configs() -> impl Strategy<Value = (SimConfig, bool)> {
    prop_oneof![
        Just((SimConfig::copying(), false)),
        Just((SimConfig::copying(), true)),
        Just((SimConfig::zero_copy(), true)),
        Just((SimConfig::zero_copy(), false)),
        (0.3f64..1.0).prop_map(|p| (SimConfig::zero_copy_with_speculation(p), true)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A mixed-signature RPC is the identity for arbitrary values under
    /// every stack/negotiation configuration.
    #[test]
    fn prop_rpc_identity(
        (cfg, zc) in configs(),
        nums in proptest::collection::vec(any::<i32>(), 0..50),
        blob_bytes in proptest::collection::vec(any::<u8>(), 0..30_000),
        text in "\\PC{0,100}",
        std_bytes in proptest::collection::vec(any::<u8>(), 0..5_000),
        flag: bool,
    ) {
        let (obj, _server, _client, _net) = fixture(cfg, zc);
        let blob = {
            let mut b = AlignedBuf::with_capacity(blob_bytes.len());
            b.extend_from_slice(&blob_bytes);
            ZcOctetSeq::from_zc(ZcBytes::from_aligned(b))
        };
        let reply = obj
            .request("mirror")
            .arg(&nums).unwrap()
            .arg(&blob).unwrap()
            .arg(&text).unwrap()
            .arg(&OctetSeq(std_bytes.clone())).unwrap()
            .arg(&flag).unwrap()
            .invoke()
            .unwrap();
        let mut r = reply.results();
        prop_assert_eq!(r.next::<Vec<i32>>().unwrap(), nums);
        let back_blob: ZcOctetSeq = r.next().unwrap();
        prop_assert_eq!(&back_blob[..], &blob_bytes[..]);
        prop_assert_eq!(r.next::<String>().unwrap(), text);
        prop_assert_eq!(r.next::<OctetSeq>().unwrap().0, std_bytes);
        prop_assert_eq!(r.next::<bool>().unwrap(), flag);
    }

    /// Arbitrary garbage thrown at a live server never takes it down.
    #[test]
    fn prop_server_survives_garbage(
        frames in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..128), 1..5),
    ) {
        let (obj, server, _client, net) = fixture(SimConfig::zero_copy(), true);
        {
            let mut raw = net.connect(server.port(), TransportCtx::new()).unwrap();
            for f in &frames {
                if raw.send_control(&[f.as_slice()]).is_err() {
                    break;
                }
            }
            // also try garbage on the data lane
            let _ = raw.send_data(&ZcBytes::zeroed(64));
        }
        // the healthy connection still works
        let reply = obj
            .request("mirror")
            .arg(&vec![1i32]).unwrap()
            .arg(&ZcOctetSeq::with_length(8)).unwrap()
            .arg(&"ok".to_string()).unwrap()
            .arg(&OctetSeq(vec![2])).unwrap()
            .arg(&true).unwrap()
            .invoke()
            .unwrap();
        prop_assert_eq!(reply.results().next::<Vec<i32>>().unwrap(), vec![1i32]);
    }

    /// Near-valid GIOP: a correctly handshaken connection sending *real*
    /// request frames with random byte flips or a truncation never panics
    /// the server loop — corruption lands deep in the header/body decoders,
    /// not just at the magic check.
    #[test]
    fn prop_server_survives_mutated_request_streams(
        payload in proptest::collection::vec(any::<u8>(), 0..2048),
        flips in proptest::collection::vec((any::<usize>(), 1u8..=255u8), 1..8),
        cut in any::<usize>(),
        do_truncate: bool,
    ) {
        use zc_cdr::{ByteOrder, CdrEncoder};
        use zc_giop::{GiopVersion, Handshake, MessageType, RequestHeader};

        let (obj, server, _client, net) = fixture(SimConfig::zero_copy(), true);
        {
            let mut raw = net.connect(server.port(), TransportCtx::new()).unwrap();
            // Complete a genuine handshake so the mutated frames reach the
            // GIOP decoders rather than dying at the handshake gate.
            if raw.send_control(&[Handshake::local(true).encode().as_slice()]).is_ok()
                && raw.recv_control().is_ok()
            {
                let order = ByteOrder::native();
                let mut enc = CdrEncoder::new(order);
                let hdr = RequestHeader::new(1, b"mirror".to_vec(), "mirror");
                hdr.marshal(&mut enc).unwrap();
                enc.align(8);
                enc.write_raw(&payload);
                let body = enc.finish_stream();
                let mut frames = fragment_frames(
                    GiopVersion::V1_2, order, MessageType::Request, &body, 256);
                let total: usize = frames.iter().map(Vec::len).sum();
                for &(idx, xor) in &flips {
                    if total == 0 { break; }
                    let mut pos = idx % total;
                    for f in frames.iter_mut() {
                        if pos < f.len() {
                            f[pos] ^= xor;
                            break;
                        }
                        pos -= f.len();
                    }
                }
                if do_truncate && !frames.is_empty() {
                    let fi = cut % frames.len();
                    let keep = cut % frames[fi].len().max(1);
                    frames[fi].truncate(keep);
                }
                for f in &frames {
                    if raw.send_control(&[f.as_slice()]).is_err() {
                        break;
                    }
                }
            }
        }
        // the healthy connection still works
        let reply = obj
            .request("mirror")
            .arg(&vec![7i32]).unwrap()
            .arg(&ZcOctetSeq::with_length(8)).unwrap()
            .arg(&"still up".to_string()).unwrap()
            .arg(&OctetSeq(vec![9])).unwrap()
            .arg(&true).unwrap()
            .invoke()
            .unwrap();
        prop_assert_eq!(reply.results().next::<Vec<i32>>().unwrap(), vec![7i32]);
    }
}
