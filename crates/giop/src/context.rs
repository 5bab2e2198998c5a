//! GIOP service contexts, including the zcorba deposit manifest.
//!
//! Two representations live here. The owned one ([`ServiceContext`] lists
//! and the `to_context`/`from_context` pairs) keeps any context, known or
//! not, and serves tools and tests. The connection's per-message path uses
//! the in-place one: [`ContextOut`] encodes a zcorba context straight into
//! the message buffer, and [`KnownContexts`] decodes the ones we understand
//! straight into typed fields while borrowing from the received message,
//! skipping unknown ids. Both produce and accept the same bytes.

use zc_buffers::ZcBytes;
use zc_cdr::wire::zc_vendor_id;
use zc_cdr::{endian, ByteOrder, CdrDecoder, CdrEncoder, CdrError, CdrResult};

/// Service-context id for the zcorba deposit manifest. Built from the
/// shared `ZC_TAG` ("ZC") so we stay inside the OMG "vendor" id space.
pub const SVC_CTX_DEPOSIT: u32 = zc_vendor_id(1);

/// Service-context id for negotiation echoes (diagnostics; the binding
/// negotiation itself happens in the connection handshake).
pub const SVC_CTX_NEGOTIATE: u32 = zc_vendor_id(2);

/// Service-context id for the zcorba trace context: propagates a request's
/// trace id so client and server flight-recorder spans can be correlated.
pub const SVC_CTX_TRACE: u32 = zc_vendor_id(3);

/// Service-context id for the zcorba zero-copy health report: each endpoint
/// piggybacks its cumulative receive-side speculation statistics so the
/// peer can decide to degrade its send path from zero-copy to copying.
pub const SVC_CTX_ZC_HEALTH: u32 = zc_vendor_id(4);

/// A single GIOP service context: an id plus opaque encapsulated data.
///
/// Standard CORBA receivers skip contexts they do not understand, which is
/// what keeps the deposit manifest interoperable: a non-ZC peer would never
/// see one (negotiation precedes use), and even if it did the request body
/// remains self-contained.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ServiceContext {
    /// Context identifier.
    pub id: u32,
    /// Raw context data (conventionally a CDR encapsulation).
    pub data: Vec<u8>,
}

impl ServiceContext {
    /// Marshal a service-context list (ulong count, then id + octet-seq
    /// data per entry).
    pub fn marshal_list(list: &[ServiceContext], enc: &mut CdrEncoder) -> CdrResult<()> {
        enc.write_u32(list.len() as u32);
        for ctx in list {
            enc.write_u32(ctx.id);
            enc.write_octet_seq(&ctx.data);
        }
        Ok(())
    }

    /// Demarshal a service-context list.
    pub fn demarshal_list(dec: &mut CdrDecoder<'_>) -> CdrResult<Vec<ServiceContext>> {
        let count = dec.read_u32()?;
        let mut out = Vec::with_capacity(zc_buffers::bounded_capacity(count as u64, 64));
        for _ in 0..count {
            let id = dec.read_u32()?;
            let data = dec.read_octet_seq()?;
            out.push(ServiceContext { id, data });
        }
        Ok(out)
    }

    /// Find a context by id.
    pub fn find(list: &[ServiceContext], id: u32) -> Option<&ServiceContext> {
        list.iter().find(|c| c.id == id)
    }
}

/// The deposit manifest: the control-path announcement of out-of-band data.
///
/// Carried as a service context on any Request or Reply whose body contains
/// deposit descriptors. It lists the byte length of every block, in
/// descriptor-index order, so the receiver's deposit callback can allocate
/// appropriately sized page-aligned buffers *before* the blocks arrive on
/// the data channel — the role played in the paper by the "GIOPRequest
/// header [that] contains the size of the data block that is needed by the
/// receiver to correctly receive the GIOPRequest message" (§4.4).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DepositManifest {
    /// Byte length of each deposited block, in index order.
    pub block_lengths: Vec<u64>,
}

impl DepositManifest {
    /// Total payload bytes announced.
    pub fn total_bytes(&self) -> u64 {
        self.block_lengths.iter().sum()
    }

    /// Number of blocks announced.
    pub fn block_count(&self) -> usize {
        self.block_lengths.len()
    }

    /// Encode into a service context.
    pub fn to_context(&self) -> ServiceContext {
        ServiceContext {
            id: SVC_CTX_DEPOSIT,
            data: encapsulation(|e| write_manifest(e, self.block_lengths.iter().copied())),
        }
    }

    /// Decode from a service context previously produced by
    /// [`DepositManifest::to_context`]. Returns `None` if the id differs.
    pub fn from_context(ctx: &ServiceContext) -> CdrResult<Option<DepositManifest>> {
        if ctx.id != SVC_CTX_DEPOSIT {
            return Ok(None);
        }
        let view = ManifestView::decode(&ctx.data)?;
        Ok(Some(DepositManifest {
            block_lengths: view.lengths().collect(),
        }))
    }

    /// Scan a context list for a manifest.
    pub fn find_in(list: &[ServiceContext]) -> CdrResult<Option<DepositManifest>> {
        match ServiceContext::find(list, SVC_CTX_DEPOSIT) {
            Some(ctx) => DepositManifest::from_context(ctx),
            None => Ok(None),
        }
    }
}

/// The trace context: a 64-bit trace id stamped on a Request by the caller
/// and echoed into every event the receiver records while serving it, plus
/// the sender's send timestamp for wire-stage attribution. Like the deposit
/// manifest it travels as a CDR encapsulation (byte-order flag octet, then
/// the fields), so either endianness interoperates. A peer that does not
/// understand it skips it, per standard service-context rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceContext {
    /// The caller-allocated trace id (`0` conventionally means untraced).
    pub trace_id: u64,
    /// The sender's trace-clock timestamp when the message was assembled
    /// (`zc_trace::now_ns`); `0` means unstamped. The receiver derives the
    /// wire stage (`arrival − sent_at_ns`), which is only meaningful when
    /// both endpoints share the trace clock — always true for the
    /// in-process Sim and loopback-TCP experiments this repo runs.
    pub sent_at_ns: u64,
    /// The caller's journey id: one per *logical* request, shared by every
    /// attempt (retry/failover/…) of it. `0` means "no journey" (a reply
    /// echo, a foreign peer, or the pre-journey wire format).
    pub journey_id: u64,
    /// 1-based attempt ordinal within the journey (`0` when unknown).
    pub attempt: u32,
    /// Cause tag of this attempt (`zc_trace::JourneyCause` discriminant:
    /// initial/retry/failover/shed-rotate/degrade-probe). Carried as a raw
    /// byte so a decoder never rejects a cause minted by a newer peer.
    pub cause: u8,
}

impl TraceContext {
    /// Encode into a service context.
    pub fn to_context(&self) -> ServiceContext {
        ServiceContext {
            id: SVC_CTX_TRACE,
            data: encapsulation(|e| self.write_fields(e)),
        }
    }

    fn write_fields(&self, enc: &mut CdrEncoder) {
        enc.write_u64(self.trace_id);
        enc.write_u64(self.sent_at_ns);
        enc.write_u64(self.journey_id);
        // Attempt ordinal and cause share one trailing word.
        enc.write_u64(((self.attempt as u64) << 8) | self.cause as u64);
    }

    /// Decode from a service context previously produced by
    /// [`TraceContext::to_context`]. Returns `None` if the id differs.
    /// A context truncated before the trace id is an error; every field
    /// after it decodes leniently, so the pre-span format (trace id only)
    /// and the pre-journey format (trace id + timestamp) both still parse,
    /// with the missing fields reading as 0.
    pub fn from_context(ctx: &ServiceContext) -> CdrResult<Option<TraceContext>> {
        if ctx.id != SVC_CTX_TRACE {
            return Ok(None);
        }
        TraceContext::decode(&ctx.data).map(Some)
    }

    /// Decode the context data (the encapsulation, flag octet first).
    pub fn decode(data: &[u8]) -> CdrResult<TraceContext> {
        let mut dec = encapsulation_decoder(data)?;
        let trace_id = dec.read_u64()?;
        let sent_at_ns = dec.read_u64().unwrap_or_default();
        let journey_id = dec.read_u64().unwrap_or_default();
        let attempt_cause = dec.read_u64().unwrap_or_default();
        Ok(TraceContext {
            trace_id,
            sent_at_ns,
            journey_id,
            attempt: (attempt_cause >> 8) as u32,
            cause: attempt_cause as u8,
        })
    }

    /// Scan a context list for a trace context.
    pub fn find_in(list: &[ServiceContext]) -> CdrResult<Option<TraceContext>> {
        match ServiceContext::find(list, SVC_CTX_TRACE) {
            Some(ctx) => TraceContext::from_context(ctx),
            None => Ok(None),
        }
    }
}

/// The zero-copy health context: one endpoint's cumulative receive-side
/// speculation counters, piggybacked on Requests and Replies. The *sender*
/// of deposits reads the peer's report to learn whether its speculative
/// deposits actually land in place — the feedback signal behind per-
/// connection ZC→copy graceful degradation. Same encapsulation convention
/// as the other zcorba contexts (byte-order flag octet first); unknown to
/// foreign peers, who skip it per standard service-context rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ZcHealthContext {
    /// Receive speculations that held, since connection start.
    pub spec_hits: u64,
    /// Receive speculations that missed (fallback copies ran).
    pub spec_misses: u64,
}

impl ZcHealthContext {
    /// Encode into a service context.
    pub fn to_context(&self) -> ServiceContext {
        ServiceContext {
            id: SVC_CTX_ZC_HEALTH,
            data: encapsulation(|e| self.write_fields(e)),
        }
    }

    fn write_fields(&self, enc: &mut CdrEncoder) {
        enc.write_u64(self.spec_hits);
        enc.write_u64(self.spec_misses);
    }

    /// Decode from a service context previously produced by
    /// [`ZcHealthContext::to_context`]. Returns `None` if the id differs.
    pub fn from_context(ctx: &ServiceContext) -> CdrResult<Option<ZcHealthContext>> {
        if ctx.id != SVC_CTX_ZC_HEALTH {
            return Ok(None);
        }
        ZcHealthContext::decode(&ctx.data).map(Some)
    }

    /// Decode the context data (the encapsulation, flag octet first).
    pub fn decode(data: &[u8]) -> CdrResult<ZcHealthContext> {
        let mut dec = encapsulation_decoder(data)?;
        let spec_hits = dec.read_u64()?;
        let spec_misses = dec.read_u64()?;
        Ok(ZcHealthContext {
            spec_hits,
            spec_misses,
        })
    }

    /// Scan a context list for a health report.
    pub fn find_in(list: &[ServiceContext]) -> CdrResult<Option<ZcHealthContext>> {
        match ServiceContext::find(list, SVC_CTX_ZC_HEALTH) {
            Some(ctx) => ZcHealthContext::from_context(ctx),
            None => Ok(None),
        }
    }
}

/// Encode a zcorba context's data the way every zcorba context travels: a
/// native-order encapsulation, byte-order flag octet first.
fn encapsulation(f: impl FnOnce(&mut CdrEncoder)) -> Vec<u8> {
    let mut enc = CdrEncoder::native();
    enc.write_octet(enc.order().flag() as u8);
    f(&mut enc);
    enc.finish_stream()
}

/// A decoder over an encapsulation's data, positioned after its flag
/// octet and reading in the order the flag announces.
fn encapsulation_decoder(data: &[u8]) -> CdrResult<CdrDecoder<'_>> {
    let flag = *data
        .first()
        .ok_or(CdrError::OutOfBounds { need: 1, have: 0 })?;
    let mut dec = CdrDecoder::new(data, ByteOrder::from_flag(flag & 1 == 1));
    dec.read_octet()?; // flag
    Ok(dec)
}

/// The manifest's fields: a ulong count, then one ulonglong per block.
fn write_manifest(enc: &mut CdrEncoder, lengths: impl ExactSizeIterator<Item = u64>) {
    enc.write_u32(lengths.len() as u32);
    for len in lengths {
        enc.write_u64(len);
    }
}

/// A zcorba service context to encode in place into a Request or Reply
/// header (see [`crate::RequestHeaderOut`]). It borrows what it announces,
/// so building one allocates nothing.
#[derive(Debug, Clone, Copy)]
pub enum ContextOut<'a> {
    /// A deposit manifest announcing the lengths of these blocks.
    Deposits(&'a [ZcBytes]),
    /// A trace context.
    Trace(TraceContext),
    /// A zero-copy health report.
    Health(ZcHealthContext),
}

impl ContextOut<'_> {
    /// The service-context id this context travels under.
    fn id(&self) -> u32 {
        match self {
            ContextOut::Deposits(_) => SVC_CTX_DEPOSIT,
            ContextOut::Trace(_) => SVC_CTX_TRACE,
            ContextOut::Health(_) => SVC_CTX_ZC_HEALTH,
        }
    }

    /// Encode one list entry: the id, then the data as a native-order
    /// encapsulation written straight into `enc`. The bytes equal those
    /// of the matching `to_context()` entry.
    fn marshal(&self, enc: &mut CdrEncoder) {
        enc.write_u32(self.id());
        enc.write_encapsulation_in(ByteOrder::native(), |e| match self {
            ContextOut::Deposits(blocks) => {
                write_manifest(e, blocks.iter().map(|b| b.len() as u64));
            }
            ContextOut::Trace(t) => t.write_fields(e),
            ContextOut::Health(h) => h.write_fields(e),
        });
    }
}

/// Encode a service-context list from the contexts present in `list`, in
/// order: the count, then each entry.
pub(crate) fn write_contexts(list: &[Option<ContextOut<'_>>], enc: &mut CdrEncoder) {
    enc.write_u32(list.iter().flatten().count() as u32);
    for ctx in list.iter().flatten() {
        ctx.marshal(enc);
    }
}

/// A deposit manifest read in place: the block lengths stay in the
/// received bytes and are decoded as they are iterated.
#[derive(Debug, Clone, Copy)]
pub struct ManifestView<'a> {
    /// The lengths' bytes, `8 × count` of them.
    lengths: &'a [u8],
    order: ByteOrder,
}

impl<'a> ManifestView<'a> {
    /// Decode the context data (the encapsulation, flag octet first). The
    /// announced count must fit in the bytes present, so every length is
    /// checked here and iterating cannot fail later.
    pub fn decode(data: &'a [u8]) -> CdrResult<ManifestView<'a>> {
        let mut dec = encapsulation_decoder(data)?;
        let count = dec.read_u32()? as usize;
        if count > 0 {
            dec.align(8)?;
        }
        let need = count
            .checked_mul(8)
            .ok_or(CdrError::LengthOverflow(count as u64))?;
        let lengths = dec.read_raw(need)?;
        Ok(ManifestView {
            lengths,
            order: dec.order(),
        })
    }

    /// Number of blocks announced.
    pub fn block_count(&self) -> usize {
        self.lengths.len() / 8
    }

    /// The announced block lengths, in descriptor-index order.
    pub fn lengths(&self) -> impl ExactSizeIterator<Item = u64> + 'a {
        let order = self.order;
        self.lengths
            .chunks_exact(8)
            .map(move |b| endian::read_u64(order, b))
    }

    /// Total payload bytes announced (saturating: the lengths are wire data).
    pub fn total_bytes(&self) -> u64 {
        self.lengths().fold(0, u64::saturating_add)
    }
}

/// The zcorba contexts of one received Request or Reply header, decoded
/// in place. Unknown ids are skipped, as standard receivers do. When an id
/// repeats, the first entry wins, as with [`ServiceContext::find`].
#[derive(Debug, Clone, Copy, Default)]
pub struct KnownContexts<'a> {
    /// The deposit manifest, if the sender used descriptors.
    pub deposits: Option<ManifestView<'a>>,
    /// The trace context. A malformed one reads as absent: tracing is
    /// advisory and must never fail a message.
    pub trace: Option<TraceContext>,
    /// The peer's zero-copy health report, likewise advisory.
    pub health: Option<ZcHealthContext>,
}

impl<'a> KnownContexts<'a> {
    /// Decode a service-context list, borrowing from the stream. A
    /// malformed manifest is an error; the count sizes no allocation, since
    /// every entry must be present in the stream.
    pub fn decode(dec: &mut CdrDecoder<'a>) -> CdrResult<KnownContexts<'a>> {
        let count = dec.read_u32()?;
        let mut out = KnownContexts::default();
        let (mut seen_trace, mut seen_health) = (false, false);
        for _ in 0..count {
            let id = dec.read_u32()?;
            let data = dec.read_octet_seq_borrowed()?;
            match id {
                SVC_CTX_DEPOSIT if out.deposits.is_none() => {
                    out.deposits = Some(ManifestView::decode(data)?);
                }
                SVC_CTX_TRACE if !seen_trace => {
                    seen_trace = true;
                    out.trace = TraceContext::decode(data).ok();
                }
                SVC_CTX_ZC_HEALTH if !seen_health => {
                    seen_health = true;
                    out.health = ZcHealthContext::decode(data).ok();
                }
                _ => {}
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_list_roundtrip() {
        let list = vec![
            ServiceContext {
                id: 1,
                data: vec![1, 2, 3],
            },
            ServiceContext {
                id: SVC_CTX_NEGOTIATE,
                data: vec![],
            },
        ];
        let mut enc = CdrEncoder::new(ByteOrder::Big);
        ServiceContext::marshal_list(&list, &mut enc).unwrap();
        let bytes = enc.finish_stream();
        let mut dec = CdrDecoder::new(&bytes, ByteOrder::Big);
        let back = ServiceContext::demarshal_list(&mut dec).unwrap();
        assert_eq!(back, list);
    }

    #[test]
    fn manifest_roundtrip() {
        let m = DepositManifest {
            block_lengths: vec![4096, 0, 1 << 24, 12345],
        };
        let ctx = m.to_context();
        assert_eq!(ctx.id, SVC_CTX_DEPOSIT);
        let back = DepositManifest::from_context(&ctx).unwrap().unwrap();
        assert_eq!(back, m);
        assert_eq!(back.total_bytes(), 4096 + (1 << 24) + 12345);
        assert_eq!(back.block_count(), 4);
    }

    #[test]
    fn manifest_ignores_foreign_context() {
        let ctx = ServiceContext {
            id: 77,
            data: vec![1, 2, 3],
        };
        assert_eq!(DepositManifest::from_context(&ctx).unwrap(), None);
    }

    #[test]
    fn find_in_list() {
        let m = DepositManifest {
            block_lengths: vec![10],
        };
        let list = vec![
            ServiceContext {
                id: 5,
                data: vec![],
            },
            m.to_context(),
        ];
        assert_eq!(DepositManifest::find_in(&list).unwrap().unwrap(), m);
        assert_eq!(DepositManifest::find_in(&list[..1]).unwrap(), None);
    }

    #[test]
    fn empty_manifest_is_valid() {
        let m = DepositManifest::default();
        let back = DepositManifest::from_context(&m.to_context())
            .unwrap()
            .unwrap();
        assert_eq!(back.block_count(), 0);
        assert_eq!(back.total_bytes(), 0);
    }

    #[test]
    fn truncated_manifest_rejected() {
        let mut ctx = DepositManifest {
            block_lengths: vec![1, 2, 3],
        }
        .to_context();
        ctx.data.truncate(8);
        assert!(DepositManifest::from_context(&ctx).is_err());
    }

    #[test]
    fn trace_context_roundtrip() {
        let t = TraceContext {
            trace_id: 0xDEAD_BEEF_1234_5678,
            sent_at_ns: 987_654_321,
            journey_id: 0x0000_0ABC_DEF0_1234,
            attempt: 3,
            cause: 2, // failover
        };
        let ctx = t.to_context();
        assert_eq!(ctx.id, SVC_CTX_TRACE);
        let back = TraceContext::from_context(&ctx).unwrap().unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn trace_context_without_timestamp_decodes_unstamped() {
        // The pre-span wire format ended after the trace id; it must still
        // decode, with sent_at_ns reading as 0 (unstamped) and no journey.
        let mut ctx = TraceContext {
            trace_id: 77,
            sent_at_ns: 999,
            journey_id: 5,
            attempt: 2,
            cause: 1,
        }
        .to_context();
        ctx.data.truncate(16); // flag + alignment pad + trace_id only
        let back = TraceContext::from_context(&ctx).unwrap().unwrap();
        assert_eq!(back.trace_id, 77);
        assert_eq!(back.sent_at_ns, 0);
        assert_eq!(back.journey_id, 0);
        assert_eq!(back.attempt, 0);
        assert_eq!(back.cause, 0);
    }

    #[test]
    fn trace_context_without_journey_decodes_journeyless() {
        // The pre-journey wire format ended after the timestamp; the
        // journey fields must read as "no journey", not error.
        let mut ctx = TraceContext {
            trace_id: 77,
            sent_at_ns: 999,
            journey_id: 5,
            attempt: 2,
            cause: 1,
        }
        .to_context();
        ctx.data.truncate(24); // flag + pad + trace_id + sent_at_ns
        let back = TraceContext::from_context(&ctx).unwrap().unwrap();
        assert_eq!(back.trace_id, 77);
        assert_eq!(back.sent_at_ns, 999);
        assert_eq!(back.journey_id, 0);
        assert_eq!(back.attempt, 0);
        assert_eq!(back.cause, 0);
    }

    #[test]
    fn trace_context_ignores_foreign_id() {
        let ctx = ServiceContext {
            id: SVC_CTX_DEPOSIT,
            data: vec![0, 1, 2],
        };
        assert_eq!(TraceContext::from_context(&ctx).unwrap(), None);
    }

    #[test]
    fn trace_context_find_in_mixed_list() {
        let t = TraceContext {
            trace_id: 42,
            ..Default::default()
        };
        let list = vec![
            DepositManifest {
                block_lengths: vec![8],
            }
            .to_context(),
            t.to_context(),
        ];
        assert_eq!(TraceContext::find_in(&list).unwrap().unwrap(), t);
        assert_eq!(TraceContext::find_in(&list[..1]).unwrap(), None);
        // Both contexts coexist on one request.
        assert!(DepositManifest::find_in(&list).unwrap().is_some());
    }

    #[test]
    fn truncated_trace_context_rejected() {
        let mut ctx = TraceContext {
            trace_id: 7,
            ..Default::default()
        }
        .to_context();
        ctx.data.truncate(4);
        assert!(TraceContext::from_context(&ctx).is_err());
    }

    #[test]
    fn zc_health_roundtrip() {
        let h = ZcHealthContext {
            spec_hits: 1_000_000,
            spec_misses: 37,
        };
        let ctx = h.to_context();
        assert_eq!(ctx.id, SVC_CTX_ZC_HEALTH);
        let back = ZcHealthContext::from_context(&ctx).unwrap().unwrap();
        assert_eq!(back, h);
    }

    #[test]
    fn zc_health_ignores_foreign_id_and_rejects_truncation() {
        let foreign = ServiceContext {
            id: SVC_CTX_TRACE,
            data: vec![0, 1],
        };
        assert_eq!(ZcHealthContext::from_context(&foreign).unwrap(), None);
        let mut ctx = ZcHealthContext {
            spec_hits: 1,
            spec_misses: 2,
        }
        .to_context();
        ctx.data.truncate(9);
        assert!(ZcHealthContext::from_context(&ctx).is_err());
    }

    #[test]
    fn zc_health_find_in_mixed_list() {
        let h = ZcHealthContext {
            spec_hits: 5,
            spec_misses: 1,
        };
        let list = vec![
            TraceContext {
                trace_id: 9,
                ..Default::default()
            }
            .to_context(),
            h.to_context(),
        ];
        assert_eq!(ZcHealthContext::find_in(&list).unwrap().unwrap(), h);
        assert_eq!(ZcHealthContext::find_in(&list[..1]).unwrap(), None);
    }

    #[test]
    fn in_place_contexts_match_owned_encoding() {
        let blocks = [
            ZcBytes::zeroed(4096),
            ZcBytes::zeroed(0),
            ZcBytes::zeroed(77),
        ];
        let t = TraceContext {
            trace_id: 5,
            sent_at_ns: 6,
            journey_id: 7,
            attempt: 8,
            cause: 1,
        };
        let h = ZcHealthContext {
            spec_hits: 3,
            spec_misses: 4,
        };
        let owned = vec![
            DepositManifest {
                block_lengths: vec![4096, 0, 77],
            }
            .to_context(),
            t.to_context(),
            h.to_context(),
        ];
        for order in [ByteOrder::Big, ByteOrder::Little] {
            let mut want = CdrEncoder::new(order);
            ServiceContext::marshal_list(&owned, &mut want).unwrap();
            let mut got = CdrEncoder::new(order);
            write_contexts(
                &[
                    Some(ContextOut::Deposits(&blocks)),
                    None,
                    Some(ContextOut::Trace(t)),
                    Some(ContextOut::Health(h)),
                ],
                &mut got,
            );
            assert_eq!(got.as_slice(), want.as_slice());

            let bytes = got.finish_stream();
            let mut dec = CdrDecoder::new(&bytes, order);
            let known = KnownContexts::decode(&mut dec).unwrap();
            assert_eq!(dec.remaining(), 0);
            let m = known.deposits.unwrap();
            assert_eq!(m.lengths().collect::<Vec<_>>(), vec![4096, 0, 77]);
            assert_eq!(m.block_count(), 3);
            assert_eq!(m.total_bytes(), 4096 + 77);
            assert_eq!(known.trace, Some(t));
            assert_eq!(known.health, Some(h));
        }
    }

    #[test]
    fn known_contexts_skip_unknown_ids_and_tolerate_bad_advisories() {
        let mut bad_trace = TraceContext::default().to_context();
        bad_trace.data.truncate(4);
        let list = vec![
            ServiceContext {
                id: 0x4F4D_0001,
                data: vec![9; 13],
            },
            bad_trace,
            ZcHealthContext {
                spec_hits: 1,
                spec_misses: 2,
            }
            .to_context(),
        ];
        let mut enc = CdrEncoder::new(ByteOrder::Big);
        ServiceContext::marshal_list(&list, &mut enc).unwrap();
        enc.write_u32(0xFEED);
        let bytes = enc.finish_stream();
        let mut dec = CdrDecoder::new(&bytes, ByteOrder::Big);
        let known = KnownContexts::decode(&mut dec).unwrap();
        assert!(known.deposits.is_none());
        assert_eq!(
            known.trace, None,
            "a malformed trace context reads as absent"
        );
        assert_eq!(known.health.unwrap().spec_misses, 2);
        assert_eq!(
            dec.read_u32().unwrap(),
            0xFEED,
            "stream resumes after the list"
        );
    }

    #[test]
    fn lying_manifest_count_is_an_error() {
        let mut ctx = DepositManifest {
            block_lengths: vec![1, 2],
        }
        .to_context();
        // Claim 2^32-1 blocks with two present.
        let order = ByteOrder::native();
        ctx.data[4..8].copy_from_slice(&endian::write_u32(order, u32::MAX));
        assert!(ManifestView::decode(&ctx.data).is_err());
        assert!(DepositManifest::from_context(&ctx).is_err());
    }

    /// Cross-assert the wire values against spelled-out literals: the ids
    /// are derived from `zc_cdr::wire::ZC_TAG`, and this test pins them so
    /// a refactor of the derivation cannot silently renumber the protocol.
    #[test]
    fn service_context_ids_pinned_to_wire_values() {
        assert_eq!(SVC_CTX_DEPOSIT, 0x5A43_0001);
        assert_eq!(SVC_CTX_NEGOTIATE, 0x5A43_0002);
        assert_eq!(SVC_CTX_TRACE, 0x5A43_0003);
        assert_eq!(SVC_CTX_ZC_HEALTH, 0x5A43_0004);
        assert_eq!(SVC_CTX_DEPOSIT >> 16, u16::from_be_bytes(*b"ZC") as u32);
    }
}
