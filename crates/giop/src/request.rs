//! The GIOP Request header.

use zc_cdr::{CdrDecoder, CdrEncoder, CdrResult};

use crate::context::{write_contexts, ContextOut, KnownContexts, ServiceContext};

/// A GIOP Request header (1.0-style layout, which both our versions share):
/// service contexts, request id, response-expected flag, object key,
/// operation name, and principal (always empty here, as deprecated).
///
/// The parameter body follows the header in the same CDR stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RequestHeader {
    /// Service contexts (deposit manifest travels here).
    pub service_contexts: Vec<ServiceContext>,
    /// Request id, unique per connection; replies echo it.
    pub request_id: u32,
    /// `false` for oneway operations — no Reply will be sent.
    pub response_expected: bool,
    /// Opaque key identifying the target object within the server ORB.
    pub object_key: Vec<u8>,
    /// Operation (method) name.
    pub operation: String,
}

impl RequestHeader {
    /// Construct a header with no service contexts.
    pub fn new(request_id: u32, object_key: Vec<u8>, operation: &str) -> RequestHeader {
        RequestHeader {
            service_contexts: Vec::new(),
            request_id,
            response_expected: true,
            object_key,
            operation: operation.to_string(),
        }
    }

    /// Encode onto a CDR stream (the start of a Request message body).
    pub fn marshal(&self, enc: &mut CdrEncoder) -> CdrResult<()> {
        ServiceContext::marshal_list(&self.service_contexts, enc)?;
        write_fields(
            enc,
            self.request_id,
            self.response_expected,
            &self.object_key,
            &self.operation,
        );
        Ok(())
    }

    /// Decode from a CDR stream, keeping every service context.
    pub fn demarshal(dec: &mut CdrDecoder<'_>) -> CdrResult<RequestHeader> {
        let service_contexts = ServiceContext::demarshal_list(dec)?;
        let request_id = dec.read_u32()?;
        let response_expected = dec.read_bool()?;
        let object_key = dec.read_octet_seq()?;
        let operation = dec.read_string()?;
        dec.read_octet_seq_borrowed()?; // principal, ignored
        Ok(RequestHeader {
            service_contexts,
            request_id,
            response_expected,
            object_key,
            operation,
        })
    }
}

/// A Request header to encode, borrowing everything it writes: the
/// connection's send path builds one per message without allocating.
#[derive(Debug, Clone, Copy)]
pub struct RequestHeaderOut<'a> {
    /// The zcorba contexts to carry, in wire order (`None` entries are
    /// left out).
    pub contexts: &'a [Option<ContextOut<'a>>],
    /// Request id, unique per connection.
    pub request_id: u32,
    /// `false` for oneway operations.
    pub response_expected: bool,
    /// Target object key.
    pub object_key: &'a [u8],
    /// Operation name.
    pub operation: &'a str,
}

impl RequestHeaderOut<'_> {
    /// Encode onto a CDR stream; the bytes equal those of the matching
    /// [`RequestHeader::marshal`].
    pub fn marshal(&self, enc: &mut CdrEncoder) {
        write_contexts(self.contexts, enc);
        write_fields(
            enc,
            self.request_id,
            self.response_expected,
            self.object_key,
            self.operation,
        );
    }
}

/// A Request header decoded by borrowing from the received message: the
/// object key and operation are views into it, and the zcorba contexts
/// decode straight into typed fields.
#[derive(Debug, Clone, Copy)]
pub struct RequestHeaderRef<'a> {
    /// The zcorba contexts carried (unknown ones skipped).
    pub contexts: KnownContexts<'a>,
    /// Request id; replies echo it.
    pub request_id: u32,
    /// `false` for oneway operations.
    pub response_expected: bool,
    /// Target object key.
    pub object_key: &'a [u8],
    /// Operation name.
    pub operation: &'a str,
}

impl<'a> RequestHeaderRef<'a> {
    /// Decode from a CDR stream without copying out of it.
    pub fn decode(dec: &mut CdrDecoder<'a>) -> CdrResult<RequestHeaderRef<'a>> {
        let contexts = KnownContexts::decode(dec)?;
        let (request_id, response_expected, object_key, operation) = read_fields(dec)?;
        Ok(RequestHeaderRef {
            contexts,
            request_id,
            response_expected,
            object_key,
            operation,
        })
    }
}

/// The fields after the context list: request id, response flag, object
/// key, operation, and an empty principal (deprecated).
fn write_fields(enc: &mut CdrEncoder, id: u32, response: bool, key: &[u8], op: &str) {
    enc.write_u32(id);
    enc.write_bool(response);
    enc.write_octet_seq(key);
    enc.write_string(op);
    enc.write_u32(0); // principal: zero-length sequence
}

fn read_fields<'a>(dec: &mut CdrDecoder<'a>) -> CdrResult<(u32, bool, &'a [u8], &'a str)> {
    let request_id = dec.read_u32()?;
    let response_expected = dec.read_bool()?;
    let object_key = dec.read_octet_seq_borrowed()?;
    let operation = dec.read_str()?;
    dec.read_octet_seq_borrowed()?; // principal, ignored
    Ok((request_id, response_expected, object_key, operation))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{DepositManifest, SVC_CTX_DEPOSIT};
    use zc_cdr::ByteOrder;

    fn roundtrip(h: &RequestHeader, order: ByteOrder) -> RequestHeader {
        let mut enc = CdrEncoder::new(order);
        h.marshal(&mut enc).unwrap();
        let bytes = enc.finish_stream();
        let mut dec = CdrDecoder::new(&bytes, order);
        let back = RequestHeader::demarshal(&mut dec).unwrap();
        assert_eq!(dec.remaining(), 0);
        back
    }

    #[test]
    fn plain_roundtrip() {
        let h = RequestHeader::new(42, b"obj-key-1".to_vec(), "transfer");
        assert_eq!(roundtrip(&h, ByteOrder::Big), h);
        assert_eq!(roundtrip(&h, ByteOrder::Little), h);
    }

    #[test]
    fn oneway_flag_preserved() {
        let mut h = RequestHeader::new(7, b"k".to_vec(), "notify");
        h.response_expected = false;
        assert!(!roundtrip(&h, ByteOrder::Little).response_expected);
    }

    #[test]
    fn with_deposit_manifest() {
        let mut h = RequestHeader::new(1, b"key".to_vec(), "push");
        h.service_contexts.push(
            DepositManifest {
                block_lengths: vec![1 << 20],
            }
            .to_context(),
        );
        let back = roundtrip(&h, ByteOrder::Little);
        let m = DepositManifest::find_in(&back.service_contexts)
            .unwrap()
            .unwrap();
        assert_eq!(m.block_lengths, vec![1 << 20]);
        assert_eq!(back.service_contexts[0].id, SVC_CTX_DEPOSIT);
    }

    #[test]
    fn empty_object_key_and_operation_name() {
        let h = RequestHeader::new(0, vec![], "");
        assert_eq!(roundtrip(&h, ByteOrder::Big), h);
    }

    #[test]
    fn borrowed_header_matches_owned_bytes() {
        let blocks = [zc_buffers::ZcBytes::zeroed(9)];
        let ctxs = [Some(ContextOut::Deposits(&blocks))];
        let out = RequestHeaderOut {
            contexts: &ctxs,
            request_id: 5,
            response_expected: false,
            object_key: b"k-1",
            operation: "op",
        };
        let mut owned = RequestHeader::new(5, b"k-1".to_vec(), "op");
        owned.response_expected = false;
        owned.service_contexts.push(
            DepositManifest {
                block_lengths: vec![9],
            }
            .to_context(),
        );
        for order in [ByteOrder::Big, ByteOrder::Little] {
            let mut a = CdrEncoder::new(order);
            out.marshal(&mut a);
            let mut b = CdrEncoder::new(order);
            owned.marshal(&mut b).unwrap();
            assert_eq!(a.as_slice(), b.as_slice());
            let bytes = a.finish_stream();
            let mut dec = CdrDecoder::new(&bytes, order);
            let back = RequestHeaderRef::decode(&mut dec).unwrap();
            assert_eq!(dec.remaining(), 0);
            assert_eq!(back.request_id, 5);
            assert!(!back.response_expected);
            assert_eq!(back.object_key, b"k-1");
            assert_eq!(back.operation, "op");
            let m = back.contexts.deposits.unwrap();
            assert_eq!(m.lengths().collect::<Vec<_>>(), vec![9]);
        }
    }

    #[test]
    fn parameters_follow_header_in_same_stream() {
        let h = RequestHeader::new(3, b"ok".to_vec(), "op");
        let mut enc = CdrEncoder::new(ByteOrder::Little);
        h.marshal(&mut enc).unwrap();
        enc.write_u32(0xFEED_F00D); // first parameter
        let bytes = enc.finish_stream();
        let mut dec = CdrDecoder::new(&bytes, ByteOrder::Little);
        let back = RequestHeader::demarshal(&mut dec).unwrap();
        assert_eq!(back, h);
        assert_eq!(dec.read_u32().unwrap(), 0xFEED_F00D);
    }
}
