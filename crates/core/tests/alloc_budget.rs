//! Heap-allocation budget of an invocation over loopback TCP.
//!
//! The counting allocator below is process-wide: the server's connection
//! thread allocates on the caller's behalf, and those allocations belong
//! to the invocation too. So this binary holds exactly one test; a sibling
//! test running in parallel would allocate into the same counters.
//!
//! Three budgets are checked, all per call in steady state:
//!
//! * a small RPC (`u64` + string + 512-byte `OctetSeq` in, `u64` out)
//!   makes at most [`SMALL_RPC_ALLOCS`] allocations. Both are API-owned:
//!   the servant demarshals an owned `String` and an owned `OctetSeq`.
//!   Every received GIOP frame lives in a pool buffer behind a recycled
//!   reference-count node;
//! * a 1 MiB `sequence<ZC_Octet>` echo against a server built with
//!   `.zc(false)`, so the block is marshaled inline both ways, makes at
//!   most [`INLINE_ECHO_ALLOCS`] allocation and [`INLINE_ECHO_BYTES`]: the
//!   argument and result buffers are kept charged to the pool, and each
//!   side demarshals the block with one copy into a pool buffer;
//! * the same echo with zero-copy negotiated makes at most
//!   [`ZC_ECHO_ALLOCS`]: the deposit lists each side's encoder and
//!   receiver build, one per message each.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use zc_cdr::{OctetSeq, ZcOctetSeq};
use zc_orb::{ObjectAdapterExt, ObjectRef, Orb, OrbResult, Servant, ServerRequest};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(size: usize) {
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Allocations per small-RPC call.
const SMALL_RPC_ALLOCS: f64 = 2.0;
/// Allocations per 1 MiB inline echo call.
const INLINE_ECHO_ALLOCS: f64 = 1.0;
/// Bytes allocated per 1 MiB inline echo call: 64 KiB.
const INLINE_ECHO_BYTES: f64 = (64 << 10) as f64;
/// Allocations per 1 MiB zero-copy echo call.
const ZC_ECHO_ALLOCS: f64 = 4.0;
const BULK_LEN: usize = 1 << 20;

struct Bench;

impl Servant for Bench {
    fn repo_id(&self) -> &'static str {
        "IDL:zcorba/AllocBudget:1.0"
    }

    fn dispatch(&self, op: &str, req: &mut ServerRequest<'_>) -> OrbResult<()> {
        match op {
            "lookup" => {
                let seq: u64 = req.arg()?;
                let key: String = req.arg()?;
                let bytes: OctetSeq = req.arg()?;
                let sum = bytes.0.iter().fold(seq + key.len() as u64, |h, &b| {
                    h.wrapping_mul(31).wrapping_add(b as u64)
                });
                req.result(&sum)
            }
            "echo" => {
                let block: ZcOctetSeq = req.arg()?;
                req.result(&block)
            }
            other => req.bad_operation(other),
        }
    }
}

fn serve(zc: bool) -> (Orb, zc_orb::ServerHandle, ObjectRef) {
    let server_orb = Orb::builder().tcp().zc(zc).build();
    server_orb.adapter().register("bench", Arc::new(Bench));
    let server = server_orb.serve(0).unwrap();
    let ior = server
        .ior_for("bench", "IDL:zcorba/AllocBudget:1.0")
        .unwrap();
    let client = Orb::builder().tcp().build();
    let obj = client.resolve(&ior).unwrap();
    (server_orb, server, obj)
}

/// `(allocations, bytes)` per call over `calls` calls of `f`, after a
/// warm-up that fills the connection's recycled buffers and the pools.
fn per_call(calls: u64, mut f: impl FnMut(u64)) -> (f64, f64) {
    for i in 0..32 {
        f(i);
    }
    let (a0, b0) = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    for i in 0..calls {
        f(i);
    }
    let (a1, b1) = (ALLOCS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    (
        (a1 - a0) as f64 / calls as f64,
        (b1 - b0) as f64 / calls as f64,
    )
}

#[test]
fn invocations_stay_within_their_allocation_budgets() {
    // (a) small RPC on a zero-copy connection.
    let (_server_orb, server, obj) = serve(true);
    let key = "key-00af-17".to_string();
    let bytes = OctetSeq((0..512).map(|i| (i * 7) as u8).collect());
    let (allocs, _) = per_call(500, |i| {
        let sum: u64 = obj
            .request("lookup")
            .arg(&i)
            .and_then(|r| r.arg(&key))
            .and_then(|r| r.arg(&bytes))
            .and_then(|r| r.invoke())
            .and_then(|r| r.result())
            .unwrap();
        assert_ne!(sum, 0);
    });
    assert!(
        allocs <= SMALL_RPC_ALLOCS,
        "small RPC made {allocs:.2} allocations per call, budget {SMALL_RPC_ALLOCS}"
    );
    drop(obj);
    server.shutdown();

    // (b) 1 MiB inline echo against a ZC-incapable server, and (c) the
    // same echo on a zero-copy connection.
    let block = ZcOctetSeq::from_zc(zc_buffers::ZcBytes::zeroed(BULK_LEN));
    for zc in [false, true] {
        let (_server_orb, server, obj) = serve(zc);
        assert_eq!(obj.is_zero_copy(), zc);
        let (allocs, bytes) = per_call(40, |_| {
            let back: ZcOctetSeq = obj
                .request("echo")
                .arg(&block)
                .and_then(|r| r.invoke())
                .and_then(|r| r.result())
                .unwrap();
            assert_eq!(back.len(), BULK_LEN);
        });
        if zc {
            assert!(
                allocs <= ZC_ECHO_ALLOCS,
                "1 MiB zero-copy echo made {allocs:.2} allocations per call, \
                 budget {ZC_ECHO_ALLOCS}"
            );
        } else {
            assert!(
                allocs <= INLINE_ECHO_ALLOCS && bytes <= INLINE_ECHO_BYTES,
                "1 MiB inline echo made {allocs:.2} allocations and {:.1} KiB per call, \
                 budget {INLINE_ECHO_ALLOCS} and {:.0} KiB",
                bytes / 1024.0,
                INLINE_ECHO_BYTES / 1024.0
            );
        }
        drop(obj);
        server.shutdown();
    }
}
