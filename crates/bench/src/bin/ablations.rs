//! Ablations A1–A4: the design arguments of DESIGN.md, measured on this
//! host's operational stack.
//!
//! * **A1** — separation of control- and data transfers off: deposits ride
//!   inside the GIOP control message. Buffering copies return (§3.2).
//! * **A2** — page alignment violated: speculative defragmentation can
//!   never land the block, so the driver falls back to copying.
//! * **A3** — speculation success-rate sweep: the probabilistic fallback
//!   of [10] degrades gracefully.
//! * **A4** — deposits disabled entirely (marshal *bypass* only): the copy
//!   moves layers instead of disappearing — "many previous attempts just
//!   move copies between software layers".

use std::sync::Arc;
use std::time::Instant;

use zc_bench::cli;
use zc_buffers::{CopyLayer, CopyMeter, ZcBytes};
use zc_cdr::ZcOctetSeq;
use zc_orb::{ObjectAdapterExt, Orb, OrbResult, Servant, ServerRequest};
use zc_transport::{SimConfig, SimNetwork};

const BLOCK: usize = 1 << 20;
const ROUNDS: usize = 24;

struct Echo;
impl Servant for Echo {
    fn repo_id(&self) -> &'static str {
        "IDL:zcorba/Echo:1.0"
    }
    fn dispatch(&self, op: &str, req: &mut ServerRequest<'_>) -> OrbResult<()> {
        match op {
            "echo" => {
                let d: ZcOctetSeq = req.arg()?;
                req.result(&d)
            }
            other => req.bad_operation(other),
        }
    }
}

struct Outcome {
    label: String,
    mbit: f64,
    overhead_factor: f64,
    fallback_bytes: u64,
}

fn run(
    label: &str,
    cfg: SimConfig,
    build: impl Fn(zc_orb::OrbBuilder) -> zc_orb::OrbBuilder,
    payload: ZcBytes,
) -> Outcome {
    let net = SimNetwork::new(cfg);
    let meter = CopyMeter::new_shared();
    let server_orb = build(Orb::builder().sim(net.clone()).meter(Arc::clone(&meter))).build();
    server_orb.adapter().register("echo", Arc::new(Echo));
    let server = server_orb.serve(0).unwrap();
    let client = build(Orb::builder().sim(net).meter(Arc::clone(&meter))).build();
    let ior = server.ior_for("echo", "IDL:zcorba/Echo:1.0").unwrap();
    let obj = client.resolve(&ior).unwrap();

    // warm-up
    obj.request("echo")
        .arg(&ZcOctetSeq::with_length(0))
        .unwrap()
        .invoke()
        .unwrap();

    let before = meter.snapshot();
    let start = Instant::now();
    for _ in 0..ROUNDS {
        let reply = obj
            .request("echo")
            .arg(&ZcOctetSeq::from_zc(payload.clone()))
            .unwrap()
            .invoke()
            .unwrap();
        let back: ZcOctetSeq = reply.result().unwrap();
        assert_eq!(back.len(), payload.len());
    }
    let wall = start.elapsed();
    let delta = meter.snapshot().since(&before);
    // each round moves the payload out and back
    let payload_bytes = (2 * ROUNDS * payload.len()) as f64;
    let out = Outcome {
        label: label.to_string(),
        mbit: payload_bytes * 8.0 / wall.as_secs_f64() / 1e6,
        overhead_factor: delta.overhead_bytes() as f64 / payload_bytes,
        fallback_bytes: delta.bytes(CopyLayer::DepositFallback),
    };
    server.shutdown();
    out
}

fn print(o: &Outcome) {
    println!(
        "  {:<44} {:>9.0} Mbit/s   {:>5.2} copies/byte   fallback {:>12} B",
        o.label, o.mbit, o.overhead_factor, o.fallback_bytes
    );
}

fn main() {
    cli::Args::parse(
        "ablations",
        "Ablations A1-A4: the design arguments, measured as a 1 MiB echo on this host.",
        &[],
    );
    println!("## Ablations A1–A4 — 1 MiB echo ×{ROUNDS}, measured on this host\n");

    let aligned = ZcBytes::zeroed(BLOCK);

    print(&run(
        "full design (deposit + separation, aligned)",
        SimConfig::zero_copy(),
        |b| b,
        aligned.clone(),
    ));

    // A1: couple data into the control messages
    print(&run(
        "A1: control/data separation OFF",
        SimConfig::zero_copy(),
        |b| b.separate_data(false),
        aligned.clone(),
    ));

    // A2: break page alignment — speculation can never land
    let whole = ZcBytes::zeroed(BLOCK + zc_buffers::PAGE_SIZE);
    let misaligned = whole.slice(1..BLOCK + 1);
    print(&run(
        "A2: page alignment violated",
        SimConfig::zero_copy(),
        |b| b,
        misaligned,
    ));

    // A3: speculation sweep
    for p in [1.0, 0.9, 0.75, 0.5] {
        print(&run(
            &format!("A3: speculation success p = {p:.2}"),
            SimConfig::zero_copy_with_speculation(p),
            |b| b,
            aligned.clone(),
        ));
    }

    // A4: marshal bypass only — no deposits at all
    print(&run(
        "A4: deposits OFF (marshal bypass only)",
        SimConfig::zero_copy(),
        |b| b.deposit_enabled(false),
        aligned.clone(),
    ));

    println!(
        "\nreading: only the full design drives copies/byte to ~0; every ablation\n\
         re-introduces per-byte copying somewhere, which is the paper's argument\n\
         for strict zero-copy end to end."
    );
}
