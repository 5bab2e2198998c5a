//! Concurrency model tests for the buffer substrate, in loom style.
//!
//! Run with `RUSTFLAGS="--cfg loom" cargo test -p zc-buffers --test loom`.
//! The vendored `loom` is a stochastic-interleaving shim (see
//! `vendor/loom`): each `model` closure executes many times on real threads
//! with a seeded, perturbed schedule rather than exhaustive state-space
//! exploration. Failures print a `LOOM_SEED` for deterministic replay. The
//! tests are written against the real loom API so they transfer unchanged
//! if the registry crate becomes available.
//!
//! What is modeled:
//! * **PagePool recycling** — concurrent acquire/release must neither lose
//!   buffers nor double-hand-out pages; counters must balance afterwards.
//! * **ZcBytes refcount/Drop** — clones and slices on racing threads keep
//!   the payload readable, and exactly the last drop returns the pages and
//!   the reference-count node to the pool, each exactly once; a node is
//!   never handed to a new freeze while a view of it is alive.
#![cfg(loom)]

use loom::{explore, thread};
use zc_buffers::{PagePool, ZcBytes};

/// Two threads hammer acquire → fill → drop against one pool. Afterwards
/// every lease must have been returned or discarded (nothing leaks, nothing
/// is handed out twice — a double hand-out would corrupt the fill pattern).
#[test]
fn pool_recycling_under_contention() {
    loom::model(|| {
        let pool = PagePool::new(1 << 20);
        let mut handles = Vec::new();
        for t in 0..2u8 {
            let pool = pool.clone();
            handles.push(thread::spawn(move || {
                for round in 0..2u8 {
                    let mut lease = pool.acquire(4096);
                    explore();
                    let pattern = t.wrapping_mul(31).wrapping_add(round);
                    lease.extend_from_slice(&[pattern; 64]);
                    explore();
                    assert_eq!(lease.as_slice(), &[pattern; 64]);
                    drop(lease);
                    explore();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let s = pool.stats();
        // 4 leases were dropped: each return or discard is counted once.
        assert_eq!(s.returns + s.discards, 4, "stats: {s:?}");
        // Everything fit under the retention cap, so nothing was discarded
        // and the free lists hold exactly what came back.
        assert_eq!(s.discards, 0, "stats: {s:?}");
        assert!(s.retained_bytes > 0, "stats: {s:?}");
        // A fresh acquire now must come off the free list.
        let before = pool.stats().reuses;
        let lease = pool.acquire(4096);
        assert_eq!(pool.stats().reuses, before + 1);
        drop(lease);
    });
}

/// One frozen buffer, shared as ZcBytes clones/slices across threads. The
/// payload must stay readable from every view, and the pages and the
/// reference-count node must return to the pool exactly once — at the
/// final drop, wherever it happens. Meanwhile other freezes race for the
/// pool's spare nodes; none may be given the node the live views share.
#[test]
fn zbytes_refcount_returns_pages_once() {
    loom::model(|| {
        let pool = PagePool::new(1 << 20);
        // Seed one spare node, so `z` below reuses it.
        drop(pool.acquire(4096).freeze());
        assert_eq!(pool.stats().spare_nodes, 1);
        let z: ZcBytes = {
            let mut lease = pool.acquire(4096);
            lease.extend_from_slice(&[0xAB; 256]);
            lease.freeze()
        };
        let s = pool.stats();
        assert_eq!(s.returns, 1, "alive view must hold the pages: {s:?}");
        assert_eq!(s.spare_nodes, 0, "alive view must hold the node: {s:?}");

        let mut handles = Vec::new();
        for t in 0..2usize {
            let view = z.slice(t * 64..(t + 1) * 64);
            let pool = pool.clone();
            handles.push(thread::spawn(move || {
                explore();
                assert_eq!(view.len(), 64);
                assert!(view.as_slice().iter().all(|&b| b == 0xAB));
                // A freeze while `view` lives must get some other node.
                let other = pool.acquire(4096).freeze();
                assert!(!other.ptr_eq(&view), "live node handed out again");
                let sub = view.slice(8..16);
                explore();
                assert_eq!(sub.as_slice(), &[0xAB; 8]);
                drop(other);
                explore();
                // Views drop here, racing with the other thread and main.
            }));
        }
        explore();
        drop(z);
        for h in handles {
            h.join().unwrap();
        }

        let s = pool.stats();
        // The seed, the two racing freezes and `z`: four buffers, each
        // returned once.
        assert_eq!(s.returns, 4, "pages must return exactly once: {s:?}");
        assert_eq!(s.discards, 0, "stats: {s:?}");
        // Every node ever allocated is spare again, none twice: `z`'s node
        // plus at most the two the racing freezes allocated.
        assert!(
            (1..=3).contains(&s.spare_nodes),
            "nodes must return exactly once: {s:?}"
        );
        // Recycling observable: the next freezes reuse returned buffers
        // and take every spare node, each a distinct one.
        let before = s.reuses;
        let views: Vec<ZcBytes> = (0..s.spare_nodes)
            .map(|_| pool.acquire(4096).freeze())
            .collect();
        assert_eq!(pool.stats().reuses, before + s.spare_nodes);
        assert_eq!(pool.stats().spare_nodes, 0);
        for (i, a) in views.iter().enumerate() {
            assert!(views[i + 1..].iter().all(|b| !a.ptr_eq(b)));
        }
    });
}

/// Clone storms on one ZcBytes: refcounts race up and down while readers
/// validate the bytes; the storage must survive until the last clone dies.
#[test]
fn zbytes_clone_storm() {
    loom::model(|| {
        let pool = PagePool::new(1 << 20);
        let z = {
            let mut lease = pool.acquire(4096);
            lease.extend_from_slice(b"deposit");
            lease.freeze()
        };
        let mut handles = Vec::new();
        for _ in 0..2 {
            let z = z.clone();
            handles.push(thread::spawn(move || {
                for _ in 0..3 {
                    let c = z.clone();
                    explore();
                    assert_eq!(c.as_slice(), b"deposit");
                    drop(c);
                    explore();
                }
            }));
        }
        drop(z);
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(pool.stats().returns, 1);
    });
}
