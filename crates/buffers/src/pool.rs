//! A recycling pool of page-aligned buffers.
//!
//! §3.2 of the paper: *"the best option to allocate and manage the buffers is
//! by the application or the stub and skeleton code"* — i.e. buffer
//! management is delegated away from the kernel/middleware hot path. The
//! deposit receiver allocates an appropriately sized, page-aligned buffer per
//! request; recycling those buffers through a pool removes allocation cost
//! from the steady state (the paper notes memory allocation is a minor but
//! real overhead source).

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::aligned::{AlignedBuf, PAGE_SIZE};
use crate::zbytes::{Storage, ZcBytes};

/// Pool statistics (monotonic counters plus point-in-time gauges).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PoolStats {
    /// Buffers handed out that had to be freshly allocated.
    pub fresh_allocations: u64,
    /// Buffers handed out from the free list (recycled).
    pub reuses: u64,
    /// Buffers returned to the free list.
    pub returns: u64,
    /// Buffers dropped instead of retained (free list full).
    pub discards: u64,
    /// Bytes currently held idle against the retention bound: buffers on
    /// the free lists plus buffers charged by their holders
    /// ([`PagePool::charge`]).
    pub retained_bytes: u64,
    /// Spare `ZcBytes` reference-count nodes waiting to be reused.
    pub spare_nodes: u64,
}

/// Most spare reference-count nodes a pool keeps. A node is a few dozen
/// bytes; this covers every view a busy ORB has in flight at once.
const MAX_SPARE_NODES: usize = 256;

/// What the free-list lock guards.
#[derive(Default)]
struct FreeLists {
    /// Free buffers keyed by capacity (each a multiple of the page size).
    bufs: BTreeMap<usize, Vec<AlignedBuf>>,
    /// Emptied `ZcBytes` storage nodes, each with no other owner.
    nodes: Vec<Arc<Storage>>,
}

pub(crate) struct PoolInner {
    free: Mutex<FreeLists>,
    /// Maximum bytes held idle (free lists plus charges) before returns
    /// are discarded and charges refused.
    max_retained_bytes: usize,
    fresh: AtomicU64,
    reuses: AtomicU64,
    returns: AtomicU64,
    discards: AtomicU64,
    /// Raised only under the `free` lock, so the bound check and the
    /// increase are one step; lowered and read without it.
    retained: AtomicU64,
    spare_nodes: AtomicU64,
}

impl PoolInner {
    /// Count `bytes` against the retention bound if they fit. Call with
    /// the `free` lock held.
    fn try_retain(&self, bytes: usize) -> bool {
        let retained = self.retained.load(Ordering::Relaxed) as usize;
        if retained.saturating_add(bytes) > self.max_retained_bytes {
            return false;
        }
        self.retained.fetch_add(bytes as u64, Ordering::Relaxed);
        true
    }

    /// Take back `buf` and, when the last view of a frozen buffer let go,
    /// the emptied storage `node` that carried it. Each is kept while its
    /// list has room; otherwise it is freed once the lock is released.
    pub(crate) fn release(&self, mut buf: AlignedBuf, mut node: Option<Arc<Storage>>) {
        buf.clear();
        let cap = buf.capacity();
        let mut free = self.free.lock();
        if free.nodes.len() < MAX_SPARE_NODES {
            if let Some(n) = node.take() {
                free.nodes.push(n);
                self.spare_nodes.fetch_add(1, Ordering::Relaxed);
            }
        }
        if !self.try_retain(cap) {
            drop(free);
            self.discards.fetch_add(1, Ordering::Relaxed);
            return; // drop the buffer (and any surplus node), freeing its pages
        }
        self.returns.fetch_add(1, Ordering::Relaxed);
        free.bufs.entry(cap).or_default().push(buf);
    }

    fn acquire(&self, min_capacity: usize) -> AlignedBuf {
        let want = size_class(min_capacity);
        {
            let mut free = self.free.lock();
            // Exact class first, then any class that fits (BTreeMap range).
            // Emptied lists stay in the map: removing one here would make
            // the next `release` of that class allocate a fresh list (and
            // map node), so a lone buffer cycling through the pool would
            // cost two heap allocations per round trip.
            if let Some(buf) = free.bufs.range_mut(want..).find_map(|(_, list)| list.pop()) {
                self.retained
                    .fetch_sub(buf.capacity() as u64, Ordering::Relaxed);
                self.reuses.fetch_add(1, Ordering::Relaxed);
                return buf;
            }
        }
        self.fresh.fetch_add(1, Ordering::Relaxed);
        AlignedBuf::with_capacity(want)
    }

    /// A storage node with no other owner, reused when one is spare. A
    /// spare whose last view is still letting go of it is left to that
    /// view to free.
    fn node(&self) -> Arc<Storage> {
        let spare = self.free.lock().nodes.pop();
        if let Some(mut node) = spare {
            self.spare_nodes.fetch_sub(1, Ordering::Relaxed);
            if Arc::get_mut(&mut node).is_some() {
                return node;
            }
        }
        Arc::new(Storage::default())
    }
}

/// Compute the capacity class for a request: whole pages, rounded up to a
/// power-of-two number of pages so that few classes serve many sizes.
fn size_class(min_capacity: usize) -> usize {
    let pages = crate::round_up_to_page(min_capacity) / PAGE_SIZE;
    pages.next_power_of_two() * PAGE_SIZE
}

/// A thread-safe recycling pool of [`AlignedBuf`]s, and of the
/// reference-count nodes of the [`ZcBytes`] frozen from them.
#[derive(Clone)]
pub struct PagePool {
    inner: Arc<PoolInner>,
}

impl PagePool {
    /// Create a pool that holds at most `max_retained_bytes` idle: on its
    /// free lists plus charged by holders (beyond that, returned buffers
    /// are freed immediately and charges are refused).
    pub fn new(max_retained_bytes: usize) -> PagePool {
        PagePool::from_inner(Arc::new(PoolInner {
            free: Mutex::new(FreeLists::default()),
            max_retained_bytes,
            fresh: AtomicU64::new(0),
            reuses: AtomicU64::new(0),
            returns: AtomicU64::new(0),
            discards: AtomicU64::new(0),
            retained: AtomicU64::new(0),
            spare_nodes: AtomicU64::new(0),
        }))
    }

    pub(crate) fn from_inner(inner: Arc<PoolInner>) -> PagePool {
        PagePool { inner }
    }

    /// A pool sized for typical ORB use (64 MiB retained).
    pub fn default_for_orb() -> PagePool {
        PagePool::new(64 << 20)
    }

    /// Acquire a buffer with at least `min_capacity` bytes of capacity.
    /// Returns to the pool automatically on drop (or on the last drop of a
    /// [`ZcBytes`] frozen from it).
    pub fn acquire(&self, min_capacity: usize) -> PooledBuf {
        let buf = self.inner.acquire(min_capacity);
        PooledBuf {
            buf: Some(buf),
            pool: Arc::clone(&self.inner),
        }
    }

    /// Count an idle buffer of `bytes` that its holder keeps outside the
    /// pool (a connection's spare encode buffer) against the retention
    /// bound. Returns `false`, charging nothing, when it does not fit: the
    /// holder must then free the buffer. A successful charge stays until
    /// [`PagePool::uncharge`] releases it.
    pub fn charge(&self, bytes: usize) -> bool {
        if bytes == 0 {
            return true;
        }
        let _free = self.inner.free.lock();
        self.inner.try_retain(bytes)
    }

    /// Release a charge of `bytes` made by [`PagePool::charge`], when the
    /// buffer is taken back into use or freed. Needs no lock: a falling
    /// gauge can only make a concurrent bound check more conservative.
    pub fn uncharge(&self, bytes: usize) {
        if bytes > 0 {
            self.inner
                .retained
                .fetch_sub(bytes as u64, Ordering::Relaxed);
        }
    }

    /// Current statistics.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            fresh_allocations: self.inner.fresh.load(Ordering::Relaxed),
            reuses: self.inner.reuses.load(Ordering::Relaxed),
            returns: self.inner.returns.load(Ordering::Relaxed),
            discards: self.inner.discards.load(Ordering::Relaxed),
            retained_bytes: self.inner.retained.load(Ordering::Relaxed),
            spare_nodes: self.inner.spare_nodes.load(Ordering::Relaxed),
        }
    }
}

impl Default for PagePool {
    fn default() -> Self {
        PagePool::default_for_orb()
    }
}

impl std::fmt::Debug for PagePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PagePool({:?})", self.stats())
    }
}

/// A pooled buffer lease: behaves like an `AlignedBuf` and returns its pages
/// to the pool on drop. Freeze into [`ZcBytes`] with [`PooledBuf::freeze`]
/// to share it immutably while preserving pool return on the final drop.
pub struct PooledBuf {
    buf: Option<AlignedBuf>,
    pool: Arc<PoolInner>,
}

impl PooledBuf {
    /// Convert into an immutable shared view. O(1); the reference-count
    /// node comes from the pool's spares when one is left, and the pages
    /// and the node return to the pool when the last `ZcBytes` clone is
    /// dropped.
    pub fn freeze(mut self) -> ZcBytes {
        let buf = self.buf.take().expect("buffer present until freeze/drop");
        let mut node = self.pool.node();
        let storage = Arc::get_mut(&mut node).expect("PoolInner::node returns an unshared node");
        storage.buf = Some(buf);
        storage.pool = Some(Arc::clone(&self.pool));
        ZcBytes::from_node(node)
    }

    fn buf(&self) -> &AlignedBuf {
        self.buf.as_ref().expect("buffer present")
    }

    fn buf_mut(&mut self) -> &mut AlignedBuf {
        self.buf.as_mut().expect("buffer present")
    }
}

impl std::ops::Deref for PooledBuf {
    type Target = AlignedBuf;
    fn deref(&self) -> &AlignedBuf {
        self.buf()
    }
}

impl std::ops::DerefMut for PooledBuf {
    fn deref_mut(&mut self) -> &mut AlignedBuf {
        self.buf_mut()
    }
}

impl Drop for PooledBuf {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            self.pool.release(buf, None);
        }
    }
}

impl std::fmt::Debug for PooledBuf {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "PooledBuf({:?})", self.buf())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn size_classes_are_pow2_pages() {
        assert_eq!(size_class(1), PAGE_SIZE);
        assert_eq!(size_class(PAGE_SIZE), PAGE_SIZE);
        assert_eq!(size_class(PAGE_SIZE + 1), 2 * PAGE_SIZE);
        assert_eq!(size_class(3 * PAGE_SIZE), 4 * PAGE_SIZE);
        assert_eq!(size_class(5 * PAGE_SIZE), 8 * PAGE_SIZE);
    }

    #[test]
    fn acquire_release_recycles() {
        let pool = PagePool::new(1 << 20);
        let addr;
        {
            let b = pool.acquire(10_000);
            addr = b.as_ptr() as usize;
        } // returned
        let b2 = pool.acquire(10_000);
        assert_eq!(b2.as_ptr() as usize, addr, "buffer should be recycled");
        let s = pool.stats();
        assert_eq!(s.fresh_allocations, 1);
        assert_eq!(s.reuses, 1);
        assert_eq!(s.returns, 1);
    }

    #[test]
    fn recycled_buffer_is_cleared() {
        let pool = PagePool::new(1 << 20);
        {
            let mut b = pool.acquire(100);
            b.extend_from_slice(&[1, 2, 3]);
        }
        let b = pool.acquire(100);
        assert_eq!(b.len(), 0, "recycled buffer length must be reset");
    }

    #[test]
    fn larger_class_can_serve_smaller_request() {
        let pool = PagePool::new(1 << 20);
        {
            let _big = pool.acquire(8 * PAGE_SIZE);
        }
        let small = pool.acquire(PAGE_SIZE);
        assert!(small.capacity() >= PAGE_SIZE);
        assert_eq!(
            pool.stats().reuses,
            1,
            "8-page buffer should serve a 1-page ask"
        );
    }

    #[test]
    fn retention_limit_discards() {
        let pool = PagePool::new(2 * PAGE_SIZE);
        {
            let _a = pool.acquire(PAGE_SIZE);
            let _b = pool.acquire(PAGE_SIZE);
            let _c = pool.acquire(PAGE_SIZE);
        } // three returns, only two fit under the limit
        let s = pool.stats();
        assert_eq!(s.returns + s.discards, 3);
        assert!(s.discards >= 1);
        assert!(s.retained_bytes <= 2 * PAGE_SIZE as u64);
    }

    #[test]
    fn freeze_returns_to_pool_on_last_drop() {
        let pool = PagePool::new(1 << 20);
        let addr;
        {
            let mut b = pool.acquire(PAGE_SIZE);
            b.extend_from_slice(&[7; 100]);
            addr = b.as_ptr() as usize;
            let z = b.freeze();
            let z2 = z.clone();
            assert_eq!(z2.as_slice(), &[7; 100]);
            assert_eq!(pool.stats().returns, 0, "still referenced");
        }
        assert_eq!(pool.stats().returns, 1, "returned after last view dropped");
        let again = pool.acquire(PAGE_SIZE);
        assert_eq!(again.as_ptr() as usize, addr);
    }

    #[test]
    fn last_drop_returns_the_node_for_the_next_freeze() {
        let pool = PagePool::new(1 << 20);
        let first = pool.acquire(PAGE_SIZE).freeze();
        let node = Arc::as_ptr(first.node());
        let view = first.slice(..);
        drop(first);
        assert_eq!(pool.stats().spare_nodes, 0, "a live view holds the node");
        drop(view);
        assert_eq!(pool.stats().spare_nodes, 1);
        let again = pool.acquire(PAGE_SIZE).freeze();
        assert_eq!(Arc::as_ptr(again.node()), node, "node reused");
        assert_eq!(pool.stats().spare_nodes, 0);
    }

    #[test]
    fn spare_nodes_are_bounded() {
        let pool = PagePool::new(1 << 30);
        let views: Vec<ZcBytes> = (0..MAX_SPARE_NODES + 8)
            .map(|_| pool.acquire(1).freeze())
            .collect();
        drop(views);
        let s = pool.stats();
        assert_eq!(s.spare_nodes, MAX_SPARE_NODES as u64);
        assert_eq!(s.returns, MAX_SPARE_NODES as u64 + 8, "every page returns");
    }

    #[test]
    fn charges_share_the_retention_bound() {
        let pool = PagePool::new(4 * PAGE_SIZE);
        assert!(pool.charge(3 * PAGE_SIZE));
        assert_eq!(pool.stats().retained_bytes, 3 * PAGE_SIZE as u64);
        assert!(!pool.charge(2 * PAGE_SIZE), "over the bound: refused");
        drop(pool.acquire(2 * PAGE_SIZE));
        assert_eq!(pool.stats().discards, 1, "no room left for the return");
        pool.uncharge(3 * PAGE_SIZE);
        assert_eq!(pool.stats().retained_bytes, 0);
        assert!(pool.charge(4 * PAGE_SIZE));
    }

    #[test]
    fn frozen_view_survives_pool_drop() {
        // The pool handle may be dropped while views are alive; pages must
        // stay valid because PoolInner is kept alive by the Storage Arc.
        let z;
        {
            let pool = PagePool::new(1 << 20);
            let mut b = pool.acquire(PAGE_SIZE);
            b.extend_from_slice(&[5; 10]);
            z = b.freeze();
        }
        assert_eq!(z.as_slice(), &[5; 10]);
    }

    #[test]
    fn concurrent_acquire_release() {
        let pool = PagePool::new(8 << 20);
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let pool = pool.clone();
                std::thread::spawn(move || {
                    for i in 0..200 {
                        let mut b = pool.acquire((i % 5 + 1) * PAGE_SIZE);
                        b.extend_from_slice(&[i as u8; 16]);
                        assert_eq!(&b.as_slice()[..16], &[i as u8; 16]);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let s = pool.stats();
        assert_eq!(s.returns + s.discards, 8 * 200);
    }

    #[test]
    fn no_aliasing_between_outstanding_buffers() {
        let pool = PagePool::new(1 << 20);
        let a = pool.acquire(PAGE_SIZE);
        let b = pool.acquire(PAGE_SIZE);
        assert_ne!(a.as_ptr(), b.as_ptr());
    }
}
