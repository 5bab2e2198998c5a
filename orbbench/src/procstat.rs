//! Process cost counters: a counting global allocator and `getrusage`.
//!
//! Both are process-wide, so they cover the client and the server ORB
//! (which share this process) and the benchmark's own threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::os::raw::{c_int, c_long};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every allocation call (`alloc`,
/// `alloc_zeroed`, `realloc`) and the bytes each asked for.
pub struct CountingAlloc;

#[inline]
fn count(bytes: usize) {
    // Statistics only: Relaxed publishes no other data.
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees hold; counting touches only atomics.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

/// `(allocation calls, bytes requested)` since process start.
pub fn allocs() -> (u64, u64) {
    (
        ALLOC_CALLS.load(Ordering::Relaxed),
        ALLOC_BYTES.load(Ordering::Relaxed),
    )
}

#[repr(C)]
#[derive(Default)]
struct Timeval {
    tv_sec: c_long,
    tv_usec: c_long,
}

/// `struct rusage` as Linux lays it out.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: c_long,
    ru_ixrss: c_long,
    ru_idrss: c_long,
    ru_isrss: c_long,
    ru_minflt: c_long,
    ru_majflt: c_long,
    ru_nswap: c_long,
    ru_inblock: c_long,
    ru_oublock: c_long,
    ru_msgsnd: c_long,
    ru_msgrcv: c_long,
    ru_nsignals: c_long,
    ru_nvcsw: c_long,
    ru_nivcsw: c_long,
}

extern "C" {
    fn getrusage(who: c_int, usage: *mut Rusage) -> c_int;
}

const RUSAGE_SELF: c_int = 0;

/// Resource usage of the whole process.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    pub user_ns: u64,
    pub sys_ns: u64,
    /// Peak resident set size in KiB (Linux `ru_maxrss`).
    pub maxrss_kib: u64,
    /// Minor page faults (first touch of fresh anonymous memory).
    pub minflt: u64,
    /// Voluntary context switches.
    pub nvcsw: u64,
    /// Involuntary context switches.
    pub nivcsw: u64,
}

impl Usage {
    pub fn now() -> Usage {
        let mut ru = Rusage::default();
        // SAFETY: `ru` is a valid, writable `struct rusage` (repr(C), Linux
        // field order) and RUSAGE_SELF is a valid `who`.
        let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
        assert_eq!(
            rc, 0,
            "getrusage(RUSAGE_SELF) cannot fail with valid arguments"
        );
        let ns = |t: &Timeval| t.tv_sec as u64 * 1_000_000_000 + t.tv_usec as u64 * 1_000;
        Usage {
            user_ns: ns(&ru.ru_utime),
            sys_ns: ns(&ru.ru_stime),
            maxrss_kib: ru.ru_maxrss as u64,
            minflt: ru.ru_minflt as u64,
            nvcsw: ru.ru_nvcsw as u64,
            nivcsw: ru.ru_nivcsw as u64,
        }
    }

    /// Counter-wise `self - earlier`; `maxrss_kib` stays the later peak.
    pub fn since(&self, earlier: &Usage) -> Usage {
        Usage {
            user_ns: self.user_ns.saturating_sub(earlier.user_ns),
            sys_ns: self.sys_ns.saturating_sub(earlier.sys_ns),
            maxrss_kib: self.maxrss_kib,
            minflt: self.minflt.saturating_sub(earlier.minflt),
            nvcsw: self.nvcsw.saturating_sub(earlier.nvcsw),
            nivcsw: self.nivcsw.saturating_sub(earlier.nivcsw),
        }
    }

    pub fn cpu_ns(&self) -> u64 {
        self.user_ns + self.sys_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rusage_reports_cpu_and_rss() {
        let before = Usage::now();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        let d = Usage::now().since(&before);
        assert!(d.cpu_ns() > 0);
        assert!(d.maxrss_kib > 0);
    }
}
