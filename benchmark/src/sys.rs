//! What the operating system and the allocator can tell the benchmark
//! about its own process: CPU time, peak resident memory, heap
//! allocation counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// `struct timespec` of the 64-bit Linux ABIs.
#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

extern "C" {
    // From the C library `std` already links; the benchmark has no libc
    // crate to name it through.
    fn clock_gettime(clock_id: std::ffi::c_int, tp: *mut Timespec) -> std::ffi::c_int;
}

/// `CLOCK_PROCESS_CPUTIME_ID` on Linux.
const CLOCK_PROCESS_CPUTIME_ID: std::ffi::c_int = 2;

/// User + system CPU seconds of the whole process, every thread that
/// ever ran included, at the scheduler's nanosecond resolution
/// (`/proc/self/stat` ticks at 10 ms, too coarse for a slice of one
/// frame). Zero if the clock cannot be read.
pub fn cpu_seconds() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `timespec`, and the call writes
    // nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0.0;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Peak resident set size (`VmHWM`) of the process, in MiB.
pub fn peak_rss_mb() -> f64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0.0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Hardware threads the host offers.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Counts heap allocations while [`count_allocations`] is running and
/// forwards every call to the system allocator.
pub struct CountingAlloc;

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counter is a relaxed
// statistic that publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.load(Ordering::Relaxed) {
            ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

/// Heap allocations (`alloc` + `realloc` calls, all threads) made while
/// `f` runs. Counting is off outside this call, so untraced runs pay
/// one relaxed load per allocation and nothing else.
pub fn count_allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    COUNTING.store(true, Ordering::Relaxed);
    let out = f();
    COUNTING.store(false, Ordering::Relaxed);
    (out, ALLOCATIONS.load(Ordering::Relaxed) - before)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocations_are_counted_only_inside_the_probe() {
        let (v, n) = count_allocations(|| vec![1u8; 64]);
        assert_eq!(v.len(), 64);
        assert!(n >= 1, "a fresh Vec allocates");
        assert!(!COUNTING.load(Ordering::Relaxed));
    }

    #[test]
    fn proc_readers_return_sane_values() {
        assert!(peak_rss_mb() > 0.0);
        let before = cpu_seconds();
        std::hint::black_box((0..200_000u64).fold(0, |a, b| a ^ std::hint::black_box(b)));
        assert!(cpu_seconds() > before, "the CPU clock advances under work");
        assert!(nproc() >= 1);
    }
}
