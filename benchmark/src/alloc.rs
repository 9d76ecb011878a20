//! A counting global allocator, generalising
//! `crates/transport/tests/alloc_free_ack.rs`: every entry point that can
//! hand out memory is counted and the live-byte high-water mark is tracked,
//! but only while [`measure`] has the flag up. With the flag down — the
//! whole timed phase — an allocation pays one relaxed load.
//!
//! The binary (and `tests/alloc.rs`) installs it with `#[global_allocator]`;
//! the library's unit tests run on the system allocator and never see it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The allocator shim. All state is in the statics below, so any number of
/// `Counting` values behave as one.
pub struct Counting;

// Statistics only: none of these publishes other data, hence `Relaxed`.
static ON: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Live bytes relative to the moment the flag went up. Signed: memory
/// allocated before the window and freed inside it drives this negative.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

#[inline]
fn grew(requested: usize, delta: i64) {
    ALLOCS.fetch_add(1, Relaxed);
    BYTES.fetch_add(requested as u64, Relaxed);
    let live = LIVE.fetch_add(delta, Relaxed) + delta;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the bookkeeping touches only the atomics above.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size(), layout.size() as i64);
        }
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(layout.size(), layout.size() as i64);
        }
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ON.load(Relaxed) {
            grew(new_size, new_size as i64 - layout.size() as i64);
        }
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ON.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        System.dealloc(ptr, layout)
    }
}

/// Tells glibc's malloc to keep what the program frees instead of handing
/// it back to the kernel. Left alone it `munmap`s every large buffer an
/// iteration drops and maps fresh pages for the next one: 45 000 page
/// faults per `fleet_fig2` iteration, 23 % of its wall-clock on the VM this
/// was written on and, being the hypervisor's work, the part that swings
/// most with the neighbours (1.7x on `trace_jsonl` within one set of runs).
/// The benchmark compares commits of the program, so it takes the
/// hypervisor out; `heap.alloc_bytes` is the row that shows the churn.
/// Call before the first thread is spawned. A no-op off glibc.
pub fn retain_freed_memory() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_MAX: i32 = -4;
        // SAFETY: `mallopt` is glibc's, which `std` links on this target; it
        // sets two tunables of the C allocator and touches no Rust state.
        unsafe {
            mallopt(M_MMAP_MAX, 0);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
        }
    }
}

/// What one [`measure`] window saw.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HeapStats {
    /// Calls to `alloc`, `alloc_zeroed` and `realloc`.
    pub allocs: u64,
    /// Bytes requested by those calls.
    pub alloc_bytes: u64,
    /// High-water mark of live bytes above the level at window start.
    pub peak_bytes: u64,
}

/// Runs `f` with counting on. Windows must not overlap (the harness is the
/// only caller and runs them one at a time). All zeros unless [`Counting`]
/// is the process's global allocator.
pub fn measure<R>(f: impl FnOnce() -> R) -> (R, HeapStats) {
    ALLOCS.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ON.store(true, Relaxed);
    let out = f();
    ON.store(false, Relaxed);
    let stats = HeapStats {
        allocs: ALLOCS.load(Relaxed),
        alloc_bytes: BYTES.load(Relaxed),
        peak_bytes: PEAK.load(Relaxed).max(0) as u64,
    };
    (out, stats)
}

/// Counters as they stand, without opening a window (for the flag-off test).
pub fn totals() -> HeapStats {
    HeapStats {
        allocs: ALLOCS.load(Relaxed),
        alloc_bytes: BYTES.load(Relaxed),
        peak_bytes: PEAK.load(Relaxed).max(0) as u64,
    }
}
