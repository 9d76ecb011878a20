//! The counting allocator, installed the way the binary installs it.
//!
//! One `#[test]`: the counters are process-wide, so the checks run in
//! sequence inside it instead of racing in harness threads.

use incast_benchmark::alloc::{measure, totals, Counting, HeapStats};
use incast_benchmark::inputs::Inputs;
use incast_benchmark::workloads::{prepare, verify};

#[global_allocator]
static ALLOC: Counting = Counting;

#[test]
fn counting_allocator_counts_only_inside_a_window() {
    // Flag off: allocations pass through uncounted.
    let before = totals();
    let v: Vec<u64> = (0..10_000).collect();
    assert_eq!(std::hint::black_box(&v).len(), 10_000);
    drop(v);
    assert_eq!(totals(), before, "the flag-off path must not count");
    assert_eq!(before, HeapStats::default());

    // A known 1 MiB buffer moves the high-water mark by at least 1 MiB,
    // and freeing it inside the window does not lower the mark.
    let (len, stats) = measure(|| {
        let buf: Vec<u8> = vec![7; 1 << 20];
        std::hint::black_box(&buf).len()
    });
    assert_eq!(len, 1 << 20);
    assert!(
        stats.allocs >= 1 && stats.alloc_bytes >= 1 << 20,
        "{stats:?}"
    );
    assert!(stats.peak_bytes >= 1 << 20, "{stats:?}");
    assert!(stats.peak_bytes < 2 << 20, "{stats:?}");

    // Growth by `realloc` counts its delta, not its new size twice.
    let (_, grown) = measure(|| {
        let mut v: Vec<u8> = Vec::with_capacity(1 << 16);
        v.resize(1 << 16, 1);
        v.reserve_exact(1 << 16);
        std::hint::black_box(v.capacity())
    });
    assert!(grown.allocs >= 2, "{grown:?}");
    assert!((1 << 17..1 << 18).contains(&grown.peak_bytes), "{grown:?}");

    // `mode1_steady` is single-threaded and deterministic: two iterations
    // allocate equally often to the same peak, and both are correct.
    let case = prepare("mode1_steady", &Inputs::from_seed(11));
    drop(case.call()); // lazy statics and thread-locals, once
    let (first, a) = measure(|| case.call());
    let (second, b) = measure(|| case.call());
    assert!(a.allocs > 0 && a.peak_bytes > 0);
    // (`alloc_bytes` may move by a byte: the manifest renders wall-clock
    // microseconds as decimal strings.)
    assert_eq!(
        (a.allocs, a.peak_bytes),
        (b.allocs, b.peak_bytes),
        "allocation count and peak must repeat exactly"
    );
    let (va, vb) = (
        verify("mode1_steady", &case, &first),
        verify("mode1_steady", &case, &second),
    );
    assert!(va.problems.is_empty(), "{:?}", va.problems);
    assert_eq!(va.digest, vb.digest);
}
