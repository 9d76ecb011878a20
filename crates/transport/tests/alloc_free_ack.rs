//! Allocation-free ACK processing, proven by a counting allocator.
//!
//! The hot path's claim (ROADMAP "Next 10× on the hot path") is that once
//! a connection reaches steady state, processing a delivered segment or
//! ACK touches no allocator at all: SACK/AckRanges walks reuse scratch
//! buffers, the packet pool and scheduler slots recycle their capacity,
//! and per-flow state lives in flat tables. This test wraps the global
//! allocator in a counting shim, warms a transfer past slow start (so
//! every buffer has reached its high-water capacity), then asserts that a
//! multi-millisecond window of continuous ACK clocking performs **zero**
//! heap allocations — for both the TCP and the QUIC-style recovery stack.
//!
//! The whole file is one `#[test]`: the counter is a process-wide global,
//! so the two transports run sequentially inside it instead of as two
//! tests racing in harness threads.

use simnet::{build_dumbbell, FlowId, NodeId, Shared, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use transport::{TcpApi, TcpApp, TcpConfig, TcpHost, TransportKind};

/// Counts every allocator entry point that can hand out new memory.
/// Deallocation is deliberately not counted: freeing in the window is
/// harmless, minting is what the hot path must not do.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static TRACE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

fn note_alloc(what: &str, size: usize) {
    ALLOC_CALLS.fetch_add(1, Ordering::Relaxed);
    // One-shot: capturing a backtrace allocates (and those allocations are
    // counted too), so only the first offender in the window is reported.
    if TRACE.swap(false, Ordering::Relaxed) {
        eprintln!(
            "ALLOC {what} size={size} at:\n{}",
            std::backtrace::Backtrace::force_capture()
        );
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc("alloc", layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc("zeroed", layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc("realloc", new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

const MSS: u64 = 1446;

/// Sender app: answers the control request by queueing the demand.
struct Echo;
impl TcpApp for Echo {
    fn on_ctrl(&mut self, api: &mut TcpApi, from: NodeId, flow: FlowId, demand: u64, _burst: u64) {
        api.open_sender(flow, from);
        api.add_demand(flow, demand);
    }
}

/// Receiver app: requests `demand` bytes from every worker at start.
struct Request {
    workers: Vec<NodeId>,
    demand: u64,
}
impl TcpApp for Request {
    fn on_start(&mut self, api: &mut TcpApi) {
        for (i, w) in self.workers.iter().enumerate() {
            api.send_ctrl(*w, FlowId(i as u32), self.demand, 0);
        }
    }
}

/// Runs a long multi-sender transfer on `kind`'s recovery stack: warm to
/// steady state, then measure allocator calls across a window of pure ACK
/// clocking. Returns (allocations in window, packets delivered in window).
///
/// The fixture is shaped so that *steady state* actually exists:
///
/// - Several senders, so the bottleneck is the receiver's ToR port — the
///   one queue with a DCTCP marking threshold. A single sender would
///   bottleneck on its own (unmarked) NIC queue, the congestion window
///   would grow bufferbloat without ever seeing a CE mark, and the
///   swelling RTT would drag the RTO horizon with it indefinitely.
/// - Short timer floors, so every re-armed timer lands within the timing
///   wheel's finest rings — the ones whose slots all revolve (and thus
///   reach their high-water capacity) within the warm-up. The default
///   200 ms RTO floor parks stale re-arms in a coarse ring that revolves
///   over *seconds*: each batch lands in a never-touched slot and the
///   scheduler (not the ACK path under test) would pay cold-start slot
///   growth no practical warm-up can retire.
fn steady_state_alloc_count(kind: TransportKind) -> (u64, u64) {
    const SENDERS: usize = 4;
    let cfg = TcpConfig {
        transport: kind,
        min_rto: SimTime::from_us(500),
        pto_granularity: SimTime::from_us(100),
        ..TcpConfig::default()
    };
    let mut f = build_dumbbell(SENDERS, 11);
    for i in 0..SENDERS {
        let host = Shared::new(TcpHost::new(cfg.clone(), Box::new(Echo)));
        f.sim.set_endpoint(f.senders[i], Box::new(host));
    }
    let rx_host = Shared::new(TcpHost::new(
        cfg,
        Box::new(Request {
            workers: f.senders.clone(),
            // Enough demand per worker to outlast the measurement window
            // by far: ~43 MB each is tens of milliseconds at 10 Gbps.
            demand: 30_000 * MSS,
        }),
    ));
    f.sim.set_endpoint(f.receivers[0], Box::new(rx_host));

    // Warm-up: slow start, first timer re-arms, every pool/queue/
    // scheduler buffer reaches its steady-state high-water capacity.
    f.sim.run_until(SimTime::from_ms(5));
    let delivered_before = f.sim.counters().delivered_pkts;
    // Arm the tracer *before* snapshotting the counter: the env lookup
    // itself allocates when the variable is set.
    TRACE.store(std::env::var_os("ALLOC_TRACE").is_some(), Ordering::Relaxed);
    let allocs_before = ALLOC_CALLS.load(Ordering::Relaxed);

    // Measurement window: continuous data + ACK exchange, no app churn.
    f.sim.run_until(SimTime::from_ms(10));

    TRACE.store(false, Ordering::Relaxed);
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - allocs_before;
    let delivered = f.sim.counters().delivered_pkts - delivered_before;
    (allocs, delivered)
}

#[test]
fn steady_state_ack_processing_allocates_nothing() {
    for kind in [TransportKind::Tcp, TransportKind::Quic] {
        let (allocs, delivered) = steady_state_alloc_count(kind);
        assert!(
            delivered > 1_000,
            "{}: window processed too little traffic to be meaningful \
             ({delivered} packets) — fixture broke, not the allocator claim",
            kind.label()
        );
        assert_eq!(
            allocs,
            0,
            "{}: {allocs} heap allocations during a steady-state window of \
             {delivered} delivered packets; the ACK path is supposed to be \
             allocation-free",
            kind.label()
        );
    }
}
