//! Allocation-free ACK processing, proven by a counting allocator.
//!
//! The hot path's claim (ROADMAP "Next 10× on the hot path") is that once
//! a connection reaches steady state, processing a delivered segment or
//! ACK touches no allocator at all: range sets keep their first range in
//! place and, once spilled, keep their `Vec`; the QUIC engine unwraps ACK
//! blocks on the stack; the packet pool and scheduler slots recycle their
//! capacity. This test wraps the global allocator in a counting shim,
//! warms a transfer past slow start (so every buffer has reached its
//! high-water capacity), then asserts that a multi-millisecond window of
//! continuous ACK clocking performs **zero** heap allocations — for the
//! TCP and the QUIC-style recovery stack on a clean wire, and for QUIC on
//! a bottleneck that loses 5 % of data packets. There a hole always stands
//! somewhere, so the range sets have spilled to their `Vec`s: a sender's
//! acknowledged bytes hold several ranges on most ACKs of the window, its
//! retransmission queue has held two lost packets at once during warm-up,
//! and the receiver's packet-number set holds its cap of 64 ranges.
//!
//! The whole file is one `#[test]`: the counter is a process-wide global,
//! so the windows run sequentially inside it instead of as tests racing
//! in harness threads. It counts the test's own thread only: the harness's
//! main thread registers the running test after spawning it, and on a
//! loaded machine that allocation can land inside a window.

use simnet::{build_dumbbell, FlowId, NodeId, Shared, SimTime};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use transport::{TcpApi, TcpApp, TcpConfig, TcpHost, TransportKind};

/// Counts every allocator entry point that can hand out new memory.
/// Deallocation is deliberately not counted: freeing in the window is
/// harmless, minting is what the hot path must not do.
struct CountingAlloc;

static ALLOC_CALLS: AtomicU64 = AtomicU64::new(0);
static TRACE: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

thread_local! {
    /// Set on the thread that runs the simulations.
    static MEASURED: Cell<bool> = const { Cell::new(false) };
}

fn note_alloc(what: &str, size: usize) {
    if !MEASURED.with(Cell::get) {
        return;
    }
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

/// Runs a long multi-sender transfer on `kind`'s recovery stack, losing
/// each data packet on the bottleneck with probability `loss`: warm to
/// steady state for `warm_ms`, then measure allocator calls across a 5 ms
/// window of pure ACK clocking. Returns (allocations in window, packets delivered in window,
/// packets lost in window).
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
/// - Under loss, a longer warm-up: every lost packet leaves a permanent gap
///   in the receiver's packet-number set, which grows until its cap of 64
///   ranges, and the sender's sets reach their most simultaneous holes
///   only after a few thousand packets per flow.
fn steady_state_alloc_count(kind: TransportKind, loss: f64, warm_ms: u64) -> (u64, u64, u64) {
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
    f.sim.link_mut(f.downlinks[0]).fault_loss = loss;

    // Warm-up: slow start, first timer re-arms, every pool/queue/
    // scheduler buffer reaches its steady-state high-water capacity.
    f.sim.run_until(SimTime::from_ms(warm_ms));
    let delivered_before = f.sim.counters().delivered_pkts;
    let lost_before = f.sim.counters().fault_drops;
    // Arm the tracer *before* snapshotting the counter: the env lookup
    // itself allocates when the variable is set.
    TRACE.store(std::env::var_os("ALLOC_TRACE").is_some(), Ordering::Relaxed);
    let allocs_before = ALLOC_CALLS.load(Ordering::Relaxed);

    // Measurement window: continuous data + ACK exchange, no app churn.
    f.sim.run_until(SimTime::from_ms(warm_ms + 5));

    TRACE.store(false, Ordering::Relaxed);
    let allocs = ALLOC_CALLS.load(Ordering::Relaxed) - allocs_before;
    let delivered = f.sim.counters().delivered_pkts - delivered_before;
    (
        allocs,
        delivered,
        f.sim.counters().fault_drops - lost_before,
    )
}

#[test]
fn steady_state_ack_processing_allocates_nothing() {
    MEASURED.with(|m| m.set(true));
    for (kind, loss, warm_ms) in [
        (TransportKind::Tcp, 0.0, 5),
        (TransportKind::Quic, 0.0, 5),
        (TransportKind::Quic, 0.05, 40),
    ] {
        let (allocs, delivered, lost) = steady_state_alloc_count(kind, loss, warm_ms);
        let what = format!("{} at loss {loss}", kind.label());
        assert!(
            delivered > 1_000,
            "{what}: window processed too little traffic to be meaningful \
             ({delivered} packets) — fixture broke, not the allocator claim"
        );
        assert!(
            (loss == 0.0) == (lost == 0) && (loss == 0.0 || lost > 20),
            "{what}: {lost} packets lost in the window — no standing hole"
        );
        assert_eq!(
            allocs, 0,
            "{what}: {allocs} heap allocations during a steady-state window \
             of {delivered} delivered packets; the ACK path is supposed to be \
             allocation-free"
        );
    }
}
