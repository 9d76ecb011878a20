//! Cost versus flow count, gated on deterministic work counters.
//!
//! A run's memory and set-up must be linear in the number of flows: the
//! paper's Mode 3 only exists at ≥ 1000 flows, and a per-host table, a
//! per-destination routing pass or a per-frame window scan that is
//! quadratic in flows is invisible at 80 flows and dominant at 1000.
//! Wall-clock cannot gate that in CI; allocator traffic can, because it
//! repeats exactly. A counting global allocator records the number of
//! allocations and the peak of live heap bytes around each measured call,
//! and the test compares a problem with its double: linear growth gives
//! about 2x, quadratic about 4x. The same counters hold tracing to one
//! allocation per chunk of its output and its heap to that output plus one
//! chunk, a run's memory to its flows rather than its length — every ACK
//! re-arms a 200 ms RTO, and a scheduler event per re-arm is a run-long
//! leak — and a long run's queue-depth series to one copy at about its own
//! size. And they hold
//! the event loop to its work per frame: a hop costs one `Delivery`, plus a
//! `TxComplete` only where a frame waits behind the one on the transmitter
//! or the link can lose it. The last section counts threads the same way:
//! a sweep the cache can serve starts none, and allocates nothing per hit.
//!
//! The whole file is one `#[test]`: the counters are process-wide, so
//! the measured calls run sequentially inside it instead of as tests
//! racing in harness threads.

use incast_bursts::core_api::modes::{run_incast, run_incast_instrumented, ModesConfig};
use incast_bursts::core_api::{run_incast_sweep, PoolStats, RunCache};
use incast_bursts::simnet::{
    build_clos_with, build_fabric_with, ClosConfig, FabricConfig, FaultKind, FaultPlan, LinkId,
    Shared, SimCounters, SimTime, TimingWheel,
};
use incast_bursts::stats::Rng;
use incast_bursts::telemetry::{JsonlSink, CHUNK_BYTES};
use incast_bursts::transport::{TcpConfig, TcpHost};
use incast_bursts::workload::{BurstSchedule, CyclicCoordinator, IncastConfig, Worker};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grew(bytes: usize) {
    ALLOCS.fetch_add(1, Relaxed);
    let live = LIVE.fetch_add(bytes as u64, Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        grew(new_size);
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as u64, Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: CountingAlloc = CountingAlloc;

/// Heap work of one call: allocations made, and how far live bytes rose
/// above where they stood when the call began.
#[derive(Debug, Clone, Copy)]
struct HeapWork {
    allocs: u64,
    peak_bytes: u64,
}

fn measure<T>(f: impl FnOnce() -> T) -> HeapWork {
    let base = LIVE.load(Relaxed);
    PEAK.store(base, Relaxed);
    let allocs = ALLOCS.load(Relaxed);
    drop(f());
    HeapWork {
        allocs: ALLOCS.load(Relaxed) - allocs,
        peak_bytes: PEAK.load(Relaxed) - base,
    }
}

/// One 1 ms burst from `flows` senders.
fn one_burst(flows: usize) -> ModesConfig {
    ModesConfig {
        num_flows: flows,
        burst_duration_ms: 1.0,
        num_bursts: 1,
        seed: 11,
        ..ModesConfig::default()
    }
}

fn incast(flows: usize) -> HeapWork {
    let cfg = one_burst(flows);
    measure(|| {
        let r = run_incast(&cfg);
        assert_eq!(r.bcts_ms.len(), 1, "{flows}-flow burst did not complete");
        r
    })
}

/// Heap work of one instrumented run with every event class traced into a
/// `JsonlSink`, of the same run with no sink, and the bytes the sink holds.
fn traced_and_untraced(flows: usize) -> (HeapWork, HeapWork, usize) {
    let cfg = one_burst(flows);
    let mut bytes = 0;
    let traced = measure(|| {
        let (jsonl, sink) = JsonlSink::new().shared();
        let run = run_incast_instrumented(&cfg, Some(&sink));
        bytes = jsonl.borrow().lines().map(|line| line.len() + 1).sum();
        (run, jsonl)
    });
    let untraced = measure(|| run_incast_instrumented(&cfg, None));
    (traced, untraced, bytes)
}

/// Few flows, bursts 600 ms apart: a 6 s run whose largest allocation is
/// its bottleneck's depth series. The heap work, the series' length, and
/// its non-empty buckets.
fn depth_dominated(queue_sample: SimTime) -> (HeapWork, usize, usize) {
    let cfg = ModesConfig {
        num_flows: 4,
        burst_duration_ms: 0.5,
        num_bursts: 11,
        warmup_bursts: 1,
        schedule: BurstSchedule::AfterCompletion {
            gap: SimTime::from_ms(600),
        },
        queue_sample,
        seed: 11,
        ..ModesConfig::default()
    };
    let (mut len, mut nonempty) = (0, 0);
    let work = measure(|| {
        let r = run_incast(&cfg);
        assert_eq!(r.bcts_ms.len(), 11, "the bursts did not complete");
        len = r.queue_pkts.len();
        nonempty = r.queue_pkts.iter().filter(|&(_, v)| v != 0.0).count();
        r
    });
    (work, len, nonempty)
}

/// `num_bursts` loss-free 5 ms bursts from 80 senders (the paper's Mode 1),
/// run to the last burst's completion: the heap work, the simulator's
/// counters and the events still pending in the scheduler. Links for which
/// `faultable(link, trunk)` holds are named by a fault that never fires,
/// which is all it takes to make them keep a `TxComplete` per frame.
fn mode1(num_bursts: u32, faultable: fn(LinkId, LinkId) -> bool) -> (HeapWork, SimCounters, usize) {
    const FLOWS: usize = 80;
    let mut end = None;
    let work = measure(|| {
        let mut f = build_fabric_with::<TimingWheel>(&FabricConfig {
            num_senders: FLOWS,
            seed: 11,
            ..FabricConfig::default()
        });
        let plan = (0..f.sim.num_links() as u32)
            .map(LinkId)
            .filter(|&link| faultable(link, f.trunk))
            .fold(FaultPlan::new(), |plan, link| {
                plan.push(SimTime::from_secs(1), FaultKind::LinkUp { link })
            });
        let never_fires = plan.len();
        f.sim.set_fault_plan(plan);
        for (i, &s) in f.senders.iter().enumerate() {
            let worker = Worker::new(Rng::new(i as u64));
            let host = TcpHost::new(TcpConfig::default(), Box::new(worker));
            f.sim.set_endpoint(s, Box::new(host));
        }
        let cfg = IncastConfig::paper(f.senders.clone(), 5.0, num_bursts, 11);
        let coordinator = Shared::new(CyclicCoordinator::new(cfg));
        let bursts = coordinator.handle();
        let host = TcpHost::new(TcpConfig::default(), Box::new(coordinator));
        f.sim.set_endpoint(f.receivers[0], Box::new(host));
        while !bursts.borrow().finished() {
            assert!(f.sim.now() < SimTime::from_ms(150), "bursts never finished");
            f.sim.run_until(f.sim.now() + SimTime::from_ms(1));
        }
        end = Some((
            f.sim.counters().clone(),
            f.sim.pending_events() - never_fires,
        ));
        f
    });
    let (counters, pending) = end.unwrap();
    assert_eq!(counters.queue_drops, 0, "a Mode 1 run drops nothing");
    (work, counters, pending)
}

fn clos(racks: usize) -> HeapWork {
    let cfg = ClosConfig {
        racks,
        hosts_per_rack: 50,
        spines: 4,
        ..ClosConfig::default()
    };
    measure(|| {
        let f = build_clos_with::<TimingWheel>(&cfg).unwrap();
        assert_eq!(f.num_hosts(), racks * 50);
        f.sim.num_links()
    })
}

#[test]
fn doubling_the_flows_at_most_doubles_and_a_half_the_heap_work() {
    // The first run pays the process's one-time set-up (lazy statics,
    // the thread's buffers); measure after it.
    incast(8);

    let (small, large) = (incast(200), incast(400));
    eprintln!("run_incast 200 flows: {small:?}\nrun_incast 400 flows: {large:?}");
    assert!(
        large.peak_bytes as f64 <= 2.5 * small.peak_bytes as f64,
        "peak live heap is super-linear in flows: {small:?} -> {large:?}"
    );
    assert!(
        large.allocs as f64 <= 2.5 * small.allocs as f64,
        "allocation count is super-linear in flows: {small:?} -> {large:?}"
    );

    // Tracing allocates for the output it keeps — the first chunk doubling
    // (at most log2 of a chunk times), then one allocation per chunk — and a
    // constant for the handles around it, not per event: the encoder stages
    // each line on the stack. And it holds that output once: its heap is
    // the untraced run's plus the bytes written, at most one chunk of spare
    // room and a margin for the handles — not the up-to-2x of a doubling
    // `String`.
    for flows in [20, 40] {
        let (traced, untraced, bytes) = traced_and_untraced(flows);
        eprintln!("{flows} flows traced: {traced:?}, untraced {untraced:?}, {bytes} B");
        assert!(bytes > 100_000, "{flows}-flow trace is only {bytes} bytes");
        let chunks = CHUNK_BYTES.ilog2() as u64 + (bytes / CHUNK_BYTES) as u64;
        assert!(
            traced.allocs <= untraced.allocs + 64 + chunks,
            "tracing {flows} flows allocates per event: {traced:?} vs {untraced:?} \
             untraced for {bytes} bytes of JSONL"
        );
        assert!(
            traced.peak_bytes <= untraced.peak_bytes + (bytes + CHUNK_BYTES + (64 << 10)) as u64,
            "tracing {flows} flows holds more than its output: {traced:?} vs {untraced:?} \
             untraced for {bytes} bytes of JSONL"
        );
    }

    // Twice the bursts: twice the ACKs, each re-arming its flow's RTO 200 ms
    // out — past the end of either run, so a scheduler event per re-arm
    // piles up for the whole of it. One live event per timer makes the
    // peak a property of the flow count.
    let lazy = |_, _| false;
    let ((short, ..), (long, c, pending)) = (mode1(4, lazy), mode1(8, lazy));
    eprintln!("mode 1, 4 bursts: {short:?}\nmode 1, 8 bursts: {long:?}, {pending} pending, {c:?}");
    assert!(
        long.peak_bytes as f64 <= 1.25 * short.peak_bytes as f64,
        "peak live heap grows with run length: {short:?} -> {long:?}"
    );
    assert!(
        c.timers_armed > 30_000,
        "only {} timer arms",
        c.timers_armed
    );
    assert!(
        c.timer_events_scheduled <= c.timers_armed / 10,
        "{} scheduler events for {} timer arms ({} chases)",
        c.timer_events_scheduled,
        c.timers_armed,
        c.timer_chases
    );
    assert!(
        pending <= 4 * 80,
        "{pending} events pending after an 80-flow run"
    );

    // The receiver's downlink is the one standing queue of an incast; every
    // other hop (sender uplinks, trunk, the whole ACK path) finds its link
    // idle and costs the frame's `Delivery` alone. One event per hop plus a
    // `TxComplete` per queued frame: under 4 events per delivered packet
    // (three hops) where a `TxComplete` for every frame on every hop made
    // it 6, under 1.5 per transmission where it made it 2.
    let (frames, events) = (c.frames_tx_started, c.events_processed);
    assert!(
        events as f64 <= 4.0 * c.delivered_pkts as f64 && events as f64 <= 1.5 * frames as f64,
        "{events} events for {} packets, {frames} frame transmissions",
        c.delivered_pkts
    );
    assert!(
        c.tx_complete_elided as f64 >= 0.7 * frames as f64,
        "only {} of {frames} serialization ends cost no event",
        c.tx_complete_elided
    );
    // What makes a link pay for every `TxComplete` is that it can lose a
    // frame, link by link: with the trunk alone named in the fault plan the
    // trunk elides nothing and every other link what it did before, and the
    // complement plan leaves exactly the trunk's share.
    let (_, all, _) = mode1(2, lazy);
    let (_, but_trunk, _) = mode1(2, |link, trunk| link == trunk);
    let (_, trunk_only, _) = mode1(2, |link, trunk| link != trunk);
    let (_, none, _) = mode1(2, |_, _| true);
    for run in [&but_trunk, &trunk_only, &none] {
        assert_eq!(run.frames_tx_started, all.frames_tx_started);
        assert_eq!(run.delivered_bytes, all.delivered_bytes);
    }
    let elided = |c: &SimCounters| c.tx_complete_elided;
    eprintln!(
        "elided: all links lazy {}, trunk eager {}, only trunk lazy {}",
        elided(&all),
        elided(&but_trunk),
        elided(&trunk_only)
    );
    assert!(
        elided(&trunk_only) > 0,
        "the trunk elides nothing when lazy"
    );
    assert_eq!(elided(&but_trunk) + elided(&trunk_only), elided(&all));
    assert_eq!(elided(&none), 0);
    assert_eq!(
        none.events_processed - all.events_processed,
        elided(&all),
        "eliding a TxComplete saves exactly its event"
    );

    // A run whose heap is its depth series (300 k buckets of 20 µs) holds
    // the series once, with bounded slack: moved into the result, not
    // cloned out of a live copy whose capacity doubled past it. The rest of
    // the run is the same one with 1 s buckets.
    let (series, len, nonempty) = depth_dominated(SimTime::from_us(20));
    let (fixed, few, _) = depth_dominated(SimTime::from_secs(1));
    eprintln!(
        "depth series of {len} buckets, {nonempty} non-empty: {series:?}; with {few}: {fixed:?}"
    );
    assert!(len > 280_000, "the series is only {len} buckets");
    let cost = series.peak_bytes.saturating_sub(fixed.peak_bytes);
    assert!(
        cost as f64 <= 1.3 * 8.0 * len as f64,
        "a {len}-bucket depth series costs {cost} B of peak heap"
    );
    // And it stores the time the queue was busy, not the idle time between
    // bursts: at most 24 B per non-empty bucket, plus 4 KiB.
    assert!(
        cost <= 24 * nonempty as u64 + 4096,
        "a depth series with {nonempty} non-empty buckets costs {cost} B of peak heap"
    );

    // Twice the racks: twice the hosts *and* nearly twice the switches, so
    // a candidate list per (switch, destination) pair grows more than 3x
    // here; tables emitted once per switch grow ~2x.
    let (small, large) = (clos(20), clos(40));
    eprintln!("build_clos 1000 hosts: {small:?}\nbuild_clos 2000 hosts: {large:?}");
    assert!(
        (large.allocs as f64) < 3.0 * small.allocs as f64,
        "fabric set-up allocations are super-linear in hosts: {small:?} -> {large:?}"
    );

    // A sweep hands other threads only what the cache cannot serve: warmed
    // inline (one thread, so no helper is still exiting), a re-sweep asked
    // for four threads makes no parallel call and starts no thread; the
    // same sweep cold spreads over exactly the four it asked for — and so
    // does one whose entries are on disk, a file read and a decode each.
    let cfgs: Vec<ModesConfig> = (0..6).map(|i| one_burst(8 + i)).collect();
    let os_threads = || std::fs::read_dir("/proc/self/task").map_or(0, |d| d.count());
    let cache = RunCache::in_memory();
    run_incast_sweep(&cfgs, 1, &cache);
    let (stats, tasks) = (PoolStats::snapshot(), os_threads());
    let warm = run_incast_sweep(&cfgs, 4, &cache);
    assert_eq!(warm.len(), cfgs.len());
    assert_eq!(PoolStats::snapshot().delta(&stats), PoolStats::default());
    assert_eq!(os_threads(), tasks, "a warm sweep changed the thread count");
    run_incast_sweep(&cfgs, 4, &RunCache::in_memory());
    let cold = PoolStats::snapshot().delta(&stats);
    assert_eq!((cold.jobs, cold.items, cold.participants), (1, 6, 4));

    // A memory hit is found from the config's own fields: no key is
    // rendered and nothing else is allocated per config, so a warm re-sweep
    // of twice the configs makes the same few allocations (the result
    // vector, whatever its length).
    let twelve: Vec<ModesConfig> = (0..12).map(|i| one_burst(8 + i)).collect();
    run_incast_sweep(&twelve, 1, &cache);
    let (six_warm, twelve_warm) = (
        measure(|| run_incast_sweep(&cfgs, 4, &cache)),
        measure(|| run_incast_sweep(&twelve, 4, &cache)),
    );
    eprintln!("warm sweep of 6: {six_warm:?}\nwarm sweep of 12: {twelve_warm:?}");
    assert_eq!(
        six_warm.allocs, twelve_warm.allocs,
        "a warm hit allocates per config"
    );

    let dir = std::env::temp_dir().join(format!("incast-scaling-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    run_incast_sweep(&cfgs, 1, &RunCache::with_disk(&dir));
    let (stats, on_disk) = (PoolStats::snapshot(), RunCache::with_disk(&dir));
    run_incast_sweep(&cfgs, 4, &on_disk);
    let decoded = PoolStats::snapshot().delta(&stats);
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!((on_disk.stats().disk_hits, on_disk.stats().misses), (6, 0));
    assert_eq!(
        (decoded.jobs, decoded.items, decoded.participants),
        (1, 6, 4),
        "disk entries must decode on the sweep's threads, not serially on the caller"
    );
}
