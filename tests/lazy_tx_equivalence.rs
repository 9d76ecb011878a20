//! Lazy `TxComplete` against the eager path, with no switch between them.
//!
//! A link that cannot lose a frame schedules the frame's `Delivery` when
//! transmission starts and a `TxComplete` only once a frame waits behind it;
//! a link that can lose one keeps a `TxComplete` per frame. The only thing
//! that selects between the two is the link's own state — so a `FaultPlan`
//! naming every link in a `LinkUp` scheduled past the horizon (it never
//! pops, never draws the RNG, and takes the first seqs of the run, shifting
//! every other seq by the same amount) puts the whole fabric on the eager
//! path without changing anything else. Every output of the two runs except
//! the number of events popped must then be equal, the JSONL byte stream
//! included, on both schedulers.

use incast_bursts::simnet::{
    build_clos_with, BufferPolicy, ClosConfig, ControlConfig, EventQueue, FaultKind, FaultPlan,
    LinkConfig, LinkId, NetworkBuilder, NodeId, QueueConfig, Rate, Scheduler, Shared, SimTime,
    Simulator, TimingWheel,
};
use incast_bursts::stats::Rng;
use incast_bursts::telemetry::{JsonlSink, SinkRef};
use incast_bursts::transport::{TcpConfig, TcpHost, TransportKind};
use incast_bursts::workload::{CyclicCoordinator, IncastConfig, Worker};

/// Long enough for a 200 ms RTO, its 400 ms successor and their recovery.
/// A draw that has not finished both bursts by then (a request frame lost
/// to the shared buffer is never retried) is compared as far as it got.
const HORIZON: SimTime = SimTime::from_ms(700);

/// One fabric with its traffic endpoints' places, ready for hosts.
struct Scenario<S: Scheduler> {
    sim: Simulator<S>,
    senders: Vec<NodeId>,
    receiver: NodeId,
    tcp: TcpConfig,
    burst_ms: f64,
    label: String,
}

/// Dumbbell or Clos through the one fabric builder, with the draw deciding
/// transport, Pulser, shared buffer, a bottleneck small enough to drop, and
/// a base RTT below the serialization budget (propagation clamps to zero:
/// a frame is delivered at the very instant its serialization ends).
fn fabric_draw<S: Scheduler>(draw: u64) -> Scenario<S> {
    let mut rng = Rng::new(0x1a27 ^ draw);
    let clos = draw % 2 == 1;
    let quic = draw % 4 >= 2;
    let pulser = draw % 8 >= 4;
    let shared_buffer = draw.is_multiple_of(3);
    let zero_prop = draw.is_multiple_of(5);
    let tiny_queue = draw % 7 == 3;
    let (racks, spines) = if clos {
        (2 + rng.below(3) as usize, 1 + rng.below(3) as usize)
    } else {
        (1, 1)
    };
    let flows = 4 + rng.below(20) as usize;
    let mut tor_queue = QueueConfig::paper_tor();
    if tiny_queue {
        tor_queue.capacity_pkts = Some(40 + rng.below(40) as u32);
    }
    let cfg = ClosConfig {
        racks,
        hosts_per_rack: flows.div_ceil(racks),
        spines,
        tor_queue,
        receiver_tor_buffer: shared_buffer
            .then_some((400_000, BufferPolicy::DynamicThreshold { alpha: 1.0 })),
        target_rtt: if zero_prop {
            SimTime::from_us(1)
        } else {
            SimTime::from_us(30)
        },
        seed: rng.next_u64(),
        ..ClosConfig::default()
    };
    let mut f = build_clos_with::<S>(&cfg).expect("valid Clos draw");
    assert_eq!(f.per_link_propagation == SimTime::ZERO, zero_prop);
    if pulser {
        f.sim.set_control_plane(ControlConfig {
            ports: f.downlinks.clone(),
            flow_threshold: 3,
            window_bytes: 6_000,
            notif_loss: if draw % 16 >= 12 { 0.2 } else { 0.0 },
            seed: draw,
            ..ControlConfig::default()
        });
    }
    let senders = (0..flows).map(|i| f.host_for_flow(i)).collect();
    let mut tcp = TcpConfig::default();
    if quic {
        tcp.transport = TransportKind::Quic;
    }
    Scenario {
        receiver: f.receivers[0],
        sim: f.sim,
        senders,
        tcp,
        burst_ms: 0.2 + 0.1 * rng.below(4) as f64,
        label: format!(
            "draw {draw}: racks={racks} spines={spines} flows={flows} quic={quic} \
             pulser={pulser} shared={shared_buffer} zero_prop={zero_prop} tiny={tiny_queue}"
        ),
    }
}

/// Two switches and a trunk where every cable has its own rate and its own
/// off-grid propagation (zero included), so serialization ends, deliveries
/// and arrivals at busy transmitters tie in ways the uniform fabrics never
/// produce.
fn heterogeneous_draw<S: Scheduler>(draw: u64) -> Scenario<S> {
    let mut rng = Rng::new(0x4e7e ^ draw);
    let cable = |rng: &mut Rng, q: QueueConfig| {
        let rate = Rate::gbps([1, 10, 10, 25, 40, 100][rng.below(6) as usize]);
        let prop = match rng.below(4) {
            0 => SimTime::ZERO,
            // Shorter than a full frame's serialization on the slow rates.
            1 => SimTime::from_ps(rng.below(1_200_000)),
            _ => SimTime::from_ps(rng.below(6_000_000)),
        };
        LinkConfig::new(rate, prop, q)
    };
    let mut b = NetworkBuilder::new();
    let tor_s = b.add_switch("tor-s");
    let tor_r = b.add_switch("tor-r");
    let flows = 3 + rng.below(10) as usize;
    let senders: Vec<NodeId> = (0..flows)
        .map(|i| {
            let h = b.add_host(&format!("s{i}"));
            let up = cable(&mut rng, QueueConfig::host_nic());
            let down = cable(&mut rng, QueueConfig::paper_tor());
            b.connect(h, tor_s, up, down);
            h
        })
        .collect();
    let (there, back) = (
        cable(&mut rng, QueueConfig::paper_tor()),
        cable(&mut rng, QueueConfig::paper_tor()),
    );
    b.connect(tor_s, tor_r, there, back);
    let receiver = b.add_host("recv");
    let up = cable(&mut rng, QueueConfig::host_nic());
    let down = cable(&mut rng, QueueConfig::paper_tor());
    b.connect(receiver, tor_r, up, down);
    Scenario {
        sim: b.build_with_scheduler::<S>(rng.next_u64()),
        senders,
        receiver,
        tcp: TcpConfig::default(),
        burst_ms: 0.1 + 0.1 * rng.below(3) as f64,
        label: format!("heterogeneous draw {draw}: flows={flows}"),
    }
}

/// Everything a run produced but the count of events it popped.
#[derive(Debug, PartialEq)]
struct Outputs {
    jsonl: String,
    counters: String,
    timers: (u64, u64, u64),
    tallies: (u64, u64, u64, u64),
    frames_tx_started: u64,
    queues: String,
    senders: String,
    bcts: Vec<u64>,
    finished: bool,
    now_ps: u64,
}

/// Installs hosts, optionally pins every link to the eager path, runs two
/// bursts, and returns the outputs with `(events, tx_complete pops, elided)`.
fn run<S: Scheduler>(mut sc: Scenario<S>, eager: bool, seed: u64) -> (Outputs, (u64, u64, u64)) {
    if eager {
        let never = HORIZON + SimTime::from_secs(1);
        let plan = (0..sc.sim.num_links() as u32).fold(FaultPlan::new(), |plan, l| {
            plan.push(never, FaultKind::LinkUp { link: LinkId(l) })
        });
        sc.sim.set_fault_plan(plan);
    }
    let (jsonl, sink): (_, SinkRef) = JsonlSink::new().shared();
    sc.sim.set_sink(sink.clone());
    for l in 0..sc.sim.num_links() as u32 {
        sc.sim.enable_depth_probe(LinkId(l));
    }
    let mut workers = Vec::new();
    for (i, &s) in sc.senders.iter().enumerate() {
        let worker = Worker::new(Rng::new(seed ^ (1000 + i as u64)));
        let mut host = TcpHost::new(sc.tcp.clone(), Box::new(worker));
        host.set_sink(sink.clone());
        let host = Shared::new(host);
        workers.push(host.handle());
        sc.sim.set_endpoint(s, Box::new(host));
    }
    let mut coord = CyclicCoordinator::new(IncastConfig::paper(
        sc.senders.clone(),
        sc.burst_ms,
        2,
        seed,
    ));
    coord.set_sink(sink);
    let coord = Shared::new(coord);
    let bursts = coord.handle();
    let host = TcpHost::new(sc.tcp.clone(), Box::new(coord));
    sc.sim.set_endpoint(sc.receiver, Box::new(host));

    while !bursts.borrow().finished() && sc.sim.now() < HORIZON {
        sc.sim.run_until(sc.sim.now() + SimTime::from_ms(1));
    }
    let c = sc.sim.counters();
    let json = c.to_json();
    let (head, tail) = json
        .split_once(r#""events_processed":"#)
        .expect("counters name their event count");
    let tail = tail.trim_start_matches(|ch: char| ch.is_ascii_digit());
    let t = sc.sim.profile().tallies;
    let queues: Vec<String> = (0..sc.sim.num_links() as u32)
        .map(|l| format!("{:?}", sc.sim.link(LinkId(l)).queue.stats()))
        .collect();
    let senders: Vec<String> = workers
        .iter()
        .flat_map(|w| {
            let host = w.borrow();
            let stats: Vec<String> = host
                .core()
                .senders()
                .map(|(_, tx)| format!("{:?}", tx.stats()))
                .collect();
            stats
        })
        .collect();
    let outputs = Outputs {
        jsonl: jsonl.borrow().render(),
        counters: format!("{head}{tail}"),
        timers: (c.timers_armed, c.timer_events_scheduled, c.timer_chases),
        tallies: (t.delivery, t.timer, t.fault, t.ctrl),
        frames_tx_started: c.frames_tx_started,
        queues: queues.join("\n"),
        senders: senders.join("\n"),
        bcts: bursts
            .borrow()
            .bcts_ms()
            .iter()
            .map(|b| b.to_bits())
            .collect(),
        finished: bursts.borrow().finished(),
        now_ps: sc.sim.now().as_ps(),
    };
    (
        outputs,
        (c.events_processed, t.tx_complete, c.tx_complete_elided),
    )
}

/// Lazy and eager, wheel and heap: one set of outputs.
fn all_four_agree(
    label: &str,
    seed: u64,
    wheel: impl Fn() -> Scenario<TimingWheel>,
    heap: impl Fn() -> Scenario<EventQueue>,
) -> Outputs {
    let (lazy, (events, pops, elided)) = run(wheel(), false, seed);
    let (eager, (eager_events, eager_pops, eager_elided)) = run(wheel(), true, seed);
    assert!(lazy.jsonl.len() > 10_000, "{label}: nothing traced");
    assert_eq!(lazy, eager, "{label}: lazy and eager diverged");
    // The eager run pays a `TxComplete` for every frame, the lazy one only
    // for those a frame waited behind — and that is the whole difference.
    assert_eq!(eager_elided, 0, "{label}");
    assert!(elided > 0, "{label}: the lazy run elided nothing");
    assert_eq!(eager_events - events, eager_pops - pops, "{label}");
    assert!(eager_pops - pops <= elided, "{label}");

    let (heap_lazy, heap_lazy_counts) = run(heap(), false, seed);
    let (heap_eager, heap_eager_counts) = run(heap(), true, seed);
    assert_eq!(lazy, heap_lazy, "{label}: schedulers diverged (lazy)");
    assert_eq!(eager, heap_eager, "{label}: schedulers diverged (eager)");
    assert_eq!(heap_lazy_counts, (events, pops, elided), "{label}");
    assert_eq!(
        heap_eager_counts,
        (eager_events, eager_pops, eager_elided),
        "{label}"
    );
    lazy
}

#[test]
fn lazy_and_eager_links_produce_the_same_run_on_both_schedulers() {
    let (mut dropped, mut notified, mut timed_out, mut finished) = (false, false, false, 0);
    for draw in 0..48u64 {
        let label = fabric_draw::<TimingWheel>(draw).label;
        let out = all_four_agree(&label, draw, || fabric_draw(draw), || fabric_draw(draw));
        dropped |= !out.counters.contains(r#""queue_drops":0,"#);
        notified |= !out.counters.contains(r#""notif_sent":0,"#);
        timed_out |= out.senders.lines().any(|tx| !tx.contains("timeouts: 0,"));
        finished += u32::from(out.finished);
    }
    assert!(finished >= 40, "only {finished} of 48 draws finished");
    assert!(dropped, "no draw overflowed a queue");
    assert!(notified, "no draw sent a notification");
    assert!(timed_out, "no draw waited out an RTO");
    for draw in 0..16u64 {
        let label = heterogeneous_draw::<TimingWheel>(draw).label;
        let out = all_four_agree(
            &label,
            draw,
            || heterogeneous_draw(draw),
            || heterogeneous_draw(draw),
        );
        assert!(out.finished, "{label}: bursts never finished");
    }
}
