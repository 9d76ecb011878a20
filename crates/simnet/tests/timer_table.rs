//! Model test for the simulator's timer table, on both schedulers.
//!
//! The simulator keeps one live scheduler event per timer and lets it chase
//! the deadline the endpoint last armed. The model here knows none of that:
//! a `BTreeMap` from timer to `(deadline, arm order)`, the earliest entry
//! fires, re-arming overwrites, cancelling removes. Seeded scripts of
//! arm / re-arm later / re-arm earlier / re-arm to the same instant /
//! cancel / cancel-then-arm run on four hosts with three timers each (plus
//! the timer that drives each host's script), with packets that re-arm or
//! cancel the peer's timers and `HostPause` windows that defer both. Times
//! sit on a 1 µs grid so same-instant ties are common; the arm order decides
//! them, as the reserved seq does in the simulator.
//!
//! Checked per script and scheduler: the `(time, node, key)` sequence of
//! endpoint timer fires equals the model's, and — by a scheduler wrapper —
//! no timer ever has two live events pending, a dead one only where a
//! re-arm to an earlier deadline superseded it.

use simnet::{
    Ctx, Endpoint, Event, EventKind, EventQueue, FaultKind, FaultPlan, FlowId, LinkConfig,
    NetworkBuilder, NodeId, Packet, PacketKind, QueueConfig, Rate, Scheduler, SimTime, TimingWheel,
    HEADER_BYTES,
};
use stats::Rng;
use std::cell::{Cell, RefCell};
use std::collections::{BTreeMap, HashMap};
use std::rc::Rc;

const NODES: usize = 4;
const KEYS: u64 = 3;
const STEPS: usize = 60;
/// The timer that runs a host's script: one step per fire, then re-armed.
const DRIVER: u64 = u64::MAX;
const US: u64 = 1_000_000;
const PAYLOAD: u32 = 46;
/// Added to every delay a packet asks for: arrivals are off the grid, and
/// this keeps a timer armed at one from ever tying with a later arrival.
const REMOTE_SKEW: u64 = 137;

fn rate() -> Rate {
    Rate::gbps(10)
}

fn serialization() -> u64 {
    rate()
        .serialize_time((PAYLOAD + HEADER_BYTES) as u64)
        .as_ps()
}

/// Propagation of `node`'s uplink: off the grid and different per
/// direction, so a packet arrival never ties with a timer or another packet.
fn propagation(node: usize) -> u64 {
    300_000 + 1_111 * (node as u64 + 1)
}

fn peer(node: usize) -> usize {
    node ^ 1
}

/// What a packet asks the receiving host to do to one of its timers.
#[derive(Debug, Clone, Copy)]
enum Remote {
    Cancel { key: u64 },
    ArmAfter { key: u64, delay_us: u32 },
}

impl Remote {
    fn to_packet(self, src: NodeId, dst: NodeId, now: SimTime) -> Packet {
        let (key, seq) = match self {
            Remote::Cancel { key } => (key, u32::MAX),
            Remote::ArmAfter { key, delay_us } => (key, delay_us),
        };
        Packet::data(FlowId(key as u32), src, dst, seq, PAYLOAD, false, now)
    }

    fn from_packet(pkt: &Packet) -> Remote {
        let key = pkt.flow.0 as u64;
        match pkt.kind {
            PacketKind::Data { seq: u32::MAX, .. } => Remote::Cancel { key },
            PacketKind::Data { seq, .. } => Remote::ArmAfter { key, delay_us: seq },
            other => panic!("unexpected packet {other:?}"),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum Op {
    Arm { key: u64, at: u64 },
    Cancel { key: u64 },
    Send(Remote),
}

#[derive(Debug, Default)]
struct Script {
    /// Per node, when each step is due (absolute ps, ascending).
    step_at: Vec<Vec<u64>>,
    /// Per node and step, what the driver does; filled in as the model runs.
    ops: Vec<Vec<Vec<Op>>>,
    /// `(time, node, pause?)`, in plan order.
    faults: Vec<(u64, usize, bool)>,
}

type Fires = Vec<(u64, usize, u64)>;

enum Held {
    Timer { key: u64, order: u64 },
    Packet(Remote),
}

/// The naive timer semantics plus just enough of the network to know when
/// packets arrive. Running it both writes the script (each step's ops are
/// drawn against the model's state, so "earlier", "later" and "same" mean
/// something) and produces the expected fires.
struct Model {
    now: u64,
    rng: Rng,
    script: Script,
    /// `(node, key) -> (deadline, arm order, came due while paused)`.
    armed: BTreeMap<(usize, u64), (u64, u64, bool)>,
    next_order: u64,
    paused: [bool; NODES],
    held: Vec<Vec<Held>>,
    /// `(arrival, destination, request)`.
    wire: Vec<(u64, usize, Remote)>,
    nic_free_at: [u64; NODES],
    next_fault: usize,
    fires: Fires,
    /// Deferred timers dropped at resume (coverage).
    dropped_at_resume: u64,
}

impl Model {
    fn arm(&mut self, node: usize, key: u64, at: u64) {
        let order = self.next_order;
        self.next_order += 1;
        self.armed
            .insert((node, key), (at.max(self.now), order, false));
    }

    fn draw_delay_us(&mut self) -> u64 {
        match self.rng.below(12) {
            0 => 0,
            1..=5 => 1 + self.rng.below(5),
            6..=8 => 10 + self.rng.below(90),
            9 => 1_000 + self.rng.below(4_000),
            10 => 100_000 + self.rng.below(200_000),
            _ => 5_000_000, // beyond the wheel's span
        }
    }

    fn draw_remote(&mut self) -> Remote {
        let key = self.rng.below(KEYS);
        if self.rng.chance(0.5) {
            Remote::Cancel { key }
        } else {
            Remote::ArmAfter {
                key,
                delay_us: (1 + self.rng.below(30)) as u32,
            }
        }
    }

    fn draw_ops(&mut self, node: usize) -> Vec<Op> {
        let mut ops = Vec::new();
        for _ in 0..1 + self.rng.below(3) {
            let key = self.rng.below(KEYS);
            let delay = self.draw_delay_us() * US;
            match self.armed.get(&(node, key)).copied() {
                Some((deadline, ..)) => match self.rng.below(6) {
                    0 => ops.push(Op::Arm {
                        key,
                        at: deadline + delay,
                    }),
                    1 => ops.push(Op::Arm {
                        key,
                        at: deadline.saturating_sub(delay),
                    }),
                    2 => ops.push(Op::Arm { key, at: deadline }),
                    3 => ops.push(Op::Cancel { key }),
                    4 => {
                        ops.push(Op::Cancel { key });
                        ops.push(Op::Arm {
                            key,
                            at: self.now + delay,
                        });
                    }
                    _ => ops.push(Op::Send(self.draw_remote())),
                },
                None if self.rng.chance(0.8) => ops.push(Op::Arm {
                    key,
                    at: self.now + delay,
                }),
                None => ops.push(Op::Send(self.draw_remote())),
            }
        }
        ops
    }

    fn apply(&mut self, node: usize, op: Op) {
        match op {
            Op::Arm { key, at } => self.arm(node, key, at),
            Op::Cancel { key } => {
                self.armed.remove(&(node, key));
            }
            Op::Send(remote) => {
                let departs = self.now.max(self.nic_free_at[node]);
                self.nic_free_at[node] = departs + serialization();
                let arrives = self.nic_free_at[node] + propagation(node);
                self.wire.push((arrives, peer(node), remote));
            }
        }
    }

    fn on_timer(&mut self, node: usize, key: u64) {
        self.fires.push((self.now, node, key));
        if key != DRIVER {
            return;
        }
        let ops = self.draw_ops(node);
        for &op in &ops {
            self.apply(node, op);
        }
        self.script.ops[node].push(ops);
        let next = self.script.ops[node].len();
        if let Some(&at) = self.script.step_at[node].get(next) {
            self.arm(node, DRIVER, at);
        }
    }

    fn on_packet(&mut self, node: usize, remote: Remote) {
        match remote {
            Remote::Cancel { key } => {
                self.armed.remove(&(node, key));
            }
            Remote::ArmAfter { key, delay_us } => {
                self.arm(node, key, self.now + delay_us as u64 * US + REMOTE_SKEW);
            }
        }
    }

    fn run(mut self) -> (Script, Fires, u64) {
        for node in 0..NODES {
            let at = self.script.step_at[node][0];
            self.arm(node, DRIVER, at);
        }
        loop {
            let fault = self.script.faults.get(self.next_fault).map(|f| f.0);
            let timer = self
                .armed
                .iter()
                .filter(|(_, v)| !v.2)
                .map(|(&k, &(at, order, _))| (at, order, k))
                .min();
            let packet = self.wire.iter().enumerate().map(|(i, p)| (p.0, i)).min();
            let next = [fault, timer.map(|t| t.0), packet.map(|p| p.0)]
                .into_iter()
                .flatten()
                .min();
            let Some(next) = next else { break };
            self.now = next;
            if fault == Some(next) {
                // Faults were scheduled before anything else: first at a tie.
                let (_, node, pause) = self.script.faults[self.next_fault];
                self.next_fault += 1;
                self.paused[node] = pause;
                if !pause {
                    for held in std::mem::take(&mut self.held[node]) {
                        match held {
                            Held::Packet(remote) => self.on_packet(node, remote),
                            Held::Timer { key, order } => match self.armed.get(&(node, key)) {
                                Some(&(_, o, true)) if o == order => {
                                    self.armed.remove(&(node, key));
                                    self.on_timer(node, key);
                                }
                                _ => self.dropped_at_resume += 1,
                            },
                        }
                    }
                }
            } else if let Some((at, order, (node, key))) = timer.filter(|t| t.0 == next) {
                assert!(packet.map(|p| p.0) != Some(at), "packet tied with a timer");
                if self.paused[node] {
                    self.armed.insert((node, key), (at, order, true));
                    self.held[node].push(Held::Timer { key, order });
                } else {
                    self.armed.remove(&(node, key));
                    self.on_timer(node, key);
                }
            } else {
                let (_, i) = packet.expect("something was due");
                let (at, node, remote) = self.wire.swap_remove(i);
                assert!(self.wire.iter().all(|p| p.0 != at), "two packets tied");
                if self.paused[node] {
                    self.held[node].push(Held::Packet(remote));
                } else {
                    self.on_packet(node, remote);
                }
            }
        }
        (self.script, self.fires, self.dropped_at_resume)
    }
}

fn model(seed: u64) -> (Script, Fires, u64) {
    let mut rng = Rng::new(seed);
    let mut script = Script::default();
    for _ in 0..NODES {
        let mut t = 0;
        let steps = (0..STEPS)
            .map(|_| {
                t += match rng.below(10) {
                    0..=6 => 1 + rng.below(4),
                    7..=8 => 10 + rng.below(40),
                    _ => 1_000 + rng.below(4_000),
                } * US;
                t
            })
            .collect();
        script.step_at.push(steps);
        script.ops.push(Vec::new());
    }
    // Pause windows open around a step of the peer's, so that its packets
    // land in them.
    for _ in 0..8 {
        let node = rng.below(NODES as u64) as usize;
        let step = rng.below(STEPS as u64) as usize;
        let from = script.step_at[peer(node)][step].saturating_sub(rng.below(10) * US);
        let until = from + (5 + rng.below(60)) * US;
        script.faults.push((from, node, true));
        script.faults.push((until, node, false));
    }
    script.faults.sort_by_key(|f| f.0); // stable: plan order within a tie
    Model {
        now: 0,
        rng,
        script,
        armed: BTreeMap::new(),
        next_order: 0,
        paused: [false; NODES],
        held: (0..NODES).map(|_| Vec::new()).collect(),
        wire: Vec::new(),
        nic_free_at: [0; NODES],
        next_fault: 0,
        fires: Vec::new(),
        dropped_at_resume: 0,
    }
    .run()
}

/// Replays one host's part of a script inside the simulator.
struct Scripted {
    node: usize,
    script: Rc<Script>,
    cursor: usize,
    fires: Rc<RefCell<Fires>>,
}

impl Endpoint for Scripted {
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer(DRIVER, SimTime::from_ps(self.script.step_at[self.node][0]));
    }

    fn on_timer(&mut self, ctx: &mut Ctx, key: u64) {
        self.fires
            .borrow_mut()
            .push((ctx.now().as_ps(), self.node, key));
        if key != DRIVER {
            return;
        }
        for &op in &self.script.ops[self.node][self.cursor] {
            match op {
                Op::Arm { key, at } => ctx.set_timer(key, SimTime::from_ps(at)),
                Op::Cancel { key } => ctx.cancel_timer(key),
                Op::Send(remote) => {
                    let dst = NodeId(peer(self.node) as u32);
                    ctx.send(remote.to_packet(ctx.node(), dst, ctx.now()));
                }
            }
        }
        self.cursor += 1;
        if let Some(&at) = self.script.step_at[self.node].get(self.cursor) {
            ctx.set_timer(DRIVER, SimTime::from_ps(at)); // overdue after a pause: clamped
        }
    }

    fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
        match Remote::from_packet(&pkt) {
            Remote::Cancel { key } => ctx.cancel_timer(key),
            Remote::ArmAfter { key, delay_us } => {
                ctx.set_timer_after(key, SimTime::from_ps(delay_us as u64 * US + REMOTE_SKEW));
            }
        }
    }
}

thread_local! {
    /// Live timer events a re-arm to an earlier deadline killed (coverage).
    static SUPERSEDED: Cell<u64> = const { Cell::new(0) };
}

/// Per timer `(node, key)`, its pending `(time, generation, dead)` events.
type Pending = HashMap<(u32, u64), Vec<(SimTime, u64, bool)>>;

/// Forwards to `S` and watches the timer events pass: per timer, the
/// pending `(time, generation, dead)` entries.
#[derive(Default)]
struct Watched<S: Scheduler> {
    inner: S,
    pending: Pending,
}

impl<S: Scheduler> Watched<S> {
    fn scheduled(&mut self, time: SimTime, kind: EventKind) {
        let EventKind::Timer { node, key, gen } = kind else {
            return;
        };
        let pending = self.pending.entry((node.0, key)).or_default();
        for (at, g, dead) in pending.iter_mut().filter(|p| !p.2) {
            assert!(
                *g < gen,
                "node {} key {key}: second live event scheduled at {time:?}, one pends at {at:?}",
                node.0
            );
            assert!(
                *at > time,
                "node {} key {key}: event at {at:?} superseded by a later one at {time:?}",
                node.0
            );
            *dead = true;
            SUPERSEDED.with(|s| s.set(s.get() + 1));
        }
        pending.push((time, gen, false));
    }

    fn popped(&mut self, ev: Option<Event>) -> Option<Event> {
        if let Some(Event {
            time,
            kind: EventKind::Timer { node, key, gen },
            ..
        }) = ev
        {
            let pending = self
                .pending
                .get_mut(&(node.0, key))
                .expect("never scheduled");
            let i = pending
                .iter()
                .position(|p| (p.0, p.1) == (time, gen))
                .expect("popped a timer event that was not pending");
            pending.swap_remove(i);
        }
        ev
    }
}

impl<S: Scheduler> Scheduler for Watched<S> {
    const NAME: &'static str = S::NAME;

    fn schedule(&mut self, time: SimTime, kind: EventKind) {
        self.scheduled(time, kind);
        self.inner.schedule(time, kind);
    }
    fn reserve_seq(&mut self) -> u64 {
        self.inner.reserve_seq()
    }
    fn schedule_reserved(&mut self, time: SimTime, seq: u64, kind: EventKind) {
        self.scheduled(time, kind);
        self.inner.schedule_reserved(time, seq, kind);
    }
    fn pop(&mut self) -> Option<Event> {
        let ev = self.inner.pop();
        self.popped(ev)
    }
    fn pop_due(&mut self, deadline: SimTime) -> Option<Event> {
        let ev = self.inner.pop_due(deadline);
        self.popped(ev)
    }
    fn peek_time(&mut self) -> Option<SimTime> {
        self.inner.peek_time()
    }
    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        self.inner.peek_key()
    }
    fn len(&self) -> usize {
        self.inner.len()
    }
    fn scheduled_total(&self) -> u64 {
        self.inner.scheduled_total()
    }
}

/// Runs `script` in the simulator under `S`, advancing in seeded steps of
/// simulated time; the endpoint fires, and `(armed, scheduled, chases)`.
fn simulate<S: Scheduler>(script: &Rc<Script>, seed: u64) -> (Fires, (u64, u64, u64)) {
    let mut b = NetworkBuilder::new();
    let hosts: Vec<NodeId> = (0..NODES).map(|i| b.add_host(&format!("h{i}"))).collect();
    let link = |node: usize| {
        let prop = SimTime::from_ps(propagation(node));
        LinkConfig::new(rate(), prop, QueueConfig::host_nic())
    };
    for pair in hosts.chunks(2) {
        let (a, c) = (pair[0], pair[1]);
        b.connect(a, c, link(a.index()), link(c.index()));
    }
    let mut sim = b.build_with_scheduler::<Watched<S>>(seed);
    let fires = Rc::new(RefCell::new(Vec::new()));
    for (node, &host) in hosts.iter().enumerate() {
        sim.set_endpoint(
            host,
            Box::new(Scripted {
                node,
                script: script.clone(),
                cursor: 0,
                fires: fires.clone(),
            }),
        );
    }
    let mut plan = FaultPlan::new();
    for &(at, node, pause) in &script.faults {
        let node = hosts[node];
        let kind = if pause {
            FaultKind::HostPause { node }
        } else {
            FaultKind::HostResume { node }
        };
        plan = plan.push(SimTime::from_ps(at), kind);
    }
    sim.set_fault_plan(plan);

    let mut rng = Rng::new(seed ^ 0xadfa);
    let mut until = 0;
    for _ in 0..200 {
        until += rng.below(40) * US / 2;
        sim.run_until(SimTime::from_ps(until));
    }
    sim.run();
    let c = sim.counters();
    let counts = (c.timers_armed, c.timer_events_scheduled, c.timer_chases);
    let fires = fires.borrow().clone();
    (fires, counts)
}

#[test]
fn timer_fires_match_the_naive_model_on_both_schedulers() {
    let (mut dropped, mut armed, mut scheduled, mut chases) = (0, 0, 0, 0);
    for seed in 0..40 {
        let (script, want, dropped_at_resume) = model(seed);
        dropped += dropped_at_resume;
        assert!(
            script.ops.iter().all(|ops| ops.len() == STEPS),
            "seed {seed}: script cut short"
        );
        let script = Rc::new(script);
        let (wheel, counts) = simulate::<TimingWheel>(&script, seed);
        assert_eq!(wheel, want, "seed {seed}: wheel diverged from the model");
        let (heap, heap_counts) = simulate::<EventQueue>(&script, seed);
        assert_eq!(heap, want, "seed {seed}: heap diverged from the model");
        assert_eq!(
            counts, heap_counts,
            "seed {seed}: timer work differs by scheduler"
        );
        armed += counts.0;
        scheduled += counts.1;
        chases += counts.2;
    }
    let superseded = SUPERSEDED.with(|s| s.get());
    eprintln!(
        "{armed} arms, {scheduled} events scheduled up front, {chases} chases, \
         {superseded} superseded, {dropped} deferred timers dropped at resume"
    );
    // The scripts must reach every branch the table has.
    assert!(scheduled < armed, "no arm ever rode behind a live event");
    assert!(chases > 100 && superseded > 100 && dropped > 10);
}
