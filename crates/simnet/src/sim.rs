//! The discrete-event simulation engine.
//!
//! [`Simulator`] owns every network element and the future event list and
//! advances simulated time event by event. It is fully deterministic: given
//! the same topology, endpoints, and seed, two runs produce identical packet
//! traces (events at equal timestamps fire in scheduling order, and the only
//! randomness is the seeded fault-injection RNG).

use crate::control::{ControlConfig, ControlPlane, CtrlAction, RetryPlan, CTRL_FLOW_BASE};
use crate::endpoint::{Cmd, Ctx, Endpoint, IngressTap};
use crate::event::{Event, EventKind, Scheduler};
use crate::fault::{FaultKind, FaultPlan};
use crate::hash::FxHashMap;
use crate::ids::{BufferId, LinkId, NodeId};
use crate::link::Link;
use crate::node::Node;
use crate::packet::{Ecn, Packet, PacketPool, PacketSlot, QueuedFrame};
use crate::queue::EnqueueOutcome;
use crate::time::SimTime;
use crate::trace;
use crate::wheel::TimingWheel;
use crate::SharedBuffer;
use stats::Rng;
use telemetry::{DropCause, EventClass, EventTallies, LoopProfile, PktInfo, SinkRef};

/// Global counters maintained by the simulator.
#[derive(Debug, Clone, Default)]
pub struct SimCounters {
    /// Packets delivered to host endpoints.
    pub delivered_pkts: u64,
    /// Bytes delivered to host endpoints (wire bytes).
    pub delivered_bytes: u64,
    /// Packets dropped at queues (tail drops + shared-buffer refusals).
    pub queue_drops: u64,
    /// Subset of `queue_drops` refused by a shared buffer.
    pub shared_buffer_drops: u64,
    /// Packets lost to link fault injection.
    pub fault_drops: u64,
    /// Subset of `fault_drops` lost to injected frame corruption.
    pub corrupt_drops: u64,
    /// Packets CE-marked at enqueue anywhere in the fabric.
    pub ecn_marked_pkts: u64,
    /// Events processed so far.
    pub events_processed: u64,
    /// Faults applied from the run's fault plan.
    pub faults_applied: u64,
    /// Control-plane notification frames emitted onto the fabric.
    pub notif_sent: u64,
    /// Fresh notification acknowledgments consumed at switches.
    pub notif_acked: u64,
    /// Notification re-fire rounds (initial multicasts excluded).
    pub notif_retries: u64,
    /// Notification frames lost at emission (control-plane loss gate).
    pub notif_lost: u64,
    /// Timer arms and re-arms requested (`Cmd::SetTimer` plus switch
    /// control timers). These three stay out of [`SimCounters::to_json`]:
    /// manifests pin its bytes.
    pub timers_armed: u64,
    /// Scheduler events those arms cost up front (an arm behind a live
    /// event of the same timer costs none).
    pub timer_events_scheduled: u64,
    /// Live timer events that popped before their timer's current deadline
    /// and were rescheduled to it.
    pub timer_chases: u64,
    /// Frames put on a transmitter, one per frame per hop. With the next
    /// field, kept out of [`SimCounters::to_json`] like the three above.
    pub frames_tx_started: u64,
    /// Of those, frames whose serialization end cost no `TxComplete` event:
    /// nothing could lose them on the wire and nothing was waiting behind
    /// them when it came. Counted when the frame starts, taken back if a
    /// frame queues up behind it before it is done.
    pub tx_complete_elided: u64,
}

impl SimCounters {
    /// Deterministic JSON rendering (for run manifests).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut o = telemetry::json::Obj::new(&mut out);
        o.u64("delivered_pkts", self.delivered_pkts)
            .u64("delivered_bytes", self.delivered_bytes)
            .u64("queue_drops", self.queue_drops)
            .u64("shared_buffer_drops", self.shared_buffer_drops)
            .u64("fault_drops", self.fault_drops)
            .u64("corrupt_drops", self.corrupt_drops)
            .u64("ecn_marked_pkts", self.ecn_marked_pkts)
            .u64("events_processed", self.events_processed)
            .u64("faults_applied", self.faults_applied)
            .u64("notif_sent", self.notif_sent)
            .u64("notif_acked", self.notif_acked)
            .u64("notif_retries", self.notif_retries)
            .u64("notif_lost", self.notif_lost);
        o.finish();
        out
    }
}

/// An endpoint dispatch deferred while its host is paused (a fault-plan
/// straggler window); drained in arrival order on resume.
#[derive(Debug)]
enum Deferred {
    /// A delivered packet waiting for the endpoint to wake.
    Packet(Packet),
    /// A timer that came due while paused and stays armed meanwhile; `seq`
    /// is re-checked at resume, so a timer the endpoint re-arms or cancels
    /// while draining is dropped.
    Timer { key: u64, seq: u64 },
}

/// One timer of one node. However often it is re-armed, at most one live
/// scheduler event travels towards it (plus the dead ones an *earlier*
/// re-arm left behind): arming behind the live event only stores the new
/// deadline, and the event, popping early, chases it — Linux `mod_timer`.
///
/// Every arm still reserves the tie-break seq a freshly scheduled event
/// would have taken and the fire is scheduled under it, so a timer fires at
/// the same `(time, seq)` as with one event per arm and no other event's
/// seq moves: only the number of popped timer events differs.
#[derive(Debug, Clone, Copy, Default)]
struct TimerSlot {
    /// The armed deadline and the seq reserved when it was armed; `None`
    /// once fired or cancelled.
    armed: Option<(SimTime, u64)>,
    /// Fire time of the live scheduler event, if any; never after the
    /// armed deadline.
    in_flight: Option<SimTime>,
    /// Generation the live event carries. A re-arm to an earlier deadline
    /// schedules a replacement under the next generation, which is what
    /// kills the superseded event.
    gen: u64,
}

/// The simulation engine. Build one with
/// [`NetworkBuilder`](crate::builder::NetworkBuilder), install endpoints,
/// then call [`Simulator::run_until`] or [`Simulator::run`].
///
/// Generic over its [`Scheduler`]; the default is the [`TimingWheel`] fast
/// path. [`NetworkBuilder::build_with_scheduler`] selects the reference
/// heap instead — both pop the same event sequence (the differential tests
/// in `tests/scheduler_equivalence.rs` hold them to that), so the choice
/// affects wall-clock only.
///
/// [`NetworkBuilder::build_with_scheduler`]: crate::builder::NetworkBuilder::build_with_scheduler
pub struct Simulator<S: Scheduler = TimingWheel> {
    now: SimTime,
    /// Tie-break seq of the event being processed: with `now`, the point the
    /// loop has reached in `(time, seq)` order, which is what
    /// [`Link::transmitting`] is asked against. 0 while endpoints start up,
    /// `u64::MAX` once `run` / `run_until` have returned.
    cur_seq: u64,
    events: S,
    /// Every packet currently inside the network parks here from injection
    /// (`Cmd::Send`) until it is dropped or delivered to a host endpoint.
    /// Queues, transmitters, and `Delivery` events all move 4-byte pool
    /// slots; the packet body is written once per send, never per hop.
    pool: PacketPool,
    nodes: Vec<Node>,
    links: Vec<Link>,
    buffers: Vec<SharedBuffer>,
    endpoints: Vec<Option<Box<dyn Endpoint>>>,
    taps: Vec<Option<Box<dyn IngressTap>>>,
    sink: Option<SinkRef>,
    /// The attached sink's subscriptions, one bit per [`EventClass`],
    /// sampled at attach time so the hot path pays one mask test per
    /// would-be event instead of a RefCell borrow.
    sink_classes: u8,
    depth_probe: Vec<bool>,
    buffer_peak_emitted: Vec<u64>,
    /// Per node, its timers by key: host keys are the endpoint's (sparse —
    /// `(burst << 16) | slot` for coordinators), switch keys are
    /// control-plane ports.
    timers: Vec<FxHashMap<u64, TimerSlot>>,
    next_pkt_id: u64,
    cmd_buf: Vec<Cmd>,
    /// Seed for flow-level ECMP rendezvous hashing at switches with
    /// equal-cost candidate sets. Taken from the build seed, so one seed
    /// pins both fault randomness and path placement.
    ecmp_seed: u64,
    rng: Rng,
    counters: SimCounters,
    tallies: EventTallies,
    wall: std::time::Duration,
    started: bool,
    fault_plan: FaultPlan,
    /// Per-node straggler state: while paused, endpoint dispatches are
    /// deferred into `pending_dispatch` and drained on resume.
    paused: Vec<bool>,
    pending_dispatch: Vec<Vec<Deferred>>,
    /// The switch-side incast control plane, if one is installed. Boxed and
    /// taken out of its slot around packet-emitting calls, so the recursive
    /// `enqueue_to_link` a notification triggers sees no plane and detection
    /// never observes its own control traffic.
    ctrl: Option<Box<ControlPlane>>,
    #[cfg(feature = "check")]
    audit: crate::check::Audit,
}

impl<S: Scheduler> Simulator<S> {
    /// Assembles a simulator (normally called by the builder).
    pub(crate) fn assemble(
        nodes: Vec<Node>,
        links: Vec<Link>,
        buffers: Vec<SharedBuffer>,
        seed: u64,
    ) -> Self {
        let n = nodes.len();
        let num_links = links.len();
        let num_buffers = buffers.len();
        Simulator {
            now: SimTime::ZERO,
            cur_seq: 0,
            events: S::default(),
            pool: PacketPool::new(),
            nodes,
            links,
            buffers,
            endpoints: (0..n).map(|_| None).collect(),
            taps: (0..n).map(|_| None).collect(),
            sink: None,
            sink_classes: 0,
            depth_probe: vec![false; num_links],
            buffer_peak_emitted: vec![0; num_buffers],
            timers: vec![FxHashMap::default(); n],
            next_pkt_id: 0,
            cmd_buf: Vec::with_capacity(64),
            ecmp_seed: seed,
            rng: Rng::new(seed),
            counters: SimCounters::default(),
            tallies: EventTallies::default(),
            wall: std::time::Duration::ZERO,
            started: false,
            fault_plan: FaultPlan::default(),
            paused: vec![false; n],
            pending_dispatch: (0..n).map(|_| Vec::new()).collect(),
            ctrl: None,
            #[cfg(feature = "check")]
            audit: crate::check::Audit::new(n, num_links, num_buffers),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Counter snapshot.
    pub fn counters(&self) -> &SimCounters {
        &self.counters
    }

    /// Events pending in the scheduler.
    pub fn pending_events(&self) -> usize {
        self.events.len()
    }

    /// Name of the scheduler implementation driving this simulator
    /// (`"wheel"` or `"heap"`), for run manifests.
    pub fn scheduler_name(&self) -> &'static str {
        S::NAME
    }

    /// The in-flight packet pool (its high-water mark is the packet path's
    /// allocs-per-run baseline).
    pub fn packet_pool(&self) -> &PacketPool {
        &self.pool
    }

    /// Installs the software for a host. Panics on switches.
    pub fn set_endpoint(&mut self, node: NodeId, ep: Box<dyn Endpoint>) {
        assert!(
            self.nodes[node.index()].is_host(),
            "endpoints attach to hosts"
        );
        assert!(!self.started, "install endpoints before running");
        self.endpoints[node.index()] = Some(ep);
    }

    /// Installs a passive ingress observer on a host.
    pub fn set_tap(&mut self, node: NodeId, tap: Box<dyn IngressTap>) {
        assert!(self.nodes[node.index()].is_host(), "taps attach to hosts");
        self.taps[node.index()] = Some(tap);
    }

    /// Attaches a structured telemetry sink. Per-packet, queue-depth,
    /// buffer-watermark, fault, and control-episode events flow to it, gated
    /// by the sink's [`telemetry::EventSink::accepts`] subscriptions (sampled
    /// once here, so a sink's class set must be fixed before attaching). For
    /// a `tcpdump`-style text log attach a [`crate::trace::TextTracer`].
    pub fn set_sink(&mut self, sink: SinkRef) {
        self.sink_classes = [
            EventClass::Packet,
            EventClass::Queue,
            EventClass::Buffer,
            EventClass::Fault,
            EventClass::Ctrl,
        ]
        .into_iter()
        .filter(|&class| sink.accepts(class))
        .fold(0, |mask, class| mask | class.bit());
        self.sink = Some(sink);
    }

    /// Installs the switch-side incast control plane (see
    /// [`crate::control`]). Monitored ports must be switch egress links.
    /// A fully blackholed plane (`notif_loss >= 1`) is installed but can
    /// never act, keeping such runs byte-identical to having no plane.
    pub fn set_control_plane(&mut self, cfg: ControlConfig) {
        assert!(!self.started, "install the control plane before running");
        let links = &self.links;
        let nodes = &self.nodes;
        let plane = ControlPlane::new(cfg, links.len(), |l| {
            let src = links[l.index()].src;
            assert!(
                !nodes[src.index()].is_host(),
                "monitored port {} does not originate at a switch",
                l.0
            );
            src
        });
        self.ctrl = Some(Box::new(plane));
    }

    /// The installed control plane, if any.
    pub fn control_plane(&self) -> Option<&ControlPlane> {
        self.ctrl.as_deref()
    }

    /// Installs the run's fault plan. Must be called before the simulation
    /// starts; every event is validated against the topology here and
    /// scheduled as a first-class sim event when the run begins.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        assert!(!self.started, "install the fault plan before running");
        self.links.iter_mut().for_each(|l| l.fault_target = false);
        for ev in &plan.events {
            match ev.kind {
                FaultKind::LinkDown { link }
                | FaultKind::LinkUp { link }
                | FaultKind::SetEcnThreshold { link, .. } => {
                    assert!(
                        link.index() < self.links.len(),
                        "fault targets unknown link"
                    );
                }
                FaultKind::SetLinkLoss { link, probability }
                | FaultKind::SetLinkCorrupt { link, probability } => {
                    assert!(
                        link.index() < self.links.len(),
                        "fault targets unknown link"
                    );
                    assert!(
                        (0.0..=1.0).contains(&probability),
                        "fault probability out of range"
                    );
                }
                FaultKind::BufferResize {
                    buffer,
                    total_bytes,
                } => {
                    assert!(
                        buffer.index() < self.buffers.len(),
                        "fault targets unknown buffer"
                    );
                    assert!(total_bytes > 0, "fault resizes buffer to zero");
                }
                FaultKind::HostPause { node } | FaultKind::HostResume { node } => {
                    assert!(
                        node.index() < self.nodes.len() && self.nodes[node.index()].is_host(),
                        "pause/resume faults target hosts"
                    );
                }
            }
            // A link the plan can take down or make lossy mid-frame keeps a
            // `TxComplete` per frame for the whole run (`Link::can_lose`).
            if let Some(link) = ev.kind.lossy_link() {
                self.links[link.index()].fault_target = true;
            }
        }
        self.fault_plan = plan;
    }

    /// The installed fault plan (empty by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// The attached telemetry sink, if any (for handing to endpoints).
    pub fn sink(&self) -> Option<&SinkRef> {
        self.sink.as_ref()
    }

    /// Enables per-event queue-depth telemetry on `link`: every enqueue and
    /// dequeue emits a [`telemetry::EventKind::QueueDepth`] sample when a
    /// queue-subscribing sink is attached.
    pub fn enable_depth_probe(&mut self, link: LinkId) {
        self.depth_probe[link.index()] = true;
    }

    /// Wall-clock profile of the event loop so far: per-kind event tallies
    /// and time spent inside [`Simulator::run`] / [`Simulator::run_until`].
    pub fn profile(&self) -> LoopProfile {
        LoopProfile {
            tallies: self.tallies,
            wall: self.wall,
        }
    }

    /// True if the attached sink subscribes to `class`.
    #[inline]
    fn observes(&self, class: EventClass) -> bool {
        self.sink_classes & class.bit() != 0
    }

    /// Hands the sink an event of `class` stamped with the current time.
    /// Every emission site goes through here: unobserved, a site costs the
    /// one mask test and `kind` (and whatever it reads) never runs.
    #[inline]
    fn emit(&self, class: EventClass, kind: impl FnOnce() -> telemetry::EventKind) {
        if self.observes(class) {
            if let Some(s) = &self.sink {
                s.emit(&telemetry::Event {
                    t_ps: self.now.as_ps(),
                    kind: kind(),
                });
            }
        }
    }

    /// Emits a per-link packet event for the pool-resident packet in `slot`;
    /// `kind` wraps the link index and packet description into the event.
    /// The packet is read out of the pool only when a sink is watching.
    #[inline]
    fn emit_pkt(
        &self,
        link: LinkId,
        slot: PacketSlot,
        kind: impl FnOnce(u32, PktInfo) -> telemetry::EventKind,
    ) {
        self.emit(EventClass::Packet, || {
            kind(link.0, trace::packet_info(self.pool.get(slot)))
        });
    }

    /// Emits a queue-depth sample for `link` if it is probed and a sink
    /// subscribes to queue events.
    #[inline]
    fn emit_queue_depth(&self, link_id: LinkId) {
        if self.observes(EventClass::Queue) && self.depth_probe[link_id.index()] {
            let q = &self.links[link_id.index()].queue;
            self.emit(EventClass::Queue, || telemetry::EventKind::QueueDepth {
                link: link_id.0,
                pkts: q.pkts(),
                bytes: q.bytes(),
            });
        }
    }

    /// Emits a buffer-watermark event if the pool just reached a new peak.
    #[inline]
    fn emit_buffer_watermark(&mut self, bid: BufferId) {
        if !self.observes(EventClass::Buffer) {
            return;
        }
        let buf = &self.buffers[bid.index()];
        let peak = buf.peak_bytes();
        if peak <= self.buffer_peak_emitted[bid.index()] {
            return;
        }
        self.buffer_peak_emitted[bid.index()] = peak;
        let total_bytes = buf.total_bytes();
        self.emit(EventClass::Buffer, || {
            telemetry::EventKind::BufferWatermark {
                buffer: bid.0,
                used_bytes: peak,
                total_bytes,
            }
        });
    }

    /// Immutable access to a link (for queue statistics after a run).
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Mutable access to a link (e.g. to enable queue depth monitoring
    /// before a run). A loss probability changed between `run_until` calls
    /// applies to frames that start serializing afterwards: the frame on the
    /// transmitter keeps the fate it started with — already on its way if
    /// the link could not lose it then, decided at its serialization end
    /// under the link's state at that instant if it could.
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.index()]
    }

    /// The packet currently serializing on `link`, if any. Reads through
    /// the packet pool — queued and on-wire packets are pool-resident and
    /// the link itself holds only a residence card.
    pub fn serializing_packet(&self, id: LinkId) -> Option<&Packet> {
        let link = &self.links[id.index()];
        link.transmitting(self.now, self.cur_seq)
            .then(|| self.pool.get(link.on_tx))
    }

    /// Immutable access to a node.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// The shared buffers, in creation order.
    pub fn buffers(&self) -> &[SharedBuffer] {
        &self.buffers
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of links.
    pub fn num_links(&self) -> usize {
        self.links.len()
    }

    fn start_if_needed(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        // Fault events enter the schedule before any endpoint's start-up
        // traffic, giving them the earliest tie-break sequence numbers at
        // their firing times — the plan order is part of the run's identity.
        for (i, ev) in self.fault_plan.events.iter().enumerate() {
            self.events
                .schedule(ev.at, EventKind::Fault { index: i as u32 });
        }
        for idx in 0..self.nodes.len() {
            if self.endpoints[idx].is_some() {
                self.dispatch_endpoint(NodeId(idx as u32), |ep, ctx| ep.on_start(ctx));
            }
        }
        // Start-up is the one dispatch that may dwarf the rest (the fleet
        // coordinator arms a timer per burst and worker, ~7 k commands):
        // give its capacity back, and let the run regrow the buffer once to
        // its own largest dispatch.
        self.cmd_buf = Vec::new();
    }

    /// Runs until the event list is empty.
    pub fn run(&mut self) {
        self.start_if_needed();
        let t0 = std::time::Instant::now();
        while let Some(ev) = self.events.pop() {
            self.process_event(ev);
        }
        self.cur_seq = u64::MAX;
        self.wall += t0.elapsed();
    }

    /// Runs until simulated time reaches `deadline` (events at exactly
    /// `deadline` are processed). Pending later events remain queued.
    pub fn run_until(&mut self, deadline: SimTime) {
        self.start_if_needed();
        let t0 = std::time::Instant::now();
        while let Some(ev) = self.events.pop_due(deadline) {
            self.process_event(ev);
        }
        self.cur_seq = u64::MAX;
        self.wall += t0.elapsed();
        if self.now < deadline {
            self.now = deadline;
        }
    }

    fn process_event(&mut self, ev: Event) {
        debug_assert!(ev.time >= self.now, "time went backwards");
        #[cfg(feature = "check")]
        if ev.time < self.now {
            crate::check::violated(
                "time_monotonic",
                format_args!(
                    "scheduler popped t={} ps while now={} ps",
                    ev.time.as_ps(),
                    self.now.as_ps()
                ),
            );
        }
        self.now = ev.time;
        self.cur_seq = ev.seq;
        self.counters.events_processed += 1;
        match ev.kind {
            EventKind::TxComplete { link } => {
                self.tallies.tx_complete += 1;
                self.on_tx_complete(link);
            }
            EventKind::Delivery { link, slot } => {
                self.tallies.delivery += 1;
                self.on_delivery(link, slot);
            }
            EventKind::Timer { node, key, gen } => {
                // Timers at hosts belong to endpoints; timers at switches are
                // control-plane retry timers (switches run no other software).
                let host = self.nodes[node.index()].is_host();
                if host {
                    self.tallies.timer += 1;
                } else {
                    self.tallies.ctrl += 1;
                }
                if !self.timer_due(node, key, gen, ev.seq) {
                    return;
                }
                if host {
                    self.on_timer(node, key, ev.seq);
                } else {
                    self.cancel_timer(node, key);
                    self.on_ctrl_timer(key);
                }
            }
            EventKind::Fault { index } => {
                self.tallies.fault += 1;
                self.apply_fault(index);
            }
        }
    }

    // ---- fault injection -------------------------------------------------

    /// Applies one scheduled fault from the installed plan, mutating
    /// network state and recording the application in counters and (when a
    /// fault-subscribing sink is attached) telemetry. Packet-level
    /// consequences flow through the ordinary event loop, so conservation
    /// audits stay valid under any plan.
    fn apply_fault(&mut self, index: u32) {
        let ev = self.fault_plan.events[index as usize];
        self.counters.faults_applied += 1;
        match ev.kind {
            FaultKind::LinkDown { link } => self.links[link.index()].down = true,
            FaultKind::LinkUp { link } => self.links[link.index()].down = false,
            FaultKind::SetLinkLoss { link, probability } => {
                self.links[link.index()].fault_loss = probability;
            }
            FaultKind::SetLinkCorrupt { link, probability } => {
                self.links[link.index()].fault_corrupt = probability;
            }
            FaultKind::SetEcnThreshold { link, pkts, bytes } => {
                self.links[link.index()]
                    .queue
                    .set_ecn_thresholds(pkts, bytes);
            }
            FaultKind::BufferResize {
                buffer,
                total_bytes,
            } => {
                self.buffers[buffer.index()].set_total_bytes(total_bytes);
            }
            FaultKind::HostPause { node } => self.paused[node.index()] = true,
            FaultKind::HostResume { node } => {
                self.paused[node.index()] = false;
                let pending = std::mem::take(&mut self.pending_dispatch[node.index()]);
                for d in pending {
                    if self.endpoints[node.index()].is_none() {
                        break;
                    }
                    match d {
                        Deferred::Packet(pkt) => {
                            self.dispatch_endpoint(node, |ep, ctx| ep.on_packet(ctx, pkt));
                        }
                        Deferred::Timer { key, seq } => {
                            // A packet drained just above may have re-armed
                            // or cancelled this timer.
                            let slot = self.timers[node.index()].get(&key);
                            if slot.is_some_and(|s| s.armed.is_some_and(|a| a.1 == seq)) {
                                self.fire_timer(node, key);
                            }
                        }
                    }
                }
            }
        }
        self.emit(EventClass::Fault, || telemetry::EventKind::Fault {
            index,
            kind: ev.kind.label(),
            target: ev.kind.target(),
        });
    }

    // ---- link machinery -------------------------------------------------

    /// Offers the pooled packet in `slot` to the egress queue of `link`,
    /// starting transmission if the transmitter is idle. On acceptance the
    /// packet stays parked in the pool and only its residence card enters
    /// the FIFO; on a drop the slot is freed here.
    fn enqueue_to_link(&mut self, link_id: LinkId, slot: PacketSlot) {
        // Control-plane detection observes offered load *before* admission
        // (drops count toward congestion too). Baseline runs pay one branch.
        if self.ctrl.is_some() {
            self.ctrl_observe(link_id, slot);
        }
        let now = self.now;
        let (wire, ecn_capable) = {
            let pkt = self.pool.get(slot);
            (pkt.wire_size, pkt.ecn.is_capable())
        };
        let link = &mut self.links[link_id.index()];
        // Shared-buffer admission, if this queue charges a pool.
        if let Some(bid) = link.shared {
            let ok = self.buffers[bid.index()].admit(link.queue.bytes(), wire as u64);
            if !ok {
                link.queue.note_shared_drop(wire as u64);
                self.counters.queue_drops += 1;
                self.counters.shared_buffer_drops += 1;
                self.emit_pkt(link_id, slot, |link, pkt| telemetry::EventKind::PktDrop {
                    link,
                    pkt,
                    reason: DropCause::SharedBuffer,
                });
                self.pool.take(slot);
                return;
            }
        }
        let frame = QueuedFrame {
            slot,
            wire,
            ecn_capable,
            ce: false,
        };
        match link.queue.enqueue(now, frame) {
            EnqueueOutcome::Queued { marked } => {
                if marked {
                    self.counters.ecn_marked_pkts += 1;
                }
                let shared = link.shared;
                let busy = link.transmitting(now, self.cur_seq);
                // The first frame to wait behind one whose `TxComplete` was
                // left out: the event is needed after all, where and under
                // the seq it would have had from the start.
                let late_tx_complete = (busy && !link.tx_eager && link.queue.pkts() == 1)
                    .then_some((link.busy_until, link.tx_seq));
                if let Some(bid) = shared {
                    self.buffers[bid.index()].on_enqueue(wire as u64);
                }
                #[cfg(feature = "check")]
                self.audit_enqueue(link_id, shared, wire as u64);
                // Trace before applying the mark: the trace records the
                // packet as it arrived at the queue, the CE mark is what it
                // carries onward.
                self.emit_pkt(link_id, slot, |link, pkt| {
                    telemetry::EventKind::PktEnqueue { link, pkt, marked }
                });
                if marked {
                    self.pool.get_mut(slot).ecn = Ecn::Ce;
                }
                self.emit_queue_depth(link_id);
                if let Some(bid) = shared {
                    self.emit_buffer_watermark(bid);
                }
                if !busy {
                    self.start_tx(link_id);
                } else if let Some((at, seq)) = late_tx_complete {
                    self.counters.tx_complete_elided -= 1;
                    self.events
                        .schedule_reserved(at, seq, EventKind::TxComplete { link: link_id });
                }
            }
            EnqueueOutcome::Dropped(reason) => {
                self.counters.queue_drops += 1;
                self.emit_pkt(link_id, slot, |link, pkt| telemetry::EventKind::PktDrop {
                    link,
                    pkt,
                    reason: trace::drop_cause(reason),
                });
                self.pool.take(slot);
            }
        }
    }

    /// Pulls the next frame off the egress queue and begins serializing it.
    ///
    /// Both of the frame's events take their tie-break seqs here, the
    /// `TxComplete` `seq` and the `Delivery` `seq + 1`, so same-instant
    /// deliveries order by transmission start on every link. A frame nothing
    /// can lose ([`Link::can_lose`]) is delivered from here, and its
    /// `TxComplete` is scheduled only once a frame waits behind it — now, or
    /// later from `enqueue_to_link`. A frame that can be lost gets the
    /// `TxComplete` at once and its `Delivery` from there, if it survives.
    fn start_tx(&mut self, link_id: LinkId) {
        let now = self.now;
        let link = &mut self.links[link_id.index()];
        debug_assert!(!link.transmitting(now, self.cur_seq));
        let Some(frame) = link.queue.dequeue(now) else {
            return;
        };
        let shared = link.shared;
        let done = now + link.serialize_time(frame.wire);
        let seq = self.events.reserve_seq();
        self.events.reserve_seq(); // the Delivery's: `seq + 1`
        let eager = link.can_lose();
        let needs_tx_complete = eager || !link.queue.is_empty();
        let arrives = done + link.cfg.propagation;
        link.on_tx = frame.slot;
        link.busy_until = done;
        link.tx_seq = seq;
        link.tx_eager = eager;
        if let Some(bid) = shared {
            let release = frame.wire as u64;
            #[cfg(feature = "check")]
            let release = if crate::check::inject_buffer_underrelease() {
                release - 1
            } else {
                release
            };
            self.buffers[bid.index()].on_dequeue(release);
        }
        #[cfg(feature = "check")]
        self.audit_dequeue(link_id, shared, frame.wire as u64);
        self.emit_pkt(link_id, frame.slot, |link, pkt| {
            telemetry::EventKind::PktTxStart { link, pkt }
        });
        self.emit_queue_depth(link_id);
        self.counters.frames_tx_started += 1;
        if !eager {
            let delivery = EventKind::Delivery {
                link: link_id,
                slot: frame.slot,
            };
            self.events.schedule_reserved(arrives, seq + 1, delivery);
        }
        if needs_tx_complete {
            self.events
                .schedule_reserved(done, seq, EventKind::TxComplete { link: link_id });
        } else {
            self.counters.tx_complete_elided += 1;
        }
    }

    /// Serialization of the frame on `link_id` ended and someone needs to
    /// know: the frame itself if the link can lose it, the queue behind it
    /// otherwise.
    fn on_tx_complete(&mut self, link_id: LinkId) {
        let link = &self.links[link_id.index()];
        debug_assert_eq!((link.busy_until, link.tx_seq), (self.now, self.cur_seq));
        if link.tx_eager {
            self.finish_lossy_tx(link_id);
        }
        // Keep the transmitter running.
        if !self.links[link_id.index()].queue.is_empty() {
            self.start_tx(link_id);
        }
    }

    /// Decides the fate of a frame that finished serializing on a link that
    /// could lose it when it started: blackholed, lost or corrupted by the
    /// link's state *now*, or delivered one propagation time on.
    fn finish_lossy_tx(&mut self, link_id: LinkId) {
        let link = &self.links[link_id.index()];
        let (slot, delivery_seq) = (link.on_tx, link.tx_seq + 1);
        let prop = link.cfg.propagation;
        // Healthy links with no configured loss take none of the RNG draws
        // below, so installing (or omitting) an empty fault plan cannot
        // perturb a run's random sequence.
        let down = link.down;
        let lose = down
            || (link.cfg.loss_probability > 0.0 && self.rng.chance(link.cfg.loss_probability))
            || (link.fault_loss > 0.0 && self.rng.chance(link.fault_loss));
        let corrupt = !lose && link.fault_corrupt > 0.0 && self.rng.chance(link.fault_corrupt);
        if lose || corrupt {
            if corrupt {
                self.counters.corrupt_drops += 1;
            }
            // Injected bug (check feature, simcheck only): drops on a downed
            // link miss the global counter, breaking packet conservation.
            if !(down && crate::check::inject_fault_drop_miscount()) {
                self.counters.fault_drops += 1;
            }
            let reason = if corrupt {
                DropCause::Corrupt
            } else {
                DropCause::Fault
            };
            self.emit_pkt(link_id, slot, |link, pkt| telemetry::EventKind::PktDrop {
                link,
                pkt,
                reason,
            });
            self.pool.take(slot);
        } else {
            self.events.schedule_reserved(
                self.now + prop,
                delivery_seq,
                EventKind::Delivery {
                    link: link_id,
                    slot,
                },
            );
        }
    }

    /// Resolves the egress link at switch `at` for a packet of `flow`
    /// travelling `src -> dst`. Single-candidate sets (every pre-Clos
    /// topology) forward directly with zero hashing cost; equal-cost sets
    /// are resolved by rendezvous hashing over the candidates whose links
    /// are up, so a spine blackhole deterministically re-hashes exactly
    /// the flows that were pinned to it. If every candidate is down the
    /// flow keeps its nominal (all-candidate) pick and blackholes there,
    /// matching single-path semantics under the same fault.
    #[inline]
    fn select_next_hop(&self, at: NodeId, src: NodeId, dst: NodeId, flow: u32) -> Option<LinkId> {
        match self.nodes[at.index()].next_hops(dst) {
            [] => None,
            &[only] => Some(only),
            many => {
                let mut best: Option<(u64, LinkId)> = None;
                let mut best_any: Option<(u64, LinkId)> = None;
                for &l in many {
                    let score = crate::hash::ecmp_score(self.ecmp_seed, src.0, dst.0, flow, l.0);
                    if best_any.is_none_or(|(s, _)| score > s) {
                        best_any = Some((score, l));
                    }
                    if !self.links[l.index()].down && best.is_none_or(|(s, _)| score > s) {
                        best = Some((score, l));
                    }
                }
                best.or(best_any).map(|(_, l)| l)
            }
        }
    }

    fn on_delivery(&mut self, link_id: LinkId, slot: PacketSlot) {
        let (flow, pkt_src, pkt_dst) = {
            let pkt = self.pool.get(slot);
            (pkt.flow.0, pkt.src, pkt.dst)
        };
        self.emit_pkt(link_id, slot, |link, pkt| {
            telemetry::EventKind::PktDeliver { link, pkt }
        });
        let dst = self.links[link_id.index()].dst;
        match &self.nodes[dst.index()] {
            Node::Switch { .. } => {
                // A frame addressed *to* this switch terminates here: the
                // only such traffic is control acknowledgments returning to
                // the detecting switch. Consumed like a host delivery so
                // packet conservation holds.
                if pkt_dst == dst {
                    let pkt = self.pool.take(slot);
                    self.counters.delivered_pkts += 1;
                    self.counters.delivered_bytes += pkt.wire_size as u64;
                    self.ctrl_consume_ack(dst, &pkt);
                    return;
                }
                // The packet stays parked in the pool across the hop; only
                // its slot moves into the next egress queue.
                let next = match self.select_next_hop(dst, pkt_src, pkt_dst, flow) {
                    Some(next) => next,
                    None => panic!(
                        "switch {} has no route to {} (packet {:?})",
                        self.nodes[dst.index()].name(),
                        pkt_dst,
                        self.pool.get(slot).kind
                    ),
                };
                self.enqueue_to_link(next, slot);
            }
            Node::Host { .. } => {
                let pkt = self.pool.take(slot);
                self.counters.delivered_pkts += 1;
                self.counters.delivered_bytes += pkt.wire_size as u64;
                if let Some(tap) = self.taps[dst.index()].as_mut() {
                    tap.on_packet(self.now, &pkt);
                }
                if self.endpoints[dst.index()].is_some() {
                    if self.paused[dst.index()] {
                        // Straggler window: the NIC received the packet
                        // (counted above), but the software is stalled.
                        self.pending_dispatch[dst.index()].push(Deferred::Packet(pkt));
                    } else {
                        self.dispatch_endpoint(dst, |ep, ctx| ep.on_packet(ctx, pkt));
                    }
                }
            }
        }
    }

    // ---- timers ----------------------------------------------------------

    /// Arms (or re-arms) timer `key` of `node` — an endpoint's at a host,
    /// the control plane's at a switch — to fire at `at`. See [`TimerSlot`].
    fn arm_timer(&mut self, node: NodeId, key: u64, at: SimTime) {
        let at = at.max(self.now);
        let seq = self.events.reserve_seq();
        self.counters.timers_armed += 1;
        let slot = self.timers[node.index()].entry(key).or_default();
        slot.armed = Some((at, seq));
        if slot.in_flight.is_some_and(|t| t <= at) {
            return; // the live event pops first and chases this deadline
        }
        slot.gen += 1;
        slot.in_flight = Some(at);
        let gen = slot.gen;
        self.counters.timer_events_scheduled += 1;
        self.events
            .schedule_reserved(at, seq, EventKind::Timer { node, key, gen });
    }

    /// Disarms timer `key` of `node`; its live event finds nothing armed.
    fn cancel_timer(&mut self, node: NodeId, key: u64) {
        if let Some(slot) = self.timers[node.index()].get_mut(&key) {
            slot.armed = None;
        }
    }

    /// Resolves the popped timer event `(now, seq)` against its slot: true
    /// if it is the armed deadline itself (the timer is due and still
    /// armed). A live event that ran ahead of the deadline chases it.
    fn timer_due(&mut self, node: NodeId, key: u64, gen: u64, seq: u64) -> bool {
        let Some(slot) = self.timers[node.index()].get_mut(&key) else {
            return false;
        };
        if slot.gen != gen {
            return false; // superseded by a re-arm to an earlier deadline
        }
        slot.in_flight = None;
        match slot.armed {
            None => false,
            Some(armed) if armed == (self.now, seq) => true,
            Some((at, reserved)) => {
                slot.in_flight = Some(at);
                self.counters.timer_chases += 1;
                self.events
                    .schedule_reserved(at, reserved, EventKind::Timer { node, key, gen });
                false
            }
        }
    }

    /// A host timer came due under `seq`.
    fn on_timer(&mut self, node: NodeId, key: u64, seq: u64) {
        if self.endpoints[node.index()].is_some() {
            if self.paused[node.index()] {
                self.pending_dispatch[node.index()].push(Deferred::Timer { key, seq });
            } else {
                self.fire_timer(node, key);
            }
        }
    }

    /// Disarms a due host timer and hands it to the endpoint.
    fn fire_timer(&mut self, node: NodeId, key: u64) {
        self.cancel_timer(node, key);
        self.dispatch_endpoint(node, |ep, ctx| ep.on_timer(ctx, key));
    }

    // ---- incast control plane --------------------------------------------

    /// Emits a control-episode lifecycle event when a subscribing sink is
    /// attached.
    fn emit_ctrl_episode(
        &self,
        node: NodeId,
        link: LinkId,
        epoch: u32,
        phase: &'static str,
        targets: u32,
    ) {
        self.emit(EventClass::Ctrl, || telemetry::EventKind::CtrlEpisode {
            node: node.0,
            link: link.0,
            epoch,
            phase,
            targets,
        });
    }

    /// Feeds one enqueue offer to the control plane's detector. On trigger
    /// the episode opens and its initial multicast is deferred to a control
    /// timer at the *same timestamp* (later tie-break seq), so notification
    /// emission never re-enters the enqueue path it was called from. A dead
    /// plane (`notif_loss >= 1`) returns before any observable effect —
    /// detection bucket updates are invisible internal state — keeping such
    /// runs byte-identical to mitigation-off baselines.
    fn ctrl_observe(&mut self, link_id: LinkId, slot: PacketSlot) {
        let Some(mut ctrl) = self.ctrl.take() else {
            return;
        };
        if let Some(port) = ctrl.monitors(link_id) {
            let (is_data, flow, src, wire) = {
                let pkt = self.pool.get(slot);
                (pkt.is_data(), pkt.flow.0, pkt.src, pkt.wire_size)
            };
            if is_data {
                let trigger = ctrl.record(self.now, port, flow, src, wire);
                if trigger && !ctrl.dead() {
                    let epoch = ctrl.begin_episode(self.now, port);
                    let sw = ctrl.port_switch(port);
                    self.arm_timer(sw, port as u64, self.now);
                    self.emit_ctrl_episode(sw, link_id, epoch, "detect", 0);
                }
            }
        }
        self.ctrl = Some(ctrl);
    }

    /// Handles a control retry timer at a switch: multicasts notification
    /// frames to unacknowledged targets (each gated by the emission-loss
    /// draw) and re-arms with capped exponential backoff, or closes the
    /// episode. Notifications enter the fabric through the ordinary egress
    /// path — same queues, same faults, same audits as data.
    fn on_ctrl_timer(&mut self, key: u64) {
        let Some(mut ctrl) = self.ctrl.take() else {
            return;
        };
        let port = key as u32;
        match ctrl.on_retry_timer(self.now, port) {
            Some(RetryPlan::Emit {
                epoch,
                targets,
                attempt,
                next,
            }) => {
                let sw = ctrl.port_switch(port);
                let link = ctrl.port_link(port);
                let flow = ctrl.ctrl_flow(port);
                let pause = ctrl.config().pause;
                let cut = matches!(ctrl.config().action, CtrlAction::CwndCut);
                self.emit_ctrl_episode(
                    sw,
                    link,
                    epoch,
                    if attempt == 0 { "emit" } else { "retry" },
                    targets.len() as u32,
                );
                if attempt > 0 {
                    self.counters.notif_retries += 1;
                }
                for target in targets {
                    if ctrl.emission_lost() {
                        self.counters.notif_lost += 1;
                        continue;
                    }
                    let mut pkt = Packet::notif(flow, sw, target, epoch, pause, cut);
                    pkt.id = self.next_pkt_id;
                    self.next_pkt_id += 1;
                    #[cfg(feature = "check")]
                    {
                        self.audit.injected_pkts += 1;
                    }
                    let next_link = match self.select_next_hop(sw, sw, target, flow.0) {
                        Some(l) => l,
                        None => panic!(
                            "switch {} has no route to notification target {}",
                            self.nodes[sw.index()].name(),
                            target.0
                        ),
                    };
                    let slot = self.pool.insert(pkt);
                    self.enqueue_to_link(next_link, slot);
                    self.counters.notif_sent += 1;
                }
                self.arm_timer(sw, key, next);
            }
            Some(RetryPlan::Done { epoch }) => {
                // Every target acked between re-fires (the ack path usually
                // cancels this timer first; this is the benign race).
                let sw = ctrl.port_switch(port);
                let link = ctrl.port_link(port);
                self.emit_ctrl_episode(sw, link, epoch, "done", 0);
            }
            Some(RetryPlan::Expired { epoch, unacked }) => {
                let sw = ctrl.port_switch(port);
                let link = ctrl.port_link(port);
                self.emit_ctrl_episode(sw, link, epoch, "expire", unacked);
            }
            None => {} // episode already closed; stale pop
        }
        self.ctrl = Some(ctrl);
    }

    /// Consumes a notification acknowledgment that terminated at `sw`.
    /// Duplicate and stale acks are deterministic no-ops; completing an
    /// episode cancels its retry timer.
    fn ctrl_consume_ack(&mut self, sw: NodeId, pkt: &Packet) {
        let Some(mut ctrl) = self.ctrl.take() else {
            return;
        };
        if let crate::packet::PacketKind::NotifAck { epoch } = pkt.kind {
            if pkt.flow.0 >= CTRL_FLOW_BASE {
                let port = pkt.flow.0 - CTRL_FLOW_BASE;
                let (fresh, complete) = ctrl.on_ack(self.now, port, epoch, pkt.src);
                if fresh {
                    self.counters.notif_acked += 1;
                }
                if complete {
                    self.cancel_timer(sw, port as u64);
                    let link = ctrl.port_link(port);
                    self.emit_ctrl_episode(sw, link, epoch, "done", 0);
                }
            }
        }
        self.ctrl = Some(ctrl);
    }

    // ---- endpoint dispatch ------------------------------------------------

    fn dispatch_endpoint<F>(&mut self, node: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Endpoint, &mut Ctx),
    {
        #[cfg(feature = "check")]
        {
            let last = &mut self.audit.last_dispatch_ps[node.index()];
            if self.now.as_ps() < *last {
                crate::check::violated(
                    "node_time_monotonic",
                    format_args!(
                        "node {} dispatched at t={} ps after t={} ps",
                        node.0,
                        self.now.as_ps(),
                        *last
                    ),
                );
            }
            *last = self.now.as_ps();
        }
        let mut ep = self.endpoints[node.index()]
            .take()
            .expect("dispatch to missing endpoint");
        let mut cmds = std::mem::take(&mut self.cmd_buf);
        {
            let mut ctx = Ctx::new(self.now, node, &mut cmds);
            f(ep.as_mut(), &mut ctx);
        }
        self.endpoints[node.index()] = Some(ep);
        self.apply_cmds(node, &mut cmds);
        cmds.clear();
        self.cmd_buf = cmds;
    }

    fn apply_cmds(&mut self, node: NodeId, cmds: &mut Vec<Cmd>) {
        // Commands may themselves be generated while applying (not today,
        // but drain defensively by index).
        for cmd in cmds.drain(..) {
            match cmd {
                Cmd::Send(mut pkt) => {
                    pkt.id = self.next_pkt_id;
                    self.next_pkt_id += 1;
                    #[cfg(feature = "check")]
                    {
                        self.audit.injected_pkts += 1;
                    }
                    let uplink = match &self.nodes[node.index()] {
                        Node::Host { uplink, .. } => uplink.expect("host sends but has no uplink"),
                        Node::Switch { .. } => unreachable!("switches have no endpoints"),
                    };
                    // The packet's single write into the pool; every queue,
                    // wire, and event from here on moves its slot.
                    let slot = self.pool.insert(pkt);
                    self.enqueue_to_link(uplink, slot);
                }
                Cmd::SetTimer { key, at } => self.arm_timer(node, key, at),
                Cmd::CancelTimer { key } => self.cancel_timer(node, key),
            }
        }
    }
}

/// Invariant hooks (the `check` feature). See [`crate::check`].
#[cfg(feature = "check")]
impl<S: Scheduler> Simulator<S> {
    /// Shadow-charges an enqueue and cross-checks both ledgers and bounds.
    #[inline]
    fn audit_enqueue(&mut self, link_id: LinkId, shared: Option<BufferId>, wire: u64) {
        let shadow = &mut self.audit.queue_bytes[link_id.index()];
        *shadow += wire;
        let q = &self.links[link_id.index()].queue;
        if q.bytes() != *shadow {
            crate::check::violated(
                "queue_accounting",
                format_args!(
                    "link {} queue has {} B, shadow ledger {} B after enqueue",
                    link_id.0,
                    q.bytes(),
                    *shadow
                ),
            );
        }
        if q.bytes() > q.config().capacity_bytes {
            crate::check::violated(
                "queue_overflow",
                format_args!(
                    "link {} queue at {} B exceeds capacity {} B",
                    link_id.0,
                    q.bytes(),
                    q.config().capacity_bytes
                ),
            );
        }
        if let Some(bid) = shared {
            let shadow = &mut self.audit.buffer_used[bid.index()];
            *shadow += wire;
            self.audit_buffer(bid);
        }
    }

    /// Shadow-releases a dequeue and cross-checks both ledgers.
    #[inline]
    fn audit_dequeue(&mut self, link_id: LinkId, shared: Option<BufferId>, wire: u64) {
        let shadow = &mut self.audit.queue_bytes[link_id.index()];
        match shadow.checked_sub(wire) {
            Some(v) => *shadow = v,
            None => {
                crate::check::violated(
                    "queue_accounting",
                    format_args!(
                        "link {} shadow ledger underflow: release {} B from {} B",
                        link_id.0, wire, *shadow
                    ),
                );
                *shadow = 0;
            }
        }
        let q = &self.links[link_id.index()].queue;
        if q.bytes() != *shadow {
            crate::check::violated(
                "queue_accounting",
                format_args!(
                    "link {} queue has {} B, shadow ledger {} B after dequeue",
                    link_id.0,
                    q.bytes(),
                    *shadow
                ),
            );
        }
        if let Some(bid) = shared {
            let shadow = &mut self.audit.buffer_used[bid.index()];
            match shadow.checked_sub(wire) {
                Some(v) => *shadow = v,
                None => {
                    crate::check::violated(
                        "buffer_accounting",
                        format_args!(
                            "buffer {} shadow ledger underflow: release {} B from {} B",
                            bid.0, wire, *shadow
                        ),
                    );
                    *shadow = 0;
                }
            }
            self.audit_buffer(bid);
        }
    }

    /// Compares a shared buffer against its shadow ledger and capacity.
    #[inline]
    fn audit_buffer(&self, bid: BufferId) {
        let buf = &self.buffers[bid.index()];
        let shadow = self.audit.buffer_used[bid.index()];
        if buf.used_bytes() != shadow {
            crate::check::violated(
                "buffer_accounting",
                format_args!(
                    "buffer {} holds {} B, shadow ledger {} B",
                    bid.0,
                    buf.used_bytes(),
                    shadow
                ),
            );
        }
        if buf.used_bytes() > buf.total_bytes() {
            crate::check::violated(
                "buffer_overflow",
                format_args!(
                    "buffer {} at {} B exceeds capacity {} B",
                    bid.0,
                    buf.used_bytes(),
                    buf.total_bytes()
                ),
            );
        }
    }

    /// Packet conservation: every packet handed to the engine is delivered,
    /// dropped, or still somewhere in flight. Valid at any event boundary.
    pub fn audit_conservation(&self) {
        // Queued and serializing packets are pool-resident, so the pool's
        // live count covers every packet still inside the network; the
        // per-link figures below are reported for diagnosis and
        // cross-checked against the pool.
        let queued: u64 = self.links.iter().map(|l| l.queue.pkts() as u64).sum();
        let on_tx = |l: &&Link| l.transmitting(self.now, self.cur_seq);
        let on_wire = self.links.iter().filter(on_tx).count() as u64;
        let accounted = self.counters.delivered_pkts
            + self.counters.queue_drops
            + self.counters.fault_drops
            + self.pool.live() as u64;
        if self.audit.injected_pkts != accounted || (self.pool.live() as u64) < queued + on_wire {
            crate::check::record(
                "packet_conservation",
                format!(
                    "{} packets injected but {} accounted for \
                     (delivered {} + queue drops {} + fault drops {} + \
                     pool {}; of the pool, queued {} + serializing {})",
                    self.audit.injected_pkts,
                    accounted,
                    self.counters.delivered_pkts,
                    self.counters.queue_drops,
                    self.counters.fault_drops,
                    self.pool.live(),
                    queued,
                    on_wire
                ),
            );
        }
    }

    /// Drain-state invariants: once the event list is empty no packet may be
    /// parked anywhere. Also runs [`Self::audit_conservation`]. Call after
    /// [`Self::run`]; a no-op mid-run (pending events mean in-flight state
    /// is legitimate).
    pub fn audit_drain(&mut self) {
        self.audit_conservation();
        if self.events.peek_time().is_some() {
            return;
        }
        if self.pool.live() != 0 {
            crate::check::record(
                "pool_drain",
                format!("{} pool slots live after drain", self.pool.live()),
            );
        }
        for (i, link) in self.links.iter().enumerate() {
            let busy = link.transmitting(self.now, self.cur_seq);
            if !link.queue.is_empty() || busy {
                crate::check::record(
                    "link_drain",
                    format!(
                        "link {} still holds {} queued pkt(s), busy={} after drain",
                        i,
                        link.queue.pkts(),
                        busy
                    ),
                );
            }
        }
        for (i, buf) in self.buffers.iter().enumerate() {
            if buf.used_bytes() != 0 {
                crate::check::record(
                    "buffer_drain",
                    format!("buffer {} holds {} B after drain", i, buf.used_bytes()),
                );
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::NetworkBuilder;
    use crate::link::LinkConfig;
    use crate::packet::{Packet, PacketKind};
    use crate::queue::QueueConfig;
    use crate::units::Rate;
    use crate::FlowId;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Sends `count` back-to-back frames to `peer` at start, records
    /// delivery times of frames it receives.
    struct Blaster {
        peer: NodeId,
        count: u32,
        log: Rc<RefCell<Vec<(SimTime, u64)>>>,
    }

    impl Endpoint for Blaster {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for i in 0..self.count {
                let pkt = Packet::data(
                    FlowId(0),
                    ctx.node(),
                    self.peer,
                    i * 1000,
                    1446,
                    false,
                    ctx.now(),
                );
                ctx.send(pkt);
            }
        }
        fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
            self.log.borrow_mut().push((ctx.now(), pkt.id));
        }
    }

    fn blaster(peer: NodeId, count: u32) -> Blaster {
        Blaster {
            peer,
            count,
            log: Rc::new(RefCell::new(Vec::new())),
        }
    }

    struct Sink {
        log: Rc<RefCell<Vec<(SimTime, u64)>>>,
    }
    impl Endpoint for Sink {
        fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
            self.log.borrow_mut().push((ctx.now(), pkt.id));
        }
    }

    /// Arms `count` timers at start, one dispatch's worth of commands; the
    /// first to fire arms `later` more in one dispatch.
    struct Armer {
        count: u64,
        later: u64,
    }
    impl Endpoint for Armer {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for key in 0..self.count {
                ctx.set_timer(key, SimTime::from_us(key + 1));
            }
        }

        fn on_timer(&mut self, ctx: &mut Ctx, key: u64) {
            if key == 0 {
                for k in 0..self.later {
                    ctx.set_timer(self.count + k, SimTime::from_us(self.count + k + 1));
                }
            }
        }

        fn on_packet(&mut self, _: &mut Ctx, _: Packet) {}
    }

    #[test]
    fn command_buffer_gives_back_its_start_up_high_water_mark() {
        let (count, later) = (10_000, 100);
        let (mut sim, a, _) = two_hosts(Rate::gbps(10), SimTime::from_us(1));
        sim.set_endpoint(a, Box::new(Armer { count, later }));
        sim.run_until(SimTime::ZERO);
        assert_eq!(sim.cmd_buf.capacity(), 0, "start-up capacity kept");
        sim.run_until(SimTime::from_us(1));
        // The run regrows the buffer to its own largest dispatch and keeps it.
        let cap = sim.cmd_buf.capacity();
        assert!(
            (later as usize..=2 * later as usize).contains(&cap),
            "{cap}"
        );
        sim.run();
        assert_eq!(sim.cmd_buf.capacity(), cap);
        assert_eq!(sim.counters().events_processed, count + later);
    }

    fn two_hosts(rate: Rate, prop: SimTime) -> (Simulator, NodeId, NodeId) {
        let mut b = NetworkBuilder::new();
        let a = b.add_host("a");
        let sw = b.add_switch("sw");
        let c = b.add_host("c");
        let cfg = LinkConfig::new(rate, prop, QueueConfig::host_nic());
        b.connect(a, sw, cfg.clone(), cfg.clone());
        b.connect(c, sw, cfg.clone(), cfg);
        (b.build(1), a, c)
    }

    #[test]
    fn single_packet_latency_is_ser_plus_prop_per_hop() {
        let (mut sim, a, c) = two_hosts(Rate::gbps(10), SimTime::from_us(1));
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.set_endpoint(
            a,
            Box::new(Blaster {
                peer: c,
                count: 1,
                log: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        sim.set_endpoint(c, Box::new(Sink { log: log.clone() }));
        sim.run();
        let delivered = log.borrow();
        assert_eq!(delivered.len(), 1);
        // Two hops: 2 x (1500 B @ 10 Gbps = 1.2 us) + 2 x 1 us prop = 4.4 us.
        assert_eq!(delivered[0].0, SimTime::from_ns(4400));
        assert_eq!(sim.counters().delivered_pkts, 1);
        assert_eq!(sim.counters().delivered_bytes, 1500);
    }

    #[test]
    fn back_to_back_packets_are_paced_by_serialization() {
        let (mut sim, a, c) = two_hosts(Rate::gbps(10), SimTime::from_us(1));
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.set_endpoint(
            a,
            Box::new(Blaster {
                peer: c,
                count: 3,
                log: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        sim.set_endpoint(c, Box::new(Sink { log: log.clone() }));
        sim.run();
        let delivered = log.borrow();
        assert_eq!(delivered.len(), 3);
        // Consecutive deliveries exactly one serialization time apart.
        assert_eq!(delivered[1].0 - delivered[0].0, SimTime::from_ns(1200));
        assert_eq!(delivered[2].0 - delivered[1].0, SimTime::from_ns(1200));
        // FIFO order by id.
        assert!(delivered[0].1 < delivered[1].1 && delivered[1].1 < delivered[2].1);
    }

    #[test]
    fn run_until_stops_at_deadline() {
        let (mut sim, a, c) = two_hosts(Rate::gbps(10), SimTime::from_us(100));
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.set_endpoint(
            a,
            Box::new(Blaster {
                peer: c,
                count: 1,
                log: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        sim.set_endpoint(c, Box::new(Sink { log: log.clone() }));
        sim.run_until(SimTime::from_us(50));
        assert_eq!(log.borrow().len(), 0); // still propagating
        assert_eq!(sim.now(), SimTime::from_us(50));
        sim.run_until(SimTime::from_ms(1));
        assert_eq!(log.borrow().len(), 1);
    }

    /// A timer endpoint exercising set/cancel/re-arm semantics.
    struct TimerBox {
        fired: Rc<RefCell<Vec<(u64, SimTime)>>>,
    }
    impl Endpoint for TimerBox {
        fn on_start(&mut self, ctx: &mut Ctx) {
            ctx.set_timer(1, SimTime::from_us(10));
            ctx.set_timer(2, SimTime::from_us(20));
            ctx.cancel_timer(2); // never fires
            ctx.set_timer(3, SimTime::from_us(30));
            ctx.set_timer(3, SimTime::from_us(40)); // re-armed: fires once at 40
        }
        fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {}
        fn on_timer(&mut self, ctx: &mut Ctx, key: u64) {
            self.fired.borrow_mut().push((key, ctx.now()));
            if key == 1 {
                ctx.set_timer_after(4, SimTime::from_us(5));
            }
        }
    }

    #[test]
    fn timer_semantics() {
        let (mut sim, a, _c) = two_hosts(Rate::gbps(10), SimTime::from_us(1));
        let fired = Rc::new(RefCell::new(Vec::new()));
        sim.set_endpoint(
            a,
            Box::new(TimerBox {
                fired: fired.clone(),
            }),
        );
        sim.run();
        let fired = fired.borrow();
        assert_eq!(
            *fired,
            vec![
                (1, SimTime::from_us(10)),
                (4, SimTime::from_us(15)),
                (3, SimTime::from_us(40)),
            ]
        );
    }

    #[test]
    fn fault_injection_drops_packets() {
        let mut b = NetworkBuilder::new();
        let a = b.add_host("a");
        let c = b.add_host("c");
        let mut lossy =
            LinkConfig::new(Rate::gbps(10), SimTime::from_us(1), QueueConfig::host_nic());
        lossy.loss_probability = 1.0;
        let clean = LinkConfig::new(Rate::gbps(10), SimTime::from_us(1), QueueConfig::host_nic());
        b.connect(a, c, lossy, clean);
        let mut sim = b.build(3);
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.set_endpoint(
            a,
            Box::new(Blaster {
                peer: c,
                count: 5,
                log: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        sim.set_endpoint(c, Box::new(Sink { log: log.clone() }));
        sim.run();
        assert_eq!(log.borrow().len(), 0);
        assert_eq!(sim.counters().fault_drops, 5);
    }

    #[test]
    fn tap_sees_packets_before_endpoint() {
        struct CountTap(Rc<RefCell<u64>>);
        impl IngressTap for CountTap {
            fn on_packet(&mut self, _now: SimTime, _pkt: &Packet) {
                *self.0.borrow_mut() += 1;
            }
        }
        let (mut sim, a, c) = two_hosts(Rate::gbps(10), SimTime::from_us(1));
        let log = Rc::new(RefCell::new(Vec::new()));
        let n = Rc::new(RefCell::new(0));
        sim.set_endpoint(
            a,
            Box::new(Blaster {
                peer: c,
                count: 4,
                log: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        sim.set_endpoint(c, Box::new(Sink { log: log.clone() }));
        sim.set_tap(c, Box::new(CountTap(n.clone())));
        sim.run();
        assert_eq!(*n.borrow(), 4);
        assert_eq!(log.borrow().len(), 4);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            let (mut sim, a, c) = two_hosts(Rate::gbps(10), SimTime::from_us(1));
            let log = Rc::new(RefCell::new(Vec::new()));
            sim.set_endpoint(
                a,
                Box::new(Blaster {
                    peer: c,
                    count: 10,
                    log: Rc::new(RefCell::new(Vec::new())),
                }),
            );
            sim.set_endpoint(c, Box::new(Sink { log: log.clone() }));
            sim.run();
            let v = log.borrow().clone();
            (v, sim.counters().events_processed)
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn ctrl_packets_route_like_any_other() {
        let (mut sim, a, c) = two_hosts(Rate::gbps(10), SimTime::from_us(1));
        struct CtrlSender {
            peer: NodeId,
        }
        impl Endpoint for CtrlSender {
            fn on_start(&mut self, ctx: &mut Ctx) {
                ctx.send(Packet::ctrl(FlowId(7), ctx.node(), self.peer, 1234, 9));
            }
            fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {}
        }
        struct CtrlSink {
            got: Rc<RefCell<Option<(u64, u64)>>>,
        }
        impl Endpoint for CtrlSink {
            fn on_packet(&mut self, _ctx: &mut Ctx, pkt: Packet) {
                if let PacketKind::Ctrl { demand, burst } = pkt.kind {
                    *self.got.borrow_mut() = Some((demand, burst));
                }
            }
        }
        let got = Rc::new(RefCell::new(None));
        sim.set_endpoint(a, Box::new(CtrlSender { peer: c }));
        sim.set_endpoint(c, Box::new(CtrlSink { got: got.clone() }));
        sim.run();
        assert_eq!(*got.borrow(), Some((1234, 9)));
    }

    #[test]
    fn sink_captures_packet_lifecycle() {
        let (mut sim, a, c) = two_hosts(Rate::gbps(10), SimTime::from_us(1));
        let (jsonl, sref) = telemetry::JsonlSink::new().shared();
        sim.set_sink(sref);
        sim.set_endpoint(
            a,
            Box::new(Blaster {
                peer: c,
                count: 2,
                log: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        sim.set_endpoint(
            c,
            Box::new(Sink {
                log: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        sim.run();
        let out = jsonl.borrow().render();
        // Each packet: enq + tx + rx on each of two hops = 12 events total.
        assert_eq!(out.lines().count(), 12);
        assert!(out.contains(r#""ev":"pkt_enq""#));
        assert!(out.contains(r#""ev":"pkt_tx""#));
        assert!(out.contains(r#""ev":"pkt_rx""#));
        assert!(out.contains(r#""pkt":"data""#));
    }

    #[test]
    fn depth_probe_emits_queue_samples() {
        let (mut sim, a, c) = two_hosts(Rate::gbps(10), SimTime::from_us(1));
        let (jsonl, sref) = telemetry::JsonlSink::new()
            .with_classes(&[EventClass::Queue])
            .shared();
        sim.set_sink(sref);
        sim.enable_depth_probe(LinkId(0));
        sim.set_endpoint(
            a,
            Box::new(Blaster {
                peer: c,
                count: 3,
                log: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        sim.set_endpoint(
            c,
            Box::new(Sink {
                log: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        sim.run();
        let out = jsonl.borrow().render();
        // 3 enqueues + 3 dequeues on the probed link, nothing else.
        assert_eq!(out.lines().count(), 6);
        for line in out.lines() {
            assert!(line.contains(r#""ev":"queue_depth""#), "{line}");
            assert!(line.contains(r#""link":0"#), "{line}");
        }
        // Depth must reach 2 while the first frame serializes.
        assert!(out.contains(r#""pkts":2"#));
    }

    #[test]
    fn fault_drops_reach_sink_with_fault_cause() {
        let mut b = NetworkBuilder::new();
        let a = b.add_host("a");
        let c = b.add_host("c");
        let mut lossy =
            LinkConfig::new(Rate::gbps(10), SimTime::from_us(1), QueueConfig::host_nic());
        lossy.loss_probability = 1.0;
        let clean = LinkConfig::new(Rate::gbps(10), SimTime::from_us(1), QueueConfig::host_nic());
        b.connect(a, c, lossy, clean);
        let mut sim = b.build(3);
        let (jsonl, sref) = telemetry::JsonlSink::new().shared();
        sim.set_sink(sref);
        sim.set_endpoint(
            a,
            Box::new(Blaster {
                peer: c,
                count: 2,
                log: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        sim.set_endpoint(
            c,
            Box::new(Sink {
                log: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        sim.run();
        let out = jsonl.borrow().render();
        let faults: Vec<&str> = out
            .lines()
            .filter(|l| l.contains(r#""reason":"fault""#))
            .collect();
        assert_eq!(faults.len(), 2);
        assert!(faults[0].contains(r#""ev":"pkt_drop""#));
    }

    #[test]
    fn blackhole_window_drops_then_recovers() {
        // a->sw is LinkId(0); 1500 B at 10 Gbps serializes in 1.2 us, so
        // back-to-back completions land at 1.2, 2.4, 3.6, 4.8, 6.0 us. A
        // [0, 3 us) blackhole eats exactly the first two frames.
        let (mut sim, a, c) = two_hosts(Rate::gbps(10), SimTime::from_us(1));
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.set_endpoint(
            a,
            Box::new(Blaster {
                peer: c,
                count: 5,
                log: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        sim.set_endpoint(c, Box::new(Sink { log: log.clone() }));
        sim.set_fault_plan(FaultPlan::new().blackhole(
            LinkId(0),
            SimTime::ZERO,
            SimTime::from_us(3),
        ));
        sim.run();
        assert_eq!(sim.counters().fault_drops, 2);
        assert_eq!(sim.counters().corrupt_drops, 0);
        assert_eq!(sim.counters().delivered_pkts, 3);
        assert_eq!(sim.counters().faults_applied, 2);
        assert_eq!(log.borrow().len(), 3);
    }

    #[test]
    fn corrupt_window_counts_as_corrupt_subset() {
        let (mut sim, a, c) = two_hosts(Rate::gbps(10), SimTime::from_us(1));
        sim.set_endpoint(
            a,
            Box::new(Blaster {
                peer: c,
                count: 5,
                log: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        sim.set_endpoint(
            c,
            Box::new(Sink {
                log: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        sim.set_fault_plan(FaultPlan::new().corrupt_window(
            LinkId(0),
            SimTime::ZERO,
            SimTime::from_ms(1),
            1.0,
        ));
        sim.run();
        assert_eq!(sim.counters().corrupt_drops, 5);
        // Corrupt drops are a subset of fault drops (conservation holds).
        assert_eq!(sim.counters().fault_drops, 5);
        assert_eq!(sim.counters().delivered_pkts, 0);
    }

    #[test]
    fn host_pause_defers_dispatch_until_resume() {
        let (mut sim, a, c) = two_hosts(Rate::gbps(10), SimTime::from_us(1));
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.set_endpoint(
            a,
            Box::new(Blaster {
                peer: c,
                count: 3,
                log: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        sim.set_endpoint(c, Box::new(Sink { log: log.clone() }));
        sim.set_fault_plan(FaultPlan::new().straggler(c, SimTime::ZERO, SimTime::from_us(100)));
        sim.run();
        // The NIC received everything during the pause...
        assert_eq!(sim.counters().delivered_pkts, 3);
        // ...but the endpoint saw all of it at the resume instant, in order.
        let delivered = log.borrow();
        assert_eq!(delivered.len(), 3);
        for (t, _) in delivered.iter() {
            assert_eq!(*t, SimTime::from_us(100));
        }
        assert!(delivered[0].1 < delivered[1].1 && delivered[1].1 < delivered[2].1);
    }

    #[test]
    fn fault_events_reach_sink() {
        let (mut sim, a, c) = two_hosts(Rate::gbps(10), SimTime::from_us(1));
        let (jsonl, sref) = telemetry::JsonlSink::new().shared();
        sim.set_sink(sref);
        sim.set_endpoint(
            a,
            Box::new(Blaster {
                peer: c,
                count: 1,
                log: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        sim.set_endpoint(
            c,
            Box::new(Sink {
                log: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        sim.set_fault_plan(FaultPlan::new().blackhole(
            LinkId(1),
            SimTime::from_us(50),
            SimTime::from_us(60),
        ));
        sim.run();
        let out = jsonl.borrow().render();
        let faults: Vec<&str> = out
            .lines()
            .filter(|l| l.contains(r#""ev":"fault""#))
            .collect();
        assert_eq!(faults.len(), 2);
        assert!(faults[0].contains(r#""kind":"link_down""#), "{}", faults[0]);
        assert!(faults[1].contains(r#""kind":"link_up""#), "{}", faults[1]);
        assert!(faults[0].contains(r#""target":1"#), "{}", faults[0]);
        let js = sim.counters().to_json();
        assert!(js.contains(r#""faults_applied":2"#), "{js}");
    }

    #[test]
    fn faulted_run_is_deterministic() {
        let run = || {
            let (mut sim, a, c) = two_hosts(Rate::gbps(10), SimTime::from_us(1));
            let log = Rc::new(RefCell::new(Vec::new()));
            sim.set_endpoint(
                a,
                Box::new(Blaster {
                    peer: c,
                    count: 20,
                    log: Rc::new(RefCell::new(Vec::new())),
                }),
            );
            sim.set_endpoint(c, Box::new(Sink { log: log.clone() }));
            sim.set_fault_plan(
                FaultPlan::new()
                    .lossy_window(LinkId(0), SimTime::ZERO, SimTime::from_us(10), 0.5)
                    .blackhole(LinkId(0), SimTime::from_us(12), SimTime::from_us(15)),
            );
            sim.run();
            let v = log.borrow().clone();
            (
                v,
                sim.counters().events_processed,
                sim.counters().fault_drops,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic]
    fn fault_plan_rejects_unknown_link() {
        let (mut sim, _a, _c) = two_hosts(Rate::gbps(10), SimTime::from_us(1));
        sim.set_fault_plan(FaultPlan::new().blackhole(
            LinkId(99),
            SimTime::ZERO,
            SimTime::from_us(1),
        ));
    }

    #[test]
    fn profile_tallies_match_counters() {
        let (mut sim, a, c) = two_hosts(Rate::gbps(10), SimTime::from_us(1));
        sim.set_endpoint(
            a,
            Box::new(Blaster {
                peer: c,
                count: 5,
                log: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        sim.set_endpoint(
            c,
            Box::new(Sink {
                log: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        sim.run();
        let p = sim.profile();
        let c = sim.counters();
        assert_eq!(p.events(), c.events_processed);
        // 5 frames, 2 hops each: 10 transmissions, 10 deliveries. The tally
        // counts `TxComplete` events that popped; the rest were never needed.
        assert_eq!(c.frames_tx_started, 10);
        assert_eq!(p.tallies.delivery, 10);
        assert_eq!(p.tallies.tx_complete + c.tx_complete_elided, 10);
        // The blaster queues all five on its uplink at once, so four have a
        // successor waiting and the fifth does not. On the second hop each
        // frame arrives at the picosecond its predecessor's serialization
        // ends (same rate), and propagation (1 us) is shorter than
        // serialization (1.2 us), so by transmission-start order it still
        // finds the predecessor on the transmitter: four more.
        assert_eq!(p.tallies.tx_complete, 8);
        assert_eq!(p.tallies.timer, 0);
    }

    /// Alone on an idle path a frame costs one event per hop.
    #[test]
    fn a_lone_frame_schedules_no_tx_complete() {
        let (mut sim, a, c) = two_hosts(Rate::gbps(10), SimTime::from_us(1));
        let log = Rc::new(RefCell::new(Vec::new()));
        sim.set_endpoint(a, Box::new(blaster(c, 1)));
        sim.set_endpoint(c, Box::new(Sink { log: log.clone() }));
        sim.run();
        assert_eq!(log.borrow()[0].0, SimTime::from_ns(4400));
        assert_eq!(sim.counters().events_processed, 2);
        assert_eq!(sim.profile().tallies.tx_complete, 0);
        assert_eq!(sim.counters().tx_complete_elided, 2);
    }

    /// "Is a frame on the transmitter" is asked against the point the loop
    /// has reached, so it reads the same whether or not the link schedules
    /// `TxComplete` events — and idle once `run_until` returns at or past
    /// the serialization end.
    #[test]
    fn transmitter_state_is_readable_between_run_until_calls() {
        let never = FaultKind::LinkUp { link: LinkId(0) };
        for plan in [
            None,
            Some(FaultPlan::new().push(SimTime::from_secs(1), never)),
        ] {
            let (mut sim, a, c) = two_hosts(Rate::gbps(10), SimTime::from_us(1));
            sim.set_endpoint(a, Box::new(blaster(c, 1)));
            let eager = plan.is_some();
            if let Some(plan) = plan {
                sim.set_fault_plan(plan);
            }
            assert_eq!(sim.link(LinkId(0)).can_lose(), eager);
            assert!(sim.serializing_packet(LinkId(0)).is_none());
            sim.run_until(SimTime::from_ns(600));
            assert_eq!(sim.serializing_packet(LinkId(0)).map(|p| p.id), Some(0));
            assert!(sim.link(LinkId(0)).transmitting(sim.now(), u64::MAX));
            sim.run_until(SimTime::from_ns(1200)); // serialization ends here
            assert!(sim.serializing_packet(LinkId(0)).is_none());
            assert!(!sim.link(LinkId(0)).transmitting(sim.now(), u64::MAX));
            assert_eq!(sim.counters().tx_complete_elided, u64::from(!eager));
        }
    }

    /// The `link_mut` contract: a loss probability set between `run_until`
    /// calls applies to frames that start serializing afterwards. The frame
    /// on the transmitter of a link that could not lose it is already on
    /// its way; on a link that could, it is judged at its serialization end.
    #[test]
    fn loss_set_through_link_mut_applies_from_the_next_frame() {
        let uplink = LinkId(0);
        let run = |initial: f64| {
            let (mut sim, a, c) = two_hosts(Rate::gbps(10), SimTime::from_us(1));
            sim.link_mut(uplink).cfg.loss_probability = initial;
            let log = Rc::new(RefCell::new(Vec::new()));
            sim.set_endpoint(a, Box::new(blaster(c, 3)));
            sim.set_endpoint(c, Box::new(Sink { log: log.clone() }));
            sim.run_until(SimTime::from_ns(600)); // frame 0 half serialized
            sim.link_mut(uplink).cfg.loss_probability = 1.0;
            sim.run_until(SimTime::from_ns(1800)); // frame 1 half serialized
            sim.link_mut(uplink).cfg.loss_probability = 0.0;
            sim.run();
            let ids: Vec<u64> = log.borrow().iter().map(|&(_, id)| id).collect();
            (ids, sim.counters().fault_drops)
        };
        // Plain when frame 0 started: it survives, frame 1 starts lossy and
        // is judged (p = 0 by then) at its end, frame 2 starts plain.
        assert_eq!(run(0.0), (vec![0, 1, 2], 0));
        // Lossy from the start (p too small to ever hit): frame 0 is judged
        // at its end under p = 1 and dropped; 1 and 2 end under p = 0.
        assert_eq!(run(1e-300), (vec![1, 2], 1));
    }

    /// Fan-in fixture for control-plane tests: `n` senders and one receiver
    /// on a single switch. Link ids: `2i` = sender i uplink, `2i+1` = its
    /// downlink; the receiver pair comes last, so `2n+1` is the monitored
    /// incast downlink.
    fn fan_in(n: u32) -> (Simulator, Vec<NodeId>, NodeId, LinkId) {
        let mut b = NetworkBuilder::new();
        let senders: Vec<NodeId> = (0..n).map(|i| b.add_host(&format!("s{i}"))).collect();
        let sw = b.add_switch("sw");
        let recv = b.add_host("recv");
        let cfg = LinkConfig::new(Rate::gbps(10), SimTime::from_us(1), QueueConfig::host_nic());
        for &s in &senders {
            b.connect(s, sw, cfg.clone(), cfg.clone());
        }
        b.connect(recv, sw, cfg.clone(), cfg);
        let monitored = LinkId(2 * n + 1);
        (b.build(7), senders, recv, monitored)
    }

    /// A sender that blasts data frames and acknowledges notifications.
    struct AckingBlaster {
        peer: NodeId,
        count: u32,
        notifs: Rc<RefCell<Vec<(u32, u32, SimTime)>>>,
    }

    impl Endpoint for AckingBlaster {
        fn on_start(&mut self, ctx: &mut Ctx) {
            for i in 0..self.count {
                let pkt = Packet::data(
                    FlowId(ctx.node().0),
                    ctx.node(),
                    self.peer,
                    i * 1000,
                    1446,
                    false,
                    ctx.now(),
                );
                ctx.send(pkt);
            }
        }
        fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
            if let PacketKind::Notif { epoch, .. } = pkt.kind {
                self.notifs
                    .borrow_mut()
                    .push((pkt.flow.0, epoch, ctx.now()));
                ctx.send(Packet::notif_ack(pkt.flow, ctx.node(), pkt.src, epoch));
            }
        }
    }

    fn ctrl_cfg(monitored: LinkId) -> crate::control::ControlConfig {
        crate::control::ControlConfig {
            ports: vec![monitored],
            flow_threshold: 3,
            window_bytes: 3000,
            ..Default::default()
        }
    }

    #[test]
    fn control_plane_detects_incast_and_completes_episode() {
        let (mut sim, senders, recv, monitored) = fan_in(3);
        let notifs = Rc::new(RefCell::new(Vec::new()));
        for &s in &senders {
            sim.set_endpoint(
                s,
                Box::new(AckingBlaster {
                    peer: recv,
                    count: 4,
                    notifs: notifs.clone(),
                }),
            );
        }
        sim.set_endpoint(
            recv,
            Box::new(Sink {
                log: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        sim.set_control_plane(ctrl_cfg(monitored));
        sim.run();
        // One notification per sender, every one acked, no retries needed.
        assert_eq!(sim.counters().notif_sent, 3);
        assert_eq!(sim.counters().notif_acked, 3);
        assert_eq!(sim.counters().notif_retries, 0);
        assert_eq!(sim.counters().notif_lost, 0);
        let notifs = notifs.borrow();
        assert_eq!(notifs.len(), 3);
        for &(flow, epoch, _) in notifs.iter() {
            assert_eq!(flow, crate::control::CTRL_FLOW_BASE); // port 0
            assert_eq!(epoch, 1);
        }
        // Control timers show up in the profile's ctrl tally, not timer.
        assert!(sim.profile().tallies.ctrl >= 1);
        assert_eq!(sim.profile().tallies.timer, 0);
        // All 12 data frames still delivered; notif acks terminated at the
        // switch count as deliveries too.
        assert_eq!(sim.counters().delivered_pkts, 12 + 3 + 3);
    }

    #[test]
    fn dead_control_plane_is_byte_identical_to_no_plane() {
        let run = |plane: Option<f64>| {
            let (mut sim, senders, recv, monitored) = fan_in(3);
            for &s in &senders {
                sim.set_endpoint(
                    s,
                    Box::new(AckingBlaster {
                        peer: recv,
                        count: 6,
                        notifs: Rc::new(RefCell::new(Vec::new())),
                    }),
                );
            }
            sim.set_endpoint(
                recv,
                Box::new(Sink {
                    log: Rc::new(RefCell::new(Vec::new())),
                }),
            );
            if let Some(loss) = plane {
                let mut cfg = ctrl_cfg(monitored);
                cfg.notif_loss = loss;
                sim.set_control_plane(cfg);
            }
            sim.run();
            (
                sim.counters().to_json(),
                sim.counters().events_processed,
                sim.profile().tallies,
            )
        };
        // A fully blackholed plane must leave zero footprint.
        assert_eq!(run(None), run(Some(1.0)));
    }

    #[test]
    fn emission_loss_triggers_retries_until_acked() {
        let (mut sim, senders, recv, monitored) = fan_in(3);
        let notifs = Rc::new(RefCell::new(Vec::new()));
        for &s in &senders {
            sim.set_endpoint(
                s,
                Box::new(AckingBlaster {
                    peer: recv,
                    count: 4,
                    notifs: notifs.clone(),
                }),
            );
        }
        sim.set_endpoint(
            recv,
            Box::new(Sink {
                log: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        let mut cfg = ctrl_cfg(monitored);
        cfg.notif_loss = 0.5;
        cfg.seed = 11;
        sim.set_control_plane(cfg);
        sim.run();
        let c = sim.counters();
        // With 50% emission loss some frame is lost and re-fired (seeded,
        // deterministic), and every sender is eventually notified.
        assert!(c.notif_lost > 0, "expected emission losses");
        assert!(c.notif_retries > 0, "expected re-fire rounds");
        assert_eq!(c.notif_acked, 3);
        let reached: std::collections::BTreeSet<u32> =
            notifs.borrow().iter().map(|&(f, _, _)| f).collect();
        assert_eq!(reached.len(), 1); // one port
        assert_eq!(notifs.borrow().len(), 3); // each sender exactly once (no dup epochs)
    }

    #[test]
    fn control_runs_are_deterministic() {
        let run = || {
            let (mut sim, senders, recv, monitored) = fan_in(4);
            for &s in &senders {
                sim.set_endpoint(
                    s,
                    Box::new(AckingBlaster {
                        peer: recv,
                        count: 8,
                        notifs: Rc::new(RefCell::new(Vec::new())),
                    }),
                );
            }
            sim.set_endpoint(
                recv,
                Box::new(Sink {
                    log: Rc::new(RefCell::new(Vec::new())),
                }),
            );
            let mut cfg = ctrl_cfg(monitored);
            cfg.notif_loss = 0.3;
            cfg.seed = 5;
            sim.set_control_plane(cfg);
            sim.run();
            sim.counters().to_json()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn counters_json_tracks_marks_and_drops() {
        let (mut sim, a, c) = two_hosts(Rate::gbps(10), SimTime::from_us(1));
        sim.set_endpoint(
            a,
            Box::new(Blaster {
                peer: c,
                count: 1,
                log: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        sim.set_endpoint(
            c,
            Box::new(Sink {
                log: Rc::new(RefCell::new(Vec::new())),
            }),
        );
        sim.run();
        let js = sim.counters().to_json();
        assert!(js.contains(r#""delivered_pkts":1"#));
        assert!(js.contains(r#""ecn_marked_pkts":0"#));
        assert!(js.contains(r#""shared_buffer_drops":0"#));
    }
}
