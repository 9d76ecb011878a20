//! Per-host TCP demultiplexer and the application interface.
//!
//! [`TcpHost`] is the [`simnet::Endpoint`] a host runs: it owns every
//! sending and receiving connection terminating at the host and dispatches
//! packets and timers to them. Application logic (the workload crate's
//! coordinators and workers) plugs in as a [`TcpApp`] and acts through a
//! [`TcpApi`] — opening connections, adding demand, sending request
//! messages, and arming its own timers.

use crate::config::TcpConfig;
use crate::keys::{self, TimerKind};
use crate::receiver::Receiver;
use crate::sender::{AckOutcome, FlowProbe, Sender};
use simnet::{Ctx, Endpoint, FlowId, NodeId, Packet, PacketKind, SimTime};
use telemetry::SinkRef;

/// Connection table windowed over the flow ids this host opened.
///
/// Connections live in a dense `entries` vector in opening order; `index`
/// covers only `[base, base + index.len())` — the span between the lowest
/// and highest id opened *here* — and maps an id to its entry, so an empty
/// slot costs four bytes and a worker with one flow holds one slot no
/// matter how large the id. The per-packet demux stays a subtraction and
/// two array indexes instead of a hash-map probe, and iteration walks the
/// window in ascending flow-id order — deterministic by construction.
#[derive(Debug)]
pub struct FlowTable<T> {
    /// Flow id of `index[0]`.
    base: u32,
    /// Position in `entries` per id in the window; [`VACANT`] if unopened.
    index: Vec<u32>,
    entries: Vec<T>,
}

/// `FlowTable::index` marker for an id inside the window that was never
/// opened.
const VACANT: u32 = u32::MAX;

/// Connections below which `FlowTable::entries` grows one slot at a time.
/// A worker opens one flow, two in the fleet, where `Vec::push` would make
/// room for four.
const EXACT_BELOW: usize = 4;

impl<T> FlowTable<T> {
    fn new() -> Self {
        FlowTable {
            base: 0,
            index: Vec::new(),
            entries: Vec::new(),
        }
    }

    /// Number of open connections.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if no connection is open.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Position of `flow` in `entries`, if open. Ids below the window
    /// wrap to a huge offset and miss like ids above it.
    #[inline]
    fn slot(&self, flow: FlowId) -> Option<usize> {
        let at = *self.index.get(flow.0.wrapping_sub(self.base) as usize)?;
        (at != VACANT).then_some(at as usize)
    }

    /// The connection for `flow`, if open.
    pub fn get(&self, flow: FlowId) -> Option<&T> {
        self.slot(flow).map(|at| &self.entries[at])
    }

    fn get_mut(&mut self, flow: FlowId) -> Option<&mut T> {
        self.slot(flow).map(|at| &mut self.entries[at])
    }

    fn get_or_insert_with(&mut self, flow: FlowId, make: impl FnOnce() -> T) -> &mut T {
        if let Some(at) = self.slot(flow) {
            return &mut self.entries[at];
        }
        if self.index.is_empty() {
            self.base = flow.0;
        } else if flow.0 < self.base {
            // Grow the window downward: vacant slots in front.
            let grow = (self.base - flow.0) as usize;
            self.index.splice(0..0, std::iter::repeat_n(VACANT, grow));
            self.base = flow.0;
        }
        let off = (flow.0 - self.base) as usize;
        if off >= self.index.len() {
            self.index.resize(off + 1, VACANT);
        }
        self.index[off] = self.entries.len() as u32;
        if self.entries.len() < EXACT_BELOW {
            self.entries.reserve_exact(1);
        }
        self.entries.push(make());
        self.entries.last_mut().expect("entry just pushed")
    }

    /// Iterates open connections in ascending flow-id order.
    pub fn iter(&self) -> impl Iterator<Item = (FlowId, &T)> {
        let base = self.base;
        let entries = &self.entries;
        self.index
            .iter()
            .enumerate()
            .filter(|&(_, &at)| at != VACANT)
            .map(move |(i, &at)| (FlowId(base + i as u32), &entries[at as usize]))
    }

    /// Visits every open connection mutably, ascending by flow id.
    fn for_each_mut(&mut self, mut f: impl FnMut(&mut T)) {
        for &at in &self.index {
            if at != VACANT {
                f(&mut self.entries[at as usize]);
            }
        }
    }
}

/// Connection tables and configuration for one host.
#[derive(Debug)]
pub struct HostCore {
    cfg: TcpConfig,
    senders: FlowTable<Sender>,
    receivers: FlowTable<Receiver>,
    /// Telemetry sink handed to every sender opened on this host.
    sink: Option<SinkRef>,
    /// Packets for unknown flows (should stay zero in healthy runs).
    pub stray_packets: u64,
    /// Highest control-plane notification epoch applied per control flow
    /// (one entry per congested switch port heard from). Duplicated,
    /// reordered, or retried notifications with a stale epoch are
    /// acknowledged but not re-applied.
    notif_epochs: Vec<(FlowId, u32)>,
    /// Notifications received / applied (stale ones count only the first).
    pub notifs_seen: u64,
    /// Notifications whose epoch was fresh and whose action was applied.
    pub notifs_applied: u64,
}

impl HostCore {
    fn new(cfg: TcpConfig) -> Self {
        cfg.validate().expect("invalid TcpConfig");
        HostCore {
            cfg,
            senders: FlowTable::new(),
            receivers: FlowTable::new(),
            sink: None,
            stray_packets: 0,
            notif_epochs: Vec::new(),
            notifs_seen: 0,
            notifs_applied: 0,
        }
    }

    /// Records `epoch` for `ctrl_flow`; returns true when it is fresh
    /// (strictly newer than anything applied for that control flow).
    fn note_epoch(&mut self, ctrl_flow: FlowId, epoch: u32) -> bool {
        match self.notif_epochs.iter_mut().find(|(f, _)| *f == ctrl_flow) {
            Some((_, last)) if *last >= epoch => false,
            Some((_, last)) => {
                *last = epoch;
                true
            }
            None => {
                self.notif_epochs.push((ctrl_flow, epoch));
                true
            }
        }
    }

    /// The host's transport configuration.
    pub fn config(&self) -> &TcpConfig {
        &self.cfg
    }

    /// A sending connection, if open.
    pub fn sender(&self, flow: FlowId) -> Option<&Sender> {
        self.senders.get(flow)
    }

    /// A receiving connection, if open.
    pub fn receiver(&self, flow: FlowId) -> Option<&Receiver> {
        self.receivers.get(flow)
    }

    /// Iterates all sending connections, ascending by flow id.
    pub fn senders(&self) -> impl Iterator<Item = (FlowId, &Sender)> {
        self.senders.iter()
    }

    /// Iterates all receiving connections, ascending by flow id.
    pub fn receivers(&self) -> impl Iterator<Item = (FlowId, &Receiver)> {
        self.receivers.iter()
    }
}

/// Application logic running over a [`TcpHost`].
///
/// All callbacks receive a [`TcpApi`] giving access to simulated time, the
/// connection tables, and actions.
pub trait TcpApp {
    /// Simulation start.
    fn on_start(&mut self, _api: &mut TcpApi) {}
    /// A control (request) message arrived, e.g. a coordinator's demand.
    fn on_ctrl(
        &mut self,
        _api: &mut TcpApi,
        _from: NodeId,
        _flow: FlowId,
        _demand: u64,
        _burst: u64,
    ) {
    }
    /// In-order data arrived on a receiving connection.
    fn on_receive(&mut self, _api: &mut TcpApi, _flow: FlowId, _newly: u64, _total: u64) {}
    /// Every byte of a sending connection's demand has been acknowledged.
    fn on_all_acked(&mut self, _api: &mut TcpApi, _flow: FlowId) {}
    /// An application timer (set via [`TcpApi::set_app_timer`]) fired.
    fn on_app_timer(&mut self, _api: &mut TcpApi, _id: u64) {}
}

/// The application's handle to the host and simulator during a callback.
pub struct TcpApi<'a, 'c> {
    ctx: &'a mut Ctx<'c>,
    core: &'a mut HostCore,
}

impl<'a, 'c> TcpApi<'a, 'c> {
    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.ctx.now()
    }

    /// This host's node id.
    pub fn node(&self) -> NodeId {
        self.ctx.node()
    }

    /// Read access to the connection tables.
    pub fn core(&self) -> &HostCore {
        self.core
    }

    /// Opens (or reuses) a sending connection of `flow` toward `peer`.
    /// New senders pick up the host's telemetry sink, if one is attached.
    pub fn open_sender(&mut self, flow: FlowId, peer: NodeId) {
        let cfg = &self.core.cfg;
        let sink = &self.core.sink;
        let node = self.ctx.node();
        self.core.senders.get_or_insert_with(flow, || {
            let mut tx = Sender::new(flow, peer, cfg);
            if let Some(s) = sink {
                tx.set_probe(FlowProbe::new(s.clone(), node));
            }
            tx
        });
    }

    /// Appends `bytes` of demand on an open sending connection.
    ///
    /// Panics if the flow was never opened.
    pub fn add_demand(&mut self, flow: FlowId, bytes: u64) {
        let tx = self
            .core
            .senders
            .get_mut(flow)
            .unwrap_or_else(|| panic!("add_demand on unopened flow {flow}"));
        tx.add_demand(self.ctx, bytes);
    }

    /// Sends an application control message (a request) to `peer`.
    pub fn send_ctrl(&mut self, peer: NodeId, flow: FlowId, demand: u64, burst: u64) {
        let pkt = Packet::ctrl(flow, self.ctx.node(), peer, demand, burst);
        self.ctx.send(pkt);
    }

    /// Arms application timer `id` at absolute time `at`.
    pub fn set_app_timer(&mut self, id: u64, at: SimTime) {
        self.ctx.set_timer(keys::app_key(id), at);
    }

    /// Arms application timer `id` to fire `delay` from now.
    pub fn set_app_timer_after(&mut self, id: u64, delay: SimTime) {
        self.ctx.set_timer_after(keys::app_key(id), delay);
    }

    /// Disarms application timer `id`.
    pub fn cancel_app_timer(&mut self, id: u64) {
        self.ctx.cancel_timer(keys::app_key(id));
    }
}

/// A `Shared<T>` application delegates to the wrapped app, so callers can
/// keep a handle and read application state after the simulation run.
impl<T: TcpApp> TcpApp for simnet::Shared<T> {
    fn on_start(&mut self, api: &mut TcpApi) {
        self.borrow_mut().on_start(api);
    }
    fn on_ctrl(&mut self, api: &mut TcpApi, from: NodeId, flow: FlowId, demand: u64, burst: u64) {
        self.borrow_mut().on_ctrl(api, from, flow, demand, burst);
    }
    fn on_receive(&mut self, api: &mut TcpApi, flow: FlowId, newly: u64, total: u64) {
        self.borrow_mut().on_receive(api, flow, newly, total);
    }
    fn on_all_acked(&mut self, api: &mut TcpApi, flow: FlowId) {
        self.borrow_mut().on_all_acked(api, flow);
    }
    fn on_app_timer(&mut self, api: &mut TcpApi, id: u64) {
        self.borrow_mut().on_app_timer(api, id);
    }
}

/// The per-host TCP endpoint.
pub struct TcpHost {
    core: HostCore,
    app: Option<Box<dyn TcpApp>>,
}

impl TcpHost {
    /// Creates a host running `app` with the given transport configuration.
    pub fn new(cfg: TcpConfig, app: Box<dyn TcpApp>) -> Self {
        TcpHost {
            core: HostCore::new(cfg),
            app: Some(app),
        }
    }

    /// Connection tables (for post-run statistics).
    pub fn core(&self) -> &HostCore {
        &self.core
    }

    /// Attaches a telemetry sink: every sender opened afterwards streams
    /// its window transitions ([`telemetry::EventKind::FlowWindow`]) to it.
    /// Attach before the simulation starts so no connection is missed.
    pub fn set_sink(&mut self, sink: SinkRef) {
        self.core.sink = Some(sink);
    }

    fn with_app<F>(&mut self, ctx: &mut Ctx, f: F)
    where
        F: FnOnce(&mut dyn TcpApp, &mut TcpApi),
    {
        let mut app = self.app.take().expect("app re-entered");
        {
            let mut api = TcpApi {
                ctx,
                core: &mut self.core,
            };
            f(app.as_mut(), &mut api);
        }
        self.app = Some(app);
    }
}

impl Endpoint for TcpHost {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.with_app(ctx, |app, api| app.on_start(api));
    }

    fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
        match pkt.kind {
            PacketKind::Data {
                seq, payload, ts, ..
            } => {
                let cfg = &self.core.cfg;
                let rx = self
                    .core
                    .receivers
                    .get_or_insert_with(pkt.flow, || Receiver::new(pkt.flow, pkt.src, cfg));
                let newly = rx.on_data(ctx, seq, payload, pkt.is_ce(), ts);
                let total = rx.delivered();
                if newly > 0 {
                    self.with_app(ctx, |app, api| app.on_receive(api, pkt.flow, newly, total));
                }
            }
            PacketKind::Ack { ack, ece, ts_echo } => match self.core.senders.get_mut(pkt.flow) {
                Some(tx) => {
                    if tx.on_ack(ctx, ack, ece, ts_echo) == AckOutcome::AllAcked {
                        self.with_app(ctx, |app, api| app.on_all_acked(api, pkt.flow));
                    }
                }
                None => self.core.stray_packets += 1,
            },
            PacketKind::QuicData {
                pn,
                offset,
                payload,
                ts,
                ..
            } => {
                let cfg = &self.core.cfg;
                let rx = self
                    .core
                    .receivers
                    .get_or_insert_with(pkt.flow, || Receiver::new(pkt.flow, pkt.src, cfg));
                let newly = rx.on_quic_data(ctx, pn, offset, payload, pkt.is_ce(), ts);
                let total = rx.delivered();
                if newly > 0 {
                    self.with_app(ctx, |app, api| app.on_receive(api, pkt.flow, newly, total));
                }
            }
            PacketKind::QuicAck {
                blocks,
                ece,
                ts_echo,
            } => match self.core.senders.get_mut(pkt.flow) {
                Some(tx) => {
                    if tx.on_quic_ack(ctx, blocks, ece, ts_echo) == AckOutcome::AllAcked {
                        self.with_app(ctx, |app, api| app.on_all_acked(api, pkt.flow));
                    }
                }
                None => self.core.stray_packets += 1,
            },
            PacketKind::Ctrl { demand, burst } => {
                self.with_app(ctx, |app, api| {
                    app.on_ctrl(api, pkt.src, pkt.flow, demand, burst)
                });
            }
            PacketKind::Notif { epoch, pause, cut } => {
                // ALWAYS acknowledge — even a stale or duplicate epoch —
                // so the switch stops retrying; the ack rides the control
                // flow id, which names the congested port.
                ctx.send(Packet::notif_ack(pkt.flow, ctx.node(), pkt.src, epoch));
                self.core.notifs_seen += 1;
                if !self.core.note_epoch(pkt.flow, epoch) {
                    return;
                }
                self.core.notifs_applied += 1;
                self.core.senders.for_each_mut(|tx| {
                    if cut {
                        tx.apply_cut(ctx);
                    } else {
                        tx.apply_pause(ctx, pause);
                    }
                });
            }
            // A notification ack terminates at its switch; one reaching a
            // host is a routing bug.
            PacketKind::NotifAck { .. } => self.core.stray_packets += 1,
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx, key: u64) {
        match keys::decode(key) {
            TimerKind::Rto(flow) | TimerKind::Pto(flow) => {
                if let Some(tx) = self.core.senders.get_mut(flow) {
                    tx.on_rto(ctx);
                }
            }
            TimerKind::Delack(flow) => {
                if let Some(rx) = self.core.receivers.get_mut(flow) {
                    rx.on_delack_timer(ctx);
                }
            }
            TimerKind::Pace(flow) => {
                if let Some(tx) = self.core.senders.get_mut(flow) {
                    tx.on_pace(ctx);
                }
            }
            TimerKind::Guard(flow) => {
                if let Some(tx) = self.core.senders.get_mut(flow) {
                    tx.on_guard(ctx);
                }
            }
            TimerKind::App(id) => {
                self.with_app(ctx, |app, api| app.on_app_timer(api, id));
            }
        }
    }
}

impl std::fmt::Debug for TcpHost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpHost")
            .field("senders", &self.core.senders.len())
            .field("receivers", &self.core.receivers.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{build_dumbbell, Shared};
    use std::cell::RefCell;
    use std::collections::HashMap;
    use std::rc::Rc;

    /// Worker: on ctrl, opens a sender back to the coordinator and sends.
    struct Worker;
    impl TcpApp for Worker {
        fn on_ctrl(&mut self, api: &mut TcpApi, from: NodeId, flow: FlowId, demand: u64, _b: u64) {
            api.open_sender(flow, from);
            api.add_demand(flow, demand);
        }
    }

    /// Coordinator: requests `demand` bytes from each worker at start,
    /// records per-flow delivery and completion time.
    struct Coordinator {
        workers: Vec<NodeId>,
        demand: u64,
        received: Rc<RefCell<HashMap<FlowId, u64>>>,
        done_at: Rc<RefCell<Option<SimTime>>>,
    }
    impl TcpApp for Coordinator {
        fn on_start(&mut self, api: &mut TcpApi) {
            for (i, &w) in self.workers.iter().enumerate() {
                api.send_ctrl(w, FlowId(i as u32), self.demand, 0);
            }
        }
        fn on_receive(&mut self, api: &mut TcpApi, flow: FlowId, _newly: u64, total: u64) {
            self.received.borrow_mut().insert(flow, total);
            let all = self
                .received
                .borrow()
                .values()
                .filter(|&&t| t >= self.demand)
                .count();
            if all == self.workers.len() {
                *self.done_at.borrow_mut() = Some(api.now());
            }
        }
    }

    fn table(ids: &[u32]) -> FlowTable<u32> {
        let mut t = FlowTable::new();
        for &id in ids {
            // The stored value echoes the id so lookups are checkable.
            t.get_or_insert_with(FlowId(id), || id);
        }
        t
    }

    fn ids(t: &FlowTable<u32>) -> Vec<(u32, u32)> {
        t.iter().map(|(f, &v)| (f.0, v)).collect()
    }

    #[test]
    fn flow_table_window_follows_opened_ids() {
        // Descending opens grow the window downward; iteration ascends.
        let mut t = table(&[9, 7, 8, 3]);
        assert_eq!(t.len(), 4);
        assert_eq!(ids(&t), vec![(3, 3), (7, 7), (8, 8), (9, 9)]);
        assert_eq!((t.base, t.index.len()), (3, 7));
        // Re-opening returns the existing entry, never a second one.
        *t.get_or_insert_with(FlowId(7), || unreachable!()) = 70;
        assert_eq!(t.get(FlowId(7)), Some(&70));
        assert_eq!(t.len(), 4);
        // Mutable visit runs in the same ascending order.
        let mut seen = Vec::new();
        t.for_each_mut(|v| seen.push(*v));
        assert_eq!(seen, vec![3, 70, 8, 9]);

        // Sparse ids: both found, every id between them vacant.
        let t = table(&[7, 700]);
        assert_eq!(ids(&t), vec![(7, 7), (700, 700)]);
        assert_eq!(t.len(), 2);
        for probe in [8, 350, 699] {
            assert_eq!(t.get(FlowId(probe)), None);
        }
    }

    #[test]
    fn flow_table_misses_outside_the_window_without_wrapping() {
        let mut empty: FlowTable<u32> = FlowTable::new();
        assert!(empty.is_empty());
        for probe in [0, 1, u32::MAX] {
            assert_eq!(empty.get(FlowId(probe)), None);
            assert!(empty.get_mut(FlowId(probe)).is_none());
        }
        assert_eq!(empty.iter().count(), 0);

        let t = table(&[500, 502]);
        // Below the window (the offset wraps) and above it.
        for probe in [0, 499, 503, 1000, u32::MAX, u32::MAX - 1] {
            assert_eq!(t.get(FlowId(probe)), None, "flow {probe}");
        }
        assert_eq!(t.get(FlowId(501)), None, "vacant slot inside the window");
        assert_eq!(t.get(FlowId(502)), Some(&502));

        // A window ending at the top id still works.
        let t = table(&[u32::MAX, u32::MAX - 2]);
        assert_eq!(
            ids(&t),
            vec![(u32::MAX - 2, u32::MAX - 2), (u32::MAX, u32::MAX)]
        );
        assert_eq!(t.get(FlowId(0)), None);
    }

    #[test]
    fn flow_table_footprint_is_linear_in_flows_opened() {
        // Worker 999 of a 1000-flow incast: one entry, one slot — not
        // 1000 slots of `Option<Sender>`.
        let t = table(&[999]);
        assert_eq!((t.index.len(), t.entries.len()), (1, 1));
        assert_eq!(t.entries.capacity(), 1);

        // A worker serving two coordinators (`flow_base = worker_pool`):
        // the gap costs index slots only, at most 8 bytes each.
        for i in [0, 1, 999] {
            let t = table(&[i, 1000 + i]);
            assert_eq!((t.index.len(), t.entries.len()), (1001, 2));
            assert_eq!(t.entries.capacity(), 2);
            let vacant = t.index.len() - t.entries.len();
            let index_bytes = t.index.capacity() * std::mem::size_of::<u32>();
            assert!(
                index_bytes <= 8 * vacant,
                "{index_bytes} B of index for {vacant} vacant slots"
            );
        }

        // Exact while small; from four connections on, `Vec` growth, which
        // leaves at most as much room again.
        for n in 1..=9 {
            let cap = table(&(0..n).collect::<Vec<_>>()).entries.capacity();
            if n < EXACT_BELOW as u32 {
                assert_eq!(cap, n as usize);
            } else {
                assert!((n as usize..=2 * n as usize).contains(&cap), "{n}: {cap}");
            }
        }
    }

    #[test]
    fn end_to_end_incast_completes() {
        let mut fabric = build_dumbbell(4, 1);
        let rx = fabric.receivers[0];
        let received = Rc::new(RefCell::new(HashMap::new()));
        let done = Rc::new(RefCell::new(None));

        for &s in &fabric.senders {
            fabric.sim.set_endpoint(
                s,
                Box::new(TcpHost::new(TcpConfig::default(), Box::new(Worker))),
            );
        }
        let coord = TcpHost::new(
            TcpConfig::default(),
            Box::new(Coordinator {
                workers: fabric.senders.clone(),
                demand: 50_000,
                received: received.clone(),
                done_at: done.clone(),
            }),
        );
        let coord = Shared::new(coord);
        let handle = coord.handle();
        fabric.sim.set_endpoint(rx, Box::new(coord));
        fabric.sim.run();

        assert!(done.borrow().is_some(), "incast never completed");
        for (_, &total) in received.borrow().iter() {
            assert_eq!(total, 50_000);
        }
        // All four receiving connections exist on the coordinator and
        // delivered everything.
        let host = handle.borrow();
        assert_eq!(host.core().receivers().count(), 4);
        for (_, rx) in host.core().receivers() {
            assert_eq!(rx.delivered(), 50_000);
        }
        assert_eq!(host.core().stray_packets, 0);
    }

    #[test]
    fn sender_side_stats_visible_after_run() {
        let mut fabric = build_dumbbell(1, 2);
        let rx = fabric.receivers[0];
        let received = Rc::new(RefCell::new(HashMap::new()));
        let done = Rc::new(RefCell::new(None));

        let worker = Shared::new(TcpHost::new(TcpConfig::default(), Box::new(Worker)));
        let wh = worker.handle();
        fabric.sim.set_endpoint(fabric.senders[0], Box::new(worker));
        fabric.sim.set_endpoint(
            rx,
            Box::new(TcpHost::new(
                TcpConfig::default(),
                Box::new(Coordinator {
                    workers: fabric.senders.clone(),
                    demand: 20_000,
                    received: received.clone(),
                    done_at: done.clone(),
                }),
            )),
        );
        fabric.sim.run();

        let host = wh.borrow();
        let (_, tx) = host.core().senders().next().expect("sender exists");
        assert_eq!(tx.stats().bytes_acked, 20_000);
        assert_eq!(tx.stats().demand_bytes, 20_000);
        assert!(tx.is_idle());
        assert!(tx.srtt().is_some(), "rtt was sampled");
        // Uncongested single flow: no retransmissions.
        assert_eq!(tx.stats().bytes_retx, 0);
        assert_eq!(tx.stats().timeouts, 0);
    }

    #[test]
    fn app_timers_dispatch() {
        struct TimerApp {
            fired: Rc<RefCell<Vec<u64>>>,
        }
        impl TcpApp for TimerApp {
            fn on_start(&mut self, api: &mut TcpApi) {
                api.set_app_timer_after(3, SimTime::from_us(5));
                api.set_app_timer_after(9, SimTime::from_us(1));
                api.set_app_timer_after(4, SimTime::from_us(10));
                api.cancel_app_timer(4);
            }
            fn on_app_timer(&mut self, _api: &mut TcpApi, id: u64) {
                self.fired.borrow_mut().push(id);
            }
        }
        let mut fabric = build_dumbbell(1, 3);
        let fired = Rc::new(RefCell::new(Vec::new()));
        fabric.sim.set_endpoint(
            fabric.senders[0],
            Box::new(TcpHost::new(
                TcpConfig::default(),
                Box::new(TimerApp {
                    fired: fired.clone(),
                }),
            )),
        );
        fabric.sim.run();
        assert_eq!(*fired.borrow(), vec![9, 3]);
    }

    #[test]
    fn host_sink_probes_every_opened_sender() {
        let mut fabric = build_dumbbell(2, 4);
        let rx = fabric.receivers[0];
        let (jsonl, sref) = telemetry::JsonlSink::new()
            .with_classes(&[telemetry::EventClass::Flow])
            .shared();

        for &s in &fabric.senders {
            let mut host = TcpHost::new(TcpConfig::default(), Box::new(Worker));
            host.set_sink(sref.clone());
            fabric.sim.set_endpoint(s, Box::new(host));
        }
        fabric.sim.set_endpoint(
            rx,
            Box::new(TcpHost::new(
                TcpConfig::default(),
                Box::new(Coordinator {
                    workers: fabric.senders.clone(),
                    demand: 30_000,
                    received: Rc::new(RefCell::new(HashMap::new())),
                    done_at: Rc::new(RefCell::new(None)),
                }),
            )),
        );
        fabric.sim.run();

        let out = jsonl.borrow().render();
        assert!(!out.is_empty(), "probes emitted nothing");
        // Both flows report transitions, starting with burst_start.
        assert!(out.contains(r#""flow":0"#));
        assert!(out.contains(r#""flow":1"#));
        assert!(out
            .lines()
            .next()
            .unwrap()
            .contains(r#""trigger":"burst_start""#));
        for line in out.lines() {
            assert!(line.contains(r#""ev":"flow_window""#), "{line}");
        }
    }
}
