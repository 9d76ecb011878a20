//! The sending half of a connection.
//!
//! [`Sender`] owns what both transport stacks share — the pluggable
//! congestion controller ([`Cca`]), the RTT estimator, demand bookkeeping,
//! counters, and telemetry probes — and delegates loss recovery to a
//! [`Recovery`] engine selected by [`TcpConfig::transport`]:
//!
//! - `tcp`: NewReno — cumulative ACKs, triple-duplicate-ACK fast
//!   retransmit (RFC 5681/6582), RFC 6298 RTO with exponential backoff,
//! - `quic`: RFC 9002 semantics — monotonic packet numbers, ACK ranges,
//!   packet-threshold loss detection, PTO backoff, PRR-style reduction.
//!
//! Connections are persistent: the application adds demand per burst and the
//! congestion state carries over — exactly the behavior behind the paper's
//! §4.3 cross-burst divergence findings.

use crate::cca::{Cca, CcaCtx};
use crate::config::{TcpConfig, TransportKind};
use crate::keys;
use crate::recovery::{AckView, Recovery, TxCtx};
use crate::rtt::RttEstimator;
use crate::stats::SenderStats;
use simnet::{AckBlocks, Ctx, FlowId, NodeId, SimTime};
use telemetry::{Event, EventClass, EventKind, FlowState, SinkRef, WindowTrigger};

/// Streams per-flow congestion-window transitions to a telemetry sink.
///
/// Every window *transition* — which trigger moved the window (ACK, ECE,
/// fast retransmit, RTO, burst start), the resulting cwnd/ssthresh/in-flight,
/// and the sender's recovery state — becomes a
/// [`telemetry::EventKind::FlowWindow`] event.
#[derive(Debug, Clone)]
pub struct FlowProbe {
    sink: SinkRef,
    node: u32,
}

impl FlowProbe {
    /// A probe reporting transitions of flows on `node` to `sink`.
    pub fn new(sink: SinkRef, node: NodeId) -> Self {
        FlowProbe { sink, node: node.0 }
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn emit_window(
        &self,
        now: SimTime,
        flow: FlowId,
        cwnd: u64,
        ssthresh: u64,
        inflight: u64,
        state: FlowState,
        trigger: WindowTrigger,
    ) {
        self.sink.emit(&Event {
            t_ps: now.as_ps(),
            kind: EventKind::FlowWindow {
                node: self.node,
                flow: flow.0,
                cwnd,
                ssthresh,
                inflight,
                state,
                trigger,
            },
        });
    }
}

/// Upper bound on any control-plane pause, regardless of what a
/// notification frame asks for. Every pause self-expires by this much at
/// the latest (a guard timer is armed at the deadline), so a lost or
/// blackholed "resume" can delay a flow but never deadlock it.
pub const MAX_PAUSE: SimTime = SimTime::from_ms(5);

/// Minimum spacing between applied cwnd-cut notifications when no RTT
/// sample exists yet (matches the default switch detection window, so an
/// unestablished flow cannot be cut faster than the plane re-detects).
pub const CUT_HOLDOFF_FLOOR: SimTime = SimTime::from_us(100);

/// Control-plane cuts never shrink cwnd below this many segments: the
/// dup-ACK threshold (3) plus one, the smallest window from which fast
/// retransmit can still repair a single loss without waiting out min-RTO.
pub const CUT_FLOOR_SEGS: u64 = 4;

/// Result of processing an ACK, for the host/application layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckOutcome {
    /// Nothing application-visible changed.
    Progress,
    /// Every byte of demand handed down so far is now acknowledged.
    AllAcked,
}

/// Sender-side connection state.
pub struct Sender {
    flow: FlowId,
    /// The receiving host (data destination).
    peer: NodeId,
    mss: u64,
    min_cwnd: u64,
    cca: Box<dyn Cca>,
    rtt: RttEstimator,
    /// Application demand: absolute end of the byte stream to deliver.
    demand_end: u64,
    /// The loss-recovery engine (sequence space, retransmission, timers).
    recovery: Recovery,
    stats: SenderStats,
    probe: Option<FlowProbe>,
    /// RFC 2861 window validation: restart threshold and the parameters
    /// needed to rebuild the window (`(threshold, init_cwnd, cca_kind)`).
    idle_restart: Option<(SimTime, u64, crate::cca::CcaKind)>,
    /// Last time this connection sent or received anything.
    last_activity: SimTime,
    /// Control-plane pause deadline (`ZERO` = unpaused). Bounded by
    /// [`MAX_PAUSE`] past the applying notification's arrival.
    pause_until: SimTime,
    /// Earliest time the next cwnd-cut notification may take effect
    /// (one reduction per RTT, see [`Sender::apply_cut`]).
    cut_holdoff: SimTime,
}

impl Sender {
    /// Creates the sending half of `flow` toward `peer`.
    pub fn new(flow: FlowId, peer: NodeId, cfg: &TcpConfig) -> Self {
        // In pacing mode the window floor drops below 1 MSS; the CCA can
        // then signal "one packet every MSS/cwnd RTTs".
        let min_cwnd = match cfg.pacing {
            Some(p) => {
                assert!(
                    p.min_cwnd_fraction > 0.0 && p.min_cwnd_fraction <= 1.0,
                    "invalid pacing fraction"
                );
                ((cfg.mss_bytes() as f64 * p.min_cwnd_fraction) as u64).max(1)
            }
            None => cfg.min_cwnd_bytes(),
        };
        Sender {
            flow,
            peer,
            mss: cfg.mss_bytes(),
            min_cwnd,
            cca: cfg.cca.build(cfg.init_cwnd_bytes(), cfg.mss_bytes()),
            rtt: RttEstimator::new(cfg.initial_rto, cfg.min_rto, cfg.max_rto),
            demand_end: 0,
            recovery: Recovery::new(cfg, flow),
            stats: SenderStats::default(),
            probe: None,
            idle_restart: cfg
                .idle_restart_after
                .map(|t| (t, cfg.init_cwnd_bytes(), cfg.cca)),
            last_activity: SimTime::ZERO,
            pause_until: SimTime::ZERO,
            cut_holdoff: SimTime::ZERO,
        }
    }

    /// Splits the sender into its recovery engine and the context the
    /// engine acts through. Rebuilt per event so scalar copies (like
    /// `demand_end`) are current.
    fn split<'a, 'c>(&'a mut self, ctx: &'a mut Ctx<'c>) -> (&'a mut Recovery, TxCtx<'a, 'c>) {
        (
            &mut self.recovery,
            TxCtx {
                ctx,
                flow: self.flow,
                peer: self.peer,
                mss: self.mss,
                min_cwnd: self.min_cwnd,
                demand_end: self.demand_end,
                pause_until: self.pause_until,
                cca: &mut *self.cca,
                rtt: &mut self.rtt,
                stats: &mut self.stats,
                probe: &self.probe,
            },
        )
    }

    /// Which loss-recovery stack this connection runs.
    pub fn transport(&self) -> TransportKind {
        self.recovery.kind()
    }

    /// Bytes in flight (sent and not yet acknowledged).
    pub fn in_flight(&self) -> u64 {
        self.recovery.in_flight()
    }

    /// Current congestion window in bytes (floor applied).
    pub fn cwnd(&self) -> u64 {
        self.cca.cwnd().max(self.min_cwnd)
    }

    /// True when all demand so far has been sent and acknowledged.
    pub fn is_idle(&self) -> bool {
        self.recovery.acked_prefix() == self.demand_end
    }

    /// True while the sender is in loss recovery (diagnostic).
    pub fn in_recovery(&self) -> bool {
        self.recovery.in_recovery()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> &SenderStats {
        &self.stats
    }

    /// The congestion control algorithm (diagnostic).
    pub fn cca(&self) -> &dyn Cca {
        self.cca.as_ref()
    }

    /// Attaches a window-transition probe. A sink that does not subscribe
    /// to [`EventClass::Flow`] is dropped here, so unprobed senders pay
    /// nothing on the ACK path.
    pub fn set_probe(&mut self, probe: FlowProbe) {
        if probe.sink.accepts(EventClass::Flow) {
            self.probe = Some(probe);
        }
    }

    /// Emits a [`EventKind::FlowWindow`] transition if a probe is attached.
    fn probe_window(&self, now: SimTime, trigger: WindowTrigger) {
        let Some(p) = &self.probe else { return };
        p.emit_window(
            now,
            self.flow,
            self.cwnd(),
            self.cca.ssthresh(),
            self.recovery.in_flight(),
            self.recovery.state(),
            trigger,
        );
    }

    /// Smoothed RTT estimate, if any.
    pub fn srtt(&self) -> Option<SimTime> {
        self.rtt.srtt()
    }

    fn cca_ctx(&self, now: SimTime) -> CcaCtx {
        CcaCtx {
            now,
            mss: self.mss,
            min_cwnd: self.min_cwnd,
            snd_nxt: self.recovery.sent_end(),
            snd_una: self.recovery.acked_prefix(),
            in_recovery: self.recovery.in_recovery(),
        }
    }

    /// The application appends `bytes` of demand (one burst's response).
    pub fn add_demand(&mut self, ctx: &mut Ctx, bytes: u64) {
        assert!(bytes > 0, "zero demand");
        if self.is_idle() {
            // RFC 2861: a long-idle connection restarts from the initial
            // window rather than dumping a stale one.
            if let Some((threshold, init_cwnd, kind)) = self.idle_restart {
                if ctx.now().saturating_sub(self.last_activity) > threshold {
                    self.cca = kind.build(init_cwnd, self.mss);
                }
            }
            // A fresh burst is starting after idle: let mitigation CCAs
            // restore their remembered window, and pacing clocks re-seed.
            let cctx = self.cca_ctx(ctx.now());
            self.cca.on_burst_start(&cctx);
            {
                let (rec, mut tx) = self.split(ctx);
                rec.on_burst_start(&mut tx);
            }
            self.probe_window(ctx.now(), WindowTrigger::BurstStart);
        }
        self.demand_end += bytes;
        self.stats.demand_bytes += bytes;
        self.last_activity = ctx.now();
        let (rec, mut tx) = self.split(ctx);
        rec.fill(&mut tx);
    }

    /// The pacing timer fired: try to release the next paced packet.
    pub fn on_pace(&mut self, ctx: &mut Ctx) {
        let (rec, mut tx) = self.split(ctx);
        rec.on_pace_timer(&mut tx);
    }

    /// Handles an arriving cumulative (TCP) acknowledgment.
    pub fn on_ack(
        &mut self,
        ctx: &mut Ctx,
        ack_wire: u32,
        ece: bool,
        ts_echo: SimTime,
    ) -> AckOutcome {
        self.handle_ack(
            ctx,
            AckView::Tcp {
                ack_wire,
                ece,
                ts_echo,
            },
        )
    }

    /// Handles an arriving QUIC-style ACK frame.
    pub fn on_quic_ack(
        &mut self,
        ctx: &mut Ctx,
        blocks: AckBlocks,
        ece: bool,
        ts_echo: SimTime,
    ) -> AckOutcome {
        self.handle_ack(
            ctx,
            AckView::Quic {
                blocks,
                ece,
                ts_echo,
            },
        )
    }

    fn handle_ack(&mut self, ctx: &mut Ctx, ack: AckView) -> AckOutcome {
        self.stats.acks += 1;
        if ack.ece() {
            self.stats.ece_acks += 1;
        }
        self.last_activity = ctx.now();
        let before = self.recovery.acked_prefix();
        {
            let (rec, mut tx) = self.split(ctx);
            rec.on_ack(&mut tx, ack);
        }
        if self.recovery.acked_prefix() > before && self.is_idle() && self.demand_end > 0 {
            AckOutcome::AllAcked
        } else {
            AckOutcome::Progress
        }
    }

    /// The retransmission (TCP) or probe (QUIC) timer fired.
    pub fn on_rto(&mut self, ctx: &mut Ctx) {
        let (rec, mut tx) = self.split(ctx);
        rec.on_retx_timer(&mut tx);
    }

    /// A control-plane pause notification arrived: stop releasing *new*
    /// data until `now + pause` (clamped to [`MAX_PAUSE`]). A guard timer
    /// is armed at the deadline so the pause always self-expires — loss
    /// recovery keeps running underneath, and a shorter or duplicate pause
    /// never shortens one already in force.
    pub fn apply_pause(&mut self, ctx: &mut Ctx, pause: SimTime) {
        let until = ctx.now() + pause.min(MAX_PAUSE);
        if until > self.pause_until {
            self.pause_until = until;
            ctx.set_timer(keys::guard_key(self.flow), until);
        }
        #[cfg(feature = "check")]
        if self.pause_until > ctx.now() + MAX_PAUSE {
            simnet::check::violated(
                crate::spec::keys::PAUSE_GUARD,
                format_args!(
                    "flow {}: pause deadline {} ps exceeds now + MAX_PAUSE ({} ps)",
                    self.flow.0,
                    self.pause_until.as_ps(),
                    (ctx.now() + MAX_PAUSE).as_ps()
                ),
            );
        }
    }

    /// A control-plane cwnd-cut notification arrived: enter recovery-style
    /// window reduction via the CCA's own hook (idempotency across
    /// duplicate notifications is the caller's job, via epochs).
    ///
    /// The cut is advisory, and the transport defends itself two ways:
    ///
    /// - **One reduction per RTT**, and none while loss recovery is
    ///   already reducing the window (RFC 5681's one-reduction-per-window
    ///   rule). The switch re-detects every cooldown for as long as the
    ///   incast persists; applying every epoch stacks multiplicative
    ///   decreases and pins cwnd at the floor.
    /// - **A recovery-viable floor** ([`CUT_FLOOR_SEGS`] segments):
    ///   control-plane cuts never shrink the window below what dup-ACK
    ///   fast retransmit needs to function. Burst-start overflow drops
    ///   and notifications arrive together; a cut below this floor
    ///   starves recovery of inflight and converts RTT-scale repair into
    ///   min-RTO stalls (the fuzzer found bursts regressing ~700x that
    ///   way). Loss-driven reductions keep their own, lower floor.
    pub fn apply_cut(&mut self, ctx: &mut Ctx) {
        if self.recovery.in_recovery() || ctx.now() < self.cut_holdoff {
            return;
        }
        let holdoff = self
            .srtt()
            .unwrap_or(CUT_HOLDOFF_FLOOR)
            .max(CUT_HOLDOFF_FLOOR);
        self.cut_holdoff = ctx.now() + holdoff;
        let mut cctx = self.cca_ctx(ctx.now());
        cctx.min_cwnd = cctx.min_cwnd.max(CUT_FLOOR_SEGS * self.mss);
        self.cca.on_enter_recovery(&cctx);
        self.probe_window(ctx.now(), WindowTrigger::Ece);
    }

    /// The pause-guard timer fired: if the deadline it was armed for still
    /// stands, clear the pause and resume transmission. A guard superseded
    /// by a later, longer pause is a no-op (the newer timer will fire).
    pub fn on_guard(&mut self, ctx: &mut Ctx) {
        if ctx.now() < self.pause_until {
            return;
        }
        self.pause_until = SimTime::ZERO;
        let (rec, mut tx) = self.split(ctx);
        rec.fill(&mut tx);
    }

    /// True while a control-plane pause is in force (diagnostic).
    pub fn is_paused(&self, now: SimTime) -> bool {
        now < self.pause_until
    }
}

impl std::fmt::Debug for Sender {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sender")
            .field("flow", &self.flow)
            .field("acked_prefix", &self.recovery.acked_prefix())
            .field("sent_end", &self.recovery.sent_end())
            .field("demand_end", &self.demand_end)
            .field("cwnd", &self.cwnd())
            .field("in_recovery", &self.recovery.in_recovery())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seq;
    use simnet::{Cmd, PacketKind};

    const MSS: u64 = 1446;

    struct Harness {
        tx: Sender,
        cmds: Vec<Cmd>,
        now: SimTime,
    }

    impl Harness {
        fn new(cfg: &TcpConfig) -> Self {
            Harness {
                tx: Sender::new(FlowId(1), NodeId(9), cfg),
                cmds: Vec::new(),
                now: SimTime::ZERO,
            }
        }

        fn default() -> Self {
            Self::new(&TcpConfig::default())
        }

        fn quic() -> Self {
            Self::new(&TcpConfig {
                transport: TransportKind::Quic,
                ..TcpConfig::default()
            })
        }

        fn demand(&mut self, bytes: u64) {
            let mut ctx = Ctx::new(self.now, NodeId(0), &mut self.cmds);
            self.tx.add_demand(&mut ctx, bytes);
        }

        fn ack(&mut self, abs: u64, ece: bool) -> AckOutcome {
            let mut ctx = Ctx::new(self.now, NodeId(0), &mut self.cmds);
            self.tx.on_ack(&mut ctx, seq::wrap(abs), ece, SimTime::ZERO)
        }

        /// Acknowledges QUIC packet-number ranges (absolute, inclusive,
        /// descending).
        fn quic_ack(&mut self, ranges: &[(u64, u64)], ece: bool) -> AckOutcome {
            let wire: Vec<(u32, u32)> = ranges
                .iter()
                .map(|&(lo, hi)| (seq::wrap(lo), seq::wrap(hi)))
                .collect();
            let blocks = AckBlocks::new(&wire);
            let mut ctx = Ctx::new(self.now, NodeId(0), &mut self.cmds);
            self.tx.on_quic_ack(&mut ctx, blocks, ece, SimTime::ZERO)
        }

        fn rto(&mut self) {
            let mut ctx = Ctx::new(self.now, NodeId(0), &mut self.cmds);
            self.tx.on_rto(&mut ctx);
        }

        /// Drains emitted data segments as (seq, len, retx).
        fn sent(&mut self) -> Vec<(u32, u32, bool)> {
            let out = self
                .cmds
                .iter()
                .filter_map(|c| match c {
                    Cmd::Send(p) => match p.kind {
                        PacketKind::Data {
                            seq, payload, retx, ..
                        } => Some((seq, payload, retx)),
                        _ => None,
                    },
                    _ => None,
                })
                .collect();
            self.cmds.clear();
            out
        }

        /// Drains emitted QUIC packets as (pn, offset, len, retx).
        fn quic_sent(&mut self) -> Vec<(u32, u32, u32, bool)> {
            let out = self
                .cmds
                .iter()
                .filter_map(|c| match c {
                    Cmd::Send(p) => match p.kind {
                        PacketKind::QuicData {
                            pn,
                            offset,
                            payload,
                            retx,
                            ..
                        } => Some((pn, offset, payload, retx)),
                        _ => None,
                    },
                    _ => None,
                })
                .collect();
            self.cmds.clear();
            out
        }
    }

    /// Every flow holds one `Sender`, so a field that grows it grows every
    /// run's heap. 320 B holds TCP's recovery engine in place; QUIC's is
    /// boxed behind the same enum.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn sender_does_not_grow() {
        assert!(std::mem::size_of::<Sender>() <= 320);
        assert!(std::mem::size_of::<Recovery>() <= 56);
    }

    #[test]
    fn initial_window_limits_first_burst() {
        let mut h = Harness::default();
        h.demand(100 * MSS);
        let sent = h.sent();
        assert_eq!(sent.len(), 10, "init cwnd of 10 segments");
        assert_eq!(sent[0], (0, MSS as u32, false));
        assert_eq!(sent[9].0, (9 * MSS) as u32);
        assert_eq!(h.tx.in_flight(), 10 * MSS);
    }

    #[test]
    fn acks_release_more_data_and_grow_window() {
        let mut h = Harness::default();
        h.demand(100 * MSS);
        h.sent();
        h.ack(2 * MSS, false);
        let sent = h.sent();
        // Slow start: 2 MSS acked -> cwnd 12 MSS, una=2, nxt was 10: can send 4.
        assert_eq!(sent.len(), 4);
        assert_eq!(h.tx.in_flight(), 12 * MSS);
    }

    #[test]
    fn demand_smaller_than_window_sends_everything() {
        let mut h = Harness::default();
        h.demand(3 * MSS + 100);
        let sent = h.sent();
        assert_eq!(sent.len(), 4);
        assert_eq!(sent[3].1, 100, "short tail segment");
        assert_eq!(h.ack(3 * MSS + 100, false), AckOutcome::AllAcked);
        assert!(h.tx.is_idle());
    }

    #[test]
    fn triple_dupack_triggers_single_fast_retransmit() {
        let mut h = Harness::default();
        h.demand(20 * MSS);
        h.sent();
        h.ack(MSS, false); // advance a bit
        h.sent();
        for _ in 0..2 {
            assert_eq!(h.ack(MSS, false), AckOutcome::Progress);
            assert!(h.sent().is_empty(), "below dupthresh: no retransmit");
        }
        h.ack(MSS, false); // third duplicate
        let sent = h.sent();
        assert_eq!(sent.len(), 1);
        assert_eq!(sent[0], (MSS as u32, MSS as u32, true));
        assert_eq!(h.tx.stats().fast_retransmits, 1);
        // Further dupacks inflate and may release new data, never retransmit.
        for _ in 0..5 {
            h.ack(MSS, false);
            for (_, _, retx) in h.sent() {
                assert!(!retx);
            }
        }
    }

    #[test]
    fn partial_ack_retransmits_next_hole() {
        let mut h = Harness::default();
        h.demand(20 * MSS);
        h.sent();
        for _ in 0..3 {
            h.ack(0, false);
        }
        let first_retx = h.sent();
        assert_eq!(first_retx[0].0, 0);
        // Partial ack: hole at 2 MSS (recovery point is 10 MSS).
        h.ack(2 * MSS, false);
        let sent = h.sent();
        assert!(
            sent.iter()
                .any(|&(s, _, retx)| retx && s == (2 * MSS) as u32),
            "partial ack must retransmit the next hole: {sent:?}"
        );
        // Full ack at the recovery point exits recovery.
        h.ack(10 * MSS, false);
        assert!(!h.tx.in_recovery());
    }

    #[test]
    fn rto_collapses_window_and_retransmits_head() {
        let mut h = Harness::default();
        h.demand(20 * MSS);
        h.sent();
        h.rto();
        let sent = h.sent();
        assert_eq!(sent, vec![(0, MSS as u32, true)]);
        assert_eq!(h.tx.cwnd(), MSS, "window collapsed to floor");
        assert_eq!(h.tx.stats().timeouts, 1);
    }

    #[test]
    fn stale_rto_with_nothing_in_flight_is_noop() {
        let mut h = Harness::default();
        h.demand(MSS);
        h.sent();
        h.ack(MSS, false);
        h.rto();
        assert!(h.sent().is_empty());
        assert_eq!(h.tx.stats().timeouts, 0);
    }

    #[test]
    fn window_floor_of_one_mss_always_sends() {
        let cfg = TcpConfig::default();
        let mut h = Harness::new(&cfg);
        h.demand(10 * MSS);
        h.sent();
        // Crush the window with fully-marked acks; floor must keep 1 MSS.
        for i in 1..=9u64 {
            h.ack(i * MSS, true);
            h.sent();
        }
        assert!(h.tx.cwnd() >= MSS);
        assert_eq!(h.ack(10 * MSS, true), AckOutcome::AllAcked);
    }

    #[test]
    fn persistent_connection_reuses_cwnd_across_bursts() {
        let mut h = Harness::default();
        h.demand(10 * MSS);
        h.sent();
        h.ack(10 * MSS, false);
        let cwnd_after_burst1 = h.tx.cwnd();
        assert!(cwnd_after_burst1 > 10 * MSS, "slow start grew the window");
        // Second burst starts with the grown window (the paper's §4.3 issue).
        h.demand(30 * MSS);
        let sent = h.sent();
        assert_eq!(sent.len() as u64, cwnd_after_burst1 / MSS);
    }

    #[test]
    fn ece_acks_are_counted_and_reduce() {
        let mut h = Harness::default();
        h.demand(50 * MSS);
        h.sent();
        let before = h.tx.cwnd();
        h.ack(5 * MSS, true);
        assert_eq!(h.tx.stats().ece_acks, 1);
        // alpha starts at 0 so the first window's cut is 0; but CWR stops
        // growth, so cwnd must not exceed its pre-ack value plus the ack.
        assert!(h.tx.cwnd() <= before + 5 * MSS);
    }

    #[test]
    fn retransmit_never_exceeds_sent_data() {
        let mut h = Harness::default();
        h.demand(MSS / 2); // single small segment
        let sent = h.sent();
        assert_eq!(sent[0].1 as u64, MSS / 2);
        h.rto();
        let sent = h.sent();
        assert_eq!(sent[0].1 as u64, MSS / 2, "resend only what was sent");
    }

    #[test]
    fn ack_beyond_snd_nxt_ignored() {
        let mut h = Harness::default();
        h.demand(5 * MSS);
        h.sent();
        // Corrupt ack way beyond anything sent: ignored.
        h.ack(500 * MSS, false);
        assert_eq!(h.tx.in_flight(), 5 * MSS);
    }

    #[test]
    fn probe_streams_window_transitions() {
        let (jsonl, sref) = telemetry::JsonlSink::new().shared();
        let mut h = Harness::default();
        h.tx.set_probe(FlowProbe::new(sref, NodeId(0)));
        h.demand(20 * MSS); // burst_start
        h.sent();
        h.ack(MSS, false); // ack
        h.sent();
        for _ in 0..3 {
            h.ack(MSS, false); // third dup -> fast_retx
        }
        h.sent();
        h.rto(); // rto -> backoff
        let out = jsonl.borrow().render();
        assert!(out.contains(r#""trigger":"burst_start""#), "{out}");
        assert!(out.contains(r#""trigger":"ack""#));
        assert!(out.contains(r#""trigger":"fast_retx""#));
        assert!(out.contains(r#""trigger":"rto""#));
        assert!(out.contains(r#""state":"recovery""#));
        assert!(out.contains(r#""state":"backoff""#));
        for line in out.lines() {
            assert!(line.contains(r#""ev":"flow_window""#), "{line}");
            assert!(line.contains(r#""flow":1"#), "{line}");
        }
    }

    #[test]
    fn probe_on_unsubscribed_sink_is_dropped() {
        let (_jsonl, sref) = telemetry::JsonlSink::new()
            .with_classes(&[EventClass::Packet])
            .shared();
        let mut h = Harness::default();
        h.tx.set_probe(FlowProbe::new(sref, NodeId(0)));
        assert!(h.tx.probe.is_none(), "non-Flow sink must not attach");
    }

    // ---- QUIC engine ----

    #[test]
    fn quic_first_burst_uses_fresh_packet_numbers() {
        let mut h = Harness::quic();
        assert_eq!(h.tx.transport(), TransportKind::Quic);
        h.demand(100 * MSS);
        let sent = h.quic_sent();
        assert_eq!(sent.len(), 10, "init cwnd of 10 segments");
        for (i, &(pn, off, len, retx)) in sent.iter().enumerate() {
            assert_eq!(pn as u64, i as u64, "monotonic packet numbers");
            assert_eq!(off as u64, i as u64 * MSS);
            assert_eq!(len as u64, MSS);
            assert!(!retx);
        }
        assert_eq!(h.tx.in_flight(), 10 * MSS);
    }

    #[test]
    fn quic_ack_ranges_release_more_data() {
        let mut h = Harness::quic();
        h.demand(100 * MSS);
        h.quic_sent();
        assert_eq!(h.quic_ack(&[(0, 1)], false), AckOutcome::Progress);
        let sent = h.quic_sent();
        // 2 MSS acked: slow start grows cwnd to 12, 8 in flight -> send 4.
        assert_eq!(sent.len(), 4);
        assert_eq!(sent[0].0, 10, "packet numbers continue");
        assert_eq!(h.tx.in_flight(), 12 * MSS);
    }

    #[test]
    fn quic_packet_threshold_declares_loss_and_retransmits() {
        let mut h = Harness::quic();
        h.demand(10 * MSS);
        h.quic_sent();
        // Packet 0 lost; 1..=4 acked. pn 0 + 3 <= 4 -> lost.
        h.quic_ack(&[(1, 4)], false);
        let sent = h.quic_sent();
        let retx: Vec<_> = sent.iter().filter(|s| s.3).collect();
        assert_eq!(retx.len(), 1, "head retransmitted once: {sent:?}");
        assert_eq!(retx[0].1, 0, "offset 0 resent");
        assert!(retx[0].0 >= 10, "retransmission rides a fresh pn");
        assert!(h.tx.in_recovery());
        assert_eq!(h.tx.stats().fast_retransmits, 1);
        // Acking everything (incl. the retransmission's pn) completes.
        let last_pn = retx[0].0 as u64;
        for s in &sent {
            assert!(s.0 as u64 <= last_pn);
        }
        assert_eq!(h.quic_ack(&[(0, last_pn)], false), AckOutcome::AllAcked);
        assert!(!h.tx.in_recovery(), "post-entry pn acked ends recovery");
        assert_eq!(h.tx.stats().bytes_acked, 10 * MSS);
    }

    #[test]
    fn quic_reorder_below_threshold_is_not_loss() {
        let mut h = Harness::quic();
        h.demand(10 * MSS);
        h.quic_sent();
        // Packets 1..=2 acked, 0 outstanding: 0 + 3 > 2, not yet lost.
        h.quic_ack(&[(1, 2)], false);
        let sent = h.quic_sent();
        assert!(sent.iter().all(|s| !s.3), "no retransmission: {sent:?}");
        assert!(!h.tx.in_recovery());
        // The straggler arrives: everything acked, nothing resent.
        h.quic_ack(&[(0, 2)], false);
        assert!(h.quic_sent().iter().all(|s| !s.3));
        assert_eq!(h.tx.stats().bytes_retx, 0);
    }

    #[test]
    fn quic_pto_sends_probe_and_doubles() {
        let mut h = Harness::quic();
        h.demand(5 * MSS);
        h.quic_sent();
        h.rto(); // PTO expiry
        let sent = h.quic_sent();
        assert_eq!(sent.len(), 1, "exactly one probe: {sent:?}");
        assert_eq!(sent[0].1, 0, "probe carries the oldest bytes");
        assert!(sent[0].3);
        assert_eq!(h.tx.stats().timeouts, 1);
        // Second expiry: persistent congestion collapses the window.
        h.rto();
        assert_eq!(h.tx.cwnd(), MSS, "window collapsed to floor");
        assert_eq!(h.quic_sent().len(), 1);
    }

    #[test]
    fn quic_completes_demand_and_reports_all_acked() {
        let mut h = Harness::quic();
        h.demand(3 * MSS + 100);
        let sent = h.quic_sent();
        assert_eq!(sent.len(), 4);
        assert_eq!(sent[3].2, 100, "short tail segment");
        assert_eq!(h.quic_ack(&[(0, 3)], false), AckOutcome::AllAcked);
        assert!(h.tx.is_idle());
        assert_eq!(h.tx.stats().bytes_acked, 3 * MSS + 100);
    }

    // ---- control-plane pause / cut / guard ----

    #[test]
    fn pause_gates_new_data_until_guard_expiry() {
        let mut h = Harness::default();
        h.demand(40 * MSS);
        h.sent();
        // Pause arrives; acks open the window but release nothing new.
        {
            let mut ctx = Ctx::new(h.now, NodeId(0), &mut h.cmds);
            h.tx.apply_pause(&mut ctx, SimTime::from_us(100));
        }
        let armed: Vec<_> = h
            .cmds
            .drain(..)
            .filter(|c| matches!(c, Cmd::SetTimer { .. }))
            .collect();
        assert_eq!(armed.len(), 1, "guard timer armed");
        h.ack(2 * MSS, false);
        assert!(h.sent().is_empty(), "paused: no new data on ack");
        // Guard fires at the deadline: transmission resumes.
        h.now = SimTime::from_us(100);
        {
            let mut ctx = Ctx::new(h.now, NodeId(0), &mut h.cmds);
            h.tx.on_guard(&mut ctx);
        }
        assert!(!h.sent().is_empty(), "guard expiry releases data");
        assert!(!h.tx.is_paused(h.now));
    }

    #[test]
    fn pause_is_clamped_to_max_pause() {
        let mut h = Harness::default();
        let mut ctx = Ctx::new(h.now, NodeId(0), &mut h.cmds);
        h.tx.apply_pause(&mut ctx, SimTime::from_secs(3600));
        assert!(h.tx.is_paused(MAX_PAUSE - SimTime(1)));
        assert!(!h.tx.is_paused(MAX_PAUSE), "deadline bounded by MAX_PAUSE");
    }

    #[test]
    fn shorter_duplicate_pause_never_shortens() {
        let mut h = Harness::default();
        {
            let mut ctx = Ctx::new(h.now, NodeId(0), &mut h.cmds);
            h.tx.apply_pause(&mut ctx, SimTime::from_us(200));
            h.tx.apply_pause(&mut ctx, SimTime::from_us(50));
        }
        assert!(h.tx.is_paused(SimTime::from_us(199)));
        // A stale guard (armed for the superseded shorter pause) is a no-op.
        h.now = SimTime::from_us(50);
        {
            let mut ctx = Ctx::new(h.now, NodeId(0), &mut h.cmds);
            h.tx.on_guard(&mut ctx);
        }
        assert!(h.tx.is_paused(SimTime::from_us(199)), "guard was stale");
    }

    #[test]
    fn pause_does_not_block_rto_retransmit() {
        let mut h = Harness::default();
        h.demand(5 * MSS);
        h.sent();
        {
            let mut ctx = Ctx::new(h.now, NodeId(0), &mut h.cmds);
            h.tx.apply_pause(&mut ctx, SimTime::from_ms(1));
        }
        h.cmds.clear();
        h.rto();
        let sent = h.sent();
        assert_eq!(sent, vec![(0, MSS as u32, true)], "recovery runs paused");
    }

    #[test]
    fn cut_shrinks_window_like_recovery_entry() {
        let mut h = Harness::default();
        h.demand(20 * MSS);
        h.sent();
        let before = h.tx.cwnd();
        let mut ctx = Ctx::new(h.now, NodeId(0), &mut h.cmds);
        h.tx.apply_cut(&mut ctx);
        assert!(h.tx.cwnd() < before, "cut must reduce the window");
    }

    /// One window reduction per RTT: a burst of cut notifications (the
    /// switch re-detects every window while congestion persists) must not
    /// stack multiplicative decreases — that pins cwnd at the floor and
    /// turns RTT-scale loss repair into min-RTO stalls.
    #[test]
    fn cuts_are_rate_limited_to_one_per_rtt() {
        let mut h = Harness::default();
        h.demand(20 * MSS);
        h.sent();
        let before = h.tx.cwnd();
        {
            let mut ctx = Ctx::new(h.now, NodeId(0), &mut h.cmds);
            h.tx.apply_cut(&mut ctx);
            let after_first = h.tx.cwnd();
            assert!(after_first < before);
            // A second cut inside the holdoff is a no-op.
            h.tx.apply_cut(&mut ctx);
            assert_eq!(h.tx.cwnd(), after_first, "back-to-back cuts stacked");
        }
        // Past the holdoff (no RTT sample yet ⇒ the floor) it bites again.
        let after_first = h.tx.cwnd();
        h.now += CUT_HOLDOFF_FLOOR;
        {
            let mut ctx = Ctx::new(h.now, NodeId(0), &mut h.cmds);
            h.tx.apply_cut(&mut ctx);
        }
        assert!(
            h.tx.cwnd() < after_first,
            "cut must apply after the holdoff"
        );
    }

    #[test]
    fn quic_stale_pto_with_nothing_outstanding_is_noop() {
        let mut h = Harness::quic();
        h.demand(MSS);
        h.quic_sent();
        h.quic_ack(&[(0, 0)], false);
        h.rto();
        assert!(h.quic_sent().is_empty());
        assert_eq!(h.tx.stats().timeouts, 0);
    }
}
