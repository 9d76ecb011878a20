//! The two loss-recovery engines and the [`Recovery`] enum over them.
//!
//! The [`crate::sender::Sender`] owns everything both stacks share — the
//! congestion controller, the RTT estimator, counters, probes, demand — and
//! delegates the loss-recovery machinery (what is outstanding, what is
//! lost, what to (re)transmit, which timer to arm) to a `Recovery` engine:
//!
//! - [`tcp::TcpRecovery`] — the original NewReno machinery: cumulative
//!   ACKs, triple-duplicate-ACK fast retransmit, RFC 6298 RTO with the
//!   200 ms-style floor that produces the paper's Mode 3.
//! - [`quic::QuicRecovery`] — QUIC-style semantics per RFC 9002: monotonic
//!   packet numbers, ACK ranges, packet-threshold loss detection, a probe
//!   timeout (PTO) with exponential backoff and *no* 200 ms floor, and a
//!   PRR-style proportional window reduction during recovery.
//!
//! Both engines drive the same [`crate::cca`] congestion controllers
//! unchanged; the engine only decides *when* the controller's hooks fire.
//! RFC requirements each engine implements are quoted in `specs/` and keyed
//! to runtime invariants via [`crate::spec::keys`].

pub mod quic;
pub mod tcp;

use crate::cca::{Cca, CcaCtx};
use crate::config::{TcpConfig, TransportKind};
use crate::rtt::RttEstimator;
use crate::sender::FlowProbe;
use crate::seq;
use crate::stats::SenderStats;
use simnet::{AckBlocks, Ctx, FlowId, NodeId, Packet, SimTime};
use telemetry::{FlowState, WindowTrigger};

/// An acknowledgment as seen on the wire, before engine interpretation.
#[derive(Debug, Clone, Copy)]
pub enum AckView {
    /// A cumulative TCP ACK.
    Tcp {
        /// Wrapped cumulative acknowledgment number.
        ack_wire: u32,
        /// ECN-Echo.
        ece: bool,
        /// Echoed data timestamp (zero = no sample).
        ts_echo: SimTime,
    },
    /// A QUIC-style ACK frame.
    Quic {
        /// Acknowledged packet-number ranges, descending.
        blocks: AckBlocks,
        /// ECN-Echo.
        ece: bool,
        /// Echoed data timestamp (zero = no sample).
        ts_echo: SimTime,
    },
}

impl AckView {
    /// The ECN-Echo bit, common to both forms.
    pub fn ece(&self) -> bool {
        match *self {
            AckView::Tcp { ece, .. } | AckView::Quic { ece, .. } => ece,
        }
    }
}

/// The sender-owned machinery an engine borrows for one event.
///
/// Everything here is shared between stacks: the engine mutates the CCA and
/// RTT estimator through it, emits packets, arms timers, and reports window
/// transitions. Scalar fields are copies — [`TxCtx`] is rebuilt per event by
/// [`crate::sender::Sender`], after demand updates.
pub struct TxCtx<'a, 'c> {
    /// Simulator context (time, timers, packet egress).
    pub ctx: &'a mut Ctx<'c>,
    /// The connection's flow id.
    pub flow: FlowId,
    /// The receiving host.
    pub peer: NodeId,
    /// Maximum segment size in bytes.
    pub mss: u64,
    /// Congestion-window floor in bytes.
    pub min_cwnd: u64,
    /// Absolute end of the application's byte stream so far.
    pub demand_end: u64,
    /// Control-plane pause deadline: no *new* data leaves while
    /// `now < pause_until`. Always bounded (senders clamp to
    /// [`crate::sender::MAX_PAUSE`] and arm a guard timer), so a lost
    /// resume can delay a flow but never deadlock it; `ZERO` = unpaused.
    pub pause_until: SimTime,
    /// The congestion controller (shared by both stacks).
    pub cca: &'a mut dyn Cca,
    /// The RTT estimator (RTO and PTO base).
    pub rtt: &'a mut RttEstimator,
    /// Counter sink.
    pub stats: &'a mut SenderStats,
    /// Window-transition probe, if attached.
    pub probe: &'a Option<FlowProbe>,
}

impl TxCtx<'_, '_> {
    /// Effective congestion window in bytes (floor applied).
    pub fn cwnd(&self) -> u64 {
        self.cca.cwnd().max(self.min_cwnd)
    }

    /// True while a control-plane pause is in force. An expired deadline
    /// counts as unpaused, so transmission can never be gated forever.
    pub fn paused(&self) -> bool {
        self.ctx.now() < self.pause_until
    }

    /// Builds a [`CcaCtx`] around the engine's current sequence state.
    pub fn cca_ctx(&self, snd_una: u64, snd_nxt: u64, in_recovery: bool) -> CcaCtx {
        CcaCtx {
            now: self.ctx.now(),
            mss: self.mss,
            min_cwnd: self.min_cwnd,
            snd_nxt,
            snd_una,
            in_recovery,
        }
    }

    /// Emits a TCP data segment and updates the send counters.
    pub fn emit_data(&mut self, at: u64, len: u32, retx: bool) {
        let pkt = Packet::data(
            self.flow,
            self.ctx.node(),
            self.peer,
            seq::wrap(at),
            len,
            retx,
            self.ctx.now(),
        );
        self.ctx.send(pkt);
        self.count_sent(len, retx);
    }

    /// Emits a QUIC data packet and updates the send counters.
    pub fn emit_quic(&mut self, pn: u64, offset: u64, len: u32, retx: bool) {
        let pkt = Packet::quic_data(
            self.flow,
            self.ctx.node(),
            self.peer,
            seq::wrap(pn),
            seq::wrap(offset),
            len,
            retx,
            self.ctx.now(),
        );
        self.ctx.send(pkt);
        self.count_sent(len, retx);
    }

    fn count_sent(&mut self, len: u32, retx: bool) {
        self.stats.segs_sent += 1;
        self.stats.bytes_sent += len as u64;
        if retx {
            self.stats.bytes_retx += len as u64;
        }
    }

    /// Emits a window-transition event, if a probe is attached.
    pub fn probe_window(&self, trigger: WindowTrigger, state: FlowState, inflight: u64) {
        if let Some(p) = self.probe {
            p.emit_window(
                self.ctx.now(),
                self.flow,
                self.cwnd(),
                self.cca.ssthresh(),
                inflight,
                state,
                trigger,
            );
        }
    }
}

/// A loss-recovery engine: owns the sequence/packet-number space, decides
/// what to transmit, interprets acknowledgments, and reacts to its
/// retransmission-or-probe timer.
///
/// TCP's engine is held in place. QUIC's, about four times its size, stays
/// boxed so that it does not grow every TCP sender (DESIGN.md §16).
#[derive(Debug)]
pub enum Recovery {
    /// NewReno (`transport = tcp`).
    Tcp(tcp::TcpRecovery),
    /// RFC 9002 (`transport = quic`).
    Quic(Box<quic::QuicRecovery>),
}

/// Evaluates `$call` with `$e` bound to whichever engine `$rec` holds.
macro_rules! dispatch {
    ($rec:expr, $e:ident => $call:expr) => {
        match $rec {
            Recovery::Tcp($e) => $call,
            Recovery::Quic($e) => $call,
        }
    };
}

impl Recovery {
    /// Builds the engine selected by `cfg.transport`.
    pub fn new(cfg: &TcpConfig, flow: FlowId) -> Self {
        match cfg.transport {
            TransportKind::Tcp => Recovery::Tcp(tcp::TcpRecovery::new(cfg, flow)),
            TransportKind::Quic => Recovery::Quic(Box::new(quic::QuicRecovery::new(cfg))),
        }
    }

    /// Which stack this engine implements.
    pub fn kind(&self) -> TransportKind {
        match self {
            Recovery::Tcp(_) => TransportKind::Tcp,
            Recovery::Quic(_) => TransportKind::Quic,
        }
    }

    /// Bytes delivered contiguously from the start of the stream — the
    /// `SND.UNA` analogue. Drives idle/`AllAcked` detection.
    pub fn acked_prefix(&self) -> u64 {
        dispatch!(self, e => e.acked_prefix())
    }

    /// Highest stream byte handed to the wire at least once (`SND.NXT`).
    pub fn sent_end(&self) -> u64 {
        dispatch!(self, e => e.sent_end())
    }

    /// Bytes currently considered outstanding.
    pub fn in_flight(&self) -> u64 {
        dispatch!(self, e => e.in_flight())
    }

    /// True while in a loss-recovery episode.
    pub fn in_recovery(&self) -> bool {
        dispatch!(self, e => e.in_recovery())
    }

    /// Backoff between a timeout and the next acknowledgment, else
    /// recovery or open.
    pub fn state(&self) -> FlowState {
        dispatch!(self, e => e.state())
    }

    /// A fresh burst is starting after idle (TCP's pacing clock re-seeds).
    pub fn on_burst_start(&mut self, tx: &mut TxCtx) {
        if let Recovery::Tcp(e) = self {
            e.on_burst_start(tx);
        }
    }

    /// Transmits while the window (and any recovery rate limit) allows.
    pub fn fill(&mut self, tx: &mut TxCtx) {
        dispatch!(self, e => e.fill(tx))
    }

    /// Processes an acknowledgment.
    pub fn on_ack(&mut self, tx: &mut TxCtx, ack: AckView) {
        dispatch!(self, e => e.on_ack(tx, ack))
    }

    /// The retransmission (TCP RTO) or probe (QUIC PTO) timer fired.
    pub fn on_retx_timer(&mut self, tx: &mut TxCtx) {
        dispatch!(self, e => e.on_retx_timer(tx))
    }

    /// The pacing timer fired (sub-MSS window mode; TCP only): release
    /// the next paced packet.
    pub fn on_pace_timer(&mut self, tx: &mut TxCtx) {
        if let Recovery::Tcp(e) = self {
            e.fill(tx);
        }
    }
}
