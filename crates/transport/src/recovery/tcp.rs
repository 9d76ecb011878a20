//! NewReno-style TCP loss recovery.
//!
//! The original stack, one arm of [`super::Recovery`]:
//!
//! - transmit while `in_flight < cwnd` (plus transient fast-recovery
//!   inflation per RFC 5681),
//! - triple duplicate ACK → fast retransmit and recovery; partial ACKs
//!   retransmit the next hole (NewReno, RFC 6582),
//! - retransmission timeout per RFC 6298 with exponential backoff → window
//!   collapse to the floor and slow-start restart.
//!
//! The 200 ms-style RTO floor (via [`crate::rtt::RttEstimator`]) is what
//! produces the paper's Mode 3 burst completion times; the QUIC engine in
//! [`super::quic`] exists to test exactly that attribution.

use super::{AckView, TxCtx};
use crate::config::TcpConfig;
use crate::keys;
use crate::seq;
#[cfg(feature = "check")]
use crate::spec;
use simnet::{FlowId, SimTime};
use telemetry::{FlowState, WindowTrigger};

/// NewReno sequence-space and recovery state.
#[derive(Debug)]
pub struct TcpRecovery {
    /// Oldest unacknowledged byte.
    snd_una: u64,
    /// Next byte to transmit.
    snd_nxt: u64,
    dup_acks: u32,
    in_recovery: bool,
    /// `snd_nxt` at recovery entry; recovery ends when `snd_una` passes it.
    recover: u64,
    /// Fast-recovery window inflation in bytes (RFC 5681 §3.2 style).
    recovery_extra: u64,
    rto_armed: bool,
    /// True between an RTO and the next cumulative ACK (exponential
    /// backoff territory — the paper's Mode 3 stragglers live here).
    backing_off: bool,
    /// Swift-style pacing: enabled when the config allows sub-MSS windows.
    pacing: bool,
    /// Earliest time the next paced packet may leave.
    next_pace_at: SimTime,
    /// Flow-specific phase used to re-seed a stale pacing clock: without
    /// it, every flow of a synchronized burst would fire its "paced" first
    /// packet at the same instant, defeating the point of pacing.
    pace_phase: u64,
}

impl TcpRecovery {
    /// Fresh NewReno state for `flow`.
    pub fn new(cfg: &TcpConfig, flow: FlowId) -> Self {
        TcpRecovery {
            snd_una: 0,
            snd_nxt: 0,
            dup_acks: 0,
            in_recovery: false,
            recover: 0,
            recovery_extra: 0,
            rto_armed: false,
            backing_off: false,
            pacing: cfg.pacing.is_some(),
            next_pace_at: SimTime::ZERO,
            pace_phase: (flow.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
        }
    }

    pub fn state(&self) -> FlowState {
        if self.backing_off {
            FlowState::Backoff
        } else if self.in_recovery {
            FlowState::Recovery
        } else {
            FlowState::Open
        }
    }

    fn probe_window(&self, tx: &TxCtx, trigger: WindowTrigger) {
        tx.probe_window(trigger, self.state(), self.snd_nxt - self.snd_una);
    }

    /// Pacing-mode transmission: emit one segment if the pacing clock
    /// allows, else arm the pacing timer (Swift's "one packet every
    /// several RTTs", paper §5.2).
    fn pace_one(&mut self, tx: &mut TxCtx, wnd: u64, len: u32) {
        // Inter-packet gap: RTT x MSS / cwnd (so average rate stays cwnd
        // per RTT even below one packet per RTT).
        let rtt = tx.rtt.srtt().unwrap_or(SimTime::from_ms(1));
        let gap = rtt.mul_f64(tx.mss as f64 / wnd.max(1) as f64);
        let now = tx.ctx.now();
        if now >= self.next_pace_at {
            tx.emit_data(self.snd_nxt, len, false);
            self.snd_nxt += len as u64;
            self.next_pace_at = now + gap;
            if !self.rto_armed {
                self.arm_rto(tx);
            }
        } else {
            let at = self.next_pace_at;
            tx.ctx.set_timer(keys::pace_key(tx.flow), at);
        }
    }

    fn retransmit_head(&mut self, tx: &mut TxCtx) {
        debug_assert!(self.snd_una < tx.demand_end, "retransmit with no data");
        let len = tx.mss.min(tx.demand_end - self.snd_una) as u32;
        // Never resend beyond what was originally transmitted.
        let len = len.min((self.snd_nxt - self.snd_una) as u32);
        if len == 0 {
            return;
        }
        tx.emit_data(self.snd_una, len, true);
        self.arm_rto(tx);
    }

    fn arm_rto(&mut self, tx: &mut TxCtx) {
        let rto = tx.rtt.rto();
        #[cfg(feature = "check")]
        if rto < tx.rtt.min_rto() || rto > tx.rtt.max_rto() {
            simnet::check::violated(
                spec::keys::RTO_CLAMPED,
                format_args!(
                    "flow {}: RTO {} ps outside [{}, {}]",
                    tx.flow.0,
                    rto.as_ps(),
                    tx.rtt.min_rto().as_ps(),
                    tx.rtt.max_rto().as_ps()
                ),
            );
        }
        tx.ctx.set_timer_after(keys::rto_key(tx.flow), rto);
        self.rto_armed = true;
    }

    fn cancel_rto(&mut self, tx: &mut TxCtx) {
        tx.ctx.cancel_timer(keys::rto_key(tx.flow));
        self.rto_armed = false;
    }

    /// Structural invariants of the sequence-space state machine, part of
    /// the `check` feature's TCP conformance oracle. Violations are
    /// recorded, not panicked, so the `simcheck` fuzzer can shrink them.
    #[cfg(feature = "check")]
    #[inline]
    fn oracle_state(&self, tx: &TxCtx) {
        if self.snd_una > self.snd_nxt || self.snd_nxt > tx.demand_end {
            simnet::check::violated(
                spec::keys::SEQ_SPACE,
                format_args!(
                    "flow {}: snd_una {} / snd_nxt {} / demand_end {} out of order",
                    tx.flow.0, self.snd_una, self.snd_nxt, tx.demand_end
                ),
            );
        }
        // `cwnd()` clamps to the floor by construction; this defends against
        // a refactor removing the clamp. Read once — it is a dyn call.
        let w = tx.cwnd();
        if w < tx.min_cwnd {
            simnet::check::violated(
                spec::keys::CWND_FLOOR,
                format_args!(
                    "flow {}: effective cwnd {} below floor {}",
                    tx.flow.0, w, tx.min_cwnd
                ),
            );
        }
    }
}

/// The engine interface [`super::Recovery`] dispatches to.
impl TcpRecovery {
    pub fn acked_prefix(&self) -> u64 {
        self.snd_una
    }

    pub fn sent_end(&self) -> u64 {
        self.snd_nxt
    }

    pub fn in_flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    pub fn in_recovery(&self) -> bool {
        self.in_recovery
    }

    pub fn on_burst_start(&mut self, tx: &mut TxCtx) {
        // Pacing mode: the pacer's clock free-runs at the floor rate;
        // a flow whose tick passed while idle waits for its next
        // phase-aligned tick before transmitting. This is what spreads
        // a synchronized burst start across the pool.
        if self.pacing && tx.ctx.now() > self.next_pace_at {
            let rtt = tx.rtt.srtt().unwrap_or(SimTime::from_ms(1));
            let floor_gap = rtt.mul_f64(tx.mss as f64 / tx.min_cwnd.max(1) as f64);
            let offset = SimTime::from_ps(self.pace_phase % floor_gap.as_ps().max(1));
            self.next_pace_at = tx.ctx.now() + offset;
        }
    }

    /// Transmits new segments while the window allows.
    pub fn fill(&mut self, tx: &mut TxCtx) {
        // Control-plane pause gate: no new data while paused. Recovery
        // retransmissions and the RTO machinery run underneath, and the
        // sender's guard timer re-fills at the (bounded) deadline.
        if tx.paused() {
            return;
        }
        // Pacing gate: nothing (new) leaves before the pacer's next tick.
        if self.pacing && tx.ctx.now() < self.next_pace_at && self.snd_nxt < tx.demand_end {
            let at = self.next_pace_at;
            tx.ctx.set_timer(keys::pace_key(tx.flow), at);
            return;
        }
        let wnd = tx.cwnd() + self.recovery_extra;
        while self.snd_nxt < tx.demand_end {
            // Whole segments only (the final segment of demand may be short);
            // a segment that does not fully fit in the window waits.
            let len = tx.mss.min(tx.demand_end - self.snd_nxt);
            if self.snd_nxt - self.snd_una + len > wnd {
                // Sub-MSS window: pacing mode sends one packet per
                // MSS/cwnd RTTs instead of stalling at the floor.
                if self.pacing && wnd < tx.mss && self.in_flight() == 0 {
                    self.pace_one(tx, wnd, len as u32);
                }
                break;
            }
            tx.emit_data(self.snd_nxt, len as u32, false);
            self.snd_nxt += len;
        }
        if self.in_flight() > 0 && !self.rto_armed {
            self.arm_rto(tx);
        }
        #[cfg(feature = "check")]
        self.oracle_state(tx);
    }

    pub fn on_ack(&mut self, tx: &mut TxCtx, ack: AckView) {
        let AckView::Tcp {
            ack_wire,
            ece,
            ts_echo,
        } = ack
        else {
            debug_assert!(false, "QUIC ack delivered to the TCP engine");
            return;
        };
        let ack = seq::unwrap(ack_wire, self.snd_una);
        #[cfg(feature = "check")]
        if ack > self.snd_nxt {
            simnet::check::violated(
                spec::keys::ACK_OF_UNSENT,
                format_args!(
                    "flow {}: ack {} beyond snd_nxt {}",
                    tx.flow.0, ack, self.snd_nxt
                ),
            );
        }

        if ack > self.snd_una && ack <= self.snd_nxt {
            let newly = ack - self.snd_una;
            self.snd_una = ack;
            tx.stats.bytes_acked += newly;
            self.dup_acks = 0;

            // RTT sample from the timestamp echo.
            let sample = if ts_echo > SimTime::ZERO && tx.ctx.now() > ts_echo {
                let s = tx.ctx.now() - ts_echo;
                tx.rtt.on_sample(s);
                Some(s)
            } else {
                None
            };

            let cctx = tx.cca_ctx(self.snd_una, self.snd_nxt, self.in_recovery);
            tx.cca.on_ack(&cctx, newly, ece, sample);

            if self.in_recovery {
                if self.snd_una >= self.recover {
                    // Full ACK: recovery complete.
                    self.in_recovery = false;
                    self.recovery_extra = 0;
                } else {
                    // Partial ACK: the next hole is lost too (NewReno).
                    self.recovery_extra = self.recovery_extra.saturating_sub(newly);
                    self.retransmit_head(tx);
                }
            }

            // Restart (or clear) the retransmission timer.
            if self.in_flight() > 0 {
                self.arm_rto(tx);
            } else {
                self.cancel_rto(tx);
            }

            self.backing_off = false;
            self.probe_window(
                tx,
                if ece {
                    WindowTrigger::Ece
                } else {
                    WindowTrigger::Ack
                },
            );
            self.fill(tx);
            return;
        }

        if ack == self.snd_una && self.in_flight() > 0 {
            // Duplicate ACK.
            self.dup_acks += 1;
            let cctx = tx.cca_ctx(self.snd_una, self.snd_nxt, self.in_recovery);
            // Zero-byte "ack": lets DCTCP latch CWR from ECE on dupacks.
            tx.cca.on_ack(&cctx, 0, ece, None);

            if !self.in_recovery && self.dup_acks == 3 {
                #[cfg(feature = "check")]
                if self.dup_acks != 3 {
                    simnet::check::violated(
                        spec::keys::FAST_RETX_THRESHOLD,
                        format_args!(
                            "flow {}: fast retransmit at {} dup acks",
                            tx.flow.0, self.dup_acks
                        ),
                    );
                }
                self.in_recovery = true;
                self.recover = self.snd_nxt;
                self.recovery_extra = 0;
                tx.stats.fast_retransmits += 1;
                let cctx = tx.cca_ctx(self.snd_una, self.snd_nxt, self.in_recovery);
                tx.cca.on_enter_recovery(&cctx);
                self.retransmit_head(tx);
                self.probe_window(tx, WindowTrigger::FastRetransmit);
            } else if self.in_recovery {
                // Each further dup ACK signals a departure: inflate.
                self.recovery_extra += tx.mss;
                self.fill(tx);
            }
        }
    }

    /// The retransmission timer fired.
    pub fn on_retx_timer(&mut self, tx: &mut TxCtx) {
        self.rto_armed = false;
        if self.in_flight() == 0 {
            return; // stale
        }
        tx.stats.timeouts += 1;
        #[cfg(feature = "check")]
        let rto_before = tx.rtt.rto();
        tx.rtt.on_timeout();
        #[cfg(feature = "check")]
        {
            let rto_after = tx.rtt.rto();
            // RFC 6298 backoff: each timeout at most doubles the timer and
            // never shortens it (equality happens at the max-RTO cap).
            if rto_after < rto_before || rto_after.as_ps() > rto_before.as_ps().saturating_mul(2) {
                simnet::check::violated(
                    spec::keys::RTO_BACKOFF,
                    format_args!(
                        "flow {}: RTO went {} -> {} ps on timeout",
                        tx.flow.0,
                        rto_before.as_ps(),
                        rto_after.as_ps()
                    ),
                );
            }
        }
        self.in_recovery = false;
        self.recovery_extra = 0;
        self.dup_acks = 0;
        let cctx = tx.cca_ctx(self.snd_una, self.snd_nxt, self.in_recovery);
        tx.cca.on_timeout(&cctx);
        self.backing_off = true;
        self.retransmit_head(tx);
        self.probe_window(tx, WindowTrigger::Rto);
        #[cfg(feature = "check")]
        self.oracle_state(tx);
    }
}
