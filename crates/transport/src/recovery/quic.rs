//! QUIC-style loss recovery (RFC 9002 semantics).
//!
//! Every transmission gets a fresh, monotonically increasing packet number
//! — retransmitted *stream bytes* ride in *new* packets (RFC 9000 §12.3),
//! which removes TCP's retransmission ambiguity. Receivers acknowledge
//! packet-number ranges; a packet is declared lost when one sent
//! `kPacketThreshold` (3) packets after it is acknowledged (RFC 9002 §6.1).
//! When loss detection has nothing to work with, a probe timeout (PTO)
//! fires after `smoothed_rtt + max(4·rttvar, kGranularity)` with
//! exponential backoff (§6.2) — crucially *without* TCP's 200 ms-style
//! minimum, which is the mechanism behind the paper's Mode 3. Window
//! reduction during recovery is PRR-style (§7.3.2 via RFC 6937).
//!
//! The congestion controllers in [`crate::cca`] are reused unchanged; this
//! engine only re-times their hooks. Each RFC requirement is quoted in
//! `specs/rfc9002/` and `specs/rfc9000/`, keyed to the `check`-feature
//! invariants below via [`crate::spec::keys`].

use super::{AckView, TxCtx};
use crate::config::TcpConfig;
use crate::keys;
use crate::ranges::AckRanges;
use crate::seq;
#[cfg(feature = "check")]
use crate::spec;
use simnet::packet::MAX_ACK_BLOCKS;
use simnet::SimTime;
use std::collections::VecDeque;
use telemetry::{FlowState, WindowTrigger};

/// RFC 9002 §6.1.1 kPacketThreshold: a packet is lost once one sent this
/// many packets later is acknowledged.
pub const PACKET_THRESHOLD: u64 = 3;

/// Cap on the PTO backoff shift (far above anything a simulation reaches;
/// the period is also clamped to `max_rto`).
const MAX_PTO_SHIFT: u32 = 20;

/// One outstanding packet: which stream bytes it carried.
#[derive(Debug, Clone, Copy)]
struct SentPacket {
    pn: u64,
    offset: u64,
    len: u32,
}

/// QUIC-style packet-number space and recovery state.
#[derive(Debug)]
pub struct QuicRecovery {
    /// Next packet number to assign (strictly increasing, never reused).
    next_pn: u64,
    /// Highest stream byte handed to the wire at least once.
    snd_nxt: u64,
    /// Outstanding packets, ascending packet number.
    sent: VecDeque<SentPacket>,
    /// Bytes in outstanding packets (retransmitted copies count).
    bytes_in_flight: u64,
    /// Acknowledged stream bytes; `prefix_end()` is the `SND.UNA` analogue.
    acked: AckRanges,
    /// Stream bytes of lost packets awaiting retransmission.
    retx_queue: AckRanges,
    /// Highest packet number acknowledged so far.
    largest_acked: Option<u64>,
    /// Consecutive PTO expiries since the last ack (backoff exponent).
    pto_count: u32,
    pto_armed: bool,
    in_recovery: bool,
    /// `next_pn` at recovery entry: an ack of any packet sent after this
    /// ends the recovery period (RFC 9002 §7.3.1).
    recovery_start_pn: u64,
    /// PRR state (RFC 6937): bytes newly acked during recovery...
    prr_delivered: u64,
    /// ...and bytes sent under PRR's allowance during recovery.
    prr_out: u64,
    /// `RecoverFS`: bytes considered in flight when recovery began.
    recoverfs: u64,
    /// True between a PTO expiry and the next acknowledgment.
    backing_off: bool,
    /// Timer granularity (RFC 9002 kGranularity).
    granularity: SimTime,
}

impl QuicRecovery {
    /// Fresh QUIC-style state.
    pub fn new(cfg: &TcpConfig) -> Self {
        QuicRecovery {
            next_pn: 0,
            snd_nxt: 0,
            sent: VecDeque::new(),
            bytes_in_flight: 0,
            acked: AckRanges::new(),
            retx_queue: AckRanges::new(),
            largest_acked: None,
            pto_count: 0,
            pto_armed: false,
            in_recovery: false,
            recovery_start_pn: 0,
            prr_delivered: 0,
            prr_out: 0,
            recoverfs: 0,
            backing_off: false,
            granularity: cfg.pto_granularity,
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

    /// Sends one packet carrying `[offset, offset + len)` under a fresh
    /// packet number and records it as outstanding.
    fn emit(&mut self, tx: &mut TxCtx, offset: u64, len: u32, retx: bool) {
        let pn = self.next_pn;
        #[cfg(feature = "check")]
        if self.sent.back().is_some_and(|p| p.pn >= pn) {
            simnet::check::violated(
                spec::keys::PN_MONOTONIC,
                format_args!("flow {}: packet number {} not above prior", tx.flow.0, pn),
            );
        }
        self.next_pn += 1;
        tx.emit_quic(pn, offset, len, retx);
        self.sent.push_back(SentPacket { pn, offset, len });
        self.bytes_in_flight += len as u64;
    }

    /// The current PTO period: `pto_base << pto_count`, clamped to the
    /// RTO ceiling (RFC 9002 §6.2.1 — note there is *no* min-RTO floor).
    fn current_pto(&self, tx: &TxCtx) -> SimTime {
        let base = tx.rtt.pto_base(self.granularity);
        let scaled = base
            .as_ps()
            .saturating_mul(1u64 << self.pto_count.min(MAX_PTO_SHIFT));
        SimTime::from_ps(scaled.min(tx.rtt.max_rto().as_ps()))
    }

    fn arm_pto(&mut self, tx: &mut TxCtx) {
        let pto = self.current_pto(tx);
        #[cfg(feature = "check")]
        {
            // §6.2.1 lower bound: the armed period may never undercut the
            // un-backed-off formula (modulo the max-RTO clamp).
            let floor = tx.rtt.pto_base(self.granularity).min(tx.rtt.max_rto());
            if pto < floor {
                simnet::check::violated(
                    spec::keys::PTO_FORMULA,
                    format_args!(
                        "flow {}: armed PTO {} ps below formula floor {} ps",
                        tx.flow.0,
                        pto.as_ps(),
                        floor.as_ps()
                    ),
                );
            }
        }
        tx.ctx.set_timer_after(keys::pto_key(tx.flow), pto);
        self.pto_armed = true;
    }

    fn cancel_pto(&mut self, tx: &mut TxCtx) {
        tx.ctx.cancel_timer(keys::pto_key(tx.flow));
        self.pto_armed = false;
    }

    /// Bytes this engine may put on the wire right now: congestion window
    /// headroom, further limited by the PRR allowance during recovery.
    fn send_budget(&self, tx: &TxCtx) -> u64 {
        let avail = tx.cwnd().saturating_sub(self.bytes_in_flight);
        if !self.in_recovery {
            return avail;
        }
        avail.min(self.prr_allowance(tx).saturating_sub(self.prr_out))
    }

    /// PRR's cumulative send allowance for this recovery period
    /// (RFC 6937): proportional while the pipe exceeds ssthresh, slow-start
    /// style (one extra MSS per delivery) once it has drained below.
    fn prr_allowance(&self, tx: &TxCtx) -> u64 {
        let ssthresh = tx.cca.ssthresh();
        if self.bytes_in_flight > ssthresh {
            self.prr_delivered
                .saturating_mul(ssthresh)
                .checked_div(self.recoverfs)
                .unwrap_or(0)
        } else {
            self.prr_delivered.saturating_add(tx.mss)
        }
    }

    #[cfg(feature = "check")]
    fn check_prr_bound(&self, tx: &TxCtx) {
        // The branch of the allowance formula depends on the in-flight
        // count, which moved since the gate; bound against both forms.
        let ssthresh = tx.cca.ssthresh();
        let proportional = self
            .prr_delivered
            .saturating_mul(ssthresh)
            .checked_div(self.recoverfs)
            .unwrap_or(0);
        let slow_start = self.prr_delivered.saturating_add(tx.mss);
        if self.prr_out > proportional.max(slow_start) {
            simnet::check::violated(
                spec::keys::PRR_BOUND,
                format_args!(
                    "flow {}: prr_out {} exceeds allowance (delivered {}, ssthresh {}, recoverfs {})",
                    tx.flow.0, self.prr_out, self.prr_delivered, ssthresh, self.recoverfs
                ),
            );
        }
    }

    /// Begins a recovery period: one window reduction, PRR initialization,
    /// and the single immediate retransmission RFC 6937 permits.
    fn enter_recovery(&mut self, tx: &mut TxCtx, lost_bytes: u64) {
        #[cfg(feature = "check")]
        if self.in_recovery {
            simnet::check::violated(
                spec::keys::RECOVERY_NO_REENTER,
                format_args!(
                    "flow {}: window reduced again within a recovery period",
                    tx.flow.0
                ),
            );
        }
        #[cfg(feature = "check")]
        let cwnd_before = tx.cwnd();
        self.in_recovery = true;
        self.recovery_start_pn = self.next_pn;
        tx.stats.fast_retransmits += 1;
        let cctx = tx.cca_ctx(self.acked.prefix_end(), self.snd_nxt, true);
        tx.cca.on_enter_recovery(&cctx);
        #[cfg(feature = "check")]
        if tx.cca.ssthresh() > cwnd_before {
            simnet::check::violated(
                spec::keys::RECOVERY_SSTHRESH_CUT,
                format_args!(
                    "flow {}: ssthresh {} above pre-recovery cwnd {}",
                    tx.flow.0,
                    tx.cca.ssthresh(),
                    cwnd_before
                ),
            );
        }
        self.prr_delivered = 0;
        self.prr_out = 0;
        self.recoverfs = (self.bytes_in_flight + lost_bytes).max(tx.mss);
        // RFC 6937: "a single segment" may leave immediately on entry,
        // before the rate reduction takes hold.
        if let Some((lo, len)) = self.retx_queue.take_prefix(tx.mss) {
            self.emit(tx, lo, len as u32, true);
        }
        self.arm_pto(tx);
        tx.probe_window(
            WindowTrigger::FastRetransmit,
            self.state(),
            self.bytes_in_flight,
        );
    }

    /// Structural invariants (stream-space ordering, window floor,
    /// in-flight bookkeeping), recorded — not panicked — under `check`.
    #[cfg(feature = "check")]
    #[inline]
    fn oracle_state(&self, tx: &TxCtx) {
        if self.acked.prefix_end() > self.snd_nxt || self.snd_nxt > tx.demand_end {
            simnet::check::violated(
                spec::keys::SEQ_SPACE,
                format_args!(
                    "flow {}: acked prefix {} / snd_nxt {} / demand_end {} out of order",
                    tx.flow.0,
                    self.acked.prefix_end(),
                    self.snd_nxt,
                    tx.demand_end
                ),
            );
        }
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
        debug_assert_eq!(
            self.bytes_in_flight,
            self.sent.iter().map(|p| p.len as u64).sum::<u64>(),
            "in-flight bookkeeping diverged"
        );
    }
}

/// The engine interface [`super::Recovery`] dispatches to.
impl QuicRecovery {
    pub fn acked_prefix(&self) -> u64 {
        self.acked.prefix_end()
    }

    pub fn sent_end(&self) -> u64 {
        self.snd_nxt
    }

    pub fn in_flight(&self) -> u64 {
        self.bytes_in_flight
    }

    pub fn in_recovery(&self) -> bool {
        self.in_recovery
    }

    /// Transmits — retransmissions first, then new data — while the window
    /// and the PRR allowance permit. Whole segments only.
    pub fn fill(&mut self, tx: &mut TxCtx) {
        // Control-plane pause gate: nothing leaves via the window path
        // while paused (the PTO probe path is independent). The sender's
        // guard timer re-fills at the bounded pause deadline.
        if tx.paused() {
            return;
        }
        loop {
            let budget = self.send_budget(tx);
            let (offset, len, retx) = if let Some(&(lo, hi)) = self.retx_queue.ranges().first() {
                (lo, (hi - lo).min(tx.mss), true)
            } else if self.snd_nxt < tx.demand_end {
                (
                    self.snd_nxt,
                    tx.mss.min(tx.demand_end - self.snd_nxt),
                    false,
                )
            } else {
                break;
            };
            if len > budget {
                break;
            }
            if retx {
                self.retx_queue.take_prefix(len);
            } else {
                self.snd_nxt += len;
            }
            self.emit(tx, offset, len as u32, retx);
            if self.in_recovery {
                self.prr_out += len;
                #[cfg(feature = "check")]
                self.check_prr_bound(tx);
            }
        }
        if self.bytes_in_flight > 0 && !self.pto_armed {
            self.arm_pto(tx);
        }
        #[cfg(feature = "check")]
        self.oracle_state(tx);
    }

    pub fn on_ack(&mut self, tx: &mut TxCtx, ack: AckView) {
        let AckView::Quic {
            blocks,
            ece,
            ts_echo,
        } = ack
        else {
            debug_assert!(false, "TCP ack delivered to the QUIC engine");
            return;
        };
        // Unwrap the wire ranges against the highest pn ever assigned.
        let reference = self.next_pn.saturating_sub(1);
        let largest = seq::unwrap(blocks.largest(), reference);
        #[cfg(feature = "check")]
        if largest >= self.next_pn {
            simnet::check::violated(
                spec::keys::QUIC_ACK_UNSENT,
                format_args!(
                    "flow {}: ack of pn {} but only {} assigned",
                    tx.flow.0, largest, self.next_pn
                ),
            );
        }
        let mut acked_pns = [(0u64, 0u64); MAX_ACK_BLOCKS];
        for (pns, &(lo_w, hi_w)) in acked_pns.iter_mut().zip(blocks.ranges()) {
            let hi = seq::unwrap(hi_w, reference);
            let span = hi_w.wrapping_sub(lo_w) as u64;
            *pns = (hi.saturating_sub(span), hi + 1);
        }
        let acked_pns = &acked_pns[..blocks.ranges().len()];
        self.largest_acked = Some(self.largest_acked.map_or(largest, |l| l.max(largest)));

        // Retire every newly acknowledged packet; its stream bytes are
        // delivered and need no retransmission.
        let mut newly = 0u64;
        let mut first_acked = 0u64;
        let mut acked_any = false;
        let mut i = 0;
        while i < self.sent.len() {
            let p = self.sent[i];
            if p.pn > largest {
                break;
            }
            if acked_pns.iter().any(|&(lo, hi)| (lo..hi).contains(&p.pn)) {
                self.sent.remove(i);
                self.bytes_in_flight -= p.len as u64;
                newly += p.len as u64;
                acked_any = true;
                first_acked += self.acked.insert(p.offset, p.offset + p.len as u64);
                self.retx_queue.remove(p.offset, p.offset + p.len as u64);
            } else {
                i += 1;
            }
        }

        // Unique stream bytes first acknowledged by this frame
        // (retransmitted copies of already-acked bytes do not count).
        tx.stats.bytes_acked += first_acked;

        // RTT sample: fresh packet numbers make every sample unambiguous
        // (no Karn phase needed, unlike TCP).
        let sample = if acked_any && ts_echo > SimTime::ZERO && tx.ctx.now() > ts_echo {
            let s = tx.ctx.now() - ts_echo;
            tx.rtt.on_sample(s);
            Some(s)
        } else {
            None
        };

        if acked_any {
            self.pto_count = 0;
            self.backing_off = false;
            if self.in_recovery {
                self.prr_delivered += newly;
            }
        }

        let cctx = tx.cca_ctx(self.acked.prefix_end(), self.snd_nxt, self.in_recovery);
        tx.cca.on_ack(&cctx, newly, ece, sample);

        // Recovery ends when a packet sent after entry is acknowledged
        // (RFC 9002 §7.3.1).
        if self.in_recovery && largest >= self.recovery_start_pn {
            self.in_recovery = false;
            self.prr_delivered = 0;
            self.prr_out = 0;
        }

        // Packet-threshold loss detection (RFC 9002 §6.1.1): anything
        // still outstanding kPacketThreshold below the largest acked is
        // lost; its unacknowledged stream bytes queue for retransmission.
        let mut lost_bytes = 0u64;
        if let Some(la) = self.largest_acked {
            while let Some(&p) = self.sent.front() {
                if p.pn + PACKET_THRESHOLD > la {
                    break;
                }
                self.sent.pop_front();
                self.bytes_in_flight -= p.len as u64;
                lost_bytes += p.len as u64;
                self.acked
                    .for_each_missing(p.offset, p.offset + p.len as u64, |lo, hi| {
                        self.retx_queue.insert(lo, hi);
                    });
            }
        }

        // One window reduction per recovery period: losses detected while
        // already in recovery belong to the same congestion event.
        if lost_bytes > 0 && !self.in_recovery {
            self.enter_recovery(tx, lost_bytes);
        }

        if acked_any {
            if self.bytes_in_flight > 0 {
                self.arm_pto(tx);
            } else {
                self.cancel_pto(tx);
            }
            tx.probe_window(
                if ece {
                    WindowTrigger::Ece
                } else {
                    WindowTrigger::Ack
                },
                self.state(),
                self.bytes_in_flight,
            );
        }
        self.fill(tx);
    }

    /// The probe timeout fired: back off, send one probe (RFC 9002 §6.2.4
    /// MUST), and treat repeated expiries as persistent congestion.
    pub fn on_retx_timer(&mut self, tx: &mut TxCtx) {
        self.pto_armed = false;
        if self.bytes_in_flight == 0 && self.retx_queue.is_empty() {
            return; // stale
        }
        tx.stats.timeouts += 1;
        #[cfg(feature = "check")]
        let pto_before = self.current_pto(tx);
        self.pto_count = (self.pto_count + 1).min(MAX_PTO_SHIFT);
        #[cfg(feature = "check")]
        {
            let pto_after = self.current_pto(tx);
            // §6.2.1: the period at most doubles per expiry and never
            // shrinks (equality happens at the max-RTO clamp).
            if pto_after < pto_before || pto_after.as_ps() > pto_before.as_ps().saturating_mul(2) {
                simnet::check::violated(
                    spec::keys::PTO_BACKOFF,
                    format_args!(
                        "flow {}: PTO went {} -> {} ps on expiry",
                        tx.flow.0,
                        pto_before.as_ps(),
                        pto_after.as_ps()
                    ),
                );
            }
        }
        self.backing_off = true;
        // Persistent congestion, simplified (§7.6): two consecutive PTO
        // expiries with no intervening ack collapse the window to the
        // minimum, exactly like a TCP RTO.
        if self.pto_count >= 2 {
            self.in_recovery = false;
            self.prr_delivered = 0;
            self.prr_out = 0;
            let cctx = tx.cca_ctx(self.acked.prefix_end(), self.snd_nxt, false);
            tx.cca.on_timeout(&cctx);
            #[cfg(feature = "check")]
            if tx.cwnd() > tx.min_cwnd {
                simnet::check::violated(
                    spec::keys::PERSISTENT_CONGESTION_COLLAPSE,
                    format_args!(
                        "flow {}: cwnd {} above minimum {} after persistent congestion",
                        tx.flow.0,
                        tx.cwnd(),
                        tx.min_cwnd
                    ),
                );
            }
        }
        // §6.2.4: a PTO expiry MUST elicit a probe — queued
        // retransmissions first, then new data, else the oldest
        // outstanding bytes again under a fresh packet number.
        let probed = if let Some((lo, len)) = self.retx_queue.take_prefix(tx.mss) {
            self.emit(tx, lo, len as u32, true);
            true
        } else if self.snd_nxt < tx.demand_end {
            let len = tx.mss.min(tx.demand_end - self.snd_nxt);
            let at = self.snd_nxt;
            self.snd_nxt += len;
            self.emit(tx, at, len as u32, false);
            true
        } else if let Some(&p) = self.sent.front() {
            self.emit(tx, p.offset, p.len, true);
            true
        } else {
            false
        };
        #[cfg(feature = "check")]
        if !probed {
            simnet::check::violated(
                spec::keys::PTO_PROBE_SENT,
                format_args!(
                    "flow {}: PTO expired with {} bytes outstanding but sent no probe",
                    tx.flow.0, self.bytes_in_flight
                ),
            );
        }
        let _ = probed;
        if self.bytes_in_flight > 0 {
            self.arm_pto(tx);
        }
        tx.probe_window(WindowTrigger::Rto, self.state(), self.bytes_in_flight);
        #[cfg(feature = "check")]
        self.oracle_state(tx);
    }
}
