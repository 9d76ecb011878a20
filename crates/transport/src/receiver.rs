//! The receiving half of a connection.
//!
//! Reassembles the byte stream (cumulative ACKs plus an out-of-order range
//! set), generates acknowledgments — immediately per segment when delayed
//! ACKs are off (the paper's simulation setting), or per the DCTCP paper's
//! two-state delayed-ACK machine when on — and echoes ECN marks back to the
//! sender as ECN-Echo.

use crate::config::{DelayedAckConfig, TcpConfig};
use crate::keys;
use crate::ranges::AckRanges;
use crate::seq;
use crate::stats::ReceiverStats;
use simnet::{Ctx, FlowId, NodeId, Packet, SimTime};

/// Ranges of received packet numbers a QUIC-mode receiver remembers.
/// Old gaps beyond this are forgotten, keeping the state (and the wire
/// frame built from its top ranges) bounded like a real implementation.
const PN_RANGE_CAP: usize = 64;

/// Receiver-side connection state.
#[derive(Debug)]
pub struct Receiver {
    flow: FlowId,
    /// The sending host (where ACKs go).
    peer: NodeId,
    /// Next in-order byte expected (absolute).
    rcv_nxt: u64,
    /// Out-of-order byte ranges, all above `rcv_nxt`.
    ooo: AckRanges,
    /// Received packet numbers, at most [`PN_RANGE_CAP`] ranges (QUIC
    /// mode only; stays empty under TCP).
    pns: AckRanges,
    delack: Option<DelayedAckConfig>,
    /// The delayed-ACK timer is armed (an ACK cancels it only then).
    delack_armed: bool,
    /// DCTCP delayed-ACK state: the CE value of the accumulation run.
    ce_state: bool,
    /// Full segments received since the last ACK was sent.
    pending_segs: u32,
    /// Timestamp of the newest data segment (echoed for RTT).
    last_ts: SimTime,
    stats: ReceiverStats,
}

impl Receiver {
    /// Creates the receiving half of `flow`, acknowledging to `peer`.
    pub fn new(flow: FlowId, peer: NodeId, cfg: &TcpConfig) -> Self {
        Receiver {
            flow,
            peer,
            rcv_nxt: 0,
            ooo: AckRanges::new(),
            pns: AckRanges::new(),
            delack: cfg.delayed_ack,
            delack_armed: false,
            ce_state: false,
            pending_segs: 0,
            last_ts: SimTime::ZERO,
            stats: ReceiverStats::default(),
        }
    }

    /// Bytes delivered in order so far.
    pub fn delivered(&self) -> u64 {
        self.rcv_nxt
    }

    /// Counter snapshot.
    pub fn stats(&self) -> &ReceiverStats {
        &self.stats
    }

    /// Outstanding out-of-order ranges (diagnostic).
    pub fn ooo_ranges(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.ooo.ranges().iter().copied()
    }

    fn send_ack(&mut self, ctx: &mut Ctx, ece: bool) {
        let at = self.rcv_nxt;
        self.send_ack_at(ctx, at, ece);
    }

    /// Sends an ACK for an explicit acknowledgment number (used by the
    /// DCTCP state machine, which acknowledges the bytes received *before*
    /// a CE state change with the old state's ECE).
    fn send_ack_at(&mut self, ctx: &mut Ctx, ack_abs: u64, ece: bool) {
        #[cfg(feature = "check")]
        {
            // Conformance oracle: an ACK may never claim bytes beyond what
            // was reassembled, and ECE may only echo an actual CE mark.
            if ack_abs > self.rcv_nxt {
                simnet::check::violated(
                    crate::spec::keys::ACK_BEYOND_RCV_NXT,
                    format_args!(
                        "flow {}: acking {} with rcv_nxt {}",
                        self.flow.0, ack_abs, self.rcv_nxt
                    ),
                );
            }
            if ece && self.stats.ce_segs == 0 {
                simnet::check::violated(
                    crate::spec::keys::ECE_WITHOUT_CE,
                    format_args!(
                        "flow {}: ECE set but no CE segment ever received",
                        self.flow.0
                    ),
                );
            }
        }
        let ack = Packet::ack(
            self.flow,
            ctx.node(),
            self.peer,
            seq::wrap(ack_abs),
            ece,
            self.last_ts,
        );
        ctx.send(ack);
        self.stats.acks_sent += 1;
        self.pending_segs = 0;
        if self.delack_armed {
            ctx.cancel_timer(keys::delack_key(self.flow));
            self.delack_armed = false;
        }
    }

    /// Handles an arriving data segment. Returns the number of bytes newly
    /// delivered in order (0 for duplicates and out-of-order arrivals).
    pub fn on_data(
        &mut self,
        ctx: &mut Ctx,
        seq_wire: u32,
        payload: u32,
        ce: bool,
        ts: SimTime,
    ) -> u64 {
        debug_assert!(payload > 0, "empty data segment");
        let s = seq::unwrap(seq_wire, self.rcv_nxt);
        let before = self.rcv_nxt;
        let newly = self.reassemble(s, s + payload as u64, ce, ts);
        if newly == 0 {
            // Old data or a gap: ACK immediately. Old data is what produces
            // duplicate ACKs for the sender after a retransmission raced
            // delivery; a gap needs an immediate dup ACK so fast retransmit
            // can trigger (RFC 5681 §4.2).
            let ece = self.current_ece(ce);
            self.send_ack(ctx, ece);
            return 0;
        }

        match self.delack {
            None => {
                // Immediate per-packet ACK with this packet's CE (the
                // per-packet ECE mode DCTCP uses when delayed ACKs are off).
                self.send_ack(ctx, ce);
            }
            Some(dcfg) => self.delayed_ack_on_data(ctx, ce, dcfg, before),
        }
        newly
    }

    /// Handles an arriving QUIC-style data packet: records the packet
    /// number, reassembles the stream by offset (the same machinery as
    /// TCP), and acknowledges *immediately* with the top received
    /// packet-number ranges — QUIC mode ignores delayed ACKs
    /// (`max_ack_delay = 0`), echoing this packet's CE. Returns the bytes
    /// newly delivered in order.
    pub fn on_quic_data(
        &mut self,
        ctx: &mut Ctx,
        pn_wire: u32,
        offset_wire: u32,
        payload: u32,
        ce: bool,
        ts: SimTime,
    ) -> u64 {
        debug_assert!(payload > 0, "empty data packet");
        let pn = seq::unwrap(pn_wire, self.pns.end());
        self.pns.insert_capped(pn, pn + 1, PN_RANGE_CAP);
        // A packet number arriving twice means the network duplicated the
        // frame; stream-byte overlap (retransmitted data racing delivery)
        // is the interesting duplicate measure, same as TCP. Stale stream
        // bytes under a fresh packet number are still acknowledged, so the
        // sender can retire the packet.
        let s = seq::unwrap(offset_wire, self.rcv_nxt);
        let newly = self.reassemble(s, s + payload as u64, ce, ts);
        self.send_quic_ack(ctx, ce);
        newly
    }

    /// Emits an ACK frame carrying the highest received packet-number
    /// ranges (RFC 9000 §13.1: every ack-eliciting packet is acknowledged;
    /// §19.3.1: ranges are descending and disjoint).
    fn send_quic_ack(&mut self, ctx: &mut Ctx, ece: bool) {
        let blocks = self.pns.to_blocks();
        #[cfg(feature = "check")]
        {
            // Conformance oracle: wire ranges must descend without
            // overlap or touch, and ECE may only echo an actual CE mark.
            let r = blocks.ranges();
            for w in r.windows(2) {
                if w[1].1 >= w[0].0 || w[1].0 > w[1].1 {
                    simnet::check::violated(
                        crate::spec::keys::QUIC_ACK_BLOCKS_SOUND,
                        format_args!("flow {}: malformed ACK ranges {r:?}", self.flow.0),
                    );
                }
            }
            if let Some(&(lo, hi)) = r.first() {
                if lo > hi {
                    simnet::check::violated(
                        crate::spec::keys::QUIC_ACK_BLOCKS_SOUND,
                        format_args!("flow {}: inverted ACK range {lo}..{hi}", self.flow.0),
                    );
                }
            }
            if ece && self.stats.ce_segs == 0 {
                simnet::check::violated(
                    crate::spec::keys::ECE_WITHOUT_CE,
                    format_args!(
                        "flow {}: ECE set but no CE packet ever received",
                        self.flow.0
                    ),
                );
            }
        }
        let ack = Packet::quic_ack(self.flow, ctx.node(), self.peer, blocks, ece, self.last_ts);
        ctx.send(ack);
        self.stats.acks_sent += 1;
    }

    /// DCTCP's delayed-ACK state machine (DCTCP paper, Fig. 8): on a CE
    /// state change, immediately ACK the run accumulated *before* this
    /// segment with the *old* state's ECE; otherwise accumulate up to
    /// `max_segments` or the timer.
    fn delayed_ack_on_data(
        &mut self,
        ctx: &mut Ctx,
        ce: bool,
        dcfg: DelayedAckConfig,
        prior_rcv_nxt: u64,
    ) {
        if ce != self.ce_state {
            if self.pending_segs > 0 {
                let prior = self.ce_state;
                self.send_ack_at(ctx, prior_rcv_nxt, prior);
            }
            self.ce_state = ce;
        }
        self.pending_segs += 1;
        if self.pending_segs >= dcfg.max_segments {
            let ece = self.ce_state;
            self.send_ack(ctx, ece);
        } else {
            ctx.set_timer_after(keys::delack_key(self.flow), dcfg.timeout);
            self.delack_armed = true;
        }
    }

    /// The ECE to put on an immediate (dup/ooo) ACK: per-packet CE when
    /// delayed ACKs are off, else the running CE state.
    fn current_ece(&mut self, ce: bool) -> bool {
        match self.delack {
            None => ce,
            Some(_) => {
                self.ce_state = ce;
                ce
            }
        }
    }

    /// The delayed-ACK timer fired.
    pub fn on_delack_timer(&mut self, ctx: &mut Ctx) {
        self.delack_armed = false;
        if self.pending_segs > 0 {
            let ece = self.ce_state;
            self.send_ack(ctx, ece);
        }
    }

    fn overlap_bytes(&self, s: u64, e: u64) -> u64 {
        let mut dup = e.min(self.rcv_nxt).saturating_sub(s);
        // Overlap with stored out-of-order ranges.
        for &(rs, re) in self.ooo.ranges().iter().take_while(|&&(rs, _)| rs < e) {
            dup += re.min(e).saturating_sub(rs.max(s));
        }
        dup
    }

    /// Counts an arriving segment carrying stream bytes `[s, e)` and takes
    /// them in: `rcv_nxt` advances over them and every stored range they
    /// reach, or they are stored out of order. Returns the bytes newly
    /// delivered in order (0 for old data and for a gap).
    fn reassemble(&mut self, s: u64, e: u64, ce: bool, ts: SimTime) -> u64 {
        self.stats.segs_received += 1;
        if ce {
            self.stats.ce_segs += 1;
        }
        self.last_ts = ts;
        // Duplicate accounting: bytes overlapping anything already received.
        self.stats.dup_bytes += self.overlap_bytes(s, e);
        let before = self.rcv_nxt;
        if e <= before {
            return 0;
        }
        if s > before {
            self.stats.ooo_segs += 1;
            self.ooo.insert(s, e);
            return 0;
        }
        self.rcv_nxt = e;
        while let Some(&(rs, re)) = self.ooo.ranges().first() {
            if rs > self.rcv_nxt {
                break;
            }
            self.ooo.take_prefix(re - rs);
            self.rcv_nxt = self.rcv_nxt.max(re);
        }
        #[cfg(feature = "check")]
        if self.rcv_nxt < before {
            simnet::check::violated(
                crate::spec::keys::RCV_NXT_MONOTONIC,
                format_args!(
                    "flow {}: rcv_nxt moved backwards {} -> {}",
                    self.flow.0, before, self.rcv_nxt
                ),
            );
        }
        let newly = self.rcv_nxt - before;
        self.stats.bytes_delivered += newly;
        newly
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{Cmd, PacketKind};

    const MSS: u32 = 1446;

    struct Harness {
        rx: Receiver,
        cmds: Vec<Cmd>,
    }

    impl Harness {
        fn new(delack: Option<DelayedAckConfig>) -> Self {
            let cfg = TcpConfig {
                delayed_ack: delack,
                ..TcpConfig::default()
            };
            Harness {
                rx: Receiver::new(FlowId(1), NodeId(0), &cfg),
                cmds: Vec::new(),
            }
        }

        fn data(&mut self, seq: u64, len: u32, ce: bool) -> u64 {
            let mut ctx = Ctx::new(SimTime::from_us(seq), NodeId(5), &mut self.cmds);
            self.rx
                .on_data(&mut ctx, seq::wrap(seq), len, ce, SimTime::from_us(1))
        }

        /// Drains and returns (ack_number, ece) for every ACK sent.
        fn acks(&mut self) -> Vec<(u32, bool)> {
            let out = self
                .cmds
                .iter()
                .filter_map(|c| match c {
                    Cmd::Send(p) => match p.kind {
                        PacketKind::Ack { ack, ece, .. } => Some((ack, ece)),
                        _ => None,
                    },
                    _ => None,
                })
                .collect();
            self.cmds.clear();
            out
        }
    }

    /// Every flow holds one `Receiver`; its two range sets keep their
    /// first range in place.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn receiver_does_not_grow() {
        assert!(std::mem::size_of::<Receiver>() <= 168);
    }

    #[test]
    fn in_order_delivery_acks_each_segment() {
        let mut h = Harness::new(None);
        assert_eq!(h.data(0, MSS, false), MSS as u64);
        assert_eq!(h.data(MSS as u64, MSS, false), MSS as u64);
        let acks = h.acks();
        assert_eq!(acks, vec![(MSS, false), (2 * MSS, false)]);
        assert_eq!(h.rx.delivered(), 2 * MSS as u64);
        assert_eq!(h.rx.stats().bytes_delivered, 2 * MSS as u64);
    }

    #[test]
    fn ce_reflected_per_packet() {
        let mut h = Harness::new(None);
        h.data(0, MSS, true);
        h.data(MSS as u64, MSS, false);
        assert_eq!(h.acks(), vec![(MSS, true), (2 * MSS, false)]);
        assert_eq!(h.rx.stats().ce_segs, 1);
    }

    #[test]
    fn out_of_order_generates_dup_acks_then_catches_up() {
        let mut h = Harness::new(None);
        h.data(0, MSS, false);
        h.acks();
        // Segment 2 and 3 arrive before segment 1's retransmission.
        assert_eq!(h.data(2 * MSS as u64, MSS, false), 0);
        assert_eq!(h.data(3 * MSS as u64, MSS, false), 0);
        let acks = h.acks();
        assert_eq!(acks, vec![(MSS, false), (MSS, false)], "dup acks at hole");
        assert_eq!(h.rx.stats().ooo_segs, 2);
        // The hole fills: one ACK jumping past everything buffered.
        assert_eq!(h.data(MSS as u64, MSS, false), 3 * MSS as u64);
        assert_eq!(h.acks(), vec![(4 * MSS, false)]);
        assert_eq!(h.rx.ooo_ranges().count(), 0);
    }

    #[test]
    fn pure_duplicate_counts_and_acks() {
        let mut h = Harness::new(None);
        h.data(0, MSS, false);
        h.acks();
        assert_eq!(h.data(0, MSS, false), 0); // spurious retransmission
        assert_eq!(h.rx.stats().dup_bytes, MSS as u64);
        assert_eq!(h.acks(), vec![(MSS, false)]);
    }

    #[test]
    fn partial_overlap_counts_only_dup_portion() {
        let mut h = Harness::new(None);
        h.data(0, MSS, false);
        h.acks();
        // Resend [0, MSS) plus fresh [MSS, 2 MSS) as one segment.
        assert_eq!(h.data(0, 2 * MSS, false), MSS as u64);
        assert_eq!(h.rx.stats().dup_bytes, MSS as u64);
    }

    #[test]
    fn overlap_with_ooo_range_detected() {
        let mut h = Harness::new(None);
        h.data(2 * MSS as u64, MSS, false); // gap
        h.acks();
        h.data(2 * MSS as u64, MSS, false); // same ooo segment again
        assert_eq!(h.rx.stats().dup_bytes, MSS as u64);
        assert_eq!(h.rx.ooo_ranges().count(), 1);
    }

    #[test]
    fn ooo_ranges_merge() {
        let mut h = Harness::new(None);
        h.data(4 * MSS as u64, MSS, false);
        h.data(2 * MSS as u64, MSS, false);
        h.data(3 * MSS as u64, MSS, false); // bridges the two
        assert_eq!(h.rx.ooo_ranges().count(), 1);
        let (s, e) = h.rx.ooo_ranges().next().unwrap();
        assert_eq!((s, e), (2 * MSS as u64, 5 * MSS as u64));
    }

    #[test]
    fn delayed_ack_accumulates_two_segments() {
        let mut h = Harness::new(Some(DelayedAckConfig::default()));
        h.data(0, MSS, false);
        assert_eq!(h.acks(), vec![], "first segment held");
        h.data(MSS as u64, MSS, false);
        assert_eq!(h.acks(), vec![(2 * MSS, false)], "acked at 2 segments");
    }

    #[test]
    fn delayed_ack_timer_flushes() {
        let mut h = Harness::new(Some(DelayedAckConfig::default()));
        h.data(0, MSS, false);
        assert_eq!(h.acks(), vec![]);
        let mut ctx = Ctx::new(SimTime::from_ms(2), NodeId(5), &mut h.cmds);
        h.rx.on_delack_timer(&mut ctx);
        assert_eq!(h.acks(), vec![(MSS, false)]);
        // Timer with nothing pending is a no-op.
        let mut ctx = Ctx::new(SimTime::from_ms(3), NodeId(5), &mut h.cmds);
        h.rx.on_delack_timer(&mut ctx);
        assert_eq!(h.acks(), vec![]);
    }

    #[test]
    fn only_an_armed_delack_timer_is_cancelled() {
        let cancels = |h: &mut Harness| {
            let n = h
                .cmds
                .iter()
                .filter(|c| matches!(c, Cmd::CancelTimer { .. }))
                .count();
            h.cmds.clear();
            n
        };
        // Per-packet ACKs never arm the timer, so they never cancel it.
        let mut h = Harness::new(None);
        h.data(0, MSS, false);
        h.data(2 * MSS as u64, MSS, false); // out of order: immediate dup ACK
        assert_eq!(h.rx.stats().acks_sent, 2);
        assert_eq!(cancels(&mut h), 0);
        // Delayed ACKs: the held segment arms it, the ACK that covers it
        // cancels it once, and the next ACK finds nothing armed.
        let mut h = Harness::new(Some(DelayedAckConfig::default()));
        h.data(0, MSS, false);
        assert_eq!(cancels(&mut h), 0);
        h.data(MSS as u64, MSS, false);
        assert_eq!(cancels(&mut h), 1);
        h.data(5 * MSS as u64, MSS, false); // out of order: immediate dup ACK
        assert_eq!(h.rx.stats().acks_sent, 2);
        assert_eq!(cancels(&mut h), 0);
        // A timer that fired is no longer armed either.
        h.data(2 * MSS as u64, MSS, false);
        let mut ctx = Ctx::new(SimTime::from_ms(2), NodeId(5), &mut h.cmds);
        h.rx.on_delack_timer(&mut ctx);
        assert_eq!(h.rx.stats().acks_sent, 3);
        assert_eq!(cancels(&mut h), 0);
    }

    #[test]
    fn dctcp_state_change_forces_immediate_ack() {
        let mut h = Harness::new(Some(DelayedAckConfig {
            max_segments: 100, // effectively only state changes + timer ack
            timeout: SimTime::from_ms(1),
        }));
        h.data(0, MSS, false);
        h.data(MSS as u64, MSS, false);
        assert_eq!(h.acks(), vec![]);
        // CE flips: the accumulated run is acked with the OLD state (false).
        h.data(2 * MSS as u64, MSS, true);
        assert_eq!(h.acks(), vec![(2 * MSS, false)]);
        // CE flips back: the CE run is acked with ece = true.
        h.data(3 * MSS as u64, MSS, false);
        assert_eq!(h.acks(), vec![(3 * MSS, true)]);
    }

    // ---- QUIC mode ----

    impl Harness {
        fn quic_data(&mut self, pn: u64, offset: u64, len: u32, ce: bool) -> u64 {
            let mut ctx = Ctx::new(SimTime::from_us(pn), NodeId(5), &mut self.cmds);
            self.rx.on_quic_data(
                &mut ctx,
                seq::wrap(pn),
                seq::wrap(offset),
                len,
                ce,
                SimTime::from_us(1),
            )
        }

        /// Drains (largest_pn, num_ranges, ece) for every QUIC ACK sent.
        fn quic_acks(&mut self) -> Vec<(u32, usize, bool)> {
            let out = self
                .cmds
                .iter()
                .filter_map(|c| match c {
                    Cmd::Send(p) => match p.kind {
                        PacketKind::QuicAck { blocks, ece, .. } => {
                            Some((blocks.largest(), blocks.len(), ece))
                        }
                        _ => None,
                    },
                    _ => None,
                })
                .collect();
            self.cmds.clear();
            out
        }
    }

    #[test]
    fn quic_every_packet_acked_immediately() {
        // Delayed-ACK config is ignored in QUIC mode: one ACK per packet.
        let mut h = Harness::new(Some(DelayedAckConfig::default()));
        assert_eq!(h.quic_data(0, 0, MSS, false), MSS as u64);
        assert_eq!(h.quic_data(1, MSS as u64, MSS, true), MSS as u64);
        let acks = h.quic_acks();
        assert_eq!(acks, vec![(0, 1, false), (1, 1, true)]);
        assert_eq!(h.rx.delivered(), 2 * MSS as u64);
    }

    #[test]
    fn quic_gap_reports_ranges() {
        let mut h = Harness::new(None);
        h.quic_data(0, 0, MSS, false);
        h.quic_acks();
        // pn 2 arrives before pn 1: two ranges {2}, {0}.
        assert_eq!(h.quic_data(2, 2 * MSS as u64, MSS, false), 0);
        assert_eq!(h.quic_acks(), vec![(2, 2, false)]);
        assert_eq!(h.rx.stats().ooo_segs, 1);
        // The hole fills: back to one range, stream catches up.
        assert_eq!(h.quic_data(1, MSS as u64, MSS, false), 2 * MSS as u64);
        assert_eq!(h.quic_acks(), vec![(2, 1, false)]);
        assert_eq!(h.rx.ooo_ranges().count(), 0);
    }

    #[test]
    fn quic_retransmitted_bytes_under_fresh_pn_counted_dup() {
        let mut h = Harness::new(None);
        h.quic_data(0, 0, MSS, false);
        h.quic_acks();
        // Same stream bytes again, new packet number (a spurious retx).
        assert_eq!(h.quic_data(1, 0, MSS, false), 0);
        assert_eq!(h.rx.stats().dup_bytes, MSS as u64);
        // Still acked — the sender needs pn 1 retired.
        assert_eq!(h.quic_acks(), vec![(1, 1, false)]);
    }

    #[test]
    fn wire_wrap_handled_via_unwrap() {
        let mut h = Harness::new(None);
        // Pretend the stream is near the 32-bit boundary.
        h.rx.rcv_nxt = (1u64 << 32) - MSS as u64;
        let seq_wire = seq::wrap(h.rx.rcv_nxt);
        let mut ctx = Ctx::new(SimTime::ZERO, NodeId(5), &mut h.cmds);
        let newly = h.rx.on_data(&mut ctx, seq_wire, MSS, false, SimTime::ZERO);
        assert_eq!(newly, MSS as u64);
        assert_eq!(h.rx.delivered(), 1 << 32);
    }
}
