//! Point-to-point unidirectional links.
//!
//! A [`Link`] carries frames from the egress queue at its source node to its
//! destination node. It serializes one frame at a time at the configured
//! rate, then the frame propagates for the configured delay. Full-duplex
//! cables are modeled as two independent `Link`s.

use crate::ids::{BufferId, NodeId};
use crate::packet::{PacketSlot, QueuedFrame};
use crate::queue::{EcnQueue, QueueConfig};
use crate::time::SimTime;
use crate::units::Rate;

/// Configuration of one unidirectional link and its egress queue.
#[derive(Debug, Clone)]
pub struct LinkConfig {
    /// Transmission rate.
    pub rate: Rate,
    /// Propagation delay.
    pub propagation: SimTime,
    /// Egress queue at the source of the link.
    pub queue: QueueConfig,
    /// Fault injection: probability that a frame is corrupted/lost on the
    /// wire after serialization (0.0 disables).
    pub loss_probability: f64,
}

impl LinkConfig {
    /// A link with the given rate/propagation and queue, no fault injection.
    pub fn new(rate: Rate, propagation: SimTime, queue: QueueConfig) -> Self {
        LinkConfig {
            rate,
            propagation,
            queue,
            loss_probability: 0.0,
        }
    }
}

/// Runtime state of a link.
#[derive(Debug)]
pub struct Link {
    /// Source node (owns the egress queue).
    pub src: NodeId,
    /// Destination node.
    pub dst: NodeId,
    /// Static configuration.
    pub cfg: LinkConfig,
    /// The egress queue feeding this link. Holds 12-byte residence cards;
    /// the packets themselves stay parked in the simulator's packet pool.
    pub queue: EcnQueue<QueuedFrame>,
    /// Shared buffer this queue charges, if the source switch has one.
    pub shared: Option<BufferId>,
    /// Where the packet last put on the transmitter is parked; current
    /// while [`Link::transmitting`].
    pub(crate) on_tx: PacketSlot,
    /// When that frame's serialization ends, and the tie-break seq reserved
    /// for its `TxComplete` when it started. The transmitter is occupied
    /// until the event loop passes `(busy_until, tx_seq)` — whether or not a
    /// `TxComplete` event was ever scheduled there. The frame's `Delivery`
    /// owns seq `tx_seq + 1`.
    pub(crate) busy_until: SimTime,
    pub(crate) tx_seq: u64,
    /// The frame on the transmitter started while the link could lose it
    /// ([`Link::can_lose`]): its fate is decided by a real `TxComplete` at
    /// serialization end, and its `Delivery` is not scheduled before that.
    pub(crate) tx_eager: bool,
    /// A `LinkDown` / `LinkUp` / `SetLinkLoss` / `SetLinkCorrupt` of the
    /// installed fault plan names this link.
    pub(crate) fault_target: bool,
    /// Fault state: link is administratively down (frames finishing
    /// serialization are blackholed until a `LinkUp` fault).
    pub down: bool,
    /// Fault state: extra per-frame loss probability injected by the
    /// active `FaultPlan` (0.0 when healthy).
    pub fault_loss: f64,
    /// Fault state: per-frame corruption probability injected by the
    /// active `FaultPlan` (0.0 when healthy).
    pub fault_corrupt: f64,
    /// Memo of the last [`Link::serialize_time`] query, wire size and
    /// answer. Traffic is almost entirely two frame sizes (full data
    /// segments and bare ACKs), so the division behind each transmission
    /// start is usually a repeat.
    ser_memo_bytes: u32,
    ser_memo: SimTime,
}

impl Link {
    /// Creates an idle link.
    pub fn new(src: NodeId, dst: NodeId, cfg: LinkConfig, shared: Option<BufferId>) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.loss_probability),
            "loss probability out of range"
        );
        let queue = EcnQueue::new(cfg.queue.clone());
        Link {
            src,
            dst,
            cfg,
            queue,
            shared,
            on_tx: PacketSlot(0),
            busy_until: SimTime::ZERO,
            tx_seq: 0,
            tx_eager: false,
            fault_target: false,
            down: false,
            fault_loss: 0.0,
            fault_corrupt: 0.0,
            ser_memo_bytes: 0, // zero bytes do take zero time
            ser_memo: SimTime::ZERO,
        }
    }

    /// True while a frame is on the transmitter, as seen by the event
    /// `(now, seq)` being processed: its serialization has not ended, or
    /// ends at this very instant under a later tie-break than `seq`. This is
    /// "the frame's `TxComplete` has not popped yet" even on a link that
    /// never schedules one. Outside the event loop pass `seq = 0` before the
    /// first event and `u64::MAX` after the last.
    #[inline]
    pub fn transmitting(&self, now: SimTime, seq: u64) -> bool {
        (self.busy_until, self.tx_seq) > (now, seq)
    }

    /// True if a frame that starts serializing now can be lost on the wire:
    /// configured or injected loss, corruption, an administrative down, or
    /// a fault plan that may turn any of those on mid-frame. Such a frame
    /// keeps a real `TxComplete`, which draws the RNG at serialization end;
    /// on every other link the frame's `Delivery` is scheduled when
    /// transmission starts.
    #[inline]
    pub(crate) fn can_lose(&self) -> bool {
        self.fault_target
            || self.down
            || self.cfg.loss_probability > 0.0
            || self.fault_loss > 0.0
            || self.fault_corrupt > 0.0
    }

    /// Serialization time for a frame of `bytes`, memoizing the last query.
    pub fn serialize_time(&mut self, bytes: u32) -> SimTime {
        if self.ser_memo_bytes != bytes {
            self.ser_memo_bytes = bytes;
            self.ser_memo = self.cfg.rate.serialize_time(bytes as u64);
        }
        self.ser_memo
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_link_is_idle() {
        let cfg = LinkConfig::new(Rate::gbps(10), SimTime::from_us(1), QueueConfig::host_nic());
        let mut l = Link::new(NodeId(0), NodeId(1), cfg, None);
        assert!(!l.transmitting(SimTime::ZERO, 0));
        assert!(!l.can_lose());
        assert!(l.queue.is_empty());
        assert_eq!(l.serialize_time(0), SimTime::ZERO);
        assert_eq!(l.serialize_time(1500), SimTime::from_ns(1200));
        // Memo hit returns the same answer; a different size recomputes.
        assert_eq!(l.serialize_time(1500), SimTime::from_ns(1200));
        assert_eq!(l.serialize_time(60), SimTime::from_ns(48));
    }

    /// A 1000-flow fabric holds 2000 of these; the transmitter state added
    /// for lazy `TxComplete` took the room of the fields it replaced.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn link_does_not_grow() {
        assert!(std::mem::size_of::<Link>() <= 328);
    }

    #[test]
    #[should_panic]
    fn invalid_loss_probability_rejected() {
        let mut cfg = LinkConfig::new(Rate::gbps(10), SimTime::ZERO, QueueConfig::host_nic());
        cfg.loss_probability = 1.5;
        Link::new(NodeId(0), NodeId(1), cfg, None);
    }
}
