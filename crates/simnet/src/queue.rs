//! Drop-tail egress queues with threshold ECN marking.
//!
//! This is the queue model the DCTCP paper assumes and the IMC paper's
//! simulations use: FIFO, a fixed capacity (the paper's receiver-ToR queue
//! holds 2 MB = 1333 full-size packets), and an instantaneous-occupancy ECN
//! marking threshold (65 packets in the paper's Section 4, 6.7 % of capacity
//! in their production ToRs). Marking is decided at enqueue time against the
//! occupancy the arriving packet observes.

use crate::packet::{Ecn, Packet, QueuedFrame};
use crate::time::SimTime;
use stats::TimeSeries;
use std::collections::VecDeque;

/// An entry an [`EcnQueue`] can hold. The queue only ever reads an entry's
/// wire size and ECN capability and (on threshold crossing) stamps a CE
/// mark, so the simulator's links queue 8-byte [`QueuedFrame`] residence
/// cards instead of full packets — the packet itself stays parked in the
/// [`crate::packet::PacketPool`] until it reaches a host.
pub trait QueueItem {
    /// Bytes this entry occupies on the wire (headers included).
    fn wire_bytes(&self) -> u32;
    /// True if a switch may CE-mark this entry instead of dropping it.
    fn ecn_capable(&self) -> bool;
    /// Records a CE mark on the entry.
    fn mark_ce(&mut self);
}

impl QueueItem for Packet {
    fn wire_bytes(&self) -> u32 {
        self.wire_size
    }
    fn ecn_capable(&self) -> bool {
        self.ecn.is_capable()
    }
    fn mark_ce(&mut self) {
        self.ecn = Ecn::Ce;
    }
}

impl QueueItem for QueuedFrame {
    fn wire_bytes(&self) -> u32 {
        self.wire
    }
    fn ecn_capable(&self) -> bool {
        self.ecn_capable
    }
    fn mark_ce(&mut self) {
        self.ce = true;
    }
}

/// Configuration of one egress queue.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueConfig {
    /// Capacity in bytes. Arrivals that would exceed it are dropped.
    pub capacity_bytes: u64,
    /// Optional capacity in packets (whichever limit hits first applies).
    pub capacity_pkts: Option<u32>,
    /// ECN marking threshold in packets: an ECN-capable arrival is marked CE
    /// when the occupancy it observes is at or above this many packets.
    pub ecn_threshold_pkts: Option<u32>,
    /// ECN marking threshold in bytes (either threshold triggers marking).
    pub ecn_threshold_bytes: Option<u64>,
}

stats::leaves!(QueueConfig: capacity_bytes, capacity_pkts, ecn_threshold_pkts, ecn_threshold_bytes);

impl QueueConfig {
    /// The paper's receiver-ToR configuration: 2 MB / 1333 packets capacity,
    /// 65-packet marking threshold.
    pub fn paper_tor() -> Self {
        QueueConfig {
            capacity_bytes: 2_000_000,
            capacity_pkts: Some(1333),
            ecn_threshold_pkts: Some(65),
            ecn_threshold_bytes: None,
        }
    }

    /// The production ToR configuration of the paper's Section 2: same
    /// 2 MB capacity, but the ECN threshold at 6.7 % of queue capacity
    /// (~89 packets) — higher than the DCTCP paper's 65, "to avoid
    /// underutilization when faced with host burstiness".
    pub fn production_tor() -> Self {
        QueueConfig {
            ecn_threshold_pkts: Some((1333.0 * 0.067) as u32),
            ..Self::paper_tor()
        }
    }

    /// A deep host NIC queue: effectively lossless, no marking (the sender's
    /// own qdisc; DCTCP reacts to fabric marks, not self-queuing).
    pub fn host_nic() -> Self {
        QueueConfig {
            capacity_bytes: 64 * 1024 * 1024,
            capacity_pkts: None,
            ecn_threshold_pkts: None,
            ecn_threshold_bytes: None,
        }
    }
}

/// Why an arrival was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropReason {
    /// The queue's own byte or packet capacity was exceeded.
    QueueFull,
    /// The switch's shared buffer refused admission (dynamic threshold).
    SharedBuffer,
}

/// Result of offering a packet to a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EnqueueOutcome {
    /// Accepted; `marked` reports whether CE was set on this packet.
    Queued { marked: bool },
    /// Rejected and dropped.
    Dropped(DropReason),
}

/// Counters maintained by every queue.
#[derive(Debug, Clone, Default)]
pub struct QueueStats {
    pub enqueued_pkts: u64,
    pub enqueued_bytes: u64,
    pub dequeued_pkts: u64,
    pub dequeued_bytes: u64,
    pub dropped_pkts: u64,
    pub dropped_bytes: u64,
    pub shared_buffer_drops: u64,
    pub marked_pkts: u64,
    /// Highest byte occupancy ever observed.
    pub watermark_bytes: u64,
    /// Highest packet occupancy ever observed.
    pub watermark_pkts: u32,
}

/// A FIFO drop-tail queue with threshold ECN marking and optional
/// fixed-interval depth recording.
///
/// Generic over its entry type: standalone uses hold full [`Packet`]s, the
/// simulator's links hold [`QueuedFrame`]s (slot + wire size) so queue
/// occupancy is a struct-of-arrays split away from the packet contents.
#[derive(Debug)]
pub struct EcnQueue<T: QueueItem = Packet> {
    cfg: QueueConfig,
    fifo: VecDeque<T>,
    bytes: u64,
    stats: QueueStats,
    /// Boxed: one link in a fabric records depth, and every link carries
    /// the field.
    monitor: Option<Box<TimeSeries>>,
}

impl<T: QueueItem> EcnQueue<T> {
    /// Creates an empty queue.
    pub fn new(cfg: QueueConfig) -> Self {
        assert!(cfg.capacity_bytes > 0, "zero-capacity queue");
        EcnQueue {
            cfg,
            fifo: VecDeque::new(),
            bytes: 0,
            stats: QueueStats::default(),
            monitor: None,
        }
    }

    /// Enables depth recording: the maximum packet occupancy seen in each
    /// `interval`-wide bucket is retained (this is what the paper's Fig. 5–6
    /// plot, and — with a 60 s interval — the production "high watermark").
    pub fn enable_monitor(&mut self, interval: SimTime) {
        self.monitor = Some(Box::new(TimeSeries::new(interval.as_ps())));
    }

    /// The recorded depth series, if monitoring was enabled.
    pub fn monitor(&self) -> Option<&TimeSeries> {
        self.monitor.as_deref()
    }

    /// Moves the recorded depth series out, shrunk to what it stores, and ends
    /// monitoring. The series leaves here to be kept — in a run result, and
    /// in whatever caches the result — so its growth slack goes here too.
    pub fn take_monitor(&mut self) -> Option<TimeSeries> {
        let mut series = *self.monitor.take()?;
        series.shrink_to_fit();
        Some(series)
    }

    /// Current occupancy in bytes (excluding any frame being serialized).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Current occupancy in packets.
    pub fn pkts(&self) -> u32 {
        self.fifo.len() as u32
    }

    /// True if no packets are waiting.
    pub fn is_empty(&self) -> bool {
        self.fifo.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> &QueueStats {
        &self.stats
    }

    /// Queue configuration.
    pub fn config(&self) -> &QueueConfig {
        &self.cfg
    }

    /// Overwrites the ECN marking thresholds at runtime (fault injection:
    /// a mis-configuration window). `None`/`None` disables marking.
    pub fn set_ecn_thresholds(&mut self, pkts: Option<u32>, bytes: Option<u64>) {
        self.cfg.ecn_threshold_pkts = pkts;
        self.cfg.ecn_threshold_bytes = bytes;
    }

    fn would_overflow(&self, pkt: &T) -> bool {
        if self.bytes + pkt.wire_bytes() as u64 > self.cfg.capacity_bytes {
            return true;
        }
        if let Some(cap) = self.cfg.capacity_pkts {
            if self.fifo.len() as u32 + 1 > cap {
                return true;
            }
        }
        false
    }

    fn should_mark(&self) -> bool {
        if let Some(k) = self.cfg.ecn_threshold_pkts {
            if self.fifo.len() as u32 >= k {
                return true;
            }
        }
        if let Some(k) = self.cfg.ecn_threshold_bytes {
            if self.bytes >= k {
                return true;
            }
        }
        false
    }

    fn record_depth(&mut self, now: SimTime) {
        let depth = self.fifo.len() as f64;
        if let Some(m) = &mut self.monitor {
            m.record_max(now.as_ps(), depth);
        }
    }

    /// Records a drop decided outside the queue (shared-buffer refusal).
    pub fn note_shared_drop(&mut self, wire_bytes: u64) {
        self.stats.dropped_pkts += 1;
        self.stats.dropped_bytes += wire_bytes;
        self.stats.shared_buffer_drops += 1;
    }

    /// Offers a packet. On acceptance the packet (possibly CE-marked) joins
    /// the FIFO tail; on overflow it is dropped and counted.
    pub fn enqueue(&mut self, now: SimTime, mut pkt: T) -> EnqueueOutcome {
        if self.would_overflow(&pkt) {
            self.stats.dropped_pkts += 1;
            self.stats.dropped_bytes += pkt.wire_bytes() as u64;
            return EnqueueOutcome::Dropped(DropReason::QueueFull);
        }
        let wire = pkt.wire_bytes() as u64;
        let marked = pkt.ecn_capable() && self.should_mark();
        if marked {
            pkt.mark_ce();
            self.stats.marked_pkts += 1;
        }
        self.bytes += wire;
        self.fifo.push_back(pkt);
        self.stats.enqueued_pkts += 1;
        self.stats.enqueued_bytes += wire;
        self.stats.watermark_bytes = self.stats.watermark_bytes.max(self.bytes);
        self.stats.watermark_pkts = self.stats.watermark_pkts.max(self.fifo.len() as u32);
        self.record_depth(now);
        EnqueueOutcome::Queued { marked }
    }

    /// Removes the head-of-line packet.
    pub fn dequeue(&mut self, now: SimTime) -> Option<T> {
        let pkt = self.fifo.pop_front()?;
        self.bytes -= pkt.wire_bytes() as u64;
        self.stats.dequeued_pkts += 1;
        self.stats.dequeued_bytes += pkt.wire_bytes() as u64;
        self.record_depth(now);
        Some(pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, NodeId};

    fn pkt(size_payload: u32) -> Packet {
        Packet::data(
            FlowId(0),
            NodeId(0),
            NodeId(1),
            0,
            size_payload,
            false,
            SimTime::ZERO,
        )
    }

    fn small_cfg() -> QueueConfig {
        QueueConfig {
            capacity_bytes: 4500, // three full frames
            capacity_pkts: None,
            ecn_threshold_pkts: Some(2),
            ecn_threshold_bytes: None,
        }
    }

    #[test]
    fn fifo_order_preserved() {
        let mut q = EcnQueue::new(QueueConfig::host_nic());
        for i in 0..5u32 {
            let mut p = pkt(100);
            p.id = i as u64;
            assert!(matches!(
                q.enqueue(SimTime::ZERO, p),
                EnqueueOutcome::Queued { .. }
            ));
        }
        for i in 0..5u64 {
            assert_eq!(q.dequeue(SimTime::ZERO).unwrap().id, i);
        }
        assert!(q.dequeue(SimTime::ZERO).is_none());
    }

    #[test]
    fn byte_capacity_enforced() {
        let mut q = EcnQueue::new(small_cfg());
        assert!(matches!(
            q.enqueue(SimTime::ZERO, pkt(1446)),
            EnqueueOutcome::Queued { .. }
        ));
        assert!(matches!(
            q.enqueue(SimTime::ZERO, pkt(1446)),
            EnqueueOutcome::Queued { .. }
        ));
        assert!(matches!(
            q.enqueue(SimTime::ZERO, pkt(1446)),
            EnqueueOutcome::Queued { .. }
        ));
        // Fourth full frame exceeds 4500 bytes.
        assert_eq!(
            q.enqueue(SimTime::ZERO, pkt(1446)),
            EnqueueOutcome::Dropped(DropReason::QueueFull)
        );
        assert_eq!(q.stats().dropped_pkts, 1);
        assert_eq!(q.stats().dropped_bytes, 1500);
        // After draining one, there is room again.
        q.dequeue(SimTime::ZERO).unwrap();
        assert!(matches!(
            q.enqueue(SimTime::ZERO, pkt(1446)),
            EnqueueOutcome::Queued { .. }
        ));
    }

    #[test]
    fn pkt_capacity_enforced() {
        let cfg = QueueConfig {
            capacity_bytes: u64::MAX / 2,
            capacity_pkts: Some(2),
            ecn_threshold_pkts: None,
            ecn_threshold_bytes: None,
        };
        let mut q = EcnQueue::new(cfg);
        q.enqueue(SimTime::ZERO, pkt(10));
        q.enqueue(SimTime::ZERO, pkt(10));
        assert_eq!(
            q.enqueue(SimTime::ZERO, pkt(10)),
            EnqueueOutcome::Dropped(DropReason::QueueFull)
        );
    }

    #[test]
    fn marks_at_threshold() {
        let mut q = EcnQueue::new(small_cfg()); // threshold 2 pkts
        assert_eq!(
            q.enqueue(SimTime::ZERO, pkt(100)),
            EnqueueOutcome::Queued { marked: false }
        );
        assert_eq!(
            q.enqueue(SimTime::ZERO, pkt(100)),
            EnqueueOutcome::Queued { marked: false }
        );
        // Third arrival observes 2 queued packets >= threshold -> marked.
        let out = q.enqueue(SimTime::ZERO, pkt(100));
        assert_eq!(out, EnqueueOutcome::Queued { marked: true });
        assert_eq!(q.stats().marked_pkts, 1);
        // The marked packet actually carries CE.
        q.dequeue(SimTime::ZERO);
        q.dequeue(SimTime::ZERO);
        assert!(q.dequeue(SimTime::ZERO).unwrap().is_ce());
    }

    #[test]
    fn non_ect_packets_never_marked() {
        let mut q = EcnQueue::new(small_cfg());
        for _ in 0..2 {
            q.enqueue(SimTime::ZERO, pkt(100));
        }
        let ack = Packet::ack(FlowId(0), NodeId(0), NodeId(1), 0, false, SimTime::ZERO);
        assert_eq!(
            q.enqueue(SimTime::ZERO, ack),
            EnqueueOutcome::Queued { marked: false }
        );
    }

    #[test]
    fn byte_threshold_marking() {
        let cfg = QueueConfig {
            capacity_bytes: 1_000_000,
            capacity_pkts: None,
            ecn_threshold_pkts: None,
            ecn_threshold_bytes: Some(3000),
        };
        let mut q = EcnQueue::new(cfg);
        assert_eq!(
            q.enqueue(SimTime::ZERO, pkt(1446)),
            EnqueueOutcome::Queued { marked: false }
        );
        assert_eq!(
            q.enqueue(SimTime::ZERO, pkt(1446)),
            EnqueueOutcome::Queued { marked: false }
        );
        assert_eq!(
            q.enqueue(SimTime::ZERO, pkt(1446)),
            EnqueueOutcome::Queued { marked: true }
        );
    }

    #[test]
    fn ecn_thresholds_can_be_rewritten_at_runtime() {
        let mut q = EcnQueue::new(small_cfg()); // threshold 2 pkts
        q.enqueue(SimTime::ZERO, pkt(100));
        q.enqueue(SimTime::ZERO, pkt(100));
        // Mis-configuration window: marking disabled.
        q.set_ecn_thresholds(None, None);
        assert_eq!(
            q.enqueue(SimTime::ZERO, pkt(100)),
            EnqueueOutcome::Queued { marked: false }
        );
        // Restored: the next arrival observes 3 queued >= 2 and is marked.
        q.set_ecn_thresholds(Some(2), None);
        assert_eq!(
            q.enqueue(SimTime::ZERO, pkt(100)),
            EnqueueOutcome::Queued { marked: true }
        );
    }

    #[test]
    fn watermarks_track_peaks() {
        let mut q = EcnQueue::new(QueueConfig::host_nic());
        q.enqueue(SimTime::ZERO, pkt(1446));
        q.enqueue(SimTime::ZERO, pkt(1446));
        q.dequeue(SimTime::ZERO);
        q.dequeue(SimTime::ZERO);
        assert_eq!(q.stats().watermark_pkts, 2);
        assert_eq!(q.stats().watermark_bytes, 3000);
        assert_eq!(q.bytes(), 0);
        assert!(q.is_empty());
    }

    #[test]
    fn monitor_records_max_depth_per_bucket() {
        let mut q = EcnQueue::new(QueueConfig::host_nic());
        q.enable_monitor(SimTime::from_us(10));
        q.enqueue(SimTime::from_us(1), pkt(100));
        q.enqueue(SimTime::from_us(2), pkt(100));
        q.dequeue(SimTime::from_us(3));
        q.dequeue(SimTime::from_us(12));
        let m = q.monitor().unwrap();
        assert_eq!(m.get(0), 2.0); // peak in first bucket
        assert_eq!(m.get(1), 0.0); // drained in second
    }

    #[test]
    fn take_monitor_moves_out_what_monitor_showed() {
        let mut q = EcnQueue::new(QueueConfig::host_nic());
        assert!(q.take_monitor().is_none());
        q.enable_monitor(SimTime::from_us(10));
        for us in 0..3000 {
            q.enqueue(SimTime::from_us(us), pkt(100));
            if us % 3 == 0 {
                q.dequeue(SimTime::from_us(us));
            }
        }
        let shown = q.monitor().unwrap().clone();
        let taken = q.take_monitor().unwrap();
        assert!(taken.iter().eq(shown.iter()));
        assert_eq!(taken.interval(), shown.interval());
        assert_eq!(taken.len(), 300);
        assert!(q.monitor().is_none());
        assert!(q.take_monitor().is_none());
        // Monitoring has ended: later activity records nothing.
        q.dequeue(SimTime::from_us(4000));
        assert!(q.monitor().is_none());
    }

    #[test]
    fn conservation_enq_eq_deq_plus_queued() {
        let mut q = EcnQueue::new(small_cfg());
        let mut dropped = 0;
        for _ in 0..10 {
            if matches!(
                q.enqueue(SimTime::ZERO, pkt(1446)),
                EnqueueOutcome::Dropped(_)
            ) {
                dropped += 1;
            }
        }
        let mut deq = 0;
        while q.dequeue(SimTime::ZERO).is_some() {
            deq += 1;
        }
        assert_eq!(q.stats().enqueued_pkts, 10 - dropped);
        assert_eq!(q.stats().dropped_pkts, dropped);
        assert_eq!(deq, 10 - dropped);
        assert_eq!(q.bytes(), 0);
    }

    #[test]
    fn paper_tor_constants() {
        let cfg = QueueConfig::paper_tor();
        assert_eq!(cfg.capacity_pkts, Some(1333));
        assert_eq!(cfg.ecn_threshold_pkts, Some(65));
        // 1333 full frames actually fit in the byte budget.
        assert!(1333 * 1500 <= cfg.capacity_bytes);
    }
}
