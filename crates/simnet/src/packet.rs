//! Packets on the simulated wire.
//!
//! A [`Packet`] models one Ethernet frame. Sizes are wire sizes (payload plus
//! [`HEADER_BYTES`] of Ethernet/IP/TCP headers), so queue occupancy in bytes
//! matches what a real switch would count. Sequence and acknowledgment
//! numbers are 32-bit wrapping values exactly as on a real TCP wire; the
//! transport crate owns the unwrap logic.

use crate::ids::{FlowId, NodeId};
use crate::time::SimTime;

/// Ethernet + IPv4 + TCP header bytes carried by every segment.
pub const HEADER_BYTES: u32 = 54;
/// Minimum Ethernet frame size; pure ACKs are padded up to this.
pub const MIN_FRAME_BYTES: u32 = 64;
/// Default maximum segment size (payload bytes) for a 1500 B frame.
pub const DEFAULT_MSS: u32 = 1500 - HEADER_BYTES;

/// ECN codepoint in the IP header.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ecn {
    /// Not ECN-capable transport.
    NotEct,
    /// ECN-capable transport (ECT(0)).
    Ect0,
    /// Congestion Experienced — set by a switch whose queue exceeded the
    /// marking threshold.
    Ce,
}

impl Ecn {
    /// True if a switch may mark this packet instead of relying on loss.
    pub fn is_capable(self) -> bool {
        matches!(self, Ecn::Ect0 | Ecn::Ce)
    }
}

/// Maximum ACK ranges carried by one QUIC-style acknowledgment frame.
pub const MAX_ACK_BLOCKS: usize = 3;

/// The packet-number ranges carried by a QUIC-style ACK: inclusive
/// `(lo, hi)` wire packet numbers, **descending and disjoint**, so
/// `ranges()[0].1` is the largest acknowledged packet number. Fixed-size
/// and `Copy` so packets keep parking in the [`PacketPool`] slab without
/// heap allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AckBlocks {
    ranges: [(u32, u32); MAX_ACK_BLOCKS],
    len: u8,
}

impl AckBlocks {
    /// Builds a block set from up to [`MAX_ACK_BLOCKS`] inclusive wire
    /// ranges in descending order. Panics on overflow or a malformed range
    /// (`lo > hi` under wrapping is not detectable here; callers pass
    /// already-wrapped values from a sorted range set).
    pub fn new(ranges: &[(u32, u32)]) -> Self {
        assert!(ranges.len() <= MAX_ACK_BLOCKS, "too many ACK blocks");
        assert!(!ranges.is_empty(), "empty ACK frame");
        let mut fixed = [(0u32, 0u32); MAX_ACK_BLOCKS];
        fixed[..ranges.len()].copy_from_slice(ranges);
        AckBlocks {
            ranges: fixed,
            len: ranges.len() as u8,
        }
    }

    /// Largest acknowledged wire packet number.
    pub fn largest(&self) -> u32 {
        self.ranges[0].1
    }

    /// The inclusive wire ranges, descending.
    pub fn ranges(&self) -> &[(u32, u32)] {
        &self.ranges[..self.len as usize]
    }

    /// Number of ranges carried.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True if no ranges are carried (never constructed by `new`).
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// The transport-visible contents of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// A TCP data segment.
    Data {
        /// Wire sequence number of the first payload byte (wrapping u32).
        seq: u32,
        /// Payload bytes carried.
        payload: u32,
        /// True if this is a retransmission (diagnostic only; receivers must
        /// not rely on it for protocol decisions).
        retx: bool,
        /// Send timestamp, echoed by the ACK for RTT sampling (models the
        /// TCP timestamp option).
        ts: SimTime,
    },
    /// A pure TCP acknowledgment.
    Ack {
        /// Cumulative acknowledgment number (wrapping u32).
        ack: u32,
        /// ECN-Echo: the receiver saw Congestion Experienced.
        ece: bool,
        /// Echo of the newest acknowledged segment's `ts` (zero if unknown).
        ts_echo: SimTime,
    },
    /// A QUIC-style data packet: every transmission — including a
    /// retransmission of previously sent stream bytes — carries a fresh
    /// monotonic packet number, and the stream offset locates the payload.
    QuicData {
        /// Wire packet number (wrapping u32; never reused within a flow).
        pn: u32,
        /// Wire stream offset of the first payload byte (wrapping u32).
        offset: u32,
        /// Payload bytes carried.
        payload: u32,
        /// True if the stream bytes were sent before under another packet
        /// number (diagnostic only).
        retx: bool,
        /// Send timestamp, echoed by the ACK for RTT sampling.
        ts: SimTime,
    },
    /// A QUIC-style acknowledgment carrying packet-number ranges.
    QuicAck {
        /// Acknowledged packet-number ranges, descending.
        blocks: AckBlocks,
        /// ECN-Echo: the receiver saw Congestion Experienced.
        ece: bool,
        /// Echo of the triggering packet's `ts` (zero if unknown).
        ts_echo: SimTime,
    },
    /// An application control message: the coordinator's request to a worker,
    /// carrying how many response bytes to send. Models the
    /// partition/aggregate request leg; delivered directly to the
    /// application, bypassing TCP.
    Ctrl {
        /// Response bytes the worker should send.
        demand: u64,
        /// Burst index, for bookkeeping at the worker.
        burst: u64,
    },
    /// A switch-originated incast notification (Pulser-style): the detecting
    /// switch asks a sender host to pause new transmissions (or cut its
    /// congestion window) for the carried duration. Travels the ordinary
    /// data path, so it is subject to every queue and fault a data frame is.
    Notif {
        /// Episode epoch at the detecting port. Senders ignore epochs they
        /// have already acted on, making duplicated/reordered/stale
        /// notifications idempotent.
        epoch: u32,
        /// Requested pause duration (senders clamp to their guard bound).
        pause: SimTime,
        /// True to cut the congestion window instead of pausing.
        cut: bool,
    },
    /// A host's acknowledgment of a [`PacketKind::Notif`], addressed to the
    /// detecting switch so it stops re-firing the episode at this sender.
    NotifAck {
        /// Epoch being acknowledged.
        epoch: u32,
    },
}

/// One frame in flight or queued.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Globally unique packet id (assigned by the simulator at send time).
    pub id: u64,
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Originating host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Total bytes on the wire (headers included).
    pub wire_size: u32,
    /// ECN codepoint.
    pub ecn: Ecn,
    /// Transport contents.
    pub kind: PacketKind,
}

impl Packet {
    /// Builds a data segment with the conventional wire size.
    pub fn data(
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        seq: u32,
        payload: u32,
        retx: bool,
        ts: SimTime,
    ) -> Self {
        Packet {
            id: 0,
            flow,
            src,
            dst,
            wire_size: (payload + HEADER_BYTES).max(MIN_FRAME_BYTES),
            ecn: Ecn::Ect0,
            kind: PacketKind::Data {
                seq,
                payload,
                retx,
                ts,
            },
        }
    }

    /// Builds a pure ACK (minimum frame size, not ECN-capable — like Linux,
    /// which sends ACKs as non-ECT).
    pub fn ack(
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        ack: u32,
        ece: bool,
        ts_echo: SimTime,
    ) -> Self {
        Packet {
            id: 0,
            flow,
            src,
            dst,
            wire_size: MIN_FRAME_BYTES,
            ecn: Ecn::NotEct,
            kind: PacketKind::Ack { ack, ece, ts_echo },
        }
    }

    /// Builds a QUIC-style data packet with the conventional wire size.
    #[allow(clippy::too_many_arguments)]
    pub fn quic_data(
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        pn: u32,
        offset: u32,
        payload: u32,
        retx: bool,
        ts: SimTime,
    ) -> Self {
        Packet {
            id: 0,
            flow,
            src,
            dst,
            wire_size: (payload + HEADER_BYTES).max(MIN_FRAME_BYTES),
            ecn: Ecn::Ect0,
            kind: PacketKind::QuicData {
                pn,
                offset,
                payload,
                retx,
                ts,
            },
        }
    }

    /// Builds a QUIC-style ACK (minimum frame size, not ECN-capable).
    pub fn quic_ack(
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        blocks: AckBlocks,
        ece: bool,
        ts_echo: SimTime,
    ) -> Self {
        Packet {
            id: 0,
            flow,
            src,
            dst,
            wire_size: MIN_FRAME_BYTES,
            ecn: Ecn::NotEct,
            kind: PacketKind::QuicAck {
                blocks,
                ece,
                ts_echo,
            },
        }
    }

    /// Builds a control (request) message.
    pub fn ctrl(flow: FlowId, src: NodeId, dst: NodeId, demand: u64, burst: u64) -> Self {
        Packet {
            id: 0,
            flow,
            src,
            dst,
            wire_size: MIN_FRAME_BYTES * 2, // a small RPC request
            ecn: Ecn::NotEct,
            kind: PacketKind::Ctrl { demand, burst },
        }
    }

    /// Builds an incast notification frame (minimum frame size, not
    /// ECN-capable — control frames are never marked, only lost).
    pub fn notif(
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        epoch: u32,
        pause: SimTime,
        cut: bool,
    ) -> Self {
        Packet {
            id: 0,
            flow,
            src,
            dst,
            wire_size: MIN_FRAME_BYTES,
            ecn: Ecn::NotEct,
            kind: PacketKind::Notif { epoch, pause, cut },
        }
    }

    /// Builds a notification acknowledgment (minimum frame size, not
    /// ECN-capable), addressed back to the detecting switch.
    pub fn notif_ack(flow: FlowId, src: NodeId, dst: NodeId, epoch: u32) -> Self {
        Packet {
            id: 0,
            flow,
            src,
            dst,
            wire_size: MIN_FRAME_BYTES,
            ecn: Ecn::NotEct,
            kind: PacketKind::NotifAck { epoch },
        }
    }

    /// Payload bytes if this is a data segment (either stack), else 0.
    pub fn payload_bytes(&self) -> u32 {
        match self.kind {
            PacketKind::Data { payload, .. } | PacketKind::QuicData { payload, .. } => payload,
            _ => 0,
        }
    }

    /// True for data segments of either transport stack.
    pub fn is_data(&self) -> bool {
        matches!(
            self.kind,
            PacketKind::Data { .. } | PacketKind::QuicData { .. }
        )
    }

    /// True if marked Congestion Experienced.
    pub fn is_ce(&self) -> bool {
        self.ecn == Ecn::Ce
    }
}

/// An index into a [`PacketPool`], carried by in-flight `Delivery` events in
/// place of the packet itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketSlot(pub u32);

/// A queued packet's residence card: the pool slot plus the only fields an
/// egress queue reads (wire size, ECN capability). Link FIFOs move these
/// 12-byte cards instead of full packets, so queue occupancy is split away
/// from packet contents (struct-of-arrays) and a packet is written into the
/// pool exactly once per send, not copied per hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueuedFrame {
    /// Where the packet itself is parked.
    pub slot: PacketSlot,
    /// Total bytes on the wire (headers included); mirrors the pooled
    /// packet's `wire_size` so byte accounting needs no pool lookup.
    pub wire: u32,
    /// Mirrors the pooled packet's ECN capability at enqueue time.
    pub ecn_capable: bool,
    /// Set when the queue CE-marked this frame (the simulator applies the
    /// mark to the pooled packet; this records the queue's own decision).
    pub ce: bool,
}

/// A slab of in-flight packets with a LIFO free list.
///
/// Every packet propagating on a wire parks here between `TxComplete` and
/// `Delivery`; the scheduler moves only a 4-byte [`PacketSlot`]. After the
/// warm-up frames of a run the pool stops growing (capacity tracks the peak
/// number of frames simultaneously in flight), so the steady-state packet
/// path performs no heap allocation.
///
/// Slot reuse is LIFO, which keeps slot assignment deterministic: two runs
/// of the same seed insert and take in the same order and therefore see the
/// same slot numbers.
#[derive(Debug, Default)]
pub struct PacketPool {
    slots: Vec<Packet>,
    free: Vec<u32>,
    live: u32,
    high_water: u32,
}

impl PacketPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parks `pkt` and returns its slot.
    pub fn insert(&mut self, pkt: Packet) -> PacketSlot {
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        match self.free.pop() {
            Some(i) => {
                self.slots[i as usize] = pkt;
                PacketSlot(i)
            }
            None => {
                let i = u32::try_from(self.slots.len()).expect("packet pool overflow");
                self.slots.push(pkt);
                PacketSlot(i)
            }
        }
    }

    /// Read access to the packet parked in `slot`.
    #[inline]
    pub fn get(&self, slot: PacketSlot) -> &Packet {
        debug_assert!(
            !self.free.contains(&slot.0),
            "get of freed packet slot {}",
            slot.0
        );
        &self.slots[slot.0 as usize]
    }

    /// Mutable access to the packet parked in `slot` (e.g. to apply a CE
    /// mark decided by a queue while the packet stays pooled).
    #[inline]
    pub fn get_mut(&mut self, slot: PacketSlot) -> &mut Packet {
        debug_assert!(
            !self.free.contains(&slot.0),
            "get_mut of freed packet slot {}",
            slot.0
        );
        &mut self.slots[slot.0 as usize]
    }

    /// Removes and returns the packet parked in `slot`, freeing it for
    /// reuse. Each slot handed out by [`PacketPool::insert`] must be taken
    /// exactly once.
    pub fn take(&mut self, slot: PacketSlot) -> Packet {
        debug_assert!(
            !self.free.contains(&slot.0),
            "double take of packet slot {}",
            slot.0
        );
        self.live -= 1;
        self.free.push(slot.0);
        self.slots[slot.0 as usize]
    }

    /// Packets currently parked.
    pub fn live(&self) -> usize {
        self.live as usize
    }

    /// Peak simultaneous occupancy over the pool's lifetime.
    pub fn high_water(&self) -> usize {
        self.high_water as usize
    }

    /// Slots ever allocated — the pool's total heap footprint in packets.
    /// Equals [`PacketPool::high_water`] by construction; reported
    /// separately as the packet path's allocs-per-run baseline.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids() -> (FlowId, NodeId, NodeId) {
        (FlowId(1), NodeId(0), NodeId(9))
    }

    #[test]
    fn data_wire_size_includes_headers() {
        let (f, s, d) = ids();
        let p = Packet::data(f, s, d, 0, DEFAULT_MSS, false, SimTime::ZERO);
        assert_eq!(p.wire_size, 1500);
        assert_eq!(p.payload_bytes(), DEFAULT_MSS);
        assert!(p.is_data());
        assert_eq!(p.ecn, Ecn::Ect0);
    }

    #[test]
    fn tiny_data_padded_to_min_frame() {
        let (f, s, d) = ids();
        let p = Packet::data(f, s, d, 0, 1, false, SimTime::ZERO);
        assert_eq!(p.wire_size, MIN_FRAME_BYTES);
    }

    #[test]
    fn ack_is_min_frame_and_not_ect() {
        let (f, s, d) = ids();
        let p = Packet::ack(f, s, d, 42, true, SimTime::from_us(3));
        assert_eq!(p.wire_size, MIN_FRAME_BYTES);
        assert!(!p.ecn.is_capable());
        assert!(!p.is_data());
        assert_eq!(p.payload_bytes(), 0);
    }

    #[test]
    fn ce_detection() {
        let (f, s, d) = ids();
        let mut p = Packet::data(f, s, d, 0, 100, false, SimTime::ZERO);
        assert!(!p.is_ce());
        p.ecn = Ecn::Ce;
        assert!(p.is_ce());
        assert!(p.ecn.is_capable());
    }

    #[test]
    fn pool_reuses_slots_lifo() {
        let (f, s, d) = ids();
        let pkt = |n| Packet::data(f, s, d, n, 100, false, SimTime::ZERO);
        let mut pool = PacketPool::new();
        let a = pool.insert(pkt(0));
        let b = pool.insert(pkt(1));
        assert_eq!((a, b), (PacketSlot(0), PacketSlot(1)));
        assert_eq!(pool.take(a).payload_bytes(), 100);
        // Freed slot 0 is reused before the slab grows.
        let c = pool.insert(pkt(2));
        assert_eq!(c, PacketSlot(0));
        assert_eq!(pool.capacity(), 2);
        assert_eq!(pool.high_water(), 2);
        assert_eq!(pool.live(), 2);
        pool.take(b);
        pool.take(c);
        assert_eq!(pool.live(), 0);
        assert_eq!(pool.capacity(), 2, "capacity tracks peak, not total");
    }

    #[test]
    fn pool_round_trips_contents() {
        let (f, s, d) = ids();
        let mut pool = PacketPool::new();
        let sent = Packet::ctrl(f, s, d, 187_500, 7);
        let slot = pool.insert(sent);
        assert_eq!(pool.take(slot), sent);
    }

    #[test]
    fn quic_data_wire_size_matches_tcp_framing() {
        let (f, s, d) = ids();
        let p = Packet::quic_data(f, s, d, 3, 0, DEFAULT_MSS, false, SimTime::ZERO);
        assert_eq!(p.wire_size, 1500);
        assert_eq!(p.payload_bytes(), DEFAULT_MSS);
        assert!(p.is_data());
        assert_eq!(p.ecn, Ecn::Ect0);
    }

    #[test]
    fn quic_ack_is_min_frame_and_carries_descending_blocks() {
        let (f, s, d) = ids();
        let blocks = AckBlocks::new(&[(9, 12), (2, 5)]);
        assert_eq!(blocks.largest(), 12);
        assert_eq!(blocks.len(), 2);
        assert!(!blocks.is_empty());
        assert_eq!(blocks.ranges(), &[(9, 12), (2, 5)]);
        let p = Packet::quic_ack(f, s, d, blocks, true, SimTime::from_us(3));
        assert_eq!(p.wire_size, MIN_FRAME_BYTES);
        assert!(!p.ecn.is_capable());
        assert!(!p.is_data());
        assert_eq!(p.payload_bytes(), 0);
    }

    #[test]
    fn notif_frames_are_min_frame_and_not_ect() {
        let (f, s, d) = ids();
        let n = Packet::notif(f, s, d, 3, SimTime::from_us(150), false);
        assert_eq!(n.wire_size, MIN_FRAME_BYTES);
        assert!(!n.ecn.is_capable());
        assert!(!n.is_data());
        match n.kind {
            PacketKind::Notif { epoch, pause, cut } => {
                assert_eq!(epoch, 3);
                assert_eq!(pause, SimTime::from_us(150));
                assert!(!cut);
            }
            _ => panic!("wrong kind"),
        }
        let a = Packet::notif_ack(f, d, s, 3);
        assert_eq!(a.wire_size, MIN_FRAME_BYTES);
        assert!(!a.ecn.is_capable());
        assert_eq!(a.kind, PacketKind::NotifAck { epoch: 3 });
    }

    #[test]
    fn ctrl_carries_demand() {
        let (f, s, d) = ids();
        let p = Packet::ctrl(f, s, d, 187_500, 7);
        match p.kind {
            PacketKind::Ctrl { demand, burst } => {
                assert_eq!(demand, 187_500);
                assert_eq!(burst, 7);
            }
            _ => panic!("wrong kind"),
        }
    }
}
