//! Receiver reassembly under adversarial segment orderings: whatever order
//! (and however duplicated) segments arrive in, the application sees the
//! byte stream exactly once, in order — and the receiver's out-of-order
//! range set behaves exactly like the `BTreeMap` reassembly it replaced,
//! kept here as [`MapModel`].
//!
//! Seeded `stats::Rng` case loops, so the workspace carries no external
//! dev-dependencies.

use std::collections::BTreeMap;

use simnet::{Cmd, Ctx, FlowId, NodeId, SimTime};
use transport::{seq, Receiver, TcpConfig};

fn deliver(rx: &mut Receiver, cmds: &mut Vec<Cmd>, start: u64, len: u32, t: u64) -> u64 {
    let mut ctx = Ctx::new(SimTime::from_us(t), NodeId(1), cmds);
    rx.on_data(&mut ctx, seq::wrap(start), len, false, SimTime::ZERO)
}

/// Segments of a contiguous stream, shuffled and partially duplicated:
/// total in-order delivery equals the stream length exactly.
#[test]
fn shuffled_segments_deliver_exactly_once() {
    let mut rng = stats::Rng::new(0x5EA55E1);
    for _ in 0..48 {
        let seg_count = rng.range_u64(1, 39) as usize;
        let seg_len = rng.range_u64(1, 1999) as u32;
        let dup_count = rng.range_u64(0, 79) as usize;
        let order: Vec<usize> = (0..dup_count).map(|_| rng.below(40) as usize).collect();

        let cfg = TcpConfig::default();
        let mut rx = Receiver::new(FlowId(0), NodeId(0), &cfg);
        let mut cmds = Vec::new();
        let total = seg_count as u64 * seg_len as u64;

        // A deterministic shuffle of all segments, then extra duplicates
        // from `order`.
        let mut idx: Vec<usize> = (0..seg_count).collect();
        rng.shuffle(&mut idx);
        let mut delivered = 0u64;
        for (t, &i) in idx
            .iter()
            .chain(order.iter().filter(|&&i| i < seg_count))
            .enumerate()
        {
            let start = i as u64 * seg_len as u64;
            delivered += deliver(&mut rx, &mut cmds, start, seg_len, t as u64);
        }
        assert_eq!(delivered, total, "in-order delivery total");
        assert_eq!(rx.delivered(), total);
        // Everything reassembled: no gaps left.
        assert_eq!(rx.ooo_ranges().count(), 0);
        // The receiver acked every arrival.
        assert!(rx.stats().acks_sent >= seg_count as u64);
    }
}

/// Overlapping random chunks of a stream still produce monotonic,
/// gap-free delivery up to the highest contiguous byte.
#[test]
fn random_overlapping_chunks_never_double_deliver() {
    let mut rng = stats::Rng::new(0xC4);
    for _ in 0..48 {
        let n = rng.range_u64(1, 60) as usize;
        let chunks: Vec<(u64, u32)> = (0..n)
            .map(|_| (rng.below(5000), rng.range_u64(1, 1499) as u32))
            .collect();

        let cfg = TcpConfig::default();
        let mut rx = Receiver::new(FlowId(0), NodeId(0), &cfg);
        let mut cmds = Vec::new();
        let mut covered: Vec<(u64, u64)> = Vec::new();
        let mut delivered = 0u64;
        for (i, &(start, len)) in chunks.iter().enumerate() {
            delivered += deliver(&mut rx, &mut cmds, start, len, i as u64);
            covered.push((start, start + len as u64));
        }
        // Expected contiguous prefix from 0 across the union of chunks.
        covered.sort_unstable();
        let mut prefix = 0u64;
        for &(s, e) in &covered {
            if s <= prefix {
                prefix = prefix.max(e);
            } else {
                break;
            }
        }
        assert_eq!(delivered, prefix, "delivery equals contiguous prefix");
        assert_eq!(rx.delivered(), prefix);
    }
}

/// The `BTreeMap` reassembly the receiver used before its out-of-order
/// bytes moved into an `AckRanges`: start -> end of disjoint, non-touching
/// ranges above `rcv_nxt`, merged one neighbour at a time.
#[derive(Default)]
struct MapModel {
    rcv_nxt: u64,
    ooo: BTreeMap<u64, u64>,
    dup_bytes: u64,
}

impl MapModel {
    fn on_segment(&mut self, s: u64, e: u64) {
        let mut dup = e.min(self.rcv_nxt).saturating_sub(s);
        for (&rs, &re) in self.ooo.range(..e) {
            if re > s {
                dup += re.min(e).saturating_sub(rs.max(s));
            }
        }
        self.dup_bytes += dup;
        if e <= self.rcv_nxt {
            return;
        }
        if s <= self.rcv_nxt {
            self.rcv_nxt = e;
            while let Some((&rs, &re)) = self.ooo.first_key_value() {
                if rs > self.rcv_nxt {
                    break;
                }
                self.ooo.remove(&rs);
                self.rcv_nxt = self.rcv_nxt.max(re);
            }
            return;
        }
        let (mut new_s, mut new_e) = (s, e);
        while let Some((&rs, &re)) = self.ooo.range(..=new_e).find(|(_, &re)| re >= new_s) {
            self.ooo.remove(&rs);
            new_s = new_s.min(rs);
            new_e = new_e.max(re);
        }
        self.ooo.insert(new_s, new_e);
    }
}

/// A lossy, reordering, duplicating arrival sequence: mostly the next
/// segment at the frontier, sometimes a segment from up to a window ahead
/// (a gap), and sometimes a retransmission of anything already sent.
fn arrivals(rng: &mut stats::Rng) -> Vec<(u64, u32)> {
    let mss = rng.range_u64(1, 1500);
    let mut next = 0u64;
    (0..rng.range_u64(1, 300))
        .map(|_| {
            let len = if rng.chance(0.2) {
                rng.range_u64(1, 2 * mss)
            } else {
                mss
            };
            let start = match rng.below(10) {
                0..=5 => next,
                6..=7 => next + rng.below(8) * mss,
                _ => rng.below(next + 1),
            };
            next = next.max(start + len);
            (start, len as u32)
        })
        .collect()
}

/// The TCP and QUIC receive paths against the map model, segment by
/// segment: delivered bytes, duplicate bytes and the out-of-order ranges.
#[test]
fn reassembly_matches_the_map_model_on_both_receive_paths() {
    let mut rng = stats::Rng::new(0x2EA5_5E3B);
    let mut gaps = 0usize;
    for case in 0..200 {
        let segs = arrivals(&mut rng);
        for quic in [false, true] {
            let cfg = TcpConfig::default();
            let mut rx = Receiver::new(FlowId(0), NodeId(0), &cfg);
            let mut model = MapModel::default();
            let mut cmds = Vec::new();
            for (pn, &(start, len)) in segs.iter().enumerate() {
                let mut ctx = Ctx::new(SimTime::from_us(pn as u64), NodeId(1), &mut cmds);
                let newly = if quic {
                    let pn = seq::wrap(pn as u64);
                    rx.on_quic_data(&mut ctx, pn, seq::wrap(start), len, false, SimTime::ZERO)
                } else {
                    rx.on_data(&mut ctx, seq::wrap(start), len, false, SimTime::ZERO)
                };
                cmds.clear();
                let before = model.rcv_nxt;
                model.on_segment(start, start + len as u64);
                let what = format!("case {case} quic={quic} segment {pn} [{start}, +{len})");
                assert_eq!(newly, model.rcv_nxt - before, "{what}: newly delivered");
                assert_eq!(rx.delivered(), model.rcv_nxt, "{what}: delivered");
                assert_eq!(rx.stats().dup_bytes, model.dup_bytes, "{what}: dup_bytes");
                let want: Vec<(u64, u64)> = model.ooo.iter().map(|(&s, &e)| (s, e)).collect();
                let got: Vec<(u64, u64)> = rx.ooo_ranges().collect();
                assert_eq!(got, want, "{what}: out-of-order ranges");
                gaps = gaps.max(want.len());
            }
        }
    }
    assert!(gaps >= 3, "no case held several gaps at once (max {gaps})");
}
