//! Sorted, disjoint half-open ranges over a `u64` space.
//!
//! [`AckRanges`] is the one range set of both stacks: receivers track
//! received packet numbers (capped on insert, so the ACK frame stays
//! bounded like a real one) and out-of-order stream bytes in it, QUIC
//! senders track acknowledged stream bytes and pending retransmission
//! bytes. A packet number `n` is stored as the byte range `[n, n+1)`.
//!
//! The first range is held in place, which is every set's steady state (a
//! contiguous prefix, or nothing). A second range moves the set to a `Vec`
//! for good, so a set that has once had a hole never allocates again.
//!
//! Invariants (checked by the property suite in
//! `tests/ranges_properties.rs` against a `BTreeSet` model):
//! - ranges are sorted ascending, non-empty, and pairwise disjoint;
//! - adjacent ranges are merged (`[0,3)` + `[3,5)` becomes `[0,5)`);
//! - a capped insert only ever forgets the *lowest* ranges, so the largest
//!   element is exact and monotone.

use std::ops::Range;

use simnet::packet::{AckBlocks, MAX_ACK_BLOCKS};

use crate::seq;

/// A set of `u64` values stored as sorted, disjoint, half-open ranges.
/// Compare sets by [`AckRanges::ranges`]: one range may be held either way.
#[derive(Debug, Clone)]
pub struct AckRanges(Store);

#[derive(Debug, Clone)]
enum Store {
    /// At most one range, in place.
    Inline(Option<(u64, u64)>),
    /// Sorted ascending; each `(lo, hi)` is non-empty (`lo < hi`), and
    /// consecutive ranges neither overlap nor touch.
    Spilled(Vec<(u64, u64)>),
}

impl Default for AckRanges {
    fn default() -> Self {
        AckRanges(Store::Inline(None))
    }
}

impl AckRanges {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// True if nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.ranges().is_empty()
    }

    /// Empties the set, keeping a spilled set's allocation.
    pub fn clear(&mut self) {
        match &mut self.0 {
            Store::Inline(r) => *r = None,
            Store::Spilled(v) => v.clear(),
        }
    }

    /// Number of stored ranges.
    pub fn num_ranges(&self) -> usize {
        self.ranges().len()
    }

    /// The stored ranges, ascending.
    pub fn ranges(&self) -> &[(u64, u64)] {
        match &self.0 {
            Store::Inline(r) => r.as_slice(),
            Store::Spilled(v) => v,
        }
    }

    fn ranges_mut(&mut self) -> &mut [(u64, u64)] {
        match &mut self.0 {
            Store::Inline(r) => r.as_mut_slice(),
            Store::Spilled(v) => v,
        }
    }

    /// Puts `r` at index `i`, spilling if the inline slot is taken.
    fn insert_at(&mut self, i: usize, r: (u64, u64)) {
        match &mut self.0 {
            Store::Inline(slot @ None) => *slot = Some(r),
            Store::Inline(Some(first)) => {
                // The capacity a first push would allocate.
                let mut v = Vec::with_capacity(4);
                v.push(*first);
                v.insert(i, r);
                self.0 = Store::Spilled(v);
            }
            Store::Spilled(v) => v.insert(i, r),
        }
    }

    /// Drops the ranges at indices `at` (inline, `at` is empty or `0..1`).
    fn drain(&mut self, at: Range<usize>) {
        match &mut self.0 {
            Store::Inline(r) => *r = r.filter(|_| at.is_empty()),
            Store::Spilled(v) => drop(v.drain(at)),
        }
    }

    /// One past the largest stored value (0 if empty).
    pub fn end(&self) -> u64 {
        self.ranges().last().map_or(0, |&(_, hi)| hi)
    }

    /// End of the contiguous prefix starting at 0 (0 if the set does not
    /// contain 0). For a sender's acked-bytes set this is the delivered
    /// prefix — the QUIC analogue of `SND.UNA`.
    pub fn prefix_end(&self) -> u64 {
        match self.ranges().first() {
            Some(&(0, hi)) => hi,
            _ => 0,
        }
    }

    /// Inserts `[lo, hi)`, merging with overlapping or touching neighbours.
    /// Returns how many values were newly added.
    pub fn insert(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo < hi, "empty or inverted range [{lo}, {hi})");
        let ranges = self.ranges();
        // First range whose end reaches our start (a candidate to merge).
        let i = ranges.partition_point(|&(_, h)| h < lo);
        // Ranges [i, j) overlap or touch [lo, hi).
        let j = i + ranges[i..].partition_point(|&(l, _)| l <= hi);
        if i == j {
            self.insert_at(i, (lo, hi));
            return hi - lo;
        }
        let merged = (ranges[i].0.min(lo), ranges[j - 1].1.max(hi));
        let had: u64 = ranges[i..j].iter().map(|&(l, h)| h - l).sum();
        self.ranges_mut()[i] = merged;
        self.drain(i + 1..j);
        merged.1 - merged.0 - had
    }

    /// Inserts the single value `v`. Returns true if it was new.
    pub fn insert_one(&mut self, v: u64) -> bool {
        self.insert(v, v + 1) > 0
    }

    /// Inserts `[lo, hi)`, then forgets the lowest ranges past `cap`,
    /// mirroring a receiver that drops old gaps to bound its ACK state.
    pub fn insert_capped(&mut self, lo: u64, hi: u64, cap: usize) {
        self.insert(lo, hi);
        self.drain(0..self.num_ranges().saturating_sub(cap));
    }

    /// Removes `[lo, hi)` from the set (values outside are untouched).
    ///
    /// In place: the overlapped ranges form one contiguous run, which
    /// shrinks to at most a left and a right remnant. The ACK hot path
    /// calls this per acknowledged packet, so the no-overlap and
    /// single-range cases must not touch the heap (only a mid-range split
    /// can grow the set, and then only past its retained capacity).
    pub fn remove(&mut self, lo: u64, hi: u64) {
        assert!(lo < hi, "empty or inverted range [{lo}, {hi})");
        let ranges = self.ranges();
        // Ranges entirely below `lo` keep; the run [i, j) overlaps [lo, hi).
        let i = ranges.partition_point(|&(_, h)| h <= lo);
        let j = i + ranges[i..].partition_point(|&(l, _)| l < hi);
        if i == j {
            return;
        }
        let left = ranges[i].0 < lo;
        let end = ranges[j - 1].1;
        match (left, end > hi) {
            (true, true) => {
                self.ranges_mut()[i].1 = lo;
                if j - i == 1 {
                    self.insert_at(i + 1, (hi, end));
                } else {
                    self.ranges_mut()[i + 1] = (hi, end);
                    self.drain(i + 2..j);
                }
            }
            (true, false) => {
                self.ranges_mut()[i].1 = lo;
                self.drain(i + 1..j);
            }
            (false, true) => {
                self.ranges_mut()[j - 1].0 = hi;
                self.drain(i..j - 1);
            }
            (false, false) => self.drain(i..j),
        }
    }

    /// Removes and returns up to `max` values from the lowest range, as
    /// `(lo, len)`. Drives retransmission: pending byte ranges are pulled
    /// off in MSS-sized chunks, lowest offset first.
    pub fn take_prefix(&mut self, max: u64) -> Option<(u64, u64)> {
        assert!(max > 0, "zero take");
        let &(lo, hi) = self.ranges().first()?;
        let len = (hi - lo).min(max);
        if lo + len == hi {
            self.drain(0..1);
        } else {
            self.ranges_mut()[0].0 = lo + len;
        }
        Some((lo, len))
    }

    /// Calls `f(lo, hi)` for each sub-range of `[lo, hi)` *not* stored in
    /// the set, ascending. Finds the still-unacknowledged bytes of a lost
    /// packet.
    pub fn for_each_missing(&self, lo: u64, hi: u64, mut f: impl FnMut(u64, u64)) {
        assert!(lo <= hi, "inverted range [{lo}, {hi})");
        let mut cursor = lo;
        let ranges = self.ranges();
        let start = ranges.partition_point(|&(_, h)| h <= lo);
        for &(l, h) in &ranges[start..] {
            if l >= hi {
                break;
            }
            if l > cursor {
                f(cursor, l);
            }
            cursor = cursor.max(h);
        }
        if cursor < hi {
            f(cursor, hi);
        }
    }

    /// The highest [`MAX_ACK_BLOCKS`] ranges as a descending wire ACK
    /// frame of inclusive, wrapped packet numbers. Panics if empty.
    pub fn to_blocks(&self) -> AckBlocks {
        let mut blocks = [(0u32, 0u32); MAX_ACK_BLOCKS];
        let ranges = self.ranges();
        let n = ranges.len().min(MAX_ACK_BLOCKS);
        for (b, &(lo, hi)) in blocks.iter_mut().zip(ranges.iter().rev().take(n)) {
            *b = (seq::wrap(lo), seq::wrap(hi - 1));
        }
        AckBlocks::new(&blocks[..n])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_merges_overlapping_and_touching() {
        let mut r = AckRanges::new();
        assert_eq!(r.insert(10, 20), 10);
        assert_eq!(r.insert(30, 40), 10);
        assert_eq!(r.ranges(), &[(10, 20), (30, 40)]);
        // Touching on the left, overlapping on the right: one range left.
        assert_eq!(r.insert(20, 35), 10);
        assert_eq!(r.ranges(), &[(10, 40)]);
        // Fully covered insert adds nothing.
        assert_eq!(r.insert(12, 18), 0);
    }

    #[test]
    fn prefix_and_end() {
        let mut r = AckRanges::new();
        r.insert(0, 5);
        r.insert(8, 10);
        assert_eq!(r.prefix_end(), 5);
        assert_eq!(r.end(), 10);
        r.insert(5, 8);
        assert_eq!(r.prefix_end(), 10);
    }

    #[test]
    fn prefix_is_zero_without_zero() {
        let mut r = AckRanges::new();
        r.insert(3, 9);
        assert_eq!(r.prefix_end(), 0);
    }

    #[test]
    fn remove_splits_ranges() {
        let mut r = AckRanges::new();
        r.insert(0, 10);
        r.remove(3, 6);
        assert_eq!(r.ranges(), &[(0, 3), (6, 10)]);
        r.remove(0, 100);
        assert!(r.is_empty());
    }

    #[test]
    fn take_prefix_chunks_lowest_first() {
        let mut r = AckRanges::new();
        r.insert(10, 15);
        r.insert(20, 22);
        assert_eq!(r.take_prefix(3), Some((10, 3)));
        assert_eq!(r.take_prefix(100), Some((13, 2)));
        assert_eq!(r.take_prefix(100), Some((20, 2)));
        assert_eq!(r.take_prefix(1), None);
    }

    #[test]
    fn missing_in_finds_holes() {
        let mut r = AckRanges::new();
        r.insert(5, 10);
        r.insert(15, 20);
        let mut holes = Vec::new();
        r.for_each_missing(0, 25, |lo, hi| holes.push((lo, hi)));
        assert_eq!(holes, vec![(0, 5), (10, 15), (20, 25)]);
        holes.clear();
        r.for_each_missing(6, 9, |lo, hi| holes.push((lo, hi)));
        assert!(holes.is_empty());
    }

    #[test]
    fn cap_drops_lowest_ranges_only() {
        let mut r = AckRanges::new();
        for v in [1, 5, 9] {
            r.insert_capped(v, v + 1, 2);
        }
        assert_eq!(r.ranges(), &[(5, 6), (9, 10)]);
    }

    /// The set stays spilled once it has held two ranges, so emptying and
    /// refilling it reuses the allocation.
    #[test]
    fn spill_is_kept_across_shrinking() {
        let mut r = AckRanges::new();
        r.insert(0, 5);
        assert!(matches!(r.0, Store::Inline(Some((0, 5)))));
        r.insert(8, 10);
        r.remove(0, 10);
        assert!(r.is_empty());
        assert!(matches!(&r.0, Store::Spilled(v) if v.capacity() >= 2));
    }

    /// One range in place beside the spill `Vec`: no larger than the
    /// `Vec` plus the `usize` cap field the set used to carry.
    #[test]
    #[cfg(target_pointer_width = "64")]
    fn ack_ranges_does_not_grow() {
        assert!(std::mem::size_of::<AckRanges>() <= 32);
    }

    #[test]
    fn to_blocks_descends_and_caps() {
        let mut r = AckRanges::new();
        for lo in [0u64, 10, 20, 30] {
            r.insert(lo, lo + 2);
        }
        let b = r.to_blocks();
        assert_eq!(b.largest(), 31);
        assert_eq!(b.ranges(), &[(30, 31), (20, 21), (10, 11)]);
    }
}
