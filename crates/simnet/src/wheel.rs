//! Hierarchical timing wheel: the production [`Scheduler`].
//!
//! The event mix of an incast run is dominated by near-future events —
//! a `Delivery` one serialization plus one propagation time out for every
//! frame on every hop, a `TxComplete` one serialization time out where a
//! frame is waiting behind the one on the transmitter (one hop in three or
//! four: the links of an incast are idle except the receiver's downlink),
//! TCP timers a few hundred microseconds to milliseconds out. A binary
//! heap pays `O(log n)` and a cache-hostile sift for every one of them. The
//! wheel instead hashes each event into a slot by its due time:
//!
//! - Time is bucketed into **ticks** of `2^18` ps (≈ 262 ns). Ordering
//!   within a tick is exact — the cursor's tick is staged `(time, seq)`-sorted
//!   in the ready buffer — so tick size trades refill frequency against the
//!   length of one tick's sort, not correctness.
//! - Four **levels** of 64 slots each cover `64^4` ticks ≈ 4.4 s of future:
//!   level 0 resolves single ticks, each higher level resolves 64× coarser.
//!   Insertion is O(1): pick the level whose resolution still separates the
//!   event from the cursor, index by the tick's digits.
//! - Events beyond the wheel's span — RTO exponential backoffs reach the
//!   60 s `max_rto` ceiling — go to a small **overflow heap** and are pulled
//!   into the wheel when the cursor gets within range.
//! - A per-level **occupancy bitmap** lets the cursor jump over empty time
//!   in a few `trailing_zeros` instructions instead of stepping slot by
//!   slot, which matters because simulated time is mostly empty even at
//!   262 ns resolution.
//! - A cached **coarse bound**, a lower bound on the tick of every event in
//!   levels 1.. and the overflow heap, makes most refills a bit scan and
//!   one compare: a level-0 tick below it is provably the earliest pending
//!   tick. Only when it is not does a refill cascade and rescan the coarse
//!   levels.
//!
//! Only the cursor's tick is ever staged in `ready`, sorted by `(time, seq)`
//! — exactly the reference [`EventQueue`] order — so the wheel pops the same
//! sequence the heap would, event for event. An event scheduled for a later
//! tick is a slot push; only one for the cursor's own tick sort-inserts, and
//! then among that one tick's events. The equivalence is enforced by the
//! property tests below and by the differential harness in
//! `tests/scheduler_equivalence.rs`.
//!
//! The wheel never finds and removes an event. [`crate::sim::Simulator`]
//! keeps one live event per timer: re-arming to a later deadline or
//! cancelling is a store in its timer table, and the live event, once it
//! pops, either finds nothing armed or is rescheduled to the stored
//! deadline under the seq reserved when that deadline was armed
//! ([`Scheduler::reserve_seq`] / [`Scheduler::schedule_reserved`]). Only a
//! re-arm to an *earlier* deadline leaves a dead event behind, dropped by a
//! generation check when it pops. Cancel stays O(1), the pending set holds
//! about one timer event per armed timer rather than one per ACK, and the
//! popped event stream stays byte-identical between schedulers.
//!
//! [`EventQueue`]: crate::event::EventQueue

use crate::event::{Event, EventKind, Scheduler};
use crate::ids::{LinkId, NodeId};
use crate::packet::PacketSlot;
use crate::time::SimTime;
use std::collections::BinaryHeap;

/// A wheel-internal compressed event: 24 bytes against [`Event`]'s 40.
///
/// Slot vectors, the ready buffer, and the overflow heap all move events
/// around constantly — every byte shows up in the insert/refill profile.
/// The kind tag is stolen from the two low bits of the sequence number
/// (`st = seq << 2 | tag`; seq stays unique, so `(time, st)` orders
/// exactly like `(time, seq)`), and the variant payloads all fit one u64:
/// link and pool slot are u32 ids, and a `Timer` (about one pending per
/// armed timer; 2–35 k scheduled per run against a million packet events)
/// parks its `(node, key, gen)` triple in a side table and carries the
/// index. Packing and unpacking happen only at the schedule/pop boundary,
/// so the public [`Event`] API and the reference heap are untouched.
#[derive(Debug, Clone, Copy)]
struct Packed {
    time: SimTime,
    /// `seq << 2 | tag`.
    st: u64,
    payload: u64,
}

const TAG_TX: u64 = 0;
const TAG_DELIVERY: u64 = 1;
const TAG_FAULT: u64 = 2;
const TAG_TIMER: u64 = 3;

impl Packed {
    #[inline]
    fn seq(&self) -> u64 {
        self.st >> 2
    }
}

impl PartialEq for Packed {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.st == other.st
    }
}
impl Eq for Packed {}

impl Ord for Packed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed, matching `Event`: min-first through a max-heap.
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.st.cmp(&self.st))
    }
}

impl PartialOrd for Packed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The cursor's tick, staged in ascending `(time, seq)` pop order with a
/// consuming head cursor.
///
/// A refill copies one level-0 slot in and sorts it: a tick is 262 ns, a
/// handful of events. Popping advances `head` instead of shifting; the
/// vector is cleared (capacity kept) once drained. An event scheduled into
/// the cursor's tick while it drains binary-inserts; its time is ≥ now and
/// its seq usually the newest, so it mostly lands at or near the end.
#[derive(Debug, Default)]
struct ReadyVec {
    v: Vec<Packed>,
    head: usize,
    /// Entries moved by [`ReadyVec::push`] so far (diagnostic).
    shifted: u64,
}

impl ReadyVec {
    #[inline]
    fn is_empty(&self) -> bool {
        self.head >= self.v.len()
    }

    #[inline]
    fn pop(&mut self) -> Option<Packed> {
        let ev = *self.v.get(self.head)?;
        self.head += 1;
        if self.head == self.v.len() {
            self.v.clear();
            self.head = 0;
        }
        Some(ev)
    }

    #[inline]
    fn peek(&self) -> Option<&Packed> {
        self.v.get(self.head)
    }

    /// Inserts `ev` keeping pop order: O(log n) search plus a memmove of
    /// everything that pops after `ev`.
    #[inline]
    fn push(&mut self, ev: Packed) {
        let key = (ev.time, ev.st);
        let at = self.head + self.v[self.head..].partition_point(|e| (e.time, e.st) < key);
        self.shifted += (self.v.len() - at) as u64;
        self.v.insert(at, ev);
    }

    /// Copies `slot`'s events in, leaving the slot empty with its capacity
    /// kept, and restores pop order.
    #[inline]
    fn take(&mut self, slot: &mut Vec<Packed>) {
        self.v.extend_from_slice(slot);
        slot.clear();
        self.v[self.head..].sort_unstable_by_key(|e| (e.time, e.st));
    }
}

/// log2 of the tick length in picoseconds.
const TICK_BITS: u32 = 18;
/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;
const SLOT_MASK: u64 = SLOTS as u64 - 1;
/// Wheel levels. Four levels cover `64^4` ticks ≈ 4.4 s; anything farther
/// out (RTO backoffs up to 60 s) overflows to a heap.
const LEVELS: usize = 4;
/// Ticks covered by the wheel before the overflow heap takes over.
const SPAN_TICKS: u64 = 1 << (SLOT_BITS * LEVELS as u32);

#[inline]
fn tick_of(t: SimTime) -> u64 {
    t.as_ps() >> TICK_BITS
}

/// Where the candidate scan found the earliest possible coarse tick.
#[derive(Clone, Copy, Debug)]
enum Cand {
    Slot { level: usize, idx: usize },
    Overflow,
}

/// The hierarchical timing wheel scheduler. See the module docs.
#[derive(Debug)]
pub struct TimingWheel {
    /// Current tick. Outside a refill every pending event of this tick or
    /// earlier is in `ready`, and every other one is later.
    cursor: u64,
    /// Lower bound on the tick of every event in levels 1.. and the
    /// overflow heap: reset by each candidate scan, lowered by each insert
    /// there. A level-0 tick below it is the earliest pending tick.
    coarse: u64,
    /// Events of the tick the cursor sits on, in `(time, seq)` pop order.
    ready: ReadyVec,
    /// `LEVELS x SLOTS` buckets, level-major. Slot vectors keep their
    /// capacity across reuse, so the steady state allocates nothing.
    slots: Vec<Vec<Packed>>,
    /// One occupancy bit per slot, per level.
    occ: [u64; LEVELS],
    /// Per level, the cursor prefix (`cursor >> (6·level)`) whose slot was
    /// already partitioned by [`TimingWheel::cascade_entered_slots`].
    entered: [u64; LEVELS],
    /// Events beyond the wheel's span, min-first by `(time, seq)`.
    overflow: BinaryHeap<Packed>,
    /// Spare vector swapped in during cascades to avoid re-entrancy on the
    /// slot being drained.
    scratch: Vec<Packed>,
    /// `(node, key, gen)` of pending `Timer` events, indexed by the packed
    /// payload; entries recycle through `timer_free` when the timer pops.
    timers: Vec<(NodeId, u64, u64)>,
    timer_free: Vec<u32>,
    len: usize,
    next_seq: u64,
    cascades: u64,
}

impl Default for TimingWheel {
    fn default() -> Self {
        TimingWheel {
            cursor: 0,
            coarse: u64::MAX,
            ready: ReadyVec::default(),
            // Each coarse slot starts at the capacity its first push would
            // allocate anyway: timer events are sparse, so well into a run
            // one still lands in a coarse slot nothing has touched, and the
            // steady state must not allocate for that. Level-0 slots start
            // at twice that (30 KiB in all): they hold the near future tick
            // by tick until the cursor reaches it.
            slots: (0..LEVELS * SLOTS)
                .map(|i| Vec::with_capacity(if i < SLOTS { 8 } else { 4 }))
                .collect(),
            occ: [0; LEVELS],
            entered: [u64::MAX; LEVELS],
            overflow: BinaryHeap::new(),
            scratch: Vec::new(),
            timers: Vec::new(),
            timer_free: Vec::new(),
            len: 0,
            next_seq: 0,
            cascades: 0,
        }
    }
}

impl TimingWheel {
    /// Creates an empty wheel.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cascades performed so far (diagnostic: each is one slot re-hashed to
    /// finer resolution as the cursor caught up with it).
    pub fn cascades(&self) -> u64 {
        self.cascades
    }

    /// Entries shifted by sorted inserts into the ready buffer so far
    /// (diagnostic: each is one event memmoved because a newly scheduled
    /// event of the cursor's tick pops before it).
    pub fn ready_shifts(&self) -> u64 {
        self.ready.shifted
    }

    /// Compresses a freshly scheduled event into the wheel's internal
    /// 24-byte form; `Timer` payloads park in the side table.
    #[inline]
    fn pack(&mut self, time: SimTime, seq: u64, kind: EventKind) -> Packed {
        debug_assert!(seq < 1 << 62, "sequence number overflows the tag bits");
        let (tag, payload) = match kind {
            EventKind::TxComplete { link } => (TAG_TX, link.0 as u64),
            EventKind::Delivery { link, slot } => {
                (TAG_DELIVERY, link.0 as u64 | ((slot.0 as u64) << 32))
            }
            EventKind::Fault { index } => (TAG_FAULT, index as u64),
            EventKind::Timer { node, key, gen } => {
                let idx = match self.timer_free.pop() {
                    Some(i) => {
                        self.timers[i as usize] = (node, key, gen);
                        i
                    }
                    None => {
                        self.timers.push((node, key, gen));
                        (self.timers.len() - 1) as u32
                    }
                };
                (TAG_TIMER, idx as u64)
            }
        };
        Packed {
            time,
            st: (seq << 2) | tag,
            payload,
        }
    }

    /// Expands a popped event back to the public form, releasing any
    /// `Timer` side-table entry.
    #[inline]
    fn unpack(&mut self, p: Packed) -> Event {
        let kind = match p.st & 3 {
            TAG_TX => EventKind::TxComplete {
                link: LinkId(p.payload as u32),
            },
            TAG_DELIVERY => EventKind::Delivery {
                link: LinkId(p.payload as u32),
                slot: PacketSlot((p.payload >> 32) as u32),
            },
            TAG_FAULT => EventKind::Fault {
                index: p.payload as u32,
            },
            _ => {
                let idx = p.payload as u32;
                let (node, key, gen) = self.timers[idx as usize];
                self.timer_free.push(idx);
                EventKind::Timer { node, key, gen }
            }
        };
        Event {
            time: p.time,
            seq: p.seq(),
            kind,
        }
    }

    /// Places `ev` relative to the cursor: due ticks go to `ready`, the
    /// near future into the finest level that still separates it from the
    /// cursor, the far future into the overflow heap.
    fn insert(&mut self, ev: Packed) {
        let tick = tick_of(ev.time);
        if tick <= self.cursor {
            self.ready.push(ev);
            return;
        }
        let delta = tick - self.cursor;
        if delta >= SLOTS as u64 {
            // Bound to levels 1.. or the overflow heap.
            self.coarse = self.coarse.min(tick);
        }
        for l in 0..LEVELS {
            if delta < 1u64 << (SLOT_BITS * (l as u32 + 1)) {
                let idx = ((tick >> (SLOT_BITS * l as u32)) & SLOT_MASK) as usize;
                self.slots[l * SLOTS + idx].push(ev);
                self.occ[l] |= 1u64 << idx;
                return;
            }
        }
        self.overflow.push(ev);
    }

    /// The earliest occupied level-0 tick. Every level-0 event lies within
    /// the 64 ticks from the cursor on (it was inserted less than 64 ticks
    /// out, and the cursor never passes a pending event), so with the
    /// bitmap rotated to the cursor's digit the next one is its lowest bit.
    #[inline]
    fn next_level0(&self) -> Option<u64> {
        let rotated = self.occ[0].rotate_right((self.cursor & SLOT_MASK) as u32);
        (rotated != 0).then(|| self.cursor + rotated.trailing_zeros() as u64)
    }

    /// Moves the cursor onto level-0 tick `t` and stages its slot.
    #[inline]
    fn take_tick(&mut self, t: u64) {
        let idx = (t & SLOT_MASK) as usize;
        self.cursor = t;
        self.occ[0] &= !(1u64 << idx);
        self.ready.take(&mut self.slots[idx]);
    }

    /// Completes the earliest pending tick in `ready` from level 0, if the
    /// coarse bound proves no coarser event precedes or shares it.
    ///
    /// With `ready` empty that tick is the next level-0 one, when it lies
    /// below the bound. With `ready` holding part of the cursor's tick (an
    /// [`TimingWheel::act`] staged it), the rest is its level-0 slot unless
    /// the bound admits a coarse event at the cursor.
    #[inline]
    fn stage(&mut self) -> bool {
        let next = self.next_level0();
        if self.ready.is_empty() {
            match next {
                Some(t) if t < self.coarse => self.take_tick(t),
                _ => return false,
            }
        } else if self.coarse > self.cursor {
            if next == Some(self.cursor) {
                self.take_tick(self.cursor);
            }
        } else {
            return false;
        }
        true
    }

    /// Stages the earliest pending tick in `ready` and moves the cursor onto
    /// it. Called with `ready` empty; returns false only when nothing is
    /// pending at all.
    ///
    /// The fast path is [`TimingWheel::stage`] against the cached bound. It
    /// owes no cascade: it moves the cursor only to a tick below every
    /// coarse event, so it passes none, and a coarse slot it moves the
    /// cursor into is cascaded by the next slow pass, before any scan
    /// prices it.
    ///
    /// The slow path cascades, rescans the coarse levels (resetting the
    /// bound) and stages from level 0 if the fresh bound allows it; if not,
    /// it jumps the cursor to the best coarse candidate, resolves it and
    /// goes round again. A conservative candidate (a higher-level slot's
    /// start, which may undershoot the slot's actual minimum) is resolved
    /// by its re-hash plus the rescan.
    fn refill(&mut self) -> bool {
        if self.stage() {
            return true;
        }
        loop {
            self.cascade_entered_slots();
            let cand = self.scan();
            if self.stage() {
                return true;
            }
            let Some(cand) = cand else {
                return false;
            };
            debug_assert!(self.coarse >= self.cursor, "wheel scanned past an event");
            self.cursor = self.coarse;
            self.act(cand);
        }
    }

    /// Re-hashes to finer resolution the current-frame events of any
    /// coarse slot the cursor has moved inside of. Those events now
    /// resolve at a lower level (same coarse digit, so the delta shrank
    /// below the level's span); leaving them put would force the
    /// candidate scan to take the slot's minimum — an O(slot) walk
    /// repeated on every refill while the cursor crosses the slot's
    /// 64^level ticks.
    ///
    /// A slot can also hold events one full revolution out (same digit,
    /// next frame — e.g. cursor at tick 63, event at tick 64·64). Those
    /// stay put, the occupancy bit stays set, and the candidate scan
    /// prices the slot at its next-revolution start. `entered[l]`
    /// remembers the cursor prefix already partitioned so the walk runs
    /// once per slot entry, not once per refill.
    fn cascade_entered_slots(&mut self) {
        'rescan: loop {
            for l in 1..LEVELS {
                if self.occ[l] == 0 {
                    continue;
                }
                let shift = SLOT_BITS * l as u32;
                let prefix = self.cursor >> shift;
                if self.entered[l] == prefix {
                    continue;
                }
                let il = (prefix & SLOT_MASK) as usize;
                if self.occ[l] & (1u64 << il) == 0 {
                    continue;
                }
                self.entered[l] = prefix;
                self.cascades += 1;
                // Copy the slot out and clear it in place: the slot vector
                // keeps its high-water capacity (steady state must not
                // re-grow slots it has already seen full), and `scratch`
                // gives `insert` a free hand on `self` during the re-hash.
                let mut tmp = std::mem::take(&mut self.scratch);
                tmp.extend_from_slice(&self.slots[l * SLOTS + il]);
                self.slots[l * SLOTS + il].clear();
                let mut kept = false;
                for ev in tmp.drain(..) {
                    if tick_of(ev.time) >> shift == prefix {
                        // Current frame: re-hashes strictly finer.
                        self.insert(ev);
                    } else {
                        // Next revolution: not due for another pass.
                        self.slots[l * SLOTS + il].push(ev);
                        kept = true;
                    }
                }
                self.scratch = tmp;
                if !kept {
                    self.occ[l] &= !(1u64 << il);
                }
                // A level-l drain can land events in a lower level's
                // cursor slot; rescan from the finest level.
                continue 'rescan;
            }
            return;
        }
    }

    /// Resets the coarse bound to the earliest possible tick in levels 1..
    /// and the overflow heap and returns where it lies, `None` if they are
    /// all empty. Sound right after [`TimingWheel::cascade_entered_slots`]:
    /// the cursor's own coarse slots then hold only events a revolution out.
    fn scan(&mut self) -> Option<Cand> {
        let mut best_tick = u64::MAX;
        let mut best: Option<Cand> = None;

        for l in 1..LEVELS {
            if self.occ[l] == 0 {
                continue;
            }
            let shift = SLOT_BITS * l as u32;
            let span = 1u64 << shift;
            let il = ((self.cursor >> shift) & SLOT_MASK) as u32;
            let frame = self.cursor & !((span << SLOT_BITS) - 1);
            // Slots ahead in this frame: their start tick is a lower
            // bound (cheap, and safe — undershoot just causes a cascade
            // plus rescan).
            let ahead = (self.occ[l] >> il) >> 1;
            if ahead != 0 {
                let idx = ahead.trailing_zeros() + il + 1;
                let t = frame + idx as u64 * span;
                if t < best_tick {
                    best_tick = t;
                    best = Some(Cand::Slot {
                        level: l,
                        idx: idx as usize,
                    });
                }
            }
            // Slots at or behind the cursor wrapped into the next
            // frame. The cursor's own slot belongs here too: its
            // current-frame events were cascaded away on entry, so
            // anything left in it is a revolution out.
            let behind = if il == SLOT_MASK as u32 {
                self.occ[l]
            } else {
                self.occ[l] & !(u64::MAX << (il + 1))
            };
            if behind != 0 {
                let idx = behind.trailing_zeros();
                let t = frame + (span << SLOT_BITS) + idx as u64 * span;
                if t < best_tick {
                    best_tick = t;
                    best = Some(Cand::Slot {
                        level: l,
                        idx: idx as usize,
                    });
                }
            }
        }

        if let Some(e) = self.overflow.peek() {
            let t = tick_of(e.time);
            if t < best_tick {
                best_tick = t;
                best = Some(Cand::Overflow);
            }
        }
        self.coarse = best_tick;
        best
    }

    /// Resolves the coarse candidate the cursor just advanced to: a slot
    /// re-hashes through [`TimingWheel::insert`] (events of the cursor's
    /// tick land in `ready`), the overflow heap spills everything now
    /// within the wheel's span.
    fn act(&mut self, cand: Cand) {
        match cand {
            Cand::Slot { level, idx } => {
                self.occ[level] &= !(1u64 << idx);
                self.cascades += 1;
                // Same capacity-preserving copy-out as the cascade above;
                // `insert` may legitimately push back into this very slot
                // (an event a full revolution out re-hashes to the same
                // index), which is why the iteration runs over `scratch`.
                let mut tmp = std::mem::take(&mut self.scratch);
                tmp.extend_from_slice(&self.slots[level * SLOTS + idx]);
                self.slots[level * SLOTS + idx].clear();
                for ev in tmp.drain(..) {
                    self.insert(ev);
                }
                self.scratch = tmp;
            }
            Cand::Overflow => {
                // Pull everything now within the wheel's span; the first
                // item lands in `ready` (its tick is the cursor).
                while let Some(e) = self.overflow.peek() {
                    if tick_of(e.time) - self.cursor >= SPAN_TICKS {
                        break;
                    }
                    let e = *e;
                    self.overflow.pop();
                    self.insert(e);
                }
            }
        }
    }
}

impl Scheduler for TimingWheel {
    const NAME: &'static str = "wheel";

    // Inlined so that each call site's constant `EventKind` folds `pack`'s
    // match instead of dispatching through a jump table.
    #[inline]
    fn schedule(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let p = self.pack(time, seq, kind);
        self.insert(p);
    }

    fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    #[inline]
    fn schedule_reserved(&mut self, time: SimTime, seq: u64, kind: EventKind) {
        self.len += 1;
        let p = self.pack(time, seq, kind);
        self.insert(p);
    }

    fn pop(&mut self) -> Option<Event> {
        if self.ready.is_empty() && !self.refill() {
            return None;
        }
        self.len -= 1;
        let p = self.ready.pop()?;
        Some(self.unpack(p))
    }

    fn pop_due(&mut self, deadline: SimTime) -> Option<Event> {
        if self.ready.is_empty() && !self.refill() {
            return None;
        }
        if self.ready.peek()?.time > deadline {
            return None;
        }
        self.len -= 1;
        let p = self.ready.pop()?;
        Some(self.unpack(p))
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        if self.ready.is_empty() && !self.refill() {
            return None;
        }
        self.ready.peek().map(|e| e.time)
    }

    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        if self.ready.is_empty() && !self.refill() {
            return None;
        }
        self.ready.peek().map(|e| (e.time, e.seq()))
    }

    fn len(&self) -> usize {
        self.len
    }

    fn scheduled_total(&self) -> u64 {
        self.next_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{LinkId, NodeId};
    use stats::Rng;

    const TICK: u64 = 1 << TICK_BITS;

    fn kind(tag: u64) -> EventKind {
        EventKind::Timer {
            node: NodeId(0),
            key: tag,
            gen: 0,
        }
    }

    fn tag_of(ev: &Event) -> u64 {
        match ev.kind {
            EventKind::Timer { key, .. } => key,
            _ => unreachable!(),
        }
    }

    /// A delta (ps) from one of the profiles the model tests draw from:
    /// every level and the overflow, plus deltas *just past* each level's
    /// reach. Those land an event in levels 1–3 or the overflow heap while
    /// level 0 still holds ticks the fast path will drain, and, once the
    /// cursor has moved on, below ticks inserted into level 0 after them.
    fn draw_delta(rng: &mut Rng) -> u64 {
        let past = |rng: &mut Rng, reach: u64| reach * TICK + rng.below(reach * TICK);
        match rng.below(10) {
            0 => rng.below(TICK),                                       // same tick
            1 | 2 => rng.below(64 * TICK),                              // level 0
            3 => rng.below(64 * 64 * TICK),                             // level 1
            4 => rng.below(SPAN_TICKS * TICK),                          // whole wheel
            5 => SPAN_TICKS * TICK + rng.below(60 * SPAN_TICKS * TICK), // overflow
            6 => past(rng, 64),                                         // just past level 0
            7 => past(rng, 64 * 64),                                    // just past level 1
            8 => {
                // Just past level 2, or just past the wheel's span.
                if rng.chance(0.5) {
                    past(rng, 64 * 64 * 64)
                } else {
                    SPAN_TICKS * TICK + rng.below(64 * TICK)
                }
            }
            _ => 0, // due immediately
        }
    }

    /// One step of a model-test script. Times are relative to the last
    /// popped event's.
    #[derive(Clone, Copy, Debug)]
    enum Op {
        At(u64),
        Pop,
        /// `pop_due` with this deadline.
        PopDue(u64),
        Peek,
    }

    /// A random script: 30 % pops, 8 % `pop_due` with a deadline within
    /// two ticks (often stopping mid-tick), 5 % peeks, the rest schedules.
    fn draw_op(rng: &mut Rng) -> Op {
        match rng.below(100) {
            0..=29 => Op::Pop,
            30..=37 => Op::PopDue(rng.below(2 * TICK)),
            38..=42 => Op::Peek,
            _ => Op::At(draw_delta(rng)),
        }
    }

    /// The model the wheel is checked against: a plain vector, searched on
    /// every pop. Brutally slow, obviously correct.
    #[derive(Default)]
    struct SortedVecModel {
        pending: Vec<(u64, u64, u64)>, // (time_ps, seq, tag)
        next_seq: u64,
    }

    impl SortedVecModel {
        fn schedule(&mut self, t: u64, tag: u64) {
            self.pending.push((t, self.next_seq, tag));
            self.next_seq += 1;
        }
        fn min_index(&self) -> Option<usize> {
            self.pending
                .iter()
                .enumerate()
                .min_by_key(|(_, &(t, s, _))| (t, s))
                .map(|(i, _)| i)
        }
        fn pop(&mut self) -> Option<(u64, u64, u64)> {
            let i = self.min_index()?;
            Some(self.pending.swap_remove(i))
        }
        fn pop_due(&mut self, deadline: u64) -> Option<(u64, u64, u64)> {
            let i = self.min_index()?;
            (self.pending[i].0 <= deadline).then(|| self.pending.swap_remove(i))
        }
        fn peek_time(&self) -> Option<u64> {
            self.min_index().map(|i| self.pending[i].0)
        }
    }

    /// Drives the wheel and the model through the same script and asserts
    /// identical pops, `pop_due` refusals and peeks.
    fn check_script(script: &[Op]) {
        let mut wheel = TimingWheel::new();
        let mut model = SortedVecModel::default();
        let mut tag = 0u64;
        let mut now = 0u64;
        for (step, &op) in script.iter().enumerate() {
            let (got, want) = match op {
                Op::At(d) => {
                    wheel.schedule(SimTime::from_ps(now + d), kind(tag));
                    model.schedule(now + d, tag);
                    tag += 1;
                    continue;
                }
                Op::Peek => {
                    let got = wheel.peek_time().map(SimTime::as_ps);
                    assert_eq!(got, model.peek_time(), "peek diverged at step {step}");
                    continue;
                }
                Op::Pop => (wheel.pop(), model.pop()),
                Op::PopDue(d) => (
                    wheel.pop_due(SimTime::from_ps(now + d)),
                    model.pop_due(now + d),
                ),
            };
            match (got, want) {
                (Some(g), Some(w)) => {
                    let g3 = (g.time.as_ps(), g.seq, tag_of(&g));
                    assert_eq!(g3, w, "pop diverged at step {step} ({op:?})");
                    now = g.time.as_ps();
                }
                (None, None) => {}
                (g, w) => {
                    panic!("presence diverged at step {step} ({op:?}): wheel={g:?} model={w:?}")
                }
            }
        }
        // Drain both to the end.
        loop {
            match (wheel.pop(), model.pop()) {
                (Some(g), Some(w)) => {
                    assert_eq!((g.time.as_ps(), g.seq, tag_of(&g)), w, "drain diverged")
                }
                (None, None) => break,
                (g, w) => panic!("drain presence diverged: wheel={g:?} model={w:?}"),
            }
        }
        assert_eq!(wheel.len(), 0);
    }

    #[test]
    fn random_ops_match_sorted_vec_model() {
        for seed in 0..40u64 {
            let mut rng = Rng::new(seed);
            let script: Vec<Op> = (0..1500).map(|_| draw_op(&mut rng)).collect();
            check_script(&script);
        }
    }

    #[test]
    fn coarse_event_below_the_cached_bound_is_not_overtaken() {
        // The cached bound starts far out (a 200 ms timer). A level-1 event
        // at tick 69 lowers it; the fast path then drains tick 10, and a
        // level-0 event scheduled from there lands at tick 70, one tick
        // after the level-1 event, which must still come first.
        check_script(&[
            Op::At(SimTime::from_ms(200).as_ps()),
            Op::At(10 * TICK),
            Op::At(69 * TICK),
            Op::Pop,
            Op::At(60 * TICK),
            Op::PopDue(59 * TICK - 1), // nothing due before tick 69
            Op::Peek,
            Op::PopDue(59 * TICK + TICK / 2), // stops mid-tick 69
            Op::Peek,
            Op::Pop,
        ]);
    }

    #[test]
    fn same_tick_orders_by_time_then_seq() {
        // Many events inside one tick, scheduled in shuffled time
        // order: pops must come back sorted by (time, seq), not insertion.
        let mut wheel = TimingWheel::new();
        let offsets = [9u64, 3, 3, 65_535, 0, 17, 3, 9, 0];
        for (i, &off) in offsets.iter().enumerate() {
            wheel.schedule(SimTime::from_ps(off), kind(i as u64));
        }
        let mut popped = Vec::new();
        while let Some(e) = wheel.pop() {
            popped.push((e.time.as_ps(), e.seq));
        }
        let mut want = popped.clone();
        want.sort();
        assert_eq!(popped, want);
        assert_eq!(popped.len(), offsets.len());
    }

    #[test]
    fn cascade_boundaries_at_level_rollover() {
        // Events pinned to the exact slot and level boundaries: last tick of
        // level 0, first of level 1, the level-2 and level-3 edges, and one
        // tick short of the overflow span. Each ± one tick and ± one ps.
        let edges = [
            63 * TICK,
            64 * TICK,
            (64 * 64 - 1) * TICK,
            64 * 64 * TICK,
            64 * 64 * 64 * TICK,
            (SPAN_TICKS - 1) * TICK,
            SPAN_TICKS * TICK,     // first overflow tick
            SPAN_TICKS * TICK * 3, // deep overflow
        ];
        let mut script = Vec::new();
        for &e in &edges {
            for d in [
                e.saturating_sub(TICK),
                e.saturating_sub(1),
                e,
                e + 1,
                e + TICK,
            ] {
                script.push(Op::At(d));
            }
        }
        // Interleave pops so the cursor crosses the rollovers mid-script.
        for i in (0..script.len()).rev().step_by(3) {
            script.insert(i, Op::Pop);
        }
        check_script(&script);
    }

    #[test]
    fn cross_revolution_events_do_not_fire_early() {
        // Two events one full level-1 revolution apart land in the same
        // slot; the later one must wait for the next pass.
        let mut wheel = TimingWheel::new();
        wheel.schedule(SimTime::from_ps(70 * TICK), kind(0));
        // Pop it so the cursor advances to tick 70.
        assert_eq!(tag_of(&wheel.pop().unwrap()), 0);
        // Same level-1 slot digit, one revolution later, plus a nearer event.
        wheel.schedule(SimTime::from_ps((70 + 64 * 64) * TICK), kind(1));
        wheel.schedule(SimTime::from_ps(80 * TICK), kind(2));
        assert_eq!(tag_of(&wheel.pop().unwrap()), 2);
        let last = wheel.pop().unwrap();
        assert_eq!(tag_of(&last), 1);
        assert_eq!(last.time.as_ps(), (70 + 64 * 64) * TICK);
        assert!(wheel.pop().is_none());
    }

    #[test]
    fn overflow_events_cascade_into_wheel() {
        let mut wheel = TimingWheel::new();
        // A 60 s RTO ceiling event: far beyond the ~4.4 s span.
        wheel.schedule(SimTime::from_secs(60), kind(0));
        wheel.schedule(SimTime::from_ms(1), kind(1));
        assert_eq!(wheel.len(), 2);
        assert_eq!(tag_of(&wheel.pop().unwrap()), 1);
        let rto = wheel.pop().unwrap();
        assert_eq!(tag_of(&rto), 0);
        assert_eq!(rto.time, SimTime::from_secs(60));
        assert!(wheel.pop().is_none());
        assert!(wheel.is_empty());
    }

    #[test]
    fn peek_time_matches_next_pop() {
        let mut rng = Rng::new(7);
        let mut wheel = TimingWheel::new();
        for i in 0..200 {
            wheel.schedule(SimTime::from_ps(rng.below(1 << 44)), kind(i));
        }
        while let Some(t) = wheel.peek_time() {
            assert_eq!(wheel.pop().unwrap().time, t);
        }
        assert!(wheel.pop().is_none());
    }

    #[test]
    fn matches_reference_heap_on_mixed_kinds() {
        use crate::event::EventQueue;
        let mut rng = Rng::new(11);
        let mut wheel = TimingWheel::new();
        let mut heap = EventQueue::new();
        let mut now = 0u64;
        // Seqs reserved on both schedulers and not yet scheduled.
        let mut reserved: Vec<u64> = Vec::new();
        for step in 0..6000u64 {
            let (g, w) = match draw_op(&mut rng) {
                Op::At(d) => {
                    let t = SimTime::from_ps(now + d);
                    let k = match rng.below(3) {
                        0 => EventKind::TxComplete {
                            link: LinkId(step as u32),
                        },
                        1 => EventKind::Delivery {
                            link: LinkId(step as u32),
                            slot: crate::packet::PacketSlot(0),
                        },
                        _ => kind(step),
                    };
                    // A quarter of schedules go through a reserved seq, as
                    // the simulator's timer table and transmitters do.
                    match rng.below(8) {
                        0 => {
                            let seq = Scheduler::reserve_seq(&mut wheel);
                            assert_eq!(seq, heap.reserve_seq());
                            reserved.push(seq);
                        }
                        1 if !reserved.is_empty() => {
                            let seq =
                                reserved.swap_remove(rng.below(reserved.len() as u64) as usize);
                            Scheduler::schedule_reserved(&mut wheel, t, seq, k);
                            heap.schedule_reserved(t, seq, k);
                        }
                        _ => {
                            Scheduler::schedule(&mut wheel, t, k);
                            heap.schedule(t, k);
                        }
                    }
                    continue;
                }
                Op::Peek => {
                    assert_eq!(
                        Scheduler::peek_time(&mut wheel),
                        heap.peek_time(),
                        "peek at step {step}"
                    );
                    continue;
                }
                Op::Pop => (Scheduler::pop(&mut wheel), heap.pop()),
                Op::PopDue(d) => {
                    let deadline = SimTime::from_ps(now + d);
                    let w = match heap.peek_time() {
                        Some(t) if t <= deadline => heap.pop(),
                        _ => None,
                    };
                    (Scheduler::pop_due(&mut wheel, deadline), w)
                }
            };
            match (g, w) {
                (Some(g), Some(w)) => {
                    assert_eq!(format!("{g:?}"), format!("{w:?}"), "step {step}");
                    now = g.time.as_ps();
                }
                (None, None) => {}
                _ => panic!("presence diverged at step {step}"),
            }
        }
        loop {
            match (Scheduler::pop(&mut wheel), heap.pop()) {
                (Some(g), Some(w)) => assert_eq!(format!("{g:?}"), format!("{w:?}")),
                (None, None) => break,
                _ => panic!("drain presence diverged"),
            }
        }
    }

    #[test]
    fn steady_state_cascades_stay_bounded() {
        // A metronome of near-future events: the cursor should mostly ride
        // the level-0 bitmap; cascades stay far below one per event.
        let mut wheel = TimingWheel::new();
        let mut fired = 0u64;
        wheel.schedule(SimTime::from_ps(1200), kind(0));
        while let Some(e) = Scheduler::pop(&mut wheel) {
            let now = e.time.as_ps();
            fired += 1;
            if fired < 10_000 {
                wheel.schedule(SimTime::from_ps(now + 1_200_000), kind(fired));
            }
        }
        assert_eq!(fired, 10_000);
        assert!(
            wheel.cascades() < fired / 4,
            "{} cascades for {} events",
            wheel.cascades(),
            fired
        );
    }

    #[test]
    fn incast_stream_does_not_sort_insert() {
        // The packet path of an incast: 80 links, each scheduling its next
        // frame 17–20 ticks after the last (a 1500 B frame at 100 Gbps plus
        // propagation), spread over that period, and one sparse 200 ms
        // timer. No frame is due in the tick it is scheduled from, so none
        // should shift the ready buffer.
        let mut rng = Rng::new(5);
        let mut wheel = TimingWheel::new();
        let hop = |rng: &mut Rng| 17 * TICK + rng.below(3 * TICK);
        for link in 0..80 {
            let kind = EventKind::Delivery {
                link: LinkId(link),
                slot: PacketSlot(0),
            };
            wheel.schedule(SimTime::from_ps(rng.below(20 * TICK)), kind);
        }
        wheel.schedule(SimTime::from_ms(200), kind(0));
        for _ in 0..200_000 {
            let ev = wheel.pop().unwrap();
            let next = match ev.kind {
                EventKind::Timer { .. } => SimTime::from_ms(200).as_ps(),
                _ => hop(&mut rng),
            };
            wheel.schedule(SimTime::from_ps(ev.time.as_ps() + next), ev.kind);
        }
        let per_schedule = wheel.ready_shifts() as f64 / wheel.scheduled_total() as f64;
        assert!(
            per_schedule <= 0.05,
            "{per_schedule:.3} ready entries shifted per schedule"
        );
    }

    #[test]
    fn hold64k_sort_inserts_stay_short() {
        // The `hold64k` kernel's shape: 65 536 pending, 90 % due within
        // 2^24 ps (64 ticks) and 10 % at 200 ms; each hold pops the minimum
        // and schedules one more from its time. Only an event due in the
        // cursor's own tick may shift the ready buffer, and only past the
        // rest of that tick: with `x` the unelapsed share of the tick and
        // `n` its events, a hold lands there with probability 0.9·x/64 and
        // then shifts about n·x/2, so 0.9·n/384 on average — ≈ 3.6 at this
        // population's ~1 500 events per tick. Bulk-draining the whole
        // 64-tick frame instead shifts thousands per hold.
        let mut rng = Rng::new(9);
        let mut wheel = TimingWheel::new();
        let mut horizon = |now: u64| {
            now + if rng.chance(0.1) {
                SimTime::from_ms(200).as_ps()
            } else {
                rng.below(1 << 24)
            }
        };
        for i in 0..65_536 {
            wheel.schedule(SimTime::from_ps(horizon(0)), kind(i));
        }
        let before = wheel.ready_shifts();
        const HOLDS: u64 = 100_000;
        for i in 0..HOLDS {
            let ev = wheel.pop().unwrap();
            wheel.schedule(SimTime::from_ps(horizon(ev.time.as_ps())), kind(i));
        }
        let per_hold = (wheel.ready_shifts() - before) as f64 / HOLDS as f64;
        assert!(
            per_hold <= 8.0,
            "{per_hold:.1} ready entries shifted per hold"
        );
    }
}
