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
//!   within a tick is exact — due events are kept `(time, seq)`-sorted in
//!   the ready buffer — so tick size trades refill frequency against
//!   ready-buffer length, not correctness. 262 ns spans a couple of events
//!   of an incast run's steady state, which measured fastest: one refill
//!   amortizes over a small batch without the ready inserts getting long.
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
//! - A one-slot **front cache** catches the hottest schedule of all: an
//!   event that is provably the next pop (sub-tick serialization and
//!   propagation hops — an ACK crossing a 100 Gbps link schedules its next
//!   hop a few ns out, ahead of everything pending). Roughly a third of a
//!   fig5 run's schedules would otherwise sort-insert at the very *front*
//!   of the ready buffer, the position that memmoves the whole live tail.
//!
//! Events whose tick has come due sit in a small `ready` heap ordered by
//! `(time, seq)` — exactly the reference [`EventQueue`] order — so the wheel
//! pops the same sequence the heap would, event for event. That equivalence
//! is enforced by the property tests below and by the differential harness
//! in `tests/scheduler_equivalence.rs`.
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

/// The due-event staging buffer: a vector in ascending `(time, seq)` pop
/// order with a consuming head cursor.
///
/// Storing pop order front-to-back makes the hot due-insert cheap: a
/// freshly scheduled due event almost always pops *after* everything
/// already staged (its time is ≥ now and its seq is the newest), so the
/// binary search lands at the end and the insert is an O(1) push. Back-
/// to-front storage would put that same event at index 0 and memmove the
/// whole buffer every time. Popping advances `head` instead of shifting;
/// the vector is cleared (capacity kept) once drained. A heap here costs a
/// cache-hostile sift on every one of the run's million-plus pops; sorting
/// each refill's bulk drain once is measurably cheaper on the fig5 mix.
#[derive(Debug, Default)]
struct ReadyVec {
    v: Vec<Packed>,
    head: usize,
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

    /// Inserts `ev` keeping pop order; O(log n) search plus a memmove of
    /// everything later-popping than `ev`. The worst case — an event
    /// beating the head, which would move the entire live tail — is
    /// siphoned off by the wheel's front cache before it gets here.
    #[inline]
    fn push(&mut self, ev: Packed) {
        let key = (ev.time, ev.st);
        let i = self.v[self.head..].partition_point(|e| (e.time, e.st) < key);
        self.v.insert(self.head + i, ev);
    }

    /// Appends without ordering; the caller must [`ReadyVec::sort`] before
    /// the next pop/peek/push.
    #[inline]
    fn append_unsorted(&mut self, events: std::vec::Drain<'_, Packed>) {
        self.v.extend(events);
    }

    #[inline]
    fn sort(&mut self) {
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

/// Where the candidate scan found the earliest pending tick.
#[derive(Clone, Copy, Debug)]
enum Cand {
    Slot { level: usize, idx: usize },
    Overflow,
}

/// The hierarchical timing wheel scheduler. See the module docs.
#[derive(Debug)]
pub struct TimingWheel {
    /// Current tick: no pending event's tick is below it.
    cursor: u64,
    /// One-slot front cache: a freshly scheduled event that provably
    /// precedes everything pending (its `(time, seq)` beats the ready
    /// head, which is the global minimum whenever `ready` is non-empty)
    /// parks here instead of sort-inserting at the very front of the
    /// ready buffer — the most expensive position, a memmove of the whole
    /// live tail. Incast hot loops hit this constantly: an event chain
    /// hopping ns-scale links schedules its own continuation as the next
    /// global event. While occupied, the cache is the pop source and the
    /// cursor never advances, so parked events re-insert safely on
    /// demotion.
    front: Option<Packed>,
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
            front: None,
            ready: ReadyVec::default(),
            // Each slot starts at the capacity its first push would allocate
            // anyway (24 KiB in all): timer events are sparse, so well into
            // a run one still lands in a coarse slot nothing has touched,
            // and the steady state must not allocate for that.
            slots: (0..LEVELS * SLOTS).map(|_| Vec::with_capacity(4)).collect(),
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

    /// Routes a freshly scheduled event through the front cache: an event
    /// that provably pops before everything pending parks in the one-slot
    /// register, everything else takes the ordinary [`TimingWheel::insert`]
    /// path. Only schedule-time entry points come through here — internal
    /// re-hashes (cascades, overflow pull-ins) bypass the cache, their
    /// events are never the global minimum mid-refill.
    ///
    /// Safety of the demotion (`insert(f)` below): while the cache is
    /// occupied every pop/peek path serves it first and never calls
    /// `refill`, so the cursor cannot have advanced since `f` parked and
    /// `f` still hashes at or ahead of the cursor.
    #[inline]
    fn front_or_insert(&mut self, p: Packed) {
        match self.front {
            Some(f) => {
                if (p.time, p.st) < (f.time, f.st) {
                    self.front = Some(p);
                    self.insert(f);
                } else {
                    self.insert(p);
                }
            }
            // The ready head is the global minimum whenever it exists (the
            // cursor sits on the earliest pending tick); with ready empty
            // there is no O(1) bound to beat, so don't park.
            None => match self.ready.peek() {
                Some(h) if (p.time, p.st) < (h.time, h.st) => self.front = Some(p),
                _ => self.insert(p),
            },
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

    /// Advances the cursor to the earliest pending tick and gathers every
    /// event of that tick into `ready`. Returns false only when nothing is
    /// pending at all.
    ///
    /// Conservative candidates (a higher-level slot's start, which may
    /// undershoot the slot's actual minimum) are resolved by cascading the
    /// slot and rescanning; the loop returns once the scan proves all
    /// remaining wheel/overflow events lie strictly after the cursor.
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

    fn refill(&mut self) -> bool {
        loop {
            self.cascade_entered_slots();

            // Lower bound over everything coarser than level 0: the
            // earliest possible tick in levels 1.. and the overflow heap.
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

            // Bulk-drain the level-0 frame: every tick from the cursor up
            // to the coarse bound is exactly resolved, so all of them move
            // to `ready` in one pass and the scan amortizes over up to 64
            // pops. The cursor lands on the last tick proven clear, so
            // late inserts into the drained range go straight to `ready`.
            let c0 = (self.cursor & SLOT_MASK) as u32;
            let frame = self.cursor & !SLOT_MASK;
            let limit = best_tick.min(frame + SLOTS as u64); // exclusive
            let mut ahead0 = self.occ[0] >> c0;
            let mut drained = false;
            while ahead0 != 0 {
                let idx = ahead0.trailing_zeros() + c0;
                let tick = frame | idx as u64;
                if tick >= limit {
                    break;
                }
                self.occ[0] &= !(1u64 << idx);
                self.ready
                    .append_unsorted(self.slots[idx as usize].drain(..));
                ahead0 &= ahead0 - 1;
                // The cursor lands on the last *occupied* tick drained, not
                // `limit - 1`: ticks between the two are proven clear, but
                // keeping the cursor low routes later inserts into level-0
                // slots (a plain push) instead of the ready buffer (a
                // binary insert paying a memmove), and the occupancy bitmap
                // makes rescanning the cleared gap free.
                self.cursor = tick;
                drained = true;
            }
            if drained {
                self.ready.sort();
                return true;
            }

            // Nothing due in this frame before the coarse bound; consider
            // the level-0 bits that wrapped into the next frame, then jump
            // to the best candidate and resolve it.
            let behind0 = self.occ[0] & !(u64::MAX << c0);
            if behind0 != 0 {
                let idx = behind0.trailing_zeros();
                let t = frame + SLOTS as u64 + idx as u64;
                if t < best_tick {
                    best_tick = t;
                    best = Some(Cand::Slot {
                        level: 0,
                        idx: idx as usize,
                    });
                }
            }
            let Some(cand) = best else {
                return !self.ready.is_empty();
            };
            if !self.ready.is_empty() && best_tick > self.cursor {
                // `ready` already holds everything up to the cursor;
                // the rest is strictly later.
                return true;
            }
            debug_assert!(best_tick >= self.cursor, "wheel scanned past an event");
            self.cursor = best_tick;
            self.act(cand);
        }
    }

    /// Drains the candidate the cursor just advanced to: a slot re-hashes
    /// through [`TimingWheel::insert`] (due events land in `ready`), the
    /// overflow heap spills everything now within the wheel's span.
    fn act(&mut self, cand: Cand) {
        match cand {
            Cand::Slot { level, idx } => {
                self.occ[level] &= !(1u64 << idx);
                // Draining a level-0 slot moves events straight to
                // `ready`; only coarser slots are true cascades.
                self.cascades += (level > 0) as u64;
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

    fn schedule(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.len += 1;
        let p = self.pack(time, seq, kind);
        self.front_or_insert(p);
    }

    fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    fn schedule_reserved(&mut self, time: SimTime, seq: u64, kind: EventKind) {
        self.len += 1;
        let p = self.pack(time, seq, kind);
        self.front_or_insert(p);
    }

    fn pop(&mut self) -> Option<Event> {
        if let Some(p) = self.front.take() {
            self.len -= 1;
            return Some(self.unpack(p));
        }
        if self.ready.is_empty() && !self.refill() {
            return None;
        }
        self.len -= 1;
        let p = self.ready.pop()?;
        Some(self.unpack(p))
    }

    fn pop_due(&mut self, deadline: SimTime) -> Option<Event> {
        // The front cache, when occupied, is the global minimum: past the
        // deadline means nothing else is due either.
        if let Some(p) = self.front {
            if p.time > deadline {
                return None;
            }
            self.front = None;
            self.len -= 1;
            return Some(self.unpack(p));
        }
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
        if let Some(p) = &self.front {
            return Some(p.time);
        }
        if self.ready.is_empty() && !self.refill() {
            return None;
        }
        self.ready.peek().map(|e| e.time)
    }

    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        if let Some(p) = &self.front {
            return Some((p.time, p.seq()));
        }
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

    /// The model the wheel is checked against: a plain vector, sorted on
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
        fn pop(&mut self) -> Option<(u64, u64, u64)> {
            let i = self
                .pending
                .iter()
                .enumerate()
                .min_by_key(|(_, &(t, s, _))| (t, s))
                .map(|(i, _)| i)?;
            Some(self.pending.swap_remove(i))
        }
    }

    /// Drives the wheel and the model through the same schedule/pop script
    /// and asserts identical pop streams.
    fn check_script(script: &[(bool, u64)]) {
        let mut wheel = TimingWheel::new();
        let mut model = SortedVecModel::default();
        let mut tag = 0u64;
        let mut now = 0u64;
        for &(is_pop, t) in script {
            if is_pop {
                let got = wheel.pop();
                let want = model.pop();
                match (got, want) {
                    (Some(g), Some(w)) => {
                        assert_eq!((g.time.as_ps(), g.seq, tag_of(&g)), w, "pop diverged");
                        now = g.time.as_ps();
                    }
                    (None, None) => {}
                    (g, w) => panic!("presence diverged: wheel={g:?} model={w:?}"),
                }
            } else {
                let at = now + t;
                wheel.schedule(SimTime::from_ps(at), kind(tag));
                model.schedule(at, tag);
                tag += 1;
            }
        }
        // Drain both to the end.
        loop {
            let got = wheel.pop();
            let want = model.pop();
            match (got, want) {
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
        let tick = 1u64 << TICK_BITS;
        for seed in 0..25u64 {
            let mut rng = Rng::new(seed);
            let mut script = Vec::new();
            for _ in 0..1500 {
                if rng.chance(0.4) {
                    script.push((true, 0));
                } else {
                    // Delta profile spanning every level and the overflow.
                    let delta = match rng.below(6) {
                        0 => rng.below(tick),                                       // same tick
                        1 => rng.below(64 * tick),                                  // level 0
                        2 => rng.below(64 * 64 * tick),                             // level 1
                        3 => rng.below(SPAN_TICKS * tick),                          // whole wheel
                        4 => SPAN_TICKS * tick + rng.below(60 * SPAN_TICKS * tick), // overflow
                        _ => 0, // due immediately
                    };
                    script.push((false, delta));
                }
            }
            check_script(&script);
        }
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
        let tick = 1u64 << TICK_BITS;
        let edges = [
            63 * tick,
            64 * tick,
            (64 * 64 - 1) * tick,
            64 * 64 * tick,
            64 * 64 * 64 * tick,
            (SPAN_TICKS - 1) * tick,
            SPAN_TICKS * tick,     // first overflow tick
            SPAN_TICKS * tick * 3, // deep overflow
        ];
        let mut script = Vec::new();
        for &e in &edges {
            for d in [
                e.saturating_sub(tick),
                e.saturating_sub(1),
                e,
                e + 1,
                e + tick,
            ] {
                script.push((false, d));
            }
        }
        // Interleave pops so the cursor crosses the rollovers mid-script.
        for i in (0..script.len()).rev().step_by(3) {
            script.insert(i, (true, 0));
        }
        check_script(&script);
    }

    #[test]
    fn cross_revolution_events_do_not_fire_early() {
        // Two events one full level-1 revolution apart land in the same
        // slot; the later one must wait for the next pass.
        let tick = 1u64 << TICK_BITS;
        let mut wheel = TimingWheel::new();
        wheel.schedule(SimTime::from_ps(70 * tick), kind(0));
        // Pop it so the cursor advances to tick 70.
        assert_eq!(tag_of(&wheel.pop().unwrap()), 0);
        // Same level-1 slot digit, one revolution later, plus a nearer event.
        wheel.schedule(SimTime::from_ps((70 + 64 * 64) * tick), kind(1));
        wheel.schedule(SimTime::from_ps(80 * tick), kind(2));
        assert_eq!(tag_of(&wheel.pop().unwrap()), 2);
        let last = wheel.pop().unwrap();
        assert_eq!(tag_of(&last), 1);
        assert_eq!(last.time.as_ps(), (70 + 64 * 64) * tick);
        assert!(wheel.pop().is_none());
    }

    #[test]
    fn overflow_events_cascade_into_wheel() {
        let mut wheel = TimingWheel::new();
        // A 60 s RTO ceiling event: far beyond the ~1.1 s span.
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
        for step in 0..3000u64 {
            if rng.chance(0.45) {
                let (g, w) = (Scheduler::pop(&mut wheel), heap.pop());
                match (g, w) {
                    (Some(g), Some(w)) => {
                        assert_eq!((g.time, g.seq), (w.time, w.seq));
                        now = g.time.as_ps();
                    }
                    (None, None) => {}
                    _ => panic!("presence diverged at step {step}"),
                }
            } else {
                let t = SimTime::from_ps(now + rng.below(1u64 << 42));
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
                Scheduler::schedule(&mut wheel, t, k);
                heap.schedule(t, k);
            }
        }
        loop {
            match (Scheduler::pop(&mut wheel), heap.pop()) {
                (Some(g), Some(w)) => assert_eq!((g.time, g.seq), (w.time, w.seq)),
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
}
