//! The future event list: the [`Scheduler`] abstraction and its reference
//! implementation.
//!
//! Events are ordered by `(time, sequence)`. The sequence number is assigned
//! at scheduling time, so events at the same instant fire in scheduling
//! order — this makes the whole simulation deterministic, a hard requirement
//! for reproducing the paper's figures bit-for-bit from a seed.
//!
//! [`EventQueue`] is the straightforward binary min-heap. The production
//! engine runs the hierarchical timing wheel in [`crate::wheel`]; both sit
//! behind [`Scheduler`] so the differential tests can drive them from the
//! same seed and assert identical pop order.

use crate::ids::{LinkId, NodeId};
use crate::packet::PacketSlot;
use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// What happens when an event fires.
#[derive(Debug, Clone, Copy)]
pub enum EventKind {
    /// A link finished serializing a frame and someone needs to know: the
    /// next frame, already waiting in the egress queue, or the frame itself,
    /// on a link that can lose it (the loss draw and the frame's `Delivery`
    /// happen here). A frame that starts on an idle, loss-free link with
    /// nothing behind it schedules no `TxComplete` at all — the link records
    /// `(busy_until, seq)` instead and the event is scheduled late, under
    /// that reserved seq, only if a frame arrives before then. See
    /// `Simulator::start_tx` and DESIGN.md §11.
    TxComplete { link: LinkId },
    /// A frame finished propagating and arrives at the link's far end;
    /// scheduled when its transmission starts (when it ends, on a link that
    /// can lose it), always under the seq after its `TxComplete`'s. The
    /// packet itself lives in the simulator's [`crate::packet::PacketPool`];
    /// the event carries only its slot, keeping events small and the hot
    /// path free of packet copies through the scheduler.
    Delivery { link: LinkId, slot: PacketSlot },
    /// A node timer set through [`crate::endpoint::Ctx::set_timer`].
    Timer { node: NodeId, key: u64, gen: u64 },
    /// A scheduled fault from the run's [`crate::fault::FaultPlan`] fires;
    /// `index` is the event's position in the plan.
    Fault { index: u32 },
}

/// An event with its firing time and deterministic tie-break sequence.
#[derive(Debug, Clone, Copy)]
pub struct Event {
    pub time: SimTime,
    pub seq: u64,
    pub kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse for a min-heap on (time, seq).
        other
            .time
            .cmp(&self.time)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A future event list the simulator can run on.
///
/// Implementations must pop events in exactly `(time, seq)` order, with
/// `seq` assigned in scheduling order — two schedulers driven by the same
/// schedule sequence must produce the same pop sequence. That contract is
/// what lets the differential harness (`tests/scheduler_equivalence.rs`)
/// swap the timing wheel in for the heap without changing a single figure.
pub trait Scheduler: Default {
    /// Short implementation name, emitted in run manifests and benchmarks.
    const NAME: &'static str;

    /// Schedules `kind` to fire at `time`, assigning the next sequence
    /// number as the deterministic same-time tie-break.
    fn schedule(&mut self, time: SimTime, kind: EventKind);

    /// Consumes and returns the next sequence number without scheduling
    /// anything, so an event held outside the scheduler can still claim its
    /// tie-break seq at "schedule" time. The simulator's timer table arms
    /// every timer this way: a deadline stored behind the timer's one live
    /// event keeps the seq a freshly scheduled event would have taken. So
    /// does every transmission start, for a `TxComplete` that is scheduled
    /// only if a frame turns up to wait for it.
    fn reserve_seq(&mut self) -> u64;

    /// Schedules `kind` at `time` under a seq from [`Scheduler::reserve_seq`]
    /// instead of assigning a fresh one. `(time, seq)` may sort before
    /// events scheduled since the seq was reserved, never before one
    /// already popped.
    fn schedule_reserved(&mut self, time: SimTime, seq: u64, kind: EventKind);

    /// Removes and returns the earliest event.
    fn pop(&mut self) -> Option<Event>;

    /// Removes and returns the earliest event if it fires at or before
    /// `deadline`. One scheduler touch instead of the `peek_time` + `pop`
    /// pair the bounded run loop would otherwise pay per event;
    /// implementations override this to share the "find the minimum" work
    /// between the check and the removal.
    fn pop_due(&mut self, deadline: SimTime) -> Option<Event> {
        match self.peek_time() {
            Some(t) if t <= deadline => self.pop(),
            _ => None,
        }
    }

    /// Time of the earliest pending event. Takes `&mut self` because lazy
    /// implementations (the timing wheel) advance internal state to find it.
    fn peek_time(&mut self) -> Option<SimTime>;

    /// `(time, seq)` key of the earliest pending event. No in-tree caller:
    /// kept for the out-of-tree scheduler recorder (`benchmark/src/probes.rs`
    /// implements it on its wrapper); remove with the next `benchmark` PR.
    fn peek_key(&mut self) -> Option<(SimTime, u64)>;

    /// Number of pending events.
    fn len(&self) -> usize;

    /// True if nothing is pending.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total events ever scheduled (diagnostic).
    fn scheduled_total(&self) -> u64;
}

/// The reference scheduler: a plain binary min-heap.
///
/// Kept as the oracle the timing wheel is differentially tested against;
/// `O(log n)` per operation and re-heapifies on every timer reschedule.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Event>,
    next_seq: u64,
}

impl EventQueue {
    /// Creates an empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedules `kind` to fire at `time`.
    pub fn schedule(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { time, seq, kind });
    }

    /// Claims the next sequence number without scheduling.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `kind` at `time` under an already-reserved seq.
    pub fn schedule_reserved(&mut self, time: SimTime, seq: u64, kind: EventKind) {
        self.heap.push(Event { time, seq, kind });
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<Event> {
        self.heap.pop()
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.time)
    }

    /// `(time, seq)` key of the earliest pending event.
    pub fn peek_key(&self) -> Option<(SimTime, u64)> {
        self.heap.peek().map(|e| (e.time, e.seq))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if nothing is pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events ever scheduled (diagnostic).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }
}

impl Scheduler for EventQueue {
    const NAME: &'static str = "heap";

    fn schedule(&mut self, time: SimTime, kind: EventKind) {
        EventQueue::schedule(self, time, kind);
    }

    fn reserve_seq(&mut self) -> u64 {
        EventQueue::reserve_seq(self)
    }

    fn schedule_reserved(&mut self, time: SimTime, seq: u64, kind: EventKind) {
        EventQueue::schedule_reserved(self, time, seq, kind);
    }

    fn pop(&mut self) -> Option<Event> {
        EventQueue::pop(self)
    }

    fn pop_due(&mut self, deadline: SimTime) -> Option<Event> {
        if self.heap.peek()?.time > deadline {
            return None;
        }
        self.heap.pop()
    }

    fn peek_time(&mut self) -> Option<SimTime> {
        EventQueue::peek_time(self)
    }

    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        EventQueue::peek_key(self)
    }

    fn len(&self) -> usize {
        EventQueue::len(self)
    }

    fn scheduled_total(&self) -> u64 {
        EventQueue::scheduled_total(self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timer(node: u32, key: u64) -> EventKind {
        EventKind::Timer {
            node: NodeId(node),
            key,
            gen: 0,
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(3), timer(0, 0));
        q.schedule(SimTime::from_us(1), timer(0, 1));
        q.schedule(SimTime::from_us(2), timer(0, 2));
        let times: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| e.time.as_ps())
            .collect();
        assert_eq!(times, vec![1_000_000, 2_000_000, 3_000_000]);
    }

    #[test]
    fn ties_break_by_schedule_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_us(5);
        for key in 0..10 {
            q.schedule(t, timer(0, key));
        }
        let keys: Vec<u64> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer { key, .. } => key,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(keys, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn peek_time_tracks_min() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_ms(2), timer(0, 0));
        q.schedule(SimTime::from_ms(1), timer(0, 1));
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(1)));
        q.pop();
        assert_eq!(q.peek_time(), Some(SimTime::from_ms(2)));
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(SimTime::ZERO, timer(0, 0));
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.scheduled_total(), 1);
    }

    #[test]
    fn interleaved_schedule_pop_stays_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(10), timer(0, 0));
        q.schedule(SimTime::from_us(5), timer(0, 1));
        let first = q.pop().unwrap();
        assert_eq!(first.time, SimTime::from_us(5));
        q.schedule(SimTime::from_us(7), timer(0, 2));
        assert_eq!(q.pop().unwrap().time, SimTime::from_us(7));
        assert_eq!(q.pop().unwrap().time, SimTime::from_us(10));
    }
}
