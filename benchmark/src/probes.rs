//! Measurement primitives that sit *outside* the product crates: process
//! CPU time from `/proc`, a calibration kernel, and wrappers around the two
//! public traits the event loop calls through (`Scheduler`, `EventSink`).

use crate::summary::median;
use simnet::{Event, EventKind, LinkId, NodeId, PacketSlot, Scheduler, SimTime};
use std::cell::RefCell;
use std::sync::OnceLock;
use std::time::Instant;
use telemetry::{EventClass, EventSink};

/// On-CPU and run-queue-wait nanoseconds of the whole process, all threads:
/// fields 1 and 2 of every `/proc/self/task/*/schedstat`. The pool's workers
/// are persistent, so a before/after difference loses no thread.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sched {
    pub cpu_ns: u64,
    pub wait_ns: u64,
}

impl Sched {
    pub fn now() -> Sched {
        let mut s = Sched::default();
        let tasks = std::fs::read_dir("/proc/self/task").expect("procfs: /proc/self/task");
        for task in tasks.flatten() {
            // A thread may exit between readdir and open; it ran nothing
            // we timed.
            let Ok(text) = std::fs::read_to_string(task.path().join("schedstat")) else {
                continue;
            };
            let mut f = text
                .split_ascii_whitespace()
                .map(|x| x.parse::<u64>().unwrap_or(0));
            s.cpu_ns += f.next().unwrap_or(0);
            s.wait_ns += f.next().unwrap_or(0);
        }
        s
    }

    pub fn since(&self, earlier: &Sched) -> Sched {
        Sched {
            cpu_ns: self.cpu_ns.saturating_sub(earlier.cpu_ns),
            wait_ns: self.wait_ns.saturating_sub(earlier.wait_ns),
        }
    }
}

/// A fixed integer kernel (xorshift walk over a 64 KiB table) whose time
/// depends only on the box: run before and after each workload, it says
/// whether a slow run was the program or the machine.
pub fn calib_ms() -> f64 {
    let mut table = [0u32; 16 * 1024];
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let t0 = Instant::now();
    for _ in 0..4_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = &mut table[(x as usize) & (16 * 1024 - 1)];
        *slot = slot.wrapping_add(x as u32);
    }
    std::hint::black_box(&table);
    t0.elapsed().as_secs_f64() * 1e3
}

/// On average one in this many of a [`Timed`] sink's calls is timed; the
/// estimate scales back up.
pub const SAMPLE_EVERY: u64 = 64;

/// Calls, sampled busy time and the sampled intervals themselves.
#[derive(Debug, Default, Clone)]
pub struct Tally {
    pub calls: u64,
    pub sampled_ns: u64,
    /// `(start, end)` of each timed call, for the span trace.
    pub intervals: Vec<(Instant, Instant)>,
    /// Calls left until the next timed one.
    countdown: u64,
    /// Xorshift state behind the gaps: a fixed stride would alias with the
    /// loop's own rhythm (enqueue, dequeue, deliver, ...) and time one kind
    /// of event only.
    gap_rng: u64,
}

/// What an `Instant::now()` pair measures around nothing at all: each
/// sampled call's reading is this much too long. Measured once.
fn timer_overhead_ns() -> f64 {
    static OVERHEAD: OnceLock<f64> = OnceLock::new();
    *OVERHEAD.get_or_init(|| {
        let pairs: Vec<f64> = (0..2001)
            .map(|_| {
                let t0 = Instant::now();
                (Instant::now() - t0).as_nanos() as f64
            })
            .collect();
        median(&pairs)
    })
}

impl Tally {
    /// How many calls each timed one stands for.
    pub fn weight(&self) -> u64 {
        (self.calls / self.intervals.len().max(1) as u64).max(1)
    }

    /// Estimated total busy nanoseconds: the mean timed call, less the
    /// timer's own cost, times every call.
    pub fn busy_ns(&self) -> f64 {
        let samples = self.intervals.len() as f64;
        if samples == 0.0 {
            return 0.0;
        }
        let per_call = (self.sampled_ns as f64 / samples - timer_overhead_ns()).max(0.0);
        per_call * self.calls as f64
    }

    #[inline]
    fn around<R>(&mut self, f: impl FnOnce() -> R) -> R {
        self.calls += 1;
        if self.countdown > 0 {
            self.countdown -= 1;
            return f();
        }
        // Next gap uniform in [0, 2 * SAMPLE_EVERY - 2]: mean SAMPLE_EVERY - 1
        // untimed calls between timed ones.
        let mut x = self.gap_rng | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.gap_rng = x;
        self.countdown = x % (2 * SAMPLE_EVERY - 1);
        let t0 = Instant::now();
        let r = f();
        let t1 = Instant::now();
        self.sampled_ns += (t1 - t0).as_nanos() as u64;
        self.intervals.push((t0, t1));
        r
    }
}

/// Every call an event loop made on its scheduler, in order, packed: one
/// tag byte per call (`op | kind << 3`) and its arguments as 64-bit words.
/// ~10 bytes a call, so replaying streams ~40 MB, not the ~200 MB an
/// `enum` per call would — the replay must time the scheduler, not memory.
#[derive(Debug, Default)]
pub struct WheelLog {
    tags: Vec<u8>,
    words: Vec<u64>,
}

const OP_SCHEDULE: u8 = 0;
const OP_RESERVE_SEQ: u8 = 1;
const OP_SCHEDULE_RESERVED: u8 = 2;
const OP_POP: u8 = 3;
const OP_POP_DUE: u8 = 4;
const OP_PEEK_TIME: u8 = 5;
const OP_PEEK_KEY: u8 = 6;

impl WheelLog {
    fn push(&mut self, op: u8, words: &[u64]) {
        self.tags.push(op);
        self.words.extend_from_slice(words);
    }

    fn push_kind(&mut self, op: u8, words: &[u64], kind: EventKind) {
        let (k, packed) = match kind {
            EventKind::TxComplete { link } => (0, link.0 as u64),
            EventKind::Delivery { link, slot } => (1, link.0 as u64 | (slot.0 as u64) << 32),
            EventKind::Timer { node, .. } => (2, node.0 as u64),
            EventKind::Fault { index } => (3, index as u64),
        };
        self.push(op | k << 3, words);
        self.words.push(packed);
        if let EventKind::Timer { key, gen, .. } = kind {
            self.words.extend_from_slice(&[key, gen]);
        }
    }

    /// Queue operations recorded (`reserve_seq` hands out a number; it is
    /// not one).
    pub fn queue_ops(&self) -> usize {
        self.tags
            .iter()
            .filter(|&&t| t & 7 != OP_RESERVE_SEQ)
            .count()
    }

    /// Replays the stream against a fresh `S`, three times; the median
    /// wall-clock nanoseconds of one replay. Caches are warmer here than
    /// inside the event loop, so this is the scheduler's cost at its best.
    pub fn replay_ns<S: Scheduler>(&self) -> f64 {
        let runs: Vec<f64> = (0..3)
            .map(|_| {
                let mut s = S::default();
                let mut acc = 0u64;
                let mut words = self.words.iter().copied();
                let mut word = || words.next().expect("log holds every argument");
                let t0 = Instant::now();
                for &tag in &self.tags {
                    let op = tag & 7;
                    if op == OP_SCHEDULE || op == OP_SCHEDULE_RESERVED {
                        let time = SimTime::from_ps(word());
                        let seq = (op == OP_SCHEDULE_RESERVED).then(&mut word);
                        let packed = word();
                        let (a, b) = (packed as u32, (packed >> 32) as u32);
                        let kind = match tag >> 3 {
                            0 => EventKind::TxComplete { link: LinkId(a) },
                            1 => EventKind::Delivery {
                                link: LinkId(a),
                                slot: PacketSlot(b),
                            },
                            2 => EventKind::Timer {
                                node: NodeId(a),
                                key: word(),
                                gen: word(),
                            },
                            _ => EventKind::Fault { index: a },
                        };
                        match seq {
                            Some(seq) => s.schedule_reserved(time, seq, kind),
                            None => s.schedule(time, kind),
                        }
                        continue;
                    }
                    acc ^= match op {
                        OP_RESERVE_SEQ => s.reserve_seq(),
                        OP_POP => s.pop().map_or(0, |e| e.seq),
                        OP_POP_DUE => s.pop_due(SimTime::from_ps(word())).map_or(0, |e| e.seq),
                        OP_PEEK_TIME => s.peek_time().map_or(0, |t| t.as_ps()),
                        _ => s.peek_key().map_or(0, |k| k.1),
                    };
                }
                let ns = t0.elapsed().as_nanos() as f64;
                std::hint::black_box(acc);
                ns
            })
            .collect();
        median(&runs)
    }
}

thread_local! {
    // `run_incast_with::<S>` builds and drops its scheduler internally, so
    // what the wrapper records has to outlive it: it lives here, per
    // thread (a simulation is single-threaded).
    static WHEEL_LOG: RefCell<WheelLog> = RefCell::new(WheelLog::default());
}

/// Takes (and resets) the scheduler calls recorded on this thread.
pub fn take_wheel_log() -> WheelLog {
    WHEEL_LOG.with(|w| std::mem::take(&mut *w.borrow_mut()))
}

/// A [`Scheduler`] that records every call the event loop makes on it and
/// forwards to `S`. Pop order is the inner scheduler's, so results are
/// byte-identical to the unwrapped run.
///
/// The calls are ~10 ns each, below what an `Instant` pair (~30 ns here)
/// can time in place: sampled in-loop timing read 2–3x too high. So the
/// stream is recorded and [`WheelLog::replay_ns`] times it afterwards, on
/// its own.
#[derive(Default)]
pub struct Recorded<S: Scheduler>(S);

fn log(f: impl FnOnce(&mut WheelLog)) {
    WHEEL_LOG.with(|w| f(&mut w.borrow_mut()));
}

impl<S: Scheduler> Scheduler for Recorded<S> {
    const NAME: &'static str = S::NAME;

    fn schedule(&mut self, time: SimTime, kind: EventKind) {
        log(|l| l.push_kind(OP_SCHEDULE, &[time.as_ps()], kind));
        self.0.schedule(time, kind)
    }
    fn reserve_seq(&mut self) -> u64 {
        log(|l| l.push(OP_RESERVE_SEQ, &[]));
        self.0.reserve_seq()
    }
    fn schedule_reserved(&mut self, time: SimTime, seq: u64, kind: EventKind) {
        log(|l| l.push_kind(OP_SCHEDULE_RESERVED, &[time.as_ps(), seq], kind));
        self.0.schedule_reserved(time, seq, kind)
    }
    fn pop(&mut self) -> Option<Event> {
        log(|l| l.push(OP_POP, &[]));
        self.0.pop()
    }
    fn pop_due(&mut self, deadline: SimTime) -> Option<Event> {
        log(|l| l.push(OP_POP_DUE, &[deadline.as_ps()]));
        self.0.pop_due(deadline)
    }
    fn peek_time(&mut self) -> Option<SimTime> {
        log(|l| l.push(OP_PEEK_TIME, &[]));
        self.0.peek_time()
    }
    fn peek_key(&mut self) -> Option<(SimTime, u64)> {
        log(|l| l.push(OP_PEEK_KEY, &[]));
        self.0.peek_key()
    }
    fn len(&self) -> usize {
        self.0.len()
    }
    fn scheduled_total(&self) -> u64 {
        self.0.scheduled_total()
    }
}

/// An [`EventSink`] that counts and samples the time spent in the sink it
/// wraps. Read `tally` and `inner` back through the typed `Rc` the caller
/// keeps beside the `SinkRef`.
pub struct Timed<K: EventSink> {
    pub inner: K,
    pub tally: Tally,
}

impl<K: EventSink> Timed<K> {
    pub fn new(inner: K) -> Self {
        Timed {
            inner,
            tally: Tally::default(),
        }
    }
}

impl<K: EventSink> EventSink for Timed<K> {
    fn accepts(&self, class: EventClass) -> bool {
        self.inner.accepts(class)
    }
    fn on_event(&mut self, ev: &telemetry::Event) {
        let inner = &mut self.inner;
        self.tally.around(|| inner.on_event(ev));
    }
    fn event_count(&self) -> u64 {
        self.inner.event_count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::TimingWheel;

    #[test]
    fn sched_counts_this_threads_cpu_time() {
        let a = Sched::now();
        let t0 = Instant::now();
        let mut x = 1u64;
        while t0.elapsed().as_millis() < 30 {
            x = std::hint::black_box(x.wrapping_mul(3));
        }
        let d = Sched::now().since(&a);
        // Other tests run beside this one, so only a floor is certain.
        assert!(d.cpu_ns >= 15_000_000, "{d:?}");
    }

    #[test]
    fn calibration_kernel_takes_measurable_time() {
        assert!(calib_ms() > 0.5);
    }

    #[test]
    fn recorded_wheel_pops_like_the_wheel_and_replays_its_stream() {
        let _ = take_wheel_log();
        let kind = |key| EventKind::Timer {
            node: NodeId(0),
            key,
            gen: 0,
        };
        let mut plain = TimingWheel::default();
        let mut recorded = Recorded::<TimingWheel>::default();
        // Every event kind goes through the packed log and comes back out.
        let kinds = |i: u64| match i % 4 {
            0 => kind(i),
            1 => EventKind::TxComplete {
                link: LinkId(i as u32),
            },
            2 => EventKind::Delivery {
                link: LinkId(7),
                slot: PacketSlot(i as u32),
            },
            _ => EventKind::Fault { index: i as u32 },
        };
        for i in 0..200u64 {
            let t = SimTime::from_us(1 + (i * 7919) % 500);
            plain.schedule(t, kinds(i));
            recorded.schedule(t, kinds(i));
        }
        assert_eq!(recorded.len(), 200);
        while let Some(e) = plain.pop() {
            let c = recorded
                .pop_due(SimTime::from_secs(1))
                .expect("same length");
            assert_eq!((e.time, e.seq), (c.time, c.seq));
        }
        assert!(recorded.pop().is_none());
        recorded.reserve_seq();
        let log = take_wheel_log();
        assert_eq!((log.tags.len(), log.queue_ops()), (402, 401));
        assert_eq!(take_wheel_log().queue_ops(), 0, "take resets");
        // The replay consumes exactly the words recorded (a short log would
        // panic) and a replayed wheel ends empty, like the live one.
        assert!(log.replay_ns::<TimingWheel>() > 0.0);
        assert_eq!(log.words.len(), 200 * 2 + 50 * 2 + 200);
    }

    #[test]
    fn timed_sink_forwards_and_samples() {
        let mut sink = Timed::new(telemetry::NullSink::new());
        let ev = telemetry::Event {
            t_ps: 1,
            kind: telemetry::EventKind::QueueDepth {
                link: 0,
                pkts: 1,
                bytes: 1500,
            },
        };
        for _ in 0..300 {
            sink.on_event(&ev);
        }
        assert_eq!(sink.event_count(), 300);
        assert_eq!(sink.tally.calls, 300);
        assert!((2..=300).contains(&sink.tally.intervals.len()));
        assert!(sink.accepts(EventClass::Packet));
    }
}
