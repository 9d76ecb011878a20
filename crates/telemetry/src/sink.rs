//! Event sinks: where telemetry events go.
//!
//! The simulator and transport emit [`Event`]s through a [`SinkRef`] — a
//! cheap clonable handle. When no sink is attached the emitting code pays
//! one `Option` check per would-be event; when one is attached, the sink's
//! [`EventSink::accepts`] gate lets it subscribe to only the classes it
//! wants before any serialization happens.

use crate::chunked::ChunkedText;
use crate::event::{Event, EventClass};
use std::cell::RefCell;
use std::io;
use std::rc::Rc;

/// A consumer of telemetry events.
pub trait EventSink {
    /// Whether this sink wants events of `class` at all. Emitters may use
    /// this to skip building events nobody will consume.
    fn accepts(&self, class: EventClass) -> bool {
        let _ = class;
        true
    }

    /// Consumes one event.
    fn on_event(&mut self, ev: &Event);

    /// Number of events this sink has consumed.
    fn event_count(&self) -> u64;
}

/// A clonable shared handle to a dynamically-typed sink.
///
/// The simulation is single-threaded, so `Rc<RefCell<..>>` (mirroring
/// simnet's `Shared<T>`) is the right sharing primitive. Callers that need
/// to read results back after a run keep their own typed
/// `Rc<RefCell<JsonlSink>>` and hand a `SinkRef` to the instrumented
/// components.
#[derive(Clone)]
pub struct SinkRef(Rc<RefCell<dyn EventSink>>);

impl SinkRef {
    /// Wraps a concrete sink.
    pub fn new<S: EventSink + 'static>(sink: S) -> Self {
        SinkRef(Rc::new(RefCell::new(sink)))
    }

    /// Wraps an existing shared sink, leaving the caller a typed handle.
    pub fn from_rc<S: EventSink + 'static>(sink: Rc<RefCell<S>>) -> Self {
        SinkRef(sink)
    }

    /// Whether the sink subscribes to `class`.
    pub fn accepts(&self, class: EventClass) -> bool {
        self.0.borrow().accepts(class)
    }

    /// Delivers one event.
    pub fn emit(&self, ev: &Event) {
        self.0.borrow_mut().on_event(ev);
    }

    /// Events consumed so far.
    pub fn event_count(&self) -> u64 {
        self.0.borrow().event_count()
    }
}

impl std::fmt::Debug for SinkRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SinkRef")
            .field("events", &self.event_count())
            .finish()
    }
}

/// A sink that counts events and discards them. Useful for measuring the
/// overhead of event construction itself.
#[derive(Debug, Default)]
pub struct NullSink {
    count: u64,
}

impl NullSink {
    /// A fresh counting sink.
    pub fn new() -> Self {
        Self::default()
    }
}

impl EventSink for NullSink {
    fn on_event(&mut self, _ev: &Event) {
        self.count += 1;
    }

    fn event_count(&self) -> u64 {
        self.count
    }
}

/// An in-memory JSONL sink: every accepted event becomes one JSON object on
/// its own line, in arrival order. Output is deterministic — equal event
/// streams render to equal bytes.
///
/// The lines are kept in line-aligned chunks, so the stream sits in memory
/// once at about its own size; [`write_to`](Self::write_to) streams them
/// out without a copy, [`render`](Self::render) joins them into one
/// `String`.
#[derive(Debug)]
pub struct JsonlSink {
    buf: ChunkedText,
    count: u64,
    /// When set, only packet/flow events for this flow id are recorded
    /// (class-level events like queue depth always pass).
    flow_filter: Option<u32>,
    /// Subscribed classes, as the OR of their [`EventClass::bit`]s.
    classes: u8,
}

impl Default for JsonlSink {
    fn default() -> Self {
        Self::new()
    }
}

impl JsonlSink {
    /// A sink capturing every event class.
    pub fn new() -> Self {
        JsonlSink {
            buf: ChunkedText::default(),
            count: 0,
            flow_filter: None,
            classes: u8::MAX,
        }
    }

    /// Restricts flow-attributed events (packets, flow windows) to `flow`.
    pub fn with_flow_filter(mut self, flow: u32) -> Self {
        self.flow_filter = Some(flow);
        self
    }

    /// Restricts the sink to the given event classes.
    pub fn with_classes(mut self, classes: &[EventClass]) -> Self {
        self.classes = classes.iter().fold(0, |mask, class| mask | class.bit());
        self
    }

    /// Wraps this sink for sharing; returns the typed handle plus the
    /// `SinkRef` to hand to instrumented components.
    pub fn shared(self) -> (Rc<RefCell<JsonlSink>>, SinkRef) {
        let rc = Rc::new(RefCell::new(self));
        let sref = SinkRef::from_rc(rc.clone());
        (rc, sref)
    }

    /// The JSONL stream (one JSON object per line) as one `String`: a copy
    /// of the chunks. To put it in a file or a pipe, prefer
    /// [`write_to`](Self::write_to).
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(self.buf.len());
        self.buf.push_to(&mut out);
        out
    }

    /// Writes the JSONL stream to `w` chunk by chunk, without a copy.
    pub fn write_to(&self, w: &mut impl io::Write) -> io::Result<()> {
        self.buf.write_to(w)
    }

    /// Iterator over rendered lines.
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        self.buf.chunks().flat_map(str::lines)
    }

    /// Number of events recorded.
    pub fn events_written(&self) -> u64 {
        self.count
    }
}

impl EventSink for JsonlSink {
    fn accepts(&self, class: EventClass) -> bool {
        self.classes & class.bit() != 0
    }

    fn on_event(&mut self, ev: &Event) {
        if !self.accepts(ev.class()) {
            return;
        }
        if let (Some(want), Some(flow)) = (self.flow_filter, ev.flow()) {
            if flow != want {
                return;
            }
        }
        ev.write_jsonl(self.buf.record());
        self.count += 1;
    }

    fn event_count(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::chunked::{CHUNK_BYTES, RECORD_ROOM};
    use crate::event::tests::every_variant;
    use crate::event::{EventKind, FlowState, PktDetail, PktInfo, WindowTrigger};
    use crate::json::LINE_CAPACITY;

    fn pkt(flow: u32) -> PktInfo {
        PktInfo {
            flow,
            src: 0,
            dst: 1,
            bytes: 1500,
            ce: false,
            detail: PktDetail::Data {
                seq: 0,
                payload: 1446,
                retx: false,
            },
        }
    }

    fn enq(t: u64, flow: u32) -> Event {
        Event {
            t_ps: t,
            kind: EventKind::PktEnqueue {
                link: 0,
                pkt: pkt(flow),
                marked: false,
            },
        }
    }

    #[test]
    fn jsonl_records_one_line_per_event() {
        let mut sink = JsonlSink::new();
        sink.on_event(&enq(1, 0));
        sink.on_event(&enq(2, 1));
        assert_eq!(sink.events_written(), 2);
        assert_eq!(sink.lines().count(), 2);
        for line in sink.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'));
        }
    }

    #[test]
    fn flow_filter_drops_other_flows_but_keeps_unattributed() {
        let mut sink = JsonlSink::new().with_flow_filter(3);
        sink.on_event(&enq(1, 2));
        sink.on_event(&enq(2, 3));
        sink.on_event(&Event {
            t_ps: 3,
            kind: EventKind::QueueDepth {
                link: 0,
                pkts: 1,
                bytes: 1500,
            },
        });
        assert_eq!(sink.events_written(), 2);
        assert!(sink.render().contains("queue_depth"));
        assert!(sink.render().contains(r#""flow":3"#));
        assert!(!sink.render().contains(r#""flow":2"#));
    }

    #[test]
    fn class_subscription_gates_events() {
        let mut sink = JsonlSink::new().with_classes(&[EventClass::Flow]);
        assert!(!sink.accepts(EventClass::Packet));
        assert!(sink.accepts(EventClass::Flow));
        sink.on_event(&enq(1, 0));
        sink.on_event(&Event {
            t_ps: 2,
            kind: EventKind::FlowWindow {
                node: 0,
                flow: 0,
                cwnd: 14460,
                ssthresh: u64::MAX,
                inflight: 0,
                state: FlowState::Open,
                trigger: WindowTrigger::Ack,
            },
        });
        assert_eq!(sink.events_written(), 1);
        assert!(sink.render().contains("flow_window"));
    }

    /// A seeded stream of every event variant, flows drawn from 0..3, with
    /// caller-supplied labels longer than a staging buffer (and, now and
    /// then, than a chunk's record room) — enough to fill `bytes` of JSONL.
    pub(crate) fn long_stream(seed: u64, bytes: usize) -> Vec<Event> {
        let label = |len: usize| -> &'static str { "label-".repeat(len / 6).leak() };
        let (long, longer) = (label(2 * LINE_CAPACITY), label(2 * RECORD_ROOM));
        let mut rng = stats::Rng::new(seed);
        let (mut events, mut len) = (Vec::new(), 0);
        while len < bytes {
            let t_ps = rng.next_u64() >> rng.below(64);
            let mut draw = rng.fork(t_ps);
            let bct_ms = rng.range_f64(0.0, 400.0);
            let mut kinds = every_variant(|| draw.next_u64() >> draw.below(64), bct_ms);
            let label = if rng.below(50) == 0 { longer } else { long };
            kinds.push(EventKind::CtrlEpisode {
                node: 1,
                link: 2,
                epoch: 3,
                phase: label,
                targets: 4,
            });
            kinds.push(EventKind::Fault {
                index: 5,
                kind: label,
                target: 6,
            });
            for mut kind in kinds {
                let flow = rng.below(3) as u32;
                match &mut kind {
                    EventKind::PktEnqueue { pkt, .. }
                    | EventKind::PktDrop { pkt, .. }
                    | EventKind::PktTxStart { pkt, .. }
                    | EventKind::PktDeliver { pkt, .. } => pkt.flow = flow,
                    EventKind::FlowWindow { flow: f, .. } => *f = flow,
                    _ => {}
                }
                let ev = Event { t_ps, kind };
                len += ev.to_json().len() + 1;
                events.push(ev);
            }
        }
        events
    }

    #[test]
    fn chunked_stream_renders_byte_identically_to_one_string() {
        let classes = [
            EventClass::Packet,
            EventClass::Queue,
            EventClass::Flow,
            EventClass::App,
            EventClass::Fault,
            EventClass::Ctrl,
        ];
        let mut sink = JsonlSink::new().with_flow_filter(1).with_classes(&classes);
        let mut reference = String::new();
        for ev in long_stream(25, 12 * CHUNK_BYTES) {
            sink.on_event(&ev);
            let wanted = classes.contains(&ev.class()) && ev.flow().is_none_or(|f| f == 1);
            if wanted {
                reference.push_str(&ev.to_json());
                reference.push('\n');
            }
        }
        assert!(reference.contains(r#""ev":"burst_end""#));
        assert!(!reference.contains(r#""ev":"buffer_watermark""#));

        let rendered = sink.render();
        assert!(rendered == reference, "rendered stream differs");
        let chunks: Vec<&str> = sink.buf.chunks().collect();
        assert!(chunks.len() >= 4, "{} chunks", chunks.len());
        for chunk in &chunks {
            assert!(chunk.ends_with('\n'), "a line straddles a chunk");
        }
        assert_eq!(sink.lines().count() as u64, sink.events_written());
        assert!(sink.lines().eq(reference.lines()));
        let mut written = Vec::new();
        sink.write_to(&mut written).unwrap();
        assert!(
            written == reference.as_bytes(),
            "write_to differs from render"
        );
    }

    #[test]
    fn shared_handle_reads_back_through_sinkref() {
        let (rc, sref) = JsonlSink::new().shared();
        sref.emit(&enq(5, 0));
        assert_eq!(sref.event_count(), 1);
        assert_eq!(rc.borrow().events_written(), 1);
    }

    #[test]
    fn null_sink_counts() {
        let mut s = NullSink::new();
        s.on_event(&enq(1, 0));
        s.on_event(&enq(2, 0));
        assert_eq!(s.event_count(), 2);
    }
}
