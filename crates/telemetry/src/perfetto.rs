//! Chrome trace-event / Perfetto export of the telemetry stream.
//!
//! [`PerfettoSink`] consumes the same [`Event`] stream as [`JsonlSink`]
//! and renders it in the Chrome trace-event JSON format, so any run can be
//! opened directly in `chrome://tracing` or [ui.perfetto.dev]. The mapping
//! turns the flat event stream into a *causal* view:
//!
//! - every packet becomes an **async span** per link hop — opened on
//!   enqueue, annotated with an async-instant at serialization start, and
//!   closed on delivery (or on an on-wire fault/corrupt drop);
//! - **flow arrows** connect causes to effects: a drop starts an arrow
//!   that terminates at the retransmission it provoked, and a CE-marked
//!   delivery starts an arrow that terminates at the ECN-Echo ack it
//!   triggers;
//! - per-flow cwnd/ssthresh/inflight and per-link queue depth become
//!   **counter tracks**, giving the cwnd/RTO timelines of the paper's
//!   Section 4 plots for free;
//! - drops, ECN marks, RTOs, fast retransmits, and injected faults become
//!   **instants**, and bursts become long app-level spans.
//!
//! Output is deterministic: it is a pure function of the event stream
//! (fixed field order, shortest-round-trip floats), so byte-identical
//! event streams — e.g. the wheel and heap schedulers on the same seed —
//! render to byte-identical traces. The determinism test-suite relies on
//! this.
//!
//! [ui.perfetto.dev]: https://ui.perfetto.dev
//! [`JsonlSink`]: crate::JsonlSink

use crate::chunked::ChunkedText;
use crate::event::{DropCause, Event, EventClass, EventKind, PktDetail, PktInfo, WindowTrigger};
use crate::json::Line;
use crate::sink::{EventSink, SinkRef};
use std::cell::RefCell;
use std::io;
use std::rc::Rc;

/// Opening of the trace document; the objects in [`PerfettoSink::buf`]
/// follow it.
const DOC_OPEN: &str = r#"{"traceEvents":["#;
const DOC_CLOSE: &str = r#"],"displayTimeUnit":"ms"}"#;

/// The synthetic "processes" trace objects are grouped under.
#[derive(Debug, Clone, Copy)]
enum Pid {
    /// Link-level activity (hop spans, queue and buffer counters, faults).
    Net = 1,
    /// Per-flow transport state (window counters, RTO/fast-retransmit
    /// instants).
    Flow = 2,
    /// Application/workload lifecycle (burst spans).
    App = 3,
}

impl Pid {
    /// The `pid` field and the `tid` key after it.
    const fn tid_key(self) -> &'static str {
        match self {
            Pid::Net => r#","pid":1,"tid":"#,
            Pid::Flow => r#","pid":2,"tid":"#,
            Pid::App => r#","pid":3,"tid":"#,
        }
    }

    /// The `process_name` metadata record naming this pid.
    const fn process_name(self) -> &'static str {
        match self {
            Pid::Net => {
                r#"{"name":"process_name","ph":"M","pid":1,"tid":0,"args":{"name":"network"}}"#
            }
            Pid::Flow => {
                r#"{"name":"process_name","ph":"M","pid":2,"tid":0,"args":{"name":"flows"}}"#
            }
            Pid::App => r#"{"name":"process_name","ph":"M","pid":3,"tid":0,"args":{"name":"app"}}"#,
        }
    }
}

/// The literal run between a trace object's name and its timestamp:
/// closing quote of the name, `cat`, `ph`, and the `ts` key.
macro_rules! cat_ph {
    ($cat:literal, $ph:literal) => {
        concat!(r#"","cat":""#, $cat, r#"","ph":""#, $ph, r#"","ts":"#)
    };
}

/// Phase of an async packet-hop event.
#[derive(Debug, Clone, Copy)]
enum Hop {
    /// Span opens (enqueue).
    Begin,
    /// Async instant inside the span (serialization start).
    Step,
    /// Span closes (delivery, or loss on the wire).
    End,
}

/// What a causal arrow links: the key is what stays stable between the
/// cause and its effect.
#[derive(Debug, Clone, Copy)]
enum Cause {
    /// A TCP drop and the retransmission of the same wire sequence.
    Retx { flow: u32, seq: u32 },
    /// A QUIC loss and its retransmission: a retransmission carries a fresh
    /// packet number, so the key is the stream offset instead.
    QuicRetx { flow: u32, offset: u32 },
    /// A CE-marked delivery and the ECN-Echo ack it triggers.
    Ece { flow: u32 },
}

/// Writes `t_ps` in microseconds exactly as `{}` prints `t_ps as f64 / 1e6`.
///
/// Below 10^15 ps the quotient has at most 15 significant decimal digits,
/// and distinct decimals that short map to distinct doubles, so the
/// shortest decimal that round-trips — what `{}` prints — is the exact
/// quotient with its trailing zeros dropped. That is integer work; the
/// float formatter is kept for the (simulated) quarter hour and beyond.
fn write_ts(w: &mut Line, t_ps: u64) {
    if t_ps >= 1_000_000_000_000_000 {
        w.f64(t_ps as f64 / 1e6);
        return;
    }
    w.u64(t_ps / 1_000_000);
    let mut frac = t_ps % 1_000_000;
    if frac != 0 {
        let mut digits = 6;
        while frac.is_multiple_of(10) {
            frac /= 10;
            digits -= 1;
        }
        let mut leading = 10u64.pow(digits - 1);
        w.raw(".");
        while frac < leading {
            w.raw("0");
            leading /= 10;
        }
        w.u64(frac);
    }
}

/// Timestamp, pid and tid of a trace object whose name is still open;
/// `cat_ph` closes it (see [`cat_ph!`]).
fn stamp(w: &mut Line, cat_ph: &'static str, t_ps: u64, pid: Pid, tid: u64) {
    w.raw(cat_ph);
    write_ts(w, t_ps);
    w.raw(pid.tid_key()).u64(tid);
}

/// An async packet-hop event up to its `id`, left open for `args`.
///
/// The stream carries no global packet id, so a hop's span id is derived
/// from what *is* stable and unique while the hop is in flight: the flow,
/// the wire sequence (or ack / burst number), and the link.
fn hop(w: &mut Line, phase: Hop, t_ps: u64, link: u32, pkt: &PktInfo) {
    let flow = pkt.flow as u64;
    w.raw(r#",{"name":"f"#).u64(flow);
    match pkt.detail {
        PktDetail::Data { seq, retx, .. } => {
            w.raw(if retx { " retx " } else { " data " })
                .u64(seq as u64);
        }
        PktDetail::Ack { ack, ece } => {
            w.raw(" ack ").u64(ack as u64);
            if ece {
                w.raw(" ece");
            }
        }
        PktDetail::QuicData {
            pn, offset, retx, ..
        } => {
            w.raw(if retx { " qretx " } else { " qdata " })
                .u64(pn as u64)
                .raw("@")
                .u64(offset as u64);
        }
        PktDetail::QuicAck { largest, ece, .. } => {
            w.raw(" qack ").u64(largest as u64);
            if ece {
                w.raw(" ece");
            }
        }
        PktDetail::Ctrl { burst, .. } => {
            w.raw(" ctrl b").u64(burst);
        }
        PktDetail::Notif { epoch, cut, .. } => {
            w.raw(" notif e")
                .u64(epoch as u64)
                .raw(if cut { " cut" } else { " pause" });
        }
        PktDetail::NotifAck { epoch } => {
            w.raw(" nack e").u64(epoch as u64);
        }
    }
    let cat_ph = match phase {
        Hop::Begin => cat_ph!("pkt", "b"),
        Hop::Step => cat_ph!("pkt", "n"),
        Hop::End => cat_ph!("pkt", "e"),
    };
    stamp(w, cat_ph, t_ps, Pid::Net, link as u64);
    let (tag, key) = match pkt.detail {
        PktDetail::Data { seq, .. } => ("d", seq as u64),
        PktDetail::Ack { ack, .. } => ("a", ack as u64),
        // QUIC packet numbers are unique per transmission, so the packet
        // number alone disambiguates hops of the same bytes.
        PktDetail::QuicData { pn, .. } => ("qd", pn as u64),
        PktDetail::QuicAck { largest, .. } => ("qa", largest as u64),
        PktDetail::Ctrl { burst, .. } => ("c", burst),
        // A notification is unique per (ctrl flow, epoch, target) while in
        // flight; the ack mirrors it in the reverse direction.
        PktDetail::Notif { epoch, .. } => ("n", epoch as u64),
        PktDetail::NotifAck { epoch } => ("na", epoch as u64),
    };
    w.raw(r#","id":""#).raw(tag).u64(flow).raw(".").u64(key);
    match pkt.detail {
        PktDetail::Notif { .. } => {
            w.raw(".").u64(pkt.dst as u64);
        }
        PktDetail::NotifAck { .. } => {
            w.raw(".").u64(pkt.src as u64);
        }
        _ => {}
    }
    w.raw(".").u64(link as u64).raw(r#"""#);
}

/// One end of a causal flow arrow on `link`: `start` at the cause,
/// otherwise the finish (bound to the enclosing slice) at its effect.
fn arrow(w: &mut Line, start: bool, cause: Cause, t_ps: u64, link: u32) {
    let head = match (cause, start) {
        (Cause::Ece { .. }, true) => concat!(r#",{"name":"ece"#, cat_ph!("cause", "s")),
        (Cause::Ece { .. }, false) => concat!(r#",{"name":"ece"#, cat_ph!("cause", "f")),
        (_, true) => concat!(r#",{"name":"retx"#, cat_ph!("cause", "s")),
        (_, false) => concat!(r#",{"name":"retx"#, cat_ph!("cause", "f")),
    };
    stamp(w, head, t_ps, Pid::Net, link as u64);
    match cause {
        Cause::Retx { flow, seq } => {
            w.raw(r#","id":"retx"#)
                .u64(flow as u64)
                .raw(".")
                .u64(seq as u64);
        }
        Cause::QuicRetx { flow, offset } => {
            w.raw(r#","id":"qretx"#)
                .u64(flow as u64)
                .raw(".")
                .u64(offset as u64);
        }
        Cause::Ece { flow } => {
            w.raw(r#","id":"ece"#).u64(flow as u64);
        }
    }
    w.raw(if start { r#""}"# } else { r#"","bp":"e"}"# });
}

/// A telemetry sink rendering Chrome trace-event JSON.
///
/// Build one, run a simulation with its [`SinkRef`] attached, then
/// [`write_to`](PerfettoSink::write_to) a `.json` file (or
/// [`render`](PerfettoSink::render) it to a `String`); the file opens
/// directly in a trace viewer.
#[derive(Debug)]
pub struct PerfettoSink {
    /// The trace-event objects in emission order, comma-separated, in
    /// chunks that each end between two events' objects.
    buf: ChunkedText,
    /// Telemetry events consumed (not trace objects emitted; one telemetry
    /// event may expand to several trace objects).
    count: u64,
    /// Pids that already carry a `process_name` metadata record, as
    /// `1 << pid` bits.
    named_pids: u8,
}

impl Default for PerfettoSink {
    fn default() -> Self {
        Self::new()
    }
}

impl PerfettoSink {
    /// A fresh sink subscribing to every event class.
    pub fn new() -> Self {
        PerfettoSink {
            buf: ChunkedText::default(),
            count: 0,
            named_pids: 0,
        }
    }

    /// Wraps this sink for sharing; returns the typed handle plus the
    /// `SinkRef` to hand to instrumented components.
    pub fn shared(self) -> (Rc<RefCell<PerfettoSink>>, SinkRef) {
        let rc = Rc::new(RefCell::new(self));
        let sref = SinkRef::from_rc(rc.clone());
        (rc, sref)
    }

    /// Telemetry events consumed.
    pub fn events_written(&self) -> u64 {
        self.count
    }

    /// Renders the complete trace as a Chrome trace-event JSON document.
    pub fn render(&self) -> String {
        let mut out = String::with_capacity(DOC_OPEN.len() + self.buf.len() + DOC_CLOSE.len());
        out.push_str(DOC_OPEN);
        self.buf.push_to(&mut out);
        out.push_str(DOC_CLOSE);
        out
    }

    /// Writes the document [`render`](Self::render) returns to `w`, chunk
    /// by chunk, without a copy.
    pub fn write_to(&self, w: &mut impl io::Write) -> io::Result<()> {
        w.write_all(DOC_OPEN.as_bytes())?;
        self.buf.write_to(w)?;
        w.write_all(DOC_CLOSE.as_bytes())
    }

    /// Ensures `pid` has a `process_name` metadata record (emitted once, on
    /// first use, so naming order tracks the event stream and stays
    /// deterministic) and starts the objects of one telemetry event. Every
    /// event names its pid first, so each object written through the
    /// returned writer follows another and opens with a comma.
    fn objects_for(&mut self, pid: Pid) -> Line<'_> {
        let out = self.buf.record();
        let bit = 1 << pid as u8;
        if self.named_pids & bit == 0 {
            if self.named_pids != 0 {
                out.push(',');
            }
            self.named_pids |= bit;
            out.push_str(pid.process_name());
        }
        Line::new(out)
    }
}

impl EventSink for PerfettoSink {
    fn accepts(&self, _class: EventClass) -> bool {
        true
    }

    fn on_event(&mut self, ev: &Event) {
        self.count += 1;
        let t = ev.t_ps;
        let pid = match ev.kind {
            EventKind::FlowWindow { .. } => Pid::Flow,
            EventKind::BurstStart { .. } | EventKind::BurstEnd { .. } => Pid::App,
            _ => Pid::Net,
        };
        let mut w = self.objects_for(pid);
        match &ev.kind {
            EventKind::PktEnqueue { link, pkt, marked } => {
                hop(&mut w, Hop::Begin, t, *link, pkt);
                w.raw(r#","args":{"bytes":"#)
                    .u64(pkt.bytes as u64)
                    .raw(r#","ce":"#)
                    .bool(pkt.ce)
                    .raw(r#","marked":"#)
                    .bool(*marked)
                    .raw("}}");
                if *marked {
                    stamp(
                        &mut w,
                        concat!(r#",{"name":"ecn_mark"#, cat_ph!("ecn", "i")),
                        t,
                        Pid::Net,
                        *link as u64,
                    );
                    w.raw(r#","s":"t"}"#);
                }
                // A retransmission is the effect of an earlier drop (or
                // timeout) of the same bytes, an ECN-Echo ack that of a
                // CE-marked delivery on the same flow: land the arrow here.
                let flow = pkt.flow;
                let effect_of = match pkt.detail {
                    PktDetail::Data {
                        seq, retx: true, ..
                    } => Some(Cause::Retx { flow, seq }),
                    PktDetail::QuicData {
                        offset, retx: true, ..
                    } => Some(Cause::QuicRetx { flow, offset }),
                    PktDetail::Ack { ece: true, .. } | PktDetail::QuicAck { ece: true, .. } => {
                        Some(Cause::Ece { flow })
                    }
                    _ => None,
                };
                if let Some(cause) = effect_of {
                    arrow(&mut w, false, cause, t, *link);
                }
            }
            EventKind::PktDrop { link, pkt, reason } => {
                let args = |w: &mut Line| {
                    w.raw(r#","args":{"reason":""#)
                        .raw(reason.label())
                        .raw(r#"","bytes":"#)
                        .u64(pkt.bytes as u64)
                        .raw("}}");
                };
                stamp(
                    &mut w,
                    concat!(r#",{"name":"drop"#, cat_ph!("drop", "i")),
                    t,
                    Pid::Net,
                    *link as u64,
                );
                w.raw(r#","s":"t""#);
                args(&mut w);
                // On-wire losses terminate a hop span that enqueue opened;
                // admission rejections (queue_full / shared_buffer) never
                // opened one.
                if matches!(reason, DropCause::Fault | DropCause::Corrupt) {
                    hop(&mut w, Hop::End, t, *link, pkt);
                    args(&mut w);
                }
                // The drop is the cause of any retransmission of this
                // sequence (TCP) or stream offset (QUIC): start the arrow.
                let flow = pkt.flow;
                let cause = match pkt.detail {
                    PktDetail::Data { seq, .. } => Some(Cause::Retx { flow, seq }),
                    PktDetail::QuicData { offset, .. } => Some(Cause::QuicRetx { flow, offset }),
                    _ => None,
                };
                if let Some(cause) = cause {
                    arrow(&mut w, true, cause, t, *link);
                }
            }
            EventKind::PktTxStart { link, pkt } => {
                hop(&mut w, Hop::Step, t, *link, pkt);
                w.raw("}");
            }
            EventKind::PktDeliver { link, pkt } => {
                hop(&mut w, Hop::End, t, *link, pkt);
                w.raw("}");
                // A CE-marked data delivery causes the receiver's next
                // ECN-Echo ack: start the arrow.
                if pkt.ce
                    && matches!(
                        pkt.detail,
                        PktDetail::Data { .. } | PktDetail::QuicData { .. }
                    )
                {
                    arrow(&mut w, true, Cause::Ece { flow: pkt.flow }, t, *link);
                }
            }
            EventKind::QueueDepth { link, pkts, bytes } => {
                w.raw(r#",{"name":"queue"#).u64(*link as u64);
                stamp(&mut w, cat_ph!("counter", "C"), t, Pid::Net, *link as u64);
                w.raw(r#","args":{"pkts":"#)
                    .u64(*pkts as u64)
                    .raw(r#","bytes":"#)
                    .u64(*bytes)
                    .raw("}}");
            }
            EventKind::BufferWatermark {
                buffer,
                used_bytes,
                total_bytes,
            } => {
                w.raw(r#",{"name":"buffer"#).u64(*buffer as u64);
                stamp(&mut w, cat_ph!("counter", "C"), t, Pid::Net, *buffer as u64);
                w.raw(r#","args":{"used_bytes":"#)
                    .u64(*used_bytes)
                    .raw(r#","total_bytes":"#)
                    .u64(*total_bytes)
                    .raw("}}");
            }
            EventKind::FlowWindow {
                flow,
                cwnd,
                ssthresh,
                inflight,
                state,
                trigger,
                ..
            } => {
                w.raw(r#",{"name":"flow"#).u64(*flow as u64).raw(" window");
                stamp(&mut w, cat_ph!("counter", "C"), t, Pid::Flow, *flow as u64);
                w.raw(r#","args":{"cwnd":"#)
                    .u64(*cwnd)
                    .raw(r#","inflight":"#)
                    .u64(*inflight);
                // An unset ssthresh is u64::MAX; plotting it would flatten
                // the counter track, so it is omitted until it is real.
                if *ssthresh != u64::MAX {
                    w.raw(r#","ssthresh":"#).u64(*ssthresh);
                }
                w.raw("}}");
                if let WindowTrigger::Rto | WindowTrigger::FastRetransmit = trigger {
                    w.raw(r#",{"name":""#).raw(trigger.label());
                    stamp(&mut w, cat_ph!("loss", "i"), t, Pid::Flow, *flow as u64);
                    w.raw(r#","s":"t","args":{"state":""#)
                        .raw(state.label())
                        .raw(r#"","cwnd":"#)
                        .u64(*cwnd)
                        .raw("}}");
                }
            }
            EventKind::BurstStart {
                burst,
                flows,
                per_flow_bytes,
            } => {
                w.raw(r#",{"name":"burst "#).u64(*burst as u64);
                stamp(&mut w, cat_ph!("burst", "b"), t, Pid::App, 0);
                w.raw(r#","id":"b"#)
                    .u64(*burst as u64)
                    .raw(r#"","args":{"flows":"#)
                    .u64(*flows as u64)
                    .raw(r#","per_flow_bytes":"#)
                    .u64(*per_flow_bytes)
                    .raw("}}");
            }
            EventKind::BurstEnd { burst, bct_ms } => {
                w.raw(r#",{"name":"burst "#).u64(*burst as u64);
                stamp(&mut w, cat_ph!("burst", "e"), t, Pid::App, 0);
                w.raw(r#","id":"b"#)
                    .u64(*burst as u64)
                    .raw(r#"","args":{"bct_ms":"#)
                    .f64(*bct_ms)
                    .raw("}}");
            }
            EventKind::Fault {
                index,
                kind,
                target,
            } => {
                w.raw(r#",{"name":"fault:"#).str(kind);
                stamp(&mut w, cat_ph!("fault", "i"), t, Pid::Net, *target);
                w.raw(r#","s":"t","args":{"index":"#)
                    .u64(*index as u64)
                    .raw(r#","target":"#)
                    .u64(*target)
                    .raw("}}");
            }
            EventKind::CtrlEpisode {
                node,
                link,
                epoch,
                phase,
                targets,
            } => {
                w.raw(r#",{"name":"ctrl:"#).str(phase);
                stamp(&mut w, cat_ph!("ctrl", "i"), t, Pid::Net, *link as u64);
                w.raw(r#","s":"t","args":{"node":"#)
                    .u64(*node as u64)
                    .raw(r#","epoch":"#)
                    .u64(*epoch as u64)
                    .raw(r#","targets":"#)
                    .u64(*targets as u64)
                    .raw("}}");
            }
        }
        w.finish();
    }

    fn event_count(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunked::{CHUNK_BYTES, RECORD_ROOM};
    use crate::event::tests::every_variant;
    use crate::event::FlowState;
    use crate::sink::tests::long_stream;

    fn data(flow: u32, seq: u32, retx: bool, ce: bool) -> PktInfo {
        PktInfo {
            flow,
            src: 0,
            dst: 1,
            bytes: 1500,
            ce,
            detail: PktDetail::Data {
                seq,
                payload: 1446,
                retx,
            },
        }
    }

    fn feed(sink: &mut PerfettoSink, kind: EventKind, t_ps: u64) {
        sink.on_event(&Event { t_ps, kind });
    }

    #[test]
    fn timestamps_print_as_the_float_formatter_does() {
        let ts = |t_ps: u64| {
            let mut out = String::new();
            let mut w = Line::new(&mut out);
            write_ts(&mut w, t_ps);
            w.finish();
            out
        };
        let limit = 1_000_000_000_000_000u64;
        let mut cases = vec![0, 1, 10, 999_999, 1_000_000, 1_000_001, 1_500_000, u64::MAX];
        // Both sides of the hand-over to the float formatter, and of every
        // power of ten below it (where fractions gain leading zeros and
        // trailing ones are dropped).
        let mut power = 1;
        while power <= limit * 1000 {
            cases.extend([power - 1, power, power + 1, power * 7, power / 3 * 7 + 1]);
            power *= 10;
        }
        let mut rng = stats::Rng::new(3);
        for _ in 0..20_000 {
            cases.push(rng.next_u64() >> rng.below(64));
            cases.push(limit - 1 - rng.below(1 << 20));
        }
        for t_ps in cases {
            assert_eq!(ts(t_ps), format!("{}", t_ps as f64 / 1e6), "{t_ps} ps");
        }
    }

    #[test]
    fn hop_spans_open_and_close() {
        let mut s = PerfettoSink::new();
        feed(
            &mut s,
            EventKind::PktEnqueue {
                link: 2,
                pkt: data(5, 100, false, false),
                marked: false,
            },
            1_000_000,
        );
        feed(
            &mut s,
            EventKind::PktTxStart {
                link: 2,
                pkt: data(5, 100, false, false),
            },
            2_000_000,
        );
        feed(
            &mut s,
            EventKind::PktDeliver {
                link: 2,
                pkt: data(5, 100, false, false),
            },
            3_000_000,
        );
        let out = s.render();
        assert!(out.starts_with("{\"traceEvents\":["));
        assert!(out.ends_with("],\"displayTimeUnit\":\"ms\"}"));
        assert!(out.contains(r#""ph":"b""#), "{out}");
        assert!(out.contains(r#""ph":"n""#), "{out}");
        assert!(out.contains(r#""ph":"e""#), "{out}");
        assert!(out.contains(r#""id":"d5.100.2""#), "{out}");
        assert!(out.contains(r#""name":"f5 data 100""#), "{out}");
        // ts is microseconds.
        assert!(out.contains(r#""ts":1"#), "{out}");
        assert_eq!(s.events_written(), 3);
    }

    #[test]
    fn drop_then_retx_are_linked_by_a_flow_arrow() {
        let mut s = PerfettoSink::new();
        feed(
            &mut s,
            EventKind::PktDrop {
                link: 0,
                pkt: data(3, 7, false, false),
                reason: DropCause::QueueFull,
            },
            1_000,
        );
        feed(
            &mut s,
            EventKind::PktEnqueue {
                link: 0,
                pkt: data(3, 7, true, false),
                marked: false,
            },
            2_000,
        );
        let out = s.render();
        assert!(out.contains(r#""ph":"s""#), "{out}");
        assert!(out.contains(r#""ph":"f""#), "{out}");
        assert!(out.contains(r#""id":"retx3.7""#), "{out}");
        assert!(out.contains(r#""reason":"queue_full""#), "{out}");
        // An admission drop must not emit an async end for a span that was
        // never opened.
        assert!(!out.contains(r#""ph":"e""#), "{out}");
    }

    #[test]
    fn ce_delivery_links_to_ece_ack() {
        let mut s = PerfettoSink::new();
        feed(
            &mut s,
            EventKind::PktDeliver {
                link: 1,
                pkt: data(4, 9, false, true),
            },
            5_000,
        );
        feed(
            &mut s,
            EventKind::PktEnqueue {
                link: 2,
                pkt: PktInfo {
                    flow: 4,
                    src: 1,
                    dst: 0,
                    bytes: 64,
                    ce: false,
                    detail: PktDetail::Ack { ack: 10, ece: true },
                },
                marked: false,
            },
            6_000,
        );
        let out = s.render();
        assert!(out.contains(r#""id":"ece4""#), "{out}");
        assert!(out.contains(r#""name":"f4 ack 10 ece""#), "{out}");
    }

    #[test]
    fn window_counters_and_loss_instants() {
        let mut s = PerfettoSink::new();
        feed(
            &mut s,
            EventKind::FlowWindow {
                node: 0,
                flow: 6,
                cwnd: 14460,
                ssthresh: u64::MAX,
                inflight: 2892,
                state: FlowState::Open,
                trigger: WindowTrigger::Ack,
            },
            1_000,
        );
        feed(
            &mut s,
            EventKind::FlowWindow {
                node: 0,
                flow: 6,
                cwnd: 2892,
                ssthresh: 7230,
                inflight: 0,
                state: FlowState::Backoff,
                trigger: WindowTrigger::Rto,
            },
            2_000,
        );
        let out = s.render();
        assert!(out.contains(r#""name":"flow6 window""#), "{out}");
        assert!(out.contains(r#""cwnd":14460"#), "{out}");
        // Unset ssthresh omitted; set ssthresh present.
        assert!(!out.contains(&u64::MAX.to_string()), "{out}");
        assert!(out.contains(r#""ssthresh":7230"#), "{out}");
        assert!(out.contains(r#""name":"rto""#), "{out}");
        assert!(out.contains(r#""state":"backoff""#), "{out}");
    }

    #[test]
    fn bursts_faults_and_metadata() {
        let mut s = PerfettoSink::new();
        feed(
            &mut s,
            EventKind::BurstStart {
                burst: 2,
                flows: 16,
                per_flow_bytes: 50_000,
            },
            0,
        );
        feed(
            &mut s,
            EventKind::Fault {
                index: 0,
                kind: "link_down",
                target: 3,
            },
            500,
        );
        feed(
            &mut s,
            EventKind::BurstEnd {
                burst: 2,
                bct_ms: 1.25,
            },
            1_000,
        );
        let out = s.render();
        assert!(out.contains(r#""name":"process_name""#), "{out}");
        assert!(out.contains(r#""id":"b2""#), "{out}");
        assert!(out.contains(r#""name":"fault:link_down""#), "{out}");
        assert!(out.contains(r#""bct_ms":1.25"#), "{out}");
        // Each pid is named exactly once.
        assert_eq!(out.matches(r#""process_name""#).count(), 2, "{out}");
    }

    #[test]
    fn one_events_objects_fit_a_chunks_record_room() {
        // Every variant at its widest, each in a fresh sink so its record
        // also carries the pid's `process_name` object.
        let longest = every_variant(|| u64::MAX, 1.5)
            .into_iter()
            .map(|kind| {
                let mut s = PerfettoSink::new();
                feed(&mut s, kind, u64::MAX);
                s.buf.len()
            })
            .max()
            .expect("variants");
        assert!(longest <= RECORD_ROOM, "a {longest}-byte event record");
        assert!(longest > RECORD_ROOM / 2, "{longest}");
    }

    #[test]
    fn a_multi_chunk_document_streams_what_render_returns() {
        let mut s = PerfettoSink::new();
        for ev in long_stream(26, 3 * CHUNK_BYTES) {
            s.on_event(&ev);
        }
        let chunks: Vec<&str> = s.buf.chunks().collect();
        assert!(chunks.len() >= 3, "{} chunks", chunks.len());
        for chunk in &chunks {
            assert!(chunk.ends_with('}'), "an object straddles a chunk");
        }
        let doc = s.render();
        assert!(doc.starts_with(DOC_OPEN) && doc.ends_with(DOC_CLOSE));
        assert_eq!(doc.len(), DOC_OPEN.len() + s.buf.len() + DOC_CLOSE.len());
        let mut written = Vec::new();
        s.write_to(&mut written).unwrap();
        assert!(written == doc.as_bytes(), "write_to differs from render");
    }

    #[test]
    fn render_is_a_pure_function_of_the_stream() {
        let build = || {
            let mut s = PerfettoSink::new();
            for t in 0..50u64 {
                feed(
                    &mut s,
                    EventKind::PktEnqueue {
                        link: (t % 3) as u32,
                        pkt: data((t % 5) as u32, t as u32, false, t % 7 == 0),
                        marked: t % 11 == 0,
                    },
                    t * 1_000,
                );
            }
            s.render()
        };
        assert_eq!(build(), build());
    }
}
