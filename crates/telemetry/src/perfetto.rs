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

use crate::event::{Event, EventClass, EventKind, PktDetail, PktInfo, WindowTrigger};
use crate::json::Obj;
use crate::sink::{EventSink, SinkRef};
use std::cell::RefCell;
use std::rc::Rc;

/// Synthetic "process" grouping link-level activity (hop spans, queue and
/// buffer counters, faults).
const PID_NET: u64 = 1;
/// Synthetic "process" grouping per-flow transport state (window counters,
/// RTO/fast-retransmit instants).
const PID_FLOW: u64 = 2;
/// Synthetic "process" for application/workload lifecycle (burst spans).
const PID_APP: u64 = 3;

/// A telemetry sink rendering Chrome trace-event JSON.
///
/// Build one, run a simulation with its [`SinkRef`] attached, then call
/// [`render`](PerfettoSink::render) and write the result to a `.json` file;
/// the file opens directly in a trace viewer.
#[derive(Debug)]
pub struct PerfettoSink {
    /// Pre-rendered trace-event objects, in emission order.
    events: Vec<String>,
    /// Telemetry events consumed (not trace objects emitted; one telemetry
    /// event may expand to several trace objects).
    count: u64,
    /// Pids that already carry a `process_name` metadata record.
    named_pids: Vec<u64>,
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
            events: Vec::new(),
            count: 0,
            named_pids: Vec::new(),
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
        let mut out = String::from("{\"traceEvents\":[");
        for (i, ev) in self.events.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(ev);
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}");
        out
    }

    /// Ensures `pid` has a `process_name` metadata record (emitted once, on
    /// first use, so naming order tracks the event stream and stays
    /// deterministic).
    fn name_pid(&mut self, pid: u64, name: &str) {
        if self.named_pids.contains(&pid) {
            return;
        }
        self.named_pids.push(pid);
        let mut s = String::new();
        let mut o = Obj::new(&mut s);
        o.str("name", "process_name")
            .str("ph", "M")
            .u64("pid", pid)
            .u64("tid", 0)
            .raw("args", &{
                let mut a = String::new();
                let mut ao = Obj::new(&mut a);
                ao.str("name", name);
                ao.finish();
                a
            });
        o.finish();
        self.events.push(s);
    }

    /// Starts one trace-event object with the common header fields
    /// (`name`, `cat`, `ph`, `ts`, `pid`, `tid`) and returns the buffer
    /// with the object still open for id/args/flow fields.
    fn header(name: &str, cat: &str, ph: &str, t_ps: u64, pid: u64, tid: u64) -> String {
        let mut s = String::new();
        let mut o = Obj::new(&mut s);
        o.str("name", name)
            .str("cat", cat)
            .str("ph", ph)
            .f64("ts", t_ps as f64 / 1e6)
            .u64("pid", pid)
            .u64("tid", tid);
        // Leave the object unfinished (no `finish()`): callers append more
        // fields and close it via `push_open`.
        let _ = o;
        s
    }

    /// Closes an object started by [`header`](Self::header) after the
    /// caller appended extra raw fields.
    fn push_open(&mut self, mut s: String, extra: &str) {
        s.push_str(extra);
        s.push('}');
        self.events.push(s);
    }

    /// The async-span id of one packet hop. The stream carries no global
    /// packet id, so identity is derived from what *is* stable and unique
    /// while the hop is in flight: the flow, the wire sequence (or ack /
    /// burst number), and the link.
    fn hop_id(link: u32, pkt: &PktInfo) -> String {
        match pkt.detail {
            PktDetail::Data { seq, .. } => format!("d{}.{}.{}", pkt.flow, seq, link),
            PktDetail::Ack { ack, .. } => format!("a{}.{}.{}", pkt.flow, ack, link),
            // QUIC packet numbers are unique per transmission, so the
            // packet number alone disambiguates hops of the same bytes.
            PktDetail::QuicData { pn, .. } => format!("qd{}.{}.{}", pkt.flow, pn, link),
            PktDetail::QuicAck { largest, .. } => format!("qa{}.{}.{}", pkt.flow, largest, link),
            PktDetail::Ctrl { burst, .. } => format!("c{}.{}.{}", pkt.flow, burst, link),
            // A notification is unique per (ctrl flow, epoch, target) while
            // in flight; the ack mirrors it in the reverse direction.
            PktDetail::Notif { epoch, .. } => {
                format!("n{}.{}.{}.{}", pkt.flow, epoch, pkt.dst, link)
            }
            PktDetail::NotifAck { epoch } => {
                format!("na{}.{}.{}.{}", pkt.flow, epoch, pkt.src, link)
            }
        }
    }

    /// Human-facing span name for a packet hop.
    fn hop_name(pkt: &PktInfo) -> String {
        match pkt.detail {
            PktDetail::Data { seq, retx, .. } => {
                if retx {
                    format!("f{} retx {}", pkt.flow, seq)
                } else {
                    format!("f{} data {}", pkt.flow, seq)
                }
            }
            PktDetail::Ack { ack, ece } => {
                if ece {
                    format!("f{} ack {} ece", pkt.flow, ack)
                } else {
                    format!("f{} ack {}", pkt.flow, ack)
                }
            }
            PktDetail::QuicData {
                pn, offset, retx, ..
            } => {
                if retx {
                    format!("f{} qretx {pn}@{offset}", pkt.flow)
                } else {
                    format!("f{} qdata {pn}@{offset}", pkt.flow)
                }
            }
            PktDetail::QuicAck { largest, ece, .. } => {
                if ece {
                    format!("f{} qack {largest} ece", pkt.flow)
                } else {
                    format!("f{} qack {largest}", pkt.flow)
                }
            }
            PktDetail::Ctrl { burst, .. } => format!("f{} ctrl b{}", pkt.flow, burst),
            PktDetail::Notif { epoch, cut, .. } => {
                if cut {
                    format!("f{} notif e{} cut", pkt.flow, epoch)
                } else {
                    format!("f{} notif e{} pause", pkt.flow, epoch)
                }
            }
            PktDetail::NotifAck { epoch } => format!("f{} nack e{}", pkt.flow, epoch),
        }
    }

    /// Emits an async packet-hop event (`ph` ∈ {"b","n","e"}).
    fn hop_event(&mut self, ph: &str, t_ps: u64, link: u32, pkt: &PktInfo, args: &str) {
        let s = Self::header(&Self::hop_name(pkt), "pkt", ph, t_ps, PID_NET, link as u64);
        let mut extra = format!(",\"id\":\"{}\"", Self::hop_id(link, pkt));
        if !args.is_empty() {
            extra.push_str(",\"args\":{");
            extra.push_str(args);
            extra.push('}');
        }
        self.push_open(s, &extra);
    }

    /// Emits a flow arrow endpoint (`ph` = "s" to start at a cause, "f"
    /// with `bp:"e"` to finish at the effect).
    fn arrow(&mut self, ph: &str, name: &str, t_ps: u64, pid: u64, tid: u64, id: &str) {
        let s = Self::header(name, "cause", ph, t_ps, pid, tid);
        let mut extra = format!(",\"id\":\"{id}\"");
        if ph == "f" {
            extra.push_str(",\"bp\":\"e\"");
        }
        self.push_open(s, &extra);
    }

    /// Emits a thread-scoped instant.
    fn instant(&mut self, name: &str, cat: &str, t_ps: u64, pid: u64, tid: u64, args: &str) {
        let s = Self::header(name, cat, "i", t_ps, pid, tid);
        let mut extra = String::from(",\"s\":\"t\"");
        if !args.is_empty() {
            extra.push_str(",\"args\":{");
            extra.push_str(args);
            extra.push('}');
        }
        self.push_open(s, &extra);
    }

    /// Emits a counter sample.
    fn counter(&mut self, name: &str, t_ps: u64, pid: u64, tid: u64, args: &str) {
        let s = Self::header(name, "counter", "C", t_ps, pid, tid);
        let extra = format!(",\"args\":{{{args}}}");
        self.push_open(s, &extra);
    }
}

impl EventSink for PerfettoSink {
    fn accepts(&self, _class: EventClass) -> bool {
        true
    }

    fn on_event(&mut self, ev: &Event) {
        self.count += 1;
        let t = ev.t_ps;
        match &ev.kind {
            EventKind::PktEnqueue { link, pkt, marked } => {
                self.name_pid(PID_NET, "network");
                let args = format!(
                    "\"bytes\":{},\"ce\":{},\"marked\":{}",
                    pkt.bytes, pkt.ce, marked
                );
                self.hop_event("b", t, *link, pkt, &args);
                if *marked {
                    self.instant("ecn_mark", "ecn", t, PID_NET, *link as u64, "");
                }
                match pkt.detail {
                    // A retransmitted segment is the effect of an earlier
                    // drop (or timeout) of the same wire sequence: land the
                    // causal arrow here.
                    PktDetail::Data {
                        seq, retx: true, ..
                    } => {
                        self.arrow(
                            "f",
                            "retx",
                            t,
                            PID_NET,
                            *link as u64,
                            &format!("retx{}.{}", pkt.flow, seq),
                        );
                    }
                    // A QUIC retransmission carries a fresh packet number,
                    // so the causal key is the stream offset instead.
                    PktDetail::QuicData {
                        offset, retx: true, ..
                    } => {
                        self.arrow(
                            "f",
                            "retx",
                            t,
                            PID_NET,
                            *link as u64,
                            &format!("qretx{}.{}", pkt.flow, offset),
                        );
                    }
                    // An ECN-Echo ack is the effect of a CE-marked delivery
                    // on the same flow.
                    PktDetail::Ack { ece: true, .. } | PktDetail::QuicAck { ece: true, .. } => {
                        self.arrow(
                            "f",
                            "ece",
                            t,
                            PID_NET,
                            *link as u64,
                            &format!("ece{}", pkt.flow),
                        );
                    }
                    _ => {}
                }
            }
            EventKind::PktDrop { link, pkt, reason } => {
                self.name_pid(PID_NET, "network");
                let args = format!("\"reason\":\"{}\",\"bytes\":{}", reason.label(), pkt.bytes);
                self.instant("drop", "drop", t, PID_NET, *link as u64, &args);
                // On-wire losses terminate a hop span that enqueue opened;
                // admission rejections (queue_full / shared_buffer) never
                // opened one.
                if matches!(
                    reason,
                    crate::event::DropCause::Fault | crate::event::DropCause::Corrupt
                ) {
                    self.hop_event("e", t, *link, pkt, &args);
                }
                // The drop is the cause of any retransmission of this
                // sequence (TCP) or stream offset (QUIC): start the arrow.
                match pkt.detail {
                    PktDetail::Data { seq, .. } => {
                        self.arrow(
                            "s",
                            "retx",
                            t,
                            PID_NET,
                            *link as u64,
                            &format!("retx{}.{}", pkt.flow, seq),
                        );
                    }
                    PktDetail::QuicData { offset, .. } => {
                        self.arrow(
                            "s",
                            "retx",
                            t,
                            PID_NET,
                            *link as u64,
                            &format!("qretx{}.{}", pkt.flow, offset),
                        );
                    }
                    _ => {}
                }
            }
            EventKind::PktTxStart { link, pkt } => {
                self.name_pid(PID_NET, "network");
                self.hop_event("n", t, *link, pkt, "");
            }
            EventKind::PktDeliver { link, pkt } => {
                self.name_pid(PID_NET, "network");
                self.hop_event("e", t, *link, pkt, "");
                // A CE-marked data delivery causes the receiver's next
                // ECN-Echo ack: start the arrow.
                if pkt.ce {
                    if let PktDetail::Data { .. } | PktDetail::QuicData { .. } = pkt.detail {
                        self.arrow(
                            "s",
                            "ece",
                            t,
                            PID_NET,
                            *link as u64,
                            &format!("ece{}", pkt.flow),
                        );
                    }
                }
            }
            EventKind::QueueDepth { link, pkts, bytes } => {
                self.name_pid(PID_NET, "network");
                let args = format!("\"pkts\":{pkts},\"bytes\":{bytes}");
                self.counter(&format!("queue{link}"), t, PID_NET, *link as u64, &args);
            }
            EventKind::BufferWatermark {
                buffer,
                used_bytes,
                total_bytes,
            } => {
                self.name_pid(PID_NET, "network");
                let args = format!("\"used_bytes\":{used_bytes},\"total_bytes\":{total_bytes}");
                self.counter(
                    &format!("buffer{buffer}"),
                    t,
                    PID_NET,
                    *buffer as u64,
                    &args,
                );
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
                self.name_pid(PID_FLOW, "flows");
                let mut args = format!("\"cwnd\":{cwnd},\"inflight\":{inflight}");
                // An unset ssthresh is u64::MAX; plotting it would flatten
                // the counter track, so it is omitted until it is real.
                if *ssthresh != u64::MAX {
                    args.push_str(&format!(",\"ssthresh\":{ssthresh}"));
                }
                self.counter(
                    &format!("flow{flow} window"),
                    t,
                    PID_FLOW,
                    *flow as u64,
                    &args,
                );
                match trigger {
                    WindowTrigger::Rto | WindowTrigger::FastRetransmit => {
                        let args = format!("\"state\":\"{}\",\"cwnd\":{}", state.label(), cwnd);
                        self.instant(trigger.label(), "loss", t, PID_FLOW, *flow as u64, &args);
                    }
                    _ => {}
                }
            }
            EventKind::BurstStart {
                burst,
                flows,
                per_flow_bytes,
            } => {
                self.name_pid(PID_APP, "app");
                let s = Self::header(&format!("burst {burst}"), "burst", "b", t, PID_APP, 0);
                let extra = format!(
                    ",\"id\":\"b{burst}\",\"args\":{{\"flows\":{flows},\"per_flow_bytes\":{per_flow_bytes}}}"
                );
                self.push_open(s, &extra);
            }
            EventKind::BurstEnd { burst, bct_ms } => {
                self.name_pid(PID_APP, "app");
                let s = Self::header(&format!("burst {burst}"), "burst", "e", t, PID_APP, 0);
                let mut extra = format!(",\"id\":\"b{burst}\",\"args\":{{\"bct_ms\":");
                crate::json::write_f64(*bct_ms, &mut extra);
                extra.push_str("}}");
                self.push_open(s, &extra);
            }
            EventKind::Fault {
                index,
                kind,
                target,
            } => {
                self.name_pid(PID_NET, "network");
                let args = format!("\"index\":{index},\"target\":{target}");
                self.instant(
                    &format!("fault:{kind}"),
                    "fault",
                    t,
                    PID_NET,
                    *target,
                    &args,
                );
            }
            EventKind::CtrlEpisode {
                node,
                link,
                epoch,
                phase,
                targets,
            } => {
                self.name_pid(PID_NET, "network");
                let args = format!("\"node\":{node},\"epoch\":{epoch},\"targets\":{targets}");
                self.instant(
                    &format!("ctrl:{phase}"),
                    "ctrl",
                    t,
                    PID_NET,
                    *link as u64,
                    &args,
                );
            }
        }
    }

    fn event_count(&self) -> u64 {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{DropCause, FlowState};

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
