//! Packet tracing — the simulator's `tcpdump`.
//!
//! The simulator emits structured [`telemetry::Event`]s; this module
//! bridges packets to that event model and provides the line-per-event
//! [`TextTracer`], a thin *formatter* over the packet class of that stream:
//! a [`telemetry::EventSink`] attached with [`crate::Simulator::set_sink`]
//! like any other. For machine-readable traces attach a
//! [`telemetry::JsonlSink`] instead.

use crate::ids::{FlowId, LinkId, NodeId};
use crate::packet::{Packet, PacketKind};
use crate::queue::DropReason;
use crate::time::SimTime;
use telemetry::{DropCause, Event, EventClass, EventKind, EventSink, PktDetail, PktInfo};

/// Converts a packet to its telemetry description.
pub fn packet_info(pkt: &Packet) -> PktInfo {
    PktInfo {
        flow: pkt.flow.0,
        src: pkt.src.0,
        dst: pkt.dst.0,
        bytes: pkt.wire_size,
        ce: pkt.is_ce(),
        detail: match pkt.kind {
            PacketKind::Data {
                seq, payload, retx, ..
            } => PktDetail::Data { seq, payload, retx },
            PacketKind::Ack { ack, ece, .. } => PktDetail::Ack { ack, ece },
            PacketKind::QuicData {
                pn,
                offset,
                payload,
                retx,
                ..
            } => PktDetail::QuicData {
                pn,
                offset,
                payload,
                retx,
            },
            PacketKind::QuicAck { blocks, ece, .. } => PktDetail::QuicAck {
                largest: blocks.largest(),
                ranges: blocks.len() as u32,
                ece,
            },
            PacketKind::Ctrl { demand, burst } => PktDetail::Ctrl { demand, burst },
            PacketKind::Notif { epoch, pause, cut } => PktDetail::Notif {
                epoch,
                pause_ps: pause.as_ps(),
                cut,
            },
            PacketKind::NotifAck { epoch } => PktDetail::NotifAck { epoch },
        },
    }
}

/// Converts a [`DropReason`] to its telemetry cause.
pub fn drop_cause(reason: DropReason) -> DropCause {
    match reason {
        DropReason::QueueFull => DropCause::QueueFull,
        DropReason::SharedBuffer => DropCause::SharedBuffer,
    }
}

/// A line-per-event text tracer with an optional flow filter and a bounded
/// buffer (oldest lines are dropped once the cap is hit, and a counter keeps
/// the total).
#[derive(Debug)]
pub struct TextTracer {
    filter: Option<FlowId>,
    cap: usize,
    lines: std::collections::VecDeque<String>,
    /// Total events matched (including ones evicted from the buffer).
    pub events_seen: u64,
}

impl TextTracer {
    /// Traces every flow, keeping at most `cap` lines.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "zero-capacity tracer");
        TextTracer {
            filter: None,
            cap,
            lines: std::collections::VecDeque::new(),
            events_seen: 0,
        }
    }

    /// Traces only `flow`.
    pub fn for_flow(flow: FlowId, cap: usize) -> Self {
        TextTracer {
            filter: Some(flow),
            ..Self::new(cap)
        }
    }

    /// The retained lines, oldest first.
    pub fn lines(&self) -> impl Iterator<Item = &str> {
        self.lines.iter().map(String::as_str)
    }

    /// Renders the whole retained log.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for l in &self.lines {
            out.push_str(l);
            out.push('\n');
        }
        out
    }

    fn describe(pkt: &PktInfo) -> String {
        match pkt.detail {
            PktDetail::Data { seq, payload, retx } => format!(
                "DATA seq={seq} len={payload}{}{}",
                if retx { " retx" } else { "" },
                if pkt.ce { " CE" } else { "" }
            ),
            PktDetail::Ack { ack, ece } => {
                format!("ACK ack={ack}{}", if ece { " ECE" } else { "" })
            }
            PktDetail::QuicData {
                pn,
                offset,
                payload,
                retx,
            } => format!(
                "QDATA pn={pn} off={offset} len={payload}{}{}",
                if retx { " retx" } else { "" },
                if pkt.ce { " CE" } else { "" }
            ),
            PktDetail::QuicAck {
                largest,
                ranges,
                ece,
            } => format!(
                "QACK largest={largest} ranges={ranges}{}",
                if ece { " ECE" } else { "" }
            ),
            PktDetail::Ctrl { demand, burst } => {
                format!("CTRL demand={demand} burst={burst}")
            }
            PktDetail::Notif {
                epoch,
                pause_ps,
                cut,
            } => format!(
                "NOTIF epoch={epoch} pause={pause_ps}ps{}",
                if cut { " cut" } else { "" }
            ),
            PktDetail::NotifAck { epoch } => format!("NACK epoch={epoch}"),
        }
    }

    /// Formats one packet-class telemetry event into the tracer's buffer.
    /// Non-packet events (queue depth, flow windows, …) are ignored.
    fn format_event(&mut self, ev: &Event) {
        let (what, link, pkt) = match &ev.kind {
            EventKind::PktEnqueue {
                link,
                pkt,
                marked: true,
            } => ("enq+mark", *link, pkt),
            EventKind::PktEnqueue {
                link,
                pkt,
                marked: false,
            } => ("enq", *link, pkt),
            EventKind::PktDrop {
                link,
                pkt,
                reason: DropCause::QueueFull,
            } => ("DROP(full)", *link, pkt),
            EventKind::PktDrop {
                link,
                pkt,
                reason: DropCause::SharedBuffer,
            } => ("DROP(shared)", *link, pkt),
            EventKind::PktDrop {
                link,
                pkt,
                reason: DropCause::Fault,
            } => ("DROP(fault)", *link, pkt),
            EventKind::PktDrop {
                link,
                pkt,
                reason: DropCause::Corrupt,
            } => ("DROP(corrupt)", *link, pkt),
            EventKind::PktTxStart { link, pkt } => ("tx", *link, pkt),
            EventKind::PktDeliver { link, pkt } => ("rx", *link, pkt),
            _ => return,
        };
        if let Some(f) = self.filter {
            if pkt.flow != f.0 {
                return;
            }
        }
        self.events_seen += 1;
        let line = format!(
            "{:>12} {} {:<11} {} {}->{} {}",
            SimTime(ev.t_ps),
            LinkId(link),
            what,
            FlowId(pkt.flow),
            NodeId(pkt.src),
            NodeId(pkt.dst),
            Self::describe(pkt),
        );
        if self.lines.len() == self.cap {
            self.lines.pop_front();
        }
        self.lines.push_back(line);
    }
}

impl EventSink for TextTracer {
    fn accepts(&self, class: EventClass) -> bool {
        class == EventClass::Packet
    }

    fn on_event(&mut self, ev: &Event) {
        self.format_event(ev);
    }

    fn event_count(&self) -> u64 {
        self.events_seen
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::NodeId;

    /// A packet event on link 1 at t = 3 us, as the simulator would emit it.
    fn ev(kind: impl FnOnce(u32, PktInfo) -> EventKind, pkt: &Packet) -> Event {
        Event {
            t_ps: SimTime::from_us(3).as_ps(),
            kind: kind(1, packet_info(pkt)),
        }
    }

    fn enqueue(marked: bool) -> impl FnOnce(u32, PktInfo) -> EventKind {
        move |link, pkt| EventKind::PktEnqueue { link, pkt, marked }
    }

    fn tx(link: u32, pkt: PktInfo) -> EventKind {
        EventKind::PktTxStart { link, pkt }
    }

    fn deliver(link: u32, pkt: PktInfo) -> EventKind {
        EventKind::PktDeliver { link, pkt }
    }

    fn data(flow: u32) -> Packet {
        Packet::data(
            FlowId(flow),
            NodeId(0),
            NodeId(2),
            100,
            1446,
            false,
            SimTime::ZERO,
        )
    }

    #[test]
    fn records_and_renders_events() {
        let mut t = TextTracer::new(16);
        let p = data(5);
        t.on_event(&ev(enqueue(true), &p));
        t.on_event(&ev(deliver, &p));
        assert_eq!(t.events_seen, 2);
        assert_eq!(t.event_count(), 2);
        let log = t.render();
        assert!(log.contains("enq+mark"), "{log}");
        assert!(log.contains("rx"), "{log}");
        assert!(log.contains("DATA seq=100 len=1446"), "{log}");
        assert!(log.contains("f5 n0->n2"), "{log}");
    }

    #[test]
    fn flow_filter_applies() {
        let mut t = TextTracer::for_flow(FlowId(7), 16);
        t.on_event(&ev(tx, &data(5)));
        t.on_event(&ev(tx, &data(7)));
        assert_eq!(t.events_seen, 1);
        assert_eq!(t.lines().count(), 1);
    }

    #[test]
    fn buffer_is_bounded_but_counts_everything() {
        let mut t = TextTracer::new(3);
        let p = data(0);
        for _ in 0..10 {
            t.on_event(&ev(tx, &p));
        }
        assert_eq!(t.lines().count(), 3);
        assert_eq!(t.events_seen, 10);
    }

    #[test]
    fn drop_reasons_rendered() {
        let mut t = TextTracer::new(4);
        let p = data(0);
        for reason in [
            drop_cause(DropReason::QueueFull),
            drop_cause(DropReason::SharedBuffer),
            DropCause::Fault,
            DropCause::Corrupt,
        ] {
            t.on_event(&ev(
                |link, pkt| EventKind::PktDrop { link, pkt, reason },
                &p,
            ));
        }
        let log = t.render();
        assert!(log.contains("DROP(full)"), "{log}");
        assert!(log.contains("DROP(shared)"), "{log}");
        assert!(log.contains("DROP(fault)"), "{log}");
        assert!(log.contains("DROP(corrupt)"), "{log}");
    }

    #[test]
    fn ack_and_ctrl_descriptions() {
        let mut t = TextTracer::new(4);
        let ack = Packet::ack(FlowId(1), NodeId(2), NodeId(0), 777, true, SimTime::ZERO);
        let ctrl = Packet::ctrl(FlowId(1), NodeId(0), NodeId(2), 9000, 3);
        t.on_event(&ev(deliver, &ack));
        t.on_event(&ev(deliver, &ctrl));
        let log = t.render();
        assert!(log.contains("ACK ack=777 ECE"));
        assert!(log.contains("CTRL demand=9000 burst=3"));
    }

    #[test]
    fn quic_descriptions() {
        let mut t = TextTracer::new(4);
        let qd = Packet::quic_data(
            FlowId(1),
            NodeId(0),
            NodeId(2),
            17,
            4096,
            1446,
            true,
            SimTime::ZERO,
        );
        let qa = Packet::quic_ack(
            FlowId(1),
            NodeId(2),
            NodeId(0),
            crate::packet::AckBlocks::new(&[(15, 17), (3, 9)]),
            true,
            SimTime::ZERO,
        );
        t.on_event(&ev(deliver, &qd));
        t.on_event(&ev(deliver, &qa));
        let log = t.render();
        assert!(log.contains("QDATA pn=17 off=4096 len=1446 retx"), "{log}");
        assert!(log.contains("QACK largest=17 ranges=2 ECE"), "{log}");
    }

    #[test]
    fn sink_ignores_non_packet_events() {
        let mut t = TextTracer::new(4);
        t.on_event(&Event {
            t_ps: 0,
            kind: EventKind::QueueDepth {
                link: 0,
                pkts: 1,
                bytes: 1500,
            },
        });
        assert_eq!(t.events_seen, 0);
        assert!(!t.accepts(EventClass::Queue));
        assert!(t.accepts(EventClass::Packet));
    }

    #[test]
    fn packet_info_carries_packet_fields() {
        let tev = ev(deliver, &data(9));
        assert_eq!(tev.flow(), Some(9));
        match tev.kind {
            EventKind::PktDeliver { link, pkt } => {
                assert_eq!(link, 1);
                assert_eq!(pkt.src, 0);
                assert_eq!(pkt.dst, 2);
                assert_eq!(pkt.bytes, 1500);
                assert_eq!(
                    pkt.detail,
                    PktDetail::Data {
                        seq: 100,
                        payload: 1446,
                        retx: false
                    }
                );
            }
            _ => panic!("wrong kind"),
        }
    }

    #[test]
    #[should_panic]
    fn zero_cap_rejected() {
        TextTracer::new(0);
    }
}
