//! Packet tracing — the simulator's `tcpdump`.
//!
//! The simulator emits structured [`telemetry::Event`]s; this module
//! bridges packets to that event model and provides the line-per-event
//! [`TextTracer`], a thin *formatter* over the packet (and fault) classes
//! of that stream: a [`telemetry::EventSink`] attached with
//! [`crate::Simulator::set_sink`] like any other. For machine-readable
//! traces attach a [`telemetry::JsonlSink`] instead.

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

/// A line-per-event text tracer with an optional flow filter: a ring of the
/// last `cap` packet events (and, unfiltered, fault events), formatted only
/// by [`render`](Self::render). Recording copies one [`Event`] into the
/// ring, so once the ring is full a traced run allocates nothing per event;
/// a counter keeps the total seen.
#[derive(Debug)]
pub struct TextTracer {
    filter: Option<FlowId>,
    cap: usize,
    ring: std::collections::VecDeque<Event>,
    /// Total events matched (including ones evicted from the ring).
    pub events_seen: u64,
}

impl TextTracer {
    /// Traces every flow, keeping the last `cap` events.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "zero-capacity tracer");
        TextTracer {
            filter: None,
            cap,
            ring: std::collections::VecDeque::new(),
            events_seen: 0,
        }
    }

    /// Traces only `flow` (fault events carry no flow and are left out).
    pub fn for_flow(flow: FlowId, cap: usize) -> Self {
        TextTracer {
            filter: Some(flow),
            ..Self::new(cap)
        }
    }

    /// Renders the retained events, oldest first, one line each.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for ev in &self.ring {
            out.push_str(&Self::line(ev));
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

    /// One log line for a retained (packet or fault) event.
    fn line(ev: &Event) -> String {
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
            EventKind::Fault {
                index,
                kind,
                target,
            } => {
                let t = SimTime(ev.t_ps);
                return format!("{t:>12} FAULT {kind} target={target} plan={index}");
            }
            _ => unreachable!("the tracer retains packet and fault events only"),
        };
        format!(
            "{:>12} {} {:<11} {} {}->{} {}",
            SimTime(ev.t_ps),
            LinkId(link),
            what,
            FlowId(pkt.flow),
            NodeId(pkt.src),
            NodeId(pkt.dst),
            Self::describe(pkt),
        )
    }
}

impl EventSink for TextTracer {
    fn accepts(&self, class: EventClass) -> bool {
        class == EventClass::Packet || (class == EventClass::Fault && self.filter.is_none())
    }

    /// Retains a packet event of the traced flow(s), or an unfiltered
    /// fault; everything else (queue depth, flow windows, …) is ignored.
    fn on_event(&mut self, ev: &Event) {
        let keep = match self.filter {
            None => matches!(ev.class(), EventClass::Packet | EventClass::Fault),
            Some(f) => ev.class() == EventClass::Packet && ev.flow() == Some(f.0),
        };
        if !keep {
            return;
        }
        self.events_seen += 1;
        if self.ring.len() == self.cap {
            self.ring.pop_front();
        }
        self.ring.push_back(*ev);
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
        assert_eq!(t.render().lines().count(), 1);
    }

    #[test]
    fn buffer_is_bounded_but_counts_everything() {
        let mut t = TextTracer::new(3);
        let p = data(0);
        for _ in 0..10 {
            t.on_event(&ev(tx, &p));
        }
        assert_eq!(t.render().lines().count(), 3);
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

    fn fault(index: u32) -> Event {
        Event {
            t_ps: SimTime::from_us(7).as_ps(),
            kind: EventKind::Fault {
                index,
                kind: "link_down",
                target: 3,
            },
        }
    }

    #[test]
    fn fault_events_render_as_fault_lines() {
        let mut t = TextTracer::new(4);
        assert!(t.accepts(EventClass::Fault));
        t.on_event(&fault(2));
        assert_eq!(t.events_seen, 1);
        assert_eq!(t.render(), "7.000us FAULT link_down target=3 plan=2\n");
    }

    #[test]
    fn a_flow_filter_drops_fault_lines() {
        let mut t = TextTracer::for_flow(FlowId(7), 4);
        assert!(!t.accepts(EventClass::Fault));
        t.on_event(&fault(0));
        t.on_event(&ev(tx, &data(7)));
        assert_eq!(t.events_seen, 1);
        assert!(!t.render().contains("FAULT"));
    }

    /// Every packet event and detail kind at distinct times (plus a queue
    /// sample the tracer ignores) renders to the bytes the tracer produced
    /// when it formatted each event on arrival instead of at `render()`.
    #[test]
    fn render_of_a_fixed_event_list_is_pinned() {
        let pkt = |flow: u32, ce, detail| PktInfo {
            flow,
            src: flow + 1,
            dst: 0,
            bytes: 1500,
            ce,
            detail,
        };
        let data = |seq, payload, retx| PktDetail::Data { seq, payload, retx };
        let kinds = [
            EventKind::PktEnqueue {
                link: 1,
                marked: true,
                pkt: pkt(1, true, data(100, 1446, true)),
            },
            EventKind::PktEnqueue {
                link: 2,
                marked: false,
                pkt: pkt(
                    2,
                    false,
                    PktDetail::Ack {
                        ack: 777,
                        ece: true,
                    },
                ),
            },
            EventKind::PktTxStart {
                link: 3,
                pkt: pkt(
                    3,
                    true,
                    PktDetail::QuicData {
                        pn: 17,
                        offset: 4096,
                        payload: 1446,
                        retx: false,
                    },
                ),
            },
            EventKind::PktDeliver {
                link: 4,
                pkt: pkt(
                    4,
                    false,
                    PktDetail::QuicAck {
                        largest: 17,
                        ranges: 2,
                        ece: true,
                    },
                ),
            },
            EventKind::QueueDepth {
                link: 4,
                pkts: 3,
                bytes: 4500,
            },
            EventKind::PktDrop {
                link: 5,
                reason: DropCause::QueueFull,
                pkt: pkt(
                    5,
                    false,
                    PktDetail::Ctrl {
                        demand: 9000,
                        burst: 3,
                    },
                ),
            },
            EventKind::PktDrop {
                link: 6,
                reason: DropCause::SharedBuffer,
                pkt: pkt(
                    6,
                    false,
                    PktDetail::Notif {
                        epoch: 4,
                        pause_ps: 150_000_000,
                        cut: true,
                    },
                ),
            },
            EventKind::PktDrop {
                link: 7,
                reason: DropCause::Fault,
                pkt: pkt(7, false, PktDetail::NotifAck { epoch: 4 }),
            },
            EventKind::PktDrop {
                link: 8,
                reason: DropCause::Corrupt,
                pkt: pkt(8, false, data(0, 64, false)),
            },
        ];
        let mut t = TextTracer::new(16);
        for (i, kind) in kinds.into_iter().enumerate() {
            t.on_event(&Event {
                t_ps: 1_234_567 * (i as u64 + 1),
                kind,
            });
        }
        assert_eq!(
            t.render(),
            "1.235us l1 enq+mark    f1 n2->n0 DATA seq=100 len=1446 retx CE\n\
             2.469us l2 enq         f2 n3->n0 ACK ack=777 ECE\n\
             3.704us l3 tx          f3 n4->n0 QDATA pn=17 off=4096 len=1446 CE\n\
             4.938us l4 rx          f4 n5->n0 QACK largest=17 ranges=2 ECE\n\
             7.407us l5 DROP(full)  f5 n6->n0 CTRL demand=9000 burst=3\n\
             8.642us l6 DROP(shared) f6 n7->n0 NOTIF epoch=4 pause=150000000ps cut\n\
             9.877us l7 DROP(fault) f7 n8->n0 NACK epoch=4\n\
             11.111us l8 DROP(corrupt) f8 n9->n0 DATA seq=0 len=64\n"
        );
    }
}
