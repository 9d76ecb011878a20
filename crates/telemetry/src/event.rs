//! Structured telemetry events.
//!
//! One [`Event`] is one timestamped observation from anywhere in the stack:
//! a per-link packet event from the simulator, a queue-depth or shared-buffer
//! sample, a per-flow congestion-window transition from the transport, or a
//! burst lifecycle marker from the workload. Events carry raw integer
//! identifiers (link/node/flow indices, picosecond timestamps) so this crate
//! stays at the bottom of the dependency graph; the emitting crates own the
//! typed ids.

use crate::json::Line;

/// Coarse event category, used by sinks for cheap subscription gating.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// Per-packet link events (enqueue/drop/tx/deliver).
    Packet,
    /// Queue-depth samples.
    Queue,
    /// Shared-buffer occupancy watermarks.
    Buffer,
    /// Per-flow transport state transitions.
    Flow,
    /// Application/workload lifecycle (burst start/end).
    App,
    /// Injected infrastructure faults (link flaps, buffer resizes, host
    /// pauses) from a simulation's fault plan.
    Fault,
    /// Control-plane lifecycle (incast detection episodes: detect, retry,
    /// completion).
    Ctrl,
}

impl EventClass {
    /// This class's bit in a subscription mask (one bit per class, so a
    /// set of classes is a `u8` and membership is one AND).
    pub const fn bit(self) -> u8 {
        1 << self as u8
    }
}

/// Payload details of a traced packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum PktDetail {
    /// A data segment.
    Data {
        /// Wire sequence number.
        seq: u32,
        /// Payload bytes.
        payload: u32,
        /// True if this is a retransmission.
        retx: bool,
    },
    /// An acknowledgment.
    Ack {
        /// Cumulative ack (wire).
        ack: u32,
        /// ECN-Echo flag.
        ece: bool,
    },
    /// A QUIC-style data packet (fresh packet number per transmission).
    QuicData {
        /// Wire packet number.
        pn: u32,
        /// Wire stream offset of the payload.
        offset: u32,
        /// Payload bytes.
        payload: u32,
        /// True if the stream bytes were previously transmitted.
        retx: bool,
    },
    /// A QUIC-style acknowledgment carrying packet-number ranges.
    QuicAck {
        /// Largest acknowledged wire packet number.
        largest: u32,
        /// Number of ACK ranges carried.
        ranges: u32,
        /// ECN-Echo flag.
        ece: bool,
    },
    /// An application control message.
    Ctrl {
        /// Demand bytes requested.
        demand: u64,
        /// Burst index.
        burst: u64,
    },
    /// A switch-originated incast notification frame.
    Notif {
        /// Episode epoch at the detecting port.
        epoch: u32,
        /// Requested pause duration in picoseconds.
        pause_ps: u64,
        /// True if the notification requests a cwnd cut instead of a pause.
        cut: bool,
    },
    /// A host's acknowledgment of a notification.
    NotifAck {
        /// Epoch being acknowledged.
        epoch: u32,
    },
}

/// Identity and size of a traced packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PktInfo {
    /// Flow index.
    pub flow: u32,
    /// Source node index.
    pub src: u32,
    /// Destination node index.
    pub dst: u32,
    /// Wire size in bytes.
    pub bytes: u32,
    /// True if the packet currently carries a CE mark.
    pub ce: bool,
    /// Kind-specific detail.
    pub detail: PktDetail,
}

/// Why a packet was dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DropCause {
    /// The egress queue's own byte/packet capacity was exceeded.
    QueueFull,
    /// The switch's shared buffer refused admission.
    SharedBuffer,
    /// Link fault injection lost the frame on the wire.
    Fault,
    /// Link fault injection corrupted the frame (dropped at the receiver
    /// as an FCS failure).
    Corrupt,
}

impl DropCause {
    /// Stable wire label.
    pub fn label(&self) -> &'static str {
        match self {
            DropCause::QueueFull => "queue_full",
            DropCause::SharedBuffer => "shared_buffer",
            DropCause::Fault => "fault",
            DropCause::Corrupt => "corrupt",
        }
    }
}

/// Transport-level connection state, as seen by flow probes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowState {
    /// Normal transmission.
    Open,
    /// NewReno fast recovery.
    Recovery,
    /// Post-RTO: the window collapsed and the flow is rebuilding.
    Backoff,
}

impl FlowState {
    /// Stable wire label.
    pub fn label(&self) -> &'static str {
        match self {
            FlowState::Open => "open",
            FlowState::Recovery => "recovery",
            FlowState::Backoff => "backoff",
        }
    }
}

/// What caused a flow-window event to be emitted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowTrigger {
    /// An ACK advanced or changed the window.
    Ack,
    /// An ACK carrying ECN-Echo changed the window.
    Ece,
    /// Triple-duplicate-ACK fast retransmit.
    FastRetransmit,
    /// Retransmission timeout.
    Rto,
    /// Fresh demand after idle (a new burst is starting).
    BurstStart,
}

impl WindowTrigger {
    /// Stable wire label.
    pub fn label(&self) -> &'static str {
        match self {
            WindowTrigger::Ack => "ack",
            WindowTrigger::Ece => "ece",
            WindowTrigger::FastRetransmit => "fast_retx",
            WindowTrigger::Rto => "rto",
            WindowTrigger::BurstStart => "burst_start",
        }
    }
}

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A packet was accepted into a link's egress queue.
    PktEnqueue {
        /// Link index.
        link: u32,
        /// The packet.
        pkt: PktInfo,
        /// True if this enqueue CE-marked the packet.
        marked: bool,
    },
    /// A packet was dropped at (or on) a link.
    PktDrop {
        /// Link index.
        link: u32,
        /// The packet.
        pkt: PktInfo,
        /// Why.
        reason: DropCause,
    },
    /// Serialization of a packet onto the wire began.
    PktTxStart {
        /// Link index.
        link: u32,
        /// The packet.
        pkt: PktInfo,
    },
    /// A packet arrived at a link's far end.
    PktDeliver {
        /// Link index.
        link: u32,
        /// The packet.
        pkt: PktInfo,
    },
    /// Queue depth after an enqueue or dequeue on a probed link.
    QueueDepth {
        /// Link index.
        link: u32,
        /// Occupancy in packets.
        pkts: u32,
        /// Occupancy in bytes.
        bytes: u64,
    },
    /// A shared buffer reached a new occupancy high-water mark.
    BufferWatermark {
        /// Buffer index.
        buffer: u32,
        /// Bytes charged at the new peak.
        used_bytes: u64,
        /// Pool size.
        total_bytes: u64,
    },
    /// A sender's congestion window / state changed.
    FlowWindow {
        /// Host node index.
        node: u32,
        /// Flow index.
        flow: u32,
        /// Congestion window in bytes (floor applied).
        cwnd: u64,
        /// Slow-start threshold in bytes.
        ssthresh: u64,
        /// Bytes in flight.
        inflight: u64,
        /// Connection state.
        state: FlowState,
        /// What caused this emission.
        trigger: WindowTrigger,
    },
    /// A coordinator issued the requests of a new burst.
    BurstStart {
        /// Burst index (0-based).
        burst: u32,
        /// Number of flows queried.
        flows: u32,
        /// Demand per flow in bytes.
        per_flow_bytes: u64,
    },
    /// The last response byte of a burst arrived.
    BurstEnd {
        /// Burst index (0-based).
        burst: u32,
        /// Burst completion time in milliseconds.
        bct_ms: f64,
    },
    /// A control-plane episode transition at a detecting switch port
    /// (incast detected, notifications re-fired, episode closed).
    CtrlEpisode {
        /// Detecting switch node index.
        node: u32,
        /// Monitored egress link index.
        link: u32,
        /// Episode epoch at that port.
        epoch: u32,
        /// Stable phase label: "detect", "emit", "retry", "done", "expire".
        phase: &'static str,
        /// Targets concerned (senders notified / still unacknowledged).
        targets: u32,
    },
    /// A scheduled infrastructure fault fired (see the simulator's
    /// `FaultPlan`).
    Fault {
        /// Position of the fault in its plan.
        index: u32,
        /// Stable fault-kind label ("link_down", "buffer_resize", …).
        kind: &'static str,
        /// Index of the targeted entity (link, buffer, or node).
        target: u64,
    },
}

/// One timestamped telemetry event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Event {
    /// Simulated time in picoseconds.
    pub t_ps: u64,
    /// What happened.
    pub kind: EventKind,
}

impl Event {
    /// The event's class (for sink gating).
    pub fn class(&self) -> EventClass {
        match self.kind {
            EventKind::PktEnqueue { .. }
            | EventKind::PktDrop { .. }
            | EventKind::PktTxStart { .. }
            | EventKind::PktDeliver { .. } => EventClass::Packet,
            EventKind::QueueDepth { .. } => EventClass::Queue,
            EventKind::BufferWatermark { .. } => EventClass::Buffer,
            EventKind::FlowWindow { .. } => EventClass::Flow,
            EventKind::BurstStart { .. } | EventKind::BurstEnd { .. } => EventClass::App,
            EventKind::CtrlEpisode { .. } => EventClass::Ctrl,
            EventKind::Fault { .. } => EventClass::Fault,
        }
    }

    /// The flow this event concerns, if any (drives flow filters).
    pub fn flow(&self) -> Option<u32> {
        match self.kind {
            EventKind::PktEnqueue { pkt, .. }
            | EventKind::PktDrop { pkt, .. }
            | EventKind::PktTxStart { pkt, .. }
            | EventKind::PktDeliver { pkt, .. } => Some(pkt.flow),
            EventKind::FlowWindow { flow, .. } => Some(flow),
            _ => None,
        }
    }

    /// Stages this event as one JSON object. Each arm hands the writer its
    /// punctuation and keys as whole literal runs with the values between;
    /// the labels and the bare `raw` strings are program constants that
    /// need no escaping, `phase` and `kind` are caller-supplied and go
    /// through [`Line::str`].
    fn encode(&self, w: &mut Line) {
        w.raw(r#"{"t":"#).u64(self.t_ps);
        match &self.kind {
            EventKind::PktEnqueue { link, pkt, marked } => {
                encode_pkt(w, r#","ev":"pkt_enq","link":"#, *link, pkt);
                w.raw(r#","marked":"#).bool(*marked).raw("}");
            }
            EventKind::PktDrop { link, pkt, reason } => {
                encode_pkt(w, r#","ev":"pkt_drop","link":"#, *link, pkt);
                w.raw(r#","reason":""#).raw(reason.label()).raw(r#""}"#);
            }
            EventKind::PktTxStart { link, pkt } => {
                encode_pkt(w, r#","ev":"pkt_tx","link":"#, *link, pkt);
                w.raw("}");
            }
            EventKind::PktDeliver { link, pkt } => {
                encode_pkt(w, r#","ev":"pkt_rx","link":"#, *link, pkt);
                w.raw("}");
            }
            EventKind::QueueDepth { link, pkts, bytes } => {
                w.raw(r#","ev":"queue_depth","link":"#)
                    .u64(*link as u64)
                    .raw(r#","pkts":"#)
                    .u64(*pkts as u64)
                    .raw(r#","bytes":"#)
                    .u64(*bytes)
                    .raw("}");
            }
            EventKind::BufferWatermark {
                buffer,
                used_bytes,
                total_bytes,
            } => {
                w.raw(r#","ev":"buffer_watermark","buffer":"#)
                    .u64(*buffer as u64)
                    .raw(r#","used_bytes":"#)
                    .u64(*used_bytes)
                    .raw(r#","total_bytes":"#)
                    .u64(*total_bytes)
                    .raw("}");
            }
            EventKind::FlowWindow {
                node,
                flow,
                cwnd,
                ssthresh,
                inflight,
                state,
                trigger,
            } => {
                w.raw(r#","ev":"flow_window","node":"#)
                    .u64(*node as u64)
                    .raw(r#","flow":"#)
                    .u64(*flow as u64)
                    .raw(r#","cwnd":"#)
                    .u64(*cwnd)
                    .raw(r#","ssthresh":"#)
                    .u64(*ssthresh)
                    .raw(r#","inflight":"#)
                    .u64(*inflight)
                    .raw(r#","state":""#)
                    .raw(state.label())
                    .raw(r#"","trigger":""#)
                    .raw(trigger.label())
                    .raw(r#""}"#);
            }
            EventKind::BurstStart {
                burst,
                flows,
                per_flow_bytes,
            } => {
                w.raw(r#","ev":"burst_start","burst":"#)
                    .u64(*burst as u64)
                    .raw(r#","flows":"#)
                    .u64(*flows as u64)
                    .raw(r#","per_flow_bytes":"#)
                    .u64(*per_flow_bytes)
                    .raw("}");
            }
            EventKind::BurstEnd { burst, bct_ms } => {
                w.raw(r#","ev":"burst_end","burst":"#)
                    .u64(*burst as u64)
                    .raw(r#","bct_ms":"#)
                    .f64(*bct_ms)
                    .raw("}");
            }
            EventKind::CtrlEpisode {
                node,
                link,
                epoch,
                phase,
                targets,
            } => {
                w.raw(r#","ev":"ctrl","node":"#)
                    .u64(*node as u64)
                    .raw(r#","link":"#)
                    .u64(*link as u64)
                    .raw(r#","epoch":"#)
                    .u64(*epoch as u64)
                    .raw(r#","phase":""#)
                    .str(phase)
                    .raw(r#"","targets":"#)
                    .u64(*targets as u64)
                    .raw("}");
            }
            EventKind::Fault {
                index,
                kind,
                target,
            } => {
                w.raw(r#","ev":"fault","index":"#)
                    .u64(*index as u64)
                    .raw(r#","kind":""#)
                    .str(kind)
                    .raw(r#"","target":"#)
                    .u64(*target)
                    .raw("}");
            }
        }
    }

    /// Appends this event as one JSON object (no trailing newline) to `out`.
    ///
    /// Field order is fixed, so equal events serialize to equal bytes —
    /// the property the determinism tests and trace diffing rely on.
    pub fn write_json(&self, out: &mut String) {
        let mut w = Line::new(out);
        self.encode(&mut w);
        w.finish();
    }

    /// [`write_json`](Self::write_json) plus the newline that ends a JSONL
    /// record.
    pub(crate) fn write_jsonl(&self, out: &mut String) {
        let mut w = Line::new(out);
        self.encode(&mut w);
        w.raw("\n");
        w.finish();
    }

    /// This event as a standalone JSON string.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        self.write_json(&mut s);
        s
    }
}

/// The fields every per-packet event shares, from the event name (`ev`,
/// ending in the `"link":` key) through the kind-specific detail.
fn encode_pkt(w: &mut Line, ev: &'static str, link: u32, pkt: &PktInfo) {
    w.raw(ev)
        .u64(link as u64)
        .raw(r#","flow":"#)
        .u64(pkt.flow as u64)
        .raw(r#","src":"#)
        .u64(pkt.src as u64)
        .raw(r#","dst":"#)
        .u64(pkt.dst as u64)
        .raw(r#","bytes":"#)
        .u64(pkt.bytes as u64)
        .raw(r#","ce":"#)
        .bool(pkt.ce);
    match pkt.detail {
        PktDetail::Data { seq, payload, retx } => {
            w.raw(r#","pkt":"data","seq":"#)
                .u64(seq as u64)
                .raw(r#","len":"#)
                .u64(payload as u64)
                .raw(r#","retx":"#)
                .bool(retx);
        }
        PktDetail::Ack { ack, ece } => {
            w.raw(r#","pkt":"ack","ack":"#)
                .u64(ack as u64)
                .raw(r#","ece":"#)
                .bool(ece);
        }
        PktDetail::QuicData {
            pn,
            offset,
            payload,
            retx,
        } => {
            w.raw(r#","pkt":"qdata","pn":"#)
                .u64(pn as u64)
                .raw(r#","off":"#)
                .u64(offset as u64)
                .raw(r#","len":"#)
                .u64(payload as u64)
                .raw(r#","retx":"#)
                .bool(retx);
        }
        PktDetail::QuicAck {
            largest,
            ranges,
            ece,
        } => {
            w.raw(r#","pkt":"qack","largest":"#)
                .u64(largest as u64)
                .raw(r#","ranges":"#)
                .u64(ranges as u64)
                .raw(r#","ece":"#)
                .bool(ece);
        }
        PktDetail::Ctrl { demand, burst } => {
            w.raw(r#","pkt":"ctrl","demand":"#)
                .u64(demand)
                .raw(r#","burst":"#)
                .u64(burst);
        }
        PktDetail::Notif {
            epoch,
            pause_ps,
            cut,
        } => {
            w.raw(r#","pkt":"notif","epoch":"#)
                .u64(epoch as u64)
                .raw(r#","pause_ps":"#)
                .u64(pause_ps)
                .raw(r#","cut":"#)
                .bool(cut);
        }
        PktDetail::NotifAck { epoch } => {
            w.raw(r#","pkt":"notif_ack","epoch":"#).u64(epoch as u64);
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::json::Obj;

    fn reference_pkt(o: &mut Obj, link: u32, pkt: &PktInfo) {
        o.u64("link", link as u64)
            .u64("flow", pkt.flow as u64)
            .u64("src", pkt.src as u64)
            .u64("dst", pkt.dst as u64)
            .u64("bytes", pkt.bytes as u64)
            .bool("ce", pkt.ce);
        match pkt.detail {
            PktDetail::Data { seq, payload, retx } => {
                o.str("pkt", "data")
                    .u64("seq", seq as u64)
                    .u64("len", payload as u64)
                    .bool("retx", retx);
            }
            PktDetail::Ack { ack, ece } => {
                o.str("pkt", "ack").u64("ack", ack as u64).bool("ece", ece);
            }
            PktDetail::QuicData {
                pn,
                offset,
                payload,
                retx,
            } => {
                o.str("pkt", "qdata")
                    .u64("pn", pn as u64)
                    .u64("off", offset as u64)
                    .u64("len", payload as u64)
                    .bool("retx", retx);
            }
            PktDetail::QuicAck {
                largest,
                ranges,
                ece,
            } => {
                o.str("pkt", "qack")
                    .u64("largest", largest as u64)
                    .u64("ranges", ranges as u64)
                    .bool("ece", ece);
            }
            PktDetail::Ctrl { demand, burst } => {
                o.str("pkt", "ctrl")
                    .u64("demand", demand)
                    .u64("burst", burst);
            }
            PktDetail::Notif {
                epoch,
                pause_ps,
                cut,
            } => {
                o.str("pkt", "notif")
                    .u64("epoch", epoch as u64)
                    .u64("pause_ps", pause_ps)
                    .bool("cut", cut);
            }
            PktDetail::NotifAck { epoch } => {
                o.str("pkt", "notif_ack").u64("epoch", epoch as u64);
            }
        }
    }

    /// The field-by-field `Obj` encoder the fused one replaced, kept as the
    /// reference it must match byte for byte.
    fn reference_json(ev: &Event) -> String {
        let mut out = String::new();
        let mut o = Obj::new(&mut out);
        o.u64("t", ev.t_ps);
        match &ev.kind {
            EventKind::PktEnqueue { link, pkt, marked } => {
                o.str("ev", "pkt_enq");
                reference_pkt(&mut o, *link, pkt);
                o.bool("marked", *marked);
            }
            EventKind::PktDrop { link, pkt, reason } => {
                o.str("ev", "pkt_drop");
                reference_pkt(&mut o, *link, pkt);
                o.str("reason", reason.label());
            }
            EventKind::PktTxStart { link, pkt } => {
                o.str("ev", "pkt_tx");
                reference_pkt(&mut o, *link, pkt);
            }
            EventKind::PktDeliver { link, pkt } => {
                o.str("ev", "pkt_rx");
                reference_pkt(&mut o, *link, pkt);
            }
            EventKind::QueueDepth { link, pkts, bytes } => {
                o.str("ev", "queue_depth")
                    .u64("link", *link as u64)
                    .u64("pkts", *pkts as u64)
                    .u64("bytes", *bytes);
            }
            EventKind::BufferWatermark {
                buffer,
                used_bytes,
                total_bytes,
            } => {
                o.str("ev", "buffer_watermark")
                    .u64("buffer", *buffer as u64)
                    .u64("used_bytes", *used_bytes)
                    .u64("total_bytes", *total_bytes);
            }
            EventKind::FlowWindow {
                node,
                flow,
                cwnd,
                ssthresh,
                inflight,
                state,
                trigger,
            } => {
                o.str("ev", "flow_window")
                    .u64("node", *node as u64)
                    .u64("flow", *flow as u64)
                    .u64("cwnd", *cwnd)
                    .u64("ssthresh", *ssthresh)
                    .u64("inflight", *inflight)
                    .str("state", state.label())
                    .str("trigger", trigger.label());
            }
            EventKind::BurstStart {
                burst,
                flows,
                per_flow_bytes,
            } => {
                o.str("ev", "burst_start")
                    .u64("burst", *burst as u64)
                    .u64("flows", *flows as u64)
                    .u64("per_flow_bytes", *per_flow_bytes);
            }
            EventKind::BurstEnd { burst, bct_ms } => {
                o.str("ev", "burst_end")
                    .u64("burst", *burst as u64)
                    .f64("bct_ms", *bct_ms);
            }
            EventKind::CtrlEpisode {
                node,
                link,
                epoch,
                phase,
                targets,
            } => {
                o.str("ev", "ctrl")
                    .u64("node", *node as u64)
                    .u64("link", *link as u64)
                    .u64("epoch", *epoch as u64)
                    .str("phase", phase)
                    .u64("targets", *targets as u64);
            }
            EventKind::Fault {
                index,
                kind,
                target,
            } => {
                o.str("ev", "fault")
                    .u64("index", *index as u64)
                    .str("kind", kind)
                    .u64("target", *target);
            }
        }
        o.finish();
        out
    }

    /// One event of every `EventKind` × `PktDetail` variant, its fields
    /// drawn by `n` (every label, both values of every flag).
    pub(crate) fn every_variant(mut n: impl FnMut() -> u64, bct_ms: f64) -> Vec<EventKind> {
        let mut bit = {
            let mut flips = 0u32;
            move || {
                flips += 1;
                flips.is_multiple_of(3)
            }
        };
        let details = [
            PktDetail::Data {
                seq: n() as u32,
                payload: n() as u32,
                retx: bit(),
            },
            PktDetail::Ack {
                ack: n() as u32,
                ece: bit(),
            },
            PktDetail::QuicData {
                pn: n() as u32,
                offset: n() as u32,
                payload: n() as u32,
                retx: bit(),
            },
            PktDetail::QuicAck {
                largest: n() as u32,
                ranges: n() as u32,
                ece: bit(),
            },
            PktDetail::Ctrl {
                demand: n(),
                burst: n(),
            },
            PktDetail::Notif {
                epoch: n() as u32,
                pause_ps: n(),
                cut: bit(),
            },
            PktDetail::NotifAck { epoch: n() as u32 },
        ];
        let reasons = [
            DropCause::QueueFull,
            DropCause::SharedBuffer,
            DropCause::Fault,
            DropCause::Corrupt,
        ];
        let states = [FlowState::Open, FlowState::Recovery, FlowState::Backoff];
        let triggers = [
            WindowTrigger::Ack,
            WindowTrigger::Ece,
            WindowTrigger::FastRetransmit,
            WindowTrigger::Rto,
            WindowTrigger::BurstStart,
        ];
        let mut kinds = Vec::new();
        for detail in details {
            let pkt = PktInfo {
                flow: n() as u32,
                src: n() as u32,
                dst: n() as u32,
                bytes: n() as u32,
                ce: bit(),
                detail,
            };
            let link = n() as u32;
            kinds.push(EventKind::PktEnqueue {
                link,
                pkt,
                marked: bit(),
            });
            kinds.push(EventKind::PktTxStart { link, pkt });
            kinds.push(EventKind::PktDeliver { link, pkt });
            for reason in reasons {
                kinds.push(EventKind::PktDrop { link, pkt, reason });
            }
        }
        kinds.push(EventKind::QueueDepth {
            link: n() as u32,
            pkts: n() as u32,
            bytes: n(),
        });
        kinds.push(EventKind::BufferWatermark {
            buffer: n() as u32,
            used_bytes: n(),
            total_bytes: n(),
        });
        for state in states {
            for trigger in triggers {
                kinds.push(EventKind::FlowWindow {
                    node: n() as u32,
                    flow: n() as u32,
                    cwnd: n(),
                    ssthresh: n(),
                    inflight: n(),
                    state,
                    trigger,
                });
            }
        }
        kinds.push(EventKind::BurstStart {
            burst: n() as u32,
            flows: n() as u32,
            per_flow_bytes: n(),
        });
        kinds.push(EventKind::BurstEnd {
            burst: n() as u32,
            bct_ms,
        });
        for phase in ["detect", "emit", "retry", "done", "expire"] {
            kinds.push(EventKind::CtrlEpisode {
                node: n() as u32,
                link: n() as u32,
                epoch: n() as u32,
                phase,
                targets: n() as u32,
            });
        }
        kinds.push(EventKind::Fault {
            index: n() as u32,
            kind: "buffer_resize",
            target: n(),
        });
        kinds
    }

    fn assert_matches_reference(t_ps: u64, kinds: Vec<EventKind>) {
        for kind in kinds {
            let ev = Event { t_ps, kind };
            assert_eq!(ev.to_json(), reference_json(&ev), "{ev:?}");
        }
    }

    #[test]
    fn fused_encoder_matches_the_field_by_field_reference() {
        // Every field of every variant at every digit-count boundary (`u32`
        // fields take the values truncated, which still covers theirs).
        for v in crate::json::tests::digit_boundaries() {
            assert_matches_reference(v, every_variant(|| v, v as f64 / 8.0));
        }
        for bct_ms in [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            0.0,
            -0.0,
            1e300,
            5e-324,
        ] {
            assert_matches_reference(1, every_variant(|| u64::MAX, bct_ms));
        }
        // Seeded random fields of random widths (uniform u64s are nearly
        // all 19-20 digits long).
        let mut rng = stats::Rng::new(15);
        for _ in 0..300 {
            let t_ps = rng.next_u64() >> rng.below(64);
            let bct_ms = rng.range_f64(0.0, 400.0);
            let mut draw = rng.fork(t_ps);
            let kinds = every_variant(|| draw.next_u64() >> draw.below(64), bct_ms);
            assert_matches_reference(t_ps, kinds);
        }
    }

    #[test]
    fn the_longest_line_fits_the_staging_buffer() {
        // Every field at its widest; the variants include the longest
        // label of every enum.
        let longest = every_variant(|| u64::MAX, 1.5)
            .into_iter()
            .map(|kind| {
                let ev = Event {
                    t_ps: u64::MAX,
                    kind,
                };
                ev.to_json().len() + "\n".len()
            })
            .max()
            .expect("variants");
        assert!(
            longest <= crate::json::LINE_CAPACITY,
            "a {longest}-byte line no longer reaches the sink in one copy"
        );
        // Not so roomy that the bound means nothing.
        assert!(longest > crate::json::LINE_CAPACITY * 3 / 4, "{longest}");
    }

    #[test]
    fn caller_supplied_labels_spill_and_escape_instead_of_truncating() {
        let long: &'static str = Box::leak("phase-".repeat(100).into_boxed_str());
        for label in [
            long,
            "tab\there",
            "quo\"te",
            "back\\slash",
            "nul\0",
            "é→🦀",
            "",
        ] {
            let kinds = vec![
                EventKind::CtrlEpisode {
                    node: u32::MAX,
                    link: 7,
                    epoch: 1,
                    phase: label,
                    targets: 3,
                },
                EventKind::Fault {
                    index: 9,
                    kind: label,
                    target: u64::MAX,
                },
            ];
            assert_matches_reference(u64::MAX, kinds);
        }
        // Through the sink, too: the newline still ends the record.
        let mut sink = crate::JsonlSink::new();
        let ev = Event {
            t_ps: 4,
            kind: EventKind::Fault {
                index: 0,
                kind: long,
                target: 1,
            },
        };
        crate::EventSink::on_event(&mut sink, &ev);
        assert_eq!(sink.render(), format!("{}\n", reference_json(&ev)));
    }

    fn data_pkt() -> PktInfo {
        PktInfo {
            flow: 5,
            src: 0,
            dst: 2,
            bytes: 1500,
            ce: false,
            detail: PktDetail::Data {
                seq: 100,
                payload: 1446,
                retx: false,
            },
        }
    }

    #[test]
    fn enqueue_serializes_with_fixed_field_order() {
        let ev = Event {
            t_ps: 3_000_000,
            kind: EventKind::PktEnqueue {
                link: 1,
                pkt: data_pkt(),
                marked: true,
            },
        };
        assert_eq!(
            ev.to_json(),
            r#"{"t":3000000,"ev":"pkt_enq","link":1,"flow":5,"src":0,"dst":2,"bytes":1500,"ce":false,"pkt":"data","seq":100,"len":1446,"retx":false,"marked":true}"#
        );
    }

    #[test]
    fn classes_and_flows() {
        let pkt_ev = Event {
            t_ps: 0,
            kind: EventKind::PktDeliver {
                link: 0,
                pkt: data_pkt(),
            },
        };
        assert_eq!(pkt_ev.class(), EventClass::Packet);
        assert_eq!(pkt_ev.flow(), Some(5));

        let q = Event {
            t_ps: 0,
            kind: EventKind::QueueDepth {
                link: 2,
                pkts: 7,
                bytes: 10_500,
            },
        };
        assert_eq!(q.class(), EventClass::Queue);
        assert_eq!(q.flow(), None);

        let fw = Event {
            t_ps: 0,
            kind: EventKind::FlowWindow {
                node: 1,
                flow: 9,
                cwnd: 14460,
                ssthresh: u64::MAX,
                inflight: 0,
                state: FlowState::Open,
                trigger: WindowTrigger::BurstStart,
            },
        };
        assert_eq!(fw.class(), EventClass::Flow);
        assert_eq!(fw.flow(), Some(9));
    }

    #[test]
    fn fault_event_serializes_and_classes() {
        let ev = Event {
            t_ps: 5_000_000,
            kind: EventKind::Fault {
                index: 2,
                kind: "link_down",
                target: 4,
            },
        };
        assert_eq!(ev.class(), EventClass::Fault);
        assert_eq!(ev.flow(), None);
        assert_eq!(
            ev.to_json(),
            r#"{"t":5000000,"ev":"fault","index":2,"kind":"link_down","target":4}"#
        );
    }

    #[test]
    fn drop_reasons_and_states_have_stable_labels() {
        assert_eq!(DropCause::QueueFull.label(), "queue_full");
        assert_eq!(DropCause::SharedBuffer.label(), "shared_buffer");
        assert_eq!(DropCause::Fault.label(), "fault");
        assert_eq!(DropCause::Corrupt.label(), "corrupt");
        assert_eq!(FlowState::Backoff.label(), "backoff");
        assert_eq!(WindowTrigger::FastRetransmit.label(), "fast_retx");
    }

    #[test]
    fn quic_details_serialize() {
        let qd = Event {
            t_ps: 1,
            kind: EventKind::PktDeliver {
                link: 3,
                pkt: PktInfo {
                    flow: 1,
                    src: 0,
                    dst: 2,
                    bytes: 1500,
                    ce: false,
                    detail: PktDetail::QuicData {
                        pn: 17,
                        offset: 4096,
                        payload: 1446,
                        retx: true,
                    },
                },
            },
        };
        assert!(
            qd.to_json()
                .contains(r#""pkt":"qdata","pn":17,"off":4096,"len":1446,"retx":true"#),
            "{}",
            qd.to_json()
        );
        let qa = Event {
            t_ps: 2,
            kind: EventKind::PktDeliver {
                link: 3,
                pkt: PktInfo {
                    flow: 1,
                    src: 2,
                    dst: 0,
                    bytes: 64,
                    ce: false,
                    detail: PktDetail::QuicAck {
                        largest: 17,
                        ranges: 2,
                        ece: true,
                    },
                },
            },
        };
        assert!(
            qa.to_json()
                .contains(r#""pkt":"qack","largest":17,"ranges":2,"ece":true"#),
            "{}",
            qa.to_json()
        );
    }

    #[test]
    fn notif_details_and_ctrl_episode_serialize() {
        let notif = Event {
            t_ps: 7,
            kind: EventKind::PktDeliver {
                link: 2,
                pkt: PktInfo {
                    flow: 0xC000_0000,
                    src: 10,
                    dst: 1,
                    bytes: 64,
                    ce: false,
                    detail: PktDetail::Notif {
                        epoch: 3,
                        pause_ps: 150_000_000,
                        cut: false,
                    },
                },
            },
        };
        assert!(
            notif
                .to_json()
                .contains(r#""pkt":"notif","epoch":3,"pause_ps":150000000,"cut":false"#),
            "{}",
            notif.to_json()
        );
        let ack = Event {
            t_ps: 8,
            kind: EventKind::PktDeliver {
                link: 2,
                pkt: PktInfo {
                    flow: 0xC000_0000,
                    src: 1,
                    dst: 10,
                    bytes: 64,
                    ce: false,
                    detail: PktDetail::NotifAck { epoch: 3 },
                },
            },
        };
        assert!(
            ack.to_json().contains(r#""pkt":"notif_ack","epoch":3"#),
            "{}",
            ack.to_json()
        );
        let ep = Event {
            t_ps: 9,
            kind: EventKind::CtrlEpisode {
                node: 10,
                link: 2,
                epoch: 3,
                phase: "detect",
                targets: 8,
            },
        };
        assert_eq!(ep.class(), EventClass::Ctrl);
        assert_eq!(ep.flow(), None);
        assert_eq!(
            ep.to_json(),
            r#"{"t":9,"ev":"ctrl","node":10,"link":2,"epoch":3,"phase":"detect","targets":8}"#
        );
    }

    #[test]
    fn ack_and_ctrl_serialize() {
        let ack = Event {
            t_ps: 1,
            kind: EventKind::PktDeliver {
                link: 3,
                pkt: PktInfo {
                    flow: 1,
                    src: 2,
                    dst: 0,
                    bytes: 64,
                    ce: false,
                    detail: PktDetail::Ack {
                        ack: 777,
                        ece: true,
                    },
                },
            },
        };
        assert!(ack
            .to_json()
            .contains(r#""pkt":"ack","ack":777,"ece":true"#));
        let ctrl = Event {
            t_ps: 2,
            kind: EventKind::BurstEnd {
                burst: 4,
                bct_ms: 1.25,
            },
        };
        assert_eq!(
            ctrl.to_json(),
            r#"{"t":2,"ev":"burst_end","burst":4,"bct_ms":1.25}"#
        );
    }
}
