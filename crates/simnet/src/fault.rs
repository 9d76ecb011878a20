//! Deterministic fault injection: seeded, scheduled infrastructure faults.
//!
//! A [`FaultPlan`] is an ordered list of [`FaultEvent`]s installed on the
//! simulator before it starts. Each event is scheduled as a first-class sim
//! event — it competes in the same `(time, seq)` order as packet and timer
//! events, so two runs with the same seed and the same plan are
//! bit-identical, on either scheduler. The plan models the imperfect
//! infrastructure the paper blames for pathological incast behavior:
//! link flaps (blackholes), random wire loss/corruption windows, ECN
//! threshold mis-configuration, shared-buffer shrinkage, and host pauses
//! (stragglers).
//!
//! Faults only *mutate network state*; all packet-level consequences flow
//! through the ordinary event loop, which is what keeps the conservation
//! and drain audits valid under any plan.

use crate::ids::{BufferId, LinkId, NodeId};
use crate::time::SimTime;

/// One kind of infrastructure fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultKind {
    /// Take a link down: frames finishing serialization are dropped on the
    /// wire (the queue keeps draining at line rate — a blackhole, not a
    /// stall), until a matching [`FaultKind::LinkUp`].
    LinkDown { link: LinkId },
    /// Bring a downed link back up.
    LinkUp { link: LinkId },
    /// Set an additional per-frame random loss probability on a link
    /// (on top of any configured `loss_probability`). `0.0` restores
    /// healthy behavior.
    SetLinkLoss { link: LinkId, probability: f64 },
    /// Set a per-frame corruption probability on a link. Corrupted frames
    /// are dropped at the receiver side of the wire (FCS failure) and
    /// counted separately in telemetry. `0.0` restores healthy behavior.
    SetLinkCorrupt { link: LinkId, probability: f64 },
    /// Overwrite the ECN marking thresholds of a link's egress queue —
    /// `None` disables marking entirely (the classic mis-configuration
    /// window from the paper's Section 5 discussion).
    SetEcnThreshold {
        link: LinkId,
        pkts: Option<u32>,
        bytes: Option<u64>,
    },
    /// Resize a shared buffer. Growing takes effect immediately; shrinking
    /// below current occupancy ratchets down as packets drain, so byte
    /// accounting never goes negative.
    BufferResize { buffer: BufferId, total_bytes: u64 },
    /// Pause a host: delivered packets and timer fires are queued instead
    /// of dispatched to its endpoint (a paper-style straggler). The NIC
    /// keeps receiving — only the software stalls.
    HostPause { node: NodeId },
    /// Resume a paused host, draining its deferred deliveries and timers
    /// in arrival order.
    HostResume { node: NodeId },
}

impl FaultKind {
    /// Short label for telemetry records.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::LinkDown { .. } => "link_down",
            FaultKind::LinkUp { .. } => "link_up",
            FaultKind::SetLinkLoss { .. } => "set_link_loss",
            FaultKind::SetLinkCorrupt { .. } => "set_link_corrupt",
            FaultKind::SetEcnThreshold { .. } => "set_ecn_threshold",
            FaultKind::BufferResize { .. } => "buffer_resize",
            FaultKind::HostPause { .. } => "host_pause",
            FaultKind::HostResume { .. } => "host_resume",
        }
    }

    /// The link whose frames this fault can cause to be lost on the wire
    /// (down, lossy or corrupting), if it is that kind of fault.
    pub(crate) fn lossy_link(&self) -> Option<LinkId> {
        match *self {
            FaultKind::LinkDown { link }
            | FaultKind::LinkUp { link }
            | FaultKind::SetLinkLoss { link, .. }
            | FaultKind::SetLinkCorrupt { link, .. } => Some(link),
            _ => None,
        }
    }

    /// The entity the fault targets, as a plain index for telemetry.
    pub fn target(&self) -> u64 {
        match self {
            FaultKind::LinkDown { link }
            | FaultKind::LinkUp { link }
            | FaultKind::SetLinkLoss { link, .. }
            | FaultKind::SetLinkCorrupt { link, .. }
            | FaultKind::SetEcnThreshold { link, .. } => link.0 as u64,
            FaultKind::BufferResize { buffer, .. } => buffer.0 as u64,
            FaultKind::HostPause { node } | FaultKind::HostResume { node } => node.0 as u64,
        }
    }
}

/// A fault scheduled at an absolute sim time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When the fault fires.
    pub at: SimTime,
    /// What it does.
    pub kind: FaultKind,
}

/// An ordered schedule of faults for one run.
///
/// Events are applied in plan order when their times collide, so a plan is
/// itself a deterministic artifact: the same plan replays exactly.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// The scheduled faults.
    pub events: Vec<FaultEvent>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        Self::default()
    }

    /// True if the plan schedules no faults.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Appends a fault; returns `self` for chaining.
    pub fn push(mut self, at: SimTime, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at, kind });
        self
    }

    /// A link blackhole over `[from, until)`: down at `from`, up at `until`.
    pub fn blackhole(self, link: LinkId, from: SimTime, until: SimTime) -> Self {
        self.push(from, FaultKind::LinkDown { link })
            .push(until, FaultKind::LinkUp { link })
    }

    /// A random-loss window over `[from, until)` at `probability`.
    pub fn lossy_window(
        self,
        link: LinkId,
        from: SimTime,
        until: SimTime,
        probability: f64,
    ) -> Self {
        self.push(from, FaultKind::SetLinkLoss { link, probability })
            .push(
                until,
                FaultKind::SetLinkLoss {
                    link,
                    probability: 0.0,
                },
            )
    }

    /// A corruption window over `[from, until)` at `probability`.
    pub fn corrupt_window(
        self,
        link: LinkId,
        from: SimTime,
        until: SimTime,
        probability: f64,
    ) -> Self {
        self.push(from, FaultKind::SetLinkCorrupt { link, probability })
            .push(
                until,
                FaultKind::SetLinkCorrupt {
                    link,
                    probability: 0.0,
                },
            )
    }

    /// An ECN mis-configuration window: marking disabled over `[from,
    /// until)`, then restored to `(pkts, bytes)`.
    pub fn ecn_outage(
        self,
        link: LinkId,
        from: SimTime,
        until: SimTime,
        restore_pkts: Option<u32>,
        restore_bytes: Option<u64>,
    ) -> Self {
        self.push(
            from,
            FaultKind::SetEcnThreshold {
                link,
                pkts: None,
                bytes: None,
            },
        )
        .push(
            until,
            FaultKind::SetEcnThreshold {
                link,
                pkts: restore_pkts,
                bytes: restore_bytes,
            },
        )
    }

    /// A shared-buffer shrink window: shrink to `shrunk_bytes` at `from`,
    /// restore to `restore_bytes` at `until`.
    pub fn buffer_squeeze(
        self,
        buffer: BufferId,
        from: SimTime,
        until: SimTime,
        shrunk_bytes: u64,
        restore_bytes: u64,
    ) -> Self {
        self.push(
            from,
            FaultKind::BufferResize {
                buffer,
                total_bytes: shrunk_bytes,
            },
        )
        .push(
            until,
            FaultKind::BufferResize {
                buffer,
                total_bytes: restore_bytes,
            },
        )
    }

    /// A host pause window over `[from, until)` (paper-style straggler).
    pub fn straggler(self, node: NodeId, from: SimTime, until: SimTime) -> Self {
        self.push(from, FaultKind::HostPause { node })
            .push(until, FaultKind::HostResume { node })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_schedule_paired_events() {
        let plan = FaultPlan::new()
            .blackhole(LinkId(3), SimTime::from_ms(5), SimTime::from_ms(9))
            .straggler(NodeId(1), SimTime::from_ms(2), SimTime::from_ms(4));
        assert_eq!(plan.len(), 4);
        assert_eq!(plan.events[0].kind, FaultKind::LinkDown { link: LinkId(3) });
        assert_eq!(plan.events[1].at, SimTime::from_ms(9));
        assert_eq!(
            plan.events[3].kind,
            FaultKind::HostResume { node: NodeId(1) }
        );
    }

    #[test]
    fn labels_and_targets_are_stable() {
        let k = FaultKind::SetLinkLoss {
            link: LinkId(7),
            probability: 0.25,
        };
        assert_eq!(k.label(), "set_link_loss");
        assert_eq!(k.target(), 7);
        let b = FaultKind::BufferResize {
            buffer: BufferId(2),
            total_bytes: 1024,
        };
        assert_eq!(b.label(), "buffer_resize");
        assert_eq!(b.target(), 2);
    }

    #[test]
    fn empty_plan_reports_empty() {
        assert!(FaultPlan::new().is_empty());
        assert_eq!(FaultPlan::default().len(), 0);
    }
}
