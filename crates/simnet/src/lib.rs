//! # simnet — a deterministic datacenter network simulator
//!
//! The NS3 substitute for the incast-bursts reproduction: a discrete-event,
//! packet-level simulator of datacenter fabrics. It models exactly what the
//! paper's Section 4 experiments need — fixed-rate links with propagation
//! delay, output-queued switches with drop-tail FIFO queues and threshold
//! ECN marking, optional shared switch buffers (Dynamic Threshold), end
//! hosts running pluggable software ([`Endpoint`]s, e.g. the `transport`
//! crate's TCP stack), passive host taps for measurement, and deterministic
//! seeded fault injection.
//!
//! Design notes:
//!
//! - **Determinism.** Time is integer picoseconds; simultaneous events fire
//!   in scheduling order; the only randomness is a seeded RNG. Two runs of
//!   the same configuration are bit-identical.
//! - **Single-threaded.** A simulation is one CPU-bound event loop;
//!   experiments parallelize by running many independent simulations (see
//!   `incast-core`'s runner), not by threading one.
//! - **Command-buffered endpoints.** Host software communicates with the
//!   engine through buffered commands, keeping the event loop re-entrancy
//!   free (the smoltcp school of simple, robust event-driven design).
//!
//! ```
//! use simnet::{build_dumbbell, Endpoint, Ctx, Packet, FlowId};
//!
//! // Two-sender dumbbell; send one frame from sender 0 to the receiver.
//! let mut fabric = build_dumbbell(2, 42);
//! struct OneShot { to: simnet::NodeId }
//! impl Endpoint for OneShot {
//!     fn on_start(&mut self, ctx: &mut Ctx) {
//!         let pkt = Packet::data(FlowId(0), ctx.node(), self.to, 0, 1446, false, ctx.now());
//!         ctx.send(pkt);
//!     }
//!     fn on_packet(&mut self, _ctx: &mut Ctx, _pkt: Packet) {}
//! }
//! let rx = fabric.receivers[0];
//! fabric.sim.set_endpoint(fabric.senders[0], Box::new(OneShot { to: rx }));
//! fabric.sim.run();
//! assert_eq!(fabric.sim.counters().delivered_pkts, 1);
//! ```

#![forbid(unsafe_code)]

pub mod buffer;
pub mod builder;
pub mod check;
pub mod control;
pub mod endpoint;
pub mod event;
pub mod fault;
pub mod hash;
pub mod ids;
pub mod link;
pub mod node;
pub mod packet;
pub mod queue;
pub mod sim;
pub mod time;
pub mod topology;
pub mod trace;
pub mod units;
pub mod wheel;

pub use buffer::{BufferPolicy, SharedBuffer};
pub use builder::NetworkBuilder;
pub use control::{ControlConfig, ControlPlane, CtrlAction, RetryPlan, CTRL_FLOW_BASE};
pub use endpoint::{Cmd, Ctx, Endpoint, IngressTap, Shared};
pub use event::{Event, EventKind, EventQueue, Scheduler};
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use hash::{ecmp_pick, ecmp_score, FxHashMap, FxHasher};
pub use ids::{BufferId, FlowId, LinkId, NodeId};
pub use link::{Link, LinkConfig};
pub use node::Node;
pub use packet::{
    AckBlocks, Ecn, Packet, PacketKind, PacketPool, PacketSlot, DEFAULT_MSS, HEADER_BYTES,
    MAX_ACK_BLOCKS, MIN_FRAME_BYTES,
};
pub use queue::{DropReason, EcnQueue, EnqueueOutcome, QueueConfig, QueueStats};
pub use sim::{SimCounters, Simulator};
pub use time::SimTime;
pub use topology::{
    build_clos, build_clos_with, build_dumbbell, build_fabric, build_fabric_with, ClosConfig,
    ClosFabric, FabricConfig, IncastFabric,
};
pub use trace::{drop_cause, packet_info, TextTracer};
pub use units::Rate;
pub use wheel::TimingWheel;
