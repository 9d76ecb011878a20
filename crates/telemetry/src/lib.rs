//! Unified telemetry for the incast-bursts workspace.
//!
//! The paper's measurement half is an observability tool (Millisampler,
//! Section 3); this crate is the simulator's equivalent. It provides:
//!
//! - [`Event`] / [`EventSink`] / [`SinkRef`] — structured, timestamped
//!   events (per-packet link events, queue depth, buffer watermarks,
//!   per-flow cwnd transitions, burst lifecycle) flowing from simnet,
//!   transport, and workload into pluggable sinks;
//! - [`JsonlSink`] — a deterministic JSONL renderer of the event stream
//!   (one JSON object per line, byte-identical across same-seed runs),
//!   held in line-aligned chunks of [`CHUNK_BYTES`] and streamed out by
//!   `write_to`;
//! - [`PerfettoSink`] — a causal Chrome trace-event / Perfetto exporter
//!   (packet-hop spans, drop→retransmit and CE→ECE arrows, cwnd/queue
//!   counter tracks) whose output opens directly in a trace viewer;
//! - [`RunManifest`] — a replayable description of a run (seed, topology,
//!   config, git describe, counters);
//! - [`LoopProfile`] — wall-clock profiling of the simulator hot loop
//!   (events/sec, per-event-kind tallies).
//!
//! The crate sits at the bottom of the workspace dependency graph (it
//! depends only on `stats`) and identifies links/nodes/flows by raw
//! integers, so every other crate can emit into it without cycles. It has
//! no external dependencies: JSON encoding is hand-rolled in [`json`],
//! which is what makes the output bit-for-bit reproducible.

#![forbid(unsafe_code)]

mod chunked;
pub mod event;
pub mod json;
pub mod manifest;
pub mod perfetto;
pub mod profile;
pub mod sink;

pub use chunked::CHUNK_BYTES;
pub use event::{
    DropCause, Event, EventClass, EventKind, FlowState, PktDetail, PktInfo, WindowTrigger,
};
pub use manifest::{git_describe, RunManifest};
pub use perfetto::PerfettoSink;
pub use profile::{EventTallies, LoopProfile};
pub use sink::{EventSink, JsonlSink, NullSink, SinkRef};
