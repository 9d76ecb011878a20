//! # incast-bursts
//!
//! A Rust reproduction of *"Understanding Incast Bursts in Modern
//! Datacenters"* (Canel et al., IMC '24). This façade crate re-exports the
//! workspace's public API; see the individual crates for detail:
//!
//! - [`simnet`]: deterministic discrete-event, packet-level datacenter
//!   network simulator (the NS3 substitute),
//! - [`transport`]: TCP endpoints with pluggable congestion control
//!   (DCTCP, Reno, CUBIC, and the paper's Section-5 mitigation variants),
//! - [`millisampler`]: host-side 1 ms ingress sampling and burst detection
//!   (the Millisampler substitute),
//! - [`workload`]: incast (partition/aggregate) applications and the five
//!   production service models of the paper's Table 1,
//! - [`incast_core`] (re-exported as [`core_api`]): experiment configs and
//!   runners for every figure and table in the paper, plus ablations and
//!   mitigation prototypes,
//! - [`stats`]: deterministic RNG, distributions, CDFs, and time series,
//! - [`telemetry`]: the unified observability layer — event sinks (JSONL
//!   and Perfetto export, flow filters), run manifests, and event-loop
//!   profiles shared by every crate above.
//!
//! ## Quickstart
//!
//! ```
//! use incast_bursts::core_api::modes::{ModesConfig, run_incast};
//!
//! // A tiny 20-flow, 1 ms incast burst through the paper's dumbbell.
//! let mut cfg = ModesConfig::default();
//! cfg.num_flows = 20;
//! cfg.burst_duration_ms = 1.0;
//! cfg.num_bursts = 2;
//! let result = run_incast(&cfg);
//! assert!(result.mean_bct_ms > 0.0);
//! ```

#![forbid(unsafe_code)]

pub use incast_core as core_api;
pub use millisampler;
pub use simnet;
pub use stats;
pub use telemetry;
pub use transport;
pub use workload;
