//! # millisampler — host-side 1 ms traffic measurement
//!
//! The reproduction's stand-in for Meta's Millisampler (the eBPF tc filter
//! behind the paper's Section 3): a passive ingress tap that buckets
//! receiver traffic at 1 ms granularity, detects bursts with the paper's
//! 50 %-of-line-rate rule, classifies incasts (>25 flows), infers
//! retransmissions from sequence overlap, and pools per-burst statistics
//! across a fleet of host-traces into the CDFs of Figures 2 and 4.
//!
//! Like the real tool, it observes packet *headers only* — it shares no
//! state with the TCP stack it measures.

#![forbid(unsafe_code)]

pub mod burst;
pub mod report;
pub mod sampler;
pub mod watermark;

pub use burst::{
    bursts_per_second, detect_bursts, detect_bursts_with_threshold, Burst,
    BURST_THRESHOLD_FRACTION, INCAST_FLOW_THRESHOLD,
};
pub use report::{BurstRow, CtrlTallies, FleetAccumulator, RunCoverage, TraceSummary};
pub use sampler::{Millisampler, MsBucket, MsTrace};
pub use watermark::{peak_fraction, peak_in_window, watermark_series};

/// Sequence unwrap used by the retransmission heuristic (same arithmetic as
/// `transport::seq::unwrap`; re-exported here so the sampler stays
/// independent of the TCP implementation it observes).
pub use transport::seq::unwrap as unwrap_seq;
