//! # incast-core — experiment suite for the IMC '24 incast-bursts paper
//!
//! One module per experiment family, each with a config struct and a `run`
//! function, so the bench targets are thin wrappers:
//!
//! - [`modes`]: the Section-4 cyclic-incast engine (Figures 5–7, ablations,
//!   the Section-5 mitigations),
//! - [`production`]: the Section-3 fleet study (Figures 1, 2, 4; Table 1),
//! - [`stability`]: flow-count stability over time and hosts (Figure 3),
//! - [`straggler`]: per-flow in-flight skew (Figure 7),
//! - [`runner`]: parallel execution of independent simulations (`par_map`
//!   over scoped threads),
//! - [`cache`]: the content-addressed run cache shared by sweeps,
//! - [`sweep`]: the sweep engine tying cache + `par_map` + streaming
//!   reducers, and [`sweep::Sweep`], a sweep as data (config edits by
//!   path over labelled axes, plots and columns; Figures 5–7, the
//!   ablation and mitigation tables),
//! - [`supervisor`]: failure-tolerant sweep execution (panic isolation,
//!   run budgets, quarantine reproducers, coverage accounting),
//! - [`report`]: ASCII tables/plots for bench output.

#![forbid(unsafe_code)]

pub mod cache;
pub mod modes;
pub mod production;
pub mod report;
pub mod runner;
pub mod stability;
pub mod straggler;
pub mod supervisor;
pub mod sweep;

pub use cache::RunCache;
pub use modes::{
    run_incast, FaultSpec, IncastRunResult, ModesConfig, OperatingMode, RunBudget, TopologySpec,
    TruncationCause,
};
pub use runner::{default_threads, par_map, PoolStats};
pub use supervisor::{supervised_incast_sweep, RunOutcome, SupervisedSweep, SupervisorConfig};
pub use sweep::{run_incast_cached, run_incast_sweep, IncastSweepAggregate};

/// True when paper-scale parameters were requested via `INCAST_FULL=1`.
pub fn full_scale() -> bool {
    std::env::var("INCAST_FULL")
        .map(|v| v == "1")
        .unwrap_or(false)
}
