//! # workload — incast applications and service models
//!
//! The application layer of the reproduction:
//!
//! - [`Worker`]: the partition/aggregate worker — answers each coordinator
//!   request with the demanded response bytes, after the paper's 0–100 µs
//!   start jitter.
//! - [`CyclicCoordinator`]: the Section-4 workload — N-flow incast bursts,
//!   cyclic (next burst a think-time after the previous completes), with
//!   per-burst completion-time records and an optional §5.2 group-scheduling
//!   mitigation.
//! - [`ServiceId`]/[`ServiceModel`]: the five production services of
//!   Table 1, as synthetic models calibrated to the paper's reported burst
//!   statistics.
//! - [`sample_schedule`]/[`ScheduleCoordinator`]: Poisson burst schedules
//!   replayed against a worker fleet for the Section-3 fleet study.

#![forbid(unsafe_code)]

pub mod incast;
pub mod schedule;
pub mod service;
pub mod worker;

pub use incast::{BurstOutcome, BurstSchedule, CyclicCoordinator, Grouping, IncastConfig};
pub use schedule::{sample_schedule, ScheduleCoordinator, ScheduledBurst, TraceSchedule};
pub use service::{BurstClass, ModeClasses, ServiceId, ServiceModel, SnapshotModel};
pub use worker::Worker;
