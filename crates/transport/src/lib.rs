//! # transport — TCP and QUIC-style endpoints for the incast simulator
//!
//! A window-based transport implementation faithful to the mechanisms the
//! paper's analysis rests on. Loss recovery sits in the [`Recovery`]
//! enum, one engine per [`config::TransportKind`]:
//!
//! - **Reliability (TCP, default)**: cumulative ACKs, out-of-order
//!   reassembly, fast retransmit on triple duplicate ACKs with NewReno
//!   partial-ACK recovery, and RFC 6298 retransmission timeouts with
//!   exponential backoff (200 ms floor — the origin of the paper's Mode 3).
//! - **Reliability (QUIC-style)**: RFC 9002 recovery — monotonic packet
//!   numbers, ACK ranges, packet-threshold loss detection, probe timeouts
//!   with no minimum floor, PRR during recovery — answering whether the
//!   paper's findings are TCP artifacts (see EXPERIMENTS.md). Conformance
//!   is pinned by RFC quotes in `specs/` wired to `check`-feature
//!   invariants ([`spec`]).
//! - **Congestion control** ([`cca`]): DCTCP (the paper's deployed CCA, with
//!   the `g`-gain alpha estimator and once-per-window CWR reductions), Reno
//!   and CUBIC baselines, and two Section-5 mitigation prototypes
//!   (cross-burst window memory, window guardrail).
//! - **ECN**: per-packet ECN-Echo when delayed ACKs are off (the paper's
//!   simulation setting), or the DCTCP paper's two-state delayed-ACK machine.
//! - **Persistent connections**: applications add demand per burst to
//!   long-lived flows, so congestion state carries across bursts — the
//!   precondition for the paper's §4.3 straggler divergence.
//!
//! Hosts run a [`TcpHost`] endpoint which demultiplexes flows and exposes a
//! callback API ([`TcpApp`]/[`TcpApi`]) to application logic.

#![forbid(unsafe_code)]

pub mod cca;
pub mod config;
pub mod host;
pub mod keys;
pub mod ranges;
pub mod receiver;
pub mod recovery;
pub mod rtt;
pub mod sender;
pub mod seq;
pub mod spec;
pub mod stats;

pub use cca::{Cca, CcaCtx, CcaKind};
pub use config::PacingConfig;
pub use config::{DelayedAckConfig, TcpConfig, TransportKind};
pub use host::{HostCore, TcpApi, TcpApp, TcpHost};
pub use ranges::AckRanges;
pub use receiver::Receiver;
pub use recovery::Recovery;
pub use rtt::RttEstimator;
pub use sender::{AckOutcome, FlowProbe, Sender};
pub use stats::{ReceiverStats, SenderStats};
