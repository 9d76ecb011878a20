//! Congestion control algorithms.
//!
//! The sender owns reliability (retransmission, recovery state); a [`Cca`]
//! owns the congestion window. The trait surface mirrors the events a Linux
//! CCA module sees: ACK arrivals (with ECN-Echo), entry into loss recovery,
//! retransmission timeouts — plus one reproduction-specific hook,
//! [`Cca::on_burst_start`], used by the paper's Section-5 "remember across
//! bursts" mitigation.

mod cubic;
mod dctcp;
mod guardrail;
mod memory;
mod reno;
mod swift;

pub use cubic::Cubic;
pub use dctcp::Dctcp;
pub use guardrail::GuardrailDctcp;
pub use memory::MemoryDctcp;
pub use reno::Reno;
pub use swift::SwiftLike;

use simnet::SimTime;

/// Context the sender passes to every CCA callback.
#[derive(Debug, Clone, Copy)]
pub struct CcaCtx {
    /// Current simulated time.
    pub now: SimTime,
    /// Maximum segment size in bytes.
    pub mss: u64,
    /// Congestion window floor in bytes.
    pub min_cwnd: u64,
    /// Highest sequence sent so far (absolute bytes).
    pub snd_nxt: u64,
    /// Oldest unacknowledged sequence (absolute bytes).
    pub snd_una: u64,
    /// True while the sender is in fast-recovery.
    pub in_recovery: bool,
}

/// A congestion control algorithm: owns the congestion window.
pub trait Cca: std::fmt::Debug {
    /// Current congestion window in bytes. The sender clamps transmissions
    /// to this (plus transient recovery inflation).
    fn cwnd(&self) -> u64;

    /// Slow-start threshold in bytes (diagnostic).
    fn ssthresh(&self) -> u64;

    /// A cumulative ACK advanced `newly_acked` bytes (0 for a duplicate
    /// ACK) with the given ECN-Echo flag and optional RTT sample.
    fn on_ack(&mut self, ctx: &CcaCtx, newly_acked: u64, ece: bool, rtt: Option<SimTime>);

    /// The sender detected loss via duplicate ACKs and is entering fast
    /// recovery (called once per recovery episode).
    fn on_enter_recovery(&mut self, ctx: &CcaCtx);

    /// The retransmission timer expired.
    fn on_timeout(&mut self, ctx: &CcaCtx);

    /// The application handed the sender fresh demand after an idle period
    /// (a new incast burst is starting). Most CCAs ignore this; mitigation
    /// variants use it.
    fn on_burst_start(&mut self, _ctx: &CcaCtx) {}

    /// Algorithm name for reports.
    fn name(&self) -> &'static str;
}

/// Serializable CCA selection, turned into a boxed implementation per
/// connection via [`CcaKind::build`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CcaKind {
    /// DCTCP (Alizadeh et al., SIGCOMM 2010) with estimation gain `g`.
    Dctcp {
        /// Gain of the marked-fraction EWMA. The paper's deployment uses
        /// 1/16 (from Equation 15 of the DCTCP paper).
        g: f64,
    },
    /// TCP Reno / NewReno-style AIMD with ECN treated like loss.
    Reno,
    /// CUBIC (RFC 9438) with ECN treated like loss.
    Cubic,
    /// Section-5 mitigation: DCTCP that remembers its typical in-burst
    /// window and resumes there at the next burst instead of keeping a
    /// straggler-inflated window.
    DctcpMemory {
        /// DCTCP estimation gain.
        g: f64,
        /// EWMA gain for the remembered window.
        memory_gain: f64,
    },
    /// Section-5 mitigation: DCTCP with a hard congestion-window ceiling
    /// ("guardrail") that bounds ramp-up during and between bursts.
    DctcpGuardrail {
        /// DCTCP estimation gain.
        g: f64,
        /// Ceiling in segments.
        max_cwnd_segs: u32,
    },
    /// Swift-like delay-based control (§5.2): fractional windows with a
    /// delay target; pair with [`crate::config::TcpConfig::pacing`].
    SwiftLike {
        /// Delay target in microseconds.
        target_us: u64,
    },
}

impl Default for CcaKind {
    fn default() -> Self {
        CcaKind::Dctcp { g: 1.0 / 16.0 }
    }
}

impl CcaKind {
    /// Instantiates the algorithm with the given initial window (bytes).
    pub fn build(&self, init_cwnd: u64, mss: u64) -> Box<dyn Cca> {
        match *self {
            CcaKind::Dctcp { g } => Box::new(Dctcp::new(init_cwnd, g)),
            CcaKind::Reno => Box::new(Reno::new(init_cwnd)),
            CcaKind::Cubic => Box::new(Cubic::new(init_cwnd)),
            CcaKind::DctcpMemory { g, memory_gain } => {
                Box::new(MemoryDctcp::new(init_cwnd, g, memory_gain))
            }
            CcaKind::DctcpGuardrail { g, max_cwnd_segs } => Box::new(GuardrailDctcp::new(
                init_cwnd,
                g,
                max_cwnd_segs as u64 * mss,
            )),
            CcaKind::SwiftLike { target_us } => Box::new(SwiftLike::new(
                init_cwnd,
                simnet::SimTime::from_us(target_us),
            )),
        }
    }
}

stats::variants!(CcaKind {
    Dctcp { g } => "dctcp",
    Reno => "reno",
    Cubic => "cubic",
    DctcpMemory { g, memory_gain } => "dctcp-memory",
    DctcpGuardrail { g, max_cwnd_segs } => "dctcp-guardrail",
    SwiftLike { target_us } => "swift-like",
});

#[cfg(test)]
pub(crate) fn test_ctx(now_us: u64) -> CcaCtx {
    CcaCtx {
        now: SimTime::from_us(now_us),
        mss: 1446,
        min_cwnd: 1446,
        snd_nxt: 0,
        snd_una: 0,
        in_recovery: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_dctcp() {
        match CcaKind::default() {
            CcaKind::Dctcp { g } => assert!((g - 0.0625).abs() < 1e-12),
            _ => panic!(),
        }
    }

    #[test]
    fn build_produces_named_algorithms() {
        let kinds = [
            (CcaKind::default(), "dctcp"),
            (CcaKind::Reno, "reno"),
            (CcaKind::Cubic, "cubic"),
            (
                CcaKind::DctcpMemory {
                    g: 0.0625,
                    memory_gain: 0.25,
                },
                "dctcp-memory",
            ),
            (
                CcaKind::DctcpGuardrail {
                    g: 0.0625,
                    max_cwnd_segs: 16, // above the 10-segment initial window
                },
                "dctcp-guardrail",
            ),
            (CcaKind::SwiftLike { target_us: 60 }, "swift-like"),
        ];
        for (kind, name) in kinds {
            let cca = kind.build(14460, 1446);
            assert_eq!(cca.name(), name);
            assert_eq!(kind.label(), name);
            assert_eq!(cca.cwnd(), 14460);
        }
    }
}
