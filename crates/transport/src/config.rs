//! Transport configuration.

use crate::cca::CcaKind;
use simnet::{SimTime, DEFAULT_MSS};
use stats::ConfigError;

/// Delayed acknowledgment behavior.
///
/// The paper disables delayed ACKs in its simulations "because it
/// exacerbates burstiness and masks the impact of DCTCP's congestion
/// control" (§4); we default to disabled and ablate the choice (the
/// sweep `ablation_delack.json`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayedAckConfig {
    /// ACK at latest after this many full-size segments (2 is standard).
    pub max_segments: u32,
    /// ACK at latest after this delay.
    pub timeout: SimTime,
}

stats::leaves!(DelayedAckConfig: max_segments, timeout);

impl Default for DelayedAckConfig {
    fn default() -> Self {
        DelayedAckConfig {
            max_segments: 2,
            timeout: SimTime::from_ms(1),
        }
    }
}

/// Which loss-recovery stack a host's connections run. Both stacks share
/// the congestion controllers in `cca/`; only the recovery machinery
/// in the `Recovery` enum differs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// TCP NewReno: cumulative ACKs, dupACK-threshold fast retransmit,
    /// RTO with a 200 ms-style floor.
    #[default]
    Tcp,
    /// QUIC-style: monotonic packet numbers, ACK ranges, packet-threshold
    /// loss detection, PTO with exponential backoff, PRR-style window
    /// reduction (RFC 9002 semantics; see `specs/`).
    Quic,
}

stats::variants!(TransportKind { Tcp => "tcp", Quic => "quic" });

/// Static configuration shared by every connection on a host.
#[derive(Debug, Clone, PartialEq)]
pub struct TcpConfig {
    /// Loss-recovery stack. Despite the struct's name, a host configured
    /// with [`TransportKind::Quic`] runs the QUIC-style engine; the rest of
    /// the fields apply to both stacks except where noted.
    pub transport: TransportKind,
    /// Maximum segment size in payload bytes (1446 → 1500 B frames).
    pub mss: u32,
    /// Initial congestion window in segments (RFC 6928's 10).
    pub init_cwnd_segs: u32,
    /// Congestion window floor in segments. The paper's analysis hinges on
    /// this floor being 1 MSS (§4.1.2: the "degenerate point").
    pub min_cwnd_segs: u32,
    /// Congestion control algorithm.
    pub cca: CcaKind,
    /// RTO before any RTT sample (RFC 6298: 1 s).
    pub initial_rto: SimTime,
    /// RTO floor. 200 ms (the Linux default) reproduces the paper's Mode 3
    /// burst completion times.
    pub min_rto: SimTime,
    /// RTO ceiling.
    pub max_rto: SimTime,
    /// Timer granularity for the QUIC-style probe timeout (RFC 9002's
    /// kGranularity; 1 ms recommended). Ignored by the TCP stack.
    pub pto_granularity: SimTime,
    /// Delayed ACKs; `None` acknowledges every data segment immediately.
    /// The QUIC-style stack ignores this: its receiver acknowledges every
    /// packet immediately (max_ack_delay = 0).
    pub delayed_ack: Option<DelayedAckConfig>,
    /// Swift-style pacing mode (the paper's §5.2 discussion): when the
    /// congestion window falls below 1 MSS, the sender transmits one
    /// packet every `RTT x MSS / cwnd` instead of clamping at the 1-MSS
    /// floor. Enables O(10k)-flow incasts at the cost of infrequent
    /// per-flow transmissions. `None` is classic window mode.
    pub pacing: Option<PacingConfig>,
    /// RFC 2861-style congestion window validation: when a new burst of
    /// demand arrives after the connection has been idle longer than this,
    /// the window restarts from the initial window. Linux enables this by
    /// default (`tcp_slow_start_after_idle`, idle > RTO); the paper's §4.3
    /// straggler pathology exists precisely because millisecond inter-burst
    /// gaps are far below any such threshold. `None` disables (the paper's
    /// simulation behavior).
    pub idle_restart_after: Option<SimTime>,
}

stats::leaves!(TcpConfig:
    transport, mss, init_cwnd_segs, min_cwnd_segs, cca, initial_rto, min_rto, max_rto,
    pto_granularity, delayed_ack, pacing, idle_restart_after);

impl Default for TcpConfig {
    /// The paper's Section 4 endpoint configuration: DCTCP with g = 1/16,
    /// CWND floor of 1 MSS, delayed ACKs off, 200 ms minimum RTO.
    fn default() -> Self {
        TcpConfig {
            transport: TransportKind::Tcp,
            mss: DEFAULT_MSS,
            init_cwnd_segs: 10,
            min_cwnd_segs: 1,
            cca: CcaKind::default(),
            initial_rto: SimTime::from_secs(1),
            min_rto: SimTime::from_ms(200),
            max_rto: SimTime::from_secs(60),
            pto_granularity: SimTime::from_ms(1),
            delayed_ack: None,
            pacing: None,
            idle_restart_after: None,
        }
    }
}

/// Swift-style pacing parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PacingConfig {
    /// The window floor as a fraction of MSS (Swift's minimum congestion
    /// window is effectively `1/num_rtts_between_packets`).
    pub min_cwnd_fraction: f64,
}

stats::leaves!(PacingConfig: min_cwnd_fraction);

impl Default for PacingConfig {
    fn default() -> Self {
        // One packet every up to 16 RTTs.
        PacingConfig {
            min_cwnd_fraction: 1.0 / 16.0,
        }
    }
}

impl TcpConfig {
    /// MSS in bytes as u64.
    pub fn mss_bytes(&self) -> u64 {
        self.mss as u64
    }

    /// Congestion window floor in bytes.
    pub fn min_cwnd_bytes(&self) -> u64 {
        self.min_cwnd_segs as u64 * self.mss_bytes()
    }

    /// Initial congestion window in bytes.
    pub fn init_cwnd_bytes(&self) -> u64 {
        self.init_cwnd_segs as u64 * self.mss_bytes()
    }

    /// Validates invariants (positive MSS, floor <= initial window, sane
    /// RTO ordering, DCTCP gain and pacing fraction in (0, 1]). Paths are
    /// the leaves' paths under a `ModesConfig` (`tcp.mss`); a host built
    /// from an invalid config panics.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let reject = |path, reason| Err(ConfigError::new(path, reason));
        if self.mss == 0 {
            return reject("tcp.mss", "must be positive");
        }
        if self.min_cwnd_segs == 0 {
            return reject("tcp.min_cwnd_segs", "must be at least 1");
        }
        if self.init_cwnd_segs < self.min_cwnd_segs {
            return reject("tcp.init_cwnd_segs", "below min_cwnd_segs");
        }
        if self.min_rto > self.max_rto {
            return reject("tcp.min_rto", "exceeds max_rto");
        }
        if let CcaKind::Dctcp { g }
        | CcaKind::DctcpMemory { g, .. }
        | CcaKind::DctcpGuardrail { g, .. } = self.cca
        {
            if !(g > 0.0 && g <= 1.0) {
                return reject("tcp.cca.g", "must be in (0, 1]");
            }
        }
        if self.transport == TransportKind::Quic && self.pacing.is_some() {
            return reject("tcp.pacing", "sub-MSS pacing requires the tcp transport");
        }
        if let Some(p) = self.pacing {
            if !(p.min_cwnd_fraction > 0.0 && p.min_cwnd_fraction <= 1.0) {
                return reject("tcp.pacing.min_cwnd_fraction", "must be in (0, 1]");
            }
        }
        if self.transport == TransportKind::Quic && self.pto_granularity == SimTime::ZERO {
            return reject("tcp.pto_granularity", "must be positive");
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = TcpConfig::default();
        assert_eq!(c.mss, 1446);
        assert_eq!(c.min_cwnd_segs, 1);
        assert_eq!(c.min_rto, SimTime::from_ms(200));
        assert!(c.delayed_ack.is_none());
        assert!(c.validate().is_ok());
    }

    #[test]
    fn byte_helpers() {
        let c = TcpConfig::default();
        assert_eq!(c.mss_bytes(), 1446);
        assert_eq!(c.min_cwnd_bytes(), 1446);
        assert_eq!(c.init_cwnd_bytes(), 14460);
    }

    #[test]
    fn validation_catches_errors() {
        let c = TcpConfig {
            mss: 0,
            ..TcpConfig::default()
        };
        assert_eq!(c.validate().unwrap_err().path, "tcp.mss");

        let c = TcpConfig {
            min_cwnd_segs: 0,
            ..TcpConfig::default()
        };
        assert_eq!(c.validate().unwrap_err().path, "tcp.min_cwnd_segs");

        let c = TcpConfig {
            init_cwnd_segs: 1,
            min_cwnd_segs: 4,
            ..TcpConfig::default()
        };
        assert_eq!(c.validate().unwrap_err().path, "tcp.init_cwnd_segs");

        let c = TcpConfig {
            min_rto: SimTime::from_secs(100),
            ..TcpConfig::default()
        };
        assert_eq!(c.validate().unwrap_err().path, "tcp.min_rto");

        for g in [0.0, -0.5, 1.5, f64::NAN] {
            let c = TcpConfig {
                cca: CcaKind::DctcpGuardrail {
                    g,
                    max_cwnd_segs: 8,
                },
                ..TcpConfig::default()
            };
            assert_eq!(c.validate().unwrap_err().path, "tcp.cca.g", "g = {g}");
        }
        let c = TcpConfig {
            cca: CcaKind::Dctcp { g: 1.0 },
            ..TcpConfig::default()
        };
        assert!(c.validate().is_ok());

        for min_cwnd_fraction in [0.0, 1.5] {
            let c = TcpConfig {
                pacing: Some(PacingConfig { min_cwnd_fraction }),
                ..TcpConfig::default()
            };
            let err = c.validate().unwrap_err();
            assert_eq!(err.path, "tcp.pacing.min_cwnd_fraction");
        }
    }

    #[test]
    fn delayed_ack_defaults() {
        let d = DelayedAckConfig::default();
        assert_eq!(d.max_segments, 2);
        assert_eq!(d.timeout, SimTime::from_ms(1));
    }

    #[test]
    fn transport_kind_labels_round_trip() {
        for k in [TransportKind::Tcp, TransportKind::Quic] {
            let text = format!("\"{}\"", k.label());
            assert_eq!(stats::leaves::read(&text), Ok(k));
        }
        assert!(stats::leaves::read::<TransportKind>("\"sctp\"").is_err());
        assert_eq!(TransportKind::default(), TransportKind::Tcp);
    }

    #[test]
    fn quic_rejects_pacing_mode() {
        let c = TcpConfig {
            transport: TransportKind::Quic,
            pacing: Some(PacingConfig::default()),
            ..TcpConfig::default()
        };
        assert_eq!(c.validate().unwrap_err().path, "tcp.pacing");
        let c = TcpConfig {
            transport: TransportKind::Quic,
            ..TcpConfig::default()
        };
        assert!(c.validate().is_ok());
        let c = TcpConfig {
            transport: TransportKind::Quic,
            pto_granularity: SimTime::ZERO,
            ..TcpConfig::default()
        };
        assert_eq!(c.validate().unwrap_err().path, "tcp.pto_granularity");
    }

    #[test]
    fn config_json_walks_every_field() {
        let json = |c: &TcpConfig| stats::leaves::write(c);
        assert_eq!(
            json(&TcpConfig::default()),
            r#"{"transport":"tcp","mss":1446,"init_cwnd_segs":10,"min_cwnd_segs":1,"cca":{"kind":"dctcp","g":0.0625},"initial_rto":1000000000000,"min_rto":200000000000,"max_rto":60000000000000,"pto_granularity":1000000000,"delayed_ack":null,"pacing":null,"idle_restart_after":null}"#
        );
        let c = TcpConfig {
            transport: TransportKind::Quic,
            cca: CcaKind::Reno,
            delayed_ack: Some(DelayedAckConfig::default()),
            pacing: Some(PacingConfig::default()),
            ..TcpConfig::default()
        };
        let js = json(&c);
        assert!(js.contains(r#""transport":"quic""#), "{js}");
        assert!(js.contains(r#""cca":"reno""#), "{js}");
        assert!(
            js.contains(r#""delayed_ack":{"max_segments":2,"timeout":1000000000}"#),
            "{js}"
        );
        assert!(
            js.contains(r#""pacing":{"min_cwnd_fraction":0.0625}"#),
            "{js}"
        );
    }
}
