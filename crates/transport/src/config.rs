//! Transport configuration.

use crate::cca::CcaKind;
use simnet::{SimTime, DEFAULT_MSS};

/// Delayed acknowledgment behavior.
///
/// The paper disables delayed ACKs in its simulations "because it
/// exacerbates burstiness and masks the impact of DCTCP's congestion
/// control" (§4); we default to disabled and ablate the choice (bench
/// `ablation_delack`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DelayedAckConfig {
    /// ACK at latest after this many full-size segments (2 is standard).
    pub max_segments: u32,
    /// ACK at latest after this delay.
    pub timeout: SimTime,
}

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
/// behind the `Recovery` trait differs.
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

impl TransportKind {
    /// Stable wire label (CLI flags, manifests).
    pub fn name(self) -> &'static str {
        match self {
            TransportKind::Tcp => "tcp",
            TransportKind::Quic => "quic",
        }
    }

    /// Parses a wire label.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "tcp" => Some(TransportKind::Tcp),
            "quic" => Some(TransportKind::Quic),
            _ => None,
        }
    }
}

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
    /// If set, each sender records its in-flight bytes into fixed-interval
    /// buckets (drives the paper's Fig. 7).
    pub flight_sample_interval: Option<SimTime>,
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
            flight_sample_interval: None,
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

    /// Deterministic JSON rendering, for run manifests: every field that
    /// shapes behavior, times in picoseconds, the CCA by name.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut o = telemetry::json::Obj::new(&mut out);
        o.str("transport", self.transport.name())
            .u64("mss", self.mss as u64)
            .u64("init_cwnd_segs", self.init_cwnd_segs as u64)
            .u64("min_cwnd_segs", self.min_cwnd_segs as u64)
            .str("cca", self.cca.name())
            .u64("initial_rto_ps", self.initial_rto.as_ps())
            .u64("min_rto_ps", self.min_rto.as_ps())
            .u64("max_rto_ps", self.max_rto.as_ps())
            .u64("pto_granularity_ps", self.pto_granularity.as_ps())
            .bool("delayed_ack", self.delayed_ack.is_some());
        match self.flight_sample_interval {
            Some(iv) => o.u64("flight_sample_interval_ps", iv.as_ps()),
            None => o.null("flight_sample_interval_ps"),
        };
        match self.pacing {
            Some(p) => o.f64("pacing_min_cwnd_fraction", p.min_cwnd_fraction),
            None => o.null("pacing_min_cwnd_fraction"),
        };
        match self.idle_restart_after {
            Some(t) => o.u64("idle_restart_after_ps", t.as_ps()),
            None => o.null("idle_restart_after_ps"),
        };
        o.finish();
        out
    }

    /// Validates invariants (positive MSS, floor <= initial window, sane
    /// RTO ordering). Call after hand-constructing a config.
    pub fn validate(&self) -> Result<(), String> {
        if self.mss == 0 {
            return Err("mss must be positive".into());
        }
        if self.min_cwnd_segs == 0 {
            return Err("min_cwnd_segs must be at least 1".into());
        }
        if self.init_cwnd_segs < self.min_cwnd_segs {
            return Err("init_cwnd below min_cwnd".into());
        }
        if self.min_rto > self.max_rto {
            return Err("min_rto exceeds max_rto".into());
        }
        if self.transport == TransportKind::Quic && self.pacing.is_some() {
            return Err("sub-MSS pacing mode requires the tcp transport".into());
        }
        if self.transport == TransportKind::Quic && self.pto_granularity == SimTime::ZERO {
            return Err("pto_granularity must be positive".into());
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
        assert!(c.validate().is_err());

        let c = TcpConfig {
            min_cwnd_segs: 0,
            ..TcpConfig::default()
        };
        assert!(c.validate().is_err());

        let c = TcpConfig {
            init_cwnd_segs: 1,
            min_cwnd_segs: 4,
            ..TcpConfig::default()
        };
        assert!(c.validate().is_err());

        let c = TcpConfig {
            min_rto: SimTime::from_secs(100),
            ..TcpConfig::default()
        };
        assert!(c.validate().is_err());
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
            assert_eq!(TransportKind::parse(k.name()), Some(k));
        }
        assert_eq!(TransportKind::parse("sctp"), None);
        assert_eq!(TransportKind::default(), TransportKind::Tcp);
    }

    #[test]
    fn quic_rejects_pacing_mode() {
        let c = TcpConfig {
            transport: TransportKind::Quic,
            pacing: Some(PacingConfig::default()),
            ..TcpConfig::default()
        };
        assert!(c.validate().is_err());
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
        assert!(c.validate().is_err());
    }

    #[test]
    fn to_json_is_deterministic_and_names_cca() {
        let c = TcpConfig::default();
        let js = c.to_json();
        assert_eq!(js, c.clone().to_json());
        assert!(js.contains(r#""cca":"dctcp""#), "{js}");
        assert!(js.contains(r#""transport":"tcp""#), "{js}");
        assert!(js.contains(r#""mss":1446"#));
        assert!(js.contains(r#""pacing_min_cwnd_fraction":null"#));
        let q = TcpConfig {
            transport: TransportKind::Quic,
            ..TcpConfig::default()
        };
        assert!(q.to_json().contains(r#""transport":"quic""#));

        let c = TcpConfig {
            pacing: Some(PacingConfig::default()),
            ..TcpConfig::default()
        };
        assert!(c.to_json().contains(r#""pacing_min_cwnd_fraction":0.0625"#));
    }
}
