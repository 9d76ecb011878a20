//! Graceful-degradation proofs for the in-fabric incast control plane.
//!
//! The robustness contract has two halves, both pinned here:
//!
//! 1. **Dead plane = no plane.** With notifications 100 % blackholed the
//!    control plane must leave *zero* observable residue: telemetry
//!    streams, manifests (modulo the control rollup naming the dead
//!    plane), and burst completions are byte-identical to a
//!    mitigation-off run — on both schedulers.
//! 2. **Partial loss degrades, never deadlocks.** Sweeping notification
//!    loss 0 → 100 % on a seeded incast, every burst still completes
//!    (the guard timer bounds every pause, so a lost notification can
//!    delay but never wedge a flow), burst completion times stay inside
//!    a generous degradation envelope around the mitigation-off
//!    baseline, and wheel and heap agree byte-for-byte at every point.

mod common;

use common::observe;
use incast_bursts::core_api::modes::{MitigationKind, ModesConfig};
use incast_bursts::simnet::{EventQueue, TimingWheel};
use incast_bursts::transport::TransportKind;

fn incast(seed: u64) -> ModesConfig {
    ModesConfig {
        num_flows: 24,
        burst_duration_ms: 0.5,
        num_bursts: 3,
        warmup_bursts: 0,
        seed,
        ..ModesConfig::default()
    }
}

fn pulser(seed: u64, notif_loss: f64) -> ModesConfig {
    let mut cfg = incast(seed);
    cfg.mitigation.kind = MitigationKind::Pulser;
    cfg.mitigation.notif_loss = notif_loss;
    cfg
}

#[test]
fn fully_blackholed_control_plane_is_byte_identical_to_mitigation_off() {
    for seed in [3u64, 7, 42] {
        let off = incast(seed);
        let dead = pulser(seed, 1.0);

        let (s_off, m_off, c_off, b_off) = observe::<TimingWheel>(&off);
        let (s_dead, m_dead, c_dead, b_dead) = observe::<TimingWheel>(&dead);
        assert!(!s_off.is_empty(), "no telemetry captured (seed {seed})");
        assert_eq!(
            s_off, s_dead,
            "dead plane left telemetry residue (seed {seed})"
        );
        assert_eq!(
            m_off, m_dead,
            "dead plane left manifest residue (seed {seed})"
        );
        assert_eq!(
            b_off, b_dead,
            "dead plane perturbed completions (seed {seed})"
        );
        // The one permitted difference: the dead run *names* its plane,
        // and its tallies show it never got a frame onto the wire.
        assert!(c_off.is_none());
        let c = c_dead.expect("mitigated run must carry the control rollup");
        assert!(c.contains(r#""notif_sent":0"#), "{c}");
        assert!(c.contains(r#""notif_acked":0"#), "{c}");

        // Same proof on the reference heap.
        let (s_off_h, m_off_h, _, b_off_h) = observe::<EventQueue>(&off);
        let (s_dead_h, m_dead_h, _, b_dead_h) = observe::<EventQueue>(&dead);
        assert_eq!(s_off_h, s_dead_h, "heap: dead plane residue (seed {seed})");
        assert_eq!(m_off_h, m_dead_h);
        assert_eq!(b_off_h, b_dead_h);
        // And the two schedulers agree with each other.
        assert_eq!(s_off, s_off_h, "wheel/heap diverged (seed {seed})");
    }
}

/// The distributed (cwnd-cut) plane owes the same dead-plane contract.
#[test]
fn fully_blackholed_distributed_plane_is_byte_identical_to_mitigation_off() {
    let off = incast(11);
    let mut dead = incast(11);
    dead.mitigation.kind = MitigationKind::Distributed;
    dead.mitigation.notif_loss = 1.0;
    let (s_off, m_off, _, b_off) = observe::<TimingWheel>(&off);
    let (s_dead, m_dead, _, b_dead) = observe::<TimingWheel>(&dead);
    assert_eq!(s_off, s_dead);
    assert_eq!(m_off, m_dead);
    assert_eq!(b_off, b_dead);
}

#[test]
fn notification_loss_sweep_degrades_within_envelope_and_never_deadlocks() {
    let seed = 9;
    let baseline = incast(seed);
    let (_, _, _, bcts_off) = observe::<TimingWheel>(&baseline);
    assert_eq!(bcts_off.len(), 3, "baseline lost bursts");
    let mean_off = bcts_off.iter().sum::<f64>() / bcts_off.len() as f64;
    // The degradation envelope: a lossy control plane may cost retries and
    // guard-bounded pauses, but never more than 5x the baseline BCT plus
    // the full guard bound per burst (MAX_PAUSE = 5 ms).
    let envelope_ms = mean_off * 5.0 + 250.0;

    let mut lost_total = 0u64;
    for loss in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let cfg = pulser(seed, loss);
        let (s_w, m_w, c_w, b_w) = observe::<TimingWheel>(&cfg);
        let (s_h, m_h, _, b_h) = observe::<EventQueue>(&cfg);
        assert_eq!(s_w, s_h, "wheel/heap diverged at loss {loss}");
        assert_eq!(m_w, m_h, "manifests diverged at loss {loss}");
        assert_eq!(b_w, b_h, "completions diverged at loss {loss}");

        // No deadlock: every burst completed inside the horizon even with
        // the control path arbitrarily unreliable.
        assert_eq!(b_w.len(), 3, "bursts lost at loss {loss} (deadlock?)");
        let mean = b_w.iter().sum::<f64>() / b_w.len() as f64;
        assert!(
            mean <= envelope_ms,
            "BCT {mean:.3} ms breached the degradation envelope \
             {envelope_ms:.3} ms at loss {loss}"
        );

        let c = c_w.expect("control rollup");
        let grab = |key: &str| -> u64 {
            let tail = &c[c.find(key).unwrap_or_else(|| panic!("{key} in {c}")) + key.len()..];
            tail.chars()
                .take_while(|ch| ch.is_ascii_digit())
                .collect::<String>()
                .parse()
                .unwrap()
        };
        let (sent, acked, lost) = (
            grab("\"notif_sent\":"),
            grab("\"notif_acked\":"),
            grab("\"notif_lost\":"),
        );
        if loss == 0.0 {
            assert!(sent > 0, "lossless plane never fired: {c}");
            assert_eq!(lost, 0, "{c}");
            assert_eq!(acked, sent, "lossless plane dropped acks: {c}");
        } else if loss == 1.0 {
            // A fully dead plane is structurally inert: it takes no
            // RNG draws and counts nothing — not even suppressions —
            // which is what makes it byte-identical to no plane.
            assert_eq!(sent, 0, "dead plane reached the wire: {c}");
            assert_eq!(lost, 0, "dead plane left counter residue: {c}");
        }
        lost_total += lost;
    }
    assert!(lost_total > 0, "sweep never exercised notification loss");
}

/// QUIC flows honor the same notifications: a Pulser plane over the QUIC
/// transport still fires, still degrades gracefully under 50 % loss, and
/// stays scheduler-equivalent.
#[test]
fn quic_transport_honors_notifications_and_survives_loss() {
    for loss in [0.0, 0.5] {
        let mut cfg = pulser(13, loss);
        cfg.tcp.transport = TransportKind::Quic;
        let (s_w, m_w, c_w, b_w) = observe::<TimingWheel>(&cfg);
        let (s_h, m_h, _, b_h) = observe::<EventQueue>(&cfg);
        assert_eq!(s_w, s_h, "wheel/heap diverged (quic, loss {loss})");
        assert_eq!(m_w, m_h);
        assert_eq!(b_w, b_h);
        assert_eq!(b_w.len(), 3, "bursts lost (quic, loss {loss})");
        let c = c_w.expect("control rollup");
        if loss == 0.0 {
            assert!(!c.contains(r#""notif_sent":0"#), "plane never fired: {c}");
        }
    }
}
