//! Cross-crate integration: full incast runs through simnet + transport +
//! workload, checking delivery guarantees, mode transitions, and
//! reproducibility.

use incast_bursts::core_api::modes::{run_incast, ModesConfig, OperatingMode};
use incast_bursts::simnet::SimTime;

fn cfg(flows: usize, burst_ms: f64, bursts: u32) -> ModesConfig {
    ModesConfig {
        num_flows: flows,
        burst_duration_ms: burst_ms,
        num_bursts: bursts,
        seed: 1234,
        ..ModesConfig::default()
    }
}

#[test]
fn every_burst_completes_and_is_accounted() {
    let r = run_incast(&cfg(25, 1.0, 4));
    assert_eq!(r.bcts_ms.len(), 4, "all bursts completed");
    assert_eq!(r.burst_windows.len(), 4);
    // Windows are ordered and non-overlapping (completion-gated schedule).
    for w in r.burst_windows.windows(2) {
        assert!(w[1].0 > w[0].1);
    }
    // The bottleneck carried at least the demanded volume: 4 bursts x 1 ms
    // x 10 Gbps = 5 MB ~ 3472 MSS. Retransmissions can only add.
    assert!(r.enqueued_pkts >= 3400, "only {} packets", r.enqueued_pkts);
}

#[test]
fn mode_transition_with_flow_count() {
    // The paper's qualitative arc: healthy -> degenerate -> timeouts.
    let healthy = run_incast(&cfg(40, 4.0, 4));
    assert_eq!(healthy.mode(), OperatingMode::Mode1Healthy);
    let degenerate = run_incast(&cfg(300, 4.0, 4));
    assert_eq!(degenerate.mode(), OperatingMode::Mode2Degenerate);
    let collapse = run_incast(&cfg(1600, 2.0, 3));
    assert_eq!(collapse.mode(), OperatingMode::Mode3Timeouts);

    // Queue pressure grows monotonically across the regimes.
    assert!(healthy.mean_steady_queue_pkts() < degenerate.mean_steady_queue_pkts());
    assert!(healthy.steady_drops == 0);
    assert!(collapse.steady_drops > 0);
}

#[test]
fn degenerate_queue_tracks_flows_minus_bdp() {
    // §4.1.2: "the queue depth is simply equal to the number of flows
    // minus the BDP" at the degenerate point.
    for flows in [200usize, 400] {
        let r = run_incast(&cfg(flows, 10.0, 4));
        let expect = flows as f64 - 25.0;
        let got = r.mean_steady_queue_pkts();
        assert!(
            (got - expect).abs() < expect * 0.35,
            "{flows} flows: queue {got:.0} vs expected ~{expect:.0}"
        );
    }
}

#[test]
fn bct_scales_with_burst_duration_when_healthy() {
    let short = run_incast(&cfg(40, 2.0, 4));
    let long = run_incast(&cfg(40, 8.0, 4));
    assert!(
        long.mean_bct_ms / short.mean_bct_ms > 3.0,
        "BCT didn't scale: {} vs {}",
        short.mean_bct_ms,
        long.mean_bct_ms
    );
    // Healthy BCTs sit near the nominal duration.
    assert!((short.mean_bct_ms - 2.0).abs() < 1.5);
    assert!((long.mean_bct_ms - 8.0).abs() < 2.5);
}

#[test]
fn identical_seeds_identical_runs() {
    let a = run_incast(&cfg(120, 3.0, 4));
    let b = run_incast(&cfg(120, 3.0, 4));
    assert_eq!(a.bcts_ms, b.bcts_ms);
    assert_eq!(a.drops, b.drops);
    assert_eq!(a.marked_pkts, b.marked_pkts);
    assert_eq!(a.retx_bytes, b.retx_bytes);
    assert!(a.queue_pkts.iter().eq(b.queue_pkts.iter()));
}

#[test]
fn different_seeds_differ_in_detail_not_regime() {
    let mut base = cfg(150, 3.0, 4);
    let a = run_incast(&base);
    base.seed = 4321;
    let b = run_incast(&base);
    // Same operating regime...
    assert_eq!(a.mode(), b.mode());
    // ...but jitter means the packet-level details differ.
    assert!(a.queue_pkts.iter().ne(b.queue_pkts.iter()));
}

#[test]
fn grouping_bounds_simultaneous_flows() {
    use incast_bursts::workload::Grouping;
    let mut with_groups = cfg(120, 2.0, 3);
    with_groups.grouping = Some(Grouping {
        group_size: 30,
        group_gap: SimTime::from_ms(1),
    });
    let grouped = run_incast(&with_groups);
    let plain = run_incast(&cfg(120, 2.0, 3));
    // Grouping caps the burst-start rush: the peak steady queue shrinks.
    assert!(
        grouped.peak_steady_queue_pkts() < plain.peak_steady_queue_pkts(),
        "grouped {} vs plain {}",
        grouped.peak_steady_queue_pkts(),
        plain.peak_steady_queue_pkts()
    );
    // But the burst takes at least the extra group delay.
    assert!(grouped.mean_bct_ms > plain.mean_bct_ms);
}
