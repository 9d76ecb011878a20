//! Proof that quarantine reproducers compile: the module below holds one
//! verbatim emission of `supervisor::reproducer_source`, checked in as a
//! real test, plus a guard asserting the emitter still produces exactly
//! this text. If the emitter drifts (new config fields, changed imports),
//! the guard fails and this file must be regenerated — keeping the
//! "ready-to-paste" promise honest.

#[rustfmt::skip]
mod emitted {
// Quarantined by the supervised sweep runner.
// cause: panic: example cause
// Paste into crates/core/tests/<file>.rs and run:
//   cargo test -p incast-core --test <file>
#[test]
fn quarantined_config_still_reproduces() {
    #[allow(unused_imports)]
    use incast_core::modes::{FaultSpec, MitigationKind::*, MitigationSpec, ModesConfig, TopologySpec::*};
    #[allow(unused_imports)]
    use simnet::{BufferPolicy::*, QueueConfig, SimTime};
    #[allow(unused_imports)]
    use transport::{CcaKind::*, DelayedAckConfig, PacingConfig, TcpConfig, TransportKind::*};
    #[allow(unused_imports)]
    use workload::{BurstSchedule::*, Grouping};
    let cfg = ModesConfig { num_flows: 4, topology: Dumbbell, burst_duration_ms: 0.25, num_bursts: 1, warmup_bursts: 2, tcp: TcpConfig { transport: Tcp, mss: 1446, init_cwnd_segs: 10, min_cwnd_segs: 1, cca: Dctcp { g: 0.0625 }, initial_rto: SimTime(1000000000000), min_rto: SimTime(200000000000), max_rto: SimTime(60000000000000), pto_granularity: SimTime(1000000000), delayed_ack: None, pacing: None, idle_restart_after: None }, tor_queue: QueueConfig { capacity_bytes: 2000000, capacity_pkts: Some(1333), ecn_threshold_pkts: Some(65), ecn_threshold_bytes: None }, receiver_tor_buffer: None, queue_sample: SimTime(20000000), flight_sample: None, grouping: None, schedule: AfterCompletion { gap: SimTime(2000000000) }, seed: 1, horizon: SimTime(30000000000000), faults: FaultSpec { blackhole: None, loss: None, corrupt: None, ecn_off: None, buffer_shrink: None, straggler: None, spine_blackhole: None, spine_loss: None }, mitigation: MitigationSpec { kind: Off, notif_loss: 0.0, flow_threshold: 8, window_us: 100, pause_us: 150, retry_timeout_us: 100, max_retries: 5 } };
    let _ = incast_core::run_incast(&cfg);
}
}

#[test]
fn emitter_output_matches_checked_in_reproducer() {
    let cfg = incast_core::ModesConfig {
        num_flows: 4,
        burst_duration_ms: 0.25,
        num_bursts: 1,
        ..incast_core::ModesConfig::default()
    };
    let emitted = incast_core::supervisor::reproducer_source(
        "quarantined_config_still_reproduces",
        &cfg,
        "panic: example cause",
    );
    let this_file = include_str!("quarantine_reproducer.rs");
    assert!(
        this_file.contains(&emitted),
        "reproducer emitter drifted from the checked-in copy; \
         regenerate the block above from reproducer_source"
    );
}
