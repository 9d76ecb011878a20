//! Fabric differential testing: the multi-rack Clos path owes the same
//! determinism contract as everything else in the simulator.
//!
//! Three obligations, each pinned byte-for-byte:
//!
//! 1. **Scheduler equivalence on Clos.** Seeded multi-rack configurations
//!    (including a spine-blackholed one) produce identical telemetry
//!    streams, manifests, and completions on the timing wheel and the
//!    reference heap.
//! 2. **Degenerate collapse.** The 1-rack/1-spine Clos *is* the dumbbell:
//!    identical raw packet traces at the simnet layer, and identical
//!    results through the full incast engine.
//! 3. **Path stability.** ECMP placement is a pure function of the seed:
//!    re-running a Clos config reproduces the identical event stream.

mod common;

use common::{attach_tracer, run_with};
use incast_bursts::core_api::cache::CacheValue;
use incast_bursts::core_api::modes::{run_incast_with, MitigationKind, ModesConfig, TopologySpec};
use incast_bursts::simnet::{
    build_clos_with, build_fabric_with, ClosConfig, EventQueue, FabricConfig, Scheduler, SimTime,
    TextTracer, TimingWheel,
};
use incast_bursts::stats::Rng;
use incast_bursts::transport::{TcpConfig, TcpHost};
use incast_bursts::workload::{CyclicCoordinator, IncastConfig, Worker};

fn clos_cfg(racks: usize, spines: usize, num_flows: usize, seed: u64) -> ModesConfig {
    ModesConfig {
        num_flows,
        topology: TopologySpec::Clos { racks, spines },
        burst_duration_ms: 0.5,
        num_bursts: 2,
        warmup_bursts: 0,
        seed,
        ..ModesConfig::default()
    }
}

#[test]
fn wheel_and_heap_agree_byte_for_byte_on_seeded_clos_configs() {
    let mut cfgs = vec![
        clos_cfg(2, 2, 8, 1),
        clos_cfg(3, 2, 12, 7),
        clos_cfg(4, 4, 16, 42),
        clos_cfg(2, 1, 6, 5),
        clos_cfg(3, 3, 9, 11),
        clos_cfg(4, 2, 12, 1000),
    ];
    // ...plus one with a spine-link outage mid-burst: fault events and the
    // resulting ECMP re-hash are part of the compared bytes.
    let mut faulted = clos_cfg(3, 2, 12, 7);
    faulted.faults.spine_blackhole = Some((SimTime::from_us(200), SimTime::from_ms(2), 1));
    cfgs.push(faulted);
    // ...and one 8-rack fabric running the distributed control plane: every
    // tier's ports detect and notify, and those frames are compared bytes.
    let mut mitigated = clos_cfg(8, 4, 32, 17);
    mitigated.mitigation.kind = MitigationKind::Distributed;
    mitigated.mitigation.notif_loss = 0.1;
    cfgs.push(mitigated);

    assert!(cfgs.len() >= 6, "acceptance floor: six seeded Clos configs");
    for cfg in &cfgs {
        let label = format!("{:?} seed {}", cfg.topology, cfg.seed);
        let (stream_w, manifest_w, bcts_w) = run_with::<TimingWheel>(cfg);
        let (stream_h, manifest_h, bcts_h) = run_with::<EventQueue>(cfg);
        assert!(!stream_w.is_empty(), "no telemetry captured ({label})");
        assert_eq!(stream_w, stream_h, "JSONL diverged ({label})");
        assert_eq!(manifest_w, manifest_h, "manifests diverged ({label})");
        assert_eq!(bcts_w, bcts_h, "completions diverged ({label})");
        // Multi-rack manifests carry the per-tier queue rollup.
        assert!(manifest_w.contains(r#""tiers":{"uplink""#), "{manifest_w}");
        if cfg.faults.spine_blackhole.is_some() {
            assert!(
                stream_w.contains(r#""ev":"fault""#),
                "faulted config streamed no fault events"
            );
        }
        if !cfg.mitigation.is_off() {
            assert!(
                manifest_w.contains(r#""control":{"mitigation":"distributed""#),
                "mitigated Clos manifest missing the control rollup: {manifest_w}"
            );
        }
    }
}

/// Raw simnet observables (packet trace, counters, final time) for the same
/// seeded incast traffic on an arbitrary prebuilt fabric.
fn drive_fabric<S: Scheduler>(
    sim: &mut incast_bursts::simnet::Simulator<S>,
    senders: &[incast_bursts::simnet::NodeId],
    receiver: incast_bursts::simnet::NodeId,
    seed: u64,
) -> (String, String, u64) {
    for (i, &s) in senders.iter().enumerate() {
        sim.set_endpoint(
            s,
            Box::new(TcpHost::new(
                TcpConfig::default(),
                Box::new(Worker::new(Rng::new(seed ^ i as u64))),
            )),
        );
    }
    sim.set_endpoint(
        receiver,
        Box::new(TcpHost::new(
            TcpConfig::default(),
            Box::new(CyclicCoordinator::new(IncastConfig::paper(
                senders.to_vec(),
                0.25,
                2,
                seed,
            ))),
        )),
    );
    let tracer = attach_tracer(sim, TextTracer::new(2_000_000));
    sim.run_until(SimTime::from_ms(10));
    let trace = tracer.borrow().render();
    (trace, sim.counters().to_json(), sim.now().as_ps())
}

#[test]
fn one_rack_clos_traces_byte_identically_to_the_dumbbell_builder() {
    for seed in [0u64, 3, 17] {
        let fabric_cfg = FabricConfig {
            num_senders: 8,
            seed,
            ..FabricConfig::default()
        };
        let clos_cfg = ClosConfig {
            racks: 1,
            hosts_per_rack: 8,
            spines: 1,
            seed,
            ..ClosConfig::default()
        };
        let mut a = build_fabric_with::<TimingWheel>(&fabric_cfg);
        let mut b = build_clos_with::<TimingWheel>(&clos_cfg).unwrap();
        let senders = a.senders.clone();
        let obs_a = drive_fabric(&mut a.sim, &senders, a.receivers[0], seed);
        let clos_senders = b.rack_hosts[0].clone();
        let obs_b = drive_fabric(&mut b.sim, &clos_senders, b.receivers[0], seed);
        assert!(!obs_a.0.is_empty(), "empty trace for seed {seed}");
        assert_eq!(obs_a, obs_b, "degenerate Clos diverged (seed {seed})");
    }
}

#[test]
fn incast_engine_results_collapse_for_the_degenerate_clos() {
    let base = ModesConfig {
        num_flows: 10,
        burst_duration_ms: 0.5,
        num_bursts: 2,
        warmup_bursts: 1,
        seed: 21,
        ..ModesConfig::default()
    };
    let mut clos = base.clone();
    clos.topology = TopologySpec::Clos {
        racks: 1,
        spines: 1,
    };

    let (mut r_dumbbell, m_dumbbell) = run_incast_with::<TimingWheel>(&base, None);
    let (mut r_clos, m_clos) = run_incast_with::<TimingWheel>(&clos, None);

    // Identical results once the wall-clock profile field (the only
    // nondeterministic one) is zeroed.
    r_dumbbell.profile.wall = std::time::Duration::ZERO;
    r_clos.profile.wall = std::time::Duration::ZERO;
    assert_eq!(r_dumbbell.encode(), r_clos.encode());
    assert_eq!(r_dumbbell.bcts_ms, r_clos.bcts_ms);

    // Manifests agree modulo the fields that *name* the topology: the
    // label itself, the config record and the Clos-only per-tier rollup.
    let mut da = m_dumbbell.deterministic();
    let mut db = m_clos.deterministic();
    assert_eq!(da.topology, "dumbbell:senders=10,receivers=1");
    assert_eq!(
        db.topology,
        "clos:racks=1,hosts_per_rack=10,spines=1,senders=10,receivers=1"
    );
    assert_eq!(
        db.tiers_json.as_deref().map(|t| t.contains("uplink")),
        Some(true)
    );
    assert!(db
        .config_json
        .contains(r#""topology":{"kind":"clos","racks":1,"spines":1}"#));
    da.topology = "masked".into();
    db.topology = "masked".into();
    da.config_json = "masked".into();
    db.config_json = "masked".into();
    da.tiers_json = None;
    db.tiers_json = None;
    assert_eq!(da.to_json(), db.to_json());
}

#[test]
fn ecmp_placement_is_stable_across_reruns() {
    let cfg = clos_cfg(3, 4, 12, 13);
    let (stream_a, manifest_a, bcts_a) = run_with::<TimingWheel>(&cfg);
    let (stream_b, manifest_b, bcts_b) = run_with::<TimingWheel>(&cfg);
    assert!(!stream_a.is_empty());
    assert_eq!(
        stream_a, stream_b,
        "rerun produced a different event stream"
    );
    assert_eq!(manifest_a, manifest_b);
    assert_eq!(bcts_a, bcts_b);
}
