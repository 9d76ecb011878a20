//! Differential scheduler testing: the timing-wheel fast path must be
//! *observationally identical* to the reference binary heap. Both
//! schedulers run the same seeded workloads and every observable output
//! is compared byte-for-byte — the JSONL telemetry stream, the run
//! manifest (modulo the scheduler's own name), burst completion times,
//! and, at the raw simnet layer, the full packet trace and counters of
//! seeded random topologies.

mod common;

use common::{run_with, seeded_observables};
use incast_bursts::core_api::modes::{run_incast_with, MitigationKind, ModesConfig, TopologySpec};
use incast_bursts::simnet::{EventQueue, Scheduler, TimingWheel};
use incast_bursts::telemetry::PerfettoSink;
use incast_bursts::transport::TransportKind;

#[test]
fn wheel_and_heap_emit_byte_identical_jsonl_for_seeded_configs() {
    // 12 configurations: four seeds across three workload shapes
    // (covering multiple flow counts, burst lengths, and burst counts).
    let shapes = [(2usize, 0.25f64, 2u32), (6, 0.5, 2), (16, 0.5, 3)];
    let mut compared = 0;
    for (num_flows, burst_duration_ms, num_bursts) in shapes {
        for seed in [1u64, 7, 42, 1000] {
            let cfg = ModesConfig {
                num_flows,
                burst_duration_ms,
                num_bursts,
                warmup_bursts: 1,
                seed,
                ..ModesConfig::default()
            };
            let (stream_w, manifest_w, bcts_w) = run_with::<TimingWheel>(&cfg);
            let (stream_h, manifest_h, bcts_h) = run_with::<EventQueue>(&cfg);
            assert!(!stream_w.is_empty(), "no telemetry captured");
            assert_eq!(
                stream_w, stream_h,
                "JSONL streams diverged (flows={num_flows}, seed={seed})"
            );
            assert_eq!(
                manifest_w, manifest_h,
                "manifests diverged (flows={num_flows}, seed={seed})"
            );
            assert_eq!(
                bcts_w, bcts_h,
                "burst completions diverged (flows={num_flows}, seed={seed})"
            );
            compared += 1;
        }
    }
    assert!(compared >= 10, "need 10+ seeded configurations");
}

/// Scheduled faults are ordinary events and must not perturb scheduler
/// equivalence: with a blackhole, a lossy window, an ECN outage, or a
/// straggler pause in play, wheel and heap still emit byte-identical
/// telemetry (fault events included), manifests, and completions.
#[test]
fn wheel_and_heap_agree_byte_for_byte_under_scheduled_faults() {
    use incast_bursts::simnet::SimTime as T;
    let mut faulted: Vec<ModesConfig> = Vec::new();
    let base = |seed: u64| ModesConfig {
        num_flows: 8,
        burst_duration_ms: 0.5,
        num_bursts: 2,
        warmup_bursts: 0,
        seed,
        ..ModesConfig::default()
    };
    let mut c = base(3);
    c.faults.blackhole = Some((T::from_us(100), T::from_ms(1)));
    faulted.push(c);
    let mut c = base(5);
    c.faults.loss = Some((T::from_us(50), T::from_ms(2), 0.08));
    faulted.push(c);
    let mut c = base(7);
    c.faults.ecn_off = Some((T::from_us(50), T::from_ms(2)));
    faulted.push(c);
    let mut c = base(11);
    c.faults.straggler = Some((T::from_us(100), T::from_ms(5), 2));
    faulted.push(c);

    for cfg in &faulted {
        let (stream_w, manifest_w, bcts_w) = run_with::<TimingWheel>(cfg);
        let (stream_h, manifest_h, bcts_h) = run_with::<EventQueue>(cfg);
        assert!(
            stream_w.contains("\"fault\""),
            "no fault events in the telemetry stream: {:?}",
            cfg.faults
        );
        assert_eq!(stream_w, stream_h, "JSONL diverged for {:?}", cfg.faults);
        assert_eq!(
            manifest_w, manifest_h,
            "manifests diverged for {:?}",
            cfg.faults
        );
        assert_eq!(bcts_w, bcts_h, "completions diverged for {:?}", cfg.faults);
        // The faults really applied (and are part of the compared bytes).
        assert!(manifest_w.contains("\"faults_injected\":"), "{manifest_w}");
    }
}

/// The in-fabric control plane is ordinary event traffic: notification
/// frames, retry timers, and injected notification loss must not perturb
/// scheduler equivalence. One clean Pulser config, one Pulser config with
/// 30 % notification loss (exercising the seeded control-path RNG and the
/// retry/backoff machinery), and one Distributed config on a data-loss
/// fault window all emit byte-identical telemetry, manifests, and
/// completions on both schedulers.
#[test]
fn wheel_and_heap_agree_byte_for_byte_with_the_control_plane() {
    use incast_bursts::simnet::SimTime as T;
    let mitigated = |kind: MitigationKind, seed: u64| {
        let mut cfg = ModesConfig {
            num_flows: 12,
            burst_duration_ms: 0.5,
            num_bursts: 2,
            warmup_bursts: 0,
            seed,
            ..ModesConfig::default()
        };
        cfg.mitigation.kind = kind;
        cfg
    };
    let clean = mitigated(MitigationKind::Pulser, 3);
    let mut lossy = mitigated(MitigationKind::Pulser, 5);
    lossy.mitigation.notif_loss = 0.3;
    let mut faulted = mitigated(MitigationKind::Distributed, 7);
    faulted.faults.loss = Some((T::from_us(50), T::from_ms(2), 0.08));

    for cfg in [&clean, &lossy, &faulted] {
        let label = format!("{:?} seed {}", cfg.mitigation.kind, cfg.seed);
        let (stream_w, manifest_w, bcts_w) = run_with::<TimingWheel>(cfg);
        let (stream_h, manifest_h, bcts_h) = run_with::<EventQueue>(cfg);
        assert_eq!(stream_w, stream_h, "JSONL diverged ({label})");
        assert_eq!(manifest_w, manifest_h, "manifests diverged ({label})");
        assert_eq!(bcts_w, bcts_h, "completions diverged ({label})");
        // The plane really engaged, and its tallies are compared bytes.
        assert!(
            manifest_w.contains(r#""control":{"mitigation""#),
            "manifest missing the control rollup ({label}): {manifest_w}"
        );
        assert!(
            !manifest_w.contains(r#""notif_sent":0"#),
            "control plane never fired ({label}): {manifest_w}"
        );
    }
    let (stream_w, manifest_w, _) = run_with::<TimingWheel>(&lossy);
    assert!(
        stream_w.contains(r#""ctrl""#),
        "no control-plane events in the telemetry stream"
    );
    assert!(
        !manifest_w.contains(r#""notif_lost":0"#),
        "lossy config lost no notifications: {manifest_w}"
    );
}

/// Multi-rack Clos fabrics ride the same event loop and the same ECMP
/// hash on both schedulers: seeded cross-rack incasts — including one
/// with a spine-link outage forcing a mid-burst re-hash — emit
/// byte-identical telemetry, manifests, and completions.
#[test]
fn wheel_and_heap_agree_byte_for_byte_on_multirack_fabrics() {
    use incast_bursts::simnet::SimTime as T;
    let clos = |racks, spines, num_flows, seed| ModesConfig {
        num_flows,
        topology: TopologySpec::Clos { racks, spines },
        burst_duration_ms: 0.5,
        num_bursts: 2,
        warmup_bursts: 0,
        seed,
        ..ModesConfig::default()
    };
    let mut cfgs = vec![
        clos(2, 2, 8, 3),
        clos(3, 2, 12, 7),
        clos(4, 4, 16, 42),
        clos(3, 1, 9, 11),
    ];
    let mut faulted = clos(3, 2, 12, 5);
    faulted.faults.spine_blackhole = Some((T::from_us(200), T::from_ms(2), 0));
    cfgs.push(faulted);

    for cfg in &cfgs {
        let label = format!("{:?} seed {}", cfg.topology, cfg.seed);
        let (stream_w, manifest_w, bcts_w) = run_with::<TimingWheel>(cfg);
        let (stream_h, manifest_h, bcts_h) = run_with::<EventQueue>(cfg);
        assert!(!stream_w.is_empty(), "no telemetry captured ({label})");
        assert_eq!(stream_w, stream_h, "JSONL diverged ({label})");
        assert_eq!(manifest_w, manifest_h, "manifests diverged ({label})");
        assert_eq!(bcts_w, bcts_h, "completions diverged ({label})");
        assert!(
            manifest_w.contains(r#""tiers":{"uplink""#),
            "multi-rack manifest missing the per-tier rollup ({label})"
        );
    }
}

/// The QUIC-style stack rides the same event loop, so it owes the same
/// contract: clean and faulted QUIC incasts emit byte-identical telemetry,
/// manifests, and completions on both schedulers. The faulted config
/// exercises packet-number loss detection and PTO probing under a lossy
/// window — the paths with the most QUIC-specific event scheduling.
#[test]
fn wheel_and_heap_agree_byte_for_byte_for_quic_transport() {
    use incast_bursts::simnet::SimTime as T;
    let quic = |seed: u64| {
        let mut cfg = ModesConfig {
            num_flows: 8,
            burst_duration_ms: 0.5,
            num_bursts: 2,
            warmup_bursts: 0,
            seed,
            ..ModesConfig::default()
        };
        cfg.tcp.transport = TransportKind::Quic;
        cfg
    };
    let clean_a = quic(3);
    let clean_b = {
        let mut c = quic(42);
        c.num_flows = 16;
        c
    };
    let faulted = {
        let mut c = quic(5);
        c.faults.loss = Some((T::from_us(50), T::from_ms(2), 0.08));
        c
    };

    for cfg in [&clean_a, &clean_b, &faulted] {
        let (stream_w, manifest_w, bcts_w) = run_with::<TimingWheel>(cfg);
        let (stream_h, manifest_h, bcts_h) = run_with::<EventQueue>(cfg);
        assert!(
            !stream_w.is_empty(),
            "no telemetry captured (seed {})",
            cfg.seed
        );
        assert_eq!(stream_w, stream_h, "JSONL diverged (seed {})", cfg.seed);
        assert_eq!(
            manifest_w, manifest_h,
            "manifests diverged (seed {})",
            cfg.seed
        );
        assert_eq!(bcts_w, bcts_h, "completions diverged (seed {})", cfg.seed);
    }
    let (stream_w, ..) = run_with::<TimingWheel>(&faulted);
    assert!(
        stream_w.contains("\"fault\""),
        "no fault events in the faulted QUIC run"
    );
}

/// One instrumented incast run rendered as a Chrome trace-event document
/// under scheduler `S`.
fn perfetto_with<S: Scheduler>(cfg: &ModesConfig) -> String {
    let (pf, sref) = PerfettoSink::new().shared();
    let _ = run_incast_with::<S>(cfg, Some(&sref));
    let out = pf.borrow().render();
    out
}

/// The Perfetto export is a pure function of the (already byte-identical)
/// event stream, so wheel and heap must render byte-identical trace
/// documents.
#[test]
fn wheel_and_heap_render_byte_identical_perfetto_traces() {
    for seed in [1u64, 7, 42] {
        let cfg = ModesConfig {
            num_flows: 6,
            burst_duration_ms: 0.5,
            num_bursts: 2,
            warmup_bursts: 1,
            seed,
            ..ModesConfig::default()
        };
        let w = perfetto_with::<TimingWheel>(&cfg);
        let h = perfetto_with::<EventQueue>(&cfg);
        assert!(w.contains(r#""ph":"b""#), "empty trace for seed {seed}");
        assert_eq!(w, h, "perfetto traces diverged for seed {seed}");
    }
}

/// Rendering on `par_map` helper threads must not perturb the traces either: the
/// same configs produce the same documents whether the sweep runs on one
/// thread or four.
#[test]
fn perfetto_traces_are_identical_across_thread_counts() {
    let cfgs: Vec<ModesConfig> = [1u64, 7, 42, 9]
        .iter()
        .map(|&seed| ModesConfig {
            num_flows: 4,
            burst_duration_ms: 0.25,
            num_bursts: 2,
            warmup_bursts: 1,
            seed,
            ..ModesConfig::default()
        })
        .collect();
    let serial = incast_bursts::core_api::par_map(cfgs.clone(), 1, perfetto_with::<TimingWheel>);
    let parallel = incast_bursts::core_api::par_map(cfgs.clone(), 4, perfetto_with::<TimingWheel>);
    assert_eq!(serial, parallel, "thread count perturbed the traces");
    assert!(serial.iter().all(|s| s.contains(r#""ph":"b""#)));
}

/// Raw simnet layer: the full packet trace, counters, tallies and final
/// time of seeded random fabrics. Half the seeds run a lossy trunk, and the
/// trace is the telemetry stream, so injected losses are compared bytes too.
#[test]
fn wheel_and_heap_trace_identically_on_seeded_random_topologies() {
    let mut fault_drops_traced = false;
    for seed in 100..110u64 {
        let wheel = seeded_observables::<TimingWheel>(seed, true);
        let heap = seeded_observables::<EventQueue>(seed, true);
        assert!(!wheel.0.is_empty(), "empty trace for seed {seed}");
        assert_eq!(wheel, heap, "schedulers diverged on topology seed {seed}");
        fault_drops_traced |= wheel.0.contains("DROP(fault)");
    }
    assert!(
        fault_drops_traced,
        "no lossy seed traced an injected loss: the comparison is blind to them"
    );
}
