//! Every invalid config is rejected at the front door: over the fuzzer's
//! config space, a config with one validation rule broken fails its
//! supervised sweep with the typed reason, and no simulation starts (so
//! nothing panics).

use incast_core::modes::{ModesConfig, TopologySpec};
use incast_core::supervisor::{supervised_incast_sweep, RunOutcome, SupervisorConfig};
use incast_core::RunCache;
use simcheck::generate;
use simnet::{BufferPolicy, SimTime};
use transport::{CcaKind, PacingConfig, TransportKind};
use workload::Grouping;

/// Breaks one validation rule of a config.
type Break = fn(&mut ModesConfig);

/// Each rule `ModesConfig::validate` enforces, as the path it rejects at
/// and an edit that breaks it (and only it) on any valid config.
const RULES: [(&str, Break); 21] = [
    ("num_flows", |c| c.num_flows = 0),
    ("burst_duration_ms", |c| {
        c.burst_duration_ms = -c.burst_duration_ms
    }),
    ("topology.racks", |c| {
        c.topology = TopologySpec::Clos {
            racks: 0,
            spines: 1,
        }
    }),
    ("topology.spines", |c| {
        c.topology = TopologySpec::Clos {
            racks: 2,
            spines: 0,
        }
    }),
    ("tcp.mss", |c| c.tcp.mss = 0),
    ("tcp.min_cwnd_segs", |c| c.tcp.min_cwnd_segs = 0),
    ("tcp.init_cwnd_segs", |c| {
        c.tcp.min_cwnd_segs = c.tcp.init_cwnd_segs + 1
    }),
    ("tcp.min_rto", |c| {
        c.tcp.min_rto = c.tcp.max_rto + SimTime::from_ps(1)
    }),
    ("tcp.pacing", |c| {
        c.tcp.transport = TransportKind::Quic;
        c.tcp.pacing = Some(PacingConfig::default());
    }),
    ("tcp.pto_granularity", |c| {
        c.tcp.transport = TransportKind::Quic;
        c.tcp.pto_granularity = SimTime::ZERO;
    }),
    ("num_bursts", |c| c.num_bursts = 0),
    ("tor_queue.capacity_bytes", |c| {
        c.tor_queue.capacity_bytes = 0
    }),
    ("receiver_tor_buffer.0", |c| {
        c.receiver_tor_buffer = Some((0, BufferPolicy::StaticPool))
    }),
    ("receiver_tor_buffer.1.alpha", |c| {
        c.receiver_tor_buffer = Some((1 << 20, BufferPolicy::DynamicThreshold { alpha: -1.0 }))
    }),
    ("faults.loss.2", |c| {
        c.faults.loss = Some((SimTime::ZERO, SimTime::from_ms(1), 1.5))
    }),
    ("faults.corrupt.2", |c| {
        c.faults.corrupt = Some((SimTime::ZERO, SimTime::from_ms(1), -0.1))
    }),
    ("faults.spine_loss.3", |c| {
        c.faults.spine_loss = Some((SimTime::ZERO, SimTime::from_ms(1), 0, 2.0))
    }),
    ("faults.buffer_shrink.2", |c| {
        c.faults.buffer_shrink = Some((SimTime::ZERO, SimTime::from_ms(1), 0))
    }),
    ("tcp.pacing.min_cwnd_fraction", |c| {
        c.tcp.transport = TransportKind::Tcp;
        c.tcp.pacing = Some(PacingConfig {
            min_cwnd_fraction: 0.0,
        });
    }),
    ("tcp.cca.g", |c| c.tcp.cca = CcaKind::Dctcp { g: 0.0 }),
    ("grouping.group_size", |c| {
        c.grouping = Some(Grouping {
            group_size: 0,
            group_gap: SimTime::from_us(200),
        })
    }),
];

#[test]
fn one_broken_rule_fails_each_drawn_config_with_its_typed_reason() {
    let sup = SupervisorConfig {
        threads: 1,
        quarantine_dir: None,
        ..SupervisorConfig::default()
    };
    for seed in 0..200u64 {
        let mut cfg = generate(seed);
        assert_eq!(cfg.validate(), Ok(()), "seed {seed} drew an invalid config");
        let (path, break_rule) = RULES[seed as usize % RULES.len()];
        break_rule(&mut cfg);
        let err = cfg.validate().expect_err(path);
        assert_eq!(err.path, path, "seed {seed}");

        let sweep = supervised_incast_sweep(&[cfg], &sup, &RunCache::in_memory());
        assert_eq!(
            (sweep.coverage.ran, sweep.coverage.failed),
            (0, 1),
            "seed {seed}"
        );
        match &sweep.outcomes[0] {
            RunOutcome::Failed(msg) => assert_eq!(*msg, format!("invalid config: {err}")),
            o => panic!("seed {seed}: expected a rejection, got {}", o.label()),
        }
    }
}
