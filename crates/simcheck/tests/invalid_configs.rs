//! Every invalid config is rejected at the front door: over the fuzzer's
//! scenario space, a config with one validation rule broken fails its
//! supervised sweep with the typed reason, and no simulation starts (so
//! nothing panics).

use incast_core::modes::{ModesConfig, TopologySpec};
use incast_core::supervisor::{supervised_incast_sweep, RunOutcome, SupervisorConfig};
use incast_core::RunCache;
use simcheck::Scenario;
use simnet::SimTime;
use transport::{PacingConfig, TransportKind};

/// Breaks one validation rule of a config.
type Break = fn(&mut ModesConfig);

/// Each rule `ModesConfig::validate` enforces, as the path it rejects at
/// and an edit that breaks it (and only it) on any valid config.
const RULES: [(&str, Break); 10] = [
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
];

#[test]
fn one_broken_rule_fails_each_drawn_scenario_with_its_typed_reason() {
    let sup = SupervisorConfig {
        threads: 1,
        quarantine_dir: None,
        ..SupervisorConfig::default()
    };
    for seed in 0..200u64 {
        let mut cfg = Scenario::generate(seed).to_config();
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
