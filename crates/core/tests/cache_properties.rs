//! Cache-correctness properties:
//!
//! 1. The canonical key is injective over config fields: two configs
//!    differing in exactly one field — any leaf, including nested ones —
//!    never collide into the same key string, never compare equal, and
//!    never share a fingerprint. The three addresses agree.
//! 2. A cache hit is byte-identical to the cold run: the disk encoding of
//!    a decoded entry equals the encoding of the freshly computed result,
//!    so warm aggregates cannot drift.
//! 3. Damaged entries and entries written under an older schema version
//!    are misses, never panics or wrong decodes.
//! 4. The disk address is pinned: the key is the config's text, and the
//!    entry name and meta line are the same whichever API wrote the entry.
//! 5. The config walk is complete: the hand-written variant list names
//!    every leaf it visits, validation rejects at walked paths, and the
//!    config's text keys every leaf, reads back bit-exactly, and is
//!    rejected at the path where it is damaged.

use std::collections::BTreeSet;

use incast_core::cache::{
    fnv1a64, incast_fingerprint, incast_key, trace_key, CacheValue, RunCache,
};
use incast_core::modes::{
    run_incast, FaultSpec, IncastRunResult, MitigationKind, ModesConfig, TopologySpec,
};
use incast_core::production::TraceConfig;
use incast_core::{run_incast_cached, run_incast_sweep};
use simnet::{BufferPolicy, SimTime};
use stats::leaves::{read, write};
use stats::{Leaves, Visit};
use transport::{CcaKind, DelayedAckConfig, PacingConfig, TransportKind};
use workload::{BurstSchedule, Grouping, ServiceId};

/// One variant of the default config per `ModesConfig` leaf, named by the
/// leaf's walk path (a ` (…)` suffix tells apart several variants of one
/// enum leaf): every field of every nested struct and tuple, and for enums
/// and options the variant as well as each payload field.
/// `the_variant_list_names_every_walked_leaf` keeps it complete.
fn one_field_variants() -> Vec<(&'static str, ModesConfig)> {
    let (from, later, until) = (
        SimTime::from_ms(1),
        SimTime::from_ms(2),
        SimTime::from_ms(5),
    );
    type Edit = Box<dyn Fn(&mut ModesConfig)>;
    let edits: Vec<(&'static str, Edit)> = vec![
        ("num_flows", Box::new(|c| c.num_flows += 1)),
        (
            "topology",
            Box::new(|c| {
                c.topology = TopologySpec::Clos {
                    racks: 2,
                    spines: 2,
                }
            }),
        ),
        (
            "topology.racks",
            Box::new(|c| {
                c.topology = TopologySpec::Clos {
                    racks: 3,
                    spines: 2,
                }
            }),
        ),
        (
            "topology.spines",
            Box::new(|c| {
                c.topology = TopologySpec::Clos {
                    racks: 2,
                    spines: 3,
                }
            }),
        ),
        (
            "burst_duration_ms",
            Box::new(|c| c.burst_duration_ms += 0.5),
        ),
        ("num_bursts", Box::new(|c| c.num_bursts += 1)),
        ("warmup_bursts", Box::new(|c| c.warmup_bursts += 1)),
        (
            "tcp.transport",
            Box::new(|c| c.tcp.transport = TransportKind::Quic),
        ),
        ("tcp.mss", Box::new(|c| c.tcp.mss -= 6)),
        (
            "tcp.init_cwnd_segs",
            Box::new(|c| c.tcp.init_cwnd_segs += 1),
        ),
        ("tcp.min_cwnd_segs", Box::new(|c| c.tcp.min_cwnd_segs += 1)),
        (
            "tcp.cca.g",
            Box::new(|c| c.tcp.cca = CcaKind::Dctcp { g: 0.125 }),
        ),
        ("tcp.cca (reno)", Box::new(|c| c.tcp.cca = CcaKind::Reno)),
        ("tcp.cca (cubic)", Box::new(|c| c.tcp.cca = CcaKind::Cubic)),
        (
            "tcp.cca (memory)",
            Box::new(|c| {
                c.tcp.cca = CcaKind::DctcpMemory {
                    g: 0.0625,
                    memory_gain: 0.25,
                }
            }),
        ),
        (
            "tcp.cca.memory_gain",
            Box::new(|c| {
                c.tcp.cca = CcaKind::DctcpMemory {
                    g: 0.0625,
                    memory_gain: 0.5,
                }
            }),
        ),
        (
            "tcp.cca (guardrail)",
            Box::new(|c| {
                c.tcp.cca = CcaKind::DctcpGuardrail {
                    g: 0.0625,
                    max_cwnd_segs: 8,
                }
            }),
        ),
        (
            "tcp.cca.max_cwnd_segs",
            Box::new(|c| {
                c.tcp.cca = CcaKind::DctcpGuardrail {
                    g: 0.0625,
                    max_cwnd_segs: 9,
                }
            }),
        ),
        (
            "tcp.cca (swift)",
            Box::new(|c| c.tcp.cca = CcaKind::SwiftLike { target_us: 50 }),
        ),
        (
            "tcp.cca.target_us",
            Box::new(|c| c.tcp.cca = CcaKind::SwiftLike { target_us: 51 }),
        ),
        (
            "tcp.initial_rto",
            Box::new(|c| c.tcp.initial_rto = SimTime::from_secs(2)),
        ),
        (
            "tcp.min_rto",
            Box::new(|c| c.tcp.min_rto = SimTime::from_ms(201)),
        ),
        (
            "tcp.max_rto",
            Box::new(|c| c.tcp.max_rto = SimTime::from_secs(61)),
        ),
        (
            "tcp.pto_granularity",
            Box::new(|c| c.tcp.pto_granularity = SimTime::from_ms(2)),
        ),
        (
            "tcp.delayed_ack",
            Box::new(|c| c.tcp.delayed_ack = Some(DelayedAckConfig::default())),
        ),
        (
            "tcp.delayed_ack.max_segments",
            Box::new(|c| {
                c.tcp.delayed_ack = Some(DelayedAckConfig {
                    max_segments: 3,
                    ..DelayedAckConfig::default()
                })
            }),
        ),
        (
            "tcp.delayed_ack.timeout",
            Box::new(|c| {
                c.tcp.delayed_ack = Some(DelayedAckConfig {
                    timeout: SimTime::from_ms(2),
                    ..DelayedAckConfig::default()
                })
            }),
        ),
        (
            "tcp.pacing",
            Box::new(|c| c.tcp.pacing = Some(PacingConfig::default())),
        ),
        (
            "tcp.pacing.min_cwnd_fraction",
            Box::new(|c| {
                c.tcp.pacing = Some(PacingConfig {
                    min_cwnd_fraction: 0.125,
                })
            }),
        ),
        (
            "tcp.idle_restart_after",
            Box::new(|c| c.tcp.idle_restart_after = Some(SimTime::from_ms(1))),
        ),
        (
            "tor_queue.capacity_bytes",
            Box::new(|c| c.tor_queue.capacity_bytes += 1),
        ),
        (
            "tor_queue.capacity_pkts",
            Box::new(|c| c.tor_queue.capacity_pkts = Some(1334)),
        ),
        (
            "tor_queue.capacity_pkts (none)",
            Box::new(|c| c.tor_queue.capacity_pkts = None),
        ),
        (
            "tor_queue.ecn_threshold_pkts",
            Box::new(|c| c.tor_queue.ecn_threshold_pkts = Some(66)),
        ),
        (
            "tor_queue.ecn_threshold_bytes",
            Box::new(|c| c.tor_queue.ecn_threshold_bytes = Some(97_500)),
        ),
        (
            "receiver_tor_buffer",
            Box::new(|c| {
                c.receiver_tor_buffer =
                    Some((4_000_000, BufferPolicy::DynamicThreshold { alpha: 1.0 }))
            }),
        ),
        (
            "receiver_tor_buffer.0",
            Box::new(|c| {
                c.receiver_tor_buffer =
                    Some((4_000_001, BufferPolicy::DynamicThreshold { alpha: 1.0 }))
            }),
        ),
        (
            "receiver_tor_buffer.1.alpha",
            Box::new(|c| {
                c.receiver_tor_buffer =
                    Some((4_000_000, BufferPolicy::DynamicThreshold { alpha: 2.0 }))
            }),
        ),
        (
            "receiver_tor_buffer.1",
            Box::new(|c| c.receiver_tor_buffer = Some((4_000_000, BufferPolicy::StaticPool))),
        ),
        (
            "queue_sample",
            Box::new(|c| c.queue_sample = SimTime::from_us(21)),
        ),
        (
            "flight_sample",
            Box::new(|c| c.flight_sample = Some(SimTime::from_us(100))),
        ),
        (
            "grouping",
            Box::new(|c| {
                c.grouping = Some(Grouping {
                    group_size: 10,
                    group_gap: SimTime::from_us(500),
                })
            }),
        ),
        (
            "grouping.group_size",
            Box::new(|c| {
                c.grouping = Some(Grouping {
                    group_size: 11,
                    group_gap: SimTime::from_us(500),
                })
            }),
        ),
        (
            "grouping.group_gap",
            Box::new(|c| {
                c.grouping = Some(Grouping {
                    group_size: 10,
                    group_gap: SimTime::from_us(501),
                })
            }),
        ),
        (
            "schedule",
            Box::new(|c| {
                c.schedule = BurstSchedule::Periodic {
                    period: SimTime::from_ms(17),
                }
            }),
        ),
        (
            "schedule.period",
            Box::new(|c| {
                c.schedule = BurstSchedule::Periodic {
                    period: SimTime::from_ms(18),
                }
            }),
        ),
        (
            "schedule.gap",
            Box::new(|c| {
                c.schedule = BurstSchedule::AfterCompletion {
                    gap: SimTime::from_ms(3),
                }
            }),
        ),
        ("seed", Box::new(|c| c.seed += 1)),
        ("horizon", Box::new(|c| c.horizon = SimTime::from_secs(31))),
        (
            "faults.blackhole",
            Box::new(move |c| c.faults.blackhole = Some((from, until))),
        ),
        (
            "faults.blackhole.0",
            Box::new(move |c| c.faults.blackhole = Some((later, until))),
        ),
        (
            "faults.blackhole.1",
            Box::new(move |c| c.faults.blackhole = Some((from, later))),
        ),
        (
            "faults.loss",
            Box::new(move |c| c.faults.loss = Some((from, until, 0.01))),
        ),
        (
            "faults.loss.0",
            Box::new(move |c| c.faults.loss = Some((later, until, 0.01))),
        ),
        (
            "faults.loss.1",
            Box::new(move |c| c.faults.loss = Some((from, later, 0.01))),
        ),
        (
            "faults.loss.2",
            Box::new(move |c| c.faults.loss = Some((from, until, 0.02))),
        ),
        (
            "faults.corrupt",
            Box::new(move |c| c.faults.corrupt = Some((from, until, 0.01))),
        ),
        (
            "faults.corrupt.0",
            Box::new(move |c| c.faults.corrupt = Some((later, until, 0.01))),
        ),
        (
            "faults.corrupt.1",
            Box::new(move |c| c.faults.corrupt = Some((from, later, 0.01))),
        ),
        (
            "faults.corrupt.2",
            Box::new(move |c| c.faults.corrupt = Some((from, until, 0.02))),
        ),
        (
            "faults.ecn_off",
            Box::new(move |c| c.faults.ecn_off = Some((from, until))),
        ),
        (
            "faults.ecn_off.0",
            Box::new(move |c| c.faults.ecn_off = Some((later, until))),
        ),
        (
            "faults.ecn_off.1",
            Box::new(move |c| c.faults.ecn_off = Some((from, SimTime::from_ms(6)))),
        ),
        (
            "faults.buffer_shrink",
            Box::new(move |c| c.faults.buffer_shrink = Some((from, until, 100_000))),
        ),
        (
            "faults.buffer_shrink.0",
            Box::new(move |c| c.faults.buffer_shrink = Some((later, until, 100_000))),
        ),
        (
            "faults.buffer_shrink.1",
            Box::new(move |c| c.faults.buffer_shrink = Some((from, later, 100_000))),
        ),
        (
            "faults.buffer_shrink.2",
            Box::new(move |c| c.faults.buffer_shrink = Some((from, until, 100_001))),
        ),
        (
            "faults.straggler",
            Box::new(move |c| c.faults.straggler = Some((from, until, 0))),
        ),
        (
            "faults.straggler.0",
            Box::new(move |c| c.faults.straggler = Some((later, until, 0))),
        ),
        (
            "faults.straggler.1",
            Box::new(move |c| c.faults.straggler = Some((from, later, 0))),
        ),
        (
            "faults.straggler.2",
            Box::new(move |c| c.faults.straggler = Some((from, until, 1))),
        ),
        (
            "faults.spine_blackhole",
            Box::new(move |c| c.faults.spine_blackhole = Some((from, until, 0))),
        ),
        (
            "faults.spine_blackhole.0",
            Box::new(move |c| c.faults.spine_blackhole = Some((later, until, 0))),
        ),
        (
            "faults.spine_blackhole.1",
            Box::new(move |c| c.faults.spine_blackhole = Some((from, later, 0))),
        ),
        (
            "faults.spine_blackhole.2",
            Box::new(move |c| c.faults.spine_blackhole = Some((from, until, 1))),
        ),
        (
            "faults.spine_loss",
            Box::new(move |c| c.faults.spine_loss = Some((from, until, 0, 0.01))),
        ),
        (
            "faults.spine_loss.0",
            Box::new(move |c| c.faults.spine_loss = Some((later, until, 0, 0.01))),
        ),
        (
            "faults.spine_loss.1",
            Box::new(move |c| c.faults.spine_loss = Some((from, later, 0, 0.01))),
        ),
        (
            "faults.spine_loss.2",
            Box::new(move |c| c.faults.spine_loss = Some((from, until, 1, 0.01))),
        ),
        (
            "faults.spine_loss.3",
            Box::new(move |c| c.faults.spine_loss = Some((from, until, 0, 0.02))),
        ),
        // Every control-plane field: flipping any one of them must produce a
        // distinct run, so each must perturb the key on its own.
        (
            "mitigation.kind",
            Box::new(|c| c.mitigation.kind = MitigationKind::Pulser),
        ),
        (
            "mitigation.kind (distributed)",
            Box::new(|c| c.mitigation.kind = MitigationKind::Distributed),
        ),
        (
            "mitigation.notif_loss",
            Box::new(|c| c.mitigation.notif_loss = 0.5),
        ),
        (
            "mitigation.flow_threshold",
            Box::new(|c| c.mitigation.flow_threshold += 1),
        ),
        (
            "mitigation.window_us",
            Box::new(|c| c.mitigation.window_us += 50),
        ),
        (
            "mitigation.pause_us",
            Box::new(|c| c.mitigation.pause_us += 50),
        ),
        (
            "mitigation.retry_timeout_us",
            Box::new(|c| c.mitigation.retry_timeout_us += 50),
        ),
        (
            "mitigation.max_retries",
            Box::new(|c| c.mitigation.max_retries += 1),
        ),
    ];
    edits
        .into_iter()
        .map(|(name, edit)| {
            let mut cfg = ModesConfig::default();
            edit(&mut cfg);
            (name, cfg)
        })
        .collect()
}

/// All three addresses of a config — rendered key, `==`, fingerprint — tell
/// every pair of one-leaf variants apart.
#[test]
fn one_field_difference_never_collides() {
    let mut cfgs = vec![("base", ModesConfig::default())];
    cfgs.extend(one_field_variants());
    for (i, (ni, a)) in cfgs.iter().enumerate() {
        assert_eq!(a, a);
        for (nj, b) in cfgs.iter().skip(i + 1) {
            assert_ne!(
                incast_key(a),
                incast_key(b),
                "keys of '{ni}' and '{nj}' collided"
            );
            assert_ne!(a, b, "'{ni}' and '{nj}' compare equal");
            assert_ne!(
                incast_fingerprint(a),
                incast_fingerprint(b),
                "fingerprints of '{ni}' and '{nj}' collided"
            );
        }
    }
}

/// Every leaf path a config's walk visits, and how many of its leaves the
/// config JSON writes a key for (all but a present `Option`, whose payload
/// is written instead).
#[derive(Default)]
struct Paths {
    stack: Vec<&'static str>,
    paths: BTreeSet<String>,
    keyed: usize,
}

impl Paths {
    fn of(cfg: &ModesConfig) -> Paths {
        let mut p = Paths::default();
        cfg.walk("", &mut p);
        p
    }

    fn leaf(&mut self, name: &'static str, keyed: bool) {
        let mut path: Vec<&str> = self
            .stack
            .iter()
            .copied()
            .filter(|s| !s.is_empty())
            .collect();
        path.push(name);
        self.paths.insert(path.join("."));
        self.keyed += keyed as usize;
    }
}

impl Visit for Paths {
    fn int(&mut self, name: &'static str, _: u64) {
        self.leaf(name, true);
    }
    fn float(&mut self, name: &'static str, _: f64) {
        self.leaf(name, true);
    }
    fn str(&mut self, name: &'static str, _: &str) {
        self.leaf(name, true);
    }
    fn variant(&mut self, name: &'static str, _: &'static str, fields: bool) {
        self.leaf(name, true);
        if fields {
            self.stack.push(name);
        }
    }
    fn option(&mut self, name: &'static str, some: bool) {
        self.leaf(name, !some);
    }
    fn enter(&mut self, name: &'static str) {
        self.stack.push(name);
    }
    fn leave(&mut self) {
        self.stack.pop();
    }
}

/// The default config with every `Option` anywhere in it `Some`.
fn all_some() -> ModesConfig {
    let (from, until) = (SimTime::from_ms(1), SimTime::from_ms(5));
    let mut c = ModesConfig::default();
    c.tcp.delayed_ack = Some(DelayedAckConfig::default());
    c.tcp.pacing = Some(PacingConfig::default());
    c.tcp.idle_restart_after = Some(SimTime::from_ms(1));
    c.tor_queue.ecn_threshold_bytes = Some(97_500);
    c.receiver_tor_buffer = Some((4_000_000, BufferPolicy::DynamicThreshold { alpha: 1.0 }));
    c.flight_sample = Some(SimTime::from_us(100));
    c.grouping = Some(Grouping {
        group_size: 10,
        group_gap: SimTime::from_us(500),
    });
    c.faults = FaultSpec {
        blackhole: Some((from, until)),
        loss: Some((from, until, 0.01)),
        corrupt: Some((from, until, 0.01)),
        ecn_off: Some((from, until)),
        buffer_shrink: Some((from, until, 100_000)),
        straggler: Some((from, until, 0)),
        spine_blackhole: Some((from, until, 0)),
        spine_loss: Some((from, until, 0, 0.01)),
    };
    c
}

/// The hand-written variant list cannot fall behind the walk: every leaf the
/// walk visits on a config with every `Option` present is named by a
/// variant, and every variant names a leaf its own config's walk visits.
#[test]
fn the_variant_list_names_every_walked_leaf() {
    let variants = one_field_variants();
    let named: BTreeSet<&str> = variants
        .iter()
        .map(|(name, _)| name.split(" (").next().unwrap())
        .collect();
    let walked = Paths::of(&all_some()).paths;
    let unnamed: Vec<_> = walked
        .iter()
        .filter(|p| !named.contains(p.as_str()))
        .collect();
    assert!(
        unnamed.is_empty(),
        "leaves no variant perturbs: {unnamed:?}"
    );
    for (name, cfg) in &variants {
        let path = name.split(" (").next().unwrap();
        assert!(
            Paths::of(cfg).paths.contains(path),
            "variant '{name}' names no leaf its walk visits"
        );
    }
}

/// One config per validation rule: each is rejected at the leaf the rule
/// guards, and that leaf is one the walk visits.
#[test]
fn validation_rejects_each_rule_at_a_walked_path() {
    type Edit = fn(&mut ModesConfig);
    let rules: [(&str, Edit); 21] = [
        ("num_flows", |c| c.num_flows = 0),
        ("burst_duration_ms", |c| c.burst_duration_ms = f64::NAN),
        ("num_bursts", |c| c.num_bursts = 0),
        ("topology.racks", |c| {
            c.topology = TopologySpec::Clos {
                racks: 0,
                spines: 2,
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
        ("tcp.init_cwnd_segs", |c| c.tcp.min_cwnd_segs = 11),
        ("tcp.min_rto", |c| c.tcp.min_rto = SimTime::from_secs(61)),
        ("tcp.pacing", |c| {
            c.tcp.transport = TransportKind::Quic;
            c.tcp.pacing = Some(PacingConfig::default());
        }),
        ("tcp.pto_granularity", |c| {
            c.tcp.transport = TransportKind::Quic;
            c.tcp.pto_granularity = SimTime::ZERO;
        }),
        ("tcp.cca.g", |c| c.tcp.cca = CcaKind::Dctcp { g: 0.0 }),
        ("tcp.pacing.min_cwnd_fraction", |c| {
            c.tcp.pacing = Some(PacingConfig {
                min_cwnd_fraction: 0.0,
            })
        }),
        ("tor_queue.capacity_bytes", |c| {
            c.tor_queue.capacity_bytes = 0
        }),
        ("receiver_tor_buffer.0", |c| {
            c.receiver_tor_buffer = Some((0, BufferPolicy::StaticPool))
        }),
        ("receiver_tor_buffer.1.alpha", |c| {
            c.receiver_tor_buffer = Some((4_000_000, BufferPolicy::DynamicThreshold { alpha: 0.0 }))
        }),
        ("grouping.group_size", |c| {
            c.grouping = Some(Grouping {
                group_size: 0,
                group_gap: SimTime::from_us(500),
            })
        }),
        ("faults.loss.2", |c| {
            c.faults.loss = Some((SimTime::ZERO, SimTime::from_ms(1), 1.5))
        }),
        ("faults.corrupt.2", |c| {
            c.faults.corrupt = Some((SimTime::ZERO, SimTime::from_ms(1), -0.5))
        }),
        ("faults.spine_loss.3", |c| {
            c.faults.spine_loss = Some((SimTime::ZERO, SimTime::from_ms(1), 0, f64::NAN))
        }),
        ("faults.buffer_shrink.2", |c| {
            c.faults.buffer_shrink = Some((SimTime::ZERO, SimTime::from_ms(1), 0))
        }),
    ];
    assert_eq!(ModesConfig::default().validate(), Ok(()));
    assert_eq!(all_some().validate(), Ok(()));
    for (path, edit) in rules {
        let mut cfg = ModesConfig::default();
        edit(&mut cfg);
        let err = cfg.validate().expect_err(path);
        assert_eq!(err.path, path, "{err}");
        assert!(Paths::of(&cfg).paths.contains(path), "{path} is not walked");
    }
}

/// The default config's text (its manifest JSON and cache key), pinned;
/// one key per leaf the walk visits.
#[test]
fn default_config_json_is_pinned_and_keys_every_leaf() {
    let cfg = ModesConfig::default();
    let json = write(&cfg);
    assert_eq!(json, DEFAULT_JSON);
    let leaf_keys = json.matches("\":").count() - json.matches("\":{").count();
    assert_eq!(leaf_keys, Paths::of(&cfg).keyed);
    let all = all_some();
    let json = write(&all);
    let leaf_keys = json.matches("\":").count() - json.matches("\":{").count();
    assert_eq!(leaf_keys, Paths::of(&all).keyed, "{json}");
}

/// Every config the tests know reads back from its text with every float
/// bit intact (the fingerprint folds floats by bits), including non-finite
/// and negative-zero leaves the validator would reject.
#[test]
fn the_text_reads_back_every_config_bit_exactly() {
    let mut cfgs: Vec<(String, ModesConfig)> = one_field_variants()
        .into_iter()
        .map(|(name, c)| (name.to_string(), c))
        .collect();
    cfgs.push(("all_some".into(), all_some()));
    for x in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0] {
        let mut c = all_some();
        c.burst_duration_ms = x;
        c.mitigation.notif_loss = x;
        c.faults.spine_loss = Some((SimTime::ZERO, SimTime::from_ms(1), 0, x));
        c.receiver_tor_buffer = Some((1, BufferPolicy::DynamicThreshold { alpha: x }));
        cfgs.push((format!("floats = {x}"), c));
    }
    for (name, cfg) in &cfgs {
        let text = write(cfg);
        let back: ModesConfig = read(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(incast_fingerprint(&back), incast_fingerprint(cfg), "{name}");
        assert_eq!(write(&back), text, "{name}");
    }
    let inf = |x: f64| {
        write(&ModesConfig {
            burst_duration_ms: x,
            ..ModesConfig::default()
        })
    };
    assert!(inf(f64::NAN).contains(r#""burst_duration_ms":"NaN""#));
    assert!(inf(f64::INFINITY).contains(r#""burst_duration_ms":"inf""#));
    assert!(inf(f64::NEG_INFINITY).contains(r#""burst_duration_ms":"-inf""#));
}

/// A damaged text is rejected at the path of the leaf where it stops
/// matching the walk, never read as some other config.
#[test]
fn the_reader_rejects_a_damaged_config_at_its_path() {
    let cases = [
        (
            "unknown key",
            DEFAULT_JSON.replace(r#""mss":"#, r#""mtu":"#),
            "tcp.mss",
        ),
        (
            "missing key",
            DEFAULT_JSON.replace(r#""seed":1,"#, ""),
            "seed",
        ),
        (
            "reordered keys",
            DEFAULT_JSON.replace(
                r#""num_bursts":11,"warmup_bursts":2"#,
                r#""warmup_bursts":2,"num_bursts":11"#,
            ),
            "num_bursts",
        ),
        (
            "a string for a number",
            DEFAULT_JSON.replace(r#""g":0.0625"#, r#""g":"0.0625""#),
            "tcp.cca.g",
        ),
        (
            "u32 overflow",
            DEFAULT_JSON.replace(r#""num_bursts":11"#, r#""num_bursts":4294967296"#),
            "num_bursts",
        ),
        (
            "unknown variant label",
            DEFAULT_JSON.replace(r#""kind":"dctcp""#, r#""kind":"bbr""#),
            "tcp.cca",
        ),
        (
            "an extra key",
            DEFAULT_JSON.replace(r#""max_retries":5}"#, r#""max_retries":5,"x":1}"#),
            "mitigation",
        ),
        ("trailing bytes", format!("{DEFAULT_JSON}{{}}"), ""),
    ];
    for (what, text, path) in cases {
        assert_ne!(text, DEFAULT_JSON, "{what}: the edit did not apply");
        let err = read::<ModesConfig>(&text).expect_err(what);
        assert_eq!(err.path, path, "{what}: {err}");
    }
}

const DEFAULT_JSON: &str = r#"{"num_flows":100,"topology":"dumbbell","burst_duration_ms":15,"num_bursts":11,"warmup_bursts":2,"tcp":{"transport":"tcp","mss":1446,"init_cwnd_segs":10,"min_cwnd_segs":1,"cca":{"kind":"dctcp","g":0.0625},"initial_rto":1000000000000,"min_rto":200000000000,"max_rto":60000000000000,"pto_granularity":1000000000,"delayed_ack":null,"pacing":null,"idle_restart_after":null},"tor_queue":{"capacity_bytes":2000000,"capacity_pkts":1333,"ecn_threshold_pkts":65,"ecn_threshold_bytes":null},"receiver_tor_buffer":null,"queue_sample":20000000,"flight_sample":null,"grouping":null,"schedule":{"kind":"after_completion","gap":2000000000},"seed":1,"horizon":30000000000000,"faults":{"blackhole":null,"loss":null,"corrupt":null,"ecn_off":null,"buffer_shrink":null,"straggler":null,"spine_blackhole":null,"spine_loss":null},"mitigation":{"kind":"off","notif_loss":0,"flow_threshold":8,"window_us":100,"pause_us":150,"retry_timeout_us":100,"max_retries":5}}"#;

/// `fnv1a64(incast_key(&ModesConfig::default()))`, the default config's
/// disk entry name under schema v5.
const DEFAULT_NAME: u64 = 0x547b_340f_4cbc_8478;

fn tmp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "incast-cache-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A stand-in for a run, told apart by its drop count: what the address
/// tests store where simulating would add nothing.
fn fake_run(drops: u64) -> IncastRunResult {
    let text = format!(
        r#"{{"bcts_ms":[1],"mean_bct_ms":1,"queue_pkts":{{"interval":1,"buckets":[]}},"burst_windows":[],"drops":{drops},"marked_pkts":0,"enqueued_pkts":0,"retx_bytes":0,"timeouts":0,"fast_retransmits":0,"steady_drops":0,"steady_timeouts":0,"steady_retx_bytes":0,"warmup_bursts":0,"queue_watermark_pkts":0,"flights":[],"finished_at":0,"ecn_threshold_pkts":0,"truncated":null,"profile":{{"tallies":{{"tx_complete":0,"delivery":0,"timer":0,"fault":0,"ctrl":0}},"wall":0}}}}"#
    );
    CacheValue::decode(&text).expect("well-formed stand-in")
}

/// A result's text with its wall-clock field zeroed: what two executions
/// of one config agree on.
fn wall_free(r: &IncastRunResult) -> String {
    let mut r = IncastRunResult::decode(&r.encode()).expect("reads back");
    r.profile.wall = std::time::Duration::ZERO;
    r.encode()
}

/// A disk entry's meta line and its value's [`wall_free`] text.
fn entry_wall_free(body: &str) -> (String, String) {
    let (meta, value) = body.split_once('\n').expect("meta line");
    let value = IncastRunResult::decode(value.trim_end()).expect("a valid entry");
    (meta.to_string(), wall_free(&value))
}

#[test]
fn disk_address_of_the_default_config_is_pinned() {
    let cfg = ModesConfig::default();
    let key = format!("incast/v5|{DEFAULT_JSON}");
    assert_eq!(incast_key(&cfg), key);
    assert_eq!(fnv1a64(&key), DEFAULT_NAME);
    // The meta line is the three fields, the key's quotes escaped.
    let meta = format!(
        r#"{{"v":5,"build":"{}","key":"{}"}}"#,
        telemetry::git_describe(),
        key.replace('"', r#"\""#)
    );
    // Either API writes that name and that first line.
    for by_config in [true, false] {
        let dir = tmp_dir("pin");
        let cache = RunCache::with_disk(&dir);
        if by_config {
            cache.get_or_compute_incast(&cfg, || fake_run(7));
        } else {
            cache.get_or_compute(&key, || fake_run(7));
        }
        assert_eq!(cache.stats().disk_writes, 1);
        let names: Vec<_> = std::fs::read_dir(&dir)
            .expect("cache dir")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert_eq!(names, [format!("{DEFAULT_NAME:016x}.jsonl")]);
        let body = std::fs::read_to_string(dir.join(&names[0])).unwrap();
        assert_eq!(
            body.lines().next(),
            Some(meta.as_str()),
            "by_config={by_config}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A directory written through the raw key API serves a config-addressed
/// sweep entirely from disk, and the reverse: the two APIs share one disk
/// format.
#[test]
fn raw_and_config_apis_read_each_others_disk_entries() {
    let cfgs: Vec<ModesConfig> = (0..3)
        .map(|seed| ModesConfig {
            num_flows: 4,
            burst_duration_ms: 0.5,
            num_bursts: 1,
            warmup_bursts: 0,
            seed,
            ..ModesConfig::default()
        })
        .collect();

    let dir = tmp_dir("raw-then-config");
    let writer = RunCache::with_disk(&dir);
    let raw: Vec<_> = cfgs
        .iter()
        .map(|cfg| writer.get_or_compute(&incast_key(cfg), || run_incast(cfg)))
        .collect();
    let reader = RunCache::with_disk(&dir);
    let swept = run_incast_sweep(&cfgs, 2, &reader);
    let stats = reader.stats();
    assert_eq!((stats.disk_hits, stats.misses, stats.mem_hits), (3, 0, 0));
    for (a, b) in raw.iter().zip(&swept) {
        assert_eq!(a.encode(), b.encode());
    }
    let _ = std::fs::remove_dir_all(&dir);

    let dir = tmp_dir("config-then-raw");
    let swept = run_incast_sweep(&cfgs, 2, &RunCache::with_disk(&dir));
    let reader = RunCache::with_disk(&dir);
    for (cfg, a) in cfgs.iter().zip(&swept) {
        let b = reader.get_or_compute::<incast_core::IncastRunResult>(&incast_key(cfg), || {
            panic!("a config-written entry must be a raw-key disk hit")
        });
        assert_eq!(a.encode(), b.encode());
    }
    let stats = reader.stats();
    assert_eq!((stats.disk_hits, stats.misses, stats.mem_hits), (3, 0, 0));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn trace_keys_separate_every_field() {
    let base = || TraceConfig::new(ServiceId::Aggregator, 1);
    let variants = [
        {
            let mut c = base();
            c.service = ServiceId::Storage;
            c
        },
        {
            let mut c = base();
            c.duration = SimTime::from_secs(1);
            c
        },
        {
            let mut c = base();
            c.seed = 2;
            c
        },
        {
            let mut c = base();
            c.contention = false;
            c
        },
        {
            let mut c = base();
            c.queue_sample = SimTime::from_us(101);
            c
        },
    ];
    let base_key = trace_key(&base());
    let keys: Vec<String> = variants.iter().map(trace_key).collect();
    for (i, k) in keys.iter().enumerate() {
        assert_ne!(k, &base_key, "variant {i} collided with base");
        for other in keys.iter().skip(i + 1) {
            assert_ne!(k, other);
        }
    }
}

#[test]
fn warm_hit_is_byte_identical_to_cold_run() {
    let dir = std::env::temp_dir().join(format!(
        "incast-cache-prop-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ModesConfig {
        num_flows: 10,
        burst_duration_ms: 1.0,
        num_bursts: 3,
        warmup_bursts: 1,
        flight_sample: Some(SimTime::from_us(200)),
        seed: 9,
        ..ModesConfig::default()
    };
    let cold = run_incast(&cfg);

    let cache = RunCache::with_disk(&dir);
    let first = run_incast_cached(&cfg, &cache);
    assert_eq!(cache.stats().misses, 1);
    // Fresh cache over the same dir: forces the disk decode path.
    let cache2 = RunCache::with_disk(&dir);
    let decoded = run_incast_cached(&cfg, &cache2);
    assert_eq!(cache2.stats().disk_hits, 1);

    // Byte identity through the full encode/decode cycle, and against a
    // plain uncached run (wall-clock is the one field allowed to differ
    // between two separate executions).
    assert_eq!(first.encode(), decoded.encode());
    assert_eq!(wall_free(&cold), wall_free(&decoded));
    // Spot-check decoded structure (not just the encoding): per-burst
    // BCTs, flight series, and the profile survive exactly.
    assert_eq!(cold.bcts_ms, decoded.bcts_ms);
    assert_eq!(cold.flights.len(), decoded.flights.len());
    assert_eq!(cold.profile.tallies, decoded.profile.tallies);
    assert_eq!(cold.finished_at, decoded.finished_at);

    let _ = std::fs::remove_dir_all(&dir);
}

/// 3. A damaged on-disk entry — truncated, garbled, or outright binary
///    noise — is a cache *miss*, never a panic or a wrong decode: the
///    strict scanner rejects it and the value is recomputed and rewritten.
#[test]
fn corrupted_disk_entries_miss_instead_of_panicking() {
    let dir = std::env::temp_dir().join(format!(
        "incast-cache-corrupt-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ModesConfig {
        num_flows: 4,
        burst_duration_ms: 0.5,
        num_bursts: 1,
        warmup_bursts: 0,
        seed: 3,
        ..ModesConfig::default()
    };
    let key = incast_key(&cfg);
    let entry = dir.join(format!("{:016x}.jsonl", fnv1a64(&key)));

    // Seed the directory with one valid entry.
    let seed_cache = RunCache::with_disk(&dir);
    let reference = run_incast_cached(&cfg, &seed_cache);
    assert_eq!(seed_cache.stats().disk_writes, 1);
    let pristine = std::fs::read_to_string(&entry).expect("entry written");
    let (meta, payload) = pristine.split_once('\n').expect("meta line");

    let corruptions: Vec<(&str, String)> = vec![
        // Payload cut mid-record: the scanner runs off the end.
        (
            "truncated payload",
            format!("{meta}\n{}", &payload[..payload.len() / 2]),
        ),
        // Meta line survives but the payload is not JSON at all.
        ("garbled payload", format!("{meta}\nnot json {{]!\n")),
        // A digit swapped for a letter deep inside an otherwise-valid body.
        (
            "flipped byte",
            format!("{meta}\n{}", payload.replacen(':', ":x", 1)),
        ),
        // Nothing after the meta line.
        ("missing payload", format!("{meta}\n")),
        // Zero-length file.
        ("empty file", String::new()),
        // Meta mismatch (wrong schema/key) must miss even with a valid body.
        ("garbled meta", format!("{{\"v\":999}}\n{payload}")),
        // Binary noise, including an invalid-UTF-8 decoy handled below.
        ("binary noise", "\u{1}\u{2}\u{3}\n[1,2,".to_string()),
        // Well-formed, but a series no `TimeSeries` can have.
        (
            "zero queue interval",
            format!(
                "{meta}\n{}",
                payload.replacen(
                    r#""queue_pkts":{"interval":20000000"#,
                    r#""queue_pkts":{"interval":0"#,
                    1
                )
            ),
        ),
    ];

    assert!(corruptions[7].1.contains(r#""queue_pkts":{"interval":0,"#));
    for (name, body) in &corruptions {
        std::fs::write(&entry, body).expect("inject corruption");
        let cache = RunCache::with_disk(&dir);
        let recomputed = run_incast_cached(&cfg, &cache);
        let stats = cache.stats();
        assert_eq!(stats.disk_hits, 0, "'{name}' decoded as a hit");
        assert_eq!(stats.misses, 1, "'{name}' did not fall through to a miss");
        assert_eq!(
            recomputed.bcts_ms, reference.bcts_ms,
            "'{name}' recompute diverged"
        );
        // The recompute must also have repaired the entry on disk (byte
        // identical up to the wall-clock field, which varies per execution).
        let repaired = std::fs::read_to_string(&entry).expect("entry rewritten");
        assert_eq!(
            entry_wall_free(&repaired),
            entry_wall_free(&pristine),
            "'{name}' left a bad entry behind"
        );
    }

    // Mid-write kill: a writer died after creating its temp file but
    // before the atomic rename. The stale `.tmp` must be invisible to
    // readers (the published entry is still the pristine one), and a
    // subsequent write must publish cleanly alongside it.
    std::fs::write(&entry, &pristine).expect("restore entry");
    let stale_tmp = dir.join(format!(".{:016x}.jsonl.999999.tmp", fnv1a64(&key)));
    std::fs::write(&stale_tmp, &pristine[..pristine.len() / 3]).expect("stale tmp");
    {
        let cache = RunCache::with_disk(&dir);
        let warmed = run_incast_cached(&cfg, &cache);
        assert_eq!(cache.stats().disk_hits, 1, "stale tmp shadowed the entry");
        assert_eq!(warmed.bcts_ms, reference.bcts_ms);
    }
    // Kill the published entry too: only the half-written tmp remains.
    // That is a miss, and the recompute republishes a valid entry.
    std::fs::remove_file(&entry).expect("drop entry");
    {
        let cache = RunCache::with_disk(&dir);
        let recomputed = run_incast_cached(&cfg, &cache);
        let stats = cache.stats();
        assert_eq!(stats.disk_hits, 0, "orphan tmp decoded as a hit");
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.disk_writes, 1);
        assert_eq!(recomputed.bcts_ms, reference.bcts_ms);
        let republished = std::fs::read_to_string(&entry).expect("entry republished");
        assert_eq!(entry_wall_free(&republished), entry_wall_free(&pristine));
    }
    let _ = std::fs::remove_file(&stale_tmp);

    // Invalid UTF-8 bytes (read_to_string fails entirely).
    std::fs::write(&entry, [0xFF, 0xFE, 0x00, 0xC3]).expect("inject corruption");
    let cache = RunCache::with_disk(&dir);
    let recomputed = run_incast_cached(&cfg, &cache);
    assert_eq!(cache.stats().disk_hits, 0);
    assert_eq!(recomputed.bcts_ms, reference.bcts_ms);

    let _ = std::fs::remove_dir_all(&dir);
}

/// 4. An entry a schema-v4 build left on disk is a miss: outside a
///    checkout both builds call themselves `"unknown"`, so only the schema
///    version tells them apart. The v4 file sits under the hash of its v4
///    key and is never looked at; copied over the v5 entry's name (a cache
///    directory migrated by hand) its meta line still gives it away.
#[test]
fn entries_from_schema_v4_miss_instead_of_decoding() {
    let dir = std::env::temp_dir().join(format!(
        "incast-cache-v4-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ModesConfig {
        num_flows: 4,
        burst_duration_ms: 0.5,
        num_bursts: 1,
        warmup_bursts: 0,
        seed: 3,
        ..ModesConfig::default()
    };
    let key = incast_key(&cfg);
    assert!(key.starts_with("incast/v5|"), "{key}");
    let entry_of = |key: &str| dir.join(format!("{:016x}.jsonl", fnv1a64(key)));

    // What this build writes, re-labelled as schema v4 would have.
    let seed_cache = RunCache::with_disk(&dir);
    let reference = run_incast_cached(&cfg, &seed_cache);
    let v5 = std::fs::read_to_string(entry_of(&key)).expect("entry written");
    assert!(v5.starts_with(r#"{"v":5,"#), "{v5}");
    let v4_key = key.replacen("incast/v5|", "incast/v4|", 1);
    let v4 = v5
        .replacen(r#"{"v":5,"#, r#"{"v":4,"#, 1)
        .replacen("incast/v5|", "incast/v4|", 1);
    std::fs::remove_file(entry_of(&key)).expect("drop the v5 entry");

    for (name, path) in [
        ("under its own v4 name", entry_of(&v4_key)),
        ("renamed over the v5 entry", entry_of(&key)),
    ] {
        std::fs::write(&path, &v4).expect("plant v4 entry");
        let cache = RunCache::with_disk(&dir);
        let recomputed = run_incast_cached(&cfg, &cache);
        let stats = cache.stats();
        assert_eq!(stats.disk_hits, 0, "v4 entry {name} decoded as a hit");
        assert_eq!(stats.misses, 1, "v4 entry {name} was not a miss");
        assert_eq!(recomputed.bcts_ms, reference.bcts_ms);
        assert_eq!(recomputed.profile.tallies, reference.profile.tallies);
        std::fs::remove_file(entry_of(&key)).expect("recompute republished");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
