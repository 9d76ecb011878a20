//! Canonical topologies from the paper.
//!
//! Section 4 of the paper evaluates incast on a dumbbell: N senders, each
//! with a 10 Gbps link to their ToR, a 100 Gbps trunk between ToRs, and a
//! 10 Gbps downlink to the single receiver — a 10:1 oversubscription at the
//! receiving ToR. [`IncastFabric`] generalizes this to R receivers on the
//! receiving ToR (used for the rack-contention experiments) and computes
//! per-link propagation delays so the base RTT matches a target (30 µs in
//! the paper).

use crate::buffer::BufferPolicy;
use crate::builder::NetworkBuilder;
use crate::event::Scheduler;
use crate::ids::{LinkId, NodeId};
use crate::link::LinkConfig;
use crate::packet::MIN_FRAME_BYTES;
use crate::queue::QueueConfig;
use crate::sim::Simulator;
use crate::time::SimTime;
use crate::units::Rate;
use crate::wheel::TimingWheel;
use stats::ConfigError;

/// Configuration for [`build_fabric`].
#[derive(Debug, Clone)]
pub struct FabricConfig {
    /// Number of sending hosts (behind the sending ToR).
    pub num_senders: usize,
    /// Number of receiving hosts (on the receiving ToR).
    pub num_receivers: usize,
    /// Host NIC rate (paper: 10 Gbps).
    pub host_rate: Rate,
    /// ToR-to-ToR trunk rate (paper: 100 Gbps).
    pub trunk_rate: Rate,
    /// Target base round-trip time including serialization of one MTU data
    /// packet and its ACK (paper: 30 µs).
    pub target_rtt: SimTime,
    /// Wire MTU used for the RTT budget calculation.
    pub mtu_wire: u32,
    /// Egress queue config for ToR ports (paper: 2 MB / 1333 pkts, K = 65).
    pub tor_queue: QueueConfig,
    /// Egress queue config for host NICs (deep, unmarked).
    pub host_queue: QueueConfig,
    /// Shared buffer on the *receiving* ToR: `(total_bytes, policy)`.
    /// `None` gives the paper's per-port static queues.
    pub receiver_tor_buffer: Option<(u64, BufferPolicy)>,
    /// Seed for the simulator's fault-injection RNG.
    pub seed: u64,
}

impl Default for FabricConfig {
    /// The paper's Section 4 setup with one receiver.
    fn default() -> Self {
        FabricConfig {
            num_senders: 100,
            num_receivers: 1,
            host_rate: Rate::gbps(10),
            trunk_rate: Rate::gbps(100),
            target_rtt: SimTime::from_us(30),
            mtu_wire: 1500,
            tor_queue: QueueConfig::paper_tor(),
            host_queue: QueueConfig::host_nic(),
            receiver_tor_buffer: None,
            seed: 0,
        }
    }
}

/// A built incast fabric.
pub struct IncastFabric<S: Scheduler = TimingWheel> {
    /// The runnable simulator.
    pub sim: Simulator<S>,
    /// Sending hosts, in index order.
    pub senders: Vec<NodeId>,
    /// Receiving hosts, in index order.
    pub receivers: Vec<NodeId>,
    /// Sending-side ToR.
    pub tor_s: NodeId,
    /// Receiving-side ToR.
    pub tor_r: NodeId,
    /// Receiver downlinks `tor_r -> receivers[i]`: the bottleneck queues.
    pub downlinks: Vec<LinkId>,
    /// The `tor_s -> tor_r` trunk.
    pub trunk: LinkId,
    /// One-way propagation delay assigned to every link.
    pub per_link_propagation: SimTime,
}

/// Computes the per-link propagation delay such that the base RTT (one MTU
/// data packet sender->receiver plus one minimum-size ACK back, across
/// host-ToR-ToR-host) equals `target`, given serialization costs.
fn per_link_propagation(cfg: &FabricConfig) -> SimTime {
    let data_ser = cfg.host_rate.serialize_time(cfg.mtu_wire as u64)
        + cfg.trunk_rate.serialize_time(cfg.mtu_wire as u64)
        + cfg.host_rate.serialize_time(cfg.mtu_wire as u64);
    let ack = MIN_FRAME_BYTES as u64;
    let ack_ser = cfg.host_rate.serialize_time(ack)
        + cfg.trunk_rate.serialize_time(ack)
        + cfg.host_rate.serialize_time(ack);
    let fixed = data_ser + ack_ser;
    let remaining = cfg.target_rtt.saturating_sub(fixed);
    SimTime::from_ps(remaining.as_ps() / 6)
}

/// Builds the paper's incast fabric.
pub fn build_fabric(cfg: &FabricConfig) -> IncastFabric {
    build_fabric_with::<TimingWheel>(cfg)
}

/// [`build_fabric`] with an explicit [`Scheduler`] (for the differential
/// wheel-vs-heap tests and benchmarks).
pub fn build_fabric_with<S: Scheduler>(cfg: &FabricConfig) -> IncastFabric<S> {
    build_two_tor_with(cfg, 1).0
}

/// The two-ToR fabric with `trunks` parallel `tor_s <-> tor_r` cables.
/// With `trunks == 1` the builder-call sequence is exactly the historical
/// `build_fabric` one, so node ids, link ids, and every downstream
/// observable are byte-identical to it — the degenerate 1-rack Clos rides
/// this path. With more trunks the extra cables become an equal-cost set
/// at each ToR, resolved per flow by ECMP. Returns the fabric plus all
/// forward trunk links in link-id order.
fn build_two_tor_with<S: Scheduler>(
    cfg: &FabricConfig,
    trunks: usize,
) -> (IncastFabric<S>, Vec<LinkId>) {
    assert!(cfg.num_senders > 0, "need at least one sender");
    assert!(cfg.num_receivers > 0, "need at least one receiver");
    assert!(trunks > 0, "need at least one trunk");
    let prop = per_link_propagation(cfg);
    let mut b = NetworkBuilder::new();

    let tor_s = b.add_switch("tor-s");
    let tor_r = match cfg.receiver_tor_buffer {
        Some((total, policy)) => b.add_switch_with_buffer("tor-r", total, policy),
        None => b.add_switch("tor-r"),
    };

    let host_link = |rate: Rate, q: &QueueConfig| LinkConfig::new(rate, prop, q.clone());

    let mut senders = Vec::with_capacity(cfg.num_senders);
    for i in 0..cfg.num_senders {
        let h = b.add_host(&format!("sender-{i}"));
        // Host egress uses the deep NIC queue; the ToR's reverse port uses
        // the ToR queue config.
        b.connect(
            h,
            tor_s,
            host_link(cfg.host_rate, &cfg.host_queue),
            host_link(cfg.host_rate, &cfg.tor_queue),
        );
        senders.push(h);
    }

    let mut trunk_links = Vec::with_capacity(trunks);
    for _ in 0..trunks {
        let (trunk, _back) = b.connect(
            tor_s,
            tor_r,
            LinkConfig::new(cfg.trunk_rate, prop, cfg.tor_queue.clone()),
            LinkConfig::new(cfg.trunk_rate, prop, cfg.tor_queue.clone()),
        );
        trunk_links.push(trunk);
    }

    let mut receivers = Vec::with_capacity(cfg.num_receivers);
    let mut downlinks = Vec::with_capacity(cfg.num_receivers);
    for i in 0..cfg.num_receivers {
        let h = b.add_host(&format!("receiver-{i}"));
        let (_up, down) = b.connect(
            h,
            tor_r,
            host_link(cfg.host_rate, &cfg.host_queue),
            host_link(cfg.host_rate, &cfg.tor_queue),
        );
        receivers.push(h);
        downlinks.push(down);
    }

    let fabric = IncastFabric {
        sim: b.build_with_scheduler::<S>(cfg.seed),
        senders,
        receivers,
        tor_s,
        tor_r,
        downlinks,
        trunk: trunk_links[0],
        per_link_propagation: prop,
    };
    (fabric, trunk_links)
}

/// The single-receiver dumbbell of the paper's Section 4.
pub fn build_dumbbell(num_senders: usize, seed: u64) -> IncastFabric {
    build_fabric(&FabricConfig {
        num_senders,
        seed,
        ..FabricConfig::default()
    })
}

// ---- multi-rack Clos ------------------------------------------------------

/// Configuration for [`build_clos`]: a leaf/spine Clos with `racks` leaf
/// switches of `hosts_per_rack` hosts each, every leaf cabled to every
/// spine, and the receiving ToR (carrying `num_receivers` hosts) likewise
/// cabled to every spine — so cross-rack traffic takes
/// `host -> leaf -> spine -> tor_r -> receiver` and the leaf's spine
/// uplinks form an equal-cost set spread by flow-level ECMP.
#[derive(Debug, Clone)]
pub struct ClosConfig {
    /// Number of sender racks (leaf switches).
    pub racks: usize,
    /// Hosts behind each leaf.
    pub hosts_per_rack: usize,
    /// Number of spine switches every leaf uplinks to.
    pub spines: usize,
    /// Receiving hosts on the receiving ToR.
    pub num_receivers: usize,
    /// Host NIC rate (paper: 10 Gbps).
    pub host_rate: Rate,
    /// Leaf-to-spine and spine-to-ToR fabric link rate (paper trunk:
    /// 100 Gbps).
    pub fabric_rate: Rate,
    /// Target base round-trip time across the 4-hop path, including
    /// serialization of one MTU data packet and its ACK.
    pub target_rtt: SimTime,
    /// Wire MTU used for the RTT budget calculation.
    pub mtu_wire: u32,
    /// Egress queue config for leaf/ToR ports.
    pub tor_queue: QueueConfig,
    /// Egress queue config for host NICs (deep, unmarked).
    pub host_queue: QueueConfig,
    /// Egress queue config for spine ports.
    pub spine_queue: QueueConfig,
    /// Shared buffer on the receiving ToR: `(total_bytes, policy)`.
    pub receiver_tor_buffer: Option<(u64, BufferPolicy)>,
    /// Shared buffer on each spine: `(total_bytes, policy)`. Ignored in
    /// the degenerate 1-rack form, which has no spine tier.
    pub spine_buffer: Option<(u64, BufferPolicy)>,
    /// Seed for the simulator's fault-injection RNG *and* the flow-level
    /// ECMP rendezvous hash.
    pub seed: u64,
}

impl Default for ClosConfig {
    /// A small paper-parameterized Clos: 4 racks x 25 hosts over 4 spines.
    fn default() -> Self {
        ClosConfig {
            racks: 4,
            hosts_per_rack: 25,
            spines: 4,
            num_receivers: 1,
            host_rate: Rate::gbps(10),
            fabric_rate: Rate::gbps(100),
            target_rtt: SimTime::from_us(30),
            mtu_wire: 1500,
            tor_queue: QueueConfig::paper_tor(),
            host_queue: QueueConfig::host_nic(),
            spine_queue: QueueConfig::paper_tor(),
            receiver_tor_buffer: None,
            spine_buffer: None,
            seed: 0,
        }
    }
}

/// A built Clos fabric.
pub struct ClosFabric<S: Scheduler = TimingWheel> {
    /// The runnable simulator.
    pub sim: Simulator<S>,
    /// Hosts per rack, rack-major: `rack_hosts[r][i]` is host `i` of
    /// rack `r`.
    pub rack_hosts: Vec<Vec<NodeId>>,
    /// Receiving hosts on the receiving ToR, in index order.
    pub receivers: Vec<NodeId>,
    /// Leaf (rack ToR) switches, in rack order. One entry (the shared
    /// sending ToR) in the degenerate 1-rack form.
    pub leaves: Vec<NodeId>,
    /// Spine switches. Empty in the degenerate 1-rack form, where the
    /// "spines" collapse to parallel ToR-to-ToR trunks.
    pub spines: Vec<NodeId>,
    /// The receiving ToR.
    pub tor_r: NodeId,
    /// Per-rack spine uplinks: `rack_uplinks[r][k]` carries rack `r`'s
    /// traffic to spine `k` (or, in the 1-rack form, is the `k`-th
    /// parallel trunk). These are the ECMP candidate sets.
    pub rack_uplinks: Vec<Vec<LinkId>>,
    /// `spines[k] -> tor_r` links. Empty in the 1-rack form.
    pub spine_downlinks: Vec<LinkId>,
    /// Receiver downlinks `tor_r -> receivers[i]`: the bottleneck queues.
    pub downlinks: Vec<LinkId>,
    /// One-way propagation delay assigned to every link.
    pub per_link_propagation: SimTime,
}

impl<S: Scheduler> ClosFabric<S> {
    /// Total sender hosts across all racks.
    pub fn num_hosts(&self) -> usize {
        self.rack_hosts.iter().map(Vec::len).sum()
    }

    /// Deterministic sender assignment for flow `i`: round-robin across
    /// racks, then down each rack — `rack_hosts[i % racks][i / racks]`.
    /// With one rack this is exactly the dumbbell's `senders[i]` order,
    /// so flow-to-host maps are identical across the degenerate pair.
    pub fn host_for_flow(&self, i: usize) -> NodeId {
        let r = i % self.rack_hosts.len();
        self.rack_hosts[r][i / self.rack_hosts.len()]
    }
}

/// Per-link propagation for the 4-hop Clos path: the base RTT budget is
/// one MTU data packet plus its minimum-frame ACK crossing
/// `host -> leaf -> spine -> tor_r -> host` (8 one-way link traversals
/// round trip), so the residual after serialization splits 8 ways.
fn clos_per_link_propagation(cfg: &ClosConfig) -> SimTime {
    let data_ser = cfg.host_rate.serialize_time(cfg.mtu_wire as u64)
        + cfg.fabric_rate.serialize_time(cfg.mtu_wire as u64)
        + cfg.fabric_rate.serialize_time(cfg.mtu_wire as u64)
        + cfg.host_rate.serialize_time(cfg.mtu_wire as u64);
    let ack = MIN_FRAME_BYTES as u64;
    let ack_ser = cfg.host_rate.serialize_time(ack)
        + cfg.fabric_rate.serialize_time(ack)
        + cfg.fabric_rate.serialize_time(ack)
        + cfg.host_rate.serialize_time(ack);
    let fixed = data_ser + ack_ser;
    let remaining = cfg.target_rtt.saturating_sub(fixed);
    SimTime::from_ps(remaining.as_ps() / 8)
}

/// Builds a leaf/spine Clos fabric (wheel scheduler).
pub fn build_clos(cfg: &ClosConfig) -> Result<ClosFabric, ConfigError> {
    build_clos_with::<TimingWheel>(cfg)
}

/// [`build_clos`] with an explicit [`Scheduler`]. A shape with no racks,
/// hosts, spines or receivers is a [`ConfigError`] at that field, not a
/// panic, so sweep and fuzz layers can report it as data.
///
/// The degenerate `racks == 1` form collapses the spine tier to `spines`
/// parallel ToR-to-ToR trunks via the same internal builder as
/// [`build_fabric`]; with `spines == 1` too, the built simulator is
/// byte-identical to `build_fabric` of the corresponding [`FabricConfig`]
/// (same builder-call sequence, hence same node ids, link ids, and
/// event stream — `tests/fabric_equivalence.rs` pins this).
pub fn build_clos_with<S: Scheduler>(cfg: &ClosConfig) -> Result<ClosFabric<S>, ConfigError> {
    let shape = [
        ("racks", cfg.racks),
        ("hosts_per_rack", cfg.hosts_per_rack),
        ("spines", cfg.spines),
        ("num_receivers", cfg.num_receivers),
    ];
    if let Some((path, _)) = shape.iter().find(|(_, n)| *n == 0) {
        return Err(ConfigError::new(*path, "must be at least 1"));
    }

    if cfg.racks == 1 {
        let fcfg = FabricConfig {
            num_senders: cfg.hosts_per_rack,
            num_receivers: cfg.num_receivers,
            host_rate: cfg.host_rate,
            trunk_rate: cfg.fabric_rate,
            target_rtt: cfg.target_rtt,
            mtu_wire: cfg.mtu_wire,
            tor_queue: cfg.tor_queue.clone(),
            host_queue: cfg.host_queue.clone(),
            receiver_tor_buffer: cfg.receiver_tor_buffer,
            seed: cfg.seed,
        };
        let (f, trunks) = build_two_tor_with::<S>(&fcfg, cfg.spines);
        return Ok(ClosFabric {
            sim: f.sim,
            rack_hosts: vec![f.senders],
            receivers: f.receivers,
            leaves: vec![f.tor_s],
            spines: Vec::new(),
            tor_r: f.tor_r,
            rack_uplinks: vec![trunks],
            spine_downlinks: Vec::new(),
            downlinks: f.downlinks,
            per_link_propagation: f.per_link_propagation,
        });
    }

    let prop = clos_per_link_propagation(cfg);
    let mut b = NetworkBuilder::new();

    let leaves: Vec<NodeId> = (0..cfg.racks)
        .map(|r| b.add_switch(&format!("leaf-{r}")))
        .collect();
    let tor_r = match cfg.receiver_tor_buffer {
        Some((total, policy)) => b.add_switch_with_buffer("tor-r", total, policy),
        None => b.add_switch("tor-r"),
    };
    let spines: Vec<NodeId> = (0..cfg.spines)
        .map(|k| match cfg.spine_buffer {
            Some((total, policy)) => b.add_switch_with_buffer(&format!("spine-{k}"), total, policy),
            None => b.add_switch(&format!("spine-{k}")),
        })
        .collect();

    let host_link = |rate: Rate, q: &QueueConfig| LinkConfig::new(rate, prop, q.clone());

    let mut rack_hosts = Vec::with_capacity(cfg.racks);
    for (r, &leaf) in leaves.iter().enumerate() {
        let mut hosts = Vec::with_capacity(cfg.hosts_per_rack);
        for i in 0..cfg.hosts_per_rack {
            let h = b.add_host(&format!("rack{r}-host{i}"));
            b.connect(
                h,
                leaf,
                host_link(cfg.host_rate, &cfg.host_queue),
                host_link(cfg.host_rate, &cfg.tor_queue),
            );
            hosts.push(h);
        }
        rack_hosts.push(hosts);
    }

    // Leaf uplink ports use the ToR queue; spine egress ports (both back
    // toward leaves and down toward the receiving ToR) use the spine
    // queue. Per-rack uplinks land in ascending link-id order, matching
    // the order of the switch's equal-cost candidate sets.
    let mut rack_uplinks = Vec::with_capacity(cfg.racks);
    for &leaf in &leaves {
        let mut ups = Vec::with_capacity(cfg.spines);
        for &spine in &spines {
            let (up, _back) = b.connect(
                leaf,
                spine,
                LinkConfig::new(cfg.fabric_rate, prop, cfg.tor_queue.clone()),
                LinkConfig::new(cfg.fabric_rate, prop, cfg.spine_queue.clone()),
            );
            ups.push(up);
        }
        rack_uplinks.push(ups);
    }
    let mut spine_downlinks = Vec::with_capacity(cfg.spines);
    for &spine in &spines {
        let (down, _back) = b.connect(
            spine,
            tor_r,
            LinkConfig::new(cfg.fabric_rate, prop, cfg.spine_queue.clone()),
            LinkConfig::new(cfg.fabric_rate, prop, cfg.tor_queue.clone()),
        );
        spine_downlinks.push(down);
    }

    let mut receivers = Vec::with_capacity(cfg.num_receivers);
    let mut downlinks = Vec::with_capacity(cfg.num_receivers);
    for i in 0..cfg.num_receivers {
        let h = b.add_host(&format!("receiver-{i}"));
        let (_up, down) = b.connect(
            h,
            tor_r,
            host_link(cfg.host_rate, &cfg.host_queue),
            host_link(cfg.host_rate, &cfg.tor_queue),
        );
        receivers.push(h);
        downlinks.push(down);
    }

    Ok(ClosFabric {
        sim: b.build_with_scheduler::<S>(cfg.seed),
        rack_hosts,
        receivers,
        leaves,
        spines,
        tor_r,
        rack_uplinks,
        spine_downlinks,
        downlinks,
        per_link_propagation: prop,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_parameters() {
        let cfg = FabricConfig::default();
        assert_eq!(cfg.host_rate, Rate::gbps(10));
        assert_eq!(cfg.trunk_rate, Rate::gbps(100));
        assert_eq!(cfg.target_rtt, SimTime::from_us(30));
        assert_eq!(cfg.tor_queue.ecn_threshold_pkts, Some(65));
    }

    #[test]
    fn propagation_budget_fills_target_rtt() {
        let cfg = FabricConfig::default();
        let prop = per_link_propagation(&cfg);
        // Data serialization: 1.2 + 0.12 + 1.2 us; ACK: 51.2 + 5.12 + 51.2 ns.
        let fixed_ps = (1_200_000 + 120_000 + 1_200_000) + (51_200 + 5_120 + 51_200);
        let expected = (30_000_000u64 - fixed_ps) / 6;
        assert_eq!(prop.as_ps(), expected);
        // Round trip = 6 props + fixed ~= 30 us (within integer division).
        let rtt = prop.as_ps() * 6 + fixed_ps;
        assert!((rtt as i64 - 30_000_000).unsigned_abs() < 6);
    }

    #[test]
    fn propagation_clamps_when_target_too_small() {
        let cfg = FabricConfig {
            target_rtt: SimTime::from_ns(100),
            ..FabricConfig::default()
        };
        assert_eq!(per_link_propagation(&cfg), SimTime::ZERO);
    }

    #[test]
    fn fabric_shape() {
        let f = build_fabric(&FabricConfig {
            num_senders: 3,
            num_receivers: 2,
            ..FabricConfig::default()
        });
        assert_eq!(f.senders.len(), 3);
        assert_eq!(f.receivers.len(), 2);
        assert_eq!(f.downlinks.len(), 2);
        // 3 sender cables + 1 trunk + 2 receiver cables = 6 duplex = 12 links.
        assert_eq!(f.sim.num_links(), 12);
        // Downlinks start at tor_r and end at receivers.
        for (i, &dl) in f.downlinks.iter().enumerate() {
            assert_eq!(f.sim.link(dl).src, f.tor_r);
            assert_eq!(f.sim.link(dl).dst, f.receivers[i]);
        }
        // The bottleneck queue uses the paper's ToR parameters.
        assert_eq!(
            f.sim.link(f.downlinks[0]).queue.config().ecn_threshold_pkts,
            Some(65)
        );
    }

    #[test]
    fn shared_buffer_applies_to_receiver_tor_only() {
        let f = build_fabric(&FabricConfig {
            num_senders: 2,
            num_receivers: 2,
            receiver_tor_buffer: Some((1_000_000, BufferPolicy::DynamicThreshold { alpha: 1.0 })),
            ..FabricConfig::default()
        });
        assert!(f.sim.link(f.downlinks[0]).shared.is_some());
        assert!(f.sim.link(f.downlinks[1]).shared.is_some());
        assert!(f.sim.link(f.trunk).shared.is_none(), "tor_s is unbuffered");
        assert_eq!(f.sim.buffers().len(), 1);
    }

    #[test]
    fn dumbbell_is_single_receiver() {
        let f = build_dumbbell(5, 7);
        assert_eq!(f.senders.len(), 5);
        assert_eq!(f.receivers.len(), 1);
    }

    #[test]
    fn clos_rejects_degenerate_shapes_with_errors() {
        let zero = |f: fn(&mut ClosConfig)| {
            let mut cfg = ClosConfig::default();
            f(&mut cfg);
            build_clos(&cfg)
        };
        let path = |f| zero(f).err().map(|e| e.path);
        assert_eq!(path(|c| c.racks = 0).as_deref(), Some("racks"));
        assert_eq!(
            path(|c| c.hosts_per_rack = 0).as_deref(),
            Some("hosts_per_rack")
        );
        assert_eq!(path(|c| c.spines = 0).as_deref(), Some("spines"));
        assert_eq!(
            path(|c| c.num_receivers = 0).as_deref(),
            Some("num_receivers")
        );
        assert_eq!(
            zero(|c| c.spines = 0).err().unwrap().to_string(),
            "spines: must be at least 1"
        );
    }

    #[test]
    fn clos_shape_and_ecmp_candidate_sets() {
        let cfg = ClosConfig {
            racks: 3,
            hosts_per_rack: 4,
            spines: 2,
            num_receivers: 2,
            ..ClosConfig::default()
        };
        let f = build_clos(&cfg).unwrap();
        assert_eq!(f.leaves.len(), 3);
        assert_eq!(f.spines.len(), 2);
        assert_eq!(f.num_hosts(), 12);
        assert_eq!(f.receivers.len(), 2);
        // Cables: 12 host + 3*2 leaf-spine + 2 spine-torR + 2 receiver,
        // each duplex.
        assert_eq!(f.sim.num_links(), 2 * (12 + 6 + 2 + 2));
        // Uplinks run leaf -> spine in spine order.
        for (r, ups) in f.rack_uplinks.iter().enumerate() {
            assert_eq!(ups.len(), 2);
            for (k, &up) in ups.iter().enumerate() {
                assert_eq!(f.sim.link(up).src, f.leaves[r]);
                assert_eq!(f.sim.link(up).dst, f.spines[k]);
            }
        }
        // Each leaf sees every spine uplink as an equal-cost candidate
        // toward every receiver; each spine has a single path onward.
        for (r, &leaf) in f.leaves.iter().enumerate() {
            assert_eq!(
                f.sim.node(leaf).next_hops(f.receivers[0]),
                f.rack_uplinks[r].as_slice()
            );
        }
        for (k, &spine) in f.spines.iter().enumerate() {
            assert_eq!(
                f.sim.node(spine).next_hops(f.receivers[1]),
                &[f.spine_downlinks[k]]
            );
        }
        // host_for_flow round-robins across racks.
        assert_eq!(f.host_for_flow(0), f.rack_hosts[0][0]);
        assert_eq!(f.host_for_flow(1), f.rack_hosts[1][0]);
        assert_eq!(f.host_for_flow(3), f.rack_hosts[0][1]);
    }

    #[test]
    fn one_rack_clos_collapses_to_parallel_trunks() {
        let cfg = ClosConfig {
            racks: 1,
            hosts_per_rack: 5,
            spines: 3,
            ..ClosConfig::default()
        };
        let f = build_clos(&cfg).unwrap();
        assert!(f.spines.is_empty());
        assert!(f.spine_downlinks.is_empty());
        assert_eq!(f.rack_uplinks[0].len(), 3);
        // The parallel trunks are the sending ToR's equal-cost set.
        assert_eq!(
            f.sim.node(f.leaves[0]).next_hops(f.receivers[0]),
            f.rack_uplinks[0].as_slice()
        );
        for i in 0..5 {
            assert_eq!(f.host_for_flow(i), f.rack_hosts[0][i]);
        }
    }

    #[test]
    fn clos_propagation_budget_fills_target_rtt() {
        let cfg = ClosConfig::default();
        let prop = clos_per_link_propagation(&cfg);
        // Data: 1.2 + 0.12 + 0.12 + 1.2 us; ACK: 51.2 + 5.12 + 5.12 + 51.2 ns.
        let fixed_ps =
            (1_200_000 + 120_000 + 120_000 + 1_200_000) + (51_200 + 5_120 + 5_120 + 51_200);
        assert_eq!(prop.as_ps(), (30_000_000u64 - fixed_ps) / 8);
        let rtt = prop.as_ps() * 8 + fixed_ps;
        assert!((rtt as i64 - 30_000_000).unsigned_abs() < 8);
    }
}
