//! Structural invariants of the Clos builder: full any-to-any
//! reachability through the forwarding tables, graceful (non-panicking)
//! rejection of degenerate shapes, and the promised isomorphism between
//! the 1-rack/1-spine Clos and the historical dumbbell fabric.

use simnet::{
    build_clos, build_fabric, ClosConfig, FabricConfig, LinkId, Node, NodeId, Scheduler, Simulator,
};

/// Walks the forwarding tables from `from` toward `to`, returning the hop
/// count, or `None` if the walk dead-ends or exceeds `limit` hops. Uses
/// the primary (lowest-id) candidate at each switch; any candidate would
/// do for reachability since all are shortest paths.
fn walk<S: Scheduler>(sim: &Simulator<S>, from: NodeId, to: NodeId, limit: usize) -> Option<usize> {
    let mut at = from;
    for hop in 0..=limit {
        if at == to {
            return Some(hop);
        }
        let link = match sim.node(at) {
            Node::Host { uplink, .. } => (*uplink)?,
            sw => sw.next_hop(to)?,
        };
        at = sim.link(link).dst;
    }
    None
}

#[test]
fn every_host_pair_is_mutually_reachable() {
    let cfg = ClosConfig {
        racks: 3,
        hosts_per_rack: 3,
        spines: 2,
        num_receivers: 2,
        ..ClosConfig::default()
    };
    let f = build_clos(&cfg).unwrap();
    let mut hosts: Vec<NodeId> = f.rack_hosts.iter().flatten().copied().collect();
    hosts.extend(&f.receivers);
    assert_eq!(hosts.len(), 11);
    for &a in &hosts {
        for &b in &hosts {
            if a == b {
                continue;
            }
            let hops = walk(&f.sim, a, b, 8);
            assert!(hops.is_some(), "{a:?} cannot reach {b:?}");
            // Host -> leaf -> spine -> tor -> host is the diameter.
            assert!(hops.unwrap() <= 4, "{a:?} -> {b:?} took {hops:?} hops");
        }
    }
}

#[test]
fn degenerate_shapes_are_rejected_with_errors_not_panics() {
    let shape = |racks, hosts_per_rack, spines, num_receivers| ClosConfig {
        racks,
        hosts_per_rack,
        spines,
        num_receivers,
        ..ClosConfig::default()
    };
    for (cfg, path) in [
        (shape(0, 4, 2, 1), "racks"),
        (shape(2, 0, 2, 1), "hosts_per_rack"),
        (shape(2, 4, 0, 1), "spines"),
        (shape(2, 4, 2, 0), "num_receivers"),
    ] {
        let err = build_clos(&cfg).err().expect(path);
        assert_eq!(err.path, path);
    }
    // The errors render as `path: reason` (they surface in CLI output).
    assert_eq!(
        build_clos(&shape(0, 4, 2, 1)).err().unwrap().to_string(),
        "racks: must be at least 1"
    );
}

#[test]
fn one_rack_one_spine_clos_is_isomorphic_to_the_dumbbell_fabric() {
    let fabric_cfg = FabricConfig {
        num_senders: 6,
        num_receivers: 2,
        seed: 9,
        ..FabricConfig::default()
    };
    let clos_cfg = ClosConfig {
        racks: 1,
        hosts_per_rack: 6,
        spines: 1,
        num_receivers: 2,
        seed: 9,
        ..ClosConfig::default()
    };
    let a = build_fabric(&fabric_cfg);
    let b = build_clos(&clos_cfg).unwrap();

    assert_eq!(a.sim.num_nodes(), b.sim.num_nodes());
    assert_eq!(a.sim.num_links(), b.sim.num_links());
    for i in 0..a.sim.num_nodes() {
        let (na, nb) = (a.sim.node(NodeId(i as u32)), b.sim.node(NodeId(i as u32)));
        assert_eq!(na.name(), nb.name(), "node {i} named differently");
        assert_eq!(na.is_host(), nb.is_host());
    }
    for i in 0..a.sim.num_links() {
        let (la, lb) = (a.sim.link(LinkId(i as u32)), b.sim.link(LinkId(i as u32)));
        assert_eq!((la.src, la.dst), (lb.src, lb.dst), "link {i} differs");
    }
    assert_eq!(a.per_link_propagation, b.per_link_propagation);
    assert_eq!(a.senders, b.rack_hosts[0]);
    assert_eq!(a.receivers, b.receivers);
    assert_eq!(vec![a.trunk], b.rack_uplinks[0]);
    assert_eq!(a.downlinks, b.downlinks);
    // Flow-to-host assignment reduces to the dumbbell's sender order.
    for i in 0..6 {
        assert_eq!(b.host_for_flow(i), a.senders[i]);
    }
}

#[test]
fn one_rack_multi_spine_collapses_to_parallel_trunks_with_full_ecmp() {
    let cfg = ClosConfig {
        racks: 1,
        hosts_per_rack: 4,
        spines: 3,
        ..ClosConfig::default()
    };
    let f = build_clos(&cfg).unwrap();
    assert_eq!(f.rack_uplinks.len(), 1);
    assert_eq!(f.rack_uplinks[0].len(), 3, "one parallel trunk per spine");
    // The sending ToR sees all three trunks as equal-cost candidates.
    let leaf = f.leaves[0];
    let hops = f.sim.node(leaf).next_hops(f.receivers[0]);
    assert_eq!(hops, f.rack_uplinks[0].as_slice());
    // No spine switches exist in the collapsed form.
    assert!(f.spines.is_empty());
}
