//! Topology construction.
//!
//! [`NetworkBuilder`] accumulates hosts, switches, shared buffers, and
//! full-duplex cables, then computes shortest-path forwarding tables and
//! produces a ready [`Simulator`]. Routing is deterministic: BFS visits
//! links in id order, so equal-cost ties always resolve the same way.

use crate::buffer::BufferPolicy;
use crate::event::Scheduler;
use crate::ids::{BufferId, LinkId, NodeId};
use crate::link::{Link, LinkConfig};
use crate::node::Node;
use crate::sim::Simulator;
use crate::wheel::TimingWheel;
use crate::SharedBuffer;

struct LinkSpec {
    src: NodeId,
    dst: NodeId,
    cfg: LinkConfig,
}

struct SwitchSpec {
    buffer: Option<BufferId>,
}

enum NodeSpec {
    Host { name: String },
    Switch { name: String, spec: SwitchSpec },
}

/// Incremental network description; call [`NetworkBuilder::build`] to get a
/// runnable [`Simulator`].
#[derive(Default)]
pub struct NetworkBuilder {
    nodes: Vec<NodeSpec>,
    links: Vec<LinkSpec>,
    buffers: Vec<SharedBuffer>,
}

impl NetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an end host.
    pub fn add_host(&mut self, name: &str) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeSpec::Host { name: name.into() });
        id
    }

    /// Adds a switch with per-port (unshared) buffering.
    pub fn add_switch(&mut self, name: &str) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeSpec::Switch {
            name: name.into(),
            spec: SwitchSpec { buffer: None },
        });
        id
    }

    /// Adds a switch whose egress queues all charge one shared memory pool.
    pub fn add_switch_with_buffer(
        &mut self,
        name: &str,
        total_bytes: u64,
        policy: BufferPolicy,
    ) -> NodeId {
        let bid = BufferId(self.buffers.len() as u32);
        self.buffers.push(SharedBuffer::new(total_bytes, policy));
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(NodeSpec::Switch {
            name: name.into(),
            spec: SwitchSpec { buffer: Some(bid) },
        });
        id
    }

    /// Cables `a` and `b` with a full-duplex link: `a_to_b` configures the
    /// `a -> b` direction, `b_to_a` the reverse. Returns the two link ids in
    /// that order.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        a_to_b: LinkConfig,
        b_to_a: LinkConfig,
    ) -> (LinkId, LinkId) {
        assert!(a != b, "self-loop link");
        let l0 = LinkId(self.links.len() as u32);
        self.links.push(LinkSpec {
            src: a,
            dst: b,
            cfg: a_to_b,
        });
        let l1 = LinkId(self.links.len() as u32);
        self.links.push(LinkSpec {
            src: b,
            dst: a,
            cfg: b_to_a,
        });
        (l0, l1)
    }

    /// Finalizes the topology: computes forwarding tables and returns a
    /// simulator seeded with `seed` (used only for fault injection),
    /// running on the default [`TimingWheel`] scheduler.
    ///
    /// Panics on malformed topologies (host with zero or multiple uplinks).
    pub fn build(self, seed: u64) -> Simulator {
        self.build_with_scheduler::<TimingWheel>(seed)
    }

    /// Like [`NetworkBuilder::build`], but with an explicit [`Scheduler`] —
    /// used by the differential tests and benchmarks to run the same
    /// topology on the reference heap.
    pub fn build_with_scheduler<S: Scheduler>(self, seed: u64) -> Simulator<S> {
        let n = self.nodes.len();
        let is_switch: Vec<bool> = self
            .nodes
            .iter()
            .map(|spec| matches!(spec, NodeSpec::Switch { .. }))
            .collect();

        // Egress links per node, ascending: host uplinks, switch ports.
        let mut egress: Vec<Vec<LinkId>> = vec![Vec::new(); n];
        for (i, spec) in self.links.iter().enumerate() {
            egress[spec.src.index()].push(LinkId(i as u32));
        }
        // A host's attachment switch: where its (single) uplink lands.
        // `connect` is bidirectional, so a single-uplink host has exactly
        // one neighbor and one downlink — it can never be transit, which
        // is what lets routing below run over switches only. A host cabled
        // to another host has no attachment switch and no routes.
        let mut attach: Vec<Option<usize>> = vec![None; n];
        for (i, spec) in self.nodes.iter().enumerate() {
            if let NodeSpec::Host { name } = spec {
                let ups = &egress[i];
                assert!(
                    ups.len() <= 1,
                    "host {name} has {} uplinks (max 1)",
                    ups.len()
                );
                attach[i] = ups
                    .first()
                    .map(|l| self.links[l.index()].dst.index())
                    .filter(|&at| is_switch[at]);
            }
        }

        // Hop distances between switches over switch-to-switch links: one
        // BFS per *switch*, row `r` of `hops` holding the distance from
        // every switch to `switches[r]` (links come in reverse pairs, so
        // the forward BFS from the destination measures it; host entries
        // stay unreachable). Switch destinations need routes too —
        // control-plane acknowledgments are addressed to switches.
        let switches: Vec<usize> = (0..n).filter(|&i| is_switch[i]).collect();
        let mut hops = vec![u32::MAX; switches.len() * n];
        let mut frontier = std::collections::VecDeque::new();
        for (r, &d) in switches.iter().enumerate() {
            let dist = &mut hops[r * n..(r + 1) * n];
            dist[d] = 0;
            frontier.push_back(d);
            while let Some(cur) = frontier.pop_front() {
                for &lid in &egress[cur] {
                    let next = self.links[lid.index()].dst.index();
                    if is_switch[next] && dist[next] == u32::MAX {
                        dist[next] = dist[cur] + 1;
                        frontier.push_back(next);
                    }
                }
            }
        }

        // Materialize nodes. Each switch's CSR table is emitted directly:
        // toward a switch, every port that starts a shortest path (ports
        // are scanned in link-id order, so each candidate set is ascending
        // — what makes the primary route and ECMP tie-breaks
        // deterministic); toward a host, its attachment switch's set
        // (shared, not copied) everywhere except at that switch, where it
        // is the host's own downlink.
        let mut nodes = Vec::with_capacity(n);
        for (i, spec) in self.nodes.into_iter().enumerate() {
            match spec {
                NodeSpec::Host { name } => nodes.push(Node::Host {
                    name,
                    uplink: egress[i].first().copied(),
                }),
                NodeSpec::Switch { name, spec } => {
                    let ports = std::mem::take(&mut egress[i]);
                    let mut fwd_index = vec![(0u32, 0u32); n];
                    let mut fwd_links = Vec::new();
                    for (r, &d) in switches.iter().enumerate() {
                        let dist = &hops[r * n..(r + 1) * n];
                        if d == i || dist[i] == u32::MAX {
                            continue;
                        }
                        let off = fwd_links.len();
                        fwd_links.extend(ports.iter().copied().filter(|l| {
                            dist[self.links[l.index()].dst.index()].wrapping_add(1) == dist[i]
                        }));
                        fwd_index[d] = (off as u32, (fwd_links.len() - off) as u32);
                    }
                    for (h, at) in attach.iter().enumerate() {
                        if let Some(at) = *at {
                            fwd_index[h] = fwd_index[at];
                        }
                    }
                    for &l in &ports {
                        let h = self.links[l.index()].dst.index();
                        if !is_switch[h] {
                            fwd_index[h] = (fwd_links.len() as u32, 1);
                            fwd_links.push(l);
                        }
                    }
                    nodes.push(Node::Switch {
                        name,
                        ports,
                        fwd_index,
                        fwd_links,
                        buffer: spec.buffer,
                    });
                }
            }
        }

        // Materialize links; egress queues of buffered switches charge the
        // switch's pool.
        let links: Vec<Link> = self
            .links
            .into_iter()
            .map(|spec| {
                let shared = match &nodes[spec.src.index()] {
                    Node::Switch { buffer, .. } => *buffer,
                    Node::Host { .. } => None,
                };
                Link::new(spec.src, spec.dst, spec.cfg, shared)
            })
            .collect();

        Simulator::assemble(nodes, links, self.buffers, seed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::QueueConfig;
    use crate::time::SimTime;
    use crate::units::Rate;

    fn cfg() -> LinkConfig {
        LinkConfig::new(Rate::gbps(10), SimTime::from_us(1), QueueConfig::host_nic())
    }

    #[test]
    fn routes_through_two_tiers() {
        // h0 - tor0 - spine - tor1 - h1
        let mut b = NetworkBuilder::new();
        let h0 = b.add_host("h0");
        let tor0 = b.add_switch("tor0");
        let spine = b.add_switch("spine");
        let tor1 = b.add_switch("tor1");
        let h1 = b.add_host("h1");
        b.connect(h0, tor0, cfg(), cfg());
        b.connect(tor0, spine, cfg(), cfg());
        b.connect(spine, tor1, cfg(), cfg());
        b.connect(tor1, h1, cfg(), cfg());
        let sim = b.build(0);

        // tor0 must have routes toward both hosts.
        let t0 = sim.node(tor0);
        let to_h1 = t0.next_hop(h1).expect("route to h1");
        assert_eq!(sim.link(to_h1).dst, spine);
        let to_h0 = t0.next_hop(h0).expect("route to h0");
        assert_eq!(sim.link(to_h0).dst, h0);

        // spine routes toward each side's host.
        let sp = sim.node(spine);
        assert_eq!(sim.link(sp.next_hop(h0).unwrap()).dst, tor0);
        assert_eq!(sim.link(sp.next_hop(h1).unwrap()).dst, tor1);
    }

    #[test]
    fn shortest_path_wins_over_longer() {
        // h0 - s0 - s1 - s2 - h1, plus a direct s0-s2 shortcut: the route
        // from s0 to h1 must skip s1.
        let mut b = NetworkBuilder::new();
        let h0 = b.add_host("h0");
        let s0 = b.add_switch("s0");
        let s1 = b.add_switch("s1");
        let s2 = b.add_switch("s2");
        let h1 = b.add_host("h1");
        b.connect(h0, s0, cfg(), cfg());
        b.connect(s0, s1, cfg(), cfg());
        b.connect(s1, s2, cfg(), cfg());
        b.connect(s2, h1, cfg(), cfg());
        b.connect(s0, s2, cfg(), cfg()); // shortcut
        let sim = b.build(0);
        let hop = sim.node(s0).next_hop(h1).unwrap();
        assert_eq!(sim.link(hop).dst, s2, "must take the shortcut port");
    }

    #[test]
    fn parallel_equal_cost_paths_all_become_candidates() {
        // h0 - s0 = s1 - h1 with two parallel s0-s1 cables: both forward
        // links are equal-cost candidates, in ascending link-id order, and
        // the primary route is the lower id.
        let mut b = NetworkBuilder::new();
        let h0 = b.add_host("h0");
        let s0 = b.add_switch("s0");
        let s1 = b.add_switch("s1");
        let h1 = b.add_host("h1");
        b.connect(h0, s0, cfg(), cfg());
        let (t0, _) = b.connect(s0, s1, cfg(), cfg());
        let (t1, _) = b.connect(s0, s1, cfg(), cfg());
        b.connect(s1, h1, cfg(), cfg());
        let sim = b.build(0);
        assert_eq!(sim.node(s0).next_hops(h1), &[t0, t1]);
        assert_eq!(sim.node(s0).next_hop(h1), Some(t0));
        // Toward h0 there is a single candidate (the h0 cable).
        assert_eq!(sim.node(s0).next_hops(h0).len(), 1);
    }

    #[test]
    fn longer_paths_are_not_candidates() {
        // Two-hop alternative s0-s1-s2 must not join the one-hop s0-s2
        // shortcut in the candidate set.
        let mut b = NetworkBuilder::new();
        let h0 = b.add_host("h0");
        let s0 = b.add_switch("s0");
        let s1 = b.add_switch("s1");
        let s2 = b.add_switch("s2");
        let h1 = b.add_host("h1");
        b.connect(h0, s0, cfg(), cfg());
        b.connect(s0, s1, cfg(), cfg());
        b.connect(s1, s2, cfg(), cfg());
        b.connect(s2, h1, cfg(), cfg());
        let (short, _) = b.connect(s0, s2, cfg(), cfg());
        let sim = b.build(0);
        assert_eq!(sim.node(s0).next_hops(h1), &[short]);
    }

    #[test]
    fn switch_destinations_get_routes() {
        // h0 - tor0 - spine - tor1 - h1: every switch can reach every other
        // switch (control acknowledgments are addressed to switches), and
        // host candidate sets are unaffected.
        let mut b = NetworkBuilder::new();
        let h0 = b.add_host("h0");
        let tor0 = b.add_switch("tor0");
        let spine = b.add_switch("spine");
        let tor1 = b.add_switch("tor1");
        let h1 = b.add_host("h1");
        b.connect(h0, tor0, cfg(), cfg());
        b.connect(tor0, spine, cfg(), cfg());
        b.connect(spine, tor1, cfg(), cfg());
        b.connect(tor1, h1, cfg(), cfg());
        let sim = b.build(0);
        // tor0 reaches tor1 via the spine.
        let hop = sim.node(tor0).next_hop(tor1).expect("route to tor1");
        assert_eq!(sim.link(hop).dst, spine);
        // spine reaches both ToRs directly.
        assert_eq!(sim.link(sim.node(spine).next_hop(tor0).unwrap()).dst, tor0);
        assert_eq!(sim.link(sim.node(spine).next_hop(tor1).unwrap()).dst, tor1);
        // No switch ever forwards through a host: the route tor1 -> tor0
        // goes via the spine, not via h1.
        let back = sim.node(tor1).next_hop(tor0).unwrap();
        assert_eq!(sim.link(back).dst, spine);
        // A switch has no route to itself.
        assert!(sim.node(spine).next_hop(spine).is_none());
    }

    /// The pre-optimization routing, kept as an oracle that shares no
    /// code with `build_with_scheduler`: one backward BFS *per destination
    /// node* over every link of the built simulator, then every link that
    /// starts a shortest path, in link-id order. `[switch][dst]`; rows of
    /// hosts stay empty.
    fn all_pairs_bfs(sim: &Simulator) -> Vec<Vec<Vec<LinkId>>> {
        let (n, m) = (sim.num_nodes(), sim.num_links());
        let ends = |l: usize| {
            let link = sim.link(LinkId(l as u32));
            (link.src.index(), link.dst.index())
        };
        let mut fwd = vec![vec![Vec::new(); n]; n];
        for d in 0..n {
            let mut dist = vec![u32::MAX; n];
            dist[d] = 0;
            let mut frontier = std::collections::VecDeque::from([d]);
            while let Some(cur) = frontier.pop_front() {
                for l in 0..m {
                    let (src, dst) = ends(l);
                    if dst == cur && dist[src] == u32::MAX {
                        dist[src] = dist[cur] + 1;
                        frontier.push_back(src);
                    }
                }
            }
            for l in 0..m {
                let (src, dst) = ends(l);
                if !sim.node(NodeId(src as u32)).is_host()
                    && dist[src] != u32::MAX
                    && dist[dst].wrapping_add(1) == dist[src]
                {
                    fwd[src][d].push(LinkId(l as u32));
                }
            }
        }
        fwd
    }

    /// Asserts every (node, destination) candidate set of `sim` equals the
    /// all-pairs oracle's; returns how many non-empty sets were compared.
    fn assert_tables_match_oracle(sim: &Simulator, what: &str) -> usize {
        let oracle = all_pairs_bfs(sim);
        let mut routed = 0;
        for (s, row) in oracle.iter().enumerate() {
            for (d, want) in row.iter().enumerate() {
                let got = sim.node(NodeId(s as u32)).next_hops(NodeId(d as u32));
                assert_eq!(got, &want[..], "{what}: candidates at node {s} toward {d}");
                routed += usize::from(!want.is_empty());
            }
        }
        routed
    }

    #[test]
    fn tables_equal_all_pairs_bfs_on_the_stock_fabrics() {
        use crate::topology::{build_clos, build_dumbbell, build_fabric, ClosConfig, FabricConfig};
        assert!(assert_tables_match_oracle(&build_dumbbell(12, 0).sim, "dumbbell") > 0);
        let two_tor = FabricConfig {
            num_senders: 9,
            num_receivers: 3,
            ..FabricConfig::default()
        };
        assert!(assert_tables_match_oracle(&build_fabric(&two_tor).sim, "two-ToR") > 0);
        // The shapes `tests/ecmp_properties.rs` builds, the degenerate
        // one-rack forms, and a grid around them.
        let mut shapes = vec![(2, 16, 4, 1), (2, 4, 2, 1), (1, 5, 1, 1), (1, 5, 3, 2)];
        for racks in [2, 3, 5] {
            for spines in [1, 2, 3] {
                shapes.push((racks, 3, spines, 2));
            }
        }
        for (racks, hosts_per_rack, spines, num_receivers) in shapes {
            let cfg = ClosConfig {
                racks,
                hosts_per_rack,
                spines,
                num_receivers,
                ..ClosConfig::default()
            };
            let what = format!("clos {racks}x{hosts_per_rack}x{spines}");
            let f = build_clos(&cfg).unwrap();
            assert!(assert_tables_match_oracle(&f.sim, &what) > 0);
            // Cross-rack traffic sees every spine as an equal-cost choice.
            if racks > 1 {
                let leaf = f.sim.node(f.leaves[0]);
                assert_eq!(leaf.next_hops(f.receivers[0]).len(), spines);
                assert_eq!(leaf.next_hops(f.tor_r).len(), spines, "switch destination");
            }
        }
    }

    #[test]
    fn tables_equal_all_pairs_bfs_on_irregular_graphs() {
        // h0 - s0 = s1 - s2 - h1 with a parallel s0-s1 pair and an s0-s2
        // shortcut, plus: an uncabled host, a host-host island, a switch
        // with no host, and a switch island with its own host.
        let mut b = NetworkBuilder::new();
        let h0 = b.add_host("h0");
        let s0 = b.add_switch("s0");
        let lonely = b.add_host("lonely");
        let s1 = b.add_switch("s1");
        let s2 = b.add_switch("s2");
        let h1 = b.add_host("h1");
        let (ia, ib) = (b.add_host("island-a"), b.add_host("island-b"));
        let bare = b.add_switch("bare");
        let (far, far_host) = (b.add_switch("far"), b.add_host("far-host"));
        b.connect(h0, s0, cfg(), cfg());
        b.connect(s0, s1, cfg(), cfg());
        b.connect(ia, ib, cfg(), cfg());
        b.connect(s1, s0, cfg(), cfg()); // parallel, cabled the other way
        b.connect(s1, s2, cfg(), cfg());
        b.connect(far_host, far, cfg(), cfg());
        b.connect(s2, h1, cfg(), cfg());
        b.connect(s0, s2, cfg(), cfg());
        b.connect(bare, s1, cfg(), cfg());
        let sim = b.build(0);
        assert!(assert_tables_match_oracle(&sim, "irregular") > 0);

        // Spot checks, so a bug shared with the oracle cannot hide.
        for unreachable in [lonely, ia, ib, far, far_host] {
            for sw in [s0, s1, s2, bare] {
                assert!(sim.node(sw).next_hops(unreachable).is_empty());
            }
        }
        assert!(sim.node(far).next_hops(h0).is_empty());
        assert_eq!(sim.node(far).next_hops(far_host).len(), 1);
        assert_eq!(sim.node(s1).next_hops(h0).len(), 2, "both parallel cables");
        assert_eq!(sim.node(s1).next_hops(s0).len(), 2, "switch destination");
        assert_eq!(sim.node(bare).next_hops(h1).len(), 1);
        assert!(sim.node(h0).next_hops(h1).is_empty(), "hosts never forward");
    }

    #[test]
    fn host_uplink_is_recorded() {
        let mut b = NetworkBuilder::new();
        let h = b.add_host("h");
        let s = b.add_switch("s");
        let (up, _down) = b.connect(h, s, cfg(), cfg());
        let sim = b.build(0);
        match sim.node(h) {
            Node::Host { uplink, .. } => assert_eq!(*uplink, Some(up)),
            _ => panic!(),
        }
    }

    #[test]
    fn buffered_switch_links_share_pool() {
        let mut b = NetworkBuilder::new();
        let h0 = b.add_host("h0");
        let h1 = b.add_host("h1");
        let s = b.add_switch_with_buffer("s", 1_000_000, BufferPolicy::StaticPool);
        let (_, s_to_h0) = b.connect(h0, s, cfg(), cfg());
        let (_, s_to_h1) = b.connect(h1, s, cfg(), cfg());
        let sim = b.build(0);
        assert_eq!(sim.link(s_to_h0).shared, Some(BufferId(0)));
        assert_eq!(sim.link(s_to_h1).shared, Some(BufferId(0)));
        assert_eq!(sim.buffers().len(), 1);
        // Host egress never charges a pool.
        match sim.node(h0) {
            Node::Host { uplink, .. } => {
                assert_eq!(sim.link(uplink.unwrap()).shared, None)
            }
            _ => panic!(),
        }
    }

    #[test]
    #[should_panic]
    fn self_loop_rejected() {
        let mut b = NetworkBuilder::new();
        let h = b.add_host("h");
        b.connect(h, h, cfg(), cfg());
    }

    #[test]
    #[should_panic]
    fn multi_uplink_host_rejected() {
        let mut b = NetworkBuilder::new();
        let h = b.add_host("h");
        let s0 = b.add_switch("s0");
        let s1 = b.add_switch("s1");
        b.connect(h, s0, cfg(), cfg());
        b.connect(h, s1, cfg(), cfg());
        b.build(0);
    }
}
