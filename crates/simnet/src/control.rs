//! In-fabric incast detection and notification (the control plane).
//!
//! Switches monitor a configured set of egress ports. Each monitored port
//! keeps a sliding arrival window (two half-window buckets, rotated lazily
//! from packet arrivals — no timers or allocations while idle) counting
//! distinct data flows and offered bytes at constant work per frame: one
//! hash probe stamps the flow with the bucket generation it was last seen
//! in, and a running counter carries the distinct total across rotations.
//! When both the flow-count and the arrival-rate triggers fire, the switch
//! opens an *episode*: it multicasts
//! [`crate::packet::PacketKind::Notif`] frames to every sender host seen in
//! the window and re-fires unacknowledged targets with capped exponential
//! backoff until all have acknowledged or the retry budget is exhausted.
//!
//! Robustness contract (see the differential suites):
//!
//! - Notification frames travel the ordinary data path and take ordinary
//!   faults. Loss is survived by the retry/epoch machinery; a completely
//!   dead control plane (`notif_loss >= 1`) short-circuits *before any
//!   observable effect* — no events, no counters, no RNG draws, no packet
//!   ids — so such runs are byte-identical to mitigation-off baselines.
//! - Partial emission loss draws from a dedicated control RNG, leaving the
//!   main fault RNG sequence untouched (mirroring the "healthy links take
//!   no draws" idiom). With `notif_loss == 0` no draws are taken at all.
//! - Epochs increase per port; senders idempotently ignore stale or
//!   duplicated epochs but always acknowledge, so retries terminate.

use crate::hash::FxHashMap;
use crate::ids::{FlowId, LinkId, NodeId};
use crate::time::SimTime;
use stats::Rng;

/// Flow-id namespace for control frames: the notification for monitored
/// port `i` travels as flow `CTRL_FLOW_BASE + i`, far above any workload
/// flow id, so ECMP placement of control frames is deterministic and the
/// acknowledgment can name the port it answers.
pub const CTRL_FLOW_BASE: u32 = 0xC000_0000;

/// What a notification asks senders to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CtrlAction {
    /// Pause new data transmissions for the carried duration (Pulser-style).
    Pause,
    /// Cut the congestion window once per epoch (distributed-detection
    /// style); baseline recovery keeps running underneath.
    CwndCut,
}

/// Control-plane configuration, supplied via
/// [`crate::Simulator::set_control_plane`].
#[derive(Debug, Clone)]
pub struct ControlConfig {
    /// Monitored egress links. Each must originate at a switch.
    pub ports: Vec<LinkId>,
    /// Action requested from senders.
    pub action: CtrlAction,
    /// Distinct data flows in the window required to trigger.
    pub flow_threshold: u32,
    /// Offered bytes in the window required to trigger (the arrival-rate
    /// leg; callers derive it from the port rate and window length).
    pub window_bytes: u64,
    /// Sliding-window length.
    pub window: SimTime,
    /// Pause duration carried in notifications (senders clamp to their
    /// guard bound).
    pub pause: SimTime,
    /// Minimum gap between episodes on one port.
    pub cooldown: SimTime,
    /// Base re-fire timeout for unacknowledged notifications.
    pub retry_timeout: SimTime,
    /// Re-fire budget per episode (0 = fire once, never retry).
    pub max_retries: u32,
    /// Emission-time notification loss probability. `>= 1` kills the
    /// control plane entirely (byte-identical to no mitigation); `0` takes
    /// no RNG draws.
    pub notif_loss: f64,
    /// Seed for the dedicated control RNG.
    pub seed: u64,
}

impl Default for ControlConfig {
    fn default() -> Self {
        ControlConfig {
            ports: Vec::new(),
            action: CtrlAction::Pause,
            flow_threshold: 8,
            window_bytes: 64 * 1024,
            window: SimTime::from_us(100),
            pause: SimTime::from_us(150),
            cooldown: SimTime::from_us(300),
            retry_timeout: SimTime::from_us(100),
            max_retries: 5,
            notif_loss: 0.0,
            seed: 0,
        }
    }
}

/// Half-window arrival bucket.
#[derive(Debug, Default, Clone)]
struct Bucket {
    bytes: u64,
    /// Distinct `(flow, src host)` pairs seen, in arrival order. Written
    /// once per pair per bucket (membership is decided by
    /// [`PortState::last_seen`], never by scanning this list) and read
    /// only by [`ControlPlane::begin_episode`] to name the targets.
    flows: Vec<(u32, NodeId)>,
}

impl Bucket {
    fn clear(&mut self) {
        self.bytes = 0;
        self.flows.clear();
    }
}

/// One in-progress notification episode.
#[derive(Debug)]
struct Episode {
    epoch: u32,
    /// `(sender host, acknowledged)`, sorted by node id for determinism.
    targets: Vec<(NodeId, bool)>,
    /// Emission attempts completed (0 = initial multicast still pending).
    attempt: u32,
}

/// Per-port detection state.
#[derive(Debug)]
struct PortState {
    link: LinkId,
    /// The detecting switch (the monitored link's source).
    switch: NodeId,
    bucket_start: SimTime,
    cur: Bucket,
    prev: Bucket,
    /// Generation of `cur`; advances by one per half-window stepped, so
    /// `prev` is generation `gen - 1` and anything older is out of window.
    gen: u64,
    /// `(flow, src host)` -> generation of the bucket it last arrived in.
    /// Stale entries are simply out-of-window stamps; the map grows to the
    /// number of distinct pairs the port ever carried and is never scanned.
    last_seen: FxHashMap<(u32, NodeId), u64>,
    /// Distinct pairs across `cur` and `prev` (`cur.flows.len()` is the
    /// `cur`-only count), maintained on arrival and on rotation.
    distinct: u32,
    epoch: u32,
    episode: Option<Episode>,
    next_allowed: SimTime,
}

/// What the simulator should do after a control retry timer fires.
#[derive(Debug)]
pub enum RetryPlan {
    /// Emit notifications to these targets, then re-arm the timer at `next`.
    Emit {
        /// Episode epoch to stamp on the frames.
        epoch: u32,
        /// Unacknowledged sender hosts.
        targets: Vec<NodeId>,
        /// Attempt index (0 = initial multicast).
        attempt: u32,
        /// When to re-fire for still-unacknowledged targets.
        next: SimTime,
    },
    /// The episode ended: every target acknowledged.
    Done {
        /// Episode epoch that closed.
        epoch: u32,
    },
    /// The episode ended: retry budget exhausted with targets outstanding.
    Expired {
        /// Episode epoch that closed.
        epoch: u32,
        /// Targets never acknowledged.
        unacked: u32,
    },
}

/// The switch-side control plane. Owned by the simulator; all methods are
/// called from the event loop, never re-entrantly (the simulator takes the
/// plane out of its slot around calls that emit packets).
#[derive(Debug)]
pub struct ControlPlane {
    cfg: ControlConfig,
    /// Half the sliding window: the bucket length (at least 1 ps).
    half: SimTime,
    ports: Vec<PortState>,
    /// Link id -> monitored-port index.
    by_link: Vec<Option<u32>>,
    /// Dedicated emission-loss RNG; the simulator's fault RNG is untouched.
    rng: Rng,
}

impl ControlPlane {
    /// Builds the plane. `link_src` resolves a link to its source node,
    /// `num_links` sizes the per-link lookup.
    pub fn new(
        cfg: ControlConfig,
        num_links: usize,
        mut link_src: impl FnMut(LinkId) -> NodeId,
    ) -> Self {
        let mut by_link = vec![None; num_links];
        let mut ports = Vec::with_capacity(cfg.ports.len());
        for (i, &link) in cfg.ports.iter().enumerate() {
            assert!(
                link.index() < num_links,
                "monitored port targets unknown link"
            );
            assert!(
                by_link[link.index()].is_none(),
                "link monitored twice by the control plane"
            );
            by_link[link.index()] = Some(i as u32);
            ports.push(PortState {
                link,
                switch: link_src(link),
                bucket_start: SimTime::ZERO,
                cur: Bucket::default(),
                prev: Bucket::default(),
                // Starts above 1 so the map's absent-key stamp of 0 is
                // always out of window.
                gen: 2,
                last_seen: FxHashMap::default(),
                distinct: 0,
                epoch: 0,
                episode: None,
                next_allowed: SimTime::ZERO,
            });
        }
        let rng = Rng::new(cfg.seed);
        ControlPlane {
            half: SimTime((cfg.window.as_ps() / 2).max(1)),
            cfg,
            ports,
            by_link,
            rng,
        }
    }

    /// The configuration the plane was built with.
    pub fn config(&self) -> &ControlConfig {
        &self.cfg
    }

    /// True if the control plane can never emit (fully blackholed).
    pub fn dead(&self) -> bool {
        self.cfg.notif_loss >= 1.0
    }

    /// Monitored-port index of `link`, if monitored.
    #[inline]
    pub fn monitors(&self, link: LinkId) -> Option<u32> {
        self.by_link[link.index()]
    }

    /// The detecting switch of monitored port `port`.
    pub fn port_switch(&self, port: u32) -> NodeId {
        self.ports[port as usize].switch
    }

    /// The monitored link of port `port`.
    pub fn port_link(&self, port: u32) -> LinkId {
        self.ports[port as usize].link
    }

    /// The control flow id used by port `port`'s frames.
    pub fn ctrl_flow(&self, port: u32) -> FlowId {
        FlowId(CTRL_FLOW_BASE + port)
    }

    /// Draws the emission-loss gate for one frame. Returns true if the
    /// frame is lost at emission. Takes no draw when loss is zero.
    pub fn emission_lost(&mut self) -> bool {
        self.cfg.notif_loss > 0.0 && self.rng.chance(self.cfg.notif_loss)
    }

    /// Records one data-frame arrival at monitored port `port` and reports
    /// whether an episode should open (triggers met, port idle, cooldown
    /// passed). Pure detection: no episode state changes here, so a dead
    /// control plane observing traffic leaves zero footprint.
    pub fn record(&mut self, now: SimTime, port: u32, flow: u32, src: NodeId, bytes: u32) -> bool {
        let half = self.half;
        let p = &mut self.ports[port as usize];
        // Lazy rotation: step the half-window buckets forward to cover `now`.
        if now >= p.bucket_start + half {
            if now >= p.bucket_start + half + half {
                // Idle gap longer than the window: both buckets are stale.
                p.prev.clear();
                p.cur.clear();
                p.distinct = 0;
                let steps = (now - p.bucket_start).as_ps() / half.as_ps();
                p.gen += steps;
                p.bucket_start = SimTime(p.bucket_start.as_ps() + steps * half.as_ps());
            } else {
                // `prev` falls out: what stays in the window is `cur`.
                p.distinct = p.cur.flows.len() as u32;
                std::mem::swap(&mut p.prev, &mut p.cur);
                p.cur.clear();
                p.gen += 1;
                p.bucket_start += half;
            }
        }
        p.cur.bytes += bytes as u64;
        let seen = p.last_seen.entry((flow, src)).or_insert(0);
        if *seen != p.gen {
            // New to `cur`; new to the window too unless `prev` holds it.
            p.distinct += u32::from(*seen + 1 != p.gen);
            *seen = p.gen;
            p.cur.flows.push((flow, src));
        }
        p.episode.is_none()
            && now >= p.next_allowed
            && p.cur.bytes + p.prev.bytes >= self.cfg.window_bytes
            && p.distinct >= self.cfg.flow_threshold
    }

    /// Opens an episode on `port`: bumps the epoch and snapshots the
    /// window's distinct sender hosts as targets (sorted by node id).
    /// Returns the new epoch. Only called on a live control plane.
    pub fn begin_episode(&mut self, now: SimTime, port: u32) -> u32 {
        let p = &mut self.ports[port as usize];
        debug_assert!(p.episode.is_none(), "episode already open");
        p.epoch += 1;
        let mut targets: Vec<NodeId> = p
            .cur
            .flows
            .iter()
            .chain(p.prev.flows.iter())
            .map(|&(_, s)| s)
            .collect();
        targets.sort_unstable_by_key(|n| n.0);
        targets.dedup();
        p.episode = Some(Episode {
            epoch: p.epoch,
            targets: targets.into_iter().map(|t| (t, false)).collect(),
            attempt: 0,
        });
        p.next_allowed = now + self.cfg.cooldown;
        p.epoch
    }

    /// Handles the port's retry timer: emit to unacked targets with the
    /// next backoff deadline, or close the episode.
    pub fn on_retry_timer(&mut self, now: SimTime, port: u32) -> Option<RetryPlan> {
        let cooldown = self.cfg.cooldown;
        let retry = self.cfg.retry_timeout;
        let max_retries = self.cfg.max_retries;
        let p = &mut self.ports[port as usize];
        let ep = p.episode.as_mut()?;
        let unacked: Vec<NodeId> = ep
            .targets
            .iter()
            .filter(|&&(_, acked)| !acked)
            .map(|&(t, _)| t)
            .collect();
        if unacked.is_empty() {
            let epoch = ep.epoch;
            p.episode = None;
            p.next_allowed = now + cooldown;
            return Some(RetryPlan::Done { epoch });
        }
        if ep.attempt > max_retries {
            let epoch = ep.epoch;
            let n = unacked.len() as u32;
            p.episode = None;
            p.next_allowed = now + cooldown;
            return Some(RetryPlan::Expired { epoch, unacked: n });
        }
        let attempt = ep.attempt;
        ep.attempt += 1;
        // Capped exponential backoff: retry, 2x, 4x, ... up to 64x.
        let shift = attempt.min(6);
        let next = now + SimTime(retry.as_ps() << shift);
        Some(RetryPlan::Emit {
            epoch: ep.epoch,
            targets: unacked,
            attempt,
            next,
        })
    }

    /// Consumes a notification acknowledgment addressed to `port`. Returns
    /// `(fresh, complete)`: whether this ack newly covered a target, and
    /// whether the episode is now fully acknowledged (and closed).
    pub fn on_ack(&mut self, now: SimTime, port: u32, epoch: u32, from: NodeId) -> (bool, bool) {
        let cooldown = self.cfg.cooldown;
        let p = &mut self.ports[port as usize];
        let Some(ep) = p.episode.as_mut() else {
            return (false, false); // episode already closed; stale ack
        };
        if ep.epoch != epoch {
            return (false, false); // ack for an older epoch
        }
        let mut fresh = false;
        for t in ep.targets.iter_mut() {
            if t.0 == from && !t.1 {
                t.1 = true;
                fresh = true;
            }
        }
        let complete = ep.targets.iter().all(|&(_, acked)| acked);
        if complete {
            p.episode = None;
            p.next_allowed = now + cooldown;
        }
        (fresh, complete)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(cfg: ControlConfig) -> ControlPlane {
        let n = cfg.ports.iter().map(|l| l.index() + 1).max().unwrap_or(0);
        ControlPlane::new(cfg, n, |_l| NodeId(100))
    }

    fn cfg_one_port() -> ControlConfig {
        ControlConfig {
            ports: vec![LinkId(3)],
            flow_threshold: 3,
            window_bytes: 3000,
            window: SimTime::from_us(100),
            ..ControlConfig::default()
        }
    }

    #[test]
    fn triggers_on_flow_count_and_bytes_together() {
        let mut cp = plane(cfg_one_port());
        let t = SimTime::from_us(10);
        // Two flows, plenty of bytes: flow trigger unmet.
        assert!(!cp.record(t, 0, 1, NodeId(1), 1500));
        assert!(!cp.record(t, 0, 2, NodeId(2), 1500));
        // Third distinct flow but bytes met only now: fires.
        assert!(cp.record(t, 0, 3, NodeId(3), 1500));
    }

    #[test]
    fn byte_threshold_gates_low_rate_windows() {
        let mut cp = plane(cfg_one_port());
        let t = SimTime::from_us(10);
        assert!(!cp.record(t, 0, 1, NodeId(1), 64));
        assert!(!cp.record(t, 0, 2, NodeId(2), 64));
        assert!(!cp.record(t, 0, 3, NodeId(3), 64), "bytes below threshold");
    }

    #[test]
    fn stale_windows_rotate_out() {
        let mut cp = plane(cfg_one_port());
        assert!(!cp.record(SimTime::from_us(10), 0, 1, NodeId(1), 1500));
        assert!(!cp.record(SimTime::from_us(10), 0, 2, NodeId(2), 1500));
        // A full window of idle later, old flows no longer count.
        assert!(!cp.record(SimTime::from_us(500), 0, 3, NodeId(3), 1500));
        assert!(!cp.record(SimTime::from_us(500), 0, 4, NodeId(4), 1500));
        assert!(cp.record(SimTime::from_us(501), 0, 5, NodeId(5), 1500));
    }

    #[test]
    fn episode_lifecycle_with_acks() {
        let mut cp = plane(cfg_one_port());
        let t = SimTime::from_us(10);
        for (f, n) in [(1u32, 5u32), (2, 4), (3, 6)] {
            cp.record(t, 0, f, NodeId(n), 1500);
        }
        let epoch = cp.begin_episode(t, 0);
        assert_eq!(epoch, 1);
        // Initial multicast: all three targets, sorted by node id.
        let plan = cp.on_retry_timer(t, 0).unwrap();
        let (targets, next) = match plan {
            RetryPlan::Emit {
                epoch: e,
                targets,
                attempt,
                next,
            } => {
                assert_eq!(e, 1);
                assert_eq!(attempt, 0);
                (targets, next)
            }
            other => panic!("expected Emit, got {other:?}"),
        };
        assert_eq!(targets, vec![NodeId(4), NodeId(5), NodeId(6)]);
        assert!(next > t);
        // Two acks arrive; a duplicate is not fresh.
        assert_eq!(cp.on_ack(t, 0, 1, NodeId(4)), (true, false));
        assert_eq!(cp.on_ack(t, 0, 1, NodeId(4)), (false, false));
        assert_eq!(cp.on_ack(t, 0, 1, NodeId(5)), (true, false));
        // Retry fires only at the remaining target, with backoff.
        match cp.on_retry_timer(next, 0).unwrap() {
            RetryPlan::Emit {
                targets, attempt, ..
            } => {
                assert_eq!(targets, vec![NodeId(6)]);
                assert_eq!(attempt, 1);
            }
            other => panic!("expected Emit, got {other:?}"),
        }
        // Final ack completes the episode.
        assert_eq!(cp.on_ack(next, 0, 1, NodeId(6)), (true, true));
        assert!(cp.on_retry_timer(next, 0).is_none());
        // A very stale ack after close is ignored.
        assert_eq!(cp.on_ack(next, 0, 1, NodeId(6)), (false, false));
    }

    #[test]
    fn retry_budget_expires_episodes() {
        let mut cfg = cfg_one_port();
        cfg.max_retries = 1;
        let mut cp = plane(cfg);
        let t = SimTime::from_us(10);
        for (f, n) in [(1u32, 5u32), (2, 4), (3, 6)] {
            cp.record(t, 0, f, NodeId(n), 1500);
        }
        cp.begin_episode(t, 0);
        let mut at = t;
        for expected_attempt in 0..=1u32 {
            match cp.on_retry_timer(at, 0).unwrap() {
                RetryPlan::Emit { attempt, next, .. } => {
                    assert_eq!(attempt, expected_attempt);
                    at = next;
                }
                other => panic!("expected Emit, got {other:?}"),
            }
        }
        match cp.on_retry_timer(at, 0).unwrap() {
            RetryPlan::Expired { epoch, unacked } => {
                assert_eq!(epoch, 1);
                assert_eq!(unacked, 3);
            }
            other => panic!("expected Expired, got {other:?}"),
        }
    }

    #[test]
    fn cooldown_blocks_back_to_back_episodes() {
        let mut cp = plane(cfg_one_port());
        let t = SimTime::from_us(10);
        for (f, n) in [(1u32, 1u32), (2, 2), (3, 3)] {
            cp.record(t, 0, f, NodeId(n), 1500);
        }
        cp.begin_episode(t, 0);
        // Episode closes instantly (all acked).
        cp.on_ack(t, 0, 1, NodeId(1));
        cp.on_ack(t, 0, 1, NodeId(2));
        cp.on_ack(t, 0, 1, NodeId(3));
        // Same traffic immediately after: cooldown suppresses the trigger.
        assert!(!cp.record(t + SimTime::from_us(1), 0, 9, NodeId(9), 5000));
        // Past cooldown the port can fire again (epoch advances).
        let later = t + SimTime::from_ms(1);
        for (f, n) in [(11u32, 1u32), (12, 2), (13, 3)] {
            cp.record(later, 0, f, NodeId(n), 1500);
        }
        assert!(cp.record(later, 0, 14, NodeId(4), 1500));
        assert_eq!(cp.begin_episode(later, 0), 2);
    }

    /// The pre-optimization detector for one port, kept as a reference
    /// that shares no code with [`ControlPlane::record`]: membership by
    /// linear scan, the distinct count recomputed from both buckets on
    /// every frame, targets deduplicated by `contains`.
    struct ScanPort {
        half: SimTime,
        bucket_start: SimTime,
        cur: (u64, Vec<(u32, NodeId)>),
        prev: (u64, Vec<(u32, NodeId)>),
        episode_open: bool,
        next_allowed: SimTime,
    }

    impl ScanPort {
        fn record(
            &mut self,
            cfg: &ControlConfig,
            now: SimTime,
            flow: u32,
            src: NodeId,
            bytes: u32,
        ) -> bool {
            let half = self.half;
            if now >= self.bucket_start + half {
                if now >= self.bucket_start + half + half {
                    self.prev = (0, Vec::new());
                    self.cur = (0, Vec::new());
                    let steps = (now - self.bucket_start).as_ps() / half.as_ps();
                    self.bucket_start = SimTime(self.bucket_start.as_ps() + steps * half.as_ps());
                } else {
                    self.prev = std::mem::take(&mut self.cur);
                    self.bucket_start += half;
                }
            }
            self.cur.0 += bytes as u64;
            if !self.cur.1.iter().any(|&(f, s)| f == flow && s == src) {
                self.cur.1.push((flow, src));
            }
            if self.episode_open || now < self.next_allowed {
                return false;
            }
            if self.cur.0 + self.prev.0 < cfg.window_bytes {
                return false;
            }
            let mut distinct = self.cur.1.len();
            for &(f, s) in &self.prev.1 {
                if !self.cur.1.iter().any(|&(cf, cs)| cf == f && cs == s) {
                    distinct += 1;
                }
            }
            distinct as u32 >= cfg.flow_threshold
        }

        fn targets(&self) -> Vec<NodeId> {
            let mut targets: Vec<NodeId> = Vec::new();
            for &(_, s) in self.cur.1.iter().chain(self.prev.1.iter()) {
                if !targets.contains(&s) {
                    targets.push(s);
                }
            }
            targets.sort_by_key(|n| n.0);
            targets
        }
    }

    #[test]
    fn record_matches_the_scan_reference_on_random_arrival_streams() {
        let mut triggers = 0;
        let mut saw = [false; 4]; // idle gap, single rotation, cooldown, open episode
        for seed in 0..40u64 {
            let mut rng = Rng::new(0xC0DE + seed);
            let cfg = ControlConfig {
                ports: vec![LinkId(0)],
                flow_threshold: 2 + rng.below(12) as u32,
                window_bytes: 1500 * (1 + rng.below(20)),
                // Odd picosecond windows exercise the `half` rounding.
                window: SimTime(2 + rng.below(40_000_000)),
                cooldown: SimTime::from_us(rng.below(200)),
                ..ControlConfig::default()
            };
            let mut cp = plane(cfg.clone());
            let mut scan = ScanPort {
                half: SimTime((cfg.window.as_ps() / 2).max(1)),
                bucket_start: SimTime::ZERO,
                cur: (0, Vec::new()),
                prev: (0, Vec::new()),
                episode_open: false,
                next_allowed: SimTime::ZERO,
            };
            let half = scan.half.as_ps();
            let flows = 1 + rng.below(40) as u32;
            let mut now = SimTime::ZERO;
            let mut open: Option<(u32, Vec<NodeId>)> = None;
            for step in 0..4000 {
                // Mostly dense arrivals; sometimes exactly one bucket
                // ahead, sometimes an idle gap well past the window.
                let before = (now.as_ps() - scan.bucket_start.as_ps()) / half;
                now += match rng.below(20) {
                    0 => SimTime(half * (2 + rng.below(5)) + rng.below(half)),
                    1 | 2 => SimTime(half),
                    _ => SimTime(rng.below(half / 4 + 1)),
                };
                match (now.as_ps() - scan.bucket_start.as_ps()) / half - before {
                    0 => {}
                    1 => saw[1] = true,
                    _ => saw[0] = true,
                }
                // The same flow id arrives from two source hosts: the
                // pair, not the id, is what counts as a flow.
                let flow = rng.below(flows as u64) as u32;
                let src = NodeId(200 + flow % 7 + 7 * rng.below(2) as u32);
                let bytes = 64 + rng.below(1437) as u32;
                saw[2] |= open.is_none() && now < scan.next_allowed;
                saw[3] |= open.is_some();
                let want = scan.record(&cfg, now, flow, src, bytes);
                let got = cp.record(now, 0, flow, src, bytes);
                assert_eq!(got, want, "seed {seed} step {step} at {now:?}");
                if got {
                    triggers += 1;
                    let want_targets = scan.targets();
                    scan.episode_open = true;
                    scan.next_allowed = now + cfg.cooldown;
                    let epoch = cp.begin_episode(now, 0);
                    match cp.on_retry_timer(now, 0).unwrap() {
                        RetryPlan::Emit { targets, .. } => {
                            assert_eq!(targets, want_targets, "seed {seed} step {step}")
                        }
                        other => panic!("expected Emit, got {other:?}"),
                    }
                    open = Some((epoch, want_targets));
                } else if open.is_some() && rng.chance(0.02) {
                    // Every target acknowledges: the episode closes and
                    // the cooldown restarts from now.
                    let (epoch, targets) = open.take().unwrap();
                    for t in targets {
                        cp.on_ack(now, 0, epoch, t);
                    }
                    scan.episode_open = false;
                    scan.next_allowed = now + cfg.cooldown;
                }
            }
        }
        assert!(triggers > 100, "streams too tame: {triggers} triggers");
        assert_eq!(
            saw, [true; 4],
            "idle gap / one rotation / cooldown / open episode"
        );
    }

    #[test]
    fn emission_loss_draws_only_when_configured() {
        let mut cfg = cfg_one_port();
        cfg.notif_loss = 0.0;
        let mut cp = plane(cfg);
        for _ in 0..100 {
            assert!(!cp.emission_lost(), "zero loss must never lose");
        }
        let mut cfg = cfg_one_port();
        cfg.notif_loss = 1.0;
        assert!(ControlPlane::new(cfg.clone(), 4, |_l| NodeId(0)).dead());
        cfg.notif_loss = 0.5;
        let mut cp = plane(cfg);
        assert!(!cp.dead());
        let lost = (0..1000).filter(|_| cp.emission_lost()).count();
        assert!(lost > 300 && lost < 700, "loss draw far off p=0.5: {lost}");
    }
}
