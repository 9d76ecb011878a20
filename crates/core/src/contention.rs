//! Rack-level contention: simultaneous cross-rack incasts on one Clos.
//!
//! The paper's production observations (§3.4) include rack-level
//! contention — several aggregation jobs incasting at once, their fan-in
//! traffic sharing the spine tier. This runner builds one Clos fabric and
//! starts one incast group per rack: group `g`'s coordinator lives on
//! `rack_hosts[g][0]` and queries one worker in every *other* rack
//! (`rack_hosts[r][1 + g]`, `r != g`), so all groups' responses traverse
//! the spines concurrently while each group keeps a private receiver
//! downlink. Flow ids are partitioned per group (`flow_base = g * 1000`),
//! keeping traces and the ECMP flow hash unambiguous.

use simnet::{build_clos_with, ClosConfig, QueueConfig, Scheduler, Shared, SimTime};
use stats::ConfigError;
use stats::Rng;
use telemetry::RunManifest;
use transport::{TcpConfig, TcpHost};
use workload::{CyclicCoordinator, IncastConfig};

/// Configuration of one all-to-all rack-contention run.
#[derive(Debug, Clone)]
pub struct ContentionConfig {
    /// Racks, and therefore simultaneous incast groups (one per rack).
    /// Needs `racks >= 2` for any cross-rack traffic.
    pub racks: usize,
    /// Spine switches shared by every group's fan-in.
    pub spines: usize,
    /// Nominal burst duration per group (sizes per-flow demand as in
    /// [`IncastConfig::paper`]).
    pub burst_duration_ms: f64,
    /// Bursts per group.
    pub num_bursts: u32,
    /// Endpoint TCP configuration.
    pub tcp: TcpConfig,
    /// Egress queue config for leaf/ToR ports.
    pub tor_queue: QueueConfig,
    /// Root seed (fabric, jitter, and worker payload RNGs fork from it).
    pub seed: u64,
    /// Hard limit on simulated time.
    pub horizon: SimTime,
}

impl Default for ContentionConfig {
    fn default() -> Self {
        ContentionConfig {
            racks: 4,
            spines: 4,
            burst_duration_ms: 1.0,
            num_bursts: 3,
            tcp: TcpConfig::default(),
            tor_queue: QueueConfig::paper_tor(),
            seed: 1,
            horizon: SimTime::from_secs(30),
        }
    }
}

impl ContentionConfig {
    /// Rejects what [`run_contention`] cannot run, before any host is
    /// built: fewer than two racks, a burst duration that is not positive
    /// (NaN included), or an invalid [`TcpConfig`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.racks < 2 {
            return Err(ConfigError::new("racks", "must be at least 2"));
        }
        if self.burst_duration_ms.is_nan() || self.burst_duration_ms <= 0.0 {
            return Err(ConfigError::new("burst_duration_ms", "must be positive"));
        }
        self.tcp.validate()
    }
}

/// Everything a contention run produces.
#[derive(Debug)]
pub struct ContentionResult {
    /// Per-group burst completion times, in group (= rack) order.
    pub group_bcts_ms: Vec<Vec<f64>>,
    /// Mean BCT across all groups and bursts.
    pub mean_bct_ms: f64,
    /// Peak occupancy across all rack-uplink queues (packets).
    pub uplink_watermark_pkts: u32,
    /// Peak occupancy across all spine-downlink queues (packets).
    pub spine_watermark_pkts: u32,
    /// Drops summed over the uplink and spine tiers.
    pub fabric_drops: u64,
    /// Final simulated time.
    pub finished_at: SimTime,
}

/// Runs one all-to-all rack-contention experiment on the wheel scheduler.
pub fn run_contention(
    cfg: &ContentionConfig,
) -> Result<(ContentionResult, RunManifest), ConfigError> {
    run_contention_with::<simnet::TimingWheel>(cfg)
}

/// [`run_contention`] with an explicit event [`Scheduler`] (for the
/// differential wheel-vs-heap gate).
pub fn run_contention_with<S: Scheduler>(
    cfg: &ContentionConfig,
) -> Result<(ContentionResult, RunManifest), ConfigError> {
    cfg.validate()?;
    // Host 0 of each rack is its group's coordinator; host `1 + g` of
    // every other rack serves group `g` — so each rack needs one
    // coordinator slot plus one worker slot per foreign group.
    let clos_cfg = ClosConfig {
        racks: cfg.racks,
        hosts_per_rack: cfg.racks + 1,
        spines: cfg.spines,
        num_receivers: 1,
        tor_queue: cfg.tor_queue.clone(),
        seed: cfg.seed,
        ..ClosConfig::default()
    };
    let mut fabric = build_clos_with::<S>(&clos_cfg)?;

    let root = Rng::new(cfg.seed);
    let mut coord_handles = Vec::with_capacity(cfg.racks);
    for g in 0..cfg.racks {
        let workers: Vec<_> = (0..cfg.racks)
            .filter(|&r| r != g)
            .map(|r| fabric.rack_hosts[r][1 + g])
            .collect();
        for (i, &w) in workers.iter().enumerate() {
            let worker = workload::Worker::new(root.fork(10_000 + (g * 1000 + i) as u64));
            fabric
                .sim
                .set_endpoint(w, Box::new(TcpHost::new(cfg.tcp.clone(), Box::new(worker))));
        }
        let mut icfg =
            IncastConfig::paper(workers, cfg.burst_duration_ms, cfg.num_bursts, cfg.seed);
        icfg.flow_base = (g as u32) * 1000;
        let coord = Shared::new(CyclicCoordinator::new(icfg));
        coord_handles.push(coord.handle());
        fabric.sim.set_endpoint(
            fabric.rack_hosts[g][0],
            Box::new(TcpHost::new(cfg.tcp.clone(), Box::new(coord))),
        );
    }

    let step = SimTime::from_ms(1);
    while coord_handles.iter().any(|h| !h.borrow().finished()) && fabric.sim.now() < cfg.horizon {
        let next = (fabric.sim.now() + step).min(cfg.horizon);
        fabric.sim.run_until(next);
    }

    let group_bcts_ms: Vec<Vec<f64>> = coord_handles.iter().map(|h| h.borrow().bcts_ms()).collect();
    let all: Vec<f64> = group_bcts_ms.iter().flatten().copied().collect();
    let mean_bct_ms = if all.is_empty() {
        0.0
    } else {
        all.iter().sum::<f64>() / all.len() as f64
    };

    let tier_peak = |links: &[simnet::LinkId]| {
        links.iter().fold((0u32, 0u64), |(wm, drops), &l| {
            let s = fabric.sim.link(l).queue.stats();
            (wm.max(s.watermark_pkts), drops + s.dropped_pkts)
        })
    };
    let uplinks: Vec<_> = fabric.rack_uplinks.iter().flatten().copied().collect();
    let (uplink_wm, uplink_drops) = tier_peak(&uplinks);
    let (spine_wm, spine_drops) = tier_peak(&fabric.spine_downlinks);

    let mut manifest = RunManifest::new(
        "contention",
        cfg.seed,
        &format!(
            "clos:racks={},hosts_per_rack={},spines={},groups={}",
            cfg.racks, clos_cfg.hosts_per_rack, cfg.spines, cfg.racks
        ),
    )
    .with_git_describe();
    manifest.config_json = stats::leaves::write(&cfg.tcp);
    manifest.events_processed = fabric.sim.counters().events_processed;
    manifest.sim_time_ps = fabric.sim.now().as_ps();
    manifest.counters_json = fabric.sim.counters().to_json();
    manifest.scheduler = fabric.sim.scheduler_name().to_string();
    manifest.tiers_json = Some({
        let mut out = String::new();
        let mut o = telemetry::json::Obj::new(&mut out);
        let tier_json = |wm: u32, drops: u64, n: usize| {
            let mut s = String::new();
            let mut t = telemetry::json::Obj::new(&mut s);
            t.u64("links", n as u64)
                .u64("watermark_pkts", wm as u64)
                .u64("dropped_pkts", drops);
            t.finish();
            s
        };
        o.raw("uplink", &tier_json(uplink_wm, uplink_drops, uplinks.len()))
            .raw(
                "spine",
                &tier_json(spine_wm, spine_drops, fabric.spine_downlinks.len()),
            );
        o.finish();
        out
    });

    let result = ContentionResult {
        group_bcts_ms,
        mean_bct_ms,
        uplink_watermark_pkts: uplink_wm,
        spine_watermark_pkts: spine_wm,
        fabric_drops: uplink_drops + spine_drops,
        finished_at: fabric.sim.now(),
    };
    Ok((result, manifest))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(racks: usize, spines: usize) -> ContentionConfig {
        ContentionConfig {
            racks,
            spines,
            burst_duration_ms: 0.5,
            num_bursts: 2,
            ..ContentionConfig::default()
        }
    }

    fn rejected_at(cfg: &ContentionConfig) -> String {
        run_contention(cfg)
            .expect_err("config must be rejected")
            .path
    }

    #[test]
    fn fewer_than_two_racks_is_an_error() {
        for racks in [0, 1] {
            assert_eq!(rejected_at(&quick(racks, 2)), "racks");
        }
    }

    #[test]
    fn non_positive_burst_duration_is_an_error() {
        for ms in [0.0, -1.0, f64::NAN] {
            let cfg = ContentionConfig {
                burst_duration_ms: ms,
                ..quick(3, 2)
            };
            assert_eq!(rejected_at(&cfg), "burst_duration_ms", "{ms}");
        }
    }

    #[test]
    fn invalid_tcp_is_an_error() {
        let mut cfg = quick(3, 2);
        cfg.tcp.mss = 0;
        assert_eq!(rejected_at(&cfg), "tcp.mss");
    }

    #[test]
    fn all_groups_complete_their_bursts() {
        let (r, m) = run_contention(&quick(3, 2)).unwrap();
        assert_eq!(r.group_bcts_ms.len(), 3);
        for bcts in &r.group_bcts_ms {
            assert_eq!(bcts.len(), 2, "every group finishes every burst");
            for &b in bcts {
                assert!(b > 0.0);
            }
        }
        assert!(r.mean_bct_ms > 0.0);
        // Cross-rack traffic actually crossed the fabric tiers.
        assert!(r.uplink_watermark_pkts > 0 || r.spine_watermark_pkts > 0);
        assert_eq!(
            m.topology,
            "clos:racks=3,hosts_per_rack=4,spines=2,groups=3"
        );
        let tiers = m.tiers_json.as_deref().expect("per-tier stats");
        assert!(tiers.contains(r#""uplink":{"links":6"#), "{tiers}");
        assert!(tiers.contains(r#""spine":{"links":2"#), "{tiers}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (a, ma) = run_contention(&quick(3, 2)).unwrap();
        let (b, mb) = run_contention(&quick(3, 2)).unwrap();
        assert_eq!(a.group_bcts_ms, b.group_bcts_ms);
        assert_eq!(a.fabric_drops, b.fabric_drops);
        assert_eq!(ma.deterministic(), mb.deterministic());
    }

    #[test]
    fn contention_inflates_bcts_versus_a_lone_group() {
        // One group running alone on the same fabric shape vs all racks
        // incasting at once: shared spines must not make the lone run
        // slower than the contended mean.
        let contended = run_contention(&quick(4, 2)).unwrap().0;
        // A single-group baseline: same shape, but the "contention" of
        // only 2 racks means 1 group of 1 worker per foreign rack.
        let lone = run_contention(&quick(2, 2)).unwrap().0;
        assert!(
            contended.mean_bct_ms >= lone.mean_bct_ms * 0.5,
            "contended {} lone {}",
            contended.mean_bct_ms,
            lone.mean_bct_ms
        );
    }
}
