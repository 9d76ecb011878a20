//! Flow-count stability over time and across hosts (the paper's Figure 3).
//!
//! The paper measures each service's 20 hosts for 2 s every 10 minutes over
//! 18 hours and finds that the per-burst flow-count distribution is stable
//! (Fig. 3a) — except video, which flips between two operating points — and
//! stable across hosts (Fig. 3b). Here, each (service, time, host) cell is
//! one packet-simulated trace; a service's operating mode at a given time is
//! shared by all its hosts (it is a property of the service's load), and
//! multi-mode services switch modes sluggishly between snapshots, as a
//! scheduler spooling workers up and down would.

use crate::cache::{trace_snapshot_key, RunCache};
use crate::production::{run_trace_with_snapshot, TraceConfig};
use crate::runner::par_map;
use millisampler::TraceSummary;
use simnet::SimTime;
use stats::{QuantileSketch, Rng};
use workload::{ServiceId, SnapshotModel};

/// Configuration of the stability study.
#[derive(Debug, Clone)]
pub struct StabilityConfig {
    /// Services to include (Fig. 3a uses all five).
    pub services: Vec<ServiceId>,
    /// Hosts per service (paper: 20).
    pub hosts: usize,
    /// Number of time points (paper: 18 h / 10 min = 108).
    pub snapshots: usize,
    /// Minutes between time points (paper: 10).
    pub interval_minutes: f64,
    /// Trace length per cell.
    pub duration: SimTime,
    /// Per-snapshot probability that a multi-mode service switches mode.
    pub mode_switch_prob: f64,
    /// Worker threads.
    pub threads: usize,
    /// Root seed.
    pub seed: u64,
}

impl StabilityConfig {
    /// A reduced-scale default; `INCAST_FULL=1` benches use paper scale.
    pub fn quick(threads: usize) -> Self {
        StabilityConfig {
            services: ServiceId::ALL.to_vec(),
            hosts: 4,
            snapshots: 12,
            interval_minutes: 10.0,
            duration: SimTime::from_ms(400),
            // High enough that video visits both operating points even in
            // a 12-snapshot quick run.
            mode_switch_prob: 0.5,
            threads,
            seed: 7,
        }
    }

    /// The paper's scale: 20 hosts, 108 snapshots.
    pub fn paper(threads: usize) -> Self {
        StabilityConfig {
            hosts: 20,
            snapshots: 108,
            duration: SimTime::from_ms(500),
            // Sluggish switching: modes persist ~2 hours, as a scheduler
            // resizing worker pools would.
            mode_switch_prob: 0.08,
            ..Self::quick(threads)
        }
    }
}

/// One time point of one service (host-averaged), for Fig. 3a.
#[derive(Debug, Clone, Copy)]
pub struct TimePoint {
    /// Hours since the study began.
    pub hour: f64,
    /// Mean per-burst flow count, pooled over the service's hosts.
    pub mean_flows: f64,
    /// 99th-percentile per-burst flow count, pooled over hosts.
    pub p99_flows: f64,
    /// Bursts observed at this time point.
    pub bursts: usize,
}

/// One host of one service (time-pooled), for Fig. 3b.
#[derive(Debug, Clone, Copy)]
pub struct HostPoint {
    /// Host index.
    pub host: usize,
    /// Mean per-burst flow count across all the host's snapshots.
    pub mean_flows: f64,
    /// 99th-percentile per-burst flow count.
    pub p99_flows: f64,
}

/// Full study output.
#[derive(Debug)]
pub struct StabilityResult {
    /// Per service: the Fig. 3a time series.
    pub over_time: Vec<(ServiceId, Vec<TimePoint>)>,
    /// Per service: the Fig. 3b per-host points.
    pub per_host: Vec<(ServiceId, Vec<HostPoint>)>,
}

impl StabilityResult {
    /// Coefficient of variation of a service's time-series means — the
    /// "stability" headline (small = stable operating point).
    pub fn time_cv(&self, service: ServiceId) -> Option<f64> {
        let series = &self.over_time.iter().find(|(s, _)| *s == service)?.1;
        let means: Vec<f64> = series
            .iter()
            .filter(|p| p.bursts > 0)
            .map(|p| p.mean_flows)
            .collect();
        if means.len() < 2 {
            return None;
        }
        let mean = means.iter().sum::<f64>() / means.len() as f64;
        let var = means.iter().map(|m| (m - mean) * (m - mean)).sum::<f64>() / means.len() as f64;
        Some(var.sqrt() / mean)
    }
}

/// Pre-samples the operating mode (snapshot model) sequence for a service:
/// mode persists between time points, switching with `switch_prob`.
fn mode_sequence(
    service: ServiceId,
    snapshots: usize,
    switch_prob: f64,
    rng: &mut Rng,
) -> Vec<SnapshotModel> {
    let model = service.model();
    let mut current = model.snapshot(rng);
    let mut out = Vec::with_capacity(snapshots);
    for _ in 0..snapshots {
        if model.modes.len() > 1 && rng.chance(switch_prob) {
            // A switch moves to a *different* operating point (resampling
            // could land on the same mode; insist on a real change).
            for _ in 0..32 {
                let candidate = model.snapshot(rng);
                if (candidate.mean_flows() - current.mean_flows()).abs() > 1.0 {
                    current = candidate;
                    break;
                }
            }
        }
        out.push(current.clone());
    }
    out
}

/// Runs the study with the process-wide run cache.
pub fn run_stability(cfg: &StabilityConfig) -> StabilityResult {
    run_stability_with(cfg, RunCache::global())
}

/// [`run_stability`] against an explicit cache. Each cell's trace reduces
/// to a cached [`TraceSummary`] (content-addressed by config *and*
/// snapshot model, since the snapshot is pinned externally); per-burst
/// flow counts stream into fixed-memory [`QuantileSketch`]es pooled by
/// (service, time) and (service, host). Means are exact (the sketch keeps
/// exact sums), p99s are within the sketch's ~3 % relative error.
pub fn run_stability_with(cfg: &StabilityConfig, cache: &RunCache) -> StabilityResult {
    // Work items: (service_idx, snapshot_idx, host_idx, snapshot model).
    let mut items = Vec::new();
    for (si, &svc) in cfg.services.iter().enumerate() {
        let mut mode_rng = Rng::new(cfg.seed).fork(si as u64);
        let modes = mode_sequence(svc, cfg.snapshots, cfg.mode_switch_prob, &mut mode_rng);
        for (ti, snap) in modes.into_iter().enumerate() {
            for h in 0..cfg.hosts {
                items.push((si, ti, h, snap.clone()));
            }
        }
    }

    let summaries = par_map(items, cfg.threads, |&(si, ti, h, ref snap)| {
        let trace_cfg = TraceConfig {
            service: cfg.services[si],
            duration: cfg.duration,
            seed: cfg
                .seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((si as u64) << 40 | (ti as u64) << 20 | h as u64),
            contention: false,
            queue_sample: SimTime::from_ms(1),
        };
        let summary = cache.get_or_compute(&trace_snapshot_key(&trace_cfg, snap), || {
            let r = run_trace_with_snapshot(&trace_cfg, snap.clone());
            TraceSummary::from_trace(&r.trace, &r.bursts, None).with_tallies(r.tallies)
        });
        (si, ti, h, summary)
    });

    // Pool per (service, time) for Fig. 3a and per (service, host) for 3b,
    // folding in item order so the sketches are identical for any thread
    // count.
    let ns = cfg.services.len();
    let mut by_time: Vec<Vec<QuantileSketch>> =
        vec![vec![QuantileSketch::new(); cfg.snapshots]; ns];
    let mut by_host: Vec<Vec<QuantileSketch>> = vec![vec![QuantileSketch::new(); cfg.hosts]; ns];
    for (si, ti, h, summary) in summaries {
        for row in &summary.per_burst {
            by_time[si][ti].add(row.peak_flows);
            by_host[si][h].add(row.peak_flows);
        }
    }

    let point = |sk: &QuantileSketch| {
        (
            if sk.is_empty() { 0.0 } else { sk.mean() },
            sk.try_quantile(99.0).unwrap_or(0.0),
        )
    };

    let over_time = cfg
        .services
        .iter()
        .enumerate()
        .map(|(si, &svc)| {
            let pts = by_time[si]
                .iter()
                .enumerate()
                .map(|(ti, sk)| {
                    let (mean_flows, p99_flows) = point(sk);
                    TimePoint {
                        hour: ti as f64 * cfg.interval_minutes / 60.0,
                        mean_flows,
                        p99_flows,
                        bursts: sk.count() as usize,
                    }
                })
                .collect();
            (svc, pts)
        })
        .collect();

    let per_host = cfg
        .services
        .iter()
        .enumerate()
        .map(|(si, &svc)| {
            let pts = by_host[si]
                .iter()
                .enumerate()
                .map(|(h, sk)| {
                    let (mean_flows, p99_flows) = point(sk);
                    HostPoint {
                        host: h,
                        mean_flows,
                        p99_flows,
                    }
                })
                .collect();
            (svc, pts)
        })
        .collect();

    StabilityResult {
        over_time,
        per_host,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> StabilityConfig {
        StabilityConfig {
            services: vec![ServiceId::Indexer, ServiceId::Video],
            hosts: 2,
            snapshots: 4,
            interval_minutes: 10.0,
            duration: SimTime::from_ms(150),
            mode_switch_prob: 0.5,
            threads: 2,
            seed: 5,
        }
    }

    #[test]
    fn produces_full_grid() {
        let r = run_stability(&tiny());
        assert_eq!(r.over_time.len(), 2);
        assert_eq!(r.per_host.len(), 2);
        for (_, pts) in &r.over_time {
            assert_eq!(pts.len(), 4);
        }
        for (_, pts) in &r.per_host {
            assert_eq!(pts.len(), 2);
        }
    }

    #[test]
    fn indexer_is_stable_over_time() {
        let r = run_stability(&tiny());
        let cv = r.time_cv(ServiceId::Indexer).expect("enough points");
        assert!(cv < 0.35, "indexer CV {cv}");
    }

    #[test]
    fn mode_sequence_persists_between_switches() {
        let mut rng = Rng::new(3);
        let modes = mode_sequence(ServiceId::Video, 50, 0.0, &mut rng);
        // No switching: all snapshots share one operating point.
        let first = modes[0].mean_flows();
        for m in &modes {
            assert_eq!(m.mean_flows(), first);
        }
    }

    #[test]
    fn single_mode_services_never_switch() {
        let mut rng = Rng::new(3);
        let modes = mode_sequence(ServiceId::Storage, 20, 1.0, &mut rng);
        let first = modes[0].mean_flows();
        for m in &modes {
            assert_eq!(m.mean_flows(), first);
        }
    }
}
