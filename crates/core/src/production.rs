//! The Section-3 fleet study: service traces measured with the Millisampler
//! substitute (Figures 1, 2, 4 and Table 1).
//!
//! Each host-trace is one full packet simulation: a coordinator host
//! replays a Poisson burst schedule drawn from its service's model against
//! a worker pool, and the Millisampler tap on the coordinator's NIC records
//! the 1 ms buckets from which bursts, incasts, marking, and retransmission
//! statistics are derived — exactly the paper's measurement pipeline.
//!
//! Rack-level contention (the paper's explanation for production losses at
//! flow counts the simulator's static queues absorb, §3.4/§4.1.1) is
//! modeled by a second receiver on the same ToR running its own bursty
//! service while both downlink queues charge a shared Dynamic-Threshold
//! buffer.

use crate::cache::{trace_key, RunCache};
use millisampler::{detect_bursts, Burst, CtrlTallies, Millisampler, MsTrace, TraceSummary};
use simnet::{build_fabric, BufferPolicy, FabricConfig, Shared, SimTime};
use stats::{Rng, TimeSeries};
use transport::{TcpConfig, TcpHost};
use workload::{sample_schedule, ScheduleCoordinator, ServiceId, SnapshotModel, Worker};

/// Shared-buffer pool used when contention is enabled: 4 MB with DT
/// alpha = 1. A lone hot queue still reaches its 2 MB per-port cap, but two
/// simultaneously hot queues are each squeezed to ~1.3 MB — the paper's
/// "capacity available at runtime may be lower" effect, producing the rare
/// loss tail of Fig. 4c.
pub const CONTENTION_POOL_BYTES: u64 = 4_000_000;
const CONTENTION_DT_ALPHA: f64 = 1.0;

/// Configuration of one service host-trace.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    /// The service whose model drives the workload.
    pub service: ServiceId,
    /// Trace length (the paper collects 2 s).
    pub duration: SimTime,
    /// Seed (vary per host and snapshot).
    pub seed: u64,
    /// Enable the rack-contention receiver + shared ToR buffer.
    pub contention: bool,
    /// Bottleneck queue-depth recording interval.
    pub queue_sample: SimTime,
}

impl TraceConfig {
    /// A 2-second paper-style trace.
    pub fn new(service: ServiceId, seed: u64) -> Self {
        TraceConfig {
            service,
            duration: SimTime::from_secs(2),
            seed,
            contention: true,
            queue_sample: SimTime::from_us(100),
        }
    }
}

/// One measured host-trace.
#[derive(Debug)]
pub struct TraceResult {
    /// The Millisampler bucket series.
    pub trace: MsTrace,
    /// Detected bursts (50 %-of-line-rate rule).
    pub bursts: Vec<Burst>,
    /// Bottleneck (measured receiver's downlink) queue depth in packets.
    pub queue_pkts: TimeSeries,
    /// Queue capacity in packets, for occupancy fractions.
    pub queue_capacity_pkts: f64,
    /// The snapshot model that drove the run (for calibration checks).
    pub snapshot: SnapshotModel,
    /// Diagnostics: drops at the measured receiver's downlink queue.
    pub downlink_drops: u64,
    /// Diagnostics: drops at the ToR-ToR trunk queue.
    pub trunk_drops: u64,
    /// Diagnostics: drops at the contending receiver's downlink (0 if
    /// contention is off).
    pub contender_drops: u64,
    /// Diagnostics: CE marks at the measured downlink.
    pub downlink_marks: u64,
    /// Diagnostics: CE marks at the trunk.
    pub trunk_marks: u64,
    /// Fault/notification tallies from the simulator's counters (zero in
    /// the stock production study, which runs fault-free without a control
    /// plane — carried so pooled aggregates stay honest when either is on).
    pub tallies: CtrlTallies,
}

/// Runs one host-trace, sampling the snapshot model from the seed.
pub fn run_service_trace(cfg: &TraceConfig) -> TraceResult {
    let model = cfg.service.model();
    let mut rng = Rng::new(cfg.seed);
    let snapshot = model.snapshot(&mut rng);
    run_trace_with_snapshot(cfg, snapshot)
}

/// Runs one host-trace with an explicit snapshot model (used by the
/// stability study, where the operating mode must persist across hosts).
pub fn run_trace_with_snapshot(cfg: &TraceConfig, snapshot: SnapshotModel) -> TraceResult {
    let model = cfg.service.model();
    let mut rng = Rng::new(cfg.seed).fork(1);
    let schedule = sample_schedule(&snapshot, model.worker_pool, cfg.duration, &mut rng);

    let fabric_cfg = FabricConfig {
        num_senders: model.worker_pool,
        num_receivers: if cfg.contention { 2 } else { 1 },
        host_rate: model.line_rate,
        // Production ToRs mark at 6.7 % of capacity (paper §2), not the
        // DCTCP paper's 65 packets used in the Section-4 simulations.
        tor_queue: simnet::QueueConfig::production_tor(),
        receiver_tor_buffer: cfg.contention.then_some((
            CONTENTION_POOL_BYTES,
            BufferPolicy::DynamicThreshold {
                alpha: CONTENTION_DT_ALPHA,
            },
        )),
        seed: cfg.seed,
        ..FabricConfig::default()
    };
    let mut fabric = build_fabric(&fabric_cfg);
    let bottleneck = fabric.downlinks[0];
    fabric
        .sim
        .link_mut(bottleneck)
        .queue
        .enable_monitor(cfg.queue_sample);
    let capacity = fabric
        .sim
        .link(bottleneck)
        .queue
        .config()
        .capacity_pkts
        .unwrap_or(1333) as f64;

    // Workers (shared by both coordinators; flows are disjoint by base).
    for (i, &s) in fabric.senders.iter().enumerate() {
        let worker = Worker::new(rng.fork(10_000 + i as u64));
        fabric.sim.set_endpoint(
            s,
            Box::new(TcpHost::new(TcpConfig::default(), Box::new(worker))),
        );
    }

    // Measured coordinator.
    let coordinator = ScheduleCoordinator::new(schedule, fabric.senders.clone());
    fabric.sim.set_endpoint(
        fabric.receivers[0],
        Box::new(TcpHost::new(TcpConfig::default(), Box::new(coordinator))),
    );

    // Millisampler on the measured host's NIC.
    let tap = Shared::new(Millisampler::new(model.line_rate));
    let tap_handle = tap.handle();
    fabric.sim.set_tap(fabric.receivers[0], Box::new(tap));

    // Contending receiver: an aggregator-like neighbor on the same rack.
    if cfg.contention {
        let neighbor_model = ServiceId::Aggregator.model();
        let mut nrng = Rng::new(cfg.seed).fork(2);
        let mut nsnap = neighbor_model.snapshot(&mut nrng);
        // The neighbor bursts at half an aggregator's rate: co-bursting
        // with the measured host should be the exception, not the rule.
        nsnap.bursts_per_sec *= 0.5;
        // The neighbor reuses this rack's worker pool, clamped to it.
        let nschedule = sample_schedule(&nsnap, model.worker_pool, cfg.duration, &mut nrng);
        let contender = ScheduleCoordinator::with_flow_base(
            nschedule,
            fabric.senders.clone(),
            model.worker_pool as u32,
        );
        fabric.sim.set_endpoint(
            fabric.receivers[1],
            Box::new(TcpHost::new(TcpConfig::default(), Box::new(contender))),
        );
    }

    fabric.sim.run_until(cfg.duration);

    let trace = {
        // Take the tap state back: finish the trace at the duration.
        let sampler = std::mem::replace(
            &mut *tap_handle.borrow_mut(),
            Millisampler::new(model.line_rate),
        );
        sampler.finish(cfg.duration)
    };
    let bursts = detect_bursts(&trace);
    let queue_pkts = fabric
        .sim
        .link_mut(bottleneck)
        .queue
        .take_monitor()
        .expect("monitor enabled");
    let dstats = fabric.sim.link(bottleneck).queue.stats();
    let tstats = fabric.sim.link(fabric.trunk).queue.stats();
    let contender_drops = if cfg.contention {
        fabric
            .sim
            .link(fabric.downlinks[1])
            .queue
            .stats()
            .dropped_pkts
    } else {
        0
    };

    let c = fabric.sim.counters();
    TraceResult {
        downlink_drops: dstats.dropped_pkts,
        downlink_marks: dstats.marked_pkts,
        trunk_drops: tstats.dropped_pkts,
        trunk_marks: tstats.marked_pkts,
        contender_drops,
        trace,
        bursts,
        queue_pkts,
        queue_capacity_pkts: capacity,
        snapshot,
        tallies: CtrlTallies {
            faults_applied: c.faults_applied,
            notif_sent: c.notif_sent,
            notif_acked: c.notif_acked,
            notif_retries: c.notif_retries,
            notif_lost: c.notif_lost,
        },
    }
}

/// Configuration of a fleet study (Figures 2 and 4).
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Services to study.
    pub services: Vec<ServiceId>,
    /// Hosts per service (paper: 20).
    pub hosts: usize,
    /// Snapshots per host (paper: 9 across a day).
    pub snapshots: usize,
    /// Trace length (paper: 2 s).
    pub duration: SimTime,
    /// Rack-contention on (needed for the Fig. 4c loss tail).
    pub contention: bool,
    /// Root seed.
    pub seed: u64,
    /// Worker threads.
    pub threads: usize,
}

impl FleetConfig {
    /// Reduced scale for quick runs.
    pub fn quick(threads: usize) -> Self {
        FleetConfig {
            services: ServiceId::ALL.to_vec(),
            hosts: 4,
            snapshots: 2,
            duration: SimTime::from_secs(1),
            contention: true,
            seed: 2024,
            threads,
        }
    }

    /// The paper's scale: 20 hosts x 9 snapshots x 2 s.
    pub fn paper(threads: usize) -> Self {
        FleetConfig {
            hosts: 20,
            snapshots: 9,
            duration: SimTime::from_secs(2),
            ..Self::quick(threads)
        }
    }
}

/// The `TraceConfig` of one fleet cell; pulled out so the run cache keys
/// the exact config the cell simulates.
fn fleet_cell_config(
    cfg: &FleetConfig,
    si: usize,
    svc: ServiceId,
    h: usize,
    k: usize,
) -> TraceConfig {
    TraceConfig {
        service: svc,
        duration: cfg.duration,
        seed: cfg
            .seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add((si as u64) << 48 | (h as u64) << 24 | k as u64),
        contention: cfg.contention,
        queue_sample: SimTime::from_us(100),
    }
}

/// Reduces one host-trace config to its cached summary: a hit decodes the
/// stored [`TraceSummary`]; a miss runs the packet simulation.
pub fn run_trace_summary_cached(
    cfg: &TraceConfig,
    cache: &RunCache,
) -> std::sync::Arc<TraceSummary> {
    cache.get_or_compute(&trace_key(cfg), || {
        let r = run_service_trace(cfg);
        TraceSummary::from_trace(
            &r.trace,
            &r.bursts,
            Some((&r.queue_pkts, r.queue_capacity_pkts)),
        )
        .with_tallies(r.tallies)
    })
}

/// Runs the fleet study: every (service, host, snapshot) cell is one packet
/// simulation; per-burst statistics pool into one accumulator per service.
///
/// Uses the process-wide run cache ([`RunCache::global`]); see
/// [`run_fleet_with`] to pin a specific cache (tests, differential checks).
pub fn run_fleet(cfg: &FleetConfig) -> Vec<(ServiceId, millisampler::FleetAccumulator)> {
    run_fleet_with(cfg, RunCache::global())
}

/// [`run_fleet`] against an explicit cache. Cells run through
/// [`crate::runner::par_map`] and their cached [`TraceSummary`]s fold into
/// the per-service accumulators in item order, so the pooled CDFs are
/// identical for any thread count or cache state.
pub fn run_fleet_with(
    cfg: &FleetConfig,
    cache: &RunCache,
) -> Vec<(ServiceId, millisampler::FleetAccumulator)> {
    let mut items = Vec::new();
    for (si, &svc) in cfg.services.iter().enumerate() {
        for h in 0..cfg.hosts {
            for k in 0..cfg.snapshots {
                items.push((si, svc, h, k));
            }
        }
    }
    let summaries = crate::runner::par_map(items, cfg.threads, |&(si, svc, h, k)| {
        let cell = fleet_cell_config(cfg, si, svc, h, k);
        (si, run_trace_summary_cached(&cell, cache))
    });
    let mut accs: Vec<millisampler::FleetAccumulator> = cfg
        .services
        .iter()
        .map(|_| millisampler::FleetAccumulator::new())
        .collect();
    for (si, summary) in summaries {
        accs[si].add_summary(&summary);
    }
    cfg.services.iter().copied().zip(accs).collect()
}

/// The four panels of the paper's Figure 1, derived from one trace.
#[derive(Debug)]
pub struct Fig1Panels {
    /// (ms, ingress Gbps) — Fig. 1a.
    pub throughput_gbps: Vec<(f64, f64)>,
    /// (ms, active flows) — Fig. 1b.
    pub active_flows: Vec<(f64, f64)>,
    /// (ms, ECN-marked ingress Gbps) — Fig. 1c.
    pub marked_gbps: Vec<(f64, f64)>,
    /// (ms, retransmitted Gbps) — Fig. 1d.
    pub retx_gbps: Vec<(f64, f64)>,
}

/// Converts a trace into Figure-1 panel series.
pub fn fig1_panels(trace: &MsTrace) -> Fig1Panels {
    let ms = trace.interval.as_ms_f64();
    let to_gbps = |bytes: u64| bytes as f64 * 8.0 / (ms * 1e6);
    let mut p = Fig1Panels {
        throughput_gbps: Vec::with_capacity(trace.buckets.len()),
        active_flows: Vec::with_capacity(trace.buckets.len()),
        marked_gbps: Vec::with_capacity(trace.buckets.len()),
        retx_gbps: Vec::with_capacity(trace.buckets.len()),
    };
    for (i, b) in trace.buckets.iter().enumerate() {
        let t = i as f64 * ms;
        p.throughput_gbps.push((t, to_gbps(b.bytes)));
        p.active_flows.push((t, b.flows as f64));
        p.marked_gbps.push((t, to_gbps(b.marked_bytes)));
        p.retx_gbps.push((t, to_gbps(b.retx_bytes)));
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg(service: ServiceId, contention: bool) -> TraceConfig {
        TraceConfig {
            service,
            duration: SimTime::from_ms(300),
            seed: 42,
            contention,
            queue_sample: SimTime::from_us(100),
        }
    }

    #[test]
    fn aggregator_trace_has_incast_bursts() {
        let r = run_service_trace(&quick_cfg(ServiceId::Aggregator, false));
        assert!(!r.bursts.is_empty(), "no bursts detected");
        // The aggregator's bursts are mostly incasts (>25 flows).
        let incasts = r.bursts.iter().filter(|b| b.is_incast()).count();
        assert!(
            incasts * 2 >= r.bursts.len(),
            "{incasts}/{} incasts",
            r.bursts.len()
        );
        // Low average utilization, bursty traffic (the paper's ~10 %).
        let u = r.trace.mean_utilization();
        assert!((0.01..0.55).contains(&u), "utilization {u}");
    }

    #[test]
    fn bursts_drive_queue_occupancy() {
        let r = run_service_trace(&quick_cfg(ServiceId::Aggregator, false));
        assert!(r.queue_pkts.max() > 0.0, "queue never built");
        assert_eq!(r.queue_capacity_pkts, 1333.0);
    }

    #[test]
    fn contention_creates_retransmissions() {
        // With the shared buffer + neighbor, at least some traces see
        // retransmitted bytes; without, the static 2 MB queue absorbs
        // everything.
        let mut retx_with = 0;
        for seed in 0..4 {
            let mut cfg = quick_cfg(ServiceId::Aggregator, true);
            cfg.seed = seed;
            let r = run_service_trace(&cfg);
            retx_with += r.bursts.iter().map(|b| b.retx_bytes).sum::<u64>();
        }
        assert!(retx_with > 0, "contention produced no retransmissions");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = run_service_trace(&quick_cfg(ServiceId::Storage, true));
        let b = run_service_trace(&quick_cfg(ServiceId::Storage, true));
        assert_eq!(a.bursts, b.bursts);
        assert_eq!(a.trace.buckets.len(), b.trace.buckets.len());
        for (x, y) in a.trace.buckets.iter().zip(&b.trace.buckets) {
            assert_eq!(x, y);
        }
    }

    #[test]
    fn fig1_panels_convert_units() {
        let r = run_service_trace(&quick_cfg(ServiceId::Aggregator, false));
        let p = fig1_panels(&r.trace);
        assert_eq!(p.throughput_gbps.len(), r.trace.buckets.len());
        // Throughput never exceeds line rate (10 Gbps) by more than the
        // bucket-quantization slop.
        for &(_, g) in &p.throughput_gbps {
            assert!(g <= 10.5, "throughput {g} Gbps");
        }
        // Marked <= total in every bucket.
        for (m, t) in p.marked_gbps.iter().zip(&p.throughput_gbps) {
            assert!(m.1 <= t.1 + 1e-9);
        }
        // Flow counts peak above the incast threshold somewhere.
        assert!(p.active_flows.iter().any(|&(_, f)| f > 25.0));
    }
}
