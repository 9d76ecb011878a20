//! Per-layer attribution, measured from outside: one traced iteration per
//! workload (spans around every call the benchmark makes into a layer, the
//! `Counted`/`Timed` wrappers inside the event loop), the counters the
//! program already publishes, A/B runs over config toggles, and — for the
//! packet workloads — an Amdahl table that splits `wall_ms` by layer.

use crate::alloc;
use crate::inputs::threads;
use crate::probes::{take_wheel_log, Recorded, Tally, Timed};
use crate::summary::median;
use crate::trace::Tracer;
use crate::workloads::{json_u64, verify, Case, Output, WARM_RESWEEPS};
use incast_core::cache::incast_key;
use incast_core::modes::{
    run_incast, run_incast_instrumented, run_incast_with, MitigationKind, ModesConfig, TopologySpec,
};
use incast_core::production::{run_fleet_with, run_service_trace, FleetConfig, TraceConfig};
use incast_core::supervisor::{supervised_incast_sweep, SupervisorConfig};
use incast_core::sweep::{run_incast_sweep, IncastSweepAggregate};
use incast_core::{PoolStats, RunBudget, RunCache};
use millisampler::{detect_bursts, FleetAccumulator, TraceSummary};
use simnet::{build_clos_with, ClosConfig, SimTime, TimingWheel};
use stats::Rng;
use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;
use telemetry::{JsonlSink, NullSink, RunManifest, SinkRef};
use workload::sample_schedule;

/// How a per-layer number was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Deterministic count: must repeat exactly on a single-threaded workload.
    Count,
    /// Measured time (or a ratio of measured times).
    Time,
    /// Unit cost × count.
    Est,
}

impl Source {
    pub fn label(self) -> &'static str {
        match self {
            Source::Count => "count",
            Source::Time => "time",
            Source::Est => "est",
        }
    }
}

use Source::{Count, Est, Time};

/// Per-layer metrics measured per workload, `(name, unit, source)`; a
/// workload that never enters a layer reports 0 for it. Together with
/// [`KERNEL_LAYERS`] these are the `per_layer` list of `BENCHMARK.json` —
/// a harness test keeps the two equal.
pub const WORKLOAD_LAYERS: &[(&str, &str, Source)] = &[
    ("simnet.sim.events", "count", Count),
    ("simnet.sim.events_per_pkt", "count", Count),
    ("simnet.sim.timer_share_pct", "%", Count),
    ("simnet.sim.ns_per_event", "ns", Time),
    ("simnet.wheel.ops_per_event", "count", Count),
    ("simnet.wheel.busy_pct", "%", Time),
    ("simnet.queue.drops", "count", Count),
    ("simnet.queue.marks", "count", Count),
    ("simnet.queue.watermark_pkts", "count", Count),
    ("simnet.topology.build_us", "us", Time),
    ("simnet.control.notif_sent", "count", Count),
    ("simnet.control.notif_retries", "count", Count),
    ("simnet.control.on_cost_pct", "%", Time),
    ("simnet.control.dead_cost_pct", "%", Time),
    ("transport.sender.timeouts", "count", Count),
    ("transport.sender.fast_retx", "count", Count),
    ("transport.sender.retx_bytes", "count", Count),
    ("workload.service.snapshot_us", "us", Time),
    ("workload.schedule.bursts", "count", Count),
    ("millisampler.burst.detect_us", "us", Time),
    ("millisampler.report.from_trace_us", "us", Time),
    ("millisampler.report.add_summary_us", "us", Time),
    ("millisampler.report.bursts", "count", Count),
    ("telemetry.sink.null_cost_pct", "%", Time),
    ("telemetry.sink.jsonl_ns_per_event", "ns", Time),
    ("telemetry.sink.jsonl_bytes_per_event", "count", Count),
    ("telemetry.sink.busy_pct", "%", Time),
    ("core.modes.setup_pct", "%", Time),
    ("core.modes.sim_pct", "%", Time),
    ("core.modes.aggregate_pct", "%", Time),
    ("core.modes.mean_bct_ms", "ms", Count),
    ("core.pool.steal_pct", "%", Time),
    ("core.pool.speedup_x", "x", Time),
    ("core.runner.par_reduce_speedup_x", "x", Time),
    ("core.supervisor.overhead_pct", "%", Time),
    ("heap.allocs", "count", Count),
    // Not `Count`: manifests render wall-clock µs as decimal strings, so the
    // bytes requested move by one or two with the timings' digit counts.
    ("heap.alloc_bytes", "count", Time),
    ("heap.allocs_per_event", "count", Count),
    ("fidelity.bct_err_pct", "%", Count),
    ("digest_matches_golden", "count", Count),
    ("bench.calib_ms", "ms", Time),
    ("bench.sched_wait_pct", "%", Time),
    ("bench.trace_overhead_pct", "%", Time),
    ("bench.span_coverage_pct", "%", Time),
    ("bench.cell_max_over_median_x", "x", Time),
];

/// The workload-independent kernels of [`crate::kernels`].
pub const KERNEL_LAYERS: &[(&str, &str, Source)] = &[
    ("stats.rng.next_ns", "ns", Time),
    ("stats.sketch.insert_ns", "ns", Time),
    ("stats.sketch.merge_us", "us", Time),
    ("simnet.wheel.hold_ns", "ns", Time),
    ("simnet.wheel.hold64k_ns", "ns", Time),
    ("simnet.queue.enq_deq_ns", "ns", Time),
    ("simnet.buffer.admit_ns", "ns", Time),
    ("simnet.hash.ecmp_pick_ns", "ns", Time),
    ("simnet.control.record_ns", "ns", Time),
    ("simnet.sim.wire_ns_per_event", "ns", Time),
    ("transport.host.ns_per_pkt", "ns", Est),
    ("transport.ranges.insert_ns", "ns", Time),
    ("transport.cca.dctcp_ack_ns", "ns", Time),
    ("telemetry.perfetto.ns_per_event", "ns", Time),
    ("telemetry.perfetto.bytes_per_event", "count", Count),
    ("telemetry.manifest.to_json_us", "us", Time),
    ("core.cache.key_ns", "ns", Time),
    ("core.cache.hit_ns", "ns", Time),
    ("core.cache.miss_insert_ns", "ns", Time),
    ("core.cache.disk_load_ms", "ms", Time),
    ("core.cache.hits", "count", Count),
    ("core.cache.misses", "count", Count),
    ("core.sweep.absorb_ns", "ns", Time),
    ("core.pool.dispatch_us", "us", Time),
];

/// Paper reference BCT for Fig 5c as recorded in EXPERIMENTS.md (≈200 ms);
/// every other packet workload is held against demand ÷ line rate, which
/// is the nominal burst duration (the paper's 15 ms for Fig 5a).
const FIG5C_BCT_MS: f64 = 200.0;

/// Alternating A/B rounds per toggle row.
const AB_ROUNDS: usize = 7;

/// Name → value rows, in the order produced.
pub type Rows = Vec<(&'static str, f64)>;

fn lookup(rows: &[(&'static str, f64)], name: &str) -> f64 {
    rows.iter()
        .find(|(n, _)| *n == name)
        .unwrap_or_else(|| panic!("kernel row {name} missing"))
        .1
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole * 100.0
    } else {
        0.0
    }
}

/// Runs the variants round-robin `rounds` times; median wall-clock ms of
/// each. Alternation keeps a slow machine window from landing on one side.
fn alternate(rounds: usize, variants: &mut [&mut dyn FnMut()]) -> Vec<f64> {
    let mut walls = vec![Vec::new(); variants.len()];
    for _ in 0..rounds {
        for (v, w) in variants.iter_mut().zip(&mut walls) {
            let t0 = Instant::now();
            v();
            w.push(ms(t0.elapsed()));
        }
    }
    walls.iter().map(|w| median(w)).collect()
}

/// `(setup, sim, aggregate)` µs from a run manifest's `timing_json`.
fn phases_us(m: &RunManifest) -> (f64, f64, f64) {
    let t = m.timing_json.as_deref().unwrap_or("{}");
    let f = |k| json_u64(t, k).unwrap_or(0) as f64;
    (f("setup_us"), f("sim_us"), f("aggregate_us"))
}

/// The fabric `run_incast_with` builds for `cfg` (same fields it sets).
fn clos_config(cfg: &ModesConfig) -> ClosConfig {
    let (racks, spines) = match cfg.topology {
        TopologySpec::Dumbbell => (1, 1),
        TopologySpec::Clos { racks, spines } => (racks, spines),
    };
    ClosConfig {
        racks,
        hosts_per_rack: cfg.num_flows.div_ceil(racks.max(1)),
        spines,
        num_receivers: 1,
        tor_queue: cfg.tor_queue.clone(),
        receiver_tor_buffer: cfg.receiver_tor_buffer,
        seed: cfg.seed,
        ..ClosConfig::default()
    }
}

fn topology_build_us(cfgs: &[ModesConfig]) -> f64 {
    let walls: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for cfg in cfgs {
                let fabric = build_clos_with::<TimingWheel>(&clos_config(cfg));
                std::hint::black_box(fabric.is_ok());
            }
            t0.elapsed().as_secs_f64() * 1e6 / cfgs.len() as f64
        })
        .collect();
    median(&walls)
}

/// What the traced pass of one workload produced.
pub struct Traced {
    /// The workload-scoped per-layer rows this pass measured.
    pub rows: Rows,
    /// Packet workloads only: `(layer, ms)` rows summing to `wall_ms`.
    pub amdahl: Vec<(&'static str, f64)>,
    /// Result digest of the traced iteration (must match the untraced one).
    pub digest: u64,
    pub problems: Vec<String>,
}

/// Facts about the untraced phase the traced pass is held against.
pub struct Baseline<'a> {
    /// Untraced `wall_ms`: the fastest iteration.
    pub wall_ms: f64,
    /// Output of one untraced iteration, sink dropped (its manifest timing
    /// and loop profile carry no wrapper overhead).
    pub output: &'a Output,
    /// The counting pass: allocator statistics and events of one iteration.
    pub heap: alloc::HeapStats,
    pub heap_events: u64,
    /// The kernels' unit costs.
    pub kernels: &'a [(&'static str, f64)],
    /// Run the A/B rows (off under `--quick`, where they report 0).
    pub ab: bool,
}

/// A traced iteration: its output, its wall-clock expressed as one untraced
/// iteration's worth of work, and the per-cell times where it has cells.
struct TracedIter {
    out: Output,
    wall_ms: f64,
    cells_ms: Vec<f64>,
}

/// One traced iteration of `name`, plus its A/B rows.
pub fn traced(name: &str, case: &Case, base: &Baseline, tracer: &mut Tracer) -> Traced {
    tracer.next_iter();
    let mut rows: Rows = Vec::new();
    let mut amdahl = Vec::new();
    let iter = match case {
        Case::Incast(cfg) => traced_incast(name, cfg, false, base, tracer, &mut rows, &mut amdahl),
        Case::Jsonl(cfg) => traced_incast(name, cfg, true, base, tracer, &mut rows, &mut amdahl),
        Case::Fleet(cfg) => traced_fleet(cfg, tracer, &mut rows),
        Case::SweepCold(cfgs) => {
            let (cache, pooled) = (RunCache::in_memory(), RunCache::in_memory());
            traced_sweep(cfgs, &cache, &pooled, false, tracer, &mut rows)
        }
        Case::SweepWarm { cfgs, cache, .. } => {
            traced_sweep(cfgs, cache, cache, true, tracer, &mut rows)
        }
    };
    let verdict = verify(name, case, &iter.out);
    rows.push((
        "bench.trace_overhead_pct",
        pct(iter.wall_ms - base.wall_ms, base.wall_ms),
    ));
    if !iter.cells_ms.is_empty() {
        // A sweep or a fleet study finishes when its slowest cell does.
        let slowest = iter.cells_ms.iter().copied().fold(0.0, f64::max);
        rows.push((
            "bench.cell_max_over_median_x",
            slowest / median(&iter.cells_ms),
        ));
    }
    rows.push(("heap.allocs", base.heap.allocs as f64));
    rows.push(("heap.alloc_bytes", base.heap.alloc_bytes as f64));
    if base.heap_events > 0 {
        rows.push((
            "heap.allocs_per_event",
            base.heap.allocs as f64 / base.heap_events as f64,
        ));
    }
    if base.ab {
        ab_rows(name, case, &mut rows);
    }
    Traced {
        rows,
        amdahl,
        digest: verdict.digest,
        problems: verdict.problems,
    }
}

/// Completes `rows` to every name of [`WORKLOAD_LAYERS`], in table order:
/// a row the workload did not produce reads 0 (it never enters that layer).
pub fn fill_missing(rows: &[(&'static str, f64)]) -> Rows {
    for (name, _) in rows {
        assert!(
            WORKLOAD_LAYERS.iter().any(|(n, _, _)| n == name),
            "row {name} is not a declared per-layer metric"
        );
    }
    WORKLOAD_LAYERS
        .iter()
        .map(|&(name, _, _)| {
            let value = rows.iter().find(|(n, _)| *n == name).map_or(0.0, |r| r.1);
            (name, value)
        })
        .collect()
}

#[allow(clippy::too_many_arguments)]
fn traced_incast(
    name: &str,
    cfg: &ModesConfig,
    with_sink: bool,
    base: &Baseline,
    tracer: &mut Tracer,
    rows: &mut Rows,
    amdahl: &mut Vec<(&'static str, f64)>,
) -> TracedIter {
    let sink = with_sink.then(|| Rc::new(RefCell::new(Timed::new(JsonlSink::new()))));
    let _ = take_wheel_log();
    let t0 = Instant::now();
    let (r, m) = {
        let sink_ref = sink.clone().map(SinkRef::from_rc);
        run_incast_with::<Recorded<TimingWheel>>(cfg, sink_ref.as_ref())
    };
    let t1 = Instant::now();
    let wheel_log = take_wheel_log();
    let wheel_ns = wheel_log.replay_ns::<TimingWheel>();
    let sink_tally = sink
        .as_ref()
        .map_or_else(Tally::default, |s| s.borrow().tally.clone());

    // Spans: the call, its three phases rebuilt from the manifest's own
    // timing, and inside the loop the scheduler's replayed time (one span,
    // placed at the loop's start) and the sink's sampled busy intervals.
    let root = tracer.add("core.modes.run_incast_with", t0, t1, None);
    let (setup_us, sim_us, agg_us) = phases_us(&m);
    let mut cursor = tracer.at(t0);
    let mut sim = root;
    for (phase, us) in [
        ("core.modes.setup", setup_us),
        ("core.modes.sim", sim_us),
        ("core.modes.aggregate", agg_us),
    ] {
        let end = cursor + (us * 1e3) as u64;
        let id = tracer.add_ns(phase, cursor, end, Some(root), 1);
        if phase == "core.modes.sim" {
            sim = id;
        }
        cursor = end;
    }
    let sim_start = tracer.spans[sim].start_ns;
    tracer.add_ns(
        "simnet.wheel",
        sim_start,
        sim_start + wheel_ns as u64,
        Some(sim),
        1,
    );
    for &(s, e) in &sink_tally.intervals {
        let weight = sink_tally.weight();
        tracer.add_ns(
            "telemetry.sink",
            tracer.at(s),
            tracer.at(e),
            Some(sim),
            weight,
        );
    }
    let traced_ns = (t1 - t0).as_nanos() as f64;
    rows.push((
        "bench.span_coverage_pct",
        pct(traced_ns - tracer.self_ns(root) as f64, traced_ns),
    ));

    // Counters: all deterministic, all from what the run already reports.
    let events = r.profile.events() as f64;
    let delivered = json_u64(&m.counters_json, "delivered_pkts").unwrap_or(0) as f64;
    let ctrl = m.control_json.as_deref().unwrap_or("{}");
    let ctrl_count = |key| json_u64(ctrl, key).unwrap_or(0) as f64;
    rows.push(("simnet.sim.events", events));
    rows.push(("simnet.sim.events_per_pkt", events / delivered));
    rows.push((
        "simnet.sim.timer_share_pct",
        pct(r.profile.tallies.timer as f64, events),
    ));
    rows.push((
        "simnet.wheel.ops_per_event",
        wheel_log.queue_ops() as f64 / events,
    ));
    rows.push(("simnet.queue.drops", r.drops as f64));
    rows.push(("simnet.queue.marks", r.marked_pkts as f64));
    rows.push(("simnet.queue.watermark_pkts", r.queue_watermark_pkts as f64));
    rows.push(("simnet.control.notif_sent", ctrl_count("notif_sent")));
    rows.push(("simnet.control.notif_retries", ctrl_count("notif_retries")));
    rows.push(("transport.sender.timeouts", r.timeouts as f64));
    rows.push(("transport.sender.fast_retx", r.fast_retransmits as f64));
    rows.push(("transport.sender.retx_bytes", r.retx_bytes as f64));
    rows.push(("core.modes.mean_bct_ms", r.mean_bct_ms));
    let reference_ms = if name == "mode3_tcp" {
        FIG5C_BCT_MS
    } else {
        cfg.burst_duration_ms
    };
    rows.push((
        "fidelity.bct_err_pct",
        pct(r.mean_bct_ms - reference_ms, reference_ms),
    ));
    rows.push((
        "simnet.topology.build_us",
        topology_build_us(std::slice::from_ref(cfg)),
    ));

    // Times: phase shares and ns/event come from the *untraced* iteration.
    let Output::Incast(base_r, base_m) = base.output else {
        unreachable!("a packet workload's kept output is an incast result");
    };
    let (b_setup, b_sim, b_agg) = phases_us(base_m);
    let b_total = b_setup + b_sim + b_agg;
    rows.push(("core.modes.setup_pct", pct(b_setup, b_total)));
    rows.push(("core.modes.sim_pct", pct(b_sim, b_total)));
    rows.push(("core.modes.aggregate_pct", pct(b_agg, b_total)));
    rows.push((
        "simnet.sim.ns_per_event",
        base_r.profile.wall.as_nanos() as f64 / base_r.profile.events() as f64,
    ));
    rows.push(("simnet.wheel.busy_pct", pct(wheel_ns, b_sim * 1e3)));
    let sink_share = sink_tally.busy_ns() / traced_ns;
    if let Some(s) = &sink {
        let s = s.borrow();
        let written = s.inner.events_written().max(1) as f64;
        rows.push((
            "telemetry.sink.jsonl_ns_per_event",
            s.tally.busy_ns() / written,
        ));
        rows.push((
            "telemetry.sink.jsonl_bytes_per_event",
            s.inner.render().len() as f64 / written,
        ));
        rows.push(("telemetry.sink.busy_pct", sink_share * 100.0));
    }

    // Amdahl table: with one thread and nothing contending, a faster layer
    // saves at most its own row. Scaled so the rows sum to `wall_ms`.
    let k = |name| lookup(base.kernels, name);
    let wall = base.wall_ms;
    let frames = r.profile.tallies.tx_complete as f64;
    let switch_hops = r.profile.tallies.delivery as f64 - delivered;
    let queue_ns = k("simnet.queue.enq_deq_ns")
        + cfg
            .receiver_tor_buffer
            .map_or(0.0, |_| k("simnet.buffer.admit_ns"));
    // One switch hop in three picks among equal-cost uplinks (the leaf on
    // the way out, the receiver ToR on the way back); a monitored port
    // records every data frame it enqueues.
    let ecmp_ns = match cfg.topology {
        TopologySpec::Clos { .. } => switch_hops / 3.0 * k("simnet.hash.ecmp_pick_ns"),
        TopologySpec::Dumbbell => 0.0,
    };
    let record_ns = if cfg.mitigation.is_off() {
        0.0
    } else {
        r.enqueued_pkts as f64 * k("simnet.control.record_ns")
    };
    amdahl.extend([
        ("simnet.wheel", wheel_ns / 1e6),
        ("simnet.queue+buffer", frames * queue_ns / 1e6),
        ("simnet.forwarding+control", (ecmp_ns + record_ns) / 1e6),
        (
            "transport",
            delivered * k("transport.host.ns_per_pkt") / 1e6,
        ),
        ("telemetry", wall * sink_share),
        ("core.modes.setup", wall * b_setup / b_total),
        ("core.modes.aggregate", wall * b_agg / b_total),
    ]);
    let explained: f64 = amdahl.iter().map(|(_, v)| v).sum();
    amdahl.push(("unexplained", wall - explained));

    let out = match sink {
        // Hand the inner sink on for `verify`'s byte hash.
        Some(s) => {
            let timed = Rc::try_unwrap(s)
                .ok()
                .expect("the finished run holds no sink handle")
                .into_inner();
            Output::Jsonl(Box::new(r), Box::new(m), Rc::new(RefCell::new(timed.inner)))
        }
        None => Output::Incast(Box::new(r), Box::new(m)),
    };
    TracedIter {
        out,
        wall_ms: traced_ns / 1e6,
        cells_ms: Vec::new(),
    }
}

/// The fleet study driven cell by cell from here, one span per layer call:
/// what `run_fleet_with` does inside `par_reduce`, minus the cache.
fn traced_fleet(cfg: &FleetConfig, tracer: &mut Tracer, rows: &mut Rows) -> TracedIter {
    let t0 = Instant::now();
    let mut accs: Vec<FleetAccumulator> = cfg
        .services
        .iter()
        .map(|_| FleetAccumulator::new())
        .collect();
    let root = tracer.add("core.production.run_fleet", t0, t0, None); // end set below
    let mut scheduled = 0;
    for (si, &svc) in cfg.services.iter().enumerate() {
        for h in 0..cfg.hosts {
            for k in 0..cfg.snapshots {
                // `production::fleet_cell_config`, which is private.
                let cell = TraceConfig {
                    service: svc,
                    duration: cfg.duration,
                    seed: cfg
                        .seed
                        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                        .wrapping_add((si as u64) << 48 | (h as u64) << 24 | k as u64),
                    contention: cfg.contention,
                    queue_sample: SimTime::from_us(100),
                };
                // The draw `run_service_trace` repeats inside: timed on its own.
                scheduled += tracer.span("workload.service.snapshot", Some(root), || {
                    let model = svc.model();
                    let snapshot = model.snapshot(&mut Rng::new(cell.seed));
                    let mut rng = Rng::new(cell.seed).fork(1);
                    sample_schedule(&snapshot, model.worker_pool, cell.duration, &mut rng)
                        .bursts
                        .len()
                });
                let r = tracer.span("core.production.run_service_trace", Some(root), || {
                    run_service_trace(&cell)
                });
                let bursts = tracer.span("millisampler.burst.detect", Some(root), || {
                    detect_bursts(&r.trace)
                });
                let summary = tracer.span("millisampler.report.from_trace", Some(root), || {
                    let queue = Some((&r.queue_pkts, r.queue_capacity_pkts));
                    TraceSummary::from_trace(&r.trace, &bursts, queue).with_tallies(r.tallies)
                });
                tracer.span("millisampler.report.add_summary", Some(root), || {
                    accs[si].add_summary(&summary)
                });
            }
        }
    }
    tracer.spans[root].end_ns = tracer.at(Instant::now());
    let total = tracer.spans[root].dur_ns() as f64;
    let cells_ms: Vec<f64> = tracer
        .spans
        .iter()
        .filter(|s| s.parent == Some(root) && s.name == "core.production.run_service_trace")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    let per_cell_us = |name| tracer.child_ns(root, name) as f64 / 1e3 / cells_ms.len() as f64;
    rows.push((
        "workload.service.snapshot_us",
        per_cell_us("workload.service.snapshot"),
    ));
    rows.push(("workload.schedule.bursts", scheduled as f64));
    rows.push((
        "millisampler.burst.detect_us",
        per_cell_us("millisampler.burst.detect"),
    ));
    rows.push((
        "millisampler.report.from_trace_us",
        per_cell_us("millisampler.report.from_trace"),
    ));
    rows.push((
        "millisampler.report.add_summary_us",
        per_cell_us("millisampler.report.add_summary"),
    ));
    let bursts: usize = accs.iter().map(|a| a.total_bursts()).sum();
    rows.push(("millisampler.report.bursts", bursts as f64));
    rows.push((
        "bench.span_coverage_pct",
        pct(total - tracer.self_ns(root) as f64, total),
    ));
    TracedIter {
        out: Output::Fleet(cfg.services.iter().copied().zip(accs).collect()),
        wall_ms: total / 1e6,
        cells_ms,
    }
}

/// One sweep driven config by config on this thread: key render, cached
/// run (a miss simulates, a hit clones an `Arc`), then the aggregate.
/// `pooled` is the cache one real, pooled sweep runs against afterwards,
/// for the pool's work-distribution counters; `warm` says `cache` is
/// already full (`sweep_warm`).
fn traced_sweep(
    cfgs: &[ModesConfig],
    cache: &RunCache,
    pooled: &RunCache,
    warm: bool,
    tracer: &mut Tracer,
    rows: &mut Rows,
) -> TracedIter {
    let before = cache.stats();
    let t0 = Instant::now();
    let root = tracer.add("core.sweep", t0, t0, None); // end set below
    let runs: Vec<_> = cfgs
        .iter()
        .map(|cfg| {
            let key = tracer.span("core.cache.key", Some(root), || incast_key(cfg));
            tracer.span("core.sweep.run", Some(root), || {
                cache.get_or_compute(&key, || run_incast(cfg))
            })
        })
        .collect();
    let digest = tracer.span("core.sweep.aggregate", Some(root), || {
        IncastSweepAggregate::from_runs(runs.iter().map(|r| &**r)).digest()
    });
    tracer.spans[root].end_ns = tracer.at(Instant::now());
    let after = cache.stats();
    let total = tracer.spans[root].dur_ns() as f64;
    rows.push((
        "bench.span_coverage_pct",
        pct(total - tracer.self_ns(root) as f64, total),
    ));
    rows.push(("simnet.topology.build_us", topology_build_us(cfgs)));
    let pool_before = PoolStats::snapshot();
    std::hint::black_box(run_incast_sweep(cfgs, threads(), pooled));
    let pool = PoolStats::snapshot().delta(&pool_before);
    rows.push(("core.pool.steal_pct", pool.steal_fraction() * 100.0));
    let cells_ms = tracer
        .spans
        .iter()
        .filter(|s| s.parent == Some(root) && s.name == "core.sweep.run")
        .map(|s| s.dur_ns() as f64 / 1e6)
        .collect();
    let misses = after.misses - before.misses;
    if !warm {
        return TracedIter {
            out: Output::Sweep { runs, misses },
            wall_ms: total / 1e6,
            cells_ms,
        };
    }
    // One re-sweep of the warm workload's thousand.
    TracedIter {
        out: Output::Warm {
            digest,
            resweeps: 1,
            hits: after.mem_hits - before.mem_hits,
            misses,
        },
        wall_ms: total / 1e6 * WARM_RESWEEPS as f64,
        cells_ms,
    }
}

/// The toggle rows: a workload's own config with one switch flipped,
/// alternated against the unflipped run.
fn ab_rows(name: &str, case: &Case, rows: &mut Rows) {
    match (name, case) {
        ("clos_pulser", Case::Incast(on)) => {
            let mut off = on.clone();
            off.mitigation.kind = MitigationKind::Off;
            let mut dead = on.clone();
            dead.mitigation.notif_loss = 1.0;
            let w = alternate(
                AB_ROUNDS,
                &mut [
                    &mut || drop(run_incast(&off)),
                    &mut || drop(run_incast(on)),
                    &mut || drop(run_incast(&dead)),
                ],
            );
            rows.push(("simnet.control.on_cost_pct", pct(w[1] - w[0], w[0])));
            rows.push(("simnet.control.dead_cost_pct", pct(w[2] - w[0], w[0])));
        }
        // The observers-off cost: a sink that discards everything versus
        // no sink at all.
        ("mode1_steady", Case::Incast(cfg)) => {
            let w = alternate(
                AB_ROUNDS,
                &mut [&mut || drop(run_incast(cfg)), &mut || {
                    let sink = SinkRef::new(NullSink::new());
                    drop(run_incast_instrumented(cfg, Some(&sink)))
                }],
            );
            rows.push(("telemetry.sink.null_cost_pct", pct(w[1] - w[0], w[0])));
        }
        ("fleet_fig2", Case::Fleet(one)) => {
            let two = FleetConfig {
                threads: threads(),
                ..one.clone()
            };
            let w = alternate(
                3,
                &mut [
                    &mut || drop(run_fleet_with(one, &RunCache::in_memory())),
                    &mut || drop(run_fleet_with(&two, &RunCache::in_memory())),
                ],
            );
            rows.push(("core.runner.par_reduce_speedup_x", w[0] / w[1]));
        }
        ("sweep_cold", Case::SweepCold(cfgs)) => {
            let sup = SupervisorConfig {
                threads: threads(),
                budget: RunBudget::default(),
                quarantine_dir: None,
            };
            let w = alternate(
                AB_ROUNDS,
                &mut [
                    &mut || drop(run_incast_sweep(cfgs, 1, &RunCache::in_memory())),
                    &mut || drop(run_incast_sweep(cfgs, threads(), &RunCache::in_memory())),
                    &mut || drop(supervised_incast_sweep(cfgs, &sup, &RunCache::in_memory())),
                ],
            );
            rows.push(("core.pool.speedup_x", w[0] / w[1]));
            rows.push(("core.supervisor.overhead_pct", pct(w[2] - w[1], w[1])));
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn missing_rows_fill_with_zero_in_table_order() {
        let filled = fill_missing(&[("simnet.queue.drops", 3.0), ("simnet.sim.events", 9.0)]);
        assert_eq!(filled.len(), WORKLOAD_LAYERS.len());
        assert_eq!(filled[0], ("simnet.sim.events", 9.0));
        assert_eq!(lookup(&filled, "simnet.queue.drops"), 3.0);
        assert_eq!(lookup(&filled, "core.pool.speedup_x"), 0.0);
    }

    #[test]
    #[should_panic(expected = "not a declared per-layer metric")]
    fn an_undeclared_row_is_a_harness_bug() {
        fill_missing(&[("simnet.made.up", 1.0)]);
    }

    #[test]
    fn alternate_reports_one_median_per_variant() {
        let (mut a, mut b) = (0, 0);
        let w = alternate(3, &mut [&mut || a += 1, &mut || b += 1]);
        assert_eq!((a, b, w.len()), (3, 3, 2));
    }

    #[test]
    fn layer_names_are_unique() {
        let mut names: Vec<_> = WORKLOAD_LAYERS
            .iter()
            .chain(KERNEL_LAYERS)
            .map(|l| l.0)
            .collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
    }
}
