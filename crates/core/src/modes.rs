//! The Section-4 incast experiment: N DCTCP flows through the paper's
//! dumbbell, cyclic bursts, queue traces, and the three operating modes.
//!
//! This is the engine behind Figures 5 and 6, the straggler analysis of
//! Figure 7, and every ablation and mitigation sweep: one configuration
//! struct in, one [`IncastRunResult`] out.

use simnet::{
    build_clos_with, BufferPolicy, ClosConfig, ControlConfig, CtrlAction, FaultPlan, QueueConfig,
    Scheduler, Shared, SimTime, TimingWheel,
};
use stats::{ConfigError, Rng, TimeSeries};
use telemetry::{LoopProfile, RunManifest, SinkRef};
use transport::{TcpConfig, TcpHost};
use workload::{BurstSchedule, CyclicCoordinator, Grouping, IncastConfig, Worker};

/// Infrastructure faults for one incast run, expressed against the incast
/// fabric's well-known elements (the trunk, the bottleneck downlink, the
/// shared receiver-ToR buffer, individual senders) rather than raw link
/// ids. Compiled into a [`FaultPlan`] when the fabric is built. All
/// windows are `[from, until)` in absolute sim time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSpec {
    /// Trunk blackhole window: the trunk drops every frame.
    pub blackhole: Option<(SimTime, SimTime)>,
    /// Extra random loss on the bottleneck downlink: `(from, until, p)`.
    pub loss: Option<(SimTime, SimTime, f64)>,
    /// Frame corruption on the bottleneck downlink: `(from, until, p)`.
    pub corrupt: Option<(SimTime, SimTime, f64)>,
    /// ECN mis-configuration window: marking disabled at the bottleneck,
    /// then restored to the configured thresholds.
    pub ecn_off: Option<(SimTime, SimTime)>,
    /// Shared-buffer squeeze: `(from, until, shrunk_bytes)`; restored to
    /// the configured size at `until`. Ignored unless the run has a shared
    /// receiver-ToR buffer.
    pub buffer_shrink: Option<(SimTime, SimTime, u64)>,
    /// Straggler window: `(from, until, sender_index)` pauses that
    /// sender's host software.
    pub straggler: Option<(SimTime, SimTime, u32)>,
    /// Spine blackhole: `(from, until, spine_index)` downs every rack's
    /// uplink into spine `spine_index % spines`, forcing each leaf's ECMP
    /// to deterministically re-hash the affected flows onto the surviving
    /// spines. On the dumbbell (or a 1-rack Clos) this downs the
    /// corresponding parallel trunk — the only trunk when `spines == 1`,
    /// where it behaves like `blackhole`.
    pub spine_blackhole: Option<(SimTime, SimTime, u32)>,
    /// Extra random loss on one spine uplink:
    /// `(from, until, spine_index, p)`, applied to rack 0's uplink into
    /// spine `spine_index % spines`.
    pub spine_loss: Option<(SimTime, SimTime, u32, f64)>,
}

stats::leaves!(FaultSpec:
    blackhole, loss, corrupt, ecn_off, buffer_shrink, straggler, spine_blackhole, spine_loss);

impl FaultSpec {
    /// True if no fault is configured (the run installs no plan).
    pub fn is_empty(&self) -> bool {
        *self == FaultSpec::default()
    }
}

/// Which in-fabric incast control plane a run installs, if any.
///
/// `Pulser` monitors only the receiver-ToR downlinks (where the paper's
/// incast converges) and multicasts *pause* notifications back to the
/// contributing senders; `Distributed` additionally monitors every rack
/// uplink and spine downlink and requests a *cwnd cut* instead. Both are
/// fully fault-exposed: notification frames ride the same links and queues
/// as data, and `notif_loss` drops them at emission. `Off` installs
/// nothing — and so does `notif_loss >= 1`, byte-identically (graceful
/// degradation; `tests/control_plane.rs` pins this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MitigationKind {
    /// No control plane (the paper's status quo).
    #[default]
    Off,
    /// Pause notifications from the receiver-ToR downlinks.
    Pulser,
    /// Cwnd-cut notifications from every fabric tier.
    Distributed,
}

stats::variants!(MitigationKind {
    Off => "off",
    Pulser => "pulser",
    Distributed => "distributed",
});

/// Configuration of the in-fabric incast control plane for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MitigationSpec {
    /// Which control plane to install.
    pub kind: MitigationKind,
    /// Emission-time notification loss probability (`>= 1` blackholes the
    /// control plane entirely — byte-identical to `Off`).
    pub notif_loss: f64,
    /// Distinct data flows in the detection window required to trigger.
    pub flow_threshold: u32,
    /// Detection sliding-window length, µs.
    pub window_us: u64,
    /// Pause duration carried in notifications, µs (senders clamp to
    /// their guard bound).
    pub pause_us: u64,
    /// Base re-fire timeout for unacknowledged notifications, µs.
    pub retry_timeout_us: u64,
    /// Re-fire budget per episode (0 = fire once, never retry).
    pub max_retries: u32,
}

stats::leaves!(MitigationSpec:
    kind, notif_loss, flow_threshold, window_us, pause_us, retry_timeout_us, max_retries);

impl Default for MitigationSpec {
    fn default() -> Self {
        MitigationSpec {
            kind: MitigationKind::Off,
            notif_loss: 0.0,
            flow_threshold: 8,
            window_us: 100,
            pause_us: 150,
            retry_timeout_us: 100,
            max_retries: 5,
        }
    }
}

impl MitigationSpec {
    /// True when the run installs no control plane.
    pub fn is_off(&self) -> bool {
        self.kind == MitigationKind::Off
    }
}

/// Why a budgeted run was cut short.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncationCause {
    /// The sim-time budget was exhausted.
    SimTime,
    /// The event-count budget was exhausted.
    Events,
    /// The wall-clock watchdog fired.
    WallClock,
}

stats::variants!(TruncationCause {
    SimTime => "sim_time",
    Events => "events",
    WallClock => "wall_clock",
});

/// Resource budgets for one supervised run. Any exceeded budget stops the
/// run gracefully at the next polling step: partial results are collected,
/// the manifest is marked `truncated`, and sweep aggregates exclude it.
#[derive(Debug, Clone, Copy, Default)]
pub struct RunBudget {
    /// Wall-clock watchdog (nondeterministic — runs truncated by it are
    /// not comparable across machines).
    pub wall_clock: Option<std::time::Duration>,
    /// Simulated-time ceiling (checked against `sim.now()`).
    pub sim_time: Option<SimTime>,
    /// Event-count ceiling (checked against `events_processed`).
    pub max_events: Option<u64>,
}

impl RunBudget {
    /// True if no budget is configured.
    pub fn is_unlimited(&self) -> bool {
        self.wall_clock.is_none() && self.sim_time.is_none() && self.max_events.is_none()
    }
}

/// Which fabric a cyclic-incast run is built on.
///
/// `Dumbbell` is the paper's Section-4 two-ToR topology and the historical
/// default; `Clos` spreads the same `num_flows` senders round-robin over
/// `racks` leaf switches whose uplinks are ECMP-balanced across `spines`
/// spine switches (see `simnet::ClosConfig`). A `Clos` with one rack and
/// one spine builds the exact same simulator as `Dumbbell`, byte for byte
/// (`tests/fabric_equivalence.rs` pins this).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TopologySpec {
    /// The paper's two-ToR dumbbell: every sender in one rack.
    #[default]
    Dumbbell,
    /// A leaf/spine Clos fabric.
    Clos {
        /// Sender racks (leaf switches); senders are assigned round-robin.
        racks: usize,
        /// Spine switches every leaf uplinks to (the ECMP fan-out).
        spines: usize,
    },
}

stats::variants!(TopologySpec {
    Dumbbell => "dumbbell",
    Clos { racks, spines } => "clos",
});

/// Configuration of one cyclic-incast run.
#[derive(Debug, Clone, PartialEq)]
pub struct ModesConfig {
    /// Number of incast flows (N senders).
    pub num_flows: usize,
    /// Fabric the flows converge across.
    pub topology: TopologySpec,
    /// Nominal burst duration: demand = duration x 10 Gbps / N per flow.
    pub burst_duration_ms: f64,
    /// Bursts to run (the paper uses 11 and discards the first).
    pub num_bursts: u32,
    /// Bursts discarded as warm-up before "steady state". The paper
    /// discards 1; with a Linux-like 200 ms minimum RTO the synchronized
    /// slow-start storm of burst 0 also contaminates burst 1, so the
    /// default here is 2.
    pub warmup_bursts: u32,
    /// Endpoint TCP configuration (DCTCP with the paper's parameters by
    /// default).
    pub tcp: TcpConfig,
    /// Bottleneck (receiver-ToR) queue configuration.
    pub tor_queue: QueueConfig,
    /// Optional shared buffer on the receiving ToR.
    pub receiver_tor_buffer: Option<(u64, BufferPolicy)>,
    /// Queue-depth recording interval.
    pub queue_sample: SimTime,
    /// If set, per-flow in-flight bytes are polled at this interval
    /// (drives Fig. 7).
    pub flight_sample: Option<SimTime>,
    /// Optional receiver-side group scheduling (§5.2 mitigation).
    pub grouping: Option<Grouping>,
    /// Burst scheduling policy.
    pub schedule: BurstSchedule,
    /// Root seed.
    pub seed: u64,
    /// Hard wall-clock limit on simulated time (guards Mode-3 runs).
    pub horizon: SimTime,
    /// Deterministic infrastructure faults injected during the run.
    pub faults: FaultSpec,
    /// In-fabric incast control plane (explicit notifications).
    pub mitigation: MitigationSpec,
}

stats::leaves!(ModesConfig:
    num_flows, topology, burst_duration_ms, num_bursts, warmup_bursts, tcp, tor_queue,
    receiver_tor_buffer, queue_sample, flight_sample, grouping, schedule, seed, horizon, faults,
    mitigation);

impl ModesConfig {
    /// Checks what a run cannot start without: at least one flow and one
    /// burst, a positive burst duration, a Clos with a rack and a spine,
    /// non-empty queues, buffers and groups, a positive DT α, fault
    /// probabilities in [0, 1], and a valid [`TcpConfig`]. [`run_incast`]
    /// panics on a config this rejects; the supervisor reports it as a
    /// failed run without starting one.
    pub fn validate(&self) -> Result<(), ConfigError> {
        let reject = |path, reason| Err(ConfigError::new(path, reason));
        let not_prob = |p: f64| !(0.0..=1.0).contains(&p);
        if self.num_flows == 0 {
            return reject("num_flows", "must be positive");
        }
        if self.burst_duration_ms.is_nan() || self.burst_duration_ms <= 0.0 {
            return reject("burst_duration_ms", "must be positive");
        }
        if self.num_bursts == 0 {
            return reject("num_bursts", "must be positive");
        }
        if let TopologySpec::Clos { racks, spines } = self.topology {
            if racks == 0 {
                return reject("topology.racks", "must be at least 1");
            }
            if spines == 0 {
                return reject("topology.spines", "must be at least 1");
            }
        }
        if self.tor_queue.capacity_bytes == 0 {
            return reject("tor_queue.capacity_bytes", "must be positive");
        }
        if let Some((bytes, policy)) = self.receiver_tor_buffer {
            if bytes == 0 {
                return reject("receiver_tor_buffer.0", "must be positive");
            }
            if let BufferPolicy::DynamicThreshold { alpha } = policy {
                if !(alpha > 0.0 && alpha.is_finite()) {
                    return reject("receiver_tor_buffer.1.alpha", "must be positive and finite");
                }
            }
        }
        if self.grouping.is_some_and(|g| g.group_size == 0) {
            return reject("grouping.group_size", "must be positive");
        }
        let f = &self.faults;
        if f.loss.is_some_and(|(_, _, p)| not_prob(p)) {
            return reject("faults.loss.2", "must be in [0, 1]");
        }
        if f.corrupt.is_some_and(|(_, _, p)| not_prob(p)) {
            return reject("faults.corrupt.2", "must be in [0, 1]");
        }
        if f.spine_loss.is_some_and(|(_, _, _, p)| not_prob(p)) {
            return reject("faults.spine_loss.3", "must be in [0, 1]");
        }
        if f.buffer_shrink.is_some_and(|(_, _, bytes)| bytes == 0) {
            return reject("faults.buffer_shrink.2", "must be positive");
        }
        self.tcp.validate()
    }
}

impl Default for ModesConfig {
    /// The paper's Section 4 defaults (15 ms bursts, 11 bursts, 2 ms gap).
    fn default() -> Self {
        ModesConfig {
            num_flows: 100,
            topology: TopologySpec::Dumbbell,
            burst_duration_ms: 15.0,
            num_bursts: 11,
            warmup_bursts: 2,
            tcp: TcpConfig::default(),
            tor_queue: QueueConfig::paper_tor(),
            receiver_tor_buffer: None,
            queue_sample: SimTime::from_us(20),
            flight_sample: None,
            grouping: None,
            schedule: BurstSchedule::AfterCompletion {
                gap: SimTime::from_ms(2),
            },
            seed: 1,
            horizon: SimTime::from_secs(30),
            faults: FaultSpec::default(),
            mitigation: MitigationSpec::default(),
        }
    }
}

/// The paper's three DCTCP operating modes (§4.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OperatingMode {
    /// Healthy: the queue oscillates around the marking threshold and
    /// regularly drains below it.
    Mode1Healthy,
    /// Degenerate point: every flow is at the window floor, the queue is
    /// pinned above the threshold, but capacity still absorbs it.
    Mode2Degenerate,
    /// Overflow: drops and RTO-driven recovery dominate.
    Mode3Timeouts,
}

impl OperatingMode {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            OperatingMode::Mode1Healthy => "Mode 1 (healthy)",
            OperatingMode::Mode2Degenerate => "Mode 2 (degenerate)",
            OperatingMode::Mode3Timeouts => "Mode 3 (timeouts)",
        }
    }
}

/// Everything a run produces.
#[derive(Debug)]
pub struct IncastRunResult {
    /// Completion time of every burst, in order.
    pub bcts_ms: Vec<f64>,
    /// Mean BCT over the final bursts (first discarded, per the paper).
    pub mean_bct_ms: f64,
    /// Bottleneck queue depth (packets) per `queue_sample` bucket.
    pub queue_pkts: TimeSeries,
    /// `(start_ms, end_ms)` of each burst.
    pub burst_windows: Vec<(f64, f64)>,
    /// Tail drops + shared-buffer drops at the bottleneck queue.
    pub drops: u64,
    /// CE marks applied at the bottleneck queue.
    pub marked_pkts: u64,
    /// Packets enqueued at the bottleneck.
    pub enqueued_pkts: u64,
    /// Total retransmitted payload bytes across senders.
    pub retx_bytes: u64,
    /// Total RTO events across senders.
    pub timeouts: u64,
    /// Total fast retransmits across senders.
    pub fast_retransmits: u64,
    /// Drops after the warm-up bursts completed (the paper discards the
    /// first burst, whose slow-start losses are not representative; see
    /// [`ModesConfig::warmup_bursts`]).
    pub steady_drops: u64,
    /// RTO events after the warm-up bursts completed.
    pub steady_timeouts: u64,
    /// Retransmitted bytes after the warm-up bursts completed.
    pub steady_retx_bytes: u64,
    /// Number of bursts treated as warm-up.
    pub warmup_bursts: u32,
    /// Peak bottleneck occupancy in packets.
    pub queue_watermark_pkts: u32,
    /// Polled per-flow in-flight bytes (one series per flow), if enabled.
    pub flights: Vec<TimeSeries>,
    /// Time when the run finished (last burst completion).
    pub finished_at: SimTime,
    /// The ECN threshold in effect (packets), for classification.
    pub ecn_threshold_pkts: u32,
    /// Why the run was truncated by a [`RunBudget`] guard, if it was.
    /// Truncated results carry whatever partial data was collected and are
    /// excluded from sweep aggregates.
    pub truncated: Option<TruncationCause>,
    /// Event-loop wall-clock profile (events/sec, per-kind tallies).
    pub profile: LoopProfile,
}

stats::leaves!(IncastRunResult:
    bcts_ms, mean_bct_ms, queue_pkts, burst_windows, drops, marked_pkts, enqueued_pkts,
    retx_bytes, timeouts, fast_retransmits, steady_drops, steady_timeouts, steady_retx_bytes,
    warmup_bursts, queue_watermark_pkts, flights, finished_at, ecn_threshold_pkts, truncated,
    profile);

impl IncastRunResult {
    /// Queue-depth samples restricted to the steady-state burst windows
    /// (all bursts after the warm-up).
    pub fn steady_burst_samples(&self) -> Vec<f64> {
        let mut out = Vec::new();
        let interval_ms = self.queue_pkts.interval() as f64 / 1e9;
        for &(s, e) in self.burst_windows.iter().skip(self.warmup_bursts as usize) {
            let first = (s / interval_ms) as usize;
            let last = (e / interval_ms) as usize;
            let end = last.min(self.queue_pkts.len().saturating_sub(1)) + 1;
            out.extend(self.queue_pkts.window(first..end));
        }
        out
    }

    /// Classifies the run into the paper's three modes, using steady-state
    /// (post-first-burst) behavior as the paper does.
    pub fn mode(&self) -> OperatingMode {
        if self.steady_timeouts > 0 && self.steady_drops > 0 {
            return OperatingMode::Mode3Timeouts;
        }
        let samples = self.steady_burst_samples();
        if samples.is_empty() {
            return OperatingMode::Mode1Healthy;
        }
        let below = samples
            .iter()
            .filter(|&&q| q < self.ecn_threshold_pkts as f64)
            .count() as f64
            / samples.len() as f64;
        if below < 0.10 {
            OperatingMode::Mode2Degenerate
        } else {
            OperatingMode::Mode1Healthy
        }
    }

    /// Mean queue depth over steady-state burst windows.
    pub fn mean_steady_queue_pkts(&self) -> f64 {
        let s = self.steady_burst_samples();
        if s.is_empty() {
            0.0
        } else {
            s.iter().sum::<f64>() / s.len() as f64
        }
    }

    /// Peak queue depth over steady-state burst windows.
    pub fn peak_steady_queue_pkts(&self) -> f64 {
        self.steady_burst_samples().into_iter().fold(0.0, f64::max)
    }

    /// Mean queue spike over the first `window` of each burst after the
    /// first: the §4.3 straggler signature (Figure 7, ablation A7, the
    /// mitigation lineup).
    pub fn start_spike(&self, window: SimTime) -> f64 {
        let spikes: Vec<f64> = self
            .burst_windows
            .iter()
            .skip(1)
            .map(|&(s_ms, _)| {
                let t0 = (s_ms * 1e9) as u64;
                millisampler::peak_in_window(&self.queue_pkts, t0, t0 + window.as_ps())
            })
            .collect();
        if spikes.is_empty() {
            0.0
        } else {
            spikes.iter().sum::<f64>() / spikes.len() as f64
        }
    }

    /// The queue trace as `(ms, packets)` points for plotting.
    pub fn queue_points(&self) -> Vec<(f64, f64)> {
        self.queue_pkts
            .iter()
            .map(|(t_ps, v)| (t_ps as f64 / 1e9, v))
            .collect()
    }
}

/// Runs one cyclic-incast experiment.
pub fn run_incast(cfg: &ModesConfig) -> IncastRunResult {
    run_incast_instrumented(cfg, None).0
}

/// Runs one cyclic-incast experiment with an optional telemetry sink, on
/// the default timing-wheel scheduler.
///
/// When a sink is attached, the run streams structured events to it —
/// per-packet trace and queue-depth samples on the bottleneck link,
/// shared-buffer watermarks, per-flow window transitions from every
/// sender, and burst boundary markers — each gated by the sink's
/// [`telemetry::EventSink::accepts`] subscriptions. The returned
/// [`RunManifest`] describes the run (seed, topology, transport config,
/// code version, event counts, wall clock) for replay and diffing.
pub fn run_incast_instrumented(
    cfg: &ModesConfig,
    sink: Option<&SinkRef>,
) -> (IncastRunResult, RunManifest) {
    run_incast_with::<TimingWheel>(cfg, sink)
}

/// [`run_incast_instrumented`] with an explicit event [`Scheduler`].
///
/// The scheduler choice must not change anything but wall-clock time; the
/// differential tests (`tests/scheduler_equivalence.rs`) drive this with
/// [`TimingWheel`] and [`simnet::EventQueue`] from the same seed and
/// require byte-identical telemetry.
pub fn run_incast_with<S: Scheduler>(
    cfg: &ModesConfig,
    sink: Option<&SinkRef>,
) -> (IncastRunResult, RunManifest) {
    run_incast_budgeted_with::<S>(cfg, sink, None)
}

/// [`run_incast_with`] under an optional [`RunBudget`].
///
/// When a budget trips, the run stops at the next polling step instead of
/// completing: whatever bursts finished so far are collected, the result
/// and manifest are marked `truncated` with the cause, and the supervised
/// sweep runner excludes the run from aggregates. The sim-time and
/// event-count guards are deterministic; the wall-clock watchdog is not
/// and exists only to bound runaway runs.
pub fn run_incast_budgeted_with<S: Scheduler>(
    cfg: &ModesConfig,
    sink: Option<&SinkRef>,
    budget: Option<&RunBudget>,
) -> (IncastRunResult, RunManifest) {
    cfg.validate()
        .unwrap_or_else(|e| panic!("invalid config: {e}"));
    let t_setup = std::time::Instant::now();

    // Every run builds through the Clos builder: the dumbbell is its
    // degenerate 1-rack / 1-spine form, which `build_clos_with` constructs
    // with the exact historical builder-call sequence — node ids, link
    // ids, and the whole event stream are byte-identical to the old
    // `build_fabric` path (`tests/fabric_equivalence.rs` pins this).
    let (racks, spines) = match cfg.topology {
        TopologySpec::Dumbbell => (1, 1),
        TopologySpec::Clos { racks, spines } => (racks, spines),
    };
    let is_clos = matches!(cfg.topology, TopologySpec::Clos { .. });
    let clos_cfg = ClosConfig {
        racks,
        hosts_per_rack: cfg.num_flows.div_ceil(racks.max(1)),
        spines,
        num_receivers: 1,
        tor_queue: cfg.tor_queue.clone(),
        receiver_tor_buffer: cfg.receiver_tor_buffer,
        seed: cfg.seed,
        ..ClosConfig::default()
    };
    let mut fabric = build_clos_with::<S>(&clos_cfg).expect("a validated topology builds");
    // Flow i sends from `host_for_flow(i)`: round-robin across racks, so
    // an M-rack run converges senders from M racks onto the one receiver.
    // With one rack this is exactly the dumbbell's sender order.
    let senders: Vec<_> = (0..cfg.num_flows)
        .map(|i| fabric.host_for_flow(i))
        .collect();
    let bottleneck = fabric.downlinks[0];
    fabric
        .sim
        .link_mut(bottleneck)
        .queue
        .enable_monitor(cfg.queue_sample);
    if let Some(s) = sink {
        fabric.sim.set_sink(s.clone());
        fabric.sim.enable_depth_probe(bottleneck);
        if is_clos {
            // Per-tier depth telemetry: every rack uplink and spine
            // downlink streams queue_depth samples alongside the
            // bottleneck's.
            for ups in &fabric.rack_uplinks {
                for &l in ups {
                    fabric.sim.enable_depth_probe(l);
                }
            }
            for &l in &fabric.spine_downlinks {
                fabric.sim.enable_depth_probe(l);
            }
        }
    }

    // Compile the fault spec into a concrete plan against this fabric:
    // blackholes hit the trunk (the first rack uplink), spine faults hit
    // rack-to-spine uplinks, loss/corruption/ECN outages hit the
    // bottleneck downlink, squeezes hit the shared receiver-ToR buffer,
    // stragglers pause individual sender hosts.
    let mut plan = FaultPlan::new();
    if let Some((from, until)) = cfg.faults.blackhole {
        plan = plan.blackhole(fabric.rack_uplinks[0][0], from, until);
    }
    if let Some((from, until, k)) = cfg.faults.spine_blackhole {
        for ups in &fabric.rack_uplinks {
            plan = plan.blackhole(ups[k as usize % ups.len()], from, until);
        }
    }
    if let Some((from, until, k, p)) = cfg.faults.spine_loss {
        let ups = &fabric.rack_uplinks[0];
        plan = plan.lossy_window(ups[k as usize % ups.len()], from, until, p);
    }
    if let Some((from, until, p)) = cfg.faults.loss {
        plan = plan.lossy_window(bottleneck, from, until, p);
    }
    if let Some((from, until, p)) = cfg.faults.corrupt {
        plan = plan.corrupt_window(bottleneck, from, until, p);
    }
    if let Some((from, until)) = cfg.faults.ecn_off {
        plan = plan.ecn_outage(
            bottleneck,
            from,
            until,
            cfg.tor_queue.ecn_threshold_pkts,
            cfg.tor_queue.ecn_threshold_bytes,
        );
    }
    if let Some((from, until, shrunk)) = cfg.faults.buffer_shrink {
        if let Some((total, _)) = cfg.receiver_tor_buffer {
            plan = plan.buffer_squeeze(simnet::BufferId(0), from, until, shrunk, total);
        }
    }
    if let Some((from, until, idx)) = cfg.faults.straggler {
        let node = senders[idx as usize % senders.len()];
        plan = plan.straggler(node, from, until);
    }
    let has_faults = !plan.is_empty();
    if has_faults {
        fabric.sim.set_fault_plan(plan);
    }

    // In-fabric incast control plane. Pulser watches only the receiver-ToR
    // downlinks (where the incast converges); Distributed adds every rack
    // uplink and spine downlink and asks for a cwnd cut instead of a pause.
    // A fully blackholed plane (notif_loss >= 1) is still installed: the
    // dead plane is byte-identical to no plane (graceful degradation), and
    // installing it keeps that claim under test in every such run.
    let mit = cfg.mitigation;
    let ctrl_ports: Vec<simnet::LinkId> = match mit.kind {
        MitigationKind::Off => Vec::new(),
        MitigationKind::Pulser => fabric.downlinks.clone(),
        MitigationKind::Distributed => fabric
            .downlinks
            .iter()
            .chain(fabric.rack_uplinks.iter().flatten())
            .chain(fabric.spine_downlinks.iter())
            .copied()
            .collect(),
    };
    if !mit.is_off() {
        fabric.sim.set_control_plane(ControlConfig {
            ports: ctrl_ports.clone(),
            action: match mit.kind {
                MitigationKind::Distributed => CtrlAction::CwndCut,
                _ => CtrlAction::Pause,
            },
            flow_threshold: mit.flow_threshold,
            window: SimTime::from_us(mit.window_us),
            // Arrival-rate leg of the trigger: half the 10 Gbps port rate
            // offered over the window.
            window_bytes: (10_000_000_000 / 8 / 1_000_000) * mit.window_us / 2,
            pause: SimTime::from_us(mit.pause_us),
            cooldown: SimTime::from_us(2 * mit.pause_us),
            retry_timeout: SimTime::from_us(mit.retry_timeout_us),
            max_retries: mit.max_retries,
            notif_loss: mit.notif_loss,
            // Dedicated control RNG, decorrelated from workload draws.
            seed: cfg.seed ^ 0x6374_726c,
        });
    }

    // Workers.
    let root = Rng::new(cfg.seed);
    let mut worker_handles = Vec::with_capacity(cfg.num_flows);
    for (i, &s) in senders.iter().enumerate() {
        let worker = Worker::new(root.fork(1000 + i as u64));
        let mut host = TcpHost::new(cfg.tcp.clone(), Box::new(worker));
        if let Some(sk) = sink {
            host.set_sink(sk.clone());
        }
        let host = Shared::new(host);
        worker_handles.push(host.handle());
        fabric.sim.set_endpoint(s, Box::new(host));
    }

    // Coordinator.
    let mut icfg = IncastConfig::paper(
        senders.clone(),
        cfg.burst_duration_ms,
        cfg.num_bursts,
        cfg.seed,
    );
    icfg.schedule = cfg.schedule;
    icfg.grouping = cfg.grouping;
    let mut coord = CyclicCoordinator::new(icfg);
    if let Some(sk) = sink {
        coord.set_sink(sk.clone());
    }
    let coordinator = Shared::new(coord);
    let coord_handle = coordinator.handle();
    fabric.sim.set_endpoint(
        fabric.receivers[0],
        Box::new(TcpHost::new(cfg.tcp.clone(), Box::new(coordinator))),
    );

    // Drive the simulation in small steps so we can poll flow state and
    // snapshot counters at the first burst boundary.
    let mut flights: Vec<TimeSeries> = Vec::new();
    if let Some(interval) = cfg.flight_sample {
        flights = (0..cfg.num_flows)
            .map(|_| TimeSeries::new(interval.as_ps()))
            .collect();
    }
    let step = cfg.flight_sample.unwrap_or(SimTime::from_ms(1));
    // Counters at the moment the warm-up bursts completed: (drops,
    // timeouts, retx_bytes).
    let mut warmup_counters: Option<(u64, u64, u64)> = None;
    let warmup = cfg.warmup_bursts as usize;
    let mut truncated: Option<TruncationCause> = None;
    let deadline = budget
        .and_then(|b| b.wall_clock)
        .map(|d| std::time::Instant::now() + d);

    let setup_us = t_setup.elapsed().as_micros() as u64;
    let t_sim = std::time::Instant::now();

    while !coord_handle.borrow().finished() && fabric.sim.now() < cfg.horizon {
        if let Some(b) = budget {
            // Deterministic guards first, so a run that trips both a sim
            // budget and the watchdog reports the reproducible cause.
            if let Some(limit) = b.sim_time {
                if fabric.sim.now() >= limit {
                    truncated = Some(TruncationCause::SimTime);
                    break;
                }
            }
            if let Some(max) = b.max_events {
                if fabric.sim.counters().events_processed >= max {
                    truncated = Some(TruncationCause::Events);
                    break;
                }
            }
            if let Some(dl) = deadline {
                if std::time::Instant::now() >= dl {
                    truncated = Some(TruncationCause::WallClock);
                    break;
                }
            }
        }
        let next = (fabric.sim.now() + step).min(cfg.horizon);
        fabric.sim.run_until(next);
        if cfg.flight_sample.is_some() {
            let t = fabric.sim.now().as_ps();
            for (i, h) in worker_handles.iter().enumerate() {
                let inflight = {
                    let host = h.borrow();
                    let v = host.core().senders().next().map(|(_, tx)| tx.in_flight());
                    v
                };
                if let Some(v) = inflight {
                    flights[i].record_max(t, v as f64);
                }
            }
        }
        if warmup_counters.is_none() && coord_handle.borrow().outcomes.len() >= warmup {
            let drops = fabric.sim.link(bottleneck).queue.stats().dropped_pkts;
            let mut to = 0;
            let mut rx = 0;
            for h in &worker_handles {
                let host = h.borrow();
                for (_, tx) in host.core().senders() {
                    to += tx.stats().timeouts;
                    rx += tx.stats().bytes_retx;
                }
            }
            warmup_counters = Some((drops, to, rx));
        }
    }

    let sim_us = t_sim.elapsed().as_micros() as u64;
    let t_aggregate = std::time::Instant::now();

    // Collect results.
    let coord = coord_handle.borrow();
    let bcts_ms = coord.bcts_ms();
    let burst_windows: Vec<(f64, f64)> = coord
        .outcomes
        .iter()
        .map(|o| (o.start.as_ms_f64(), o.end.as_ms_f64()))
        .collect();
    let warm = (cfg.warmup_bursts as usize).min(bcts_ms.len().saturating_sub(1));
    let mean_bct_ms = if bcts_ms.len() > warm {
        bcts_ms[warm..].iter().sum::<f64>() / (bcts_ms.len() - warm) as f64
    } else {
        bcts_ms.first().copied().unwrap_or(0.0)
    };

    let queue_pkts = fabric
        .sim
        .link_mut(bottleneck)
        .queue
        .take_monitor()
        .expect("monitor enabled above");
    let qstats = fabric.sim.link(bottleneck).queue.stats();

    let mut retx_bytes = 0;
    let mut timeouts = 0;
    let mut fast_retransmits = 0;
    for h in &worker_handles {
        let host = h.borrow();
        for (_, tx) in host.core().senders() {
            retx_bytes += tx.stats().bytes_retx;
            timeouts += tx.stats().timeouts;
            fast_retransmits += tx.stats().fast_retransmits;
        }
    }

    let (d0, t0, r0) = warmup_counters.unwrap_or((0, 0, 0));
    let profile = fabric.sim.profile();

    let topology_label = match cfg.topology {
        TopologySpec::Dumbbell => format!("dumbbell:senders={},receivers=1", cfg.num_flows),
        TopologySpec::Clos { racks, spines } => format!(
            "clos:racks={racks},hosts_per_rack={},spines={spines},senders={},receivers=1",
            clos_cfg.hosts_per_rack, cfg.num_flows
        ),
    };
    let mut manifest = RunManifest::new("incast", cfg.seed, &topology_label).with_git_describe();
    manifest.config_json = stats::leaves::write(cfg);
    manifest.event_count = sink.map(|s| s.event_count()).unwrap_or(0);
    manifest.events_processed = fabric.sim.counters().events_processed;
    manifest.sim_time_ps = fabric.sim.now().as_ps();
    manifest.counters_json = fabric.sim.counters().to_json();
    manifest.scheduler = fabric.sim.scheduler_name().to_string();
    if is_clos {
        // Per-tier queue statistics, aggregated over the rack-uplink tier,
        // the spine-downlink tier, and the receiver downlinks. All derived
        // from seeded queue counters, so the field is deterministic and
        // survives `RunManifest::deterministic()`.
        let tier = |links: &[simnet::LinkId]| {
            let (mut wm, mut drops, mut marks) = (0u32, 0u64, 0u64);
            for &l in links {
                let s = fabric.sim.link(l).queue.stats();
                wm = wm.max(s.watermark_pkts);
                drops += s.dropped_pkts;
                marks += s.marked_pkts;
            }
            let mut out = String::new();
            let mut o = telemetry::json::Obj::new(&mut out);
            o.u64("links", links.len() as u64)
                .u64("watermark_pkts", wm as u64)
                .u64("dropped_pkts", drops)
                .u64("marked_pkts", marks);
            o.finish();
            out
        };
        let uplinks: Vec<_> = fabric.rack_uplinks.iter().flatten().copied().collect();
        let mut out = String::new();
        let mut o = telemetry::json::Obj::new(&mut out);
        o.raw("uplink", &tier(&uplinks))
            .raw("spine", &tier(&fabric.spine_downlinks))
            .raw("downlink", &tier(&fabric.downlinks));
        o.finish();
        manifest.tiers_json = Some(out);
    }
    if has_faults {
        manifest.faults_injected = Some(fabric.sim.counters().faults_applied);
    }
    if !mit.is_off() {
        // Control-plane lifecycle summary: configuration alongside the
        // notification tallies, all deterministic for a fixed seed.
        let c = fabric.sim.counters();
        let mut out = String::new();
        let mut o = telemetry::json::Obj::new(&mut out);
        o.str("mitigation", mit.kind.label())
            .u64("ports", ctrl_ports.len() as u64)
            .f64("notif_loss", mit.notif_loss)
            .u64("notif_sent", c.notif_sent)
            .u64("notif_acked", c.notif_acked)
            .u64("notif_retries", c.notif_retries)
            .u64("notif_lost", c.notif_lost);
        o.finish();
        manifest.control_json = Some(out);
    }
    manifest.truncated = truncated.map(|c| c.label().to_string());
    manifest.wall_clock_us = Some(profile.wall.as_micros() as u64);
    let wall_s = profile.wall.as_secs_f64();
    if wall_s > 0.0 {
        manifest.events_per_sec = Some((profile.events() as f64 / wall_s) as u64);
    }
    #[cfg(feature = "check")]
    {
        // End-of-run conservation audit; the running total includes any
        // violations the per-event hooks recorded along the way. The caller
        // (e.g. the simcheck fuzzer) owns resetting/draining the log.
        fabric.sim.audit_conservation();
        manifest.invariant_violations = Some(simnet::check::violation_count());
    }
    manifest.timing_json = Some({
        let mut out = String::new();
        let mut o = telemetry::json::Obj::new(&mut out);
        o.u64("setup_us", setup_us)
            .u64("sim_us", sim_us)
            .u64("aggregate_us", t_aggregate.elapsed().as_micros() as u64);
        o.finish();
        out
    });

    let result = IncastRunResult {
        bcts_ms,
        mean_bct_ms,
        queue_pkts,
        burst_windows,
        drops: qstats.dropped_pkts,
        marked_pkts: qstats.marked_pkts,
        enqueued_pkts: qstats.enqueued_pkts,
        retx_bytes,
        timeouts,
        fast_retransmits,
        steady_drops: qstats.dropped_pkts.saturating_sub(d0),
        steady_timeouts: timeouts.saturating_sub(t0),
        steady_retx_bytes: retx_bytes.saturating_sub(r0),
        queue_watermark_pkts: qstats.watermark_pkts,
        flights,
        finished_at: fabric.sim.now(),
        ecn_threshold_pkts: cfg.tor_queue.ecn_threshold_pkts.unwrap_or(0),
        warmup_bursts: cfg.warmup_bursts,
        truncated,
        profile,
    };
    (result, manifest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(num_flows: usize, burst_ms: f64, bursts: u32) -> ModesConfig {
        ModesConfig {
            num_flows,
            burst_duration_ms: burst_ms,
            num_bursts: bursts,
            ..ModesConfig::default()
        }
    }

    #[test]
    fn small_healthy_incast_is_mode1() {
        let r = run_incast(&quick(20, 2.0, 3));
        assert_eq!(r.bcts_ms.len(), 3);
        assert_eq!(r.mode(), OperatingMode::Mode1Healthy);
        assert_eq!(r.drops, 0);
        assert_eq!(r.timeouts, 0);
        // Near-optimal BCT: 2 ms of data, finished within 4x.
        assert!(r.mean_bct_ms < 8.0, "bct {}", r.mean_bct_ms);
        // Data actually moved through the bottleneck.
        assert!(r.enqueued_pkts > 1000);
    }

    #[test]
    fn degenerate_incast_pins_queue() {
        // The paper's Fig. 5b setup: 500 flows, 15 ms bursts. At the window
        // floor the in-flight floor is 500 pkts >> K=65: the queue pins.
        let r = run_incast(&quick(500, 15.0, 3));
        assert_eq!(r.mode(), OperatingMode::Mode2Degenerate);
        assert_eq!(
            r.steady_timeouts, 0,
            "deep queue absorbs the degenerate point in steady state"
        );
        // Queue pinned near flows - BDP (the paper's §4.1.2 relation says
        // ~475 pkts; the start-of-burst spike and completion drain pull the
        // mean around it).
        let mean_q = r.mean_steady_queue_pkts();
        assert!(
            (330.0..640.0).contains(&mean_q),
            "steady queue {mean_q} pkts"
        );
    }

    #[test]
    fn massive_incast_times_out() {
        // 1600 flows exceed queue capacity + BDP even at the window floor,
        // so every burst (warm-up or not) drops and times out.
        let r = run_incast(&quick(1600, 2.0, 3));
        assert_eq!(r.mode(), OperatingMode::Mode3Timeouts);
        assert!(r.drops > 0);
        assert!(r.timeouts > 0);
        // Timeouts push the BCT to RTO scale (>= 200 ms).
        assert!(r.mean_bct_ms >= 100.0, "bct {}", r.mean_bct_ms);
    }

    #[test]
    fn flight_polling_produces_per_flow_series() {
        let mut cfg = quick(10, 1.0, 2);
        cfg.flight_sample = Some(SimTime::from_us(100));
        let r = run_incast(&cfg);
        assert_eq!(r.flights.len(), 10);
        assert!(r.flights.iter().any(|f| f.max() > 0.0));
    }

    #[test]
    fn burst_windows_align_with_bcts() {
        let r = run_incast(&quick(20, 1.0, 3));
        assert_eq!(r.burst_windows.len(), 3);
        for ((s, e), bct) in r.burst_windows.iter().zip(&r.bcts_ms) {
            assert!((e - s - bct).abs() < 1e-9);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = run_incast(&quick(30, 1.0, 2));
        let b = run_incast(&quick(30, 1.0, 2));
        assert_eq!(a.bcts_ms, b.bcts_ms);
        assert_eq!(a.drops, b.drops);
        assert_eq!(a.marked_pkts, b.marked_pkts);
    }

    #[test]
    fn profile_reflects_event_loop_work() {
        let r = run_incast(&quick(10, 0.5, 2));
        assert!(r.profile.events() > 1000, "{}", r.profile.events());
        assert!(r.profile.tallies.delivery > 0);
        assert!(r.profile.tallies.timer > 0);
        assert!(r.profile.summary().contains("events"));
    }

    #[test]
    fn instrumented_run_streams_events_and_manifest() {
        let (jsonl, sref) = telemetry::JsonlSink::new().shared();
        let cfg = quick(10, 0.5, 2);
        let (r, manifest) = run_incast_instrumented(&cfg, Some(&sref));
        assert!(r.enqueued_pkts > 0);

        let out = jsonl.borrow().render();
        assert!(out.contains(r#""ev":"queue_depth""#), "queue probe silent");
        assert!(out.contains(r#""ev":"flow_window""#), "flow probes silent");
        assert!(out.contains(r#""ev":"burst_start""#));
        assert!(out.contains(r#""ev":"burst_end""#));
        assert!(out.contains(r#""ev":"pkt_enq""#));

        assert_eq!(manifest.event_count, jsonl.borrow().events_written());
        assert!(manifest.event_count > 0);
        assert_eq!(manifest.seed, cfg.seed);
        assert_eq!(manifest.topology, "dumbbell:senders=10,receivers=1");
        assert!(manifest.config_json.starts_with(r#"{"num_flows":10,"#));
        assert!(manifest
            .config_json
            .contains(r#""cca":{"kind":"dctcp","g":0.0625}"#));
        assert!(manifest.events_processed > 0);
        assert!(manifest.counters_json.contains("delivered_pkts"));
        assert!(manifest.wall_clock_us.is_some());
        // Phase timing rides along (nondeterministic, so the determinism
        // view drops it).
        let timing = manifest.timing_json.as_deref().expect("timing breakdown");
        assert!(timing.starts_with(r#"{"setup_us":"#), "{timing}");
        assert!(timing.contains(r#""sim_us":"#), "{timing}");
        assert!(timing.contains(r#""aggregate_us":"#), "{timing}");
        assert!(manifest.deterministic().timing_json.is_none());
    }

    #[test]
    fn instrumented_run_matches_bare_run() {
        let cfg = quick(20, 1.0, 2);
        let bare = run_incast(&cfg);
        let sref = telemetry::SinkRef::new(telemetry::NullSink::new());
        let (instr, _) = run_incast_instrumented(&cfg, Some(&sref));
        // Telemetry observes; it must not perturb the simulation.
        assert_eq!(bare.bcts_ms, instr.bcts_ms);
        assert_eq!(bare.drops, instr.drops);
        assert_eq!(bare.marked_pkts, instr.marked_pkts);
        assert_eq!(bare.enqueued_pkts, instr.enqueued_pkts);
    }

    #[test]
    fn fault_free_run_reports_no_faults_or_truncation() {
        let (r, m) = run_incast_instrumented(&quick(10, 0.5, 2), None);
        assert!(r.truncated.is_none());
        assert_eq!(m.faults_injected, None);
        assert_eq!(m.truncated, None);
    }

    #[test]
    fn loss_window_injects_faults_and_stays_deterministic() {
        let mut cfg = quick(15, 1.0, 3);
        cfg.faults.loss = Some((SimTime::from_ms(1), SimTime::from_ms(4), 0.3));
        let (a, ma) = run_incast_instrumented(&cfg, None);
        let (b, mb) = run_incast_instrumented(&cfg, None);
        // Loss/restore = 2 applied fault events.
        assert_eq!(ma.faults_injected, Some(2));
        assert!(ma.counters_json.contains(r#""fault_drops":"#));
        assert!(
            a.retx_bytes > 0,
            "0.3 loss over 3 ms must force retransmits"
        );
        assert_eq!(a.bcts_ms, b.bcts_ms);
        assert_eq!(a.retx_bytes, b.retx_bytes);
        assert_eq!(ma.deterministic(), mb.deterministic());
    }

    #[test]
    fn straggler_window_slows_its_burst() {
        let healthy = run_incast(&quick(10, 1.0, 2));
        let mut cfg = quick(10, 1.0, 2);
        // Pause sender 3 while the first burst is still in flight; packets
        // destined to it (ACKs, the next request) defer until resume at
        // 40 ms, inflating that burst's completion time.
        cfg.faults.straggler = Some((SimTime::from_us(100), SimTime::from_ms(40), 3));
        let r = run_incast(&cfg);
        assert!(
            r.bcts_ms[0] > healthy.bcts_ms[0] + 10.0,
            "straggler burst {} vs healthy {}",
            r.bcts_ms[0],
            healthy.bcts_ms[0]
        );
    }

    #[test]
    fn event_budget_truncates_gracefully() {
        let budget = RunBudget {
            max_events: Some(2_000),
            ..RunBudget::default()
        };
        let cfg = quick(20, 2.0, 5);
        let (r, m) = run_incast_budgeted_with::<TimingWheel>(&cfg, None, Some(&budget));
        assert_eq!(r.truncated, Some(TruncationCause::Events));
        assert_eq!(m.truncated.as_deref(), Some("events"));
        // Partial data was still collected and the run ended early.
        assert!(r.bcts_ms.len() < 5);
        assert!(m.events_processed >= 2_000);
    }

    #[test]
    fn sim_time_budget_truncates_before_horizon() {
        let budget = RunBudget {
            sim_time: Some(SimTime::from_ms(3)),
            ..RunBudget::default()
        };
        let cfg = quick(20, 2.0, 5);
        let (r, _) = run_incast_budgeted_with::<TimingWheel>(&cfg, None, Some(&budget));
        assert_eq!(r.truncated, Some(TruncationCause::SimTime));
        assert!(r.finished_at >= SimTime::from_ms(3));
        assert!(r.finished_at < SimTime::from_ms(10));
    }

    #[test]
    fn cross_rack_clos_run_completes_with_tier_telemetry() {
        let mut cfg = quick(12, 0.5, 2);
        cfg.topology = TopologySpec::Clos {
            racks: 3,
            spines: 2,
        };
        let (r, m) = run_incast_instrumented(&cfg, None);
        assert_eq!(r.bcts_ms.len(), 2);
        assert!(r.enqueued_pkts > 0);
        assert_eq!(
            m.topology,
            "clos:racks=3,hosts_per_rack=4,spines=2,senders=12,receivers=1"
        );
        let tiers = m.tiers_json.as_deref().expect("clos runs report tiers");
        assert!(tiers.contains(r#""uplink":{"links":6"#), "{tiers}");
        assert!(tiers.contains(r#""spine":{"links":2"#), "{tiers}");
        assert!(tiers.contains(r#""downlink":{"links":1"#), "{tiers}");
        // The fan-in actually crossed the spine tier.
        assert!(tiers.contains(r#""watermark_pkts":"#));
        // Dumbbell runs stay tier-free (and keep their manifest label).
        let (_, md) = run_incast_instrumented(&quick(12, 0.5, 2), None);
        assert_eq!(md.topology, "dumbbell:senders=12,receivers=1");
        assert!(md.tiers_json.is_none());
    }

    #[test]
    fn clos_run_is_deterministic_given_seed() {
        let mut cfg = quick(10, 0.5, 2);
        cfg.topology = TopologySpec::Clos {
            racks: 2,
            spines: 3,
        };
        let (a, ma) = run_incast_instrumented(&cfg, None);
        let (b, mb) = run_incast_instrumented(&cfg, None);
        assert_eq!(a.bcts_ms, b.bcts_ms);
        assert_eq!(a.drops, b.drops);
        assert_eq!(ma.deterministic(), mb.deterministic());
    }

    #[test]
    fn spine_blackhole_injects_faults_and_recovers() {
        let mut cfg = quick(12, 0.5, 3);
        cfg.topology = TopologySpec::Clos {
            racks: 3,
            spines: 2,
        };
        // No warmup: the default two warmup bursts (excluded from every
        // measured observable) would put all measured traffic after the
        // fault window.
        cfg.warmup_bursts = 0;
        let (healthy_jsonl, healthy_sink) = telemetry::JsonlSink::new().shared();
        let (healthy, _) = run_incast_instrumented(&cfg, Some(&healthy_sink));
        cfg.faults.spine_blackhole = Some((SimTime::from_us(200), SimTime::from_ms(2), 1));
        let (jsonl, sink) = telemetry::JsonlSink::new().shared();
        let (r, m) = run_incast_instrumented(&cfg, Some(&sink));
        // One down + one restore event per rack uplink into spine 1.
        assert_eq!(m.faults_injected, Some(6));
        // Surviving spine keeps the run alive: every burst completes with
        // the same completion times — the spine tier is non-blocking at
        // this scale, so ECMP re-hash moves flows without delaying them.
        assert_eq!(r.bcts_ms.len(), 3);
        assert_eq!(r.bcts_ms, healthy.bcts_ms);
        // But the re-hash is visible in the fabric: the per-link depth
        // probes on the rack uplinks record a different traffic pattern
        // once spine 1 is unreachable.
        let healthy_out = healthy_jsonl.borrow().render();
        let out = jsonl.borrow().render();
        assert!(out.contains(r#""ev":"fault""#), "fault events not streamed");
        let depths = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.contains(r#""ev":"queue_depth""#))
                .map(str::to_string)
                .collect()
        };
        assert_ne!(
            depths(&healthy_out),
            depths(&out),
            "spine blackhole left no trace in uplink depth probes"
        );
    }

    #[test]
    fn spine_loss_on_dumbbell_hits_the_trunk() {
        // On the degenerate topology the "spine uplink" is the single
        // trunk, so spine-targeted loss behaves like trunk loss.
        let mut cfg = quick(10, 0.5, 2);
        cfg.faults.spine_loss = Some((SimTime::from_us(100), SimTime::from_ms(3), 0, 0.3));
        let (r, m) = run_incast_instrumented(&cfg, None);
        assert_eq!(m.faults_injected, Some(2));
        assert!(r.retx_bytes > 0, "0.3 trunk loss must force retransmits");
    }

    #[test]
    fn truncation_causes_are_written_by_label_and_read_back() {
        for c in [
            TruncationCause::SimTime,
            TruncationCause::Events,
            TruncationCause::WallClock,
        ] {
            let text = stats::leaves::write(&Some(c));
            assert_eq!(text, format!("\"{}\"", c.label()));
            assert_eq!(stats::leaves::read(&text), Ok(Some(c)));
        }
        assert!(stats::leaves::read::<TruncationCause>("\"stalled\"").is_err());
    }
}
