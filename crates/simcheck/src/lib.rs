//! # simcheck — randomized config fuzzing for the incast simulator
//!
//! Three layers, in the spirit of generative protocol checkers:
//!
//! 1. **Invariants.** Built with the `check` feature enabled everywhere, so
//!    every run carries `simnet::check`'s shadow byte ledgers, packet
//!    conservation, per-node time monotonicity, and the transport crates'
//!    TCP conformance oracle (sequence-space monotonicity, no ACK of unsent
//!    data, RTO backoff doubling, ECE-matches-CE).
//! 2. **Config fuzzing.** [`generate`] draws a random but seeded
//!    [`ModesConfig`] — fan-in, burst schedule, queue capacity, ECN
//!    threshold, shared-buffer model, delayed ACKs, grouping, a fault,
//!    transport, fabric and control plane — and [`check_scenario`] runs it
//!    on both event schedulers (timing wheel and reference heap) plus a
//!    repeat run, requiring byte-identical results and zero recorded
//!    violations. [`pin_topology`] and [`pin_mitigation`] overwrite one
//!    axis of a draw in place (the binary's `--topology` / `--mitigation`).
//! 3. **Shrinking.** [`shrink`] greedily minimizes a failing config (halve
//!    flows, drop the buffer, shorten bursts, ...) while the failure
//!    persists; the binary prints the survivor as a reproducer file
//!    (`incast_core::supervisor::reproducer`: its config's text and the
//!    outcome running it has), which `tests/repro.rs` replays once checked
//!    in under `tests/repro/`.
//!
//! The `simcheck` binary drives seed ranges in parallel:
//! `cargo run --release -p simcheck -- --seeds 500`.

#![forbid(unsafe_code)]

use incast_core::modes::{run_incast_with, MitigationKind, MitigationSpec};
use incast_core::{FaultSpec, ModesConfig, TopologySpec};
use simnet::check::Violation;
use simnet::{BufferPolicy, EventQueue, QueueConfig, SimTime, TimingWheel};
use stats::Rng;
use transport::{DelayedAckConfig, TransportKind};
use workload::{BurstSchedule, Grouping};

/// Picoseconds per microsecond: fault windows are drawn, and halved, on
/// the microsecond grid.
const US: u64 = 1_000_000;

/// The burst schedule a draw that is not periodic runs, and the one a
/// periodic config shrinks to.
const BACK_TO_BACK: BurstSchedule = BurstSchedule::AfterCompletion {
    gap: SimTime::from_ms(1),
};

/// The receiver group size a grouped draw of `num_flows` flows uses.
fn group_size(num_flows: usize) -> usize {
    (num_flows / 4).max(2)
}

/// Derives a random config from `seed`. The same seed always yields the
/// same config, and the run uses the same seed, so one integer pins the
/// whole test case.
pub fn generate(seed: u64) -> ModesConfig {
    let mut rng = Rng::new(seed ^ 0x51AC_C0DE_D00D_F00D);
    let capacity_pkts = rng.range_u64(30, 300) as u32;
    let ecn_threshold_pkts = rng
        .chance(0.85)
        .then(|| rng.range_u64(4, (capacity_pkts / 2).max(5) as u64) as u32);
    let receiver_tor_buffer = rng.chance(0.6).then(|| {
        let bytes = rng.range_u64(64, 1024) * 1024;
        let policy = if rng.chance(0.7) {
            let alpha = *rng
                .choose(&[0.25, 0.5, 1.0, 2.0, 4.0, 8.0])
                .expect("six alphas");
            BufferPolicy::DynamicThreshold { alpha }
        } else {
            BufferPolicy::StaticPool
        };
        (bytes, policy)
    });
    let num_flows = rng.range_u64(2, 40) as usize;
    let mut cfg = ModesConfig {
        num_flows,
        burst_duration_ms: rng.range_u64(5, 40) as f64 / 10.0,
        num_bursts: rng.range_u64(1, 3) as u32,
        warmup_bursts: 0,
        tor_queue: QueueConfig {
            capacity_bytes: capacity_pkts as u64 * 1500,
            capacity_pkts: Some(capacity_pkts),
            ecn_threshold_pkts,
            ecn_threshold_bytes: None,
        },
        receiver_tor_buffer,
        schedule: BACK_TO_BACK,
        seed,
        horizon: SimTime::from_secs(5),
        ..ModesConfig::default()
    };
    if rng.chance(0.3) {
        cfg.tcp.delayed_ack = Some(DelayedAckConfig::default());
    }
    if rng.chance(0.2) {
        cfg.grouping = Some(Grouping {
            group_size: group_size(num_flows),
            group_gap: SimTime::from_us(200),
        });
    }
    if rng.chance(0.3) {
        cfg.schedule = BurstSchedule::Periodic {
            period: SimTime::from_ms(5),
        };
    }
    // Every later axis is drawn after all older ones, so adding it did not
    // reshuffle the configs older seeds generate: the fault, ...
    if rng.chance(0.3) {
        let from = rng.range_u64(50, 2_000);
        let until = from + rng.range_u64(100, 3_000);
        let (a, b) = (SimTime::from_us(from), SimTime::from_us(until));
        let f = &mut cfg.faults;
        match rng.range_u64(0, 3) {
            0 => f.blackhole = Some((a, b)),
            1 => f.loss = Some((a, b, rng.range_u64(10, 200) as f64 / 1000.0)),
            _ => f.straggler = Some((a, b, rng.range_u64(0, num_flows as u64) as u32)),
        }
    }
    // ... the transport, ...
    if rng.chance(0.4) {
        cfg.tcp.transport = TransportKind::Quic;
    }
    // ... the multi-rack fabric, ...
    if rng.chance(0.25) {
        cfg.topology = TopologySpec::Clos {
            racks: rng.range_u64(2, 4) as usize,
            spines: rng.range_u64(1, 4) as usize,
        };
    }
    // ... and the control plane. Loss spans the full 0..=100 % range so the
    // sample covers lossless planes, partially-degraded ones, and the
    // fully-dead plane (which must be byte-identical to mitigation-off).
    if rng.chance(0.25) {
        cfg.mitigation.kind = if rng.chance(0.4) {
            MitigationKind::Distributed
        } else {
            MitigationKind::Pulser
        };
        cfg.mitigation.notif_loss = rng.range_u64(0, 1000) as f64 / 1000.0;
    }
    cfg
}

/// Pins the fabric (`--topology`): a multi-rack Clos of 2-4 racks and 1-4
/// spines derived from the config's seed, or the dumbbell.
pub fn pin_topology(cfg: &mut ModesConfig, clos: bool) {
    cfg.topology = if clos {
        TopologySpec::Clos {
            racks: 2 + (cfg.seed % 3) as usize,
            spines: 1 + (cfg.seed % 4) as usize,
        }
    } else {
        TopologySpec::Dumbbell
    };
}

/// Pins the control plane (`--mitigation`): `Off` strips it; a plane runs
/// with a notification loss that walks 0..=100 % in 10 % steps as the seed
/// advances, so a pinned sweep still covers every degradation regime.
pub fn pin_mitigation(cfg: &mut ModesConfig, kind: MitigationKind) {
    cfg.mitigation = MitigationSpec::default();
    if kind != MitigationKind::Off {
        cfg.mitigation.kind = kind;
        cfg.mitigation.notif_loss = (cfg.seed % 11 * 100) as f64 / 1000.0;
    }
}

/// A failed config: any recorded invariant violation, a wheel-vs-heap
/// divergence, or a repeat-run nondeterminism.
#[derive(Debug)]
pub struct Failure {
    /// The config that failed.
    pub config: ModesConfig,
    /// Violations drained from the invariant log (capped; see
    /// `simnet::check`), plus the true total.
    pub violations: Vec<Violation>,
    /// Total violation count (may exceed `violations.len()`).
    pub violation_count: u64,
    /// Differential mismatch description, if any.
    pub mismatch: Option<String>,
}

impl Failure {
    /// One-line summary for reports.
    pub fn summary(&self) -> String {
        let mut parts = Vec::new();
        if self.violation_count > 0 {
            let kinds: Vec<&str> = {
                let mut k: Vec<&str> = self.violations.iter().map(|v| v.kind).collect();
                k.sort_unstable();
                k.dedup();
                k
            };
            parts.push(format!(
                "{} violation(s): {}",
                self.violation_count,
                kinds.join(", ")
            ));
        }
        if let Some(m) = &self.mismatch {
            parts.push(m.clone());
        }
        parts.join("; ")
    }
}

/// A result's text with the wall-clock profile field zeroed (everything
/// else in an [`incast_core::IncastRunResult`] is deterministic).
fn deterministic_encoding(result: &mut incast_core::IncastRunResult) -> String {
    result.profile.wall = std::time::Duration::ZERO;
    stats::leaves::write(result)
}

/// Runs `cfg` with all invariants on: once on the timing wheel, once on the
/// reference heap scheduler, and once more on the wheel for repeat
/// determinism. Returns `None` on a clean pass, `Some(Failure)` otherwise.
pub fn check_scenario(cfg: &ModesConfig) -> Option<Failure> {
    simnet::check::reset();

    let (mut r_wheel, m_wheel) = run_incast_with::<TimingWheel>(cfg, None);
    let (mut r_heap, m_heap) = run_incast_with::<EventQueue>(cfg, None);
    let (mut r_again, _) = run_incast_with::<TimingWheel>(cfg, None);

    let e_wheel = deterministic_encoding(&mut r_wheel);
    let e_heap = deterministic_encoding(&mut r_heap);
    let e_again = deterministic_encoding(&mut r_again);

    let mut mismatch = None;
    if e_wheel != e_heap {
        mismatch = Some(format!(
            "wheel vs heap result diverged (wheel {} B, heap {} B encoded)",
            e_wheel.len(),
            e_heap.len()
        ));
    } else if m_wheel.events_processed != m_heap.events_processed
        || m_wheel.sim_time_ps != m_heap.sim_time_ps
        || m_wheel.counters_json != m_heap.counters_json
    {
        mismatch = Some(format!(
            "wheel vs heap manifest diverged (events {} vs {}, sim_time {} vs {} ps)",
            m_wheel.events_processed,
            m_heap.events_processed,
            m_wheel.sim_time_ps,
            m_heap.sim_time_ps
        ));
    } else if e_wheel != e_again {
        mismatch = Some("repeat run with identical seed diverged".to_string());
    }

    // Graceful-degradation invariants: a control plane may pause or pace
    // flows — in overloaded configs it legitimately completes bursts the
    // baseline never finishes — but it can never *wedge* one, and it can
    // never make a burst pathologically slower than the mitigation-off
    // twin of the same config. Two checks:
    //
    // 1. No deadlock: if the mitigated run drains idle *before* the
    //    horizon while the baseline proved more bursts were completable,
    //    some flow wedged (every pause self-expires within the transport's
    //    guard bound — that half is the `pause_guard` oracle, live in
    //    every checked run — so this should be structurally impossible).
    //    Running out of horizon with bursts outstanding is a slowdown,
    //    not a wedge, and is judged by the envelope instead.
    // 2. Degradation envelope, per burst over the commonly-completed
    //    prefix: mitigated BCT within 10x baseline + 500 ms. Scoped to
    //    the plane/transport pairs where bounded degradation is a design
    //    guarantee: pause planes (the pause is clamped to the guard bound,
    //    so the worst case is delay, never collapse) and cwnd-cut planes
    //    over QUIC (PTO repairs small-window tail losses at RTT scale —
    //    seed 109: cut+QUIC *improves* drops 139→19 at unchanged BCT).
    //    Cut planes over min-RTO TCP are excluded by design, and that
    //    exclusion is itself a finding this fuzzer produced: a cut at
    //    burst start shrinks windows below what dup-ACK fast retransmit
    //    needs (no RFC 3042 limited transmit, no TLP in the paper's
    //    stack), so drops that the baseline repairs at RTT scale become
    //    200 ms-floor RTO chains — 2 ms bursts regress to 1.2–2.8 s even
    //    with a lossless control path. See EXPERIMENTS.md "Mitigations".
    if !cfg.mitigation.is_off() && mismatch.is_none() {
        let enveloped = cfg.mitigation.kind != MitigationKind::Distributed
            || cfg.tcp.transport == TransportKind::Quic;
        let off = ModesConfig {
            mitigation: MitigationSpec::default(),
            ..cfg.clone()
        };
        let (r_off, _) = run_incast_with::<TimingWheel>(&off, None);
        if r_wheel.bcts_ms.len() < r_off.bcts_ms.len() && m_wheel.sim_time_ps < cfg.horizon.as_ps()
        {
            mismatch = Some(format!(
                "mitigated run went idle at {} ps with bursts outstanding \
                 ({} completed vs baseline {}): guard-timer deadlock?",
                m_wheel.sim_time_ps,
                r_wheel.bcts_ms.len(),
                r_off.bcts_ms.len()
            ));
        }
        if enveloped && mismatch.is_none() {
            for (i, (&on_ms, &off_ms)) in r_wheel.bcts_ms.iter().zip(&r_off.bcts_ms).enumerate() {
                let envelope_ms = off_ms * 10.0 + 500.0;
                if on_ms > envelope_ms {
                    mismatch = Some(format!(
                        "degradation envelope breached at burst {i}: mitigated BCT \
                         {on_ms:.3} ms vs baseline {off_ms:.3} ms \
                         (envelope {envelope_ms:.3} ms)"
                    ));
                    break;
                }
            }
        }
    }

    let violation_count = simnet::check::violation_count();
    let violations = simnet::check::take();
    if violation_count == 0 && mismatch.is_none() {
        return None;
    }
    Some(Failure {
        config: cfg.clone(),
        violations,
        violation_count,
        mismatch,
    })
}

/// `burst_duration_ms` in tenths of a millisecond, the grid it is drawn and
/// halved on.
fn tenths(ms: f64) -> u64 {
    (ms * 10.0).round() as u64
}

/// Total length in microseconds of the fault windows [`generate`] draws
/// (blackhole, loss, straggler).
fn fault_window_us(f: &FaultSpec) -> u64 {
    let span = |a: SimTime, b: SimTime| b.as_ps().saturating_sub(a.as_ps()) / US;
    f.blackhole.map_or(0, |(a, b)| span(a, b))
        + f.loss.map_or(0, |(a, b, _)| span(a, b))
        + f.straggler.map_or(0, |(a, b, _)| span(a, b))
}

/// The end of a window from `a` to `b` halved on the microsecond grid.
fn halved(a: SimTime, b: SimTime) -> SimTime {
    a + SimTime::from_us(b.as_ps().saturating_sub(a.as_ps()) / US / 2)
}

/// Sets the fan-in, keeping a grouped config's group size the one
/// [`generate`] derives from it.
fn set_flows(c: &mut ModesConfig, num_flows: usize) {
    c.num_flows = num_flows;
    if let Some(g) = &mut c.grouping {
        g.group_size = group_size(num_flows);
    }
}

/// Shrinking transformations of `cfg`, each strictly smaller (so greedy
/// shrinking terminates).
fn shrink_candidates(cfg: &ModesConfig) -> Vec<ModesConfig> {
    let mut out = Vec::new();
    let mut edit = |f: &dyn Fn(&mut ModesConfig)| {
        let mut c = cfg.clone();
        f(&mut c);
        out.push(c);
    };
    // Mitigation off comes FIRST: a failure that persists without the
    // control plane is not a control-plane bug, and ruling that out early
    // keeps every later shrink step running on the cheaper baseline.
    if !cfg.mitigation.is_off() {
        edit(&|c| c.mitigation = MitigationSpec::default());
    }
    if cfg.num_flows > 2 {
        edit(&|c| set_flows(c, (c.num_flows / 2).max(2)));
        edit(&|c| set_flows(c, c.num_flows - 1));
    }
    if cfg.num_bursts > 1 {
        edit(&|c| c.num_bursts = 1);
    }
    if tenths(cfg.burst_duration_ms) > 5 {
        edit(&|c| c.burst_duration_ms = (tenths(c.burst_duration_ms) / 2).max(5) as f64 / 10.0);
    }
    if cfg.receiver_tor_buffer.is_some() {
        edit(&|c| c.receiver_tor_buffer = None);
    }
    if cfg.grouping.is_some() {
        edit(&|c| c.grouping = None);
    }
    if cfg.tcp.delayed_ack.is_some() {
        edit(&|c| c.tcp.delayed_ack = None);
    }
    if matches!(cfg.schedule, BurstSchedule::Periodic { .. }) {
        edit(&|c| c.schedule = BACK_TO_BACK);
    }
    if cfg.tcp.transport == TransportKind::Quic {
        // Shrink toward the TCP baseline: a failure that persists without
        // the QUIC stack is not a QUIC bug.
        edit(&|c| c.tcp.transport = TransportKind::Tcp);
    }
    if let TopologySpec::Clos { racks, spines } = cfg.topology {
        // Shrink toward the dumbbell: drop the multi-rack fabric entirely...
        edit(&|c| c.topology = TopologySpec::Dumbbell);
        // ...or walk racks, then spines, down toward the 1x1 degenerate
        // form (which is byte-identical to the dumbbell build).
        let clos = |racks, spines| TopologySpec::Clos { racks, spines };
        if racks > 1 {
            edit(&|c| c.topology = clos(racks - 1, spines));
        }
        if spines > 1 {
            edit(&|c| c.topology = clos(racks, spines - 1));
        }
    }
    if cfg.tor_queue.ecn_threshold_pkts.is_some() {
        edit(&|c| c.tor_queue.ecn_threshold_pkts = None);
    }
    if !cfg.faults.is_empty() {
        // Drop the fault entirely...
        edit(&|c| c.faults = FaultSpec::default());
        // ...or keep it but halve its window (strictly shorter).
        if fault_window_us(&cfg.faults) > 100 {
            edit(&|c| {
                let f = &mut c.faults;
                f.blackhole = f.blackhole.map(|(a, b)| (a, halved(a, b)));
                f.loss = f.loss.map(|(a, b, p)| (a, halved(a, b), p));
                f.straggler = f.straggler.map(|(a, b, i)| (a, halved(a, b), i));
            });
        }
    }
    out
}

/// Greedily shrinks a failing config: applies the first transformation
/// that still fails, repeats until no transformation preserves the failure.
/// Every candidate is strictly smaller, so this terminates. Returns the
/// minimal failing config (the input itself if nothing smaller fails).
pub fn shrink(failing: &ModesConfig) -> ModesConfig {
    let mut current = failing.clone();
    while let Some(smaller) = shrink_candidates(&current)
        .into_iter()
        .find(|c| check_scenario(c).is_some())
    {
        current = smaller;
    }
    current
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quic(c: &ModesConfig) -> bool {
        c.tcp.transport == TransportKind::Quic
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate(17), generate(17));
        assert_ne!(generate(17), generate(18));
    }

    /// The texts of the configs seeds 0..200 draw, plain and under the
    /// `--topology clos` and `--mitigation pulser` pins, hash to recorded
    /// values. A change to the draw moves every seed's case and every
    /// recorded failure, so a new hash must be a deliberate one.
    #[test]
    fn draws_and_pins_match_their_recorded_hashes() {
        let hash = |pin: fn(&mut ModesConfig)| {
            let mut text = String::new();
            for seed in 0..200 {
                let mut cfg = generate(seed);
                pin(&mut cfg);
                text += &stats::leaves::write(&cfg);
                text.push('\n');
            }
            incast_core::cache::fnv1a64(&text)
        };
        assert_eq!(hash(|_| {}), 0x6bd7_9589_9f9f_1b0a, "draw");
        assert_eq!(
            hash(|c| pin_topology(c, true)),
            0xd7b4_8c3b_b7ce_09ab,
            "clos"
        );
        assert_eq!(
            hash(|c| pin_mitigation(c, MitigationKind::Pulser)),
            0x4589_aca8_2380_230f,
            "pulser"
        );
    }

    #[test]
    fn scenarios_cover_the_config_space() {
        let cfgs: Vec<ModesConfig> = (0..200).map(generate).collect();
        let any = |p: &dyn Fn(&ModesConfig) -> bool| cfgs.iter().any(p);
        assert!(any(&|c| c.receiver_tor_buffer.is_some()));
        assert!(any(&|c| c.receiver_tor_buffer.is_none()));
        assert!(any(&|c| c.tcp.delayed_ack.is_some()));
        assert!(any(&|c| c.grouping.is_some()));
        assert!(any(&|c| matches!(
            c.schedule,
            BurstSchedule::Periodic { .. }
        )));
        assert!(any(&|c| c.tor_queue.ecn_threshold_pkts.is_none()));
        assert!(any(&|c| c.faults.is_empty()));
        assert!(any(&|c| c.faults.blackhole.is_some()));
        assert!(any(&|c| c.faults.loss.is_some()));
        assert!(any(&|c| c.faults.straggler.is_some()));
        assert!(any(&|c| quic(c)));
        assert!(any(&|c| !quic(c)));
        assert!(
            any(&|c| quic(c) && !c.faults.is_empty()),
            "no faulted QUIC config in the sample"
        );
        assert!(any(&|c| matches!(c.topology, TopologySpec::Clos { .. })));
        assert!(any(&|c| c.topology == TopologySpec::Dumbbell));
        assert!(
            any(&|c| matches!(c.topology, TopologySpec::Clos { spines, .. } if spines > 1)),
            "no multi-spine Clos config in the sample"
        );
        assert!(any(&|c| !c.mitigation.is_off()));
        assert!(any(&|c| c.mitigation.is_off()));
        assert!(
            any(&|c| c.mitigation.kind == MitigationKind::Distributed),
            "no distributed control plane in the sample"
        );
        assert!(
            any(&|c| c.mitigation.kind == MitigationKind::Pulser && c.mitigation.notif_loss > 0.0),
            "no lossy Pulser plane in the sample"
        );
        for c in &cfgs {
            assert!((2..=40).contains(&c.num_flows));
            let t = tenths(c.burst_duration_ms);
            assert!((5..=40).contains(&t));
            assert_eq!(c.burst_duration_ms, t as f64 / 10.0, "on the 0.1 ms grid");
            if let Some(k) = c.tor_queue.ecn_threshold_pkts {
                assert!(k < c.tor_queue.capacity_pkts.unwrap(), "K below capacity");
            }
            if let TopologySpec::Clos { racks, spines } = c.topology {
                assert!((2..=4).contains(&racks), "racks in range");
                assert!((1..=4).contains(&spines), "spines in range");
            }
            assert!(
                (0.0..=1.0).contains(&c.mitigation.notif_loss),
                "loss in range"
            );
        }
    }

    #[test]
    fn mitigation_off_is_the_first_shrink_candidate() {
        let mut cfg = generate(1);
        cfg.mitigation.kind = MitigationKind::Distributed;
        cfg.mitigation.notif_loss = 0.3;
        let cands = shrink_candidates(&cfg);
        assert_eq!(
            cands.first().map(|c| c.mitigation),
            Some(MitigationSpec::default()),
            "shrinker must try turning the mitigation off first"
        );
    }

    #[test]
    fn forced_mitigation_pins_cover_the_loss_range() {
        let pinned = |seed, kind| {
            let mut cfg = generate(seed);
            pin_mitigation(&mut cfg, kind);
            cfg.mitigation
        };
        let pins: Vec<_> = (0..11).map(|s| pinned(s, MitigationKind::Pulser)).collect();
        assert!(pins.iter().any(|m| m.notif_loss == 0.0));
        assert!(pins.iter().any(|m| m.notif_loss == 1.0));
        assert!(pins.iter().all(|m| m.kind == MitigationKind::Pulser));
        assert_eq!(
            pinned(3, MitigationKind::Distributed).kind,
            MitigationKind::Distributed
        );
        assert_eq!(pinned(3, MitigationKind::Off), MitigationSpec::default());
    }

    #[test]
    fn shrink_candidates_are_strictly_smaller() {
        let size = |c: &ModesConfig| {
            c.num_flows as u64
                + c.num_bursts as u64
                + tenths(c.burst_duration_ms)
                + c.receiver_tor_buffer.is_some() as u64
                + c.grouping.is_some() as u64
                + c.tcp.delayed_ack.is_some() as u64
                + matches!(c.schedule, BurstSchedule::Periodic { .. }) as u64
                + c.tor_queue.ecn_threshold_pkts.is_some() as u64
                + (!c.faults.is_empty()) as u64
                + fault_window_us(&c.faults)
                + quic(c) as u64
                + match c.topology {
                    TopologySpec::Clos { racks, spines } => 1 + racks as u64 + spines as u64,
                    TopologySpec::Dumbbell => 0,
                }
                + (!c.mitigation.is_off()) as u64
        };
        // Cover both fault-free and faulted starting points.
        let mut faulted = 0;
        for seed in 0..40 {
            let cfg = generate(seed);
            faulted += (!cfg.faults.is_empty()) as u64;
            for cand in shrink_candidates(&cfg) {
                assert!(
                    size(&cand) < size(&cfg),
                    "{cand:?} not smaller than {cfg:?}"
                );
            }
        }
        assert!(faulted > 0, "no faulted config in the sample");
    }

    /// A grouped draw's group size is derived from its fan-in, so a
    /// candidate with fewer flows carries the group size a draw of that
    /// fan-in would.
    #[test]
    fn shrinking_a_grouped_configs_flows_rederives_its_group_size() {
        let cfg = (0..200)
            .map(generate)
            .find(|c| c.grouping.is_some() && c.num_flows >= 16)
            .expect("a grouped draw of 16+ flows");
        let fewer: Vec<_> = shrink_candidates(&cfg)
            .into_iter()
            .filter(|c| c.num_flows < cfg.num_flows)
            .collect();
        assert_eq!(fewer.len(), 2, "halved and minus one");
        let grouping = cfg.grouping.unwrap();
        for c in &fewer {
            let g = c.grouping.expect("flow shrinks keep the grouping");
            assert_eq!(g.group_size, group_size(c.num_flows));
            assert_eq!(g.group_gap, grouping.group_gap);
        }
        assert!(
            fewer[0].grouping.unwrap().group_size < grouping.group_size,
            "halving the flows shrinks the groups"
        );
    }
}
