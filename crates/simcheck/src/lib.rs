//! # simcheck — randomized scenario fuzzing for the incast simulator
//!
//! Three layers, in the spirit of generative protocol checkers:
//!
//! 1. **Invariants.** Built with the `check` feature enabled everywhere, so
//!    every run carries `simnet::check`'s shadow byte ledgers, packet
//!    conservation, per-node time monotonicity, and the transport crates'
//!    TCP conformance oracle (sequence-space monotonicity, no ACK of unsent
//!    data, RTO backoff doubling, ECE-matches-CE).
//! 2. **Scenario fuzzing.** [`Scenario::generate`] derives a random but
//!    seeded incast configuration — fan-in, burst schedule, queue capacity,
//!    ECN threshold, shared-buffer model, delayed ACKs, grouping — and
//!    [`check_scenario`] runs it on both event schedulers (timing wheel and
//!    reference heap) plus a repeat run, requiring byte-identical results
//!    and zero recorded violations.
//! 3. **Shrinking.** [`shrink`] greedily minimizes a failing scenario
//!    (halve flows, drop the buffer, shorten bursts, ...) while the failure
//!    persists; the binary prints the survivor as a reproducer file
//!    (`incast_core::supervisor::reproducer`: its config's text and the
//!    outcome running it has), which `tests/repro.rs` replays once checked
//!    in under `tests/repro/`.
//!
//! The `simcheck` binary drives seed ranges in parallel:
//! `cargo run --release -p simcheck -- --seeds 500`.

#![forbid(unsafe_code)]

use incast_core::modes::{run_incast_with, MitigationKind};
use incast_core::{FaultSpec, ModesConfig, TopologySpec};
use simnet::check::Violation;
use simnet::{BufferPolicy, EventQueue, QueueConfig, SimTime, TimingWheel};
use stats::Rng;
use transport::{DelayedAckConfig, TcpConfig, TransportKind};
use workload::{BurstSchedule, Grouping};

/// Shared-buffer part of a [`Scenario`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BufferScenario {
    /// Pool size in KiB.
    pub total_kb: u64,
    /// Dynamic Threshold alpha x100 (`Some(50)` = alpha 0.5), or `None`
    /// for a static pool.
    pub alpha_x100: Option<u32>,
}

/// Fault-injection part of a [`Scenario`]: at most one scheduled fault,
/// with integral microsecond windows so scenarios stay `Eq` and shrink
/// deterministically. All-`None` means a fault-free run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultScenario {
    /// Trunk blackhole over `[from_us, until_us)`.
    pub blackhole_us: Option<(u64, u64)>,
    /// Random trunk loss over a window, probability in per-mille.
    pub loss_pm: Option<(u64, u64, u32)>,
    /// Host pause (paper-style straggler) of one sender over a window.
    pub straggler_us: Option<(u64, u64, u32)>,
}

impl FaultScenario {
    /// True when no fault is scheduled.
    pub fn is_empty(&self) -> bool {
        *self == FaultScenario::default()
    }

    /// Length of the scheduled window in microseconds (0 when empty).
    pub fn window_us(&self) -> u64 {
        let span = |w: (u64, u64)| w.1.saturating_sub(w.0);
        self.blackhole_us.map(span).unwrap_or(0)
            + self
                .loss_pm
                .map(|(a, b, _)| b.saturating_sub(a))
                .unwrap_or(0)
            + self
                .straggler_us
                .map(|(a, b, _)| b.saturating_sub(a))
                .unwrap_or(0)
    }
}

/// Control-plane part of a [`Scenario`]: which notification plane runs and
/// how lossy its control path is (per-mille, so scenarios stay `Eq`;
/// 1000 = fully blackholed, which must degrade to exactly the baseline).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MitigationScenario {
    /// `false` = Pulser pause plane on the receiver downlinks; `true` =
    /// distributed cwnd-cut plane on every fabric tier.
    pub distributed: bool,
    /// Notification loss probability in per-mille.
    pub loss_pm: u32,
}

/// One randomly generated incast scenario; [`Scenario::to_config`] is the
/// run it stands for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scenario {
    /// Seed for both the generator that produced this scenario and the run
    /// itself.
    pub seed: u64,
    /// Incast fan-in (N senders).
    pub num_flows: usize,
    /// Burst duration in tenths of a millisecond (integral so scenarios
    /// stay `Eq` and shrink deterministically).
    pub burst_ms_x10: u64,
    /// Bursts per run.
    pub num_bursts: u32,
    /// Bottleneck queue capacity in packets.
    pub queue_capacity_pkts: u32,
    /// ECN marking threshold K in packets (`None` = no marking).
    pub ecn_threshold_pkts: Option<u32>,
    /// Optional shared buffer on the receiver ToR.
    pub buffer: Option<BufferScenario>,
    /// DCTCP delayed-ACK state machine on or off.
    pub delayed_ack: bool,
    /// Receiver-side group scheduling (§5.2 mitigation path).
    pub grouping: bool,
    /// Open-loop periodic bursts instead of request-response.
    pub periodic: bool,
    /// Scheduled fault, if any (blackhole, lossy window, or straggler).
    pub fault: FaultScenario,
    /// Run the QUIC-style loss-recovery stack instead of TCP NewReno.
    pub quic: bool,
    /// Multi-rack Clos fabric as `(racks, spines)`, or `None` for the
    /// single-rack dumbbell. Senders round-robin across racks, so the same
    /// fan-in exercises ECMP across the spine tier.
    pub clos: Option<(u8, u8)>,
    /// In-fabric notification control plane, or `None` for mitigation-off.
    pub mitigation: Option<MitigationScenario>,
}

impl Scenario {
    /// Derives a random scenario from `seed`. The same seed always yields
    /// the same scenario, and the scenario's run uses the same seed, so one
    /// integer pins the whole test case.
    pub fn generate(seed: u64) -> Scenario {
        let mut rng = Rng::new(seed ^ 0x51AC_C0DE_D00D_F00D);
        let queue_capacity_pkts = rng.range_u64(30, 300) as u32;
        let ecn_threshold_pkts = if rng.chance(0.85) {
            Some(rng.range_u64(4, (queue_capacity_pkts / 2).max(5) as u64) as u32)
        } else {
            None
        };
        let buffer = if rng.chance(0.6) {
            Some(BufferScenario {
                total_kb: rng.range_u64(64, 1024),
                alpha_x100: if rng.chance(0.7) {
                    Some(*rng.choose(&[25u32, 50, 100, 200, 400, 800]).unwrap())
                } else {
                    None
                },
            })
        } else {
            None
        };
        let mut sc = Scenario {
            seed,
            num_flows: rng.range_u64(2, 40) as usize,
            burst_ms_x10: rng.range_u64(5, 40),
            num_bursts: rng.range_u64(1, 3) as u32,
            queue_capacity_pkts,
            ecn_threshold_pkts,
            buffer,
            delayed_ack: rng.chance(0.3),
            grouping: rng.chance(0.2),
            periodic: rng.chance(0.3),
            fault: FaultScenario::default(),
            quic: false,
            clos: None,
            mitigation: None,
        };
        // Fault draws come LAST so adding them did not reshuffle the
        // scenarios older seeds generate.
        if rng.chance(0.3) {
            let from = rng.range_u64(50, 2_000);
            let until = from + rng.range_u64(100, 3_000);
            sc.fault = match rng.range_u64(0, 3) {
                0 => FaultScenario {
                    blackhole_us: Some((from, until)),
                    ..FaultScenario::default()
                },
                1 => FaultScenario {
                    loss_pm: Some((from, until, rng.range_u64(10, 200) as u32)),
                    ..FaultScenario::default()
                },
                _ => FaultScenario {
                    straggler_us: Some((from, until, rng.range_u64(0, sc.num_flows as u64) as u32)),
                    ..FaultScenario::default()
                },
            };
        }
        // The transport draw also comes after everything older, for the
        // same seed-stability reason: seeds that predate the QUIC stack
        // still generate the same TCP scenarios they always did.
        sc.quic = rng.chance(0.4);
        // The topology draw is the newest of all, appended last like the
        // two above it: seeds that predate multi-rack fabrics still
        // generate the same single-rack scenarios they always did.
        if rng.chance(0.25) {
            sc.clos = Some((rng.range_u64(2, 4) as u8, rng.range_u64(1, 4) as u8));
        }
        // The control-plane draw is the newest, appended after every older
        // draw for the same seed-stability reason. Loss spans the full
        // 0..=1000 per-mille range so the sample covers lossless planes,
        // partially-degraded ones, and the fully-dead plane (which must be
        // byte-identical to mitigation-off).
        if rng.chance(0.25) {
            sc.mitigation = Some(MitigationScenario {
                distributed: rng.chance(0.4),
                loss_pm: rng.range_u64(0, 1000) as u32,
            });
        }
        sc
    }

    /// The [`ModesConfig`] this scenario runs as.
    pub fn to_config(&self) -> ModesConfig {
        let tcp = TcpConfig {
            transport: if self.quic {
                TransportKind::Quic
            } else {
                TransportKind::Tcp
            },
            delayed_ack: if self.delayed_ack {
                Some(DelayedAckConfig::default())
            } else {
                None
            },
            ..TcpConfig::default()
        };
        let tor_queue = QueueConfig {
            capacity_bytes: self.queue_capacity_pkts as u64 * 1500,
            capacity_pkts: Some(self.queue_capacity_pkts),
            ecn_threshold_pkts: self.ecn_threshold_pkts,
            ecn_threshold_bytes: None,
        };
        let receiver_tor_buffer = self.buffer.map(|b| {
            let policy = match b.alpha_x100 {
                Some(a) => BufferPolicy::DynamicThreshold {
                    alpha: a as f64 / 100.0,
                },
                None => BufferPolicy::StaticPool,
            };
            (b.total_kb * 1024, policy)
        });
        ModesConfig {
            num_flows: self.num_flows,
            topology: match self.clos {
                Some((racks, spines)) => TopologySpec::Clos {
                    racks: racks as usize,
                    spines: spines as usize,
                },
                None => TopologySpec::Dumbbell,
            },
            burst_duration_ms: self.burst_ms_x10 as f64 / 10.0,
            num_bursts: self.num_bursts,
            warmup_bursts: 0,
            tcp,
            tor_queue,
            receiver_tor_buffer,
            grouping: if self.grouping {
                Some(Grouping {
                    group_size: (self.num_flows / 4).max(2),
                    group_gap: SimTime::from_us(200),
                })
            } else {
                None
            },
            schedule: if self.periodic {
                BurstSchedule::Periodic {
                    period: SimTime::from_ms(5),
                }
            } else {
                BurstSchedule::AfterCompletion {
                    gap: SimTime::from_ms(1),
                }
            },
            seed: self.seed,
            horizon: SimTime::from_secs(5),
            faults: {
                let mut f = FaultSpec::default();
                if let Some((a, b)) = self.fault.blackhole_us {
                    f.blackhole = Some((SimTime::from_us(a), SimTime::from_us(b)));
                }
                if let Some((a, b, pm)) = self.fault.loss_pm {
                    f.loss = Some((SimTime::from_us(a), SimTime::from_us(b), pm as f64 / 1000.0));
                }
                if let Some((a, b, idx)) = self.fault.straggler_us {
                    f.straggler = Some((SimTime::from_us(a), SimTime::from_us(b), idx));
                }
                f
            },
            mitigation: {
                let mut m = incast_core::modes::MitigationSpec::default();
                if let Some(mit) = self.mitigation {
                    m.kind = if mit.distributed {
                        MitigationKind::Distributed
                    } else {
                        MitigationKind::Pulser
                    };
                    m.notif_loss = mit.loss_pm as f64 / 1000.0;
                }
                m
            },
            ..ModesConfig::default()
        }
    }
}

/// A failed scenario: any recorded invariant violation, a wheel-vs-heap
/// divergence, or a repeat-run nondeterminism.
#[derive(Debug)]
pub struct Failure {
    /// The scenario that failed.
    pub scenario: Scenario,
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

/// Runs `scenario` with all invariants on: once on the timing wheel, once
/// on the reference heap scheduler, and once more on the wheel for repeat
/// determinism. Returns `None` on a clean pass, `Some(Failure)` otherwise.
pub fn check_scenario(scenario: &Scenario) -> Option<Failure> {
    simnet::check::reset();
    let cfg = scenario.to_config();

    let (mut r_wheel, m_wheel) = run_incast_with::<TimingWheel>(&cfg, None);
    let (mut r_heap, m_heap) = run_incast_with::<EventQueue>(&cfg, None);
    let (mut r_again, _) = run_incast_with::<TimingWheel>(&cfg, None);

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
    // flows — in overloaded scenarios it legitimately completes bursts the
    // baseline never finishes — but it can never *wedge* one, and it can
    // never make a burst pathologically slower than the mitigation-off
    // twin of the same scenario. Two checks:
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
    if let Some(mit) = scenario.mitigation.filter(|_| mismatch.is_none()) {
        let enveloped = !mit.distributed || scenario.quic;
        let off = Scenario {
            mitigation: None,
            ..*scenario
        };
        let (r_off, _) = run_incast_with::<TimingWheel>(&off.to_config(), None);
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
        scenario: *scenario,
        violations,
        violation_count,
        mismatch,
    })
}

/// Shrinking transformations of `sc`, each strictly smaller (so greedy
/// shrinking terminates).
fn shrink_candidates(sc: &Scenario) -> Vec<Scenario> {
    let mut out = Vec::new();
    // Mitigation off comes FIRST: a failure that persists without the
    // control plane is not a control-plane bug, and ruling that out early
    // keeps every later shrink step running on the cheaper baseline.
    if sc.mitigation.is_some() {
        out.push(Scenario {
            mitigation: None,
            ..*sc
        });
    }
    if sc.num_flows > 2 {
        out.push(Scenario {
            num_flows: (sc.num_flows / 2).max(2),
            ..*sc
        });
        out.push(Scenario {
            num_flows: sc.num_flows - 1,
            ..*sc
        });
    }
    if sc.num_bursts > 1 {
        out.push(Scenario {
            num_bursts: 1,
            ..*sc
        });
    }
    if sc.burst_ms_x10 > 5 {
        out.push(Scenario {
            burst_ms_x10: (sc.burst_ms_x10 / 2).max(5),
            ..*sc
        });
    }
    if sc.buffer.is_some() {
        out.push(Scenario {
            buffer: None,
            ..*sc
        });
    }
    if sc.grouping {
        out.push(Scenario {
            grouping: false,
            ..*sc
        });
    }
    if sc.delayed_ack {
        out.push(Scenario {
            delayed_ack: false,
            ..*sc
        });
    }
    if sc.periodic {
        out.push(Scenario {
            periodic: false,
            ..*sc
        });
    }
    if sc.quic {
        // Shrink toward the TCP baseline: a failure that persists without
        // the QUIC stack is not a QUIC bug.
        out.push(Scenario { quic: false, ..*sc });
    }
    if let Some((racks, spines)) = sc.clos {
        // Shrink toward the dumbbell: drop the multi-rack fabric entirely...
        out.push(Scenario { clos: None, ..*sc });
        // ...or walk racks, then spines, down toward the 1x1 degenerate
        // form (which is byte-identical to the dumbbell build).
        if racks > 1 {
            out.push(Scenario {
                clos: Some((racks - 1, spines)),
                ..*sc
            });
        }
        if spines > 1 {
            out.push(Scenario {
                clos: Some((racks, spines - 1)),
                ..*sc
            });
        }
    }
    if sc.ecn_threshold_pkts.is_some() {
        out.push(Scenario {
            ecn_threshold_pkts: None,
            ..*sc
        });
    }
    if !sc.fault.is_empty() {
        // Drop the fault entirely...
        out.push(Scenario {
            fault: FaultScenario::default(),
            ..*sc
        });
        // ...or keep it but halve its window (strictly shorter).
        if sc.fault.window_us() > 100 {
            let halve = |(a, b): (u64, u64)| (a, a + (b - a) / 2);
            out.push(Scenario {
                fault: FaultScenario {
                    blackhole_us: sc.fault.blackhole_us.map(halve),
                    loss_pm: sc.fault.loss_pm.map(|(a, b, p)| (a, a + (b - a) / 2, p)),
                    straggler_us: sc
                        .fault
                        .straggler_us
                        .map(|(a, b, i)| (a, a + (b - a) / 2, i)),
                },
                ..*sc
            });
        }
    }
    out
}

/// Greedily shrinks a failing scenario: applies the first transformation
/// that still fails, repeats until no transformation preserves the failure.
/// Every candidate is strictly smaller, so this terminates. Returns the
/// minimal failing scenario (the input itself if nothing smaller fails).
pub fn shrink(failing: &Scenario) -> Scenario {
    let mut current = *failing;
    loop {
        let mut improved = false;
        for cand in shrink_candidates(&current) {
            if check_scenario(&cand).is_some() {
                current = cand;
                improved = true;
                break;
            }
        }
        if !improved {
            return current;
        }
    }
}

/// Outcome of fuzzing one seed (what the binary and CI report).
#[derive(Debug)]
pub enum SeedOutcome {
    /// All invariants held, schedulers agreed.
    Pass,
    /// Something failed; carries the original failure.
    Fail(Box<Failure>),
}

/// Forced control-plane mode for a sweep (the `--mitigation` CLI flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ForceMitigation {
    /// Strip the per-seed mitigation draw: baseline-only.
    Off,
    /// Pin a Pulser pause plane with a seed-derived notification loss.
    Pulser,
    /// Pin a distributed cwnd-cut plane with a seed-derived loss.
    Distributed,
}

impl ForceMitigation {
    /// The scenario field this mode pins. Loss walks the full per-mille
    /// range (including 1000 = dead plane) as the seed advances, so a
    /// forced sweep still covers every degradation regime.
    pub fn pin(&self, seed: u64) -> Option<MitigationScenario> {
        let loss_pm = ((seed % 11) * 100) as u32;
        match self {
            ForceMitigation::Off => None,
            ForceMitigation::Pulser => Some(MitigationScenario {
                distributed: false,
                loss_pm,
            }),
            ForceMitigation::Distributed => Some(MitigationScenario {
                distributed: true,
                loss_pm,
            }),
        }
    }
}

/// Fuzzes one seed: generate, run, check. `force_quic` pins the transport
/// for the whole sweep (`Some(true)` = QUIC-only, `Some(false)` =
/// TCP-only); `force_clos` pins the topology the same way (`Some(true)` =
/// a seed-derived multi-rack Clos, `Some(false)` = dumbbell-only);
/// `force_mitigation` pins the control plane (off, or a seed-derived lossy
/// plane of either kind); `None` keeps the per-seed samples from
/// [`Scenario::generate`].
pub fn fuzz_seed_with(
    seed: u64,
    force_quic: Option<bool>,
    force_clos: Option<bool>,
    force_mitigation: Option<ForceMitigation>,
) -> SeedOutcome {
    let mut scenario = Scenario::generate(seed);
    if let Some(quic) = force_quic {
        scenario.quic = quic;
    }
    match force_clos {
        Some(true) => {
            scenario.clos = Some((2 + (seed % 3) as u8, 1 + (seed % 4) as u8));
        }
        Some(false) => scenario.clos = None,
        None => {}
    }
    if let Some(force) = force_mitigation {
        scenario.mitigation = force.pin(seed);
    }
    match check_scenario(&scenario) {
        None => SeedOutcome::Pass,
        Some(f) => SeedOutcome::Fail(Box::new(f)),
    }
}

/// Fuzzes one seed with the per-seed transport sample.
pub fn fuzz_seed(seed: u64) -> SeedOutcome {
    fuzz_seed_with(seed, None, None, None)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(Scenario::generate(17), Scenario::generate(17));
        assert_ne!(Scenario::generate(17), Scenario::generate(18));
    }

    #[test]
    fn scenarios_cover_the_config_space() {
        let scs: Vec<Scenario> = (0..200).map(Scenario::generate).collect();
        assert!(scs.iter().any(|s| s.buffer.is_some()));
        assert!(scs.iter().any(|s| s.buffer.is_none()));
        assert!(scs.iter().any(|s| s.delayed_ack));
        assert!(scs.iter().any(|s| s.grouping));
        assert!(scs.iter().any(|s| s.periodic));
        assert!(scs.iter().any(|s| s.ecn_threshold_pkts.is_none()));
        assert!(scs.iter().any(|s| s.fault.is_empty()));
        assert!(scs.iter().any(|s| s.fault.blackhole_us.is_some()));
        assert!(scs.iter().any(|s| s.fault.loss_pm.is_some()));
        assert!(scs.iter().any(|s| s.fault.straggler_us.is_some()));
        assert!(scs.iter().any(|s| s.quic));
        assert!(scs.iter().any(|s| !s.quic));
        assert!(
            scs.iter().any(|s| s.quic && !s.fault.is_empty()),
            "no faulted QUIC scenario in the sample"
        );
        assert!(scs.iter().any(|s| s.clos.is_some()));
        assert!(scs.iter().any(|s| s.clos.is_none()));
        assert!(
            scs.iter()
                .any(|s| matches!(s.clos, Some((_, sp)) if sp > 1)),
            "no multi-spine Clos scenario in the sample"
        );
        assert!(scs.iter().any(|s| s.mitigation.is_some()));
        assert!(scs.iter().any(|s| s.mitigation.is_none()));
        assert!(
            scs.iter()
                .any(|s| matches!(s.mitigation, Some(m) if m.distributed)),
            "no distributed control plane in the sample"
        );
        assert!(
            scs.iter()
                .any(|s| matches!(s.mitigation, Some(m) if !m.distributed && m.loss_pm > 0)),
            "no lossy Pulser plane in the sample"
        );
        for s in &scs {
            assert!((2..=40).contains(&s.num_flows));
            assert!((5..=40).contains(&s.burst_ms_x10));
            if let Some(k) = s.ecn_threshold_pkts {
                assert!(k < s.queue_capacity_pkts, "K below capacity");
            }
            if let Some((r, sp)) = s.clos {
                assert!((2..=4).contains(&r), "racks in range");
                assert!((1..=4).contains(&sp), "spines in range");
            }
            if let Some(m) = s.mitigation {
                assert!(m.loss_pm <= 1000, "loss in per-mille range");
            }
        }
    }

    #[test]
    fn mitigation_off_is_the_first_shrink_candidate() {
        let sc = Scenario {
            mitigation: Some(MitigationScenario {
                distributed: true,
                loss_pm: 300,
            }),
            ..Scenario::generate(1)
        };
        let cands = shrink_candidates(&sc);
        assert_eq!(
            cands.first().map(|c| c.mitigation),
            Some(None),
            "shrinker must try turning the mitigation off first"
        );
    }

    #[test]
    fn forced_mitigation_pins_cover_the_loss_range() {
        let pins: Vec<_> = (0..11)
            .map(|s| ForceMitigation::Pulser.pin(s).unwrap())
            .collect();
        assert!(pins.iter().any(|m| m.loss_pm == 0));
        assert!(pins.iter().any(|m| m.loss_pm == 1000));
        assert!(pins.iter().all(|m| !m.distributed));
        assert!(ForceMitigation::Distributed.pin(3).unwrap().distributed);
        assert_eq!(ForceMitigation::Off.pin(3), None);
    }

    #[test]
    fn shrink_candidates_are_strictly_smaller() {
        let size = |s: &Scenario| {
            s.num_flows as u64
                + s.num_bursts as u64
                + s.burst_ms_x10
                + s.buffer.is_some() as u64
                + s.grouping as u64
                + s.delayed_ack as u64
                + s.periodic as u64
                + s.ecn_threshold_pkts.is_some() as u64
                + (!s.fault.is_empty()) as u64
                + s.fault.window_us()
                + s.quic as u64
                + s.clos.map(|(r, sp)| 1 + r as u64 + sp as u64).unwrap_or(0)
                + s.mitigation.is_some() as u64
        };
        // Cover both fault-free and faulted starting points.
        let mut faulted = 0;
        for seed in 0..40 {
            let sc = Scenario::generate(seed);
            faulted += (!sc.fault.is_empty()) as u64;
            for cand in shrink_candidates(&sc) {
                assert!(size(&cand) < size(&sc), "{cand:?} not smaller than {sc:?}");
            }
        }
        assert!(faulted > 0, "no faulted scenario in the sample");
    }
}
