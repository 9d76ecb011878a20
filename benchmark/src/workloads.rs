//! The eight workloads: what one iteration calls, and what makes its
//! result correct. `BENCHMARK.json` and `README.md` say why each exists.

use crate::inputs::{threads, Inputs};
use incast_core::modes::{run_incast_instrumented, IncastRunResult, ModesConfig, OperatingMode};
use incast_core::production::{run_fleet_with, FleetConfig};
use incast_core::sweep::{run_incast_sweep, IncastSweepAggregate};
use incast_core::RunCache;
use millisampler::FleetAccumulator;
use simnet::FxHasher;
use std::cell::RefCell;
use std::hash::Hasher;
use std::rc::Rc;
use std::sync::Arc;
use telemetry::{JsonlSink, RunManifest};
use workload::ServiceId;

/// Workload names, in report order.
pub const NAMES: [&str; 8] = [
    "mode1_steady",
    "mode3_tcp",
    "mode3_quic",
    "clos_pulser",
    "trace_jsonl",
    "fleet_fig2",
    "sweep_cold",
    "sweep_warm",
];

/// Warm-up iterations before the first timed one (pool spin-up, wheel and
/// packet-pool slabs at high water, lazy statics). Part of `setup_s`. One,
/// the cold one: the timed phase reports its fastest iteration, which needs
/// no warmth, and a short set-up can be repeated often enough to find its
/// own floor.
pub const WARMUPS: usize = 1;

/// One `sweep_warm` iteration re-sweeps the warm cache this many times, so
/// that an iteration is ~100 ms of pure lookup rather than ~100 µs.
pub const WARM_RESWEEPS: u64 = 1000;

/// A workload's prepared inputs: what the timed call reads.
pub enum Case {
    /// `run_incast_instrumented(cfg, None)`, i.e. `run_incast` plus the
    /// manifest the checks read.
    Incast(ModesConfig),
    /// The same call with an all-classes in-memory `JsonlSink` attached.
    Jsonl(ModesConfig),
    /// `run_fleet_with` against a fresh in-memory cache.
    Fleet(FleetConfig),
    /// `run_incast_sweep` against a fresh in-memory cache.
    SweepCold(Vec<ModesConfig>),
    /// Re-sweeps of a cache that set-up filled, each folded to a digest.
    SweepWarm {
        cfgs: Vec<ModesConfig>,
        cache: RunCache,
        /// Digest of the cold sweep that filled the cache.
        cold_digest: String,
    },
}

/// What the timed call returned.
pub enum Output {
    Incast(Box<IncastRunResult>, Box<RunManifest>),
    Jsonl(
        Box<IncastRunResult>,
        Box<RunManifest>,
        Rc<RefCell<JsonlSink>>,
    ),
    Fleet(Vec<(ServiceId, FleetAccumulator)>),
    Sweep {
        runs: Vec<Arc<IncastRunResult>>,
        misses: u64,
    },
    Warm {
        digest: String,
        /// Re-sweeps behind `hits`/`misses` ([`WARM_RESWEEPS`] when timed).
        resweeps: u64,
        hits: u64,
        misses: u64,
    },
}

impl Output {
    /// The output minus the rendered trace a `Jsonl` one carries.
    pub fn without_sink(self) -> Output {
        match self {
            Output::Jsonl(r, m, _) => Output::Incast(r, m),
            other => other,
        }
    }
}

/// Builds `name`'s case from the generated inputs. For `sweep_warm` this
/// runs the cold sweep that fills the cache — set-up, not an iteration.
pub fn prepare(name: &str, inputs: &Inputs) -> Case {
    match name {
        "trace_jsonl" => Case::Jsonl(inputs.trace_jsonl.clone()),
        "fleet_fig2" => Case::Fleet(inputs.fleet_fig2.clone()),
        "sweep_cold" => Case::SweepCold(inputs.sweep.clone()),
        "sweep_warm" => {
            let cache = RunCache::in_memory();
            let runs = run_incast_sweep(&inputs.sweep, threads(), &cache);
            Case::SweepWarm {
                cfgs: inputs.sweep.clone(),
                cold_digest: sweep_digest(&runs),
                cache,
            }
        }
        _ => Case::Incast(
            inputs
                .packet(name)
                .unwrap_or_else(|| panic!("unknown workload {name}"))
                .clone(),
        ),
    }
}

fn sweep_digest(runs: &[Arc<IncastRunResult>]) -> String {
    IncastSweepAggregate::from_runs(runs.iter().map(|r| &**r)).digest()
}

impl Case {
    /// One iteration of the workload's user-visible call: config in,
    /// result out. This, and nothing else, is inside the timed region.
    pub fn call(&self) -> Output {
        match self {
            Case::Incast(cfg) => {
                let (r, m) = run_incast_instrumented(cfg, None);
                Output::Incast(Box::new(r), Box::new(m))
            }
            Case::Jsonl(cfg) => {
                let (jsonl, sink) = JsonlSink::new().shared();
                let (r, m) = run_incast_instrumented(cfg, Some(&sink));
                Output::Jsonl(Box::new(r), Box::new(m), jsonl)
            }
            Case::Fleet(cfg) => Output::Fleet(run_fleet_with(cfg, &RunCache::in_memory())),
            Case::SweepCold(cfgs) => sweep_cold(cfgs, threads()),
            Case::SweepWarm { cfgs, cache, .. } => {
                let before = cache.stats();
                let mut digest = String::new();
                for _ in 0..WARM_RESWEEPS {
                    digest = sweep_digest(&run_incast_sweep(cfgs, threads(), cache));
                }
                let after = cache.stats();
                Output::Warm {
                    digest,
                    resweeps: WARM_RESWEEPS,
                    hits: after.mem_hits - before.mem_hits,
                    misses: after.misses - before.misses,
                }
            }
        }
    }

    /// The iteration as the counting pass runs it: on one thread. With two,
    /// `sweep_cold`'s peak live heap depends on which two simulations the
    /// pool happened to overlap (2.4–3.1 MB run to run); on one it is a
    /// property of the inputs, like every other workload's.
    pub fn call_counted(&self) -> Output {
        match self {
            Case::SweepCold(cfgs) => sweep_cold(cfgs, 1),
            _ => self.call(),
        }
    }
}

fn sweep_cold(cfgs: &[ModesConfig], threads: usize) -> Output {
    let cache = RunCache::in_memory();
    let runs = run_incast_sweep(cfgs, threads, &cache);
    Output::Sweep {
        runs,
        misses: cache.stats().misses,
    }
}

/// Folds a run's observable result into the per-iteration digest.
fn incast_digest(h: &mut FxHasher, r: &IncastRunResult) {
    for b in &r.bcts_ms {
        h.write_u64(b.to_bits());
    }
    for v in [r.drops, r.marked_pkts, r.timeouts, r.profile.events()] {
        h.write_u64(v);
    }
}

/// What checking one iteration's output found.
pub struct Verdict {
    /// Digest of the result; every iteration of a run must produce the
    /// first iteration's.
    pub digest: u64,
    /// Violated expectations; empty means the op succeeded.
    pub problems: Vec<String>,
    /// Simulator events behind the result (0 where none were simulated).
    pub events: u64,
}

/// Reads a `u64` field out of one of the manifest's flat JSON objects.
pub fn json_u64(obj: &str, key: &str) -> Option<u64> {
    let j = crate::json::Json::parse(obj).ok()?;
    j.get(key)?.num().map(|v| v as u64)
}

fn check_incast(
    name: &str,
    cfg: &ModesConfig,
    r: &IncastRunResult,
    m: &RunManifest,
) -> Vec<String> {
    let mut bad = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            bad.push(what);
        }
    };
    expect(
        r.truncated.is_none(),
        format!("truncated: {:?}", r.truncated),
    );
    expect(
        r.bcts_ms.len() == cfg.num_bursts as usize,
        format!("{} of {} bursts completed", r.bcts_ms.len(), cfg.num_bursts),
    );
    match name {
        "mode1_steady" => {
            expect(
                r.mode() == OperatingMode::Mode1Healthy,
                format!("classified {:?}, want Mode1Healthy", r.mode()),
            );
            expect(
                r.drops == 0,
                format!("{} drops in a loss-free mode", r.drops),
            );
        }
        "mode3_tcp" => {
            expect(
                r.mode() == OperatingMode::Mode3Timeouts,
                format!("classified {:?}, want Mode3Timeouts", r.mode()),
            );
            expect(
                r.queue_watermark_pkts == 1333,
                format!(
                    "watermark {} pkts, want the 1333-pkt overflow",
                    r.queue_watermark_pkts
                ),
            );
        }
        "mode3_quic" => {
            // The same overflow, repaired inside the burst: BCT stays at
            // demand / line rate (= the nominal burst duration).
            let err = (r.mean_bct_ms / cfg.burst_duration_ms - 1.0).abs();
            expect(
                err <= 0.05,
                format!(
                    "BCT {} ms is {:.1} % off demand/line-rate",
                    r.mean_bct_ms,
                    err * 100.0
                ),
            );
            expect(
                r.queue_watermark_pkts == 1333,
                format!(
                    "watermark {} pkts: the queue never overflowed",
                    r.queue_watermark_pkts
                ),
            );
        }
        "clos_pulser" => {
            let ctrl = m.control_json.as_deref().unwrap_or("{}");
            let sent = json_u64(ctrl, "notif_sent").unwrap_or(0);
            let acked = json_u64(ctrl, "notif_acked").unwrap_or(0);
            expect(sent > 0, "control plane sent no notification".to_string());
            expect(
                sent == acked,
                format!("{acked} of {sent} notifications acked"),
            );
        }
        _ => {}
    }
    bad
}

/// Digests `out` and checks it against what `name` must produce.
pub fn verify(name: &str, case: &Case, out: &Output) -> Verdict {
    let mut h = FxHasher::default();
    let mut problems = Vec::new();
    let mut events = 0;
    match (case, out) {
        (Case::Incast(cfg), Output::Incast(r, m)) => {
            incast_digest(&mut h, r);
            problems = check_incast(name, cfg, r, m);
            events = r.profile.events();
        }
        (Case::Jsonl(cfg), Output::Jsonl(r, m, jsonl)) => {
            incast_digest(&mut h, r);
            problems = check_incast(name, cfg, r, m);
            events = r.profile.events();
            let sink = jsonl.borrow();
            // `FxHasher` folds 8 bytes a step: the rendered trace is ~75 MB.
            h.write(sink.render().as_bytes());
            h.write_u64(sink.events_written());
            if sink.events_written() == 0 || sink.events_written() != m.event_count {
                problems.push(format!(
                    "sink wrote {} events, manifest says {}",
                    sink.events_written(),
                    m.event_count
                ));
            }
        }
        (Case::Fleet(cfg), Output::Fleet(accs)) => {
            for (svc, acc) in accs {
                h.write(svc.name().as_bytes());
                h.write_usize(acc.traces);
                for cdf in [
                    &acc.burst_frequency,
                    &acc.burst_duration_ms,
                    &acc.burst_flows,
                    &acc.marked_fraction,
                    &acc.retx_fraction,
                    &acc.queue_peak_fraction,
                    &acc.utilization,
                ] {
                    h.write_usize(cdf.len());
                    for v in cdf.samples() {
                        h.write_u64(v.to_bits());
                    }
                }
                if acc.traces != cfg.hosts * cfg.snapshots {
                    problems.push(format!("{}: {} traces pooled", svc.name(), acc.traces));
                }
            }
            if accs.iter().all(|(_, a)| a.total_bursts() == 0) {
                problems.push("no burst detected in any trace".to_string());
            }
        }
        (Case::SweepCold(cfgs), Output::Sweep { runs, misses }) => {
            h.write(sweep_digest(runs).as_bytes());
            events = runs.iter().map(|r| r.profile.events()).sum();
            if runs.len() != cfgs.len() || *misses != cfgs.len() as u64 {
                problems.push(format!(
                    "{} runs, {misses} misses for {} configs",
                    runs.len(),
                    cfgs.len()
                ));
            }
            for (cfg, r) in cfgs.iter().zip(runs) {
                if r.truncated.is_some() || r.bcts_ms.len() != cfg.num_bursts as usize {
                    problems.push(format!("config seed {} did not complete", cfg.seed));
                }
            }
        }
        (
            Case::SweepWarm {
                cfgs, cold_digest, ..
            },
            Output::Warm {
                digest,
                resweeps,
                hits,
                misses,
            },
        ) => {
            h.write(digest.as_bytes());
            let lookups = resweeps * cfgs.len() as u64;
            if *hits != lookups || *misses != 0 {
                problems.push(format!(
                    "{hits} hits, {misses} misses for {lookups} lookups"
                ));
            }
            if digest != cold_digest {
                problems.push("warm digest differs from the cold sweep's".to_string());
            }
        }
        _ => problems.push("output does not belong to this case".to_string()),
    }
    Verdict {
        digest: h.finish(),
        problems,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_fields_are_read_by_key() {
        let ctrl = r#"{"mitigation":"pulser","ports":1,"notif_sent":16343,"notif_acked":16340}"#;
        assert_eq!(json_u64(ctrl, "notif_sent"), Some(16343));
        assert_eq!(json_u64(ctrl, "notif_acked"), Some(16340));
        assert_eq!(json_u64(ctrl, "missing"), None);
    }

    #[test]
    fn a_truncated_run_fails_its_check() {
        // The injected fault of the acceptance list: a horizon too short
        // for the bursts to finish.
        let mut cfg = Inputs::from_seed(11).sweep[0].clone();
        cfg.horizon = simnet::SimTime::from_us(300);
        let case = Case::Incast(cfg);
        let v = verify("mode1_steady", &case, &case.call());
        assert!(
            v.problems.iter().any(|p| p.contains("bursts completed")),
            "{:?}",
            v.problems
        );
    }

    #[test]
    fn small_sweep_is_correct_cold_and_warm() {
        let mut inputs = Inputs::from_seed(11);
        inputs.sweep.truncate(3);
        let cold = prepare("sweep_cold", &inputs);
        let vc = verify("sweep_cold", &cold, &cold.call());
        assert!(vc.problems.is_empty(), "{:?}", vc.problems);
        assert!(vc.events > 0);
        let warm = prepare("sweep_warm", &inputs);
        let vw = verify("sweep_warm", &warm, &warm.call());
        assert!(vw.problems.is_empty(), "{:?}", vw.problems);
        assert_eq!(vc.digest, vw.digest, "same aggregate, cold or warm");
    }
}
