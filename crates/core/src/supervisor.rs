//! Supervised, failure-tolerant sweep execution.
//!
//! A plain [`crate::sweep::run_incast_sweep`] is all-or-nothing: one
//! panicking configuration aborts the whole sweep, and one runaway run
//! (a pathological config that never converges) holds its thread hostage.
//! The supervisor wraps each run with
//!
//! - **validation at the front door** — a config [`ModesConfig::validate`]
//!   rejects fails with its typed reason before a simulation starts,
//! - **panic isolation** — a panic in one run is caught on its worker,
//!   recorded, and quarantined; every other run still completes and
//!   aggregates,
//! - **budget guards** — a [`RunBudget`] truncates runaway runs at the
//!   next polling step; truncated runs are marked in the manifest and
//!   excluded from aggregates,
//! - **quarantine reproducers** — each failed or truncated run writes a
//!   data file under `target/quarantine/`, `<name>.json`: the config's text
//!   ([`stats::leaves::write`]) and the outcome running it had
//!   ([`reproducer`]); [`replay`] reads one back, runs it and compares, and
//!   `tests/repro.rs` replays every checked-in one,
//! - **flight dumps by replay** — a casualty that passed validation is run
//!   again with a 256-event [`TextTracer`] attached, and its last packet
//!   and fault events land beside the reproducer as `<name>.flight.txt` (a
//!   run is a pure function of its config, so the replay is the run),
//! - **coverage accounting** — a [`RunCoverage`] reports
//!   ran/failed/truncated/retried so a partial aggregate is never
//!   mistaken for a complete one.
//!
//! Determinism: for a fixed config list and sim-side budgets, the
//! surviving set and the aggregate digest are identical across thread
//! counts and cache states (the wall-clock watchdog is the one
//! intentionally nondeterministic guard).

use std::cell::RefCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;

use crate::cache::{fnv1a64, incast_key, RunCache};
use crate::modes::{
    run_incast_budgeted_with, IncastRunResult, ModesConfig, RunBudget, TruncationCause,
};
use crate::runner::{panic_message, par_map};
use crate::sweep::{sweep_manifest, IncastSweepAggregate};
use millisampler::RunCoverage;
use simnet::{TextTracer, TimingWheel};
use stats::ConfigError;
use telemetry::{RunManifest, SinkRef};

/// Events of history a quarantined casualty's flight dump keeps.
const FLIGHT_LINES: usize = 256;

/// How a supervised sweep executes its runs.
#[derive(Debug, Clone)]
pub struct SupervisorConfig {
    /// Threads the runs spread over: the caller plus `threads - 1` scoped
    /// helpers (see [`crate::runner::par_map`]).
    pub threads: usize,
    /// Per-run budgets; [`RunBudget::default`] means unlimited.
    pub budget: RunBudget,
    /// Where quarantine reproducers land; `None` disables emission.
    pub quarantine_dir: Option<PathBuf>,
}

impl Default for SupervisorConfig {
    fn default() -> Self {
        SupervisorConfig {
            threads: crate::runner::default_threads(),
            budget: RunBudget::default(),
            quarantine_dir: Some(PathBuf::from("target/quarantine")),
        }
    }
}

/// What happened to one run of a supervised sweep.
#[derive(Debug)]
pub enum RunOutcome {
    /// Completed within budget; the result was aggregated (and cached).
    Completed(Arc<IncastRunResult>),
    /// Cut short by a budget guard; partial result retained but excluded
    /// from aggregates and never cached.
    Truncated(TruncationCause, Box<IncastRunResult>),
    /// Rejected by [`ModesConfig::validate`] (`invalid config: <path>:
    /// <reason>`) or panicked (`panic: <payload>`).
    Failed(String),
}

impl RunOutcome {
    /// Short label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            RunOutcome::Completed(_) => "completed",
            RunOutcome::Truncated(..) => "truncated",
            RunOutcome::Failed(_) => "failed",
        }
    }
}

/// Everything a supervised sweep produces.
#[derive(Debug)]
pub struct SupervisedSweep {
    /// Aggregate over the surviving (completed) runs, in config order.
    pub aggregate: IncastSweepAggregate,
    /// Per-config outcomes, in config order.
    pub outcomes: Vec<RunOutcome>,
    /// Coverage accounting over the whole sweep.
    pub coverage: RunCoverage,
    /// Reproducer files written for failed/truncated runs.
    pub quarantined: Vec<PathBuf>,
}

impl SupervisedSweep {
    /// A sweep manifest with the coverage object attached (cleared by
    /// [`RunManifest::deterministic`], since retry counts depend on
    /// transient IO). When any run was truncated, the manifest is marked
    /// with the first truncation cause.
    pub fn manifest(&self, name: &str, seed: u64, cache: &RunCache) -> RunManifest {
        let mut m = sweep_manifest(name, seed, &self.aggregate, 0, cache);
        m.topology = format!(
            "sweep:runs={}/{},threads=supervised",
            self.coverage.ran, self.coverage.total
        );
        m.coverage_json = Some(self.coverage.to_json());
        m.truncated = self.outcomes.iter().find_map(|o| match o {
            RunOutcome::Truncated(cause, _) => Some(cause.label().to_string()),
            _ => None,
        });
        m
    }
}

/// Runs every config under supervision: panics are isolated per run,
/// budgets truncate runaways, survivors aggregate in config order, and
/// failures quarantine reproducers and flight dumps, the latter replayed
/// here, serially. See the module docs for the contract.
pub fn supervised_incast_sweep(
    cfgs: &[ModesConfig],
    sup: &SupervisorConfig,
    cache: &RunCache,
) -> SupervisedSweep {
    let retries_before = cache.stats().disk_retries;
    let budget = (!sup.budget.is_unlimited()).then_some(&sup.budget);
    let results = par_map(cfgs.iter().collect(), sup.threads, |cfg| {
        supervised_run(cfg, cache, budget)
    });

    let mut aggregate = IncastSweepAggregate::new();
    let mut coverage = RunCoverage {
        total: cfgs.len() as u64,
        ..RunCoverage::default()
    };
    let mut quarantined = Vec::new();
    for (cfg, outcome) in cfgs.iter().zip(&results) {
        let cause = match outcome {
            RunOutcome::Completed(r) => {
                aggregate.absorb(r);
                coverage.ran += 1;
                None
            }
            RunOutcome::Truncated(cause, _) => {
                coverage.truncated += 1;
                Some(format!("budget exceeded: {}", cause.label()))
            }
            RunOutcome::Failed(msg) => {
                coverage.failed += 1;
                Some(msg.clone())
            }
        };
        if let (Some(cause), Some(dir)) = (cause, sup.quarantine_dir.as_deref()) {
            if let Some(path) = quarantine(dir, cfg, &cause, outcome, budget) {
                quarantined.push(path);
            }
        }
    }
    coverage.retried = cache.stats().disk_retries - retries_before;
    SupervisedSweep {
        aggregate,
        outcomes: results,
        coverage,
        quarantined,
    }
}

/// One supervised run: cache probe by config (a hit renders no key and
/// validates nothing), then validation, then a budgeted run under
/// `catch_unwind`. Only complete runs enter the cache, under the key the
/// missed probe rendered.
fn supervised_run(cfg: &ModesConfig, cache: &RunCache, budget: Option<&RunBudget>) -> RunOutcome {
    let key = match cache.probe_incast(cfg) {
        Ok(hit) => return RunOutcome::Completed(hit),
        Err(key) => key,
    };
    if let Err(e) = cfg.validate() {
        return RunOutcome::Failed(format!("invalid config: {e}"));
    }
    match catch_unwind(AssertUnwindSafe(|| {
        run_incast_budgeted_with::<TimingWheel>(cfg, None, budget).0
    })) {
        Ok(r) => match r.truncated {
            Some(cause) => RunOutcome::Truncated(cause, Box::new(r)),
            None => RunOutcome::Completed(cache.fill_incast(cfg, &key, r)),
        },
        Err(p) => RunOutcome::Failed(format!("panic: {}", panic_message(&*p))),
    }
}

/// A reproducer file, `{"config":…,"outcome":"…"}`: a config's text and
/// the outcome running it had, one line as [`outcome`] words it.
struct Reproducer {
    config: ModesConfig,
    outcome: String,
}

stats::leaves!(Reproducer: config, outcome);

/// The text of the reproducer of `cfg`, which ran to `outcome`.
pub fn reproducer(cfg: &ModesConfig, outcome: &str) -> String {
    stats::leaves::write(&Reproducer {
        config: cfg.clone(),
        outcome: outcome.to_string(),
    })
}

/// What replaying a reproducer showed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// The outcome the reproducer records.
    pub expected: String,
    /// The outcome its config ran to now.
    pub replayed: String,
}

impl Replay {
    /// Whether the two outcomes are the same.
    pub fn reproduced(&self) -> bool {
        self.expected == self.replayed
    }
}

/// Reads a [`reproducer`], validates and runs its config, and reports both
/// outcomes; a text that is not a reproducer is a [`ConfigError`] at the
/// path where it stops matching (`config.tcp.mss`, `outcome`).
///
/// A `truncated at N events` run is replayed under an events budget of
/// exactly `N`: whichever guard cut it, the event loop stops at the same
/// polling step with the same event prefix. Every other outcome is replayed
/// without a budget, and so depends on the physics alone.
pub fn replay(text: &str) -> Result<Replay, ConfigError> {
    let Reproducer { config, outcome } = stats::leaves::read(text.trim_end())?;
    let budget = truncated_events(&outcome).map(events_budget);
    Ok(Replay {
        replayed: self::outcome(&config, None, budget.as_ref()),
        expected: outcome,
    })
}

/// What running `cfg` under `budget`, with `sink` attached, ends with, as
/// one line: `rejected: <path>: <reason>`, `panic: <message>`, `truncated
/// at <N> events` or `finished <k> of <n> bursts, mean BCT <x> ms`
/// (shortest round-trip float).
pub fn outcome(cfg: &ModesConfig, sink: Option<&SinkRef>, budget: Option<&RunBudget>) -> String {
    let run = || run_incast_budgeted_with::<TimingWheel>(cfg, sink, budget).0;
    match cfg.validate() {
        Err(e) => format!("rejected: {e}"),
        Ok(()) => caught(|| ended(cfg, &run())),
    }
}

/// `run`'s outcome, or `panic: <message>` if it panicked.
fn caught(run: impl FnOnce() -> String) -> String {
    catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|p| format!("panic: {}", panic_message(&*p)))
}

/// The outcome of a run of `cfg` that returned `r`.
fn ended(cfg: &ModesConfig, r: &IncastRunResult) -> String {
    match r.truncated {
        Some(_) => format!("truncated at {} events", r.profile.events()),
        None => format!(
            "finished {} of {} bursts, mean BCT {} ms",
            r.bcts_ms.len(),
            cfg.num_bursts,
            r.mean_bct_ms
        ),
    }
}

/// `N` of a `truncated at N events` outcome.
fn truncated_events(outcome: &str) -> Option<u64> {
    outcome
        .strip_prefix("truncated at ")?
        .strip_suffix(" events")?
        .parse()
        .ok()
}

fn events_budget(max_events: u64) -> RunBudget {
    RunBudget {
        max_events: Some(max_events),
        ..RunBudget::default()
    }
}

/// Runs `run` with a [`FLIGHT_LINES`]-event [`TextTracer`] as its sink and
/// renders the dump: a header naming `cause`, the outcome the replay ended
/// with and whether that is `expected`, then the tracer's lines.
fn replay_flight(cause: &str, expected: &str, run: impl FnOnce(&SinkRef) -> String) -> String {
    let tracer = Rc::new(RefCell::new(TextTracer::new(FLIGHT_LINES)));
    let sink = SinkRef::from_rc(tracer.clone());
    let replayed = caught(|| run(&sink));
    let verdict = if replayed == expected {
        "reproduced".to_string()
    } else {
        format!("NOT reproduced (the run: {expected})")
    };
    let t = tracer.borrow();
    format!(
        "flight dump: {cause}\nreplay: {replayed}, {verdict}\nlast {} of {} traced events:\n{}",
        t.events_seen.min(FLIGHT_LINES as u64),
        t.events_seen,
        t.render()
    )
}

/// Writes the reproducer of one failed/truncated run as `<name>.json` and,
/// if the run started, its flight dump (replayed as [`replay`] would, a
/// panic under the sweep's `budget`) as `<name>.flight.txt`; best effort.
fn quarantine(
    dir: &Path,
    cfg: &ModesConfig,
    cause: &str,
    ran: &RunOutcome,
    budget: Option<&RunBudget>,
) -> Option<PathBuf> {
    let expected = match (ran, cfg.validate()) {
        (_, Err(e)) => format!("rejected: {e}"),
        (RunOutcome::Failed(msg), Ok(())) => msg.clone(),
        (RunOutcome::Completed(r), Ok(())) => ended(cfg, r),
        (RunOutcome::Truncated(_, r), Ok(())) => ended(cfg, r),
    };
    let dump = cfg.validate().is_ok().then(|| {
        let budget =
            truncated_events(&expected).map_or(budget.copied(), |n| Some(events_budget(n)));
        replay_flight(cause, &expected, |sink| {
            outcome(cfg, Some(sink), budget.as_ref())
        })
    });
    let name = format!("quarantine_run_{:016x}", fnv1a64(&incast_key(cfg)));
    let path = dir.join(format!("{name}.json"));
    let text = reproducer(cfg, &expected) + "\n";
    let (written, _retries) = stats::retry_with_backoff(
        3,
        std::time::Duration::from_millis(5),
        || -> std::io::Result<()> {
            std::fs::create_dir_all(dir)?;
            std::fs::write(&path, &text)?;
            if let Some(dump) = &dump {
                std::fs::write(dir.join(format!("{name}.flight.txt")), dump)?;
            }
            Ok(())
        },
    );
    written.ok().map(|_| path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimTime;

    fn tiny(seed: u64) -> ModesConfig {
        ModesConfig {
            num_flows: 8,
            burst_duration_ms: 1.0,
            num_bursts: 2,
            warmup_bursts: 1,
            seed,
            ..ModesConfig::default()
        }
    }

    /// A config [`ModesConfig::validate`] rejects: the supervisor reports
    /// it as failed without starting a run.
    fn poisoned() -> ModesConfig {
        ModesConfig {
            burst_duration_ms: -1.0,
            ..tiny(99)
        }
    }

    fn tmp_quarantine(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("incast-quarantine-{tag}-{}", std::process::id()))
    }

    #[test]
    fn poisoned_and_runaway_configs_do_not_abort_the_sweep() {
        let dir = tmp_quarantine("mixed");
        let _ = std::fs::remove_dir_all(&dir);
        let cfgs = vec![
            tiny(1),
            poisoned(),
            tiny(2),
            // Runaway: 2000 bursts can't finish inside the event budget.
            ModesConfig {
                num_bursts: 2000,
                ..tiny(3)
            },
            tiny(4),
        ];
        let sup = SupervisorConfig {
            threads: 4,
            budget: RunBudget {
                max_events: Some(20_000),
                ..RunBudget::default()
            },
            quarantine_dir: Some(dir.clone()),
        };
        let cache = RunCache::in_memory();
        let sweep = supervised_incast_sweep(&cfgs, &sup, &cache);

        assert_eq!(sweep.coverage.total, 5);
        assert_eq!(sweep.coverage.failed, 1);
        assert_eq!(sweep.coverage.truncated, 1);
        assert_eq!(sweep.coverage.ran, 3);
        assert!(!sweep.coverage.complete());
        assert_eq!(sweep.aggregate.runs, 3);
        assert_eq!(sweep.outcomes[1].label(), "failed");
        assert_eq!(sweep.outcomes[3].label(), "truncated");

        // Both casualties left reproducers behind that replay as recorded.
        assert_eq!(sweep.quarantined.len(), 2);
        let replays: Vec<Replay> = sweep
            .quarantined
            .iter()
            .map(|p| replay(&std::fs::read_to_string(p).expect("reproducer written")).unwrap())
            .collect();
        assert_eq!(
            replays[0].expected,
            "rejected: burst_duration_ms: must be positive"
        );
        let events = partial_events(&sweep.outcomes[3]);
        assert_eq!(replays[1].expected, format!("truncated at {events} events"));
        assert!(replays.iter().all(Replay::reproduced), "{replays:?}");
        // Only the runaway started a run, so only it has a flight dump.
        let dumps: Vec<bool> = sweep
            .quarantined
            .iter()
            .map(|p| p.with_extension("flight.txt").exists())
            .collect();
        assert_eq!(dumps, [false, true]);
        // The failed run carries the typed rejection, not a panic.
        match &sweep.outcomes[1] {
            RunOutcome::Failed(msg) => {
                assert_eq!(msg, "invalid config: burst_duration_ms: must be positive")
            }
            o => panic!("expected failure, got {}", o.label()),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn manifest_reports_coverage_and_truncation() {
        let dir = tmp_quarantine("manifest");
        let _ = std::fs::remove_dir_all(&dir);
        let cfgs = vec![tiny(1), poisoned()];
        let sup = SupervisorConfig {
            threads: 2,
            quarantine_dir: Some(dir.clone()),
            ..SupervisorConfig::default()
        };
        let cache = RunCache::in_memory();
        let sweep = supervised_incast_sweep(&cfgs, &sup, &cache);
        let m = sweep.manifest("fault_matrix", 1, &cache);
        let j = m.to_json();
        assert!(
            j.contains(r#""coverage":{"total":2,"ran":1,"failed":1"#),
            "{j}"
        );
        // No truncated runs here, so no truncation marker.
        assert!(m.truncated.is_none());
        // Coverage depends on cache/IO state; the determinism view drops it.
        let det = m.deterministic().to_json();
        assert!(!det.contains("coverage"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Sweeps one runaway (2000 bursts) under `budget` with quarantine on;
    /// returns its outcome and flight dump.
    fn quarantine_runaway(tag: &str, seed: u64, budget: RunBudget) -> (RunOutcome, String) {
        let dir = tmp_quarantine(tag);
        let _ = std::fs::remove_dir_all(&dir);
        let cfgs = vec![ModesConfig {
            num_bursts: 2000,
            ..tiny(seed)
        }];
        let sup = SupervisorConfig {
            threads: 1,
            budget,
            quarantine_dir: Some(dir.clone()),
        };
        let mut sweep = supervised_incast_sweep(&cfgs, &sup, &RunCache::in_memory());
        assert_eq!(sweep.coverage.truncated, 1);
        assert_eq!(sweep.quarantined.len(), 1);
        let flight = sweep.quarantined[0].with_extension("flight.txt");
        let dump = std::fs::read_to_string(&flight).expect("flight dump beside reproducer");
        let _ = std::fs::remove_dir_all(&dir);
        (sweep.outcomes.remove(0), dump)
    }

    fn partial_events(outcome: &RunOutcome) -> u64 {
        match outcome {
            RunOutcome::Truncated(_, partial) => partial.profile.events(),
            o => panic!("expected truncation, got {}", o.label()),
        }
    }

    #[test]
    fn quarantined_truncation_carries_a_flight_dump() {
        let (outcome, dump) = quarantine_runaway("flight", 11, events_budget(20_000));
        let events = partial_events(&outcome);
        assert!(events >= 20_000);
        let header = format!(
            "flight dump: budget exceeded: events\n\
             replay: truncated at {events} events, reproduced\n\
             last 256 of "
        );
        assert!(dump.starts_with(&header), "{dump}");
        assert_eq!(dump.lines().count(), 3 + FLIGHT_LINES, "{dump}");
    }

    #[test]
    fn flight_dump_is_the_tail_of_a_tracer_on_the_same_budgeted_run() {
        let (_, dump) = quarantine_runaway("tail", 12, events_budget(20_000));
        let tracer = Rc::new(RefCell::new(TextTracer::new(1 << 20)));
        let sink = SinkRef::from_rc(tracer.clone());
        let cfg = ModesConfig {
            num_bursts: 2000,
            ..tiny(12)
        };
        run_incast_budgeted_with::<TimingWheel>(&cfg, Some(&sink), Some(&events_budget(20_000)));
        let full = tracer.borrow().render();
        let tail: Vec<&str> = full.lines().rev().take(FLIGHT_LINES).collect();
        let body: Vec<&str> = dump.lines().skip(3).collect();
        assert_eq!(body, tail.into_iter().rev().collect::<Vec<_>>());
        let seen = tracer.borrow().events_seen;
        assert!(dump.contains(&format!("last 256 of {seen} traced events:\n")));
    }

    #[test]
    fn wall_clock_truncation_replays_exactly_the_events_it_ran() {
        let (outcome, dump) = quarantine_runaway(
            "wall",
            13,
            RunBudget {
                wall_clock: Some(std::time::Duration::from_millis(5)),
                ..RunBudget::default()
            },
        );
        let events = partial_events(&outcome);
        let header = format!(
            "flight dump: budget exceeded: wall_clock\n\
             replay: truncated at {events} events, reproduced\n"
        );
        assert!(dump.starts_with(&header), "{dump}");
    }

    #[test]
    fn a_panicking_replay_dumps_its_last_events_and_the_panic() {
        for k in [3u32, 300] {
            let dump = replay_flight("panic: boom", "panic: boom", |sink| {
                for seq in 0..k {
                    let pkt = simnet::Packet::data(
                        simnet::FlowId(1),
                        simnet::NodeId(0),
                        simnet::NodeId(2),
                        seq,
                        1446,
                        false,
                        SimTime::ZERO,
                    );
                    sink.emit(&telemetry::Event {
                        t_ps: seq as u64,
                        kind: telemetry::EventKind::PktTxStart {
                            link: 0,
                            pkt: simnet::packet_info(&pkt),
                        },
                    });
                }
                panic!("boom")
            });
            let held = k.min(FLIGHT_LINES as u32);
            let lines: Vec<&str> = dump.lines().collect();
            assert_eq!(
                lines[..2],
                [
                    "flight dump: panic: boom",
                    "replay: panic: boom, reproduced"
                ]
            );
            assert_eq!(lines[2], format!("last {held} of {k} traced events:"));
            assert_eq!(lines.len(), 3 + held as usize, "{dump}");
            let last = format!("DATA seq={} len=1446", k - 1);
            assert!(lines[lines.len() - 1].ends_with(&last), "{dump}");
        }
    }

    #[test]
    fn a_reproducer_is_its_config_and_outcome_and_replays() {
        let cfg = tiny(21);
        let outcome = outcome(&cfg, None, None);
        assert!(
            outcome.starts_with("finished 2 of 2 bursts, mean BCT "),
            "{outcome}"
        );
        let text = reproducer(&cfg, &outcome);
        let config = stats::leaves::write(&cfg);
        assert_eq!(
            text,
            format!(r#"{{"config":{config},"outcome":"{outcome}"}}"#)
        );
        let r = replay(&text).expect("a reproducer");
        assert!(r.reproduced(), "{r:?}");

        let drifted = reproducer(&cfg, "finished 2 of 2 bursts, mean BCT 1 ms");
        assert!(!replay(&drifted).unwrap().reproduced());
        let broken = text.replace(r#""mss":1446"#, r#""mss":-1"#);
        assert_eq!(replay(&broken).unwrap_err().path, "config.tcp.mss");
        let cut = text.replace(r#","outcome""#, r#","result""#);
        assert_eq!(replay(&cut).unwrap_err().path, "outcome");
    }

    #[test]
    fn surviving_set_is_deterministic_across_threads() {
        let cfgs = vec![
            tiny(1),
            poisoned(),
            ModesConfig {
                num_bursts: 2000,
                ..tiny(2)
            },
            tiny(3),
        ];
        let digests: Vec<String> = [1usize, 4]
            .iter()
            .map(|&threads| {
                let sup = SupervisorConfig {
                    threads,
                    budget: RunBudget {
                        max_events: Some(20_000),
                        ..RunBudget::default()
                    },
                    quarantine_dir: None,
                };
                let cache = RunCache::in_memory();
                supervised_incast_sweep(&cfgs, &sup, &cache)
                    .aggregate
                    .digest()
            })
            .collect();
        assert_eq!(digests[0], digests[1]);
    }

    #[test]
    fn completed_runs_enter_the_cache_but_truncated_ones_do_not() {
        let cache = RunCache::in_memory();
        let good = tiny(7);
        let runaway = ModesConfig {
            num_bursts: 2000,
            ..tiny(8)
        };
        let sup = SupervisorConfig {
            threads: 1,
            budget: RunBudget {
                max_events: Some(20_000),
                ..RunBudget::default()
            },
            quarantine_dir: None,
        };
        supervised_incast_sweep(&[good.clone(), runaway.clone()], &sup, &cache);
        assert!(cache.get::<IncastRunResult>(&incast_key(&good)).is_some());
        assert!(cache
            .get::<IncastRunResult>(&incast_key(&runaway))
            .is_none());
        // A second supervised pass serves the good run from cache.
        let sweep = supervised_incast_sweep(std::slice::from_ref(&good), &sup, &cache);
        assert_eq!(sweep.coverage.ran, 1);
        assert!(cache.stats().hits() >= 1);
    }

    #[test]
    fn truncated_outcome_keeps_the_partial_result() {
        let sup = SupervisorConfig {
            threads: 1,
            budget: RunBudget {
                sim_time: Some(SimTime::from_ms(2)),
                ..RunBudget::default()
            },
            quarantine_dir: None,
        };
        let cache = RunCache::in_memory();
        let cfgs = vec![ModesConfig {
            num_bursts: 50,
            ..tiny(5)
        }];
        let sweep = supervised_incast_sweep(&cfgs, &sup, &cache);
        match &sweep.outcomes[0] {
            RunOutcome::Truncated(cause, partial) => {
                assert_eq!(*cause, TruncationCause::SimTime);
                assert!(partial.finished_at >= SimTime::from_ms(2));
            }
            o => panic!("expected truncation, got {}", o.label()),
        }
    }
}
