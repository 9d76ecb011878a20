//! Per-run manifests.
//!
//! A [`RunManifest`] records everything needed to replay and diff a run:
//! the seed, topology, transport configuration, the code version
//! (`git describe`), how many telemetry events were captured, how many
//! simulator events were processed, and (optionally) wall-clock time.
//! Everything except wall-clock is deterministic for a fixed seed and
//! binary, so manifests from two identical runs compare byte-equal once
//! the wall-clock field is left unset (it is omitted from the JSON when
//! `None`).

use crate::json::Obj;
use std::sync::OnceLock;

/// A replayable description of one simulation run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunManifest {
    /// Human name of the experiment/run.
    pub name: String,
    /// RNG seed.
    pub seed: u64,
    /// Topology summary, e.g. `"dumbbell:senders=32,trunk=100G"`.
    pub topology: String,
    /// Pre-rendered JSON of the run's config (`stats::leaves::write`), or
    /// `"{}"`.
    pub config_json: String,
    /// Output of `git describe --always --dirty`, or `"unknown"`.
    pub git_describe: String,
    /// Telemetry events captured by the attached sink.
    pub event_count: u64,
    /// Simulator events processed.
    pub events_processed: u64,
    /// Final simulated time in picoseconds.
    pub sim_time_ps: u64,
    /// Pre-rendered JSON of the simulator counters, or `"{}"`.
    pub counters_json: String,
    /// Event scheduler driving the run (`"wheel"` or `"heap"`), or
    /// `"unknown"`.
    pub scheduler: String,
    /// Wall-clock duration in microseconds. `None` keeps the manifest
    /// deterministic; the field is omitted from the JSON entirely.
    pub wall_clock_us: Option<u64>,
    /// Event-loop throughput (simulator events per wall-clock second).
    /// Nondeterministic like `wall_clock_us`; omitted from the JSON when
    /// `None` and cleared by [`RunManifest::deterministic`].
    pub events_per_sec: Option<u64>,
    /// Pre-rendered JSON of the run-cache statistics for the sweep that
    /// produced this manifest (hits, misses, entries). Depends on cache
    /// state rather than the run's inputs, so like the wall-clock fields it
    /// is omitted when `None` and cleared by [`RunManifest::deterministic`].
    pub cache_json: Option<String>,
    /// Invariant violations recorded during the run by the `check` feature's
    /// invariant layer (`simnet::check`). `None` when the layer is compiled
    /// out; `Some(0)` is a clean checked run. Deterministic for a fixed
    /// seed, so it survives [`RunManifest::deterministic`].
    pub invariant_violations: Option<u64>,
    /// Faults applied from the run's fault plan. `None` when the run had no
    /// plan installed; deterministic for a fixed seed + plan, so it survives
    /// [`RunManifest::deterministic`].
    pub faults_injected: Option<u64>,
    /// Why the run was cut short by a budget guard ("sim_time", "events",
    /// or "wall_clock"), if it was. Truncated runs are excluded from sweep
    /// aggregates. Deterministic for the sim-side causes, so it survives
    /// [`RunManifest::deterministic`] (wall-clock truncation makes the whole
    /// run nondeterministic anyway — such runs should never be compared).
    pub truncated: Option<String>,
    /// Pre-rendered JSON of supervised-sweep coverage counts
    /// (ran/failed/truncated/retried). Retry counts depend on transient IO,
    /// so like `cache_json` it is omitted when `None` and cleared by
    /// [`RunManifest::deterministic`].
    pub coverage_json: Option<String>,
    /// Pre-rendered JSON of the run's wall-clock phase breakdown
    /// (setup/sim/aggregate microseconds). Nondeterministic like
    /// `wall_clock_us`; omitted when `None` and cleared by
    /// [`RunManifest::deterministic`].
    pub timing_json: Option<String>,
    /// Pre-rendered JSON of per-tier queue statistics (uplink / spine /
    /// downlink watermarks, drops, marks) for multi-tier fabrics. `None`
    /// for single-rack topologies. Deterministic for a fixed seed, so it
    /// survives [`RunManifest::deterministic`].
    pub tiers_json: Option<String>,
    /// Pre-rendered JSON describing the run's in-fabric incast control
    /// plane (mitigation kind, monitored ports, notification lifecycle
    /// tallies). `None` when no control plane was installed. Deterministic
    /// for a fixed seed, so it survives [`RunManifest::deterministic`].
    pub control_json: Option<String>,
}

impl RunManifest {
    /// A manifest with the identifying fields set and the rest default.
    pub fn new(name: &str, seed: u64, topology: &str) -> Self {
        RunManifest {
            name: name.to_string(),
            seed,
            topology: topology.to_string(),
            config_json: "{}".to_string(),
            git_describe: "unknown".to_string(),
            counters_json: "{}".to_string(),
            scheduler: "unknown".to_string(),
            ..Default::default()
        }
    }

    /// Fills `git_describe` from the working tree (best effort).
    pub fn with_git_describe(mut self) -> Self {
        self.git_describe = git_describe().to_string();
        self
    }

    /// Renders the manifest as one JSON object. Field order is fixed;
    /// `wall_clock_us` is omitted when `None`.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut o = Obj::new(&mut out);
        o.str("name", &self.name)
            .u64("seed", self.seed)
            .str("topology", &self.topology)
            .raw(
                "config",
                if self.config_json.is_empty() {
                    "{}"
                } else {
                    &self.config_json
                },
            )
            .str("git_describe", &self.git_describe)
            .u64("event_count", self.event_count)
            .u64("events_processed", self.events_processed)
            .u64("sim_time_ps", self.sim_time_ps)
            .raw(
                "counters",
                if self.counters_json.is_empty() {
                    "{}"
                } else {
                    &self.counters_json
                },
            )
            .str("scheduler", &self.scheduler);
        if let Some(t) = &self.tiers_json {
            o.raw("tiers", t);
        }
        if let Some(c) = &self.control_json {
            o.raw("control", c);
        }
        if let Some(v) = self.invariant_violations {
            o.u64("invariant_violations", v);
        }
        if let Some(f) = self.faults_injected {
            o.u64("faults_injected", f);
        }
        if let Some(cause) = &self.truncated {
            o.str("truncated", cause);
        }
        if let Some(us) = self.wall_clock_us {
            o.u64("wall_clock_us", us);
        }
        if let Some(eps) = self.events_per_sec {
            o.u64("events_per_sec", eps);
        }
        if let Some(cache) = &self.cache_json {
            o.raw("cache", cache);
        }
        if let Some(cov) = &self.coverage_json {
            o.raw("coverage", cov);
        }
        if let Some(t) = &self.timing_json {
            o.raw("timing", t);
        }
        o.finish();
        out
    }

    /// This manifest with the wall-clock-derived fields cleared — the form
    /// to use when comparing manifests across runs for determinism.
    pub fn deterministic(&self) -> RunManifest {
        let mut m = self.clone();
        m.wall_clock_us = None;
        m.events_per_sec = None;
        m.cache_json = None;
        m.coverage_json = None;
        m.timing_json = None;
        m
    }
}

/// `git describe --always --dirty` of the current working tree, or
/// `"unknown"` when git is unavailable (e.g. outside a checkout).
///
/// Asked once per process: every run, sweep and contention manifest
/// stamps it, and the answer costs a child process (dearer the larger the
/// parent's heap) while the build it names cannot change under a running
/// binary.
pub fn git_describe() -> &'static str {
    static DESCRIBED: OnceLock<String> = OnceLock::new();
    DESCRIBED.get_or_init(run_git_describe)
}

fn run_git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manifest_renders_fixed_field_order() {
        let mut m = RunManifest::new("paper_default", 42, "dumbbell:senders=4");
        m.config_json = r#"{"mss":1500}"#.to_string();
        m.event_count = 10;
        m.events_processed = 99;
        m.sim_time_ps = 1_000_000;
        m.counters_json = r#"{"drops":2}"#.to_string();
        m.scheduler = "wheel".to_string();
        let j = m.to_json();
        assert_eq!(
            j,
            r#"{"name":"paper_default","seed":42,"topology":"dumbbell:senders=4","config":{"mss":1500},"git_describe":"unknown","event_count":10,"events_processed":99,"sim_time_ps":1000000,"counters":{"drops":2},"scheduler":"wheel"}"#
        );
    }

    #[test]
    fn wall_clock_is_omitted_when_none_and_present_when_set() {
        let mut m = RunManifest::new("x", 1, "t");
        assert!(!m.to_json().contains("wall_clock_us"));
        assert!(!m.to_json().contains("events_per_sec"));
        m.wall_clock_us = Some(1234);
        m.events_per_sec = Some(5_000_000);
        assert!(m.to_json().contains(r#""wall_clock_us":1234"#));
        assert!(m.to_json().contains(r#""events_per_sec":5000000"#));
        let det = m.deterministic().to_json();
        assert!(!det.contains("wall_clock_us"));
        assert!(!det.contains("events_per_sec"));
    }

    #[test]
    fn cache_json_is_omitted_when_none_and_raw_when_set() {
        let mut m = RunManifest::new("x", 1, "t");
        assert!(!m.to_json().contains("cache"));
        m.cache_json = Some(r#"{"hits":3,"misses":1}"#.to_string());
        assert!(m.to_json().ends_with(r#""cache":{"hits":3,"misses":1}}"#));
        assert!(!m.deterministic().to_json().contains("cache"));
    }

    #[test]
    fn invariant_violations_render_and_survive_deterministic() {
        let mut m = RunManifest::new("x", 1, "t");
        assert!(!m.to_json().contains("invariant_violations"));
        m.invariant_violations = Some(0);
        assert!(m.to_json().contains(r#""invariant_violations":0"#));
        // Deterministic for a fixed seed, so the determinism view keeps it.
        assert_eq!(m.deterministic().invariant_violations, Some(0));
        assert!(m
            .deterministic()
            .to_json()
            .contains(r#""invariant_violations":0"#));
    }

    #[test]
    fn faults_and_truncation_render_and_survive_deterministic() {
        let mut m = RunManifest::new("x", 1, "t");
        assert!(!m.to_json().contains("faults_injected"));
        assert!(!m.to_json().contains("truncated"));
        m.faults_injected = Some(6);
        m.truncated = Some("events".to_string());
        assert!(m.to_json().contains(r#""faults_injected":6"#));
        assert!(m.to_json().contains(r#""truncated":"events""#));
        // Both are functions of the run's inputs, so the determinism view
        // keeps them.
        let det = m.deterministic();
        assert_eq!(det.faults_injected, Some(6));
        assert_eq!(det.truncated.as_deref(), Some("events"));
    }

    #[test]
    fn coverage_json_is_omitted_when_none_and_cleared_by_deterministic() {
        let mut m = RunManifest::new("x", 1, "t");
        assert!(!m.to_json().contains("coverage"));
        m.coverage_json = Some(r#"{"total":4,"ran":3,"failed":1}"#.to_string());
        assert!(m
            .to_json()
            .ends_with(r#""coverage":{"total":4,"ran":3,"failed":1}}"#));
        assert!(!m.deterministic().to_json().contains("coverage"));
    }

    #[test]
    fn timing_is_omitted_when_none_and_cleared_by_deterministic() {
        let mut m = RunManifest::new("x", 1, "t");
        assert!(!m.to_json().contains("timing"));
        m.timing_json = Some(r#"{"setup_us":10,"sim_us":90,"aggregate_us":5}"#.to_string());
        let j = m.to_json();
        assert!(j.ends_with(r#""timing":{"setup_us":10,"sim_us":90,"aggregate_us":5}}"#));
        assert!(!m.deterministic().to_json().contains("timing"));
    }

    #[test]
    fn tiers_json_renders_and_survives_deterministic() {
        let mut m = RunManifest::new("x", 1, "clos:racks=2");
        assert!(!m.to_json().contains("tiers"));
        m.tiers_json = Some(r#"{"uplink":{"watermark_pkts":9}}"#.to_string());
        assert!(m
            .to_json()
            .contains(r#""tiers":{"uplink":{"watermark_pkts":9}}"#));
        // A function of the run's inputs, so the determinism view keeps it.
        assert!(m.deterministic().to_json().contains(r#""tiers":"#));
    }

    #[test]
    fn control_json_renders_and_survives_deterministic() {
        let mut m = RunManifest::new("x", 1, "t");
        assert!(!m.to_json().contains("control"));
        m.control_json = Some(r#"{"mitigation":"pulser","ports":1}"#.to_string());
        assert!(m
            .to_json()
            .contains(r#""control":{"mitigation":"pulser","ports":1}"#));
        // A function of the run's inputs, so the determinism view keeps it.
        assert!(m.deterministic().to_json().contains(r#""control":"#));
    }

    #[test]
    fn empty_config_falls_back_to_empty_object() {
        let mut m = RunManifest::new("x", 1, "t");
        m.config_json = String::new();
        m.counters_json = String::new();
        let j = m.to_json();
        assert!(j.contains(r#""config":{}"#));
        assert!(j.contains(r#""counters":{}"#));
    }

    #[test]
    fn git_describe_never_panics() {
        let d = git_describe();
        assert!(!d.is_empty());
    }

    #[test]
    fn git_describe_is_asked_once_per_process() {
        let (a, b) = (git_describe(), git_describe());
        assert_eq!(a, b);
        assert!(
            std::ptr::eq(a, b),
            "second call must reuse the first answer"
        );
    }

    #[test]
    fn deterministic_manifests_compare_equal() {
        let mut a = RunManifest::new("x", 7, "t");
        let mut b = RunManifest::new("x", 7, "t");
        a.wall_clock_us = Some(1);
        b.wall_clock_us = Some(999);
        assert_ne!(a, b);
        assert_eq!(a.deterministic(), b.deterministic());
        assert_eq!(a.deterministic().to_json(), b.deterministic().to_json());
    }
}
