//! The sweep engine: run cache + parallel map + streaming aggregation.
//!
//! A *sweep* is many independent simulations whose results feed one
//! aggregate (a figure, a table row, a regression digest). This module is
//! the one place that wires the three pieces together:
//!
//! - memoization through the content-addressed [`RunCache`]: the calling
//!   thread serves every config the cache holds in memory,
//! - disk entries and execution of the rest on scoped threads
//!   ([`crate::runner::par_map`]),
//! - streaming reduction into fixed-memory summaries
//!   ([`IncastSweepAggregate`]), so reducers never retain every run.
//!
//! Determinism contract: for fixed configs, the aggregate's [`digest`]
//! (and any manifest rendered through [`sweep_manifest`], after
//! [`telemetry::RunManifest::deterministic`]) is byte-identical across
//! thread counts and cache states. The sweep differential test
//! (`tests/sweep_equivalence.rs`) enforces this.
//!
//! A [`Sweep`] is the data that says which configs to run and what to
//! print of them: edits by path to the default config, labelled axes of
//! further edits whose cartesian product is the runs, [`Plot`]s and table
//! columns (the Section-4 figures, ablations and mitigations are
//! `crates/bench/sweeps/*.json`).
//!
//! [`digest`]: IncastSweepAggregate::digest

use std::sync::Arc;

use crate::cache::RunCache;
use crate::modes::{run_incast, IncastRunResult, ModesConfig};
use crate::runner::par_map;
use stats::{ConfigError, Histogram, QuantileSketch, Summary};
use telemetry::json::write_f64;
use telemetry::{LoopProfile, RunManifest};

/// Runs one incast configuration through the cache: a hit returns the
/// memoized result, a miss computes via [`run_incast`] and stores it.
pub fn run_incast_cached(cfg: &ModesConfig, cache: &RunCache) -> Arc<IncastRunResult> {
    cache.get_or_compute_incast(cfg, || run_incast(cfg))
}

/// Runs a whole sweep, one cached run per config; results come back in
/// config order regardless of thread count or cache state.
///
/// A hit in the cache's memory layer costs a fingerprint of the config, a
/// map lookup and an `==` — no key rendered, nothing allocated, far less
/// than handing it to another thread — so the caller probes that layer
/// itself and only the configs it does not hold go through [`par_map`]; a
/// sweep the memory layer can serve starts no thread. Disk entries (a file
/// read and a decode, milliseconds each) and simulations both happen there,
/// in parallel, each rendering its canonical key once. A panicking run's
/// label carries its index in `cfgs` in front of its key, whatever the
/// cache held.
pub fn run_incast_sweep(
    cfgs: &[ModesConfig],
    threads: usize,
    cache: &RunCache,
) -> Vec<Arc<IncastRunResult>> {
    let mut runs: Vec<Option<Arc<IncastRunResult>>> = cfgs
        .iter()
        .map(|cfg| cache.get_resident_incast(cfg))
        .collect();
    let missing: Vec<(usize, &ModesConfig)> = cfgs
        .iter()
        .enumerate()
        .filter(|&(i, _)| runs[i].is_none())
        .collect();
    // Re-entering the cache counts each of these as one disk hit or miss.
    let computed = par_map(missing, threads, |&(i, cfg)| {
        (i, run_incast_cached(cfg, cache))
    });
    for (i, run) in computed {
        runs[i] = Some(run);
    }
    runs.into_iter()
        .map(|run| run.expect("every config was held or computed"))
        .collect()
}

/// A sweep as data, read by [`stats::leaves::read`]: a report's banner
/// (`title`, `what`, `paper`), the edits every run gets, the axes whose
/// product is the runs, the plots, the table's named columns, and the
/// lines printed under it. Every edit is `path=value`
/// ([`stats::leaves::edit`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Sweep {
    /// Report id, e.g. `Ablation A3`.
    pub title: String,
    /// What the sweep varies.
    pub what: String,
    /// What the paper claims about it.
    pub paper: String,
    /// Edits applied to the default config for every run.
    pub base: Vec<String>,
    /// Edits applied after `base` at paper scale (`INCAST_FULL=1`).
    pub full: Vec<String>,
    /// The axes, outermost first.
    pub axes: Vec<Axis>,
    /// Plots printed above the table.
    pub plots: Vec<Plot>,
    /// Named result columns, after one column per axis.
    pub columns: Vec<String>,
    /// Lines printed under the table.
    pub reading: Vec<String>,
}

stats::leaves!(Sweep: title, what, paper, base, full, axes, plots, columns, reading);

/// One swept dimension: its column header and its levels.
#[derive(Debug, Clone, PartialEq)]
pub struct Axis {
    /// Column header.
    pub name: String,
    /// The levels, in table order.
    pub levels: Vec<Level>,
}

stats::leaves!(Axis: name, levels);

/// One value of an [`Axis`]: its cell text and the edits that make it.
#[derive(Debug, Clone, PartialEq)]
pub struct Level {
    /// Cell text.
    pub label: String,
    /// Edits applied after the base's.
    pub set: Vec<String>,
}

stats::leaves!(Level: label, set);

/// One plot of a [`Sweep`]: a named series (`bench::SERIES`) over a window
/// around each plotted run's first steady burst, in ms from its start. A
/// cell's label is its level labels joined by `, `.
#[derive(Debug, Clone, PartialEq)]
pub struct Plot {
    /// The plotted quantity.
    pub series: String,
    /// How long before the burst's start the window opens, in ms.
    pub before_ms: f64,
    /// How long after the burst's end it closes, in ms.
    pub after_ms: f64,
    /// One plot per plotted cell, or one for them all.
    pub per: PlotPer,
    /// The plotted cells, by label; empty for every cell.
    pub cells: Vec<String>,
    /// The title; in a per-cell plot `{label}` is the cell's label.
    pub title: String,
    /// Each line's legend name: `{label}` is its cell's label, `{line}`
    /// the series' name for the line.
    pub name: String,
    /// Rows of the plot area (its width is 110 columns).
    pub height: usize,
}

stats::leaves!(Plot: series, before_ms, after_ms, per, cells, title, name, height);

/// Whether a [`Plot`] draws each plotted cell on its own or all together.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlotPer {
    /// One plot per cell.
    Cell,
    /// One plot for the file.
    File,
}

stats::variants!(PlotPer { Cell => "cell", File => "file" });

impl Sweep {
    /// Reads a sweep file's text; trailing whitespace is ignored.
    pub fn read(text: &str) -> Result<Sweep, ConfigError> {
        stats::leaves::read(text.trim_end())
    }

    /// Every run, outer axis first: its level labels and its validated
    /// config — the default with the base edits, then (`full`) the full
    /// edits, then one level's edits per axis.
    pub fn expand(&self, full: bool) -> Result<Vec<(Vec<String>, ModesConfig)>, ConfigError> {
        let mut base = ModesConfig::default();
        let full = if full { &self.full[..] } else { &[] };
        apply_edits(&mut base, self.base.iter().chain(full))?;
        let mut runs = vec![(Vec::new(), base)];
        for axis in &self.axes {
            let mut next = Vec::with_capacity(runs.len() * axis.levels.len());
            for (labels, cfg) in &runs {
                for level in &axis.levels {
                    let mut cfg = cfg.clone();
                    apply_edits(&mut cfg, &level.set)?;
                    let mut labels = labels.clone();
                    labels.push(level.label.clone());
                    next.push((labels, cfg));
                }
            }
            runs = next;
        }
        for (_, cfg) in &runs {
            cfg.validate()?;
        }
        Ok(runs)
    }
}

/// Applies `path=value` edits to `cfg` in order, stopping at the first
/// that fails.
pub fn apply_edits(
    cfg: &mut ModesConfig,
    edits: impl IntoIterator<Item = impl AsRef<str>>,
) -> Result<(), ConfigError> {
    edits
        .into_iter()
        .try_for_each(|e| stats::leaves::edit(cfg, e.as_ref()))
}

/// Streaming, mergeable reduction of an incast sweep: fixed memory
/// regardless of sweep size (the per-run vectors are dropped after
/// [`absorb`](Self::absorb)), deterministic in absorb order.
#[derive(Debug, Clone)]
pub struct IncastSweepAggregate {
    /// Runs absorbed.
    pub runs: usize,
    /// Per-run mean BCT (ms): exact moments across the sweep.
    pub bct: Summary,
    /// Per-burst steady-state BCTs (ms), pooled across runs, in a
    /// fixed-memory mergeable sketch (~3 % relative quantile error).
    pub bct_sketch: QuantileSketch,
    /// Per-burst steady-state BCTs (ms) in a fixed-shape histogram
    /// (0–1000 ms, 200 buckets), mergeable bucket-wise.
    pub bct_hist: Histogram,
    /// Total drops across runs.
    pub drops: u64,
    /// Total RTO expirations across runs.
    pub timeouts: u64,
    /// Total ECN-marked packets across runs.
    pub marked_pkts: u64,
    /// Merged event-loop profile (wall-clock sums; excluded from
    /// [`digest`](Self::digest)).
    pub profile: LoopProfile,
}

impl Default for IncastSweepAggregate {
    fn default() -> Self {
        Self::new()
    }
}

impl IncastSweepAggregate {
    /// An empty aggregate.
    pub fn new() -> Self {
        IncastSweepAggregate {
            runs: 0,
            bct: Summary::new(),
            bct_sketch: QuantileSketch::new(),
            bct_hist: Histogram::new(0.0, 1000.0, 200),
            drops: 0,
            timeouts: 0,
            marked_pkts: 0,
            profile: LoopProfile::new(),
        }
    }

    /// Folds one run into the aggregate. All stats are additive, so
    /// absorbing runs one by one equals absorbing them all at once.
    pub fn absorb(&mut self, r: &IncastRunResult) {
        self.runs += 1;
        self.bct.add(r.mean_bct_ms);
        for &bct in r.bcts_ms.iter().skip(r.warmup_bursts as usize) {
            self.bct_sketch.add(bct);
            self.bct_hist.add(bct);
        }
        self.drops += r.drops;
        self.timeouts += r.timeouts;
        self.marked_pkts += r.marked_pkts;
        self.profile.merge(&r.profile);
    }

    /// Merges another aggregate into this one (for tree reductions).
    pub fn merge(&mut self, other: &IncastSweepAggregate) {
        self.runs += other.runs;
        self.bct.merge(&other.bct);
        self.bct_sketch.merge(&other.bct_sketch);
        self.bct_hist.merge(&other.bct_hist);
        self.drops += other.drops;
        self.timeouts += other.timeouts;
        self.marked_pkts += other.marked_pkts;
        self.profile.merge(&other.profile);
    }

    /// Convenience: absorbs every run of a finished sweep.
    pub fn from_runs<'a>(runs: impl IntoIterator<Item = &'a IncastRunResult>) -> Self {
        let mut agg = Self::new();
        for r in runs {
            agg.absorb(r);
        }
        agg
    }

    /// A deterministic one-line fingerprint of the aggregate: every field
    /// except wall-clock, with floats in shortest-round-trip form. Two
    /// sweeps over the same configs produce byte-identical digests
    /// regardless of thread count or cache state — this string is what
    /// the sweep differential test compares.
    pub fn digest(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("runs={};", self.runs));
        let has_runs = self.runs > 0;
        push_kv(&mut out, "bct_mean", has_runs.then(|| self.bct.mean()));
        push_kv(&mut out, "bct_min", has_runs.then(|| self.bct.min()));
        push_kv(&mut out, "bct_max", has_runs.then(|| self.bct.max()));
        push_kv(&mut out, "burst_p50", self.bct_sketch.try_quantile(50.0));
        push_kv(&mut out, "burst_p99", self.bct_sketch.try_quantile(99.0));
        push_kv(&mut out, "hist_p50", self.bct_hist.try_percentile(50.0));
        push_kv(&mut out, "hist_p99", self.bct_hist.try_percentile(99.0));
        out.push_str(&format!(
            "bursts={};drops={};timeouts={};marked={};events={}",
            self.bct_sketch.count(),
            self.drops,
            self.timeouts,
            self.marked_pkts,
            self.profile.events(),
        ));
        out
    }
}

/// `key=<shortest-round-trip float>;` or `key=none;` — `None` is how an
/// empty histogram/sketch prints (the `try_percentile` call sites the
/// empty-histogram panic fix exists for).
fn push_kv(out: &mut String, key: &str, v: Option<f64>) {
    out.push_str(key);
    out.push('=');
    match v {
        Some(v) => write_f64(v, out),
        None => out.push_str("none"),
    }
    out.push(';');
}

/// A manifest describing one sweep: topology field summarizes the sweep
/// shape, cache statistics ride along in `cache_json` (cleared by
/// [`RunManifest::deterministic`], since hit counts depend on cache
/// state, not inputs).
pub fn sweep_manifest(
    name: &str,
    seed: u64,
    agg: &IncastSweepAggregate,
    threads: usize,
    cache: &RunCache,
) -> RunManifest {
    let mut m = RunManifest::new(
        name,
        seed,
        &format!("sweep:runs={},threads={threads}", agg.runs),
    )
    .with_git_describe();
    m.events_processed = agg.profile.events();
    m.counters_json = {
        let mut out = String::new();
        let mut o = telemetry::json::Obj::new(&mut out);
        o.u64("drops", agg.drops)
            .u64("timeouts", agg.timeouts)
            .u64("marked_pkts", agg.marked_pkts);
        o.finish();
        out
    };
    let wall = agg.profile.wall;
    if !wall.is_zero() {
        m.wall_clock_us = Some(wall.as_micros() as u64);
        m.events_per_sec = Some(agg.profile.events_per_sec() as u64);
    }
    m.cache_json = Some(cache.stats().to_json());
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::ModesConfig;

    fn tiny_cfg(seed: u64) -> ModesConfig {
        ModesConfig {
            num_flows: 8,
            num_bursts: 2,
            warmup_bursts: 1,
            seed,
            ..ModesConfig::default()
        }
    }

    fn tiny_sweep(n: u64) -> Vec<ModesConfig> {
        (0..n).map(tiny_cfg).collect()
    }

    #[test]
    fn cached_run_hits_on_second_call() {
        let cache = RunCache::in_memory();
        let cfg = tiny_cfg(1);
        let a = run_incast_cached(&cfg, &cache);
        let b = run_incast_cached(&cfg, &cache);
        assert_eq!(cache.stats().misses, 1);
        assert_eq!(cache.stats().mem_hits, 1);
        assert!(Arc::ptr_eq(&a, &b));
    }

    #[test]
    fn sweep_results_are_in_config_order() {
        let cache = RunCache::in_memory();
        let cfgs = tiny_sweep(4);
        let runs = run_incast_sweep(&cfgs, 4, &cache);
        assert_eq!(runs.len(), cfgs.len());
        // Seeds differ, so the runs must differ pairwise; order is checked
        // against a serial pass.
        let serial = run_incast_sweep(&cfgs, 1, &cache);
        for (a, b) in runs.iter().zip(&serial) {
            assert!(Arc::ptr_eq(a, b), "cache must dedupe identical configs");
        }
    }

    #[test]
    fn digest_is_identical_across_threads_and_cache_state() {
        let cfgs = tiny_sweep(3);
        let digests: Vec<String> = [1usize, 4]
            .iter()
            .flat_map(|&threads| {
                // Fresh cache (cold) and reused cache (warm).
                let cache = RunCache::in_memory();
                let cold = IncastSweepAggregate::from_runs(
                    run_incast_sweep(&cfgs, threads, &cache)
                        .iter()
                        .map(|r| &**r),
                );
                let warm = IncastSweepAggregate::from_runs(
                    run_incast_sweep(&cfgs, threads, &cache)
                        .iter()
                        .map(|r| &**r),
                );
                [cold.digest(), warm.digest()]
            })
            .collect();
        for d in &digests[1..] {
            assert_eq!(d, &digests[0]);
        }
    }

    #[test]
    fn empty_aggregate_digest_prints_none_not_panics() {
        let agg = IncastSweepAggregate::new();
        let d = agg.digest();
        assert!(d.contains("bct_mean=none;"));
        assert!(d.contains("hist_p50=none;"));
        assert!(d.contains("runs=0;"));
    }

    #[test]
    fn merge_equals_sequential_absorb() {
        let cache = RunCache::in_memory();
        let cfgs = tiny_sweep(4);
        let runs = run_incast_sweep(&cfgs, 2, &cache);
        let whole = IncastSweepAggregate::from_runs(runs.iter().map(|r| &**r));
        let mut left = IncastSweepAggregate::from_runs(runs[..2].iter().map(|r| &**r));
        let right = IncastSweepAggregate::from_runs(runs[2..].iter().map(|r| &**r));
        left.merge(&right);
        assert_eq!(left.digest(), whole.digest());
    }

    #[test]
    fn edits_reach_variant_fields_and_bare_labels() {
        let mut cfg = ModesConfig::default();
        let edits = [
            "tcp.cca.g=0.25",
            "tcp.transport=quic",
            "grouping={\"group_size\":5,\"group_gap\":7}",
        ];
        apply_edits(&mut cfg, edits).expect("edits apply");
        assert_eq!(cfg.tcp.cca, transport::CcaKind::Dctcp { g: 0.25 });
        assert_eq!(cfg.tcp.transport, transport::TransportKind::Quic);
        assert_eq!(cfg.grouping.map(|g| g.group_size), Some(5));
        let err = apply_edits(&mut cfg, ["tcp.transport=quick"]).unwrap_err();
        assert_eq!(err.path, "tcp.transport");
        assert!(err.reason.ends_with("expected tcp|quic"), "{err}");
    }

    #[test]
    fn a_sweep_expands_to_the_product_of_its_axes_outer_first() {
        let level = |label: &str, set: &[&str]| Level {
            label: label.to_string(),
            set: set.iter().map(|e| e.to_string()).collect(),
        };
        let sweep = Sweep {
            title: "t".into(),
            what: "w".into(),
            paper: "p".into(),
            base: vec!["num_flows=7".into()],
            full: vec!["num_bursts=3".into()],
            axes: vec![
                Axis {
                    name: "seed".into(),
                    levels: vec![level("a", &["seed=1"]), level("b", &["seed=2"])],
                },
                Axis {
                    name: "k".into(),
                    levels: (1..4)
                        .map(|k| level("", &[&format!("tor_queue.ecn_threshold_pkts={k}")]))
                        .collect(),
                },
            ],
            plots: vec![Plot {
                series: "queue pkts".into(),
                before_ms: 0.3,
                after_ms: 1.0,
                per: PlotPer::File,
                cells: vec!["a, ".into()],
                title: "t".into(),
                name: "{label} {line}".into(),
                height: 16,
            }],
            columns: vec!["mode".into()],
            reading: vec![],
        };
        let text = stats::leaves::write(&sweep);
        assert_eq!(Sweep::read(&format!("{text}\n")), Ok(sweep.clone()));
        let runs = sweep.expand(false).expect("expands");
        assert_eq!(runs.len(), 6);
        assert_eq!(runs[0].0, ["a", ""]);
        assert_eq!(runs[3].0, ["b", ""]);
        let pick = |i: usize| (runs[i].1.seed, runs[i].1.tor_queue.ecn_threshold_pkts);
        assert_eq!(
            [pick(0), pick(2), pick(5)],
            [(1, Some(1)), (1, Some(3)), (2, Some(3))]
        );
        assert!(runs
            .iter()
            .all(|r| r.1.num_flows == 7 && r.1.num_bursts == 11));
        assert_eq!(sweep.expand(true).expect("full")[0].1.num_bursts, 3);
        let mut bad = sweep;
        bad.base.push("num_flows=0".into());
        assert_eq!(
            bad.expand(false).unwrap_err().path,
            "num_flows",
            "validated"
        );
    }

    #[test]
    fn sweep_manifest_carries_cache_stats_and_stays_deterministic() {
        let cache = RunCache::in_memory();
        let cfgs = tiny_sweep(2);
        let runs = run_incast_sweep(&cfgs, 2, &cache);
        let agg = IncastSweepAggregate::from_runs(runs.iter().map(|r| &**r));
        let m = sweep_manifest("sweep_test", 0, &agg, 2, &cache);
        assert!(m.to_json().contains(r#""cache":{"hits":"#));
        let det = m.deterministic();
        assert!(!det.to_json().contains("cache"));
        assert!(det
            .to_json()
            .contains(r#""topology":"sweep:runs=2,threads=2""#));
    }
}
