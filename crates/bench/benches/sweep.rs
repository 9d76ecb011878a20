//! The sweep driver: runs sweep files (`sweeps/*.json`, see
//! `incast_core::sweep::Sweep`) and prints each as a banner, its plots, a
//! table of one column per axis plus the file's named columns
//! ([`bench::render`]), a footer (the merged `perf:` profile, the sweep's
//! wall-clock, the cache's counts and the aggregate's `digest:`) and its
//! reading lines. Figures 5–7, the Section-4 ablations and the Section-5
//! mitigations are sweep files.
//!
//! ```sh
//! cargo bench -p bench --bench sweep                              # every file, in name order
//! cargo bench -p bench --bench sweep -- sweeps/fig5.json          # one file
//! cargo bench -p bench --bench sweep -- sweeps/fig5.json --set tcp.transport=quic
//! ```
//!
//! `--set path=value` edits apply to every run after the file's base
//! edits. An edit the file's `full` or axis edits would overwrite exits 2
//! ([`bench::add_sets`]). Runs go through `run_incast_sweep`, in parallel
//! and through the run cache. A file, edit, column or plot that does not
//! check out exits 2 before anything runs.

use bench::{banner, exit2};
use incast_core::modes::ModesConfig;
use incast_core::runner::profile_footer;
use incast_core::sweep::{run_incast_sweep, IncastSweepAggregate, Sweep};
use incast_core::{default_threads, full_scale, RunCache};

fn main() {
    let (mut files, sets) = bench::args();
    if files.is_empty() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/sweeps");
        let entries = std::fs::read_dir(dir).unwrap_or_else(|e| exit2(&format!("{dir}: {e}")));
        files = entries
            .flatten()
            .map(|e| e.path().display().to_string())
            .filter(|p| p.ends_with(".json"))
            .collect();
        files.sort();
    }
    let plans: Vec<_> = files.iter().map(|file| load(file, &sets)).collect();
    let (cache, threads) = (RunCache::global(), default_threads());
    for (sweep, cells, cfgs) in plans {
        banner(&sweep.title, &sweep.what, &sweep.paper);
        let t0 = std::time::Instant::now();
        let runs = run_incast_sweep(&cfgs, threads, cache);
        let wall = t0.elapsed();
        print!("{}", bench::render(&sweep, &cells, &runs));
        println!("{}", profile_footer(runs.iter().map(|r| &r.profile)));
        let agg = IncastSweepAggregate::from_runs(runs.iter().map(|r| &**r));
        println!(
            "sweep: {} runs in {wall:.2?} on {threads} threads",
            agg.runs
        );
        println!("{}", cache.stats().summary());
        println!("digest: {}", agg.digest());
        if !sweep.reading.is_empty() {
            println!();
        }
        for line in &sweep.reading {
            println!("{line}");
        }
    }
}

/// Reads, edits, expands and checks one file; anything wrong exits 2,
/// naming the file.
fn load(file: &str, sets: &[String]) -> (Sweep, Vec<Vec<String>>, Vec<ModesConfig>) {
    let fail = |msg: String| -> ! { exit2(&format!("{file}: {msg}")) };
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| fail(e.to_string()));
    let mut sweep = Sweep::read(&text).unwrap_or_else(|e| fail(e.to_string()));
    bench::add_sets(&mut sweep, sets).unwrap_or_else(|e| fail(e));
    let runs = sweep.expand(full_scale());
    let runs = runs.unwrap_or_else(|e| fail(e.to_string()));
    let (cells, cfgs): (Vec<_>, _) = runs.into_iter().unzip();
    bench::check(&sweep, &cells).unwrap_or_else(|e| fail(e));
    (sweep, cells, cfgs)
}
