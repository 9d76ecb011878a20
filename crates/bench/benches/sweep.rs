//! The sweep driver: runs sweep files (`sweeps/*.json`, see
//! `incast_core::sweep::Sweep`) and prints each as a banner, a table of one
//! column per axis plus the file's named columns (`bench::COLUMNS`), and
//! its reading lines. The Section-4 ablations and the Section-5
//! mitigations are sweep files.
//!
//! ```sh
//! cargo bench -p bench --bench sweep                              # every file, in name order
//! cargo bench -p bench --bench sweep -- sweeps/ablation_ecn.json  # one file
//! cargo bench -p bench --bench sweep -- sweeps/ablation_ecn.json --set tcp.transport=quic
//! ```
//!
//! `--set path=value` edits apply to every run after the file's base
//! edits, before its `full` and axis edits. Runs go through
//! `run_incast_sweep`, in parallel and through the run cache. A file, edit
//! or column that does not check out exits 2 before anything runs.

use bench::{banner, exit2, Column};
use incast_core::modes::ModesConfig;
use incast_core::report::Table;
use incast_core::sweep::{run_incast_sweep, Sweep};
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
    for (sweep, columns, runs) in plans {
        banner(&sweep.title, &sweep.what, &sweep.paper);
        let cfgs: Vec<ModesConfig> = runs.iter().map(|r| r.1.clone()).collect();
        let results = run_incast_sweep(&cfgs, default_threads(), RunCache::global());
        let axes = sweep.axes.iter().map(|a| a.name.as_str());
        let mut t = Table::new(axes.chain(sweep.columns.iter().map(String::as_str)));
        for ((labels, _), r) in runs.iter().zip(&results) {
            t.row(labels.iter().cloned().chain(columns.iter().map(|c| c(r))));
        }
        println!("{}", t.render());
        if !sweep.reading.is_empty() {
            println!();
        }
        for line in &sweep.reading {
            println!("{line}");
        }
    }
}

type Runs = Vec<(Vec<String>, ModesConfig)>;

/// Reads, edits and expands one file, and resolves its columns; anything
/// wrong exits 2, naming the file.
fn load(file: &str, sets: &[String]) -> (Sweep, Vec<Column>, Runs) {
    let fail = |msg: String| -> ! { exit2(&format!("{file}: {msg}")) };
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| fail(e.to_string()));
    let mut sweep = Sweep::read(&text).unwrap_or_else(|e| fail(e.to_string()));
    sweep.base.extend_from_slice(sets);
    let runs = sweep
        .expand(full_scale())
        .unwrap_or_else(|e| fail(e.to_string()));
    let columns = sweep
        .columns
        .iter()
        .map(|name| bench::column(name).unwrap_or_else(|| fail(format!("no column `{name}`"))))
        .collect();
    (sweep, columns, runs)
}
