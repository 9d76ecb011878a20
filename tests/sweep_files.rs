//! The checked-in sweep files (`crates/bench/sweeps/*.json`, run by
//! `cargo bench -p bench --bench sweep`): each reads, every edit applies,
//! every run validates, every column is registered; and the mitigation
//! lineup's behaviour at a small scale.

use incast_bursts::core_api::modes::{run_incast, ModesConfig};
use incast_bursts::core_api::sweep::{apply_edits, Sweep};
use incast_bursts::simnet::SimTime;

const DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/bench/sweeps");

fn sweep(name: &str) -> Sweep {
    let path = format!("{DIR}/{name}");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    Sweep::read(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

#[test]
fn every_sweep_file_reads_applies_validates_and_names_registered_columns() {
    let mut names: Vec<String> = std::fs::read_dir(DIR)
        .expect("sweeps dir")
        .flatten()
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".json"))
        .collect();
    names.sort();
    assert!(names.len() >= 9, "{names:?}");
    for name in &names {
        let sweep = sweep(name);
        for column in &sweep.columns {
            assert!(bench::column(column).is_some(), "{name}: column `{column}`");
        }
        let product: usize = sweep.axes.iter().map(|a| a.levels.len()).product();
        for full in [false, true] {
            let runs = sweep.expand(full).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(runs.len(), product, "{name}");
            for (i, (labels, cfg)) in runs.iter().enumerate() {
                assert_eq!(labels.len(), sweep.axes.len(), "{name}");
                assert_eq!(cfg.validate(), Ok(()), "{name}: {labels:?}");
                let twin = runs[..i].iter().find(|r| r.1 == *cfg).map(|r| &r.0);
                assert!(twin.is_none(), "{name}: {labels:?} runs {twin:?}'s config");
            }
        }
    }
}

/// The mitigation lineup on a 60-flow, 3 ms, 4-burst incast: label and
/// config of each run.
fn small_lineup() -> Vec<(String, ModesConfig)> {
    let mut lineup = sweep("mitigations.json");
    let small = [
        "num_flows=60",
        "burst_duration_ms=3",
        "num_bursts=4",
        "seed=9",
    ];
    lineup.base.extend(small.map(String::from));
    let runs = lineup.expand(false).expect("the lineup expands");
    runs.into_iter().map(|(l, cfg)| (l.concat(), cfg)).collect()
}

#[test]
fn all_mitigations_complete_the_workload() {
    for (label, cfg) in small_lineup() {
        let r = run_incast(&cfg);
        assert!(r.mean_bct_ms > 0.0, "{label}: no bursts");
    }
}

#[test]
fn guardrail_reduces_start_spike_vs_baseline() {
    let lineup = small_lineup();
    let spike = |label: &str, edits: &[&str]| {
        let mut cfg = lineup.iter().find(|r| r.0 == label).expect(label).1.clone();
        apply_edits(&mut cfg, edits).expect("edits apply");
        run_incast(&cfg).start_spike(SimTime::from_us(500))
    };
    let baseline = spike("dctcp (baseline)", &[]);
    let rail = spike("guardrail (4 segs)", &["tcp.cca.max_cwnd_segs=2"]);
    assert!(rail <= baseline, "guardrail {rail} vs baseline {baseline}");
}
