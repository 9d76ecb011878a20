//! The checked-in sweep files (`crates/bench/sweeps/*.json`, run by
//! `cargo bench -p bench --bench sweep`): each reads, every edit applies,
//! every run validates, every column and plotted series is registered and
//! every plot template resolves; the driver's rendering and `--set` rule;
//! and the mitigation lineup's behaviour at a small scale.

use incast_bursts::core_api::modes::{run_incast, ModesConfig};
use incast_bursts::core_api::sweep::{apply_edits, Axis, Level, Plot, PlotPer, Sweep};
use incast_bursts::simnet::SimTime;
use incast_bursts::stats::TimeSeries;
use std::sync::Arc;

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
    assert!(names.len() >= 12, "{names:?}");
    for name in ["fig5.json", "fig6.json", "fig7.json"] {
        assert!(names.iter().any(|n| n == name), "{name} missing: {names:?}");
    }
    for name in &names {
        let sweep = sweep(name);
        for column in &sweep.columns {
            assert!(bench::column(column).is_some(), "{name}: column `{column}`");
        }
        for plot in &sweep.plots {
            let series = &plot.series;
            assert!(bench::series(series).is_some(), "{name}: series `{series}`");
        }
        let product: usize = sweep.axes.iter().map(|a| a.levels.len()).product();
        for full in [false, true] {
            let runs = sweep.expand(full).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(runs.len(), product, "{name}");
            let cells: Vec<Vec<String>> = runs.iter().map(|r| r.0.clone()).collect();
            bench::check(&sweep, &cells).unwrap_or_else(|e| panic!("{name}: {e}"));
            for (i, (labels, cfg)) in runs.iter().enumerate() {
                assert_eq!(labels.len(), sweep.axes.len(), "{name}");
                assert_eq!(cfg.validate(), Ok(()), "{name}: {labels:?}");
                let twin = runs[..i].iter().find(|r| r.1 == *cfg).map(|r| &r.0);
                assert!(twin.is_none(), "{name}: {labels:?} runs {twin:?}'s config");
            }
        }
    }
}

#[test]
fn a_set_that_fig5_would_overwrite_is_refused() {
    let mut fig5 = sweep("fig5.json");
    let err = bench::add_sets(&mut fig5, &["num_flows=1".into()]).unwrap_err();
    assert_eq!(
        err,
        "--set num_flows=1: the file sets `num_flows` in axis `flows`"
    );
    let err = bench::add_sets(&mut fig5, &["num_bursts=3".into()]).unwrap_err();
    assert_eq!(
        err,
        "--set num_bursts=3: the file sets `num_bursts` in `full`"
    );
    let quic = ["tcp.transport=quic".to_string()];
    bench::add_sets(&mut fig5, &quic).expect("no fig5 edit touches the transport");
    assert_eq!(fig5.base.last(), Some(&quic[0]));
    let runs = fig5.expand(false).expect("expands");
    assert!(runs.iter().all(|r| r.1.tcp.transport.label() == "quic"));
}

/// A two-cell sweep over tiny runs whose queue traces and burst windows are
/// replaced by a known ramp: queue depth `k + 1` at `k` × 0.1 ms, the
/// steady burst from 2 to 3 ms.
fn tiny_rendered(plots: Vec<Plot>) -> String {
    let level = |label: &str, seed: &str| Level {
        label: label.into(),
        set: vec![seed.into()],
    };
    let sweep = Sweep {
        title: "tiny".into(),
        what: "w".into(),
        paper: "p".into(),
        base: ["num_flows=4", "burst_duration_ms=1", "num_bursts=2"]
            .map(String::from)
            .into(),
        full: vec![],
        axes: vec![Axis {
            name: "seed".into(),
            levels: vec![level("a", "seed=1"), level("b", "seed=2")],
        }],
        plots,
        columns: vec!["steady drops".into()],
        reading: vec![],
    };
    let runs = sweep.expand(false).expect("expands");
    let cells: Vec<Vec<String>> = runs.iter().map(|r| r.0.clone()).collect();
    bench::check(&sweep, &cells).expect("checks");
    let results: Vec<Arc<_>> = runs
        .iter()
        .map(|(_, cfg)| {
            let mut r = run_incast(cfg);
            r.queue_pkts = TimeSeries::new(100_000_000);
            for k in 0..=80u64 {
                r.queue_pkts.record_max(k * 100_000_000, k as f64 + 1.0);
            }
            r.burst_windows = vec![(0.0, 1.0), (2.0, 3.0)];
            r.warmup_bursts = 1;
            Arc::new(r)
        })
        .collect();
    bench::render(&sweep, &cells, &results)
}

fn queue_plot(per: PlotPer, cells: &[&str], title: &str, name: &str) -> Plot {
    Plot {
        series: "queue pkts".into(),
        before_ms: 1.0,
        after_ms: 2.0,
        per,
        cells: cells.iter().map(|c| c.to_string()).collect(),
        title: title.into(),
        name: name.into(),
        height: 4,
    }
}

#[test]
fn the_driver_renders_windowed_plots_then_the_table() {
    let out = tiny_rendered(vec![
        queue_plot(PlotPer::Cell, &[], "cell {label}", "{line}"),
        queue_plot(PlotPer::File, &["b"], "file", "{label} flows"),
    ]);
    let titles: Vec<&str> = out
        .lines()
        .filter(|l| !l.is_empty() && !l.starts_with(' '))
        .collect();
    assert_eq!(titles[..3], ["cell a", "cell b", "file"], "{out}");
    // The window is [2 - 1, 3 + 2] ms: the points at 1.0 and 5.0 ms are
    // kept (x from -1 to 3 ms after the burst's start), 0.9 and 5.1 cut.
    // Depth k + 1 at k x 0.1 ms puts the y range at 11..51.
    let x_axis = format!("{}{:<12.3}{:>98.3}", " ".repeat(12), -1.0, 3.0);
    assert_eq!(out.matches(&x_axis).count(), 3, "{out}");
    assert_eq!(out.matches("      51.0 |").count(), 3, "{out}");
    assert_eq!(out.matches("      11.0 |").count(), 3, "{out}");
    assert_eq!(out.matches("legend: * queue\n").count(), 2, "{out}");
    assert_eq!(out.matches("legend: * b flows\n").count(), 1, "{out}");
    let table = &out[out.find("+-").expect("a table")..];
    let rows: Vec<&str> = table.lines().filter(|l| l.starts_with('|')).collect();
    assert_eq!(rows.len(), 3, "{table}");
    assert!(rows[0].starts_with("| seed | steady drops |"), "{table}");
    assert!(rows[1].starts_with("| a "), "{table}");
}

#[test]
fn a_plot_must_name_a_series_a_cell_and_tell_its_cells_apart() {
    let fig6 = sweep("fig6.json");
    let cells: Vec<Vec<String>> = fig6
        .expand(false)
        .unwrap()
        .into_iter()
        .map(|r| r.0)
        .collect();
    let rejected = |edit: fn(&mut Plot), what: &str| {
        let mut bad = fig6.clone();
        edit(&mut bad.plots[0]);
        let err = bench::check(&bad, &cells).unwrap_err();
        assert!(err.contains(what), "{err}");
    };
    rejected(|p| p.series = "queue".into(), "no series `queue`");
    rejected(|p| p.cells = vec!["60".into()], "no cell `60`");
    rejected(|p| p.name = "{flows}".into(), "template");
    rejected(|p| p.name = "flows".into(), "4 cells, no {label}");
    rejected(|p| p.per = PlotPer::Cell, "4 cells, no {label} in `Fig 6");
    rejected(|p| p.height = 0, "height 0");
    let mut one = fig6.clone();
    one.plots[0].cells = vec!["100".into()];
    one.plots[0].name = "flows".into();
    assert_eq!(
        bench::check(&one, &cells),
        Ok(()),
        "one cell needs no {{label}}"
    );
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
