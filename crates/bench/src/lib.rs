//! Shared helpers for the figure/table bench harnesses and the `incast`
//! binary.
//!
//! Every bench target (see `benches/`) regenerates tables or figures of
//! the paper and prints the paper's reported values next to the measured
//! ones. Default runs use reduced scale; set `INCAST_FULL=1` for the
//! paper's full parameters. Figures 5–7, the ablations and the mitigation
//! tables are sweep files (`sweeps/*.json`,
//! [`incast_core::sweep::Sweep`]) that `incast sweep` (`src/bin/incast.rs`)
//! runs and prints through [`render`], which draws [`SERIES`] and
//! [`COLUMNS`].

#![forbid(unsafe_code)]

use std::sync::Arc;

use incast_core::modes::IncastRunResult;
use incast_core::report::{ascii_plot, Table};
use incast_core::straggler::{flight_skew, skew_summary, FlightSkewPoint, SkewSummary};
use incast_core::sweep::{Plot, PlotPer, Sweep};

/// Prints the standard bench banner.
pub fn banner(id: &str, what: &str, paper_claim: &str) {
    println!("================================================================");
    println!("{id}: {what}");
    println!("paper: {paper_claim}");
    println!(
        "scale: {}",
        if incast_core::full_scale() {
            "FULL (INCAST_FULL=1)"
        } else {
            "quick (set INCAST_FULL=1 for paper scale)"
        }
    );
    println!("================================================================");
}

/// A command line's positional arguments and `(flag, value)` pairs.
pub type Args = (Vec<String>, Vec<(&'static str, String)>);

/// Splits `args` into positional arguments and the `(flag, value)` pair
/// of every `--flag value` / `--flag=value` whose flag is in `flags`, in
/// order. Any other `--…` argument, or a flag without its value, is an
/// error.
pub fn parse_args(
    args: impl IntoIterator<Item = String>,
    flags: &[&'static str],
) -> Result<Args, String> {
    let (mut positional, mut given) = (Vec::new(), Vec::new());
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with("--") {
            positional.push(arg);
            continue;
        }
        let (name, value) = match arg.split_once('=') {
            Some((name, value)) => (name, Some(value.to_string())),
            None => (arg.as_str(), None),
        };
        let Some(&flag) = flags.iter().find(|f| **f == name) else {
            return Err(format!("unknown flag `{name}`"));
        };
        let value = value.or_else(|| it.next());
        given.push((flag, value.ok_or(format!("{flag}: missing value"))?));
    }
    Ok((positional, given))
}

/// Appends the command line's `--set` edits to `sweep`'s base. An edit
/// that the file's `full` edits or an axis level would overwrite — its path
/// equals one of theirs, or one is a dotted prefix of the other — is
/// refused, naming its path and what sets it.
pub fn add_sets(sweep: &mut Sweep, sets: &[String]) -> Result<(), String> {
    let path = |edit: &str| edit.split_once('=').map_or(edit, |p| p.0).to_string();
    let nested = |a: &str, b: &str| a.strip_prefix(b).is_some_and(|r| r.starts_with('.'));
    let owners = sweep.full.iter().map(|e| (path(e), "`full`".to_string()));
    let owners: Vec<(String, String)> = owners
        .chain(sweep.axes.iter().flat_map(|axis| {
            let levels = axis.levels.iter().flat_map(|l| &l.set);
            levels.map(|e| (path(e), format!("axis `{}`", axis.name)))
        }))
        .collect();
    for set in sets {
        let p = path(set);
        if let Some((q, owner)) = owners
            .iter()
            .find(|(q, _)| p == *q || nested(&p, q) || nested(q, &p))
        {
            return Err(format!("--set {set}: the file sets `{q}` in {owner}"));
        }
    }
    sweep.base.extend_from_slice(sets);
    Ok(())
}

/// Prints `msg` and exits 2, the usage-error status.
pub fn exit2(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2)
}

/// A named table column: renders one run's cell.
pub type Column = fn(&IncastRunResult) -> String;

/// Every column a sweep file may name, by name.
pub const COLUMNS: &[(&str, Column)] = &[
    ("mode", |r| r.mode().label().to_string()),
    ("steady BCT ms", |r| f(r.mean_bct_ms)),
    ("mean queue pkts", |r| f(r.mean_steady_queue_pkts())),
    ("peak queue pkts", |r| f(r.peak_steady_queue_pkts())),
    ("steady drops", |r| r.steady_drops.to_string()),
    ("steady timeouts", |r| r.steady_timeouts.to_string()),
    ("steady retx KB", |r| f(r.steady_retx_bytes as f64 / 1024.0)),
    ("mark share", |r| {
        pc(r.marked_pkts as f64 / r.enqueued_pkts.max(1) as f64)
    }),
    ("burst-start spike pkts", |r| {
        f(r.start_spike(simnet::SimTime::from_us(500)))
    }),
    ("drops", |r| r.drops.to_string()),
    ("timeouts", |r| r.timeouts.to_string()),
    ("time above K", |r| {
        let samples = r.steady_burst_samples();
        let k = r.ecn_threshold_pkts as f64;
        let above = samples.iter().filter(|&&q| q >= k).count();
        pc(above as f64 / samples.len().max(1) as f64)
    }),
    ("p95/median (body)", |r| skew(r, |s| s.p95_over_median)),
    ("p100/median (body)", |r| skew(r, |s| s.max_over_median)),
    ("mean KB body", |r| f(mean_kb(&body_and_ramp(r).0))),
    ("mean KB ramp", |r| f(mean_kb(&body_and_ramp(r).1))),
];

/// The registered column named `name`.
pub fn column(name: &str) -> Option<Column> {
    COLUMNS.iter().find(|c| c.0 == name).map(|c| c.1)
}

/// The per-flow in-flight points of the first steady burst: its body (the
/// first 80 %) and its final ramp.
fn body_and_ramp(r: &IncastRunResult) -> (Vec<FlightSkewPoint>, Vec<FlightSkewPoint>) {
    let Some(&(s, e)) = r.burst_windows.get(r.warmup_bursts as usize) else {
        return Default::default();
    };
    let cut = s + (e - s) * 0.8;
    let burst = flight_skew(&r.flights).into_iter();
    burst
        .filter(|p| p.t_ms >= s && p.t_ms <= e)
        .partition(|p| p.t_ms <= cut)
}

/// A tail-dominance ratio over the first steady burst's body (`-` without
/// one).
fn skew(r: &IncastRunResult, ratio: fn(&SkewSummary) -> f64) -> String {
    skew_summary(&body_and_ramp(r).0).map_or("-".into(), |s| f(ratio(&s)))
}

/// Mean in-flight KB over `points`.
fn mean_kb(points: &[FlightSkewPoint]) -> f64 {
    points.iter().map(|p| p.mean).sum::<f64>() / points.len().max(1) as f64 / 1024.0
}

/// A plotted quantity: one run's lines, each with its name, of `(ms,
/// value)` points.
pub type Series = fn(&IncastRunResult) -> Vec<(&'static str, Vec<(f64, f64)>)>;

/// Every series a plot may name, by name.
pub const SERIES: &[(&str, Series)] = &[
    ("queue pkts", |r| vec![("queue", r.queue_points())]),
    ("in-flight KB", |r| {
        let points = flight_skew(&r.flights);
        let kb = |v: fn(&FlightSkewPoint) -> f64| {
            let kb = points.iter().map(|p| (p.t_ms, v(p) / 1024.0));
            kb.collect::<Vec<_>>()
        };
        vec![
            ("mean", kb(|p| p.mean)),
            ("p50", kb(|p| p.p50)),
            ("p95", kb(|p| p.p95)),
            ("p100", kb(|p| p.max)),
        ]
    }),
];

/// The registered series named `name`.
pub fn series(name: &str) -> Option<Series> {
    SERIES.iter().find(|s| s.0 == name).map(|s| s.1)
}

/// A cell's label: its level labels, joined by `, `.
fn cell_label(labels: &[String]) -> String {
    labels.join(", ")
}

/// `template` with `{label}` and `{line}` filled in.
fn fill(template: &str, label: &str, line: &str) -> String {
    template.replace("{label}", label).replace("{line}", line)
}

/// Checks what `sweep` names, given the level labels of the cells it
/// expands to: every column and series is registered, every plotted cell
/// exists, every template resolves, and a plot of several cells tells
/// them apart by `{label}` (in a per-cell plot's title, in the line names
/// of a file's plot). The error names the first that does not.
pub fn check(sweep: &Sweep, cells: &[Vec<String>]) -> Result<(), String> {
    if let Some(name) = sweep.columns.iter().find(|c| column(c).is_none()) {
        return Err(format!("no column `{name}`"));
    }
    let labels: Vec<String> = cells.iter().map(|c| cell_label(c)).collect();
    for plot in &sweep.plots {
        let fail = |msg: String| Err(format!("plot `{}`: {msg}", plot.title));
        if series(&plot.series).is_none() {
            return fail(format!("no series `{}`", plot.series));
        }
        if let Some(cell) = plot.cells.iter().find(|c| !labels.contains(c)) {
            return fail(format!("no cell `{cell}`"));
        }
        let title = match plot.per {
            PlotPer::Cell => fill(&plot.title, "", ""),
            PlotPer::File => plot.title.clone(),
        };
        if title.contains(['{', '}']) || fill(&plot.name, "", "").contains(['{', '}']) {
            return fail("a template names something but {label} or {line}".into());
        }
        let tells_apart = match plot.per {
            PlotPer::Cell => &plot.title,
            PlotPer::File => &plot.name,
        };
        let plotted = if plot.cells.is_empty() {
            labels.len()
        } else {
            plot.cells.len()
        };
        if plotted > 1 && !tells_apart.contains("{label}") {
            return fail(format!("{plotted} cells, no {{label}} in `{tells_apart}`"));
        }
        if plot.height == 0 {
            return fail("height 0".into());
        }
    }
    Ok(())
}

/// `points` from `before_ms` ahead of the burst `(start, end)` (ms) to
/// `after_ms` past its end, both edges kept, in ms from its start.
fn window(points: &[(f64, f64)], (start, end): (f64, f64), plot: &Plot) -> Vec<(f64, f64)> {
    let (from, to) = (start - plot.before_ms, end + plot.after_ms);
    let kept = points.iter().filter(|&&(t, _)| t >= from && t <= to);
    kept.map(|&(t, v)| (t - start, v)).collect()
}

/// A sweep's plots and table as the driver prints them. `cells` are the
/// runs' level labels (from [`Sweep::expand`]) and `runs` their results,
/// in the same order; `sweep` must have passed [`check`]. A run without a
/// steady burst is left out of the plots.
pub fn render(sweep: &Sweep, cells: &[Vec<String>], runs: &[Arc<IncastRunResult>]) -> String {
    let mut out = String::new();
    let mut draw = |title: &str, lines: &[(String, Vec<(f64, f64)>)], height| {
        let lines: Vec<_> = lines.iter().map(|(n, p)| (n.as_str(), &p[..])).collect();
        out.push_str(&ascii_plot(title, &lines, 110, height));
        out.push('\n');
    };
    for plot in &sweep.plots {
        let series = series(&plot.series).expect("a checked sweep names registered series");
        let plotted = cells.iter().zip(runs).filter_map(|(cell, r)| {
            let label = cell_label(cell);
            if !plot.cells.is_empty() && !plot.cells.contains(&label) {
                return None;
            }
            let burst = *r.burst_windows.get(r.warmup_bursts as usize)?;
            let lines: Vec<_> = series(r)
                .into_iter()
                .map(|(line, points)| {
                    (fill(&plot.name, &label, line), window(&points, burst, plot))
                })
                .collect();
            Some((label, lines))
        });
        match plot.per {
            PlotPer::Cell => plotted.for_each(|(label, lines)| {
                draw(&fill(&plot.title, &label, ""), &lines, plot.height)
            }),
            PlotPer::File => {
                let lines: Vec<_> = plotted.flat_map(|(_, lines)| lines).collect();
                draw(&plot.title, &lines, plot.height)
            }
        }
    }
    let axes = sweep.axes.iter().map(|a| a.name.as_str());
    let mut t = Table::new(axes.chain(sweep.columns.iter().map(String::as_str)));
    let columns: Vec<Column> = sweep
        .columns
        .iter()
        .map(|c| column(c).expect("a checked sweep names registered columns"))
        .collect();
    for (labels, r) in cells.iter().zip(runs) {
        t.row(labels.iter().cloned().chain(columns.iter().map(|c| c(r))));
    }
    out.push_str(&t.render());
    out.push('\n');
    out
}

/// Formats a float tersely.
pub fn f(x: f64) -> String {
    if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 10.0 {
        format!("{x:.1}")
    } else {
        format!("{x:.2}")
    }
}

/// Percent with one decimal.
pub fn pc(x: f64) -> String {
    format!("{:.1}%", 100.0 * x)
}

#[cfg(test)]
mod tests {
    use super::*;
    use incast_core::modes::ModesConfig;
    use incast_core::sweep::{apply_edits, Axis, Level};

    #[test]
    fn set_flag_reads_paths_and_labels_and_rejects_anything_else() {
        use transport::TransportKind::{Quic, Tcp};
        let transport = |args: &[&str]| {
            let (_, given) = parse_args(args.iter().map(|a| a.to_string()), &["--set"])?;
            let mut cfg = ModesConfig::default();
            let edits = given.into_iter().map(|(_, edit)| edit);
            apply_edits(&mut cfg, edits).map_err(|e| e.to_string())?;
            Ok::<_, String>(cfg.tcp.transport)
        };
        assert_eq!(transport(&[]), Ok(Tcp));
        let tcp = ["--bench", "--set", "tcp.transport=tcp"];
        assert_eq!(transport(&tcp), Err("unknown flag `--bench`".into()));
        let typo = ["--sett", "num_flows=1"];
        assert_eq!(transport(&typo), Err("unknown flag `--sett`".into()));
        assert_eq!(transport(&["--set", "tcp.transport=quic"]), Ok(Quic));
        assert_eq!(transport(&["--set=tcp.transport=quic"]), Ok(Quic));
        let err = transport(&["--set", "tcp.transport=quick"]).unwrap_err();
        assert!(err.contains("expected tcp|quic"), "{err}");
        let err = transport(&["--set", "no.such.path=1"]).unwrap_err();
        assert!(err.contains("valid paths: num_flows, topology,"), "{err}");
        assert!(transport(&["--set"]).is_err(), "a missing value");
        assert!(transport(&["--set", "num_flows"]).is_err(), "no `=`");
        let args = ["--bench", "a.json", "--set", "seed=3", "b.json"];
        let err = parse_args(args.map(String::from), &["--set"]).unwrap_err();
        assert_eq!(err, "unknown flag `--bench`");
        let args = ["a.json", "--set", "seed=3", "b.json", "--trace=text"];
        let (files, given) = parse_args(args.map(String::from), &["--set", "--trace"]).unwrap();
        assert_eq!(
            (files, given),
            (
                vec!["a.json".into(), "b.json".into()],
                vec![("--set", "seed=3".into()), ("--trace", "text".into())]
            )
        );
    }

    #[test]
    fn a_set_the_file_would_overwrite_is_refused_naming_path_and_setter() {
        let levels = |edits: &[&str]| {
            let set = edits.iter().map(|e| e.to_string()).collect();
            vec![Level {
                label: "x".into(),
                set,
            }]
        };
        let sweep = Sweep {
            title: "t".into(),
            what: "w".into(),
            paper: "p".into(),
            base: vec!["num_flows=7".into()],
            full: vec!["num_bursts=11".into()],
            axes: vec![Axis {
                name: "cca".into(),
                levels: levels(&["tcp.cca.g=0.5", "mitigation={\"kind\":\"pulser\"}"]),
            }],
            plots: vec![],
            columns: vec![],
            reading: vec![],
        };
        let add = |set: &str| {
            let mut s = sweep.clone();
            add_sets(&mut s, &[set.to_string()]).map(|()| s.base)
        };
        let refused = [
            ("num_bursts=3", "`num_bursts` in `full`"),
            ("tcp.cca.g=0.25", "`tcp.cca.g` in axis `cca`"),
            ("tcp.cca={\"kind\":\"reno\"}", "`tcp.cca.g` in axis `cca`"),
            ("mitigation.kind=distributed", "`mitigation` in axis `cca`"),
        ];
        for (set, setter) in refused {
            let err = add(set).unwrap_err();
            assert!(err.starts_with(&format!("--set {set}: ")), "{err}");
            assert!(err.ends_with(&format!("the file sets {setter}")), "{err}");
        }
        let base = add("num_flows=60").expect("base edits may be overwritten");
        assert_eq!(base, ["num_flows=7", "num_flows=60"]);
        for unrelated in ["tcp.cca_extra=1", "tcp.transport=quic", "num_bursts_x=1"] {
            assert!(add(unrelated).is_ok(), "{unrelated}");
        }
        assert!(add("tcp={}").is_err(), "a prefix of an axis path");
    }

    #[test]
    fn formatting() {
        assert_eq!(f(123.4), "123");
        assert_eq!(f(12.34), "12.3");
        assert_eq!(f(1.234), "1.23");
        assert_eq!(pc(0.5), "50.0%");
    }
}
