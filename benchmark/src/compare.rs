//! `compare OLD.json NEW.json` and `selfcheck`: two report documents held
//! against the bounds `BENCHMARK.json` fixes, one row per (metric, workload).

use crate::json::Json;
use crate::layers::{Source, WORKLOAD_LAYERS};
use crate::spec::{Spec, END_TO_END};
use crate::summary::Summary;
use std::fmt::Write;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every run of NEW reads better than every run of OLD.
    Better,
    /// Values within the bound, spreads narrower than it.
    Unchanged,
    /// NEW's value is worse than OLD's by more than the bound.
    Regression,
    /// On one side the fastest quarter of the iterations spreads wider
    /// than the bound: that run never settled on a floor, and the pair
    /// decides nothing either way.
    Unresolved,
}

/// All four end-to-end metrics are lower-is-better.
pub fn judge(old: &Summary, new: &Summary, bound: f64) -> Verdict {
    let worse_by = new.value / old.value - 1.0;
    let repeated = new.n > 1 && old.n > 1;
    if repeated && new.max < old.min {
        Verdict::Better
    } else if repeated && old.max < new.min && worse_by > bound {
        // Every run of NEW is worse than every run of OLD: no spread,
        // however wide, explains that away.
        Verdict::Regression
    } else if old.spread().max(new.spread()) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Regression
    } else {
        Verdict::Unchanged
    }
}

fn workloads(doc: &Json) -> &[(String, Json)] {
    doc.get("workloads").map_or(&[], Json::fields)
}

fn e2e(workload: &Json, metric: &str) -> Option<Summary> {
    Summary::from_json(workload.get("end_to_end")?.get(metric)?)
}

/// Why `doc` cannot be compared, if it cannot.
fn refuse(doc: &Json, which: &str) -> Result<(), String> {
    if doc.get("quick") == Some(&Json::Bool(true)) {
        return Err(format!(
            "{which} is a --quick run: too few iterations to compare"
        ));
    }
    if workloads(doc).is_empty() {
        return Err(format!(
            "{which} holds no workloads: not a report of this benchmark"
        ));
    }
    Ok(())
}

/// The comparison table and the number of regressions. Workloads or
/// metrics missing from either side are listed, not guessed.
pub fn compare(old: &Json, new: &Json, spec: &Spec) -> Result<(String, usize), String> {
    refuse(old, "OLD")?;
    refuse(new, "NEW")?;
    let mut out = String::new();
    if old.get("seed") != new.get("seed") {
        writeln!(
            out,
            "note: seeds differ; digests and counts are not comparable"
        )
        .unwrap();
    }
    if old.get("features") != new.get("features") {
        let list = |d: &Json| d.get("features").map_or(String::new(), Json::to_string);
        writeln!(
            out,
            "note: features differ: OLD {} vs NEW {}",
            list(old),
            list(new)
        )
        .unwrap();
    }
    writeln!(
        out,
        "{:<14} {:<13} {:>10} {:>21} {:>10} {:>21} {:>8} {:>6}  verdict",
        "workload", "metric", "old", "[q1, q3]", "new", "[q1, q3]", "change", "bound"
    )
    .unwrap();
    let mut regressions = 0;
    for (name, old_w) in workloads(old) {
        let Some(new_w) = new.get("workloads").and_then(|w| w.get(name)) else {
            writeln!(out, "{name:<14} missing from NEW").unwrap();
            continue;
        };
        for (metric, _) in END_TO_END {
            let (Some(o), Some(n)) = (e2e(old_w, metric), e2e(new_w, metric)) else {
                writeln!(out, "{name:<14} {metric:<13} missing on one side").unwrap();
                continue;
            };
            let bound = spec.bound(metric);
            let verdict = judge(&o, &n, bound);
            regressions += (verdict == Verdict::Regression) as usize;
            writeln!(
                out,
                "{name:<14} {metric:<13} {:>10.3} [{:>9.3},{:>9.3}] {:>10.3} [{:>9.3},{:>9.3}] {:>+7.1}% {:>5.0}%  {}",
                o.value,
                o.q1,
                o.q3,
                n.value,
                n.q1,
                n.q3,
                (n.value / o.value - 1.0) * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Better => "better",
                    Verdict::Unchanged => "unchanged",
                    Verdict::Regression => "REGRESSION",
                    Verdict::Unresolved => "unresolved",
                }
            )
            .unwrap();
        }
    }
    Ok((out, regressions))
}

/// `selfcheck`'s rule for two back-to-back sets of one commit: every
/// end-to-end value agrees within its bound (either direction), and every
/// count-sourced per-layer metric repeats exactly on the workloads that
/// run on one thread. Returns the disagreements.
pub fn disagreements(first: &Json, second: &Json, spec: &Spec) -> Vec<String> {
    let mut bad = Vec::new();
    for (name, a) in workloads(first) {
        let Some(b) = second.get("workloads").and_then(|w| w.get(name)) else {
            bad.push(format!("{name}: missing from the second set"));
            continue;
        };
        for (metric, _) in END_TO_END {
            let (Some(x), Some(y)) = (e2e(a, metric), e2e(b, metric)) else {
                bad.push(format!("{name} {metric}: missing"));
                continue;
            };
            let apart = (x.value / y.value).max(y.value / x.value) - 1.0;
            if apart > spec.bound(metric) {
                bad.push(format!(
                    "{name} {metric}: {} vs {} is {:.1} % apart (bound {:.0} %)",
                    x.value,
                    y.value,
                    apart * 100.0,
                    spec.bound(metric) * 100.0
                ));
            }
        }
        // The pool interleaves the sweeps' cells, so their allocation
        // counts are not a function of the inputs alone.
        if name.starts_with("sweep_") {
            continue;
        }
        for (layer, _, source) in WORKLOAD_LAYERS {
            let value = |w: &Json| w.get("per_layer")?.get(layer)?.get("value")?.num();
            if *source == Source::Count && value(a) != value(b) {
                bad.push(format!(
                    "{name} {layer}: count {:?} vs {:?}",
                    value(a),
                    value(b)
                ));
            }
        }
    }
    bad
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(values: &[f64]) -> Summary {
        Summary::of(values)
    }

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let old = s(&[100.0, 101.0, 99.0, 100.5, 99.5]);
        assert_eq!(
            judge(&old, &s(&[103.0, 104.0, 102.0, 103.5, 102.5]), 0.10),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&old, &s(&[115.0, 116.0, 114.0, 115.5, 114.5]), 0.10),
            Verdict::Regression
        );
        assert_eq!(
            judge(&old, &s(&[90.0, 91.0, 89.0, 90.5, 89.5]), 0.10),
            Verdict::Better
        );
        // The fastest quarter reaches 12.5 % above the minimum: the run
        // found no floor, and a 10 % bound cannot be resolved either way.
        let noisy = s(&[80.0, 100.0, 115.0, 105.0, 112.0]);
        assert_eq!(judge(&old, &noisy, 0.10), Verdict::Unresolved);
        // Single measurements have no spread: only the values speak.
        assert_eq!(
            judge(&Summary::single(10.0), &Summary::single(10.4), 0.05),
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&Summary::single(10.0), &Summary::single(10.6), 0.05),
            Verdict::Regression
        );
    }

    fn doc(wall: &[f64], drops: f64, quick: bool) -> Json {
        let e2e = END_TO_END.map(|(m, u)| (m, s(wall).to_json(u)));
        let layer = Json::obj([("value", Json::Num(drops))]);
        let w = Json::obj([
            ("end_to_end", Json::obj(e2e)),
            ("per_layer", Json::obj([("simnet.queue.drops", layer)])),
        ]);
        Json::obj([
            ("seed", Json::Num(11.0)),
            ("quick", Json::Bool(quick)),
            ("workloads", Json::obj([("mode1_steady", w)])),
        ])
    }

    #[test]
    fn compare_counts_regressions_and_refuses_quick_runs() {
        let spec = Spec::load();
        let old = doc(&[100.0, 101.0, 99.0], 0.0, false);
        let (table, n) = compare(&old, &doc(&[140.0, 141.0, 139.0], 0.0, false), &spec).unwrap();
        assert_eq!(n, 4, "{table}");
        assert!(table.contains("REGRESSION") && table.contains("mode1_steady"));
        let (_, n) = compare(&old, &old, &spec).unwrap();
        assert_eq!(n, 0);
        let err = compare(&old, &doc(&[100.0], 0.0, true), &spec).unwrap_err();
        assert!(err.contains("--quick"), "{err}");
        assert!(compare(&Json::Null, &old, &spec).is_err());
    }

    #[test]
    fn selfcheck_flags_drifting_values_and_counts() {
        let spec = Spec::load();
        let a = doc(&[100.0, 101.0, 99.0], 7.0, false);
        assert!(disagreements(&a, &a, &spec).is_empty());
        let drift = disagreements(&a, &doc(&[60.0, 61.0, 59.0], 7.0, false), &spec);
        assert_eq!(drift.len(), 4, "{drift:?}");
        // 8 % apart: outside the heap bound only.
        let heap = disagreements(&a, &doc(&[108.0, 109.0, 107.0], 7.0, false), &spec);
        assert_eq!(heap.len(), 1, "{heap:?}");
        assert!(heap[0].contains("peak_heap_mb"));
        let counts = disagreements(&a, &doc(&[100.0, 101.0, 99.0], 8.0, false), &spec);
        assert_eq!(counts.len(), 1, "{counts:?}");
        assert!(counts[0].contains("simnet.queue.drops"));
    }
}
