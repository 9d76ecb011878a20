//! `BENCHMARK.json`, compiled in: the bounds `compare` and `selfcheck`
//! apply, and the declared names the harness tests hold the code's own
//! tables against, so contract and binary cannot drift.

use crate::json::Json;

pub const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// The four end-to-end metrics, `(name, unit)`, in report order.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_ms", "ms"),
    ("cpu_ms", "ms"),
    ("peak_heap_mb", "MB"),
    ("setup_s", "s"),
];

pub struct Spec {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    /// `(name, unit, bound)`; every end-to-end metric is lower-is-better.
    pub end_to_end: Vec<(String, String, f64)>,
    /// `(name, unit)`.
    pub per_layer: Vec<(String, String)>,
}

impl Spec {
    pub fn load() -> Spec {
        let doc = Json::parse(BENCHMARK_JSON).expect("BENCHMARK.json is valid JSON");
        let list = |key: &str| doc.get(key).map_or(&[][..], Json::items).iter();
        let text = |j: &Json, key: &str| {
            j.get(key)
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        };
        Spec {
            run_seconds: doc.get("run_seconds").and_then(Json::num).unwrap_or(1.0),
            workloads: list("workloads").map(|w| text(w, "name")).collect(),
            end_to_end: list("end_to_end")
                .map(|m| {
                    let bound = m.get("bound").and_then(Json::num).unwrap_or(0.0);
                    (text(m, "name"), text(m, "unit"), bound)
                })
                .collect(),
            per_layer: list("per_layer")
                .map(|m| (text(m, "name"), text(m, "unit")))
                .collect(),
        }
    }

    /// Regression bound of an end-to-end metric, as a share of the median.
    pub fn bound(&self, metric: &str) -> f64 {
        self.end_to_end
            .iter()
            .find(|(n, _, _)| n == metric)
            .unwrap_or_else(|| panic!("{metric} is not an end-to-end metric"))
            .2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{KERNEL_LAYERS, WORKLOAD_LAYERS};
    use crate::workloads::NAMES;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            && name
                .chars()
                .next()
                .is_some_and(|c| c.is_ascii_alphanumeric())
    }

    #[test]
    fn every_emitted_name_is_well_formed() {
        let layers = WORKLOAD_LAYERS.iter().chain(KERNEL_LAYERS).map(|l| l.0);
        for name in NAMES
            .into_iter()
            .chain(END_TO_END.map(|m| m.0))
            .chain(layers)
        {
            assert!(well_formed(name), "{name}");
        }
    }

    #[test]
    fn the_binary_emits_exactly_what_benchmark_json_declares() {
        let spec = Spec::load();
        assert_eq!(spec.workloads, NAMES);
        let declared: Vec<(&str, &str)> = spec
            .end_to_end
            .iter()
            .map(|(n, u, _)| (n.as_str(), u.as_str()))
            .collect();
        assert_eq!(declared, END_TO_END);
        let declared: Vec<(&str, &str)> = spec
            .per_layer
            .iter()
            .map(|(n, u)| (n.as_str(), u.as_str()))
            .collect();
        let emitted: Vec<(&str, &str)> = WORKLOAD_LAYERS
            .iter()
            .chain(KERNEL_LAYERS)
            .map(|l| (l.0, l.1))
            .collect();
        assert_eq!(declared, emitted);
    }

    #[test]
    fn every_bound_is_within_the_contracts_limit() {
        let spec = Spec::load();
        for (name, _) in END_TO_END {
            assert!((0.0..=0.25).contains(&spec.bound(name)), "{name}");
        }
        // Set-up time gets the largest bound.
        assert!(END_TO_END
            .iter()
            .all(|(n, _)| spec.bound(n) <= spec.bound("setup_s")));
        assert!((1.0..=60.0).contains(&spec.run_seconds));
    }
}
