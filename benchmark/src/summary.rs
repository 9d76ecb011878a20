//! Order statistics over a run's samples.

use crate::json::Json;

/// The reported value, median, quartiles, extremes and count of one
/// sample set.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// What the metric is reported by: the fastest sample unless the caller
    /// says otherwise, not the median. Every iteration of a workload does
    /// identical work, so whatever one takes above the fastest is the
    /// machine's doing, and on the shared box this runs on a neighbour slows
    /// stretches of seconds by up to 1.8x: across 7 s windows of one 110 s
    /// series the median moved 101-159 ms and the minimum 97-108 ms.
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

/// The median of `values` (mean of the two middle values when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) gives them —
/// the rule the driver applies to this benchmark's output. Fewer than two
/// values have no spread: both quartiles are the value itself.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        Summary {
            value: min,
            median: median(values),
            q1,
            q3,
            min,
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: values.len(),
        }
    }

    /// A single measurement: no spread.
    pub fn single(v: f64) -> Summary {
        Summary::of(&[v])
    }

    /// How far the fastest quarter of the samples reaches above the
    /// minimum, as a share of it: small when the floor was hit again and
    /// again, large when the minimum is one lucky sample in a noisy run.
    pub fn spread(&self) -> f64 {
        (self.q1 - self.min) / self.min
    }

    pub fn to_json(&self, unit: &str) -> Json {
        Json::obj([
            ("value", Json::Num(self.value)),
            ("unit", Json::Str(unit.to_string())),
            ("median", Json::Num(self.median)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
            ("n", Json::Num(self.n as f64)),
        ])
    }

    /// Inverse of [`Summary::to_json`]; `None` if a field is missing.
    pub fn from_json(j: &Json) -> Option<Summary> {
        Some(Summary {
            value: j.get("value")?.num()?,
            median: j.get("median")?.num()?,
            q1: j.get("q1")?.num()?,
            q3: j.get("q3")?.num()?,
            min: j.get("min")?.num()?,
            max: j.get("max")?.num()?,
            n: j.get("n")?.num()? as usize,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), (2.75, 8.25));
        // statistics.quantiles([10, 20, 40, 80, 160], n=4) == [15.0, 40.0, 120.0]
        assert_eq!(quartiles(&[160.0, 10.0, 40.0, 20.0, 80.0]), (15.0, 120.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
    }

    #[test]
    fn summary_round_trips_through_json() {
        let s = Summary::of(&[1.5, 2.25, 9.0, 4.0, 3.125]);
        assert_eq!(s.n, 5);
        assert_eq!((s.value, s.min, s.max, s.median), (1.5, 1.5, 9.0, 3.125));
        let back = Summary::from_json(&Json::parse(&s.to_json("ms").to_string()).unwrap());
        assert_eq!(back, Some(s));
        // Quartiles of 9..12 are 9.25 and 11.75.
        assert!((Summary::of(&[9.0, 10.0, 11.0, 12.0]).spread() - 0.25 / 9.0).abs() < 1e-12);
        assert_eq!(Summary::single(3.0).spread(), 0.0);
    }
}
