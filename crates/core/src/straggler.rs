//! Per-flow in-flight skew and cross-burst divergence (Figure 7).
//!
//! The paper samples per-flow in-flight data during a 100-flow Mode-1
//! incast and plots its distribution over time: a long tail (p95/p100)
//! transmits several times the median, and at burst end the stragglers
//! ramp up, "unlearning" the in-burst window and spiking the next burst's
//! queue. `crates/bench/sweeps/fig7.json` reruns that experiment (a run
//! with `flight_sample` set polls every flow); [`flight_skew`] turns the
//! polled per-flow series into distribution-over-time points.

use stats::{Cdf, TimeSeries};

/// One time point of the per-flow in-flight distribution.
#[derive(Debug, Clone, Copy)]
pub struct FlightSkewPoint {
    /// Time in ms.
    pub t_ms: f64,
    /// Active flows (in-flight > 0) at this point.
    pub active: usize,
    /// Mean in-flight bytes over active flows.
    pub mean: f64,
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// Maximum (the paper's p100).
    pub max: f64,
}

/// Reduces per-flow series to the distribution-over-time of Figure 7,
/// considering only *active* flows (in-flight > 0), as the paper does.
pub fn flight_skew(flights: &[TimeSeries]) -> Vec<FlightSkewPoint> {
    let buckets = flights.iter().map(|f| f.len()).max().unwrap_or(0);
    let interval_ms = flights
        .first()
        .map(|f| f.interval() as f64 / 1e9)
        .unwrap_or(0.0);
    let mut out = Vec::with_capacity(buckets);
    let mut walks: Vec<_> = flights.iter().map(|f| f.window(0..buckets)).collect();
    for b in 0..buckets {
        let mut cdf = Cdf::new();
        for walk in &mut walks {
            let v = walk.next().expect("every walk spans every bucket");
            if v > 0.0 {
                cdf.add(v);
            }
        }
        if cdf.is_empty() {
            continue;
        }
        out.push(FlightSkewPoint {
            t_ms: b as f64 * interval_ms,
            active: cdf.len(),
            mean: cdf.mean(),
            p50: cdf.percentile(50.0),
            p95: cdf.percentile(95.0),
            max: cdf.percentile(100.0),
        });
    }
    out
}

/// Skew summary over a window of points.
#[derive(Debug, Clone, Copy)]
pub struct SkewSummary {
    /// Mean of p95/p50 across points (tail dominance).
    pub p95_over_median: f64,
    /// Mean of max/p50 across points.
    pub max_over_median: f64,
}

/// Averages tail-dominance ratios over the given points.
pub fn skew_summary(points: &[FlightSkewPoint]) -> Option<SkewSummary> {
    let valid: Vec<_> = points.iter().filter(|p| p.p50 > 0.0).collect();
    if valid.is_empty() {
        return None;
    }
    let n = valid.len() as f64;
    Some(SkewSummary {
        p95_over_median: valid.iter().map(|p| p.p95 / p.p50).sum::<f64>() / n,
        max_over_median: valid.iter().map(|p| p.max / p.p50).sum::<f64>() / n,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::{run_incast, ModesConfig};
    use simnet::SimTime;

    #[test]
    fn skew_math_on_synthetic_series() {
        // Three flows: constant 10, constant 10, and a straggler at 100.
        let mk = |v: f64| {
            let mut t = TimeSeries::new(1000);
            for b in 0..5u64 {
                t.record_max(b * 1000, v);
            }
            t
        };
        let flights = vec![mk(10.0), mk(10.0), mk(100.0)];
        let pts = flight_skew(&flights);
        assert_eq!(pts.len(), 5);
        for p in &pts {
            assert_eq!(p.active, 3);
            assert_eq!(p.p50, 10.0);
            assert_eq!(p.max, 100.0);
            assert!((p.mean - 40.0).abs() < 1e-9);
        }
        let s = skew_summary(&pts).unwrap();
        assert!((s.max_over_median - 10.0).abs() < 1e-9);
    }

    #[test]
    fn inactive_flows_excluded() {
        let mut a = TimeSeries::new(1000);
        a.record_max(0, 5.0);
        let mut b = TimeSeries::new(1000);
        b.record_max(0, 0.0); // inactive
        let pts = flight_skew(&[a, b]);
        assert_eq!(pts.len(), 1);
        assert_eq!(pts[0].active, 1);
    }

    #[test]
    fn empty_input_is_empty() {
        assert!(flight_skew(&[]).is_empty());
        assert!(skew_summary(&[]).is_none());
    }

    #[test]
    fn straggler_experiment_shows_skew() {
        // Scaled down for test speed: 40 flows, 3 bursts, 5 ms bursts.
        let cfg = ModesConfig {
            num_flows: 40,
            burst_duration_ms: 5.0,
            num_bursts: 3,
            flight_sample: Some(SimTime::from_us(100)),
            seed: 2,
            ..ModesConfig::default()
        };
        let r = run_incast(&cfg);
        let pts = flight_skew(&r.flights);
        assert!(!pts.is_empty());
        let s = skew_summary(&pts).unwrap();
        // Unfairness means the tail transmits more than the median flow.
        assert!(s.p95_over_median >= 1.0);
        assert!(s.max_over_median > 1.2, "max/median {}", s.max_over_median);
    }
}
