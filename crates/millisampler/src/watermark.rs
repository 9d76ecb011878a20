//! Switch-queue occupancy watermarks.
//!
//! Production ToRs report queue occupancy as a "high watermark over the last
//! minute" (paper §3.4). In simulation we have the full depth series (a
//! [`stats::TimeSeries`] recorded by `simnet`'s queue monitor); these
//! helpers reduce it the way the production counters and figures do:
//! peak-per-window watermarks and per-burst peak occupancy.

use stats::TimeSeries;

/// Peak value of `series` within `[t0_ps, t1_ps)` (series times are ps).
pub fn peak_in_window(series: &TimeSeries, t0_ps: u64, t1_ps: u64) -> f64 {
    if t1_ps <= t0_ps {
        return 0.0;
    }
    let first = (t0_ps / series.interval()) as usize;
    let last = ((t1_ps - 1) / series.interval()) as usize;
    series.window(first..last + 1).fold(0.0, f64::max)
}

/// Reduces a fine-grained depth series into per-`window_ps` high watermarks
/// (the production switch counter's behavior with a 60 s window).
pub fn watermark_series(series: &TimeSeries, window_ps: u64) -> Vec<f64> {
    assert!(window_ps > 0);
    if series.is_empty() {
        return Vec::new();
    }
    let total_ps = series.len() as u64 * series.interval();
    let windows = total_ps.div_ceil(window_ps) as usize;
    let mut out = vec![0.0; windows];
    for (t, v) in series.iter() {
        let w = (t / window_ps) as usize;
        if v > out[w] {
            out[w] = v;
        }
    }
    out
}

/// Peak occupancy in the window as a fraction of `capacity`.
pub fn peak_fraction(series: &TimeSeries, t0_ps: u64, t1_ps: u64, capacity: f64) -> f64 {
    assert!(capacity > 0.0);
    peak_in_window(series, t0_ps, t1_ps) / capacity
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series() -> TimeSeries {
        // interval 10 ps, depths 0,5,9,2,0,7
        let mut s = TimeSeries::new(10);
        for (i, v) in [0.0, 5.0, 9.0, 2.0, 0.0, 7.0].iter().enumerate() {
            s.record_max(i as u64 * 10, *v);
        }
        s
    }

    #[test]
    fn peak_in_window_basics() {
        let s = series();
        assert_eq!(peak_in_window(&s, 0, 60), 9.0);
        assert_eq!(peak_in_window(&s, 30, 50), 2.0);
        assert_eq!(peak_in_window(&s, 50, 60), 7.0);
        assert_eq!(peak_in_window(&s, 10, 10), 0.0, "empty window");
    }

    #[test]
    fn window_boundaries_are_half_open() {
        let s = series();
        // [0, 20) covers buckets 0 and 1 only.
        assert_eq!(peak_in_window(&s, 0, 20), 5.0);
        assert_eq!(peak_in_window(&s, 0, 21), 9.0);
    }

    #[test]
    fn beyond_series_is_zero() {
        let s = series();
        assert_eq!(peak_in_window(&s, 600, 700), 0.0);
    }

    #[test]
    fn watermark_series_reduces() {
        let s = series();
        // 30 ps windows over 60 ps of data -> 2 windows.
        assert_eq!(watermark_series(&s, 30), vec![9.0, 7.0]);
        // One giant window.
        assert_eq!(watermark_series(&s, 1000), vec![9.0]);
    }

    #[test]
    fn watermark_of_empty_series() {
        let s = TimeSeries::new(10);
        assert!(watermark_series(&s, 30).is_empty());
    }

    #[test]
    fn peak_fraction_normalizes() {
        let s = series();
        assert!((peak_fraction(&s, 0, 60, 18.0) - 0.5).abs() < 1e-12);
    }
}
