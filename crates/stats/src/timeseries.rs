//! Fixed-interval time-series buckets.
//!
//! The paper's Fig. 1 panels and Fig. 5–7 queue traces are all quantities
//! sampled or accumulated on a fixed grid (1 ms for host measurements,
//! finer for queue traces). [`TimeSeries`] is that grid: values are added at
//! a time offset and land in `floor(t / interval)` buckets.

use crate::leaves::{ConfigError, Leaves, Reader, Visit};

/// Buckets a series grows to by doubling, and the most slack it may carry
/// below 25 % (512 KiB of `f64`).
const DOUBLING_LIMIT: usize = 64 * 1024;

/// A time series of `f64` values accumulated into fixed-width buckets.
///
/// Times are `u64` in any consistent unit (the simulator uses picoseconds,
/// the sampler uses nanoseconds); the unit is the caller's contract.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    interval: u64,
    buckets: Vec<f64>,
}

/// Written like `leaves!(TimeSeries: interval, buckets)`; read back only
/// with a positive interval, the one thing [`TimeSeries::new`] checks.
impl Leaves for TimeSeries {
    fn walk<V: Visit>(&self, name: &'static str, v: &mut V) {
        let TimeSeries { interval, buckets } = self;
        v.enter(name);
        interval.walk("interval", v);
        buckets.walk("buckets", v);
        v.leave();
    }

    fn read(name: &'static str, r: &mut Reader<'_>) -> Result<Self, ConfigError> {
        r.enter(name)?;
        let interval = u64::read("interval", r)?;
        if interval == 0 {
            return Err(r.error("interval", "must be positive"));
        }
        let buckets = Vec::read("buckets", r)?;
        r.leave()?;
        Ok(TimeSeries { interval, buckets })
    }
}

impl TimeSeries {
    /// Creates a series with the given bucket width. Panics if zero.
    pub fn new(interval: u64) -> Self {
        assert!(interval > 0, "zero bucket interval");
        Self {
            interval,
            buckets: Vec::new(),
        }
    }

    /// Bucket width.
    pub fn interval(&self) -> u64 {
        self.interval
    }

    /// Index of the bucket containing time `t`.
    pub fn bucket_of(&self, t: u64) -> usize {
        (t / self.interval) as usize
    }

    /// Extends the series with zero buckets through `idx`. Growth adds the
    /// larger of a quarter of the capacity and [`DOUBLING_LIMIT`] buckets
    /// (doubling below that), so a long series — a run-long 20 µs depth
    /// trace is hundreds of thousands of buckets — carries at most 25 % or
    /// 512 KiB of slack where `Vec`'s doubling leaves up to 100 %, while
    /// total copying stays linear in the final length.
    fn grow_to(&mut self, idx: usize) {
        let len = idx + 1;
        if len <= self.buckets.len() {
            return;
        }
        let cap = self.buckets.capacity();
        if len > cap {
            let grown = cap + (cap / 4).max(cap.min(DOUBLING_LIMIT));
            self.buckets
                .reserve_exact(grown.max(len) - self.buckets.len());
        }
        self.buckets.resize(len, 0.0);
    }

    /// Releases the capacity beyond the touched buckets, for a series that
    /// is finished and will be kept.
    pub fn shrink_to_fit(&mut self) {
        self.buckets.shrink_to_fit();
    }

    /// Adds `value` into the bucket containing `t`.
    pub fn accumulate(&mut self, t: u64, value: f64) {
        let idx = self.bucket_of(t);
        self.grow_to(idx);
        self.buckets[idx] += value;
    }

    /// Records the max of the current bucket value and `value` at `t`
    /// (for watermark-style series).
    pub fn record_max(&mut self, t: u64, value: f64) {
        let idx = self.bucket_of(t);
        self.grow_to(idx);
        self.buckets[idx] = self.buckets[idx].max(value);
    }

    /// Number of buckets (highest touched bucket + 1).
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// True if no bucket was ever touched.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Value of bucket `idx` (0.0 beyond the touched range).
    pub fn get(&self, idx: usize) -> f64 {
        self.buckets.get(idx).copied().unwrap_or(0.0)
    }

    /// All bucket values.
    pub fn values(&self) -> &[f64] {
        &self.buckets
    }

    /// Iterator of `(bucket_start_time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .map(move |(i, &v)| (i as u64 * self.interval, v))
    }

    /// Pads the series with zero buckets out to `end_time` (exclusive), so a
    /// quiet tail still appears in plots and averages.
    pub fn pad_until(&mut self, end_time: u64) {
        if end_time == 0 {
            return;
        }
        let idx = self.bucket_of(end_time - 1);
        self.grow_to(idx);
    }

    /// Sum over all buckets.
    pub fn total(&self) -> f64 {
        self.buckets.iter().sum()
    }

    /// Mean bucket value (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.buckets.is_empty() {
            0.0
        } else {
            self.total() / self.buckets.len() as f64
        }
    }

    /// Maximum bucket value (0 if empty).
    pub fn max(&self) -> f64 {
        self.buckets.iter().copied().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulate_lands_in_right_bucket() {
        let mut ts = TimeSeries::new(10);
        ts.accumulate(0, 1.0);
        ts.accumulate(9, 1.0);
        ts.accumulate(10, 5.0);
        ts.accumulate(25, 2.0);
        assert_eq!(ts.get(0), 2.0);
        assert_eq!(ts.get(1), 5.0);
        assert_eq!(ts.get(2), 2.0);
        assert_eq!(ts.len(), 3);
    }

    #[test]
    fn record_max_keeps_largest() {
        let mut ts = TimeSeries::new(10);
        ts.record_max(3, 5.0);
        ts.record_max(7, 2.0);
        ts.record_max(8, 9.0);
        assert_eq!(ts.get(0), 9.0);
    }

    #[test]
    fn get_beyond_range_is_zero() {
        let ts = TimeSeries::new(10);
        assert_eq!(ts.get(100), 0.0);
    }

    #[test]
    fn pad_until_extends_with_zeros() {
        let mut ts = TimeSeries::new(10);
        ts.accumulate(5, 1.0);
        ts.pad_until(45);
        assert_eq!(ts.len(), 5);
        assert_eq!(ts.get(4), 0.0);
        // Padding to an exact bucket boundary must not add an extra bucket.
        let mut ts2 = TimeSeries::new(10);
        ts2.pad_until(30);
        assert_eq!(ts2.len(), 3);
    }

    #[test]
    fn pad_until_zero_is_noop() {
        let mut ts = TimeSeries::new(10);
        ts.pad_until(0);
        assert!(ts.is_empty());
    }

    #[test]
    fn iter_yields_bucket_start_times() {
        let mut ts = TimeSeries::new(100);
        ts.accumulate(150, 3.0);
        let pts: Vec<_> = ts.iter().collect();
        assert_eq!(pts, vec![(0, 0.0), (100, 3.0)]);
    }

    #[test]
    fn totals_and_means() {
        let mut ts = TimeSeries::new(1);
        for t in 0..4 {
            ts.accumulate(t, (t + 1) as f64);
        }
        assert_eq!(ts.total(), 10.0);
        assert_eq!(ts.mean(), 2.5);
        assert_eq!(ts.max(), 4.0);
    }

    /// The series before bounded growth: `Vec::resize` on every extension.
    struct Reference {
        interval: u64,
        buckets: Vec<f64>,
    }

    impl Reference {
        fn at(&mut self, t: u64) -> &mut f64 {
            let idx = (t / self.interval) as usize;
            if idx >= self.buckets.len() {
                self.buckets.resize(idx + 1, 0.0);
            }
            &mut self.buckets[idx]
        }
    }

    #[test]
    fn bounded_growth_matches_resize_and_keeps_slack_small() {
        let mut rng = crate::Rng::new(9);
        for case in 0..40 {
            let interval = 1 + rng.below(20);
            let mut ts = TimeSeries::new(interval);
            let mut reference = Reference {
                interval,
                buckets: Vec::new(),
            };
            let mut t = 0;
            let (mut copied, mut cap) = (0, 0);
            for _ in 0..400 {
                // Mostly short steps, now and then a jump of up to twice the
                // doubling limit (a quiet gap, or a padded tail).
                t += if rng.below(40) == 0 {
                    rng.below(2 * DOUBLING_LIMIT as u64) * interval
                } else {
                    rng.below(4 * interval)
                };
                let v = rng.range_f64(0.0, 100.0);
                let at = t.saturating_sub(rng.below(8 * interval));
                match rng.below(3) {
                    0 => {
                        ts.record_max(at, v);
                        let b = reference.at(at);
                        *b = b.max(v);
                    }
                    1 => {
                        ts.accumulate(at, v);
                        *reference.at(at) += v;
                    }
                    _ => {
                        ts.pad_until(t);
                        if t > 0 {
                            reference.at(t - 1);
                        }
                    }
                }
                let (len, now) = (ts.len(), ts.buckets.capacity());
                if now != cap {
                    copied += ts.buckets.len().min(cap);
                    cap = now;
                }
                assert!(
                    cap - len <= (len / 4).max(DOUBLING_LIMIT),
                    "case {case}: capacity {cap} for {len} buckets"
                );
            }
            assert_eq!(ts.len(), reference.buckets.len(), "case {case}");
            assert_eq!(ts.values(), &reference.buckets[..], "case {case}");
            let ref_iter = reference
                .buckets
                .iter()
                .enumerate()
                .map(|(i, &v)| (i as u64 * interval, v));
            assert!(ts.iter().eq(ref_iter), "case {case}");
            for idx in [
                0,
                ts.len() / 2,
                ts.len().saturating_sub(1),
                ts.len(),
                ts.len() + 7,
            ] {
                let want = reference.buckets.get(idx).copied().unwrap_or(0.0);
                assert_eq!(ts.get(idx), want, "case {case}, bucket {idx}");
            }
            assert!(
                copied <= 5 * ts.len(),
                "case {case}: {copied} copied for {}",
                ts.len()
            );
        }
    }

    #[test]
    fn a_long_series_grows_by_a_quarter_and_shrinks_to_its_length() {
        let mut ts = TimeSeries::new(1);
        let (mut copied, mut cap) = (0, 0);
        for t in 0..1_000_000 {
            ts.record_max(t, 1.0);
            if ts.buckets.capacity() != cap {
                copied += t as usize;
                cap = ts.buckets.capacity();
            }
        }
        assert!(cap <= 1_250_000, "{cap}");
        assert!(copied <= 5 * ts.len(), "{copied}");
        ts.shrink_to_fit();
        assert_eq!(ts.buckets.capacity(), ts.len());
    }

    #[test]
    #[should_panic]
    fn zero_interval_panics() {
        TimeSeries::new(0);
    }
}
