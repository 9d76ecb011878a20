//! Fixed-interval time-series buckets.
//!
//! The paper's Fig. 1 panels and Fig. 5–7 queue traces are all quantities
//! sampled or accumulated on a fixed grid (1 ms for host measurements,
//! finer for queue traces). [`TimeSeries`] is that grid: values are added at
//! a time offset and land in `floor(t / interval)` buckets.
//!
//! A run-long 20 µs depth trace is hundreds of thousands of buckets, and in
//! the paper's Mode 3 nearly all of them are an empty queue waiting out a
//! min-RTO. So the series stores only runs of touched buckets; the time
//! between them costs nothing, and every reader sees the dense grid.

use crate::leaves::{ConfigError, Leaves, Reader, Visit};
use std::ops::Range;

/// Stored buckets `values` grows to by doubling, and the most slack it may
/// carry below 25 % (512 KiB of `f64`).
const DOUBLING_LIMIT: usize = 64 * 1024;

/// Most untouched buckets a write past a run's end fills with zeros to
/// extend that run. A run header costs two buckets, so a wider gap starts a
/// new run, and storage never exceeds the dense form by more than one
/// header.
const JOIN: usize = 2;

/// A time series of `f64` values accumulated into fixed-width buckets.
///
/// Times are `u64` in any consistent unit (the simulator uses picoseconds,
/// the sampler uses nanoseconds); the unit is the caller's contract.
///
/// Only buckets whose bits are `+0.0` may be left out: a bucket is stored
/// once a write leaves anything else in it (`-0.0` and NaN included), and
/// stored buckets sit in runs more than [`JOIN`] buckets apart.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    interval: u64,
    /// Dense length: highest touched or padded bucket + 1.
    len: usize,
    /// Stored runs, ascending by `first`.
    runs: Vec<Run>,
    /// Every run's buckets back to back, in run order.
    values: Vec<f64>,
}

/// A stretch of stored buckets: `first` is its first bucket, `at` the
/// position of that bucket in `values`; it ends where the next run's `at`
/// (or `values`) does.
#[derive(Debug, Clone, Copy)]
struct Run {
    first: usize,
    at: usize,
}

/// Written like `leaves!(TimeSeries: interval, buckets)` with `buckets` the
/// dense grid, so the text does not depend on what is stored; read back
/// only with a positive interval, the one thing [`TimeSeries::new`] checks.
impl Leaves for TimeSeries {
    fn walk<V: Visit>(&self, name: &'static str, v: &mut V) {
        v.enter(name);
        self.interval.walk("interval", v);
        v.seq("buckets", self.len);
        for x in self.window(0..self.len) {
            x.walk("", v);
        }
        v.leave();
        v.leave();
    }

    fn read(name: &'static str, r: &mut Reader<'_>) -> Result<Self, ConfigError> {
        r.enter(name)?;
        let interval = u64::read("interval", r)?;
        if interval == 0 {
            return Err(r.error("interval", "must be positive"));
        }
        let mut series = TimeSeries::new(interval);
        r.seq("buckets")?;
        while r.more() {
            let x = f64::read("", r)?;
            series.len += 1;
            if x.to_bits() != 0 {
                series.insert(series.len - 1, series.runs.len(), x);
            }
        }
        r.leave()?;
        r.leave()?;
        Ok(series)
    }
}

impl TimeSeries {
    /// Creates a series with the given bucket width. Panics if zero.
    pub fn new(interval: u64) -> Self {
        assert!(interval > 0, "zero bucket interval");
        Self {
            interval,
            len: 0,
            runs: Vec::new(),
            values: Vec::new(),
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

    /// Position in `values` where run `r` stops.
    fn stop(&self, r: usize) -> usize {
        self.runs
            .get(r + 1)
            .map_or(self.values.len(), |next| next.at)
    }

    /// The bucket after run `r`'s last.
    fn end(&self, r: usize) -> usize {
        let run = self.runs[r];
        run.first + (self.stop(r) - run.at)
    }

    /// Number of runs that start at or before bucket `idx`; a search only
    /// for a bucket before the last run.
    fn runs_upto(&self, idx: usize) -> usize {
        match self.runs.last() {
            Some(last) if last.first > idx => self.runs.partition_point(|run| run.first <= idx),
            _ => self.runs.len(),
        }
    }

    /// Position of bucket `idx` in `values`, if stored; `r` is
    /// [`runs_upto`](Self::runs_upto)`(idx)`.
    fn slot(&self, idx: usize, r: usize) -> Option<usize> {
        let prev = r.checked_sub(1)?;
        let at = self.runs[prev].at + (idx - self.runs[prev].first);
        (at < self.stop(prev)).then_some(at)
    }

    /// Applies `f` to bucket `idx`'s value. Time-ordered writers land in
    /// the last run, which is checked inline and without a search.
    #[inline]
    fn update(&mut self, idx: usize, f: impl FnOnce(f64) -> f64) {
        self.len = self.len.max(idx + 1);
        if let Some(last) = self.runs.last() {
            if idx >= last.first && last.at + (idx - last.first) < self.values.len() {
                let b = &mut self.values[last.at + (idx - last.first)];
                *b = f(*b);
                return;
            }
        }
        self.update_elsewhere(idx, f);
    }

    /// [`update`](Self::update) outside the last run: once per new bucket
    /// for time-ordered writers.
    #[inline(never)]
    fn update_elsewhere(&mut self, idx: usize, f: impl FnOnce(f64) -> f64) {
        let r = self.runs_upto(idx);
        match self.slot(idx, r) {
            Some(at) => self.values[at] = f(self.values[at]),
            None => {
                let value = f(0.0);
                if value.to_bits() != 0 {
                    self.insert(idx, r, value);
                }
            }
        }
    }

    /// Stores `value` at the unstored bucket `idx`, `r` being
    /// [`runs_upto`](Self::runs_upto)`(idx)`: it extends the run before it
    /// and joins the run after it when the gap to either is at most
    /// [`JOIN`] buckets (zero-filled), and starts a run otherwise.
    fn insert(&mut self, idx: usize, r: usize, value: f64) {
        let pos = self.runs.get(r).map_or(self.values.len(), |next| next.at);
        let lead = r
            .checked_sub(1)
            .map(|prev| idx - self.end(prev))
            .filter(|&gap| gap <= JOIN);
        let trail = self
            .runs
            .get(r)
            .map(|next| next.first - idx - 1)
            .filter(|&gap| gap <= JOIN);
        let added = lead.unwrap_or(0) + 1 + trail.unwrap_or(0);
        self.reserve(added);
        let zeros = |gap: Option<usize>| std::iter::repeat_n(0.0, gap.unwrap_or(0));
        let stored = zeros(lead).chain([value]).chain(zeros(trail));
        if pos == self.values.len() {
            self.values.extend(stored);
        } else {
            self.values.splice(pos..pos, stored);
        }
        let shifted = match (lead, trail) {
            (Some(_), Some(_)) => {
                // The next run's buckets now follow the previous run's.
                self.runs.remove(r);
                r
            }
            (Some(_), None) => r,
            (None, Some(_)) => {
                self.runs[r].first = idx;
                r + 1
            }
            (None, None) => {
                self.runs.insert(
                    r,
                    Run {
                        first: idx,
                        at: pos,
                    },
                );
                r + 1
            }
        };
        for run in &mut self.runs[shifted..] {
            run.at += added;
        }
    }

    /// Makes room for `added` more stored buckets. Growth adds the larger of
    /// a quarter of the capacity and [`DOUBLING_LIMIT`] buckets (doubling
    /// below that), so a busy live series — a queue that is never empty
    /// stores a bucket per interval — carries at most 25 % or 512 KiB of
    /// slack where `Vec`'s doubling leaves up to 100 %, while total copying
    /// stays linear in the stored length.
    fn reserve(&mut self, added: usize) {
        let (len, cap) = (self.values.len(), self.values.capacity());
        if len + added > cap {
            let grown = cap + (cap / 4).max(cap.min(DOUBLING_LIMIT));
            self.values.reserve_exact(grown.max(len + added) - len);
        }
    }

    /// Releases the capacity beyond the stored buckets, for a series that
    /// is finished and will be kept.
    pub fn shrink_to_fit(&mut self) {
        self.runs.shrink_to_fit();
        self.values.shrink_to_fit();
    }

    /// Adds `value` into the bucket containing `t`.
    #[inline]
    pub fn accumulate(&mut self, t: u64, value: f64) {
        self.update(self.bucket_of(t), |b| b + value);
    }

    /// Records the max of the current bucket value and `value` at `t`
    /// (for watermark-style series).
    #[inline]
    pub fn record_max(&mut self, t: u64, value: f64) {
        self.update(self.bucket_of(t), |b| b.max(value));
    }

    /// Number of buckets (highest touched bucket + 1).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no bucket was ever touched.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Value of bucket `idx` (0.0 beyond the touched range).
    pub fn get(&self, idx: usize) -> f64 {
        self.slot(idx, self.runs_upto(idx))
            .map_or(0.0, |at| self.values[at])
    }

    /// Values of the buckets in `range`, in order (0.0 beyond the touched
    /// range): [`get`](Self::get) of each, with one search in all.
    pub fn window(&self, range: Range<usize>) -> impl Iterator<Item = f64> + '_ {
        let mut upto = self.runs_upto(range.start);
        range.map(move |idx| {
            while self.runs.get(upto).is_some_and(|run| run.first <= idx) {
                upto += 1;
            }
            self.slot(idx, upto).map_or(0.0, |at| self.values[at])
        })
    }

    /// Iterator of `(bucket_start_time, value)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, f64)> + '_ {
        self.window(0..self.len)
            .enumerate()
            .map(move |(i, v)| (i as u64 * self.interval, v))
    }

    /// Pads the series with zero buckets out to `end_time` (exclusive), so a
    /// quiet tail still appears in plots and averages.
    pub fn pad_until(&mut self, end_time: u64) {
        if end_time == 0 {
            return;
        }
        self.len = self.len.max(self.bucket_of(end_time - 1) + 1);
    }

    /// Sum over all buckets.
    pub fn total(&self) -> f64 {
        self.window(0..self.len).sum()
    }

    /// Mean bucket value (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.total() / self.len as f64
        }
    }

    /// Maximum bucket value (0 if empty).
    pub fn max(&self) -> f64 {
        self.window(0..self.len).fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::leaves;

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

    /// The dense series: one `f64` per bucket, `Vec::resize` on every
    /// extension.
    struct Dense {
        interval: u64,
        buckets: Vec<f64>,
    }

    impl Leaves for Dense {
        fn walk<V: Visit>(&self, name: &'static str, v: &mut V) {
            v.enter(name);
            self.interval.walk("interval", v);
            self.buckets.walk("buckets", v);
            v.leave();
        }

        fn read(_: &'static str, _: &mut Reader<'_>) -> Result<Self, ConfigError> {
            unreachable!("the model is only written")
        }
    }

    impl Dense {
        fn at(&mut self, t: u64) -> &mut f64 {
            let idx = (t / self.interval) as usize;
            if idx >= self.buckets.len() {
                self.buckets.resize(idx + 1, 0.0);
            }
            &mut self.buckets[idx]
        }
    }

    fn bits(values: impl Iterator<Item = f64>) -> Vec<u64> {
        values.map(f64::to_bits).collect()
    }

    /// Everything a reader sees of `ts` is what it sees of `dense`, and the
    /// text of both is one text, which reads back to itself.
    fn assert_same(ts: &TimeSeries, dense: &Dense, case: &str) {
        assert_eq!(ts.len(), dense.buckets.len(), "{case}");
        let iter_bits = bits(ts.iter().map(|(_, v)| v));
        assert_eq!(iter_bits, bits(dense.buckets.iter().copied()), "{case}");
        let times = ts.iter().map(|(t, _)| t);
        assert!(times.eq((0..ts.len() as u64).map(|i| i * dense.interval)));
        for idx in 0..ts.len() + 3 {
            let want = dense.buckets.get(idx).copied().unwrap_or(0.0);
            assert_eq!(
                ts.get(idx).to_bits(),
                want.to_bits(),
                "{case}, bucket {idx}"
            );
        }
        let n = ts.len();
        for range in [0..n, n / 3..n / 2 + 5, n..n + 4, n / 2 + 1..n / 2] {
            let want = range
                .clone()
                .map(|i| dense.buckets.get(i).copied().unwrap_or(0.0));
            assert_eq!(
                bits(ts.window(range.clone())),
                bits(want),
                "{case}, {range:?}"
            );
        }
        assert_eq!(
            ts.total().to_bits(),
            dense.buckets.iter().sum::<f64>().to_bits()
        );
        let mean = if n == 0 {
            0.0
        } else {
            dense.buckets.iter().sum::<f64>() / n as f64
        };
        assert_eq!(ts.mean().to_bits(), mean.to_bits(), "{case}");
        let max = dense.buckets.iter().copied().fold(0.0, f64::max);
        assert_eq!(ts.max().to_bits(), max.to_bits(), "{case}");
        let text = leaves::write(ts);
        assert_eq!(text, leaves::write(dense), "{case}");
        let back: TimeSeries = leaves::read(&text).unwrap();
        assert_eq!(leaves::write(&back), text, "{case}");
        assert!(
            back.iter().map(|(_, v)| v.to_bits()).eq(iter_bits),
            "{case}"
        );
        // Runs are more than JOIN buckets apart, so storage never exceeds
        // the dense form by more than one header.
        for s in [ts, &back] {
            for r in 1..s.runs.len() {
                assert!(s.runs[r].first > s.end(r - 1) + JOIN, "{case}: {s:?}");
            }
            assert!(s.values.len() + 2 * s.runs.len() <= n + 2, "{case}: {s:?}");
            let (len, cap) = (s.values.len(), s.values.capacity());
            assert!(cap - len <= (len / 4).max(DOUBLING_LIMIT), "{case}: {cap}");
        }
    }

    #[test]
    fn runs_match_a_dense_model() {
        let mut rng = crate::Rng::new(9);
        for case in 0..300 {
            let interval = 1 + rng.below(20);
            let mut ts = TimeSeries::new(interval);
            let mut dense = Dense {
                interval,
                buckets: Vec::new(),
            };
            let mut t = 0;
            for op in 0..200 {
                // Mostly short steps in time order, now and then a quiet gap.
                t += if rng.below(10) == 0 {
                    rng.below(40) * interval
                } else {
                    rng.below(3 * interval)
                };
                // Zeros and negative zeros are stored only where a write
                // leaves something other than +0.0.
                let v = match rng.below(8) {
                    0 => 0.0,
                    1 => -0.0,
                    2 => -rng.range_f64(0.0, 5.0),
                    _ => rng.range_f64(0.0, 100.0),
                };
                // A third of the writes land in the past: inside runs, in
                // earlier gaps, before the first run.
                let at = match rng.below(3) {
                    0 => rng.below(t + 1),
                    _ => t,
                };
                match rng.below(5) {
                    0 | 1 => {
                        ts.record_max(at, v);
                        let b = dense.at(at);
                        *b = b.max(v);
                    }
                    2 | 3 => {
                        ts.accumulate(at, v);
                        *dense.at(at) += v;
                    }
                    _ => {
                        let end = t + rng.below(5 * interval);
                        ts.pad_until(end);
                        if end > 0 {
                            dense.at(end - 1);
                        }
                    }
                }
                if op % 25 == 0 {
                    assert_same(&ts, &dense, &format!("case {case}, op {op}"));
                }
            }
            assert_same(&ts, &dense, &format!("case {case}"));
        }
    }

    #[test]
    fn text_keeps_negative_zero_and_trailing_zeros() {
        let text = r#"{"interval":5,"buckets":[0,-0,0,0,0,0,3.5,0,0,0]}"#;
        let ts: TimeSeries = leaves::read(text).unwrap();
        assert_eq!(ts.len(), 10);
        assert_eq!(ts.get(1).to_bits(), (-0.0f64).to_bits());
        assert_eq!(leaves::write(&ts), text);
        assert_eq!(ts.runs.len(), 2, "{ts:?}");
        assert_eq!(ts.values.len(), 2, "{ts:?}");
        let empty = r#"{"interval":1,"buckets":[]}"#;
        assert_eq!(
            leaves::write(&leaves::read::<TimeSeries>(empty).unwrap()),
            empty
        );
    }

    #[test]
    fn a_busy_series_grows_by_a_quarter_and_shrinks_to_its_length() {
        let mut ts = TimeSeries::new(1);
        let (mut copied, mut cap) = (0, 0);
        for t in 0..1_000_000 {
            ts.record_max(t, 1.0);
            if ts.values.capacity() != cap {
                copied += t as usize;
                cap = ts.values.capacity();
            }
            let len = ts.values.len();
            assert!(
                cap - len <= (len / 4).max(DOUBLING_LIMIT),
                "{cap} for {len}"
            );
        }
        assert_eq!(ts.runs.len(), 1);
        assert!(cap <= 1_250_000, "{cap}");
        assert!(copied <= 5 * ts.len(), "{copied}");
        ts.shrink_to_fit();
        assert_eq!(ts.values.capacity(), ts.len());
    }

    #[test]
    fn a_mostly_empty_series_stores_its_touched_buckets() {
        // 300 k buckets, 1 % non-empty: bursts of 10 touched buckets, one
        // burst per 1 000 buckets.
        let mut ts = TimeSeries::new(20);
        for burst in 0..300u64 {
            for b in 0..10 {
                ts.record_max((burst * 1000 + b) * 20, 1.0 + b as f64);
                ts.record_max((burst * 1000 + b) * 20 + 7, 0.0);
            }
        }
        ts.pad_until(300_000 * 20);
        ts.shrink_to_fit();
        assert_eq!(ts.len(), 300_000);
        assert_eq!((ts.runs.len(), ts.values.len()), (300, 3_000));
        let nonempty = ts.iter().filter(|&(_, v)| v != 0.0).count();
        let held = 16 * ts.runs.capacity() + 8 * ts.values.capacity();
        assert!(
            held <= 10 * nonempty,
            "{held} B for {nonempty} non-empty buckets"
        );
        assert_eq!(ts.total(), 300.0 * 55.0);
        assert_eq!(ts.max(), 10.0);
    }

    #[test]
    #[should_panic]
    fn zero_interval_panics() {
        TimeSeries::new(0);
    }
}
