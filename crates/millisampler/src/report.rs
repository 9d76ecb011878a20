//! Fleet-level aggregation.
//!
//! The paper's Figures 2 and 4 are CDFs where "each sample corresponds to
//! one burst", pooled across hosts and snapshots of a service.
//! [`FleetAccumulator`] implements that pooling: feed it one
//! ([`MsTrace`], bursts, optional queue series) per host-trace and read out
//! the figure-ready CDFs.

use crate::burst::{bursts_per_second, Burst};
use crate::sampler::MsTrace;
use crate::watermark::peak_fraction;
use stats::{Cdf, TimeSeries};

/// One burst's contribution to the fleet CDFs, pre-reduced from the raw
/// trace so the trace itself need not be retained (or recomputed — rows are
/// what the sweep engine's run cache stores per host-trace).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstRow {
    /// Burst duration in ms.
    pub duration_ms: f64,
    /// Peak active flows.
    pub peak_flows: f64,
    /// ECN-marked fraction of bytes.
    pub marked_fraction: f64,
    /// Retransmitted volume as a fraction of line rate.
    pub retx_fraction: f64,
    /// Peak bottleneck-queue occupancy as a fraction of capacity; `None`
    /// when no queue series was recorded.
    pub queue_peak_fraction: Option<f64>,
}

stats::leaves!(BurstRow:
    duration_ms, peak_flows, marked_fraction, retx_fraction, queue_peak_fraction);

/// Fault and control-plane tallies carried alongside a trace's burst rows:
/// how many fault actions the simulator applied during the run, and the
/// notification lifecycle counts of the in-fabric control plane. All fields
/// are totals, so merging is plain addition — which makes fleet pooling
/// order-independent (see `merged_tallies_commute`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CtrlTallies {
    /// Fault-plan actions applied by the simulator.
    pub faults_applied: u64,
    /// Notification frames emitted by switches (first attempts + retries).
    pub notif_sent: u64,
    /// Notification acks consumed by switches.
    pub notif_acked: u64,
    /// Retry re-emissions (subset of `notif_sent`).
    pub notif_retries: u64,
    /// Emissions suppressed by injected control-path loss.
    pub notif_lost: u64,
}

stats::leaves!(CtrlTallies: faults_applied, notif_sent, notif_acked, notif_retries, notif_lost);

impl CtrlTallies {
    /// Adds another tally set into this one. Addition is commutative and
    /// associative, so any merge order yields the same totals.
    pub fn merge(&mut self, other: &CtrlTallies) {
        self.faults_applied += other.faults_applied;
        self.notif_sent += other.notif_sent;
        self.notif_acked += other.notif_acked;
        self.notif_retries += other.notif_retries;
        self.notif_lost += other.notif_lost;
    }

    /// True when any counter is nonzero (i.e. worth rendering).
    pub fn any(&self) -> bool {
        *self != CtrlTallies::default()
    }
}

/// Everything [`FleetAccumulator`] needs from one host-trace: the two
/// per-trace scalars plus one [`BurstRow`] per detected burst. This is the
/// streaming (and cacheable) form of [`FleetAccumulator::add_trace`] — a
/// sweep reduces each run to a summary, and the accumulator consumes
/// summaries incrementally.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSummary {
    /// Bursts per second over the trace (Fig. 2a sample).
    pub bursts_per_sec: f64,
    /// Mean utilization over the trace.
    pub mean_utilization: f64,
    /// Per-burst rows, in burst order.
    pub per_burst: Vec<BurstRow>,
    /// Fault/notification tallies for the run behind this trace. Zero when
    /// the run had no fault plan and no control plane (the trace itself
    /// cannot reveal them, so [`TraceSummary::from_trace`] leaves them at
    /// zero and the runner attaches the simulator counters).
    pub tallies: CtrlTallies,
}

stats::leaves!(TraceSummary: bursts_per_sec, mean_utilization, per_burst, tallies);

impl TraceSummary {
    /// Reduces one host-trace to its summary. Arguments mirror
    /// [`FleetAccumulator::add_trace`].
    pub fn from_trace(
        trace: &MsTrace,
        bursts: &[Burst],
        queue: Option<(&TimeSeries, f64)>,
    ) -> Self {
        let per_burst = bursts
            .iter()
            .map(|b| BurstRow {
                duration_ms: b.duration_ms(trace),
                peak_flows: b.peak_flows as f64,
                marked_fraction: b.marked_fraction(),
                retx_fraction: b.retx_fraction_of_line_rate(trace),
                queue_peak_fraction: queue.map(|(series, capacity)| {
                    let t0 = b.start_bucket as u64 * trace.interval.as_ps();
                    let t1 = t0 + b.len_buckets as u64 * trace.interval.as_ps();
                    peak_fraction(series, t0, t1, capacity)
                }),
            })
            .collect();
        TraceSummary {
            bursts_per_sec: bursts_per_second(trace, bursts),
            mean_utilization: trace.mean_utilization(),
            per_burst,
            tallies: CtrlTallies::default(),
        }
    }

    /// Attaches the run's fault/notification tallies (builder-style).
    pub fn with_tallies(mut self, tallies: CtrlTallies) -> Self {
        self.tallies = tallies;
        self
    }
}

/// Coverage accounting for a supervised fleet/sweep: how many of the
/// planned runs actually contributed samples, and what happened to the
/// rest. Aggregates (CDFs, sketches, accumulators) only ever see the `ran`
/// subset; the counts here are what makes a partial aggregate honest.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCoverage {
    /// Runs planned.
    pub total: u64,
    /// Runs that completed and were aggregated.
    pub ran: u64,
    /// Runs that panicked (isolated; quarantined when a dir is set).
    pub failed: u64,
    /// Runs cut short by a budget guard (excluded from aggregates).
    pub truncated: u64,
    /// Transient-IO retries consumed while persisting results.
    pub retried: u64,
}

impl RunCoverage {
    /// True when every planned run was aggregated.
    pub fn complete(&self) -> bool {
        self.ran == self.total
    }

    /// Fixed-order JSON object for run manifests.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"total\":{},\"ran\":{},\"failed\":{},\"truncated\":{},\"retried\":{}}}",
            self.total, self.ran, self.failed, self.truncated, self.retried
        )
    }

    /// One stable human-readable line (grepped by the CI fault-matrix job).
    pub fn summary(&self) -> String {
        format!(
            "coverage: ran={}/{} failed={} truncated={} retried={}",
            self.ran, self.total, self.failed, self.truncated, self.retried
        )
    }
}

/// Pooled per-burst and per-trace distributions for one service.
#[derive(Debug, Default)]
pub struct FleetAccumulator {
    /// Per-trace: bursts per second (Fig. 2a).
    pub burst_frequency: Cdf,
    /// Per-burst: duration in ms (Fig. 2b).
    pub burst_duration_ms: Cdf,
    /// Per-burst: peak active flows (Fig. 2c).
    pub burst_flows: Cdf,
    /// Per-burst: ECN-marked fraction of bytes (Fig. 4b).
    pub marked_fraction: Cdf,
    /// Per-burst: retransmitted volume as a fraction of line rate (Fig. 4c).
    pub retx_fraction: Cdf,
    /// Per-burst: peak bottleneck-queue occupancy as a fraction of capacity
    /// (Fig. 4a); empty if no queue series was supplied.
    pub queue_peak_fraction: Cdf,
    /// Per-trace: mean utilization (diagnostic; the paper reports ~10 %).
    pub utilization: Cdf,
    /// Pooled fault/notification tallies across the accumulated traces.
    pub tallies: CtrlTallies,
    /// Traces accumulated.
    pub traces: usize,
}

impl FleetAccumulator {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one host-trace. `queue` is the bottleneck queue's depth series
    /// in *packets* with `queue_capacity_pkts` capacity, if recorded.
    pub fn add_trace(
        &mut self,
        trace: &MsTrace,
        bursts: &[Burst],
        queue: Option<(&TimeSeries, f64)>,
    ) {
        self.add_summary(&TraceSummary::from_trace(trace, bursts, queue));
    }

    /// Adds one pre-reduced host-trace. Equivalent to [`Self::add_trace`]
    /// on the summary's source trace, sample for sample.
    pub fn add_summary(&mut self, summary: &TraceSummary) {
        self.traces += 1;
        self.tallies.merge(&summary.tallies);
        self.burst_frequency.add(summary.bursts_per_sec);
        self.utilization.add(summary.mean_utilization);
        for row in &summary.per_burst {
            self.burst_duration_ms.add(row.duration_ms);
            self.burst_flows.add(row.peak_flows);
            self.marked_fraction.add(row.marked_fraction);
            self.retx_fraction.add(row.retx_fraction);
            if let Some(f) = row.queue_peak_fraction {
                self.queue_peak_fraction.add(f);
            }
        }
    }

    /// Total bursts pooled.
    pub fn total_bursts(&self) -> usize {
        self.burst_duration_ms.len()
    }

    /// Fraction of pooled bursts that qualify as incasts (>25 flows).
    pub fn incast_fraction(&mut self) -> f64 {
        if self.burst_flows.is_empty() {
            return 0.0;
        }
        1.0 - self
            .burst_flows
            .fraction_at_or_below(crate::burst::INCAST_FLOW_THRESHOLD as f64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::MsBucket;
    use simnet::{Rate, SimTime};

    fn hot_trace() -> (MsTrace, Vec<Burst>) {
        let line_rate = Rate::gbps(10);
        let per_bucket = (line_rate.bytes_per_sec() / 1000.0) as u64;
        let mk = |util: f64, flows: u32| MsBucket {
            bytes: (util * per_bucket as f64) as u64,
            marked_bytes: 0,
            retx_bytes: 0,
            flows,
            pkts: 10,
        };
        let trace = MsTrace {
            interval: SimTime::from_ms(1),
            line_rate,
            buckets: vec![mk(0.1, 2), mk(0.9, 100), mk(0.9, 120), mk(0.1, 1)],
            partial_last: false,
        };
        let bursts = crate::burst::detect_bursts(&trace);
        (trace, bursts)
    }

    #[test]
    fn coverage_renders_json_and_summary() {
        let cov = RunCoverage {
            total: 6,
            ran: 4,
            failed: 1,
            truncated: 1,
            retried: 2,
        };
        assert!(!cov.complete());
        assert_eq!(
            cov.to_json(),
            r#"{"total":6,"ran":4,"failed":1,"truncated":1,"retried":2}"#
        );
        assert_eq!(
            cov.summary(),
            "coverage: ran=4/6 failed=1 truncated=1 retried=2"
        );
        let full = RunCoverage {
            total: 3,
            ran: 3,
            ..RunCoverage::default()
        };
        assert!(full.complete());
    }

    #[test]
    fn accumulates_per_burst_and_per_trace() {
        let (trace, bursts) = hot_trace();
        assert_eq!(bursts.len(), 1);
        let mut acc = FleetAccumulator::new();
        acc.add_trace(&trace, &bursts, None);
        acc.add_trace(&trace, &bursts, None);
        assert_eq!(acc.traces, 2);
        assert_eq!(acc.total_bursts(), 2);
        assert_eq!(acc.burst_frequency.len(), 2);
        assert_eq!(acc.burst_duration_ms.percentile(50.0), 2.0);
        assert_eq!(acc.burst_flows.percentile(100.0), 120.0);
        assert!(acc.queue_peak_fraction.is_empty());
        assert!((acc.incast_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn queue_series_drives_peak_fraction() {
        let (trace, bursts) = hot_trace();
        // Queue depth series at 0.5 ms buckets: peak 666 pkts inside the
        // burst window [1 ms, 3 ms).
        let mut q = TimeSeries::new(SimTime::from_us(500).as_ps());
        q.record_max(SimTime::from_us(1600).as_ps(), 666.0);
        q.record_max(SimTime::from_us(3500).as_ps(), 1333.0); // outside burst
        let mut acc = FleetAccumulator::new();
        acc.add_trace(&trace, &bursts, Some((&q, 1333.0)));
        assert_eq!(acc.queue_peak_fraction.len(), 1);
        let f = acc.queue_peak_fraction.percentile(50.0);
        assert!((f - 666.0 / 1333.0).abs() < 1e-9, "fraction {f}");
    }

    #[test]
    fn add_summary_matches_add_trace() {
        let (trace, bursts) = hot_trace();
        let mut q = TimeSeries::new(SimTime::from_us(500).as_ps());
        q.record_max(SimTime::from_us(1600).as_ps(), 666.0);
        let queue = Some((&q, 1333.0));

        let mut direct = FleetAccumulator::new();
        direct.add_trace(&trace, &bursts, queue);
        let summary = TraceSummary::from_trace(&trace, &bursts, queue);
        let mut via_summary = FleetAccumulator::new();
        via_summary.add_summary(&summary);

        assert_eq!(direct.traces, via_summary.traces);
        assert_eq!(
            direct.burst_flows.samples(),
            via_summary.burst_flows.samples()
        );
        assert_eq!(
            direct.queue_peak_fraction.samples(),
            via_summary.queue_peak_fraction.samples()
        );
        assert_eq!(
            direct.burst_frequency.samples(),
            via_summary.burst_frequency.samples()
        );
    }

    #[test]
    fn merged_tallies_commute() {
        let t = |f: u64, s: u64, a: u64, r: u64, l: u64| CtrlTallies {
            faults_applied: f,
            notif_sent: s,
            notif_acked: a,
            notif_retries: r,
            notif_lost: l,
        };
        let (trace, bursts) = hot_trace();
        let summaries: Vec<TraceSummary> = [t(1, 10, 9, 2, 1), t(0, 0, 0, 0, 0), t(7, 3, 3, 0, 0)]
            .iter()
            .map(|&tal| TraceSummary::from_trace(&trace, &bursts, None).with_tallies(tal))
            .collect();
        let mut fwd = FleetAccumulator::new();
        let mut rev = FleetAccumulator::new();
        for s in &summaries {
            fwd.add_summary(s);
        }
        for s in summaries.iter().rev() {
            rev.add_summary(s);
        }
        assert_eq!(fwd.tallies, rev.tallies);
        assert_eq!(fwd.tallies, t(8, 13, 12, 2, 1));
        assert!(fwd.tallies.any());
        assert!(!CtrlTallies::default().any());
        // from_trace alone never invents tallies.
        assert_eq!(
            TraceSummary::from_trace(&trace, &bursts, None).tallies,
            CtrlTallies::default()
        );
    }

    #[test]
    fn incast_fraction_with_small_bursts() {
        let line_rate = Rate::gbps(10);
        let per_bucket = (line_rate.bytes_per_sec() / 1000.0) as u64;
        let trace = MsTrace {
            interval: SimTime::from_ms(1),
            line_rate,
            buckets: vec![
                MsBucket {
                    bytes: per_bucket,
                    flows: 5,
                    ..Default::default()
                },
                MsBucket::default(),
                MsBucket {
                    bytes: per_bucket,
                    flows: 200,
                    ..Default::default()
                },
            ],
            partial_last: false,
        };
        let bursts = crate::burst::detect_bursts(&trace);
        let mut acc = FleetAccumulator::new();
        acc.add_trace(&trace, &bursts, None);
        assert!((acc.incast_fraction() - 0.5).abs() < 1e-12);
    }
}
