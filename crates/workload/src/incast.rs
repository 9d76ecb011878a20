//! Cyclic incast bursts (the paper's Section 4 workload).
//!
//! A coordinator on the receiver host repeatedly queries N workers, each of
//! which responds with `per_flow_bytes` over its persistent connection. The
//! next burst begins a think-time after all responses of the current burst
//! arrive (partition/aggregate request-response), or on a fixed period.
//! Request send times are jittered uniformly over a configurable range
//! (0–100 µs by default, per the paper).
//!
//! The coordinator records per-burst completion times (BCTs) and burst
//! windows for queue-trace alignment.

use simnet::{FlowId, NodeId, SimTime};
use stats::Rng;
use telemetry::{Event, EventClass, EventKind, SinkRef};
use transport::{TcpApi, TcpApp};

/// How successive bursts are scheduled.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum BurstSchedule {
    /// Burst k+1 starts `gap` after burst k completes (request-response).
    AfterCompletion {
        /// Think time between completion and the next query.
        gap: SimTime,
    },
    /// Bursts start every `period` regardless of completion (open loop).
    Periodic {
        /// Burst start spacing.
        period: SimTime,
    },
}

stats::variants!(BurstSchedule {
    AfterCompletion { gap } => "after_completion",
    Periodic { period } => "periodic",
});

/// Configuration of the cyclic incast coordinator.
#[derive(Debug, Clone)]
pub struct IncastConfig {
    /// Worker hosts; flow `i` connects worker `i` to the coordinator.
    pub workers: Vec<NodeId>,
    /// Response bytes per worker per burst.
    pub per_flow_bytes: u64,
    /// Number of bursts to run.
    pub num_bursts: u32,
    /// Request jitter range (uniform `[0, jitter)`), the paper's 0–100 µs.
    pub jitter: SimTime,
    /// Burst scheduling policy.
    pub schedule: BurstSchedule,
    /// Optional receiver-side incast scheduling (the paper's §5.2 "divide a
    /// large incast into a series of smaller incasts"): workers are split
    /// into groups of `group_size` whose requests go out `group_gap` apart.
    pub grouping: Option<Grouping>,
    /// RNG seed for the jitter.
    pub seed: u64,
    /// Offset added to worker indices when minting [`FlowId`]s: worker `i`
    /// talks on `FlowId(flow_base + i)`. Lets several coordinators coexist
    /// in one fabric (the rack-contention sweep runs one incast group per
    /// rack) with disjoint flow-id spaces, keeping traces and the ECMP
    /// flow hash unambiguous. Zero for the single-coordinator paper setup.
    pub flow_base: u32,
}

/// Receiver-side incast scheduling parameters (§5.2 mitigation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Grouping {
    /// Workers per group (flows simultaneously active).
    pub group_size: usize,
    /// Delay between consecutive groups' requests.
    pub group_gap: SimTime,
}

stats::leaves!(Grouping: group_size, group_gap);

impl IncastConfig {
    /// The paper's setup for a given worker set: equal demand sized so the
    /// burst lasts `burst_ms` at the 10 Gbps bottleneck.
    pub fn paper(workers: Vec<NodeId>, burst_ms: f64, num_bursts: u32, seed: u64) -> Self {
        let total_bytes = (10_000_000_000.0 / 8.0 * burst_ms / 1000.0) as u64;
        let per_flow_bytes = (total_bytes / workers.len() as u64).max(1);
        IncastConfig {
            workers,
            per_flow_bytes,
            num_bursts,
            jitter: SimTime::from_us(100),
            schedule: BurstSchedule::AfterCompletion {
                gap: SimTime::from_ms(2),
            },
            grouping: None,
            seed,
            flow_base: 0,
        }
    }
}

/// Per-burst outcome.
#[derive(Debug, Clone, Copy)]
pub struct BurstOutcome {
    /// When the first request of the burst was issued.
    pub start: SimTime,
    /// When the last response byte arrived.
    pub end: SimTime,
}

impl BurstOutcome {
    /// Burst completion time.
    pub fn bct(&self) -> SimTime {
        self.end - self.start
    }
}

/// Timer key for the next-burst timer.
const NEXT_BURST: u64 = 0;
/// Request timers are `REQUEST_BASE + worker index`.
const REQUEST_BASE: u64 = 1;

/// The coordinator application. Install on the receiver host (wrapped in
/// `TcpHost`), with [`crate::Worker`]s on the senders.
#[derive(Debug)]
pub struct CyclicCoordinator {
    cfg: IncastConfig,
    rng: Rng,
    burst_idx: u32,
    /// Cumulative bytes expected per flow by the end of the current burst.
    expected_total: u64,
    /// Burst start time (first request issue time).
    burst_start: SimTime,
    flows_done: usize,
    /// Completed bursts.
    pub outcomes: Vec<BurstOutcome>,
    /// Telemetry sink for burst boundary events.
    sink: Option<SinkRef>,
}

impl CyclicCoordinator {
    /// Creates the coordinator.
    pub fn new(cfg: IncastConfig) -> Self {
        assert!(!cfg.workers.is_empty(), "no workers");
        assert!(cfg.per_flow_bytes > 0, "zero demand");
        assert!(cfg.num_bursts > 0, "zero bursts");
        let rng = Rng::new(cfg.seed).fork(0xC0_0D);
        CyclicCoordinator {
            cfg,
            rng,
            burst_idx: 0,
            expected_total: 0,
            burst_start: SimTime::ZERO,
            flows_done: 0,
            outcomes: Vec::new(),
            sink: None,
        }
    }

    /// Attaches a telemetry sink: burst boundaries are reported as
    /// [`EventKind::BurstStart`] / [`EventKind::BurstEnd`] events (the
    /// trace markers used to align queue and flow telemetry per burst).
    /// A sink not subscribing to [`EventClass::App`] is dropped here.
    pub fn set_sink(&mut self, sink: SinkRef) {
        if sink.accepts(EventClass::App) {
            self.sink = Some(sink);
        }
    }

    /// True when every configured burst has completed.
    pub fn finished(&self) -> bool {
        self.outcomes.len() == self.cfg.num_bursts as usize
    }

    /// Completed burst completion times in milliseconds.
    pub fn bcts_ms(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.bct().as_ms_f64()).collect()
    }

    fn request_delay(&mut self, worker_idx: usize) -> SimTime {
        let jitter = if self.cfg.jitter > SimTime::ZERO {
            SimTime::from_ps(self.rng.below(self.cfg.jitter.as_ps()))
        } else {
            SimTime::ZERO
        };
        match self.cfg.grouping {
            None => jitter,
            Some(g) => {
                assert!(g.group_size > 0, "zero group size");
                let group = worker_idx / g.group_size;
                jitter + g.group_gap.mul(group as u64)
            }
        }
    }

    fn start_burst(&mut self, api: &mut TcpApi) {
        self.burst_start = api.now();
        self.expected_total += self.cfg.per_flow_bytes;
        self.flows_done = 0;
        for i in 0..self.cfg.workers.len() {
            let delay = self.request_delay(i);
            api.set_app_timer_after(REQUEST_BASE + i as u64, delay);
        }
        if let Some(s) = &self.sink {
            s.emit(&Event {
                t_ps: api.now().as_ps(),
                kind: EventKind::BurstStart {
                    burst: self.burst_idx,
                    flows: self.cfg.workers.len() as u32,
                    per_flow_bytes: self.cfg.per_flow_bytes,
                },
            });
        }
    }

    fn maybe_finish_burst(&mut self, api: &mut TcpApi) {
        if self.flows_done < self.cfg.workers.len() {
            return;
        }
        let outcome = BurstOutcome {
            start: self.burst_start,
            end: api.now(),
        };
        if let Some(s) = &self.sink {
            s.emit(&Event {
                t_ps: api.now().as_ps(),
                kind: EventKind::BurstEnd {
                    burst: self.burst_idx,
                    bct_ms: outcome.bct().as_ms_f64(),
                },
            });
        }
        self.outcomes.push(outcome);
        self.burst_idx += 1;
        if self.burst_idx >= self.cfg.num_bursts {
            return;
        }
        match self.cfg.schedule {
            BurstSchedule::AfterCompletion { gap } => {
                api.set_app_timer_after(NEXT_BURST, gap);
            }
            BurstSchedule::Periodic { .. } => {
                // Periodic bursts are armed at start time; nothing to do.
            }
        }
    }
}

impl TcpApp for CyclicCoordinator {
    fn on_start(&mut self, api: &mut TcpApi) {
        match self.cfg.schedule {
            BurstSchedule::AfterCompletion { .. } => self.start_burst(api),
            BurstSchedule::Periodic { period } => {
                // Arm every burst start now; completion only records BCTs.
                for k in 0..self.cfg.num_bursts {
                    if k == 0 {
                        self.start_burst(api);
                    } else {
                        // One dedicated key per burst start (timer keys are
                        // one-shot; re-arming a key supersedes it).
                        let key = REQUEST_BASE + self.cfg.workers.len() as u64 + k as u64;
                        api.set_app_timer(key, period.mul(k as u64));
                    }
                }
            }
        }
    }

    fn on_app_timer(&mut self, api: &mut TcpApi, id: u64) {
        if id == NEXT_BURST {
            self.start_burst(api);
            return;
        }
        let req = id - REQUEST_BASE;
        let n = self.cfg.workers.len() as u64;
        if req < n {
            // Issue the (jittered) request to worker `req`.
            let worker = self.cfg.workers[req as usize];
            api.send_ctrl(
                worker,
                FlowId(self.cfg.flow_base + req as u32),
                self.cfg.per_flow_bytes,
                self.burst_idx as u64,
            );
        } else {
            // A periodic burst start.
            self.start_burst(api);
        }
    }

    fn on_receive(&mut self, api: &mut TcpApi, flow: FlowId, _newly: u64, total: u64) {
        debug_assert!(
            flow.0 >= self.cfg.flow_base
                && ((flow.0 - self.cfg.flow_base) as usize) < self.cfg.workers.len()
        );
        // A flow is done with the current burst when its cumulative
        // delivery reaches the cumulative expectation.
        if total >= self.expected_total && total - _newly < self.expected_total {
            self.flows_done += 1;
            self.maybe_finish_burst(api);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::worker::Worker;
    use simnet::{build_dumbbell, IncastFabric, Shared};
    use transport::{TcpConfig, TcpHost};

    fn build(
        n: usize,
        burst_ms: f64,
        num_bursts: u32,
        grouping: Option<Grouping>,
    ) -> (IncastFabric, Shared<CyclicCoordinator>) {
        let mut fabric = build_dumbbell(n, 11);
        for (i, &s) in fabric.senders.iter().enumerate() {
            let worker = Worker::new(Rng::new(1000 + i as u64));
            fabric.sim.set_endpoint(
                s,
                Box::new(TcpHost::new(TcpConfig::default(), Box::new(worker))),
            );
        }
        let mut cfg = IncastConfig::paper(fabric.senders.clone(), burst_ms, num_bursts, 3);
        cfg.grouping = grouping;
        let app = Shared::new(CyclicCoordinator::new(cfg));
        let handle = app.handle();
        let host = TcpHost::new(TcpConfig::default(), Box::new(app));
        fabric.sim.set_endpoint(fabric.receivers[0], Box::new(host));
        (fabric, handle)
    }

    #[test]
    fn completes_all_bursts_and_records_bcts() {
        let (mut fabric, coord) = build(5, 1.0, 3, None);
        fabric.sim.run();
        let c = coord.borrow();
        assert!(c.finished());
        assert_eq!(c.outcomes.len(), 3);
        for o in &c.outcomes {
            let bct = o.bct().as_ms_f64();
            // 1 ms of data over a shared 10 Gbps bottleneck: near-optimal
            // BCT is ~1 ms; allow slack for jitter and slow start.
            assert!(bct > 0.5 && bct < 10.0, "bct {bct} ms");
        }
        // Bursts don't overlap and respect the 2 ms gap.
        for w in c.outcomes.windows(2) {
            assert!(w[1].start >= w[0].end + SimTime::from_ms(2));
        }
    }

    #[test]
    fn flow_base_offsets_flow_ids_without_changing_behavior() {
        let (mut fabric, coord) = build(4, 0.5, 2, None);
        {
            coord.borrow_mut().cfg.flow_base = 700;
        }
        fabric.sim.run();
        assert!(coord.borrow().finished());
        assert_eq!(coord.borrow().outcomes.len(), 2);
    }

    #[test]
    fn demand_sizing_matches_paper_formula() {
        let cfg = IncastConfig::paper(vec![NodeId(0); 100], 15.0, 11, 0);
        // 15 ms x 10 Gbps = 18.75 MB; / 100 flows = 187.5 KB.
        assert_eq!(cfg.per_flow_bytes, 187_500);
    }

    #[test]
    fn grouping_staggers_requests() {
        let (mut fabric, coord) = build(
            6,
            1.0,
            1,
            Some(Grouping {
                group_size: 2,
                group_gap: SimTime::from_ms(1),
            }),
        );
        fabric.sim.run();
        let c = coord.borrow();
        assert!(c.finished());
        // Three groups 1 ms apart: the burst takes at least 2 ms even
        // though the data itself fits in ~1 ms.
        assert!(c.outcomes[0].bct() >= SimTime::from_ms(2));
    }

    #[test]
    fn sink_reports_burst_boundaries() {
        let (mut fabric, coord) = build(3, 0.5, 2, None);
        let (jsonl, sref) = telemetry::JsonlSink::new().shared();
        coord.borrow_mut().set_sink(sref);
        fabric.sim.run();
        assert!(coord.borrow().finished());
        let out = jsonl.borrow().render();
        let starts = out.lines().filter(|l| l.contains(r#""ev":"burst_start""#));
        let ends: Vec<&str> = out
            .lines()
            .filter(|l| l.contains(r#""ev":"burst_end""#))
            .collect();
        assert_eq!(starts.count(), 2);
        assert_eq!(ends.len(), 2);
        assert!(ends[0].contains(r#""burst":0"#));
        assert!(ends[1].contains(r#""burst":1"#));
        assert!(ends[0].contains(r#""bct_ms":"#));
        assert!(out.contains(r#""flows":3"#));
    }

    #[test]
    fn periodic_schedule_runs_open_loop() {
        let (mut fabric, coord) = build(4, 0.5, 3, None);
        {
            coord.borrow_mut().cfg.schedule = BurstSchedule::Periodic {
                period: SimTime::from_ms(5),
            };
        }
        fabric.sim.run();
        let c = coord.borrow();
        assert_eq!(c.outcomes.len(), 3);
        // Starts are 5 ms apart (within jitter).
        let s0 = c.outcomes[0].start.as_ms_f64();
        let s1 = c.outcomes[1].start.as_ms_f64();
        let s2 = c.outcomes[2].start.as_ms_f64();
        assert!((s1 - s0 - 5.0).abs() < 0.2, "{s0} {s1}");
        assert!((s2 - s1 - 5.0).abs() < 0.2, "{s1} {s2}");
    }
}
