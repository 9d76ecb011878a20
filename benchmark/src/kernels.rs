//! Per-layer kernels: each times one public operation of one module in a
//! tight loop, away from any workload. They are the unit costs behind the
//! `est` rows of the Amdahl tables and the floor under every workload.
//! None depends on `--seed`.

use crate::inputs::{threads, Inputs};
use crate::probes::Timed;
use crate::summary::median;
use incast_core::cache::{incast_key, CacheValue};
use incast_core::modes::{run_incast_instrumented, IncastRunResult, ModesConfig};
use incast_core::sweep::{run_incast_sweep, IncastSweepAggregate};
use incast_core::{par_map, RunCache};
use simnet::{
    build_dumbbell, BufferPolicy, ControlConfig, ControlPlane, CtrlAction, Ctx, EcnQueue, Endpoint,
    EventKind, FlowId, LinkId, NodeId, Packet, QueueConfig, Scheduler, SharedBuffer, SimTime,
    TimingWheel,
};
use stats::{QuantileSketch, Rng};
use std::cell::RefCell;
use std::hint::black_box;
use std::path::Path;
use std::rc::Rc;
use std::time::Instant;
use telemetry::{PerfettoSink, SinkRef};
use transport::{AckRanges, CcaCtx, CcaKind, TcpApi, TcpApp, TcpConfig, TcpHost};

/// Median over three timed repetitions of `iters` calls (after a tenth as
/// warm-up), in nanoseconds per call.
fn ns_per_op(iters: u64, mut op: impl FnMut() -> u64) -> f64 {
    let mut acc = 0u64;
    for _ in 0..iters / 10 + 1 {
        acc = acc.wrapping_add(op());
    }
    let reps: Vec<f64> = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                acc = acc.wrapping_add(op());
            }
            t0.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    black_box(acc);
    median(&reps)
}

/// The hold model of `simperf`: a constant population of pending timers,
/// pop one / schedule one, 10 % of them RTO-like 200 ms hops that land in
/// the wheel's upper levels.
fn wheel_hold_ns(pending: usize, iters: u64) -> f64 {
    let mut wheel = TimingWheel::default();
    let mut rng = Rng::new(9);
    let kind = EventKind::Timer {
        node: NodeId(0),
        key: 0,
        gen: 0,
    };
    let mut horizon = |now: SimTime| {
        let delta = if rng.chance(0.1) {
            SimTime::from_ms(200).as_ps()
        } else {
            rng.below(1 << 24)
        };
        SimTime::from_ps(now.as_ps() + delta)
    };
    for _ in 0..pending {
        let at = horizon(SimTime::ZERO);
        wheel.schedule(at, kind);
    }
    ns_per_op(iters, || {
        let ev = wheel.pop().expect("population is constant");
        let at = horizon(ev.time);
        wheel.schedule(at, kind);
        ev.time.as_ps()
    })
}

fn data_pkt(flow: u32, src: NodeId, dst: NodeId) -> Packet {
    Packet::data(FlowId(flow), src, dst, 0, 1446, false, SimTime::ZERO)
}

fn queue_enq_deq_ns() -> f64 {
    let mut q = EcnQueue::new(QueueConfig::paper_tor());
    let pkt = data_pkt(0, NodeId(0), NodeId(1));
    ns_per_op(2_000_000, || {
        black_box(q.enqueue(SimTime::ZERO, pkt));
        q.dequeue(SimTime::ZERO).map_or(0, |p| p.id)
    })
}

fn buffer_admit_ns() -> f64 {
    let mut buf = SharedBuffer::new(4_000_000, BufferPolicy::DynamicThreshold { alpha: 1.0 });
    let mut queued = 0u64;
    ns_per_op(4_000_000, || {
        if buf.admit(queued, 1500) {
            buf.on_enqueue(1500);
            queued += 1500;
        } else {
            buf.on_dequeue(queued);
            queued = 0;
        }
        queued
    })
}

fn ecmp_pick_ns() -> f64 {
    let links = [LinkId(10), LinkId(11), LinkId(12), LinkId(13)];
    let mut flow = 0u32;
    ns_per_op(2_000_000, || {
        flow = flow.wrapping_add(1);
        simnet::ecmp_pick(7, flow & 0xff, 300, flow, &links).map_or(0, |l| l.0 as u64)
    })
}

/// `ControlPlane::record` as `clos_pulser` drives it: 256 flows arriving
/// round-robin at line rate on one monitored port. Episodes never open
/// (nothing calls `begin_episode`), which is also what a dead plane pays.
fn control_record_ns() -> f64 {
    let cfg = ControlConfig {
        ports: vec![LinkId(0)],
        action: CtrlAction::Pause,
        flow_threshold: 8,
        window_bytes: 62_500,
        window: SimTime::from_us(100),
        pause: SimTime::from_us(150),
        cooldown: SimTime::from_us(300),
        retry_timeout: SimTime::from_us(100),
        max_retries: 5,
        notif_loss: 1.0,
        seed: 1,
    };
    let mut plane = ControlPlane::new(cfg, 1, |_| NodeId(0));
    let (mut now, mut flow) = (SimTime::ZERO, 0u32);
    ns_per_op(2_000_000, || {
        now += SimTime::from_ps(1_200_000); // one 1500 B frame at 10 Gbps
        flow = (flow + 1) % 256;
        plane.record(now, 0, flow, NodeId(flow), 1500) as u64
    })
}

fn ack_ranges_insert_ns() -> f64 {
    let mut ranges = AckRanges::new();
    let mut pn = 0u64;
    ns_per_op(2_000_000, || {
        // Mostly in-order, every 16th packet number skipped: a handful of
        // live ranges, restarted before the set grows past the 8 a receiver
        // typically holds.
        pn += 1 + pn.is_multiple_of(16) as u64;
        if ranges.num_ranges() > 8 {
            ranges.clear();
        }
        ranges.insert_one(pn) as u64
    })
}

fn dctcp_ack_ns() -> f64 {
    let mut cca = CcaKind::default().build(14_460, 1446);
    let mut ctx = CcaCtx {
        now: SimTime::ZERO,
        mss: 1446,
        min_cwnd: 1446,
        snd_nxt: 14_460,
        snd_una: 0,
        in_recovery: false,
    };
    let rtt = Some(SimTime::from_us(30));
    ns_per_op(4_000_000, || {
        ctx.snd_una += 1446;
        ctx.snd_nxt += 1446;
        ctx.now += SimTime::from_ps(1_200_000);
        cca.on_ack(&ctx, 1446, ctx.snd_una.is_multiple_of(8 * 1446), rtt);
        cca.cwnd()
    })
}

const WIRE_SENDERS: usize = 4;
const WIRE_FRAMES: u64 = 15_000;

/// Trivial endpoint: keeps 32 MSS frames in flight towards `to`, clocked
/// by the sink's replies, until `left` are sent. No transport state.
struct Blast {
    to: NodeId,
    left: u64,
}

impl Blast {
    fn send(&mut self, ctx: &mut Ctx) {
        if self.left > 0 {
            self.left -= 1;
            ctx.send(data_pkt(ctx.node().0, ctx.node(), self.to));
        }
    }
}

impl Endpoint for Blast {
    fn on_start(&mut self, ctx: &mut Ctx) {
        for _ in 0..32 {
            self.send(ctx);
        }
    }
    fn on_packet(&mut self, ctx: &mut Ctx, _pkt: Packet) {
        self.send(ctx);
    }
}

/// Answers every frame with a minimum-size ACK.
struct Reply;

impl Endpoint for Reply {
    fn on_packet(&mut self, ctx: &mut Ctx, pkt: Packet) {
        ctx.send(Packet::ack(
            pkt.flow,
            ctx.node(),
            pkt.src,
            0,
            false,
            SimTime::ZERO,
        ));
    }
}

struct Echo;
impl TcpApp for Echo {
    fn on_ctrl(&mut self, api: &mut TcpApi, from: NodeId, flow: FlowId, demand: u64, _burst: u64) {
        api.open_sender(flow, from);
        api.add_demand(flow, demand);
    }
}

struct Request(Vec<NodeId>);
impl TcpApp for Request {
    fn on_start(&mut self, api: &mut TcpApi) {
        for (i, w) in self.0.iter().enumerate() {
            api.send_ctrl(*w, FlowId(i as u32), WIRE_FRAMES * 1446, 0);
        }
    }
}

/// `(ns per event, ns per delivered packet)` of a four-sender bulk
/// transfer over the dumbbell; `tcp` picks `TcpHost` endpoints over the
/// transport-free [`Blast`]/[`Reply`] pair. Median of three runs.
fn wire_cost(tcp: bool) -> (f64, f64) {
    let runs: Vec<(f64, f64)> = (0..3)
        .map(|_| {
            let mut f = build_dumbbell(WIRE_SENDERS, 11);
            let rx = f.receivers[0];
            for &s in &f.senders {
                let ep: Box<dyn Endpoint> = if tcp {
                    Box::new(TcpHost::new(TcpConfig::default(), Box::new(Echo)))
                } else {
                    Box::new(Blast {
                        to: rx,
                        left: WIRE_FRAMES,
                    })
                };
                f.sim.set_endpoint(s, ep);
            }
            let sink: Box<dyn Endpoint> = if tcp {
                let app = Request(f.senders.clone());
                Box::new(TcpHost::new(TcpConfig::default(), Box::new(app)))
            } else {
                Box::new(Reply)
            };
            f.sim.set_endpoint(rx, sink);
            let t0 = Instant::now();
            f.sim.run_until(SimTime::from_secs(2));
            let ns = t0.elapsed().as_nanos() as f64;
            let c = f.sim.counters();
            assert!(
                c.delivered_pkts >= 2 * WIRE_SENDERS as u64 * WIRE_FRAMES,
                "bulk transfer did not finish"
            );
            (ns / c.events_processed as f64, ns / c.delivered_pkts as f64)
        })
        .collect();
    let col = |f: fn(&(f64, f64)) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    (col(|r| r.0), col(|r| r.1))
}

/// A cache payload small enough that the cache's own mechanics dominate.
struct Blob(u64);

impl CacheValue for Blob {
    fn encode(&self) -> String {
        self.0.to_string()
    }
    fn decode(s: &str) -> Option<Self> {
        s.parse().ok().map(Blob)
    }
}

/// Where the disk-cache kernel may write: under the build's target
/// directory, which is inside the checkout and ignored by git.
fn scratch_dir() -> std::path::PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "benchmark/target".into());
    Path::new(&target).join(format!("bench-tmp-{}", std::process::id()))
}

fn cache_rows(out: &mut Vec<(&'static str, f64)>, cfgs: &[ModesConfig]) {
    let mut i = 0;
    out.push((
        "core.cache.key_ns",
        ns_per_op(50_000, || {
            i = (i + 1) % cfgs.len();
            incast_key(&cfgs[i]).len() as u64
        }),
    ));
    let cache = RunCache::in_memory();
    let keys: Vec<String> = (0..1024).map(|k| format!("bench/blob/{k}")).collect();
    for (k, key) in keys.iter().enumerate() {
        cache.get_or_compute(key, || Blob(k as u64));
    }
    out.push((
        "core.cache.hit_ns",
        ns_per_op(500_000, || {
            i = (i + 1) % keys.len();
            cache.get::<Blob>(&keys[i]).map_or(0, |b| b.0)
        }),
    ));
    let mut fresh = 0u64;
    out.push((
        "core.cache.miss_insert_ns",
        ns_per_op(100_000, || {
            fresh += 1;
            cache
                .get_or_compute(&format!("bench/miss/{fresh}"), || Blob(fresh))
                .0
        }),
    ));

    // Disk layer: fill it with the sweep's real results, then read all of
    // them back through a cache whose memory is empty.
    let dir = scratch_dir();
    let writer = RunCache::with_disk(&dir);
    let cold = run_incast_sweep(cfgs, threads(), &writer);
    let reader = RunCache::with_disk(&dir);
    let t0 = Instant::now();
    let warm = run_incast_sweep(cfgs, 1, &reader);
    let load_ms = t0.elapsed().as_secs_f64() * 1e3;
    let _ = std::fs::remove_dir_all(&dir);
    let digest = |runs: &[std::sync::Arc<IncastRunResult>]| {
        IncastSweepAggregate::from_runs(runs.iter().map(|r| &**r)).digest()
    };
    assert_eq!(
        digest(&cold),
        digest(&warm),
        "disk round-trip changed the results"
    );
    out.push(("core.cache.disk_load_ms", load_ms));
    out.push(("core.cache.hits", reader.stats().disk_hits as f64));
    out.push(("core.cache.misses", writer.stats().misses as f64));

    let mut agg = IncastSweepAggregate::new();
    out.push((
        "core.sweep.absorb_ns",
        ns_per_op(20_000, || {
            i = (i + 1) % cold.len();
            agg.absorb(&cold[i]);
            agg.runs as u64
        }),
    ));
}

/// One 15-flow run rendered through the Perfetto exporter: sink time plus
/// the final render, per telemetry event, and bytes of trace per event.
fn perfetto_rows(out: &mut Vec<(&'static str, f64)>) {
    let cfg = ModesConfig {
        num_flows: 15,
        burst_duration_ms: 1.0,
        num_bursts: 3,
        ..ModesConfig::default()
    };
    let sink = Rc::new(RefCell::new(Timed::new(PerfettoSink::new())));
    let (_, manifest) = run_incast_instrumented(&cfg, Some(&SinkRef::from_rc(sink.clone())));
    let sink = sink.borrow();
    let t0 = Instant::now();
    let doc = sink.inner.render();
    let render_ns = t0.elapsed().as_nanos() as f64;
    let events = sink.inner.events_written().max(1) as f64;
    out.push((
        "telemetry.perfetto.ns_per_event",
        (sink.tally.busy_ns() + render_ns) / events,
    ));
    out.push((
        "telemetry.perfetto.bytes_per_event",
        doc.len() as f64 / events,
    ));
    out.push((
        "telemetry.manifest.to_json_us",
        ns_per_op(20_000, || manifest.to_json().len() as u64) / 1e3,
    ));
}

/// Runs every kernel. ~1.5 s.
pub fn run_all() -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let mut rng = Rng::new(1);
    out.push(("stats.rng.next_ns", ns_per_op(4_000_000, || rng.next_u64())));
    let mut sketch = QuantileSketch::new();
    out.push((
        "stats.sketch.insert_ns",
        ns_per_op(1_000_000, || {
            sketch.add(rng.f64() * 1000.0);
            sketch.count()
        }),
    ));
    let other = sketch.clone();
    out.push((
        "stats.sketch.merge_us",
        ns_per_op(2_000, || {
            sketch.merge(&other);
            sketch.count()
        }) / 1e3,
    ));
    out.push(("simnet.wheel.hold_ns", wheel_hold_ns(4096, 500_000)));
    out.push(("simnet.wheel.hold64k_ns", wheel_hold_ns(65_536, 100_000)));
    out.push(("simnet.queue.enq_deq_ns", queue_enq_deq_ns()));
    out.push(("simnet.buffer.admit_ns", buffer_admit_ns()));
    out.push(("simnet.hash.ecmp_pick_ns", ecmp_pick_ns()));
    out.push(("simnet.control.record_ns", control_record_ns()));
    let (wire_ev, wire_pkt) = wire_cost(false);
    let (_, tcp_pkt) = wire_cost(true);
    out.push(("simnet.sim.wire_ns_per_event", wire_ev));
    out.push(("transport.host.ns_per_pkt", tcp_pkt - wire_pkt));
    out.push(("transport.ranges.insert_ns", ack_ranges_insert_ns()));
    out.push(("transport.cca.dctcp_ack_ns", dctcp_ack_ns()));
    perfetto_rows(&mut out);
    cache_rows(&mut out, &Inputs::from_seed(0).sweep);
    let items: Vec<u64> = (0..32).collect();
    out.push((
        "core.pool.dispatch_us",
        ns_per_op(2_000, || {
            par_map(items.clone(), threads(), |&x| x + 1).len() as u64
        }) / 1e3,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_only_run_is_cheaper_per_packet_than_tcp() {
        let (ev, pkt) = wire_cost(false);
        assert!(ev > 0.0 && pkt > ev, "{ev} ns/event, {pkt} ns/pkt");
    }

    #[test]
    fn small_kernels_report_positive_finite_costs() {
        for v in [
            queue_enq_deq_ns(),
            buffer_admit_ns(),
            ecmp_pick_ns(),
            control_record_ns(),
            ack_ranges_insert_ns(),
            dctcp_ack_ns(),
        ] {
            assert!(v.is_finite() && v > 0.0, "{v}");
        }
    }
}
