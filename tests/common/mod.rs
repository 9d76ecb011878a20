//! Helpers shared by the differential and property suites: the one
//! instrumented-run observer every byte-identity comparison goes through,
//! and the seeded random incast fabric with its packet trace.

// Each suite compiles its own copy of this module and uses a subset.
#![allow(dead_code)]

use incast_bursts::core_api::modes::{run_incast_with, ModesConfig};
use incast_bursts::simnet::{
    build_fabric_with, FabricConfig, IncastFabric, Scheduler, SimTime, Simulator, TextTracer,
};
use incast_bursts::stats::Rng;
use incast_bursts::telemetry::{JsonlSink, RunManifest, SinkRef};
use incast_bursts::transport::{TcpConfig, TcpHost};
use incast_bursts::workload::{CyclicCoordinator, IncastConfig, Worker};
use std::cell::RefCell;
use std::rc::Rc;

/// One instrumented incast run under scheduler `S`: the JSONL stream, the
/// deterministic manifest with the scheduler name masked out (it is the
/// one field that *should* differ between schedulers), and the per-burst
/// completions.
fn instrumented<S: Scheduler>(cfg: &ModesConfig) -> (String, RunManifest, Vec<f64>) {
    let (jsonl, sref) = JsonlSink::new().shared();
    let (result, manifest) = run_incast_with::<S>(cfg, Some(&sref));
    let stream = jsonl.borrow().render();
    if let Some(v) = manifest.invariant_violations {
        assert_eq!(v, 0, "invariant violations under {cfg:?}");
    }
    let mut det = manifest.deterministic();
    assert_eq!(det.scheduler, S::NAME, "manifest must name its scheduler");
    det.scheduler = "masked".to_string();
    (stream, det, result.bcts_ms)
}

/// [`instrumented`] with the manifest rendered to its JSON.
pub fn run_with<S: Scheduler>(cfg: &ModesConfig) -> (String, String, Vec<f64>) {
    let (stream, det, bcts) = instrumented::<S>(cfg);
    (stream, det.to_json(), bcts)
}

/// [`run_with`] with the two manifest fields that *name* the configured
/// plane — exactly what may differ between a dead plane and no plane —
/// taken out of the manifest JSON: the control rollup, returned unmasked
/// beside it, and the config record, masked.
pub fn observe<S: Scheduler>(cfg: &ModesConfig) -> (String, String, Option<String>, Vec<f64>) {
    let (stream, mut det, bcts) = instrumented::<S>(cfg);
    let control = det.control_json.take();
    det.config_json = "masked".to_string();
    (stream, det.to_json(), control, bcts)
}

/// Attaches `tracer` to `sim` as its telemetry sink and returns the handle
/// to read the text log back through after the run.
pub fn attach_tracer<S: Scheduler>(
    sim: &mut Simulator<S>,
    tracer: TextTracer,
) -> Rc<RefCell<TextTracer>> {
    let tracer = Rc::new(RefCell::new(tracer));
    sim.set_sink(SinkRef::from_rc(tracer.clone()));
    tracer
}

/// Builds a seeded random incast fabric: fan-in, burst length, and (when
/// `lossy`, on half the seeds) 1 % trunk loss all derive from `seed`, so
/// every configuration differs.
pub fn build_seeded<S: Scheduler>(seed: u64, lossy: bool) -> IncastFabric<S> {
    let mut rng = Rng::new(seed);
    let num_senders = 2 + rng.below(12) as usize;
    let fabric_cfg = FabricConfig {
        num_senders,
        seed: rng.next_u64(),
        ..FabricConfig::default()
    };
    let burst_ms = 0.1 + 0.1 * rng.below(4) as f64;

    let mut f = build_fabric_with::<S>(&fabric_cfg);
    if lossy && rng.chance(0.5) {
        f.sim.link_mut(f.trunk).cfg.loss_probability = 0.01;
    }
    for (i, &s) in f.senders.iter().enumerate() {
        f.sim.set_endpoint(
            s,
            Box::new(TcpHost::new(
                TcpConfig::default(),
                Box::new(Worker::new(Rng::new(seed ^ i as u64))),
            )),
        );
    }
    f.sim.set_endpoint(
        f.receivers[0],
        Box::new(TcpHost::new(
            TcpConfig::default(),
            Box::new(CyclicCoordinator::new(IncastConfig::paper(
                f.senders.clone(),
                burst_ms,
                2,
                rng.next_u64(),
            ))),
        )),
    );
    f
}

/// Full simnet-layer observables of 10 ms on the [`build_seeded`] fabric
/// under scheduler `S`: the complete packet trace, the counters JSON, the
/// event tallies, and the final simulated time.
pub fn seeded_observables<S: Scheduler>(seed: u64, lossy: bool) -> (String, String, u64, u64) {
    let mut f = build_seeded::<S>(seed, lossy);
    let tracer = attach_tracer(&mut f.sim, TextTracer::new(2_000_000));
    f.sim.run_until(SimTime::from_ms(10));
    let trace = tracer.borrow().render();
    (
        trace,
        f.sim.counters().to_json(),
        f.sim.profile().tallies.total(),
        f.sim.now().as_ps(),
    )
}
