//! Smoke coverage of the fuzzer itself: a pinned seed range must pass
//! cleanly, and a deliberately injected accounting bug must be caught and
//! shrunk to a small reproducer.

use incast_core::supervisor::{outcome, replay, reproducer};
use simcheck::{
    check_scenario, fuzz_seed, fuzz_seed_with, shrink, ForceMitigation, Scenario, SeedOutcome,
};

/// A shrunk scenario's reproducer file, checked to replay as recorded.
fn replayed_reproducer(sc: &Scenario) -> String {
    let cfg = sc.to_config();
    let text = reproducer(&cfg, &outcome(&cfg, None, None));
    let replay = replay(&text).expect("a reproducer");
    assert!(replay.reproduced(), "{replay:?}");
    text
}

/// A fixed seed range runs with every invariant on and zero violations.
/// (CI runs a larger range in release via the `simcheck` binary.)
#[test]
fn pinned_seed_range_is_clean() {
    for seed in 0..15 {
        match fuzz_seed(seed) {
            SeedOutcome::Pass => {}
            SeedOutcome::Fail(f) => panic!("seed {seed} failed: {}", f.summary()),
        }
    }
}

/// Forced multi-rack topologies hold the same invariants: a pinned seed
/// range re-run with a seed-derived Clos fabric (2-4 racks, 1-4 spines)
/// stays clean on both schedulers. (CI runs a larger range in release via
/// `simcheck --topology clos`.)
#[test]
fn pinned_clos_seed_range_is_clean() {
    for seed in 0..6 {
        match fuzz_seed_with(seed, None, Some(true), None) {
            SeedOutcome::Pass => {}
            SeedOutcome::Fail(f) => panic!("clos seed {seed} failed: {}", f.summary()),
        }
    }
}

/// Forced control planes hold the same invariants: pinned seed ranges
/// re-run with a seed-derived Pulser pause plane and a distributed
/// cwnd-cut plane (losses walking 0..=100 %) stay clean — no guard-timer
/// deadlocks, no degradation-envelope breaches, schedulers agree. (CI runs
/// a 100-seed range in release via `simcheck --mitigation pulser`.)
#[test]
fn pinned_forced_mitigation_seed_ranges_are_clean() {
    for seed in 0..6 {
        match fuzz_seed_with(seed, None, None, Some(ForceMitigation::Pulser)) {
            SeedOutcome::Pass => {}
            SeedOutcome::Fail(f) => panic!("pulser seed {seed} failed: {}", f.summary()),
        }
    }
    for seed in 0..3 {
        match fuzz_seed_with(seed, None, None, Some(ForceMitigation::Distributed)) {
            SeedOutcome::Pass => {}
            SeedOutcome::Fail(f) => panic!("distributed seed {seed} failed: {}", f.summary()),
        }
    }
}

/// The acceptance-criteria scenario: flip the test-only buffer-accounting
/// bug (a one-byte under-release per shared-buffer dequeue — invisible to
/// capacity bounds checks, visible to the shadow ledger), and the checker
/// must catch it and shrink it to a reproducer of at most 10 flows.
#[test]
fn injected_buffer_bug_is_caught_and_shrunk() {
    // Find a generated scenario that exercises a shared buffer.
    let scenario = (0..100)
        .map(Scenario::generate)
        .find(|s| s.buffer.is_some())
        .expect("generator covers shared buffers");

    simnet::check::set_inject_buffer_underrelease(true);
    let failure = check_scenario(&scenario);
    let minimal = failure.as_ref().map(|f| shrink(&f.scenario));
    // Sanity: with the bug off again, the same scenario passes.
    simnet::check::set_inject_buffer_underrelease(false);
    let clean_again = check_scenario(&scenario);

    let failure = failure.expect("injected bug must be caught");
    assert!(
        failure
            .violations
            .iter()
            .any(|v| v.kind == "buffer_accounting"),
        "expected a buffer_accounting violation, got: {}",
        failure.summary()
    );

    let minimal = minimal.unwrap();
    assert!(
        minimal.num_flows <= 10,
        "shrunk reproducer still has {} flows: {minimal:?}",
        minimal.num_flows
    );
    assert!(
        minimal.buffer.is_some(),
        "shrinking must keep the buffer (dropping it removes the failure)"
    );

    let text = replayed_reproducer(&minimal);
    assert!(
        text.contains(&format!(r#""seed":{},"#, minimal.seed)),
        "{text}"
    );

    assert!(clean_again.is_none(), "bug off: scenario must pass again");
}

/// Fault schedules are part of the fuzzed space: flip the test-only
/// fault-drop-miscount bug (drops on an administratively-down link bypass
/// the global `fault_drops` counter, so packet conservation stops
/// balancing — invisible unless a FaultPlan takes a link down), and the
/// checker must catch it on a generated blackhole scenario and shrink it
/// to a minimal plan that *keeps* the fault.
#[test]
fn injected_fault_miscount_is_caught_and_shrunk_to_a_minimal_plan() {
    simnet::check::set_inject_fault_drop_miscount(true);
    // Search generated scenarios for a blackhole whose window actually
    // drops packets under the bug (the outage must overlap live traffic).
    let (scenario, failure) = (0..300)
        .map(Scenario::generate)
        .filter(|s| s.fault.blackhole_us.is_some())
        .find_map(|s| check_scenario(&s).map(|f| (s, f)))
        .expect("some generated blackhole scenario must trip the bug");
    let minimal = shrink(&scenario);
    simnet::check::set_inject_fault_drop_miscount(false);

    assert!(
        failure
            .violations
            .iter()
            .any(|v| v.kind == "packet_conservation"),
        "expected a packet_conservation violation, got: {}",
        failure.summary()
    );
    assert!(
        minimal.fault.blackhole_us.is_some(),
        "shrinking must keep the fault (dropping it removes the failure): {minimal:?}"
    );
    assert!(
        minimal.fault.window_us() <= scenario.fault.window_us(),
        "shrinking never widens the fault window"
    );
    assert!(
        minimal.num_flows <= scenario.num_flows,
        "shrinking never adds flows"
    );
    let text = replayed_reproducer(&minimal);
    assert!(text.contains(r#""blackhole":{"0":"#), "{text}");

    // Bug off: the same scenario passes again (faults alone are benign).
    assert!(
        check_scenario(&scenario).is_none(),
        "bug off: faulted scenario must pass cleanly"
    );
}

/// Conservation and drain audits also hold on a direct simnet run (not
/// just through the incast runner).
#[test]
fn direct_simnet_run_passes_drain_audit() {
    simnet::check::reset();
    let mut fabric = simnet::build_dumbbell(2, 7);
    struct OneShot {
        to: simnet::NodeId,
    }
    impl simnet::Endpoint for OneShot {
        fn on_start(&mut self, ctx: &mut simnet::Ctx) {
            for i in 0..20u64 {
                let pkt = simnet::Packet::data(
                    simnet::FlowId(0),
                    ctx.node(),
                    self.to,
                    (i * 1446) as u32,
                    1446,
                    false,
                    ctx.now(),
                );
                ctx.send(pkt);
            }
        }
        fn on_packet(&mut self, _ctx: &mut simnet::Ctx, _pkt: simnet::Packet) {}
    }
    let rx = fabric.receivers[0];
    fabric
        .sim
        .set_endpoint(fabric.senders[0], Box::new(OneShot { to: rx }));
    fabric.sim.run();
    fabric.sim.audit_drain();
    assert_eq!(
        simnet::check::violation_count(),
        0,
        "{:?}",
        simnet::check::take()
    );
}
