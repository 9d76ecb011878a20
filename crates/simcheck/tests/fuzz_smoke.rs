//! Smoke coverage of the fuzzer itself: a pinned seed range must pass
//! cleanly, a deliberately injected accounting bug must be caught and
//! shrunk to a small reproducer, and the known Clos wedge must shrink to
//! the reproducer checked in for it.

use incast_core::modes::{MitigationKind, ModesConfig};
use incast_core::supervisor::{outcome, replay, reproducer};
use simcheck::{check_scenario, generate, pin_mitigation, pin_topology, shrink};

/// A shrunk config's reproducer file, checked to replay as recorded.
fn replayed_reproducer(cfg: &ModesConfig) -> String {
    let text = reproducer(cfg, &outcome(cfg, None, None));
    let replay = replay(&text).expect("a reproducer");
    assert!(replay.reproduced(), "{replay:?}");
    text
}

/// Checks seed `seed`'s draw after `pin`, panicking with the failure.
fn assert_clean(what: &str, seed: u64, pin: impl Fn(&mut ModesConfig)) {
    let mut cfg = generate(seed);
    pin(&mut cfg);
    if let Some(f) = check_scenario(&cfg) {
        panic!("{what} seed {seed} failed: {}", f.summary());
    }
}

/// A fixed seed range runs with every invariant on and zero violations.
/// (CI runs a larger range in release via the `simcheck` binary.)
#[test]
fn pinned_seed_range_is_clean() {
    for seed in 0..15 {
        assert_clean("mixed", seed, |_| {});
    }
}

/// Forced multi-rack topologies hold the same invariants: a pinned seed
/// range re-run with a seed-derived Clos fabric (2-4 racks, 1-4 spines)
/// stays clean on both schedulers. (CI runs a larger range in release via
/// `simcheck --topology clos`.)
#[test]
fn pinned_clos_seed_range_is_clean() {
    for seed in 0..6 {
        assert_clean("clos", seed, |c| pin_topology(c, true));
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
        assert_clean("pulser", seed, |c| {
            pin_mitigation(c, MitigationKind::Pulser)
        });
    }
    for seed in 0..3 {
        assert_clean("distributed", seed, |c| {
            pin_mitigation(c, MitigationKind::Distributed)
        });
    }
}

/// The whole loop against the checked-in artifact: the forced-Clos draw of
/// seed 70 breaches the Pulser degradation envelope (ROADMAP item 2), and
/// shrinking it yields exactly the reproducer `tests/repro/` holds for it.
/// Re-record both together when the wedge is fixed.
#[test]
fn forced_clos_seed_70_shrinks_to_the_checked_in_reproducer() {
    let mut cfg = generate(70);
    pin_topology(&mut cfg, true);
    let failure = check_scenario(&cfg).expect("seed 70 still wedges under a forced Clos");
    let minimal = shrink(&failure.config);
    let checked_in = include_str!("../../../tests/repro/known_wedge_clos_seed70.json");
    assert_eq!(
        reproducer(&minimal, &outcome(&minimal, None, None)),
        checked_in.trim_end()
    );
}

/// The acceptance-criteria config: flip the test-only buffer-accounting
/// bug (a one-byte under-release per shared-buffer dequeue — invisible to
/// capacity bounds checks, visible to the shadow ledger), and the checker
/// must catch it and shrink it to a reproducer of at most 10 flows.
#[test]
fn injected_buffer_bug_is_caught_and_shrunk() {
    // Find a generated config that exercises a shared buffer.
    let cfg = (0..100)
        .map(generate)
        .find(|c| c.receiver_tor_buffer.is_some())
        .expect("generator covers shared buffers");

    simnet::check::set_inject_buffer_underrelease(true);
    let failure = check_scenario(&cfg);
    let minimal = failure.as_ref().map(|f| shrink(&f.config));
    // Sanity: with the bug off again, the same config passes.
    simnet::check::set_inject_buffer_underrelease(false);
    let clean_again = check_scenario(&cfg);

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
        minimal.receiver_tor_buffer.is_some(),
        "shrinking must keep the buffer (dropping it removes the failure)"
    );

    let text = replayed_reproducer(&minimal);
    assert!(
        text.contains(&format!(r#""seed":{},"#, minimal.seed)),
        "{text}"
    );

    assert!(clean_again.is_none(), "bug off: config must pass again");
}

/// Fault schedules are part of the fuzzed space: flip the test-only
/// fault-drop-miscount bug (drops on an administratively-down link bypass
/// the global `fault_drops` counter, so packet conservation stops
/// balancing — invisible unless a FaultPlan takes a link down), and the
/// checker must catch it on a generated blackhole config and shrink it
/// to a minimal plan that *keeps* the fault.
#[test]
fn injected_fault_miscount_is_caught_and_shrunk_to_a_minimal_plan() {
    simnet::check::set_inject_fault_drop_miscount(true);
    // Search generated configs for a blackhole whose window actually
    // drops packets under the bug (the outage must overlap live traffic).
    let (cfg, failure) = (0..300)
        .map(generate)
        .filter(|c| c.faults.blackhole.is_some())
        .find_map(|c| check_scenario(&c).map(|f| (c, f)))
        .expect("some generated blackhole config must trip the bug");
    let minimal = shrink(&cfg);
    simnet::check::set_inject_fault_drop_miscount(false);

    assert!(
        failure
            .violations
            .iter()
            .any(|v| v.kind == "packet_conservation"),
        "expected a packet_conservation violation, got: {}",
        failure.summary()
    );
    let window = |c: &ModesConfig| c.faults.blackhole.map(|(a, b)| b - a);
    assert!(
        window(&minimal).is_some(),
        "shrinking must keep the fault (dropping it removes the failure): {minimal:?}"
    );
    assert!(
        window(&minimal) <= window(&cfg),
        "shrinking never widens the fault window"
    );
    assert!(
        minimal.num_flows <= cfg.num_flows,
        "shrinking never adds flows"
    );
    let text = replayed_reproducer(&minimal);
    assert!(text.contains(r#""blackhole":{"0":"#), "{text}");

    // Bug off: the same config passes again (faults alone are benign).
    assert!(
        check_scenario(&cfg).is_none(),
        "bug off: faulted config must pass cleanly"
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
