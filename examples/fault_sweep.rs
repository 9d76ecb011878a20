//! Supervised fault-scenario sweep: a seeded matrix of incast runs with
//! scheduled faults (trunk blackhole, lossy window, ECN outage, straggler)
//! executed under the failure-tolerant sweep runner.
//!
//! ```sh
//! cargo run --release --example fault_sweep
//! cargo run --release --example fault_sweep -- --poison
//! ```
//!
//! With `--poison`, one config is invalid (a negative burst duration, which
//! `ModesConfig::validate` rejects before any simulation starts: the run
//! fails with `invalid config: burst_duration_ms: must be positive`, no
//! panic) and one is a runaway (exceeds the per-run event budget). The
//! sweep still completes: survivors aggregate, the casualties are counted
//! in the coverage line and quarantined as reproducer files (config and
//! outcome) under `target/quarantine/`, which the example then replays
//! through `supervisor::replay`. CI's `fault-matrix` job greps the coverage
//! line, the typed rejection and the replay line.

use incast_bursts::core_api::modes::{ModesConfig, RunBudget};
use incast_bursts::core_api::supervisor::{
    replay, supervised_incast_sweep, RunOutcome, SupervisorConfig,
};
use incast_bursts::core_api::RunCache;
use incast_bursts::simnet::SimTime;

fn base(num_flows: usize, seed: u64) -> ModesConfig {
    ModesConfig {
        num_flows,
        burst_duration_ms: 0.5,
        num_bursts: 2,
        warmup_bursts: 0,
        seed,
        ..ModesConfig::default()
    }
}

fn main() {
    let poison = std::env::args().any(|a| a == "--poison");

    let mut cfgs = Vec::new();
    // Healthy control.
    cfgs.push(base(8, 1));
    // Trunk blackhole across the first burst; RTO backoff recovers.
    let mut c = base(8, 2);
    c.faults.blackhole = Some((SimTime::from_us(100), SimTime::from_ms(1)));
    cfgs.push(c);
    // 5 % random loss window.
    let mut c = base(8, 3);
    c.faults.loss = Some((SimTime::from_us(50), SimTime::from_ms(2), 0.05));
    cfgs.push(c);
    // ECN marking disabled for a window (paper-style misconfiguration).
    let mut c = base(8, 4);
    c.faults.ecn_off = Some((SimTime::from_us(50), SimTime::from_ms(2)));
    cfgs.push(c);
    // One straggling sender paused mid-burst.
    let mut c = base(8, 5);
    c.faults.straggler = Some((SimTime::from_us(100), SimTime::from_ms(5), 3));
    cfgs.push(c);
    if poison {
        // Invalid config: rejected by validation, never run.
        let mut c = base(8, 6);
        c.burst_duration_ms = -1.0;
        cfgs.push(c);
        // Runaway: thousands of bursts, cut short by the event budget.
        let mut c = base(8, 7);
        c.num_bursts = 5000;
        cfgs.push(c);
    }

    // Every healthy run here takes under 40 000 events; a small budget keeps
    // the runaway's reproducer quick to replay, even in a debug build.
    let sup = SupervisorConfig {
        budget: RunBudget {
            max_events: Some(50_000),
            ..RunBudget::default()
        },
        ..SupervisorConfig::default()
    };
    let cache = RunCache::in_memory();
    let sweep = supervised_incast_sweep(&cfgs, &sup, &cache);

    println!("== fault-matrix sweep ({} configs) ==", cfgs.len());
    for (i, outcome) in sweep.outcomes.iter().enumerate() {
        match outcome {
            RunOutcome::Completed(r) => println!(
                "  run {i}: completed  mean BCT {:.2} ms, {} timeouts",
                r.mean_bct_ms, r.timeouts
            ),
            RunOutcome::Truncated(cause, _) => {
                println!("  run {i}: truncated ({})", cause.label())
            }
            RunOutcome::Failed(msg) => {
                let first = msg.lines().next().unwrap_or(msg);
                println!("  run {i}: FAILED — {first}")
            }
        }
    }
    let mut replayed = 0;
    let mut reproduced = 0;
    for path in &sweep.quarantined {
        println!("  quarantined reproducer: {}", path.display());
        let text = std::fs::read_to_string(path).unwrap_or_default();
        match replay(&text) {
            Ok(r) => {
                replayed += 1;
                reproduced += r.reproduced() as usize;
                println!("    replay: {} (recorded: {})", r.replayed, r.expected);
            }
            Err(e) => println!("    replay: unreadable reproducer: {e}"),
        }
    }
    println!(
        "replayed {replayed} of {} reproducers, {reproduced} reproduced",
        sweep.quarantined.len()
    );
    println!("{}", sweep.coverage.summary());

    let manifest = sweep.manifest("fault_sweep", 1, &cache);
    println!("{}", manifest.to_json());

    // Partial coverage is the expected outcome under --poison; anything
    // less than "every healthy config ran" is a real failure.
    let healthy = if poison {
        cfgs.len() as u64 - 2
    } else {
        cfgs.len() as u64
    };
    assert_eq!(sweep.coverage.ran, healthy, "healthy configs must all run");
    if poison {
        assert_eq!(sweep.coverage.failed, 1);
        assert_eq!(sweep.coverage.truncated, 1);
        assert_eq!(reproduced, 2, "both casualties must replay as recorded");
    }
}
