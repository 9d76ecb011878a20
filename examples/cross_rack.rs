//! Cross-rack incast on a multi-rack Clos fabric: 256 senders spread over
//! 8 racks converge on one receiver through 4 spines, with ECMP spreading
//! each rack's fan-in across its uplinks.
//!
//! ```sh
//! cargo run --release --example cross_rack
//! cargo run --release --example cross_rack -- --out target/cross_rack_manifest.json
//! cargo run --release --features check --example cross_rack
//! ```
//!
//! Two parts:
//!
//! 1. A sweep (under the existing sweep engine) holding the 256-flow
//!    workload fixed while the senders span 1, 2, 4, then 8 racks — the
//!    "does the dumbbell's operating-mode structure survive cross-rack
//!    fan-in?" question from EXPERIMENTS.md.
//! 2. One instrumented flagship run (8 racks x 32 hosts, 4 spines)
//!    streaming per-tier queue depths, whose manifest (including the
//!    per-tier rollup) is written to `--out` as the CI artifact.
//!
//! With `--features check`, every run carries the simulation-invariant
//! ledgers; the final `cross_rack: violations=...` line is what CI greps.

use incast_bursts::core_api::modes::{run_incast_with, ModesConfig, TopologySpec};
use incast_bursts::core_api::supervisor::{supervised_incast_sweep, RunOutcome, SupervisorConfig};
use incast_bursts::core_api::RunCache;
use incast_bursts::simnet::TimingWheel;
use incast_bursts::telemetry::JsonlSink;

fn cross_rack(racks: usize, spines: usize, seed: u64) -> ModesConfig {
    ModesConfig {
        num_flows: 256,
        topology: if racks == 1 {
            TopologySpec::Dumbbell
        } else {
            TopologySpec::Clos { racks, spines }
        },
        burst_duration_ms: 0.5,
        num_bursts: 2,
        warmup_bursts: 0,
        seed,
        ..ModesConfig::default()
    }
}

fn main() {
    let mut out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--out" => out = args.next(),
            other => {
                eprintln!("unknown flag {other} (usage: cross_rack [--out FILE])");
                std::process::exit(2);
            }
        }
    }

    // Part 1: the rack-span sweep. Same 256-flow demand, same receiver,
    // senders spanning ever more racks.
    let cfgs: Vec<ModesConfig> = [1usize, 2, 4, 8]
        .iter()
        .map(|&racks| cross_rack(racks, 4, 7))
        .collect();
    let sup = SupervisorConfig::default();
    let cache = RunCache::in_memory();
    let sweep = supervised_incast_sweep(&cfgs, &sup, &cache);

    println!("== cross-rack incast sweep (256 flows, 4 spines) ==");
    for (cfg, outcome) in cfgs.iter().zip(&sweep.outcomes) {
        let racks = match cfg.topology {
            TopologySpec::Dumbbell => 1,
            TopologySpec::Clos { racks, .. } => racks,
        };
        match outcome {
            RunOutcome::Completed(r) => println!(
                "  racks={racks}: mode {:?}, mean BCT {:.3} ms, {} drops, {} timeouts",
                r.mode(),
                r.mean_bct_ms,
                r.drops,
                r.timeouts
            ),
            RunOutcome::Truncated(cause, _) => {
                println!("  racks={racks}: truncated ({})", cause.label())
            }
            RunOutcome::Failed(msg) => {
                println!(
                    "  racks={racks}: FAILED — {}",
                    msg.lines().next().unwrap_or(msg)
                )
            }
        }
    }
    println!("{}", sweep.coverage.summary());
    assert_eq!(
        sweep.coverage.ran,
        cfgs.len() as u64,
        "every rack-span config must complete"
    );

    // Part 2: the instrumented flagship — 8 racks x 32 hosts x 4 spines,
    // per-tier depth probes streaming into the telemetry sink.
    let flagship = cross_rack(8, 4, 7);
    let (jsonl, sref) = JsonlSink::new().shared();
    let (result, manifest) = run_incast_with::<TimingWheel>(&flagship, Some(&sref));
    let stream = jsonl.borrow().render();
    let depth_samples = stream
        .lines()
        .filter(|l| l.contains(r#""ev":"queue_depth""#))
        .count();
    println!("== flagship: 8 racks x 32 hosts, 4 spines ==");
    println!(
        "  mode {:?}, mean BCT {:.3} ms, p99 flow BCT source: {} bursts",
        result.mode(),
        result.mean_bct_ms,
        result.bcts_ms.len()
    );
    println!("  per-tier depth samples: {depth_samples}");
    println!(
        "  tiers: {}",
        manifest.tiers_json.as_deref().unwrap_or("(missing)")
    );
    assert_eq!(
        manifest.topology,
        "clos:racks=8,hosts_per_rack=32,spines=4,senders=256,receivers=1"
    );
    assert!(depth_samples > 0, "per-tier depth probes were silent");
    assert!(
        manifest
            .tiers_json
            .as_deref()
            .is_some_and(|t| t.contains("uplink") && t.contains("spine")),
        "manifest missing the per-tier rollup"
    );

    if let Some(path) = &out {
        match std::fs::write(path, manifest.to_json() + "\n") {
            Ok(()) => println!("  manifest written to {path}"),
            Err(e) => {
                eprintln!("failed to write {path}: {e}");
                std::process::exit(1);
            }
        }
    }

    // The line CI greps. With the `check` feature every run above carried
    // shadow ledgers, packet conservation, and transport conformance; any
    // violation fails the process here.
    #[cfg(feature = "check")]
    {
        let violations = incast_bursts::simnet::check::violation_count();
        println!("cross_rack: violations={violations}");
        assert_eq!(violations, 0, "{:?}", incast_bursts::simnet::check::take());
    }
    #[cfg(not(feature = "check"))]
    println!("cross_rack: violations=unchecked (build with --features check)");
}
