//! The simcheck CLI: fuzz a seed range with all invariants enabled.
//!
//! ```sh
//! cargo run --release -p simcheck -- --seeds 500
//! cargo run --release -p simcheck -- --seeds 200 --start 1000 --report out.txt
//! ```
//!
//! Each seed becomes one random scenario, run on both schedulers plus a
//! repeat run. Failures are shrunk to minimal scenarios and printed as
//! reproducer files — one line, `{"config":…,"outcome":"…"}` — that
//! `tests/repro.rs` replays once saved under `tests/repro/`; the process
//! exits nonzero if anything failed.

#![forbid(unsafe_code)]

use incast_core::supervisor::{outcome, reproducer};
use incast_core::{default_threads, par_map};
use simcheck::{check_scenario, fuzz_seed_with, shrink, ForceMitigation, SeedOutcome};
use std::io::Write;

struct Args {
    seeds: u64,
    start: u64,
    threads: usize,
    report: Option<String>,
    /// `None` = per-seed sample; `Some(true)` = QUIC only; `Some(false)` =
    /// TCP only.
    force_quic: Option<bool>,
    /// `None` = per-seed sample; `Some(true)` = multi-rack Clos only;
    /// `Some(false)` = dumbbell only.
    force_clos: Option<bool>,
    /// `None` = per-seed sample; otherwise pin the control plane for the
    /// whole sweep (off, or a seed-derived lossy plane of either kind).
    force_mitigation: Option<ForceMitigation>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 100,
        start: 0,
        threads: default_threads(),
        report: None,
        force_quic: None,
        force_clos: None,
        force_mitigation: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--seeds" => args.seeds = value("--seeds")?.parse().map_err(|e| format!("{e}"))?,
            "--start" => args.start = value("--start")?.parse().map_err(|e| format!("{e}"))?,
            "--threads" => {
                args.threads = value("--threads")?.parse().map_err(|e| format!("{e}"))?
            }
            "--report" => args.report = Some(value("--report")?),
            "--transport" => {
                args.force_quic = match value("--transport")?.as_str() {
                    "mix" => None,
                    "tcp" => Some(false),
                    "quic" => Some(true),
                    other => return Err(format!("unknown transport {other} (tcp|quic|mix)")),
                }
            }
            "--topology" => {
                args.force_clos = match value("--topology")?.as_str() {
                    "mix" => None,
                    "dumbbell" => Some(false),
                    "clos" => Some(true),
                    other => return Err(format!("unknown topology {other} (dumbbell|clos|mix)")),
                }
            }
            "--mitigation" => {
                args.force_mitigation = match value("--mitigation")?.as_str() {
                    "mix" => None,
                    "off" => Some(ForceMitigation::Off),
                    "pulser" => Some(ForceMitigation::Pulser),
                    "distributed" => Some(ForceMitigation::Distributed),
                    other => {
                        return Err(format!(
                            "unknown mitigation {other} (off|pulser|distributed|mix)"
                        ))
                    }
                }
            }
            "--help" | "-h" => {
                return Err("usage: simcheck [--seeds N] [--start S] [--threads T] \
                     [--transport tcp|quic|mix] [--topology dumbbell|clos|mix] \
                     [--mitigation off|pulser|distributed|mix] [--report FILE]"
                    .to_string())
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            eprintln!("{msg}");
            std::process::exit(2);
        }
    };
    let seeds: Vec<u64> = (args.start..args.start + args.seeds).collect();
    println!(
        "simcheck: fuzzing seeds {}..{} on {} thread(s), invariants on, \
         transport {}, topology {}, mitigation {}",
        args.start,
        args.start + args.seeds,
        args.threads,
        match args.force_quic {
            None => "mix",
            Some(true) => "quic",
            Some(false) => "tcp",
        },
        match args.force_clos {
            None => "mix",
            Some(true) => "clos",
            Some(false) => "dumbbell",
        },
        match args.force_mitigation {
            None => "mix",
            Some(ForceMitigation::Off) => "off",
            Some(ForceMitigation::Pulser) => "pulser",
            Some(ForceMitigation::Distributed) => "distributed",
        }
    );
    let t0 = std::time::Instant::now();
    let force_quic = args.force_quic;
    let force_clos = args.force_clos;
    let force_mitigation = args.force_mitigation;
    let outcomes = par_map(seeds.clone(), args.threads, |&seed| {
        match fuzz_seed_with(seed, force_quic, force_clos, force_mitigation) {
            SeedOutcome::Pass => None,
            SeedOutcome::Fail(f) => Some((seed, f)),
        }
    });
    let failures: Vec<_> = outcomes.into_iter().flatten().collect();
    let elapsed = t0.elapsed();

    let mut report = String::new();
    report.push_str(&format!(
        "simcheck: {} seed(s) in {:.2?}, {} failure(s)\n",
        args.seeds,
        elapsed,
        failures.len()
    ));
    // Shrink each failure (sequentially: shrinking re-runs scenarios and
    // uses the thread-local violation log).
    for (seed, failure) in &failures {
        let minimal = shrink(&failure.scenario);
        let shrunk = check_scenario(&minimal).map_or(String::new(), |f| f.summary());
        let cfg = minimal.to_config();
        report.push_str(&format!(
            "\nseed {seed}: {}\n  shrunk: {shrunk}\n{}\n",
            failure.summary(),
            reproducer(&cfg, &outcome(&cfg, None, None))
        ));
    }
    print!("{report}");
    if let Some(path) = &args.report {
        match std::fs::File::create(path).and_then(|mut f| f.write_all(report.as_bytes())) {
            Ok(()) => println!("report written to {path}"),
            Err(e) => eprintln!("failed to write {path}: {e}"),
        }
    }
    if !failures.is_empty() {
        std::process::exit(1);
    }
}
