//! The simcheck CLI: fuzz a seed range with all invariants enabled.
//!
//! ```sh
//! cargo run --release -p simcheck -- --seeds 500
//! cargo run --release -p simcheck -- --seeds 200 --start 1000 --report out.txt
//! ```
//!
//! Each seed becomes one random config, run on both schedulers plus a
//! repeat run. Failures are shrunk to minimal configs and printed as
//! reproducer files — one line, `{"config":…,"outcome":"…"}` — that
//! `tests/repro.rs` replays once saved under `tests/repro/`; the process
//! exits nonzero if anything failed.

#![forbid(unsafe_code)]

use incast_core::modes::MitigationKind;
use incast_core::supervisor::{outcome, reproducer};
use incast_core::{default_threads, par_map};
use simcheck::{check_scenario, generate, pin_mitigation, pin_topology, shrink};
use std::io::Write;
use transport::TransportKind;

/// A sweep's settings; each `None` pin keeps the per-seed draw.
struct Args {
    seeds: u64,
    start: u64,
    threads: usize,
    report: Option<String>,
    transport: Option<TransportKind>,
    /// `Some(true)` = a seed-derived multi-rack Clos, `Some(false)` =
    /// dumbbell.
    clos: Option<bool>,
    mitigation: Option<MitigationKind>,
}

const USAGE: &str = "usage: simcheck [--seeds N] [--start S] [--threads T] \
     [--transport tcp|quic|mix] [--topology dumbbell|clos|mix] \
     [--mitigation off|pulser|distributed|mix] [--report FILE]";

/// `value` as a variant label of `T`, or `None` for `mix`.
fn pin<T: stats::Leaves>(flag: &str, value: &str) -> Result<Option<T>, String> {
    match value {
        "mix" => Ok(None),
        v => stats::leaves::read_label(v)
            .map(Some)
            .map_err(|e| format!("{flag}: {} (or mix)", e.reason)),
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seeds: 100,
        start: 0,
        threads: default_threads(),
        report: None,
        transport: None,
        clos: None,
        mitigation: None,
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
            "--transport" => args.transport = pin(&flag, &value(&flag)?)?,
            "--topology" => {
                args.clos = match value("--topology")?.as_str() {
                    "mix" => None,
                    "dumbbell" => Some(false),
                    "clos" => Some(true),
                    other => return Err(format!("unknown topology {other} (dumbbell|clos|mix)")),
                }
            }
            "--mitigation" => args.mitigation = pin(&flag, &value(&flag)?)?,
            "--help" | "-h" => return Err(USAGE.to_string()),
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
        args.transport.map_or("mix", |t| t.label()),
        args.clos
            .map_or("mix", |c| if c { "clos" } else { "dumbbell" }),
        args.mitigation.map_or("mix", |m| m.label()),
    );
    let t0 = std::time::Instant::now();
    let outcomes = par_map(seeds, args.threads, |&seed| {
        let mut cfg = generate(seed);
        if let Some(t) = args.transport {
            cfg.tcp.transport = t;
        }
        if let Some(clos) = args.clos {
            pin_topology(&mut cfg, clos);
        }
        if let Some(kind) = args.mitigation {
            pin_mitigation(&mut cfg, kind);
        }
        check_scenario(&cfg)
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
    // Shrink each failure (sequentially: shrinking re-runs configs and
    // uses the thread-local violation log).
    for failure in &failures {
        let minimal = shrink(&failure.config);
        let shrunk = check_scenario(&minimal).map_or(String::new(), |f| f.summary());
        report.push_str(&format!(
            "\nseed {}: {}\n  shrunk: {shrunk}\n{}\n",
            failure.config.seed,
            failure.summary(),
            reproducer(&minimal, &outcome(&minimal, None, None))
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
