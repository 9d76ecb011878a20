//! Command line: the full report (default), the driver's one-workload
//! contract (`--trace 0|1`), `selfcheck`, and `compare OLD NEW`.

use crate::compare::{compare, disagreements};
use crate::json::Json;
use crate::run::{driver_run, report, Plan};
use crate::spec::Spec;
use crate::trace::Tracer;
use crate::workloads::NAMES;
use std::process::ExitCode;

const USAGE: &str = "\
usage: incast-benchmark [--seed N] [--workload NAME] [--seconds S] [--quick]
                        [--out FILE] [--trace-out FILE] [--inject-fault]
       incast-benchmark --workload NAME --seed N --seconds S --trace 0|1
       incast-benchmark selfcheck [--seed N] [--seconds S]
       incast-benchmark compare OLD.json NEW.json";

#[derive(Debug, Default, PartialEq)]
struct Args {
    command: Option<String>,
    files: Vec<String>,
    seed: Option<u64>,
    workload: Option<String>,
    seconds: Option<f64>,
    trace: Option<bool>,
    quick: bool,
    inject_fault: bool,
    out: Option<String>,
    trace_out: Option<String>,
}

fn parse(argv: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args::default();
    let mut argv = argv.into_iter();
    while let Some(a) = argv.next() {
        let mut value = |flag: &str| argv.next().ok_or(format!("{flag} needs a value"));
        match a.as_str() {
            "--seed" => {
                args.seed = Some(
                    value("--seed")?
                        .parse()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s: f64 = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s}: want a duration in (0, 600]"));
                }
                args.seconds = Some(s);
            }
            "--workload" => {
                let w = value("--workload")?;
                if !NAMES.contains(&w.as_str()) {
                    return Err(format!("--workload {w}: not one of {}", NAMES.join(", ")));
                }
                args.workload = Some(w);
            }
            "--trace" => {
                args.trace = Some(match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace {other}: want 0 or 1")),
                })
            }
            "--quick" => args.quick = true,
            "--inject-fault" => args.inject_fault = true,
            "--out" => args.out = Some(value("--out")?),
            "--trace-out" => args.trace_out = Some(value("--trace-out")?),
            "selfcheck" | "compare" if args.command.is_none() => args.command = Some(a),
            file if args.command.as_deref() == Some("compare") && !file.starts_with('-') => {
                args.files.push(a)
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn write_out(path: &str, doc: &Json) -> Result<(), String> {
    std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("{path}: {e}"))
}

fn run(args: Args) -> Result<ExitCode, String> {
    let spec = Spec::load();
    let seed = args.seed.unwrap_or(11);
    let seconds = args.seconds.unwrap_or(spec.run_seconds);
    let mut tracer = Tracer::new();
    let plan = Plan {
        inject_fault: args.inject_fault,
        ..if args.quick {
            Plan::quick()
        } else {
            Plan::full(seconds)
        }
    };
    let failed = match args.command.as_deref() {
        Some("compare") => {
            let [old, new] = args.files.as_slice() else {
                return Err("compare needs OLD.json and NEW.json".into());
            };
            let (table, regressions) = compare(&load(old)?, &load(new)?, &spec)?;
            print!("{table}");
            println!("{regressions} regression(s)");
            regressions > 0
        }
        Some("selfcheck") => {
            let (first, f1) = report(
                seed,
                args.workload.as_deref(),
                &plan,
                args.quick,
                &mut tracer,
            );
            let (second, f2) = report(
                seed,
                args.workload.as_deref(),
                &plan,
                args.quick,
                &mut tracer,
            );
            let (table, _) = compare(&first, &second, &spec)?;
            print!("{table}");
            let bad = disagreements(&first, &second, &spec);
            for line in &bad {
                println!("DISAGREE {line}");
            }
            println!(
                "selfcheck: {} disagreement(s), {} failed op(s)",
                bad.len(),
                f1 + f2
            );
            !bad.is_empty() || f1 + f2 > 0
        }
        _ => match (args.trace, &args.workload) {
            // The driver's contract: one workload, one JSON line, last.
            (Some(trace), Some(name)) => {
                let line = driver_run(name, seed, &plan, trace, &mut tracer);
                println!("{line}");
                line.get("correct") != Some(&Json::Bool(true))
            }
            (Some(_), None) => return Err("--trace needs --workload".into()),
            (None, only) => {
                let (doc, failed) = report(seed, only.as_deref(), &plan, args.quick, &mut tracer);
                match &args.out {
                    Some(path) => write_out(path, &doc)?,
                    None => println!("{doc}"),
                }
                failed > 0
            }
        },
    };
    if let Some(path) = &args.trace_out {
        write_out(path, &tracer.to_chrome_json())?;
    }
    Ok(if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

pub fn main() -> ExitCode {
    // Every incast run stamps its manifest with `git describe`, a child
    // process whose cost depends on the surrounding repository. Point git
    // at nothing, so the stamp costs the same in a clone, an exported tree
    // and a bare directory, and git reads nothing outside the checkout.
    std::env::set_var("GIT_DIR", "benchmark/.no-git");
    match parse(std::env::args().skip(1)).and_then(run) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Result<Args, String> {
        parse(line.split_whitespace().map(String::from))
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let a = args("--workload mode3_tcp --seed 7 --seconds 10 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("mode3_tcp"));
        assert_eq!(
            (a.seed, a.seconds, a.trace),
            (Some(7), Some(10.0), Some(true))
        );
    }

    #[test]
    fn subcommands_and_files() {
        let a = args("compare old.json new.json").unwrap();
        assert_eq!(a.command.as_deref(), Some("compare"));
        assert_eq!(a.files, ["old.json", "new.json"]);
        assert_eq!(args("selfcheck --seed 3").unwrap().seed, Some(3));
        assert!(args("--quick --out x.json").unwrap().quick);
    }

    #[test]
    fn bad_input_is_refused_with_a_reason() {
        for bad in [
            "--workload nope",
            "--trace 2",
            "--seed",
            "--seed x",
            "--seconds 0",
            "--seconds -3",
            "--frobnicate",
            "stray.json",
        ] {
            assert!(args(bad).is_err(), "{bad} accepted");
        }
    }
}
