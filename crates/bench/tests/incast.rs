//! The `incast` binary end to end, on runs of a few flows: each sweep
//! file's footer counts its own cache traffic, a flag or command it does
//! not know exits 2 before anything runs, and `run` sends the summary,
//! the trace and the manifest where they belong.

use std::path::PathBuf;
use std::process::{Command, Output};

fn incast(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_incast"))
        .args(args)
        .env_remove("INCAST_FULL")
        .env_remove("INCAST_RUN_CACHE")
        .output()
        .expect("incast starts")
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8(bytes.to_vec()).expect("utf-8 output")
}

/// Writes a sweep file of 4-flow runs, one per seed, and returns its path.
fn tiny_sweep(name: &str, seeds: &[u64]) -> PathBuf {
    let levels: Vec<String> = seeds
        .iter()
        .map(|s| format!(r#"{{"label": "{s}", "set": ["seed={s}"]}}"#))
        .collect();
    let file = format!(
        r#"{{"title": "{name}", "what": "w", "paper": "p",
  "base": ["num_flows=4", "burst_duration_ms=0.2", "num_bursts=2", "warmup_bursts=0"],
  "full": [],
  "axes": [{{"name": "seed", "levels": [{}]}}],
  "plots": [], "columns": ["drops"], "reading": []}}"#,
        levels.join(", ")
    );
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.json"));
    std::fs::write(&path, file).expect("write the sweep file");
    path
}

#[test]
fn each_files_cache_line_counts_that_files_runs() {
    let (a, b) = (
        tiny_sweep("cache_a", &[1, 2]),
        tiny_sweep("cache_b", &[2, 3]),
    );
    let out = incast(&["sweep", a.to_str().unwrap(), b.to_str().unwrap()]);
    assert!(out.status.success(), "{}", text(&out.stderr));
    let stdout = text(&out.stdout);
    let cache: Vec<&str> = stdout.lines().filter(|l| l.starts_with("cache:")).collect();
    assert_eq!(
        cache,
        [
            "cache: hits=0 (mem 0, disk 0), misses=2, entries=2",
            "cache: hits=1 (mem 1, disk 0), misses=1, entries=3",
        ]
    );
}

#[test]
fn an_unknown_flag_or_command_exits_2_with_the_usage() {
    let file = tiny_sweep("unknown_flag", &[1]);
    let file = file.to_str().unwrap();
    let cases: [(&[&str], &str); 5] = [
        (
            &["sweep", "--sett", "num_flows=1", file],
            "unknown flag `--sett`",
        ),
        (&["sweep", "--bench", file], "unknown flag `--bench`"),
        (
            &["run", "--trace", "pcap"],
            "--trace pcap: expected jsonl|text|perfetto",
        ),
        (&["run", "--set"], "--set: missing value"),
        (&["simulate"], "unknown command `simulate`"),
    ];
    for (args, msg) in cases {
        let out = incast(args);
        let stderr = text(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with(msg), "{args:?}: {stderr}");
        assert!(stderr.contains("usage: incast sweep"), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} ran something");
    }
}

#[test]
fn run_prints_the_summary_or_the_trace_and_writes_the_manifest() {
    let manifest = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("run_manifest.json");
    let tiny = [
        "--set=num_flows=4",
        "--set",
        "burst_duration_ms=0.2",
        "--set",
        "num_bursts=2",
    ];
    let plain = incast(&[&["run"][..], &tiny].concat());
    assert!(plain.status.success(), "{}", text(&plain.stderr));
    let summary = text(&plain.stdout);
    assert!(summary.starts_with("bcts_ms: ["), "{summary}");
    assert!(summary.contains("\nwindows: [(0.0, "), "{summary}");

    let mut traced = vec!["run", "--trace", "jsonl", "--manifest"];
    traced.push(manifest.to_str().unwrap());
    let out = incast(&[&traced[..], &tiny].concat());
    assert!(out.status.success(), "{}", text(&out.stderr));
    let stream = text(&out.stdout);
    assert!(stream.lines().count() > 10, "{stream}");
    assert!(
        stream.lines().all(|l| l.starts_with(r#"{"t":"#)),
        "{stream}"
    );
    let stderr = text(&out.stderr);
    let summary_of_traced = stderr.lines().filter(|l| !l.starts_with("violation"));
    let summary_of_traced: Vec<&str> = summary_of_traced.collect();
    let plain: Vec<&str> = summary.lines().collect();
    assert_eq!(summary_of_traced, plain, "a sink changes no outcome");
    let manifest = std::fs::read_to_string(&manifest).expect("manifest written");
    assert!(manifest.starts_with(r#"{"name":"incast","#), "{manifest}");
    assert!(manifest.contains(r#""num_flows":4,"#), "{manifest}");
}
