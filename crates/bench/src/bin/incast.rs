//! `incast`: one command for the paper's two kinds of study — one incast
//! config or a grid of them (Section 4), and the service fleet (Section 3).
//!
//! ```sh
//! incast sweep [FILE…] [--set path=value]…
//! incast run [--set path=value]… [--trace jsonl|text|perfetto] [--manifest FILE]
//! incast fleet
//! ```
//!
//! - `sweep` runs sweep files (`crates/bench/sweeps/*.json`, every one in
//!   name order without an argument; see `incast_core::sweep::Sweep`) and
//!   prints each as a banner, its plots, a table of one column per axis
//!   plus the file's named columns ([`bench::render`]), a footer (the
//!   merged `perf:` profile, the sweep's wall-clock, the file's own cache
//!   counts and the aggregate's `digest:`) and its reading lines. Figures
//!   5–7, the Section-4 ablations and the Section-5 mitigations are sweep
//!   files. `--set` edits apply to every run after the file's base edits;
//!   one the file's `full` or axis edits would overwrite exits 2
//!   ([`bench::add_sets`]). Runs go through `run_incast_sweep`, in parallel
//!   and through the run cache.
//! - `run` runs `ModesConfig::default()` after the `--set` edits and
//!   prints the per-burst BCTs and windows, drops, timeouts, marks and
//!   queue statistics. `--trace` writes the run's event stream to stdout —
//!   JSONL, tcpdump-style text, or a Perfetto / Chrome trace-event document
//!   (open it at <https://ui.perfetto.dev>) — and the summary to stderr.
//!   `--manifest` writes the run manifest to FILE.
//! - `fleet` runs the fleet study (`FleetConfig::quick`, or `paper` under
//!   `INCAST_FULL=1`) and prints one calibration row per service.
//!
//! A file, edit, column, plot or flag that does not check out exits 2
//! before anything runs. A build with the `check` feature audits every
//! run: runs stay on the calling thread (the violation ledger is
//! thread-local) and each file uses a fresh in-memory cache (no stored
//! result stands in for a checked run); `sweep` prints `violations=N` per
//! file, `run` once, and any violation exits 1.

use std::cell::RefCell;
use std::io::{self, Write};
use std::rc::Rc;

use bench::{banner, exit2, Args};
use incast_core::cache::CacheStats;
use incast_core::modes::{run_incast_instrumented, IncastRunResult, ModesConfig};
use incast_core::production::{run_fleet, FleetConfig};
use incast_core::runner::profile_footer;
use incast_core::sweep::{apply_edits, run_incast_sweep, IncastSweepAggregate, Sweep};
use incast_core::{default_threads, full_scale, RunCache};
use simnet::TextTracer;
use telemetry::{JsonlSink, PerfettoSink, SinkRef};

const USAGE: &str = "usage: incast sweep [FILE…] [--set path=value]…
       incast run [--set path=value]… [--trace jsonl|text|perfetto] [--manifest FILE]
       incast fleet";

/// Whether this build audits every run (the `check` feature).
const CHECKED: bool = cfg!(feature = "check");

fn main() {
    let mut args = std::env::args().skip(1);
    let violations = match args.next().as_deref() {
        Some("sweep") => sweep(parse(args, &["--set"])),
        Some("run") => run(parse(args, &["--set", "--trace", "--manifest"])),
        Some("fleet") => match parse(args, &[]).0.first() {
            Some(arg) => usage(&format!("fleet: unexpected argument `{arg}`")),
            None => fleet(),
        },
        Some(other) => usage(&format!("unknown command `{other}`")),
        None => usage("no command"),
    };
    if violations > 0 {
        std::process::exit(1);
    }
}

/// [`bench::parse_args`]; an error exits 2 with the usage.
fn parse(args: impl Iterator<Item = String>, flags: &[&'static str]) -> Args {
    bench::parse_args(args, flags).unwrap_or_else(|msg| usage(&msg))
}

fn usage(msg: &str) -> ! {
    exit2(&format!("{msg}\n{USAGE}"))
}

/// Under the `check` feature, the violations recorded on this thread since
/// the last `simnet::check::reset`, each listed on stderr.
fn audit() -> Option<u64> {
    CHECKED.then(|| {
        let count = simnet::check::violation_count();
        for v in simnet::check::take() {
            eprintln!("violation: {v:?}");
        }
        count
    })
}

/// `incast sweep`; returns the violations found.
fn sweep((mut files, sets): Args) -> u64 {
    let sets: Vec<String> = sets.into_iter().map(|(_, edit)| edit).collect();
    if files.is_empty() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/sweeps");
        let entries = std::fs::read_dir(dir).unwrap_or_else(|e| exit2(&format!("{dir}: {e}")));
        files = entries
            .flatten()
            .map(|e| e.path().display().to_string())
            .filter(|p| p.ends_with(".json"))
            .collect();
        files.sort();
    }
    let plans: Vec<_> = files.iter().map(|file| load(file, &sets)).collect();
    let mut violations = 0;
    for (sweep, cells, cfgs) in plans {
        let fresh = RunCache::in_memory();
        let (cache, threads) = if CHECKED {
            (&fresh, 1)
        } else {
            (RunCache::global(), default_threads())
        };
        banner(&sweep.title, &sweep.what, &sweep.paper);
        simnet::check::reset();
        let before = cache.stats();
        let t0 = std::time::Instant::now();
        let runs = run_incast_sweep(&cfgs, threads, cache);
        let wall = t0.elapsed();
        print!("{}", bench::render(&sweep, &cells, &runs));
        println!("{}", profile_footer(runs.iter().map(|r| &r.profile)));
        let agg = IncastSweepAggregate::from_runs(runs.iter().map(|r| &**r));
        println!(
            "sweep: {} runs in {wall:.2?} on {threads} threads",
            agg.runs
        );
        println!("{}", since(before, cache.stats()).summary());
        println!("digest: {}", agg.digest());
        if let Some(n) = audit() {
            println!("violations={n}");
            violations += n;
        }
        if !sweep.reading.is_empty() {
            println!();
        }
        for line in &sweep.reading {
            println!("{line}");
        }
    }
    violations
}

/// The counts `now` gained since `before`; `entries` stays `now`'s level.
fn since(before: CacheStats, now: CacheStats) -> CacheStats {
    CacheStats {
        mem_hits: now.mem_hits - before.mem_hits,
        disk_hits: now.disk_hits - before.disk_hits,
        misses: now.misses - before.misses,
        entries: now.entries,
        disk_writes: now.disk_writes - before.disk_writes,
        disk_retries: now.disk_retries - before.disk_retries,
    }
}

/// Reads, edits, expands and checks one file; anything wrong exits 2,
/// naming the file.
fn load(file: &str, sets: &[String]) -> (Sweep, Vec<Vec<String>>, Vec<ModesConfig>) {
    let fail = |msg: String| -> ! { exit2(&format!("{file}: {msg}")) };
    let text = std::fs::read_to_string(file).unwrap_or_else(|e| fail(e.to_string()));
    let mut sweep = Sweep::read(&text).unwrap_or_else(|e| fail(e.to_string()));
    bench::add_sets(&mut sweep, sets).unwrap_or_else(|e| fail(e));
    let runs = sweep.expand(full_scale());
    let runs = runs.unwrap_or_else(|e| fail(e.to_string()));
    let (cells, cfgs): (Vec<_>, _) = runs.into_iter().unzip();
    bench::check(&sweep, &cells).unwrap_or_else(|e| fail(e));
    (sweep, cells, cfgs)
}

/// Writes what a sink gathered to stdout.
type Dump = Box<dyn Fn(&mut io::StdoutLock<'static>) -> io::Result<()>>;

/// The sink `--trace kind` attaches, and how to write its stream.
fn trace(kind: &str) -> (SinkRef, Dump) {
    match kind {
        "jsonl" => {
            let (sink, sref) = JsonlSink::new().shared();
            (sref, Box::new(move |out| sink.borrow().write_to(out)))
        }
        "text" => {
            let tracer = Rc::new(RefCell::new(TextTracer::new(1 << 20)));
            let sref = SinkRef::from_rc(tracer.clone());
            let dump =
                move |out: &mut io::StdoutLock| out.write_all(tracer.borrow().render().as_bytes());
            (sref, Box::new(dump))
        }
        "perfetto" => {
            let (sink, sref) = PerfettoSink::new().shared();
            (sref, Box::new(move |out| sink.borrow().write_to(out)))
        }
        other => usage(&format!("--trace {other}: expected jsonl|text|perfetto")),
    }
}

/// `incast run`; returns the violations found.
fn run((rest, flags): Args) -> u64 {
    if let Some(arg) = rest.first() {
        usage(&format!("run: unexpected argument `{arg}`"));
    }
    let (mut cfg, mut tracing, mut manifest_file) = (ModesConfig::default(), None, None);
    for (flag, value) in flags {
        match flag {
            "--set" => apply_edits(&mut cfg, [&value])
                .unwrap_or_else(|e| exit2(&format!("--set {value}: {e}"))),
            "--trace" => tracing = Some(trace(&value)),
            _ => manifest_file = Some(value),
        }
    }
    cfg.validate()
        .unwrap_or_else(|e| exit2(&format!("invalid config: {e}")));
    simnet::check::reset();
    let (r, manifest) = run_incast_instrumented(&cfg, tracing.as_ref().map(|t| &t.0));
    let mut report = summary(&r);
    let violations = audit();
    if let Some(n) = violations {
        report.push_str(&format!("violations={n}\n"));
    }
    match tracing {
        None => print!("{report}"),
        Some((_, dump)) => {
            let mut out = io::stdout().lock();
            // A closed pipe (`head`, `grep -m`) is a reader that has seen enough.
            match dump(&mut out).and_then(|()| out.flush()) {
                Err(e) if e.kind() != io::ErrorKind::BrokenPipe => {
                    eprintln!("stdout: {e}");
                    std::process::exit(1);
                }
                _ => eprint!("{report}"),
            }
        }
    }
    if let Some(path) = manifest_file {
        if let Err(e) = std::fs::write(&path, manifest.to_json() + "\n") {
            eprintln!("{path}: {e}");
            std::process::exit(1);
        }
    }
    violations.unwrap_or(0)
}

/// One run's per-burst BCTs and windows, loss and marking counts, steady
/// queue and mode, one line each.
fn summary(r: &IncastRunResult) -> String {
    let bcts: Vec<f64> = r
        .bcts_ms
        .iter()
        .map(|b| (b * 100.0).round() / 100.0)
        .collect();
    let tenth = |t: f64| (t * 10.0).round() / 10.0;
    let windows: Vec<_> = r
        .burst_windows
        .iter()
        .map(|&(s, e)| (tenth(s), tenth(e)))
        .collect();
    format!(
        "bcts_ms: {bcts:?}\nwindows: {windows:?}\n\
         drops total {} steady {} | timeouts total {} steady {} | retx {} steady {}\n\
         marked {} / enq {} | watermark {} | mean steady q {:.0} peak steady q {:.0} | mode {:?}\n",
        r.drops,
        r.steady_drops,
        r.timeouts,
        r.steady_timeouts,
        r.retx_bytes,
        r.steady_retx_bytes,
        r.marked_pkts,
        r.enqueued_pkts,
        r.queue_watermark_pkts,
        r.mean_steady_queue_pkts(),
        r.peak_steady_queue_pkts(),
        r.mode()
    )
}

/// `incast fleet`: one calibration row per service.
fn fleet() -> u64 {
    let t0 = std::time::Instant::now();
    let cfg = if full_scale() {
        FleetConfig::paper(default_threads())
    } else {
        FleetConfig::quick(default_threads())
    };
    println!("service      bursts   freq   util% p50fl p99fl  inc%   mark% p95mark   retx%  p99retx p50qpeak");
    for (svc, mut acc) in run_fleet(&cfg) {
        let n = acc.total_bursts();
        if n == 0 {
            // A short or quiet trace may record no bursts; every CDF is
            // empty then.
            println!("{:<11} {:>7} (no bursts observed)", svc.name(), n);
            continue;
        }
        let marked_frac = 1.0 - acc.marked_fraction.fraction_at_or_below(0.0);
        let retx_frac = 1.0 - acc.retx_fraction.fraction_at_or_below(0.0);
        let pct = |c: &mut stats::Cdf, p: f64| c.try_percentile(p).unwrap_or(f64::NAN);
        println!(
            "{:<11} {:>7} {:>6.1} {:>7.1} {:>5.0} {:>5.0} {:>5.0} {:>7.0} {:>7.2} {:>7.1} {:>8.3} {:>8.2}",
            svc.name(),
            n,
            acc.burst_frequency.mean(),
            acc.utilization.mean() * 100.0,
            pct(&mut acc.burst_flows, 50.0),
            pct(&mut acc.burst_flows, 99.0),
            acc.incast_fraction() * 100.0,
            marked_frac * 100.0,
            pct(&mut acc.marked_fraction, 95.0),
            retx_frac * 100.0,
            pct(&mut acc.retx_fraction, 99.0),
            pct(&mut acc.queue_peak_fraction, 50.0),
        );
    }
    println!("wall {:?}", t0.elapsed());
    0
}
