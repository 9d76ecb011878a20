//! Running a workload: set-up, the untraced timed phase, the counting
//! pass, the traced pass — and the report document they add up to.

use crate::alloc::{self, HeapStats};
use crate::inputs::{threads, Inputs};
use crate::json::Json;
use crate::layers::{self, Baseline, Source, Traced, KERNEL_LAYERS, WORKLOAD_LAYERS};
use crate::probes::{calib_ms, Sched};
use crate::spec::END_TO_END;
use crate::summary::Summary;
use crate::trace::Tracer;
use crate::workloads::{prepare, verify, Case, Output, NAMES, WARMUPS};
use std::time::Instant;

/// How long the timed phase runs.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    /// Iterate for this long (the driver's `--seconds`), at least
    /// [`MIN_ITERS`] times. The reported value is the fastest iteration
    /// (see [`Summary`]), so the count does not enter it.
    Seconds(f64),
    /// Exactly this many iterations.
    Iters(usize),
}

/// Fewest timed iterations a `Seconds` budget accepts.
pub const MIN_ITERS: usize = 5;

/// How much of everything one run does.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub budget: Budget,
    /// Warm-up iterations per set-up.
    pub warmups: usize,
    /// Set-ups per run; `setup_s` is the fastest.
    pub setups: usize,
    /// Run the A/B rows of the traced pass.
    pub ab: bool,
    /// `--inject-fault`: cut every incast horizon short, so that no run
    /// completes its bursts. Exists to show that a wrong result fails the
    /// run (`tests/cli.rs`).
    pub inject_fault: bool,
}

impl Plan {
    pub fn full(seconds: f64) -> Plan {
        Plan {
            budget: Budget::Seconds(seconds),
            warmups: WARMUPS,
            setups: 12,
            ab: true,
            inject_fault: false,
        }
    }

    /// `--quick`: one warm-up, three iterations, no A/B rows.
    pub fn quick() -> Plan {
        Plan {
            budget: Budget::Iters(3),
            warmups: 1,
            setups: 1,
            ab: false,
            inject_fault: false,
        }
    }
}

/// The untraced phase of one workload.
pub struct Untraced {
    pub case: Case,
    pub wall_ms: Summary,
    pub cpu_ms: Summary,
    pub setup_s: Summary,
    pub heap: HeapStats,
    /// Simulator events of one iteration (0 where none are simulated).
    pub events: u64,
    /// Ops attempted: timed iterations plus the counting pass.
    pub attempted: u64,
    pub failed: u64,
    /// The first iteration's result digest.
    pub digest: u64,
    /// One iteration's output, kept for the traced pass.
    pub output: Output,
    /// Calibration kernel, mean of before and after.
    pub calib_ms: f64,
    /// Run-queue wait as a share of on-CPU plus waiting time.
    pub sched_wait_pct: f64,
    pub problems: Vec<String>,
}

/// Files `found` under `what`, each distinct line once.
fn note(problems: &mut Vec<String>, what: &str, found: Vec<String>) {
    for p in found {
        // A broken workload fails every iteration the same way.
        let line = format!("{what}: {p}");
        if !problems.contains(&line) {
            problems.push(line);
        }
    }
}

pub fn untraced(name: &str, seed: u64, plan: &Plan) -> Untraced {
    let calib_before = calib_ms();
    // One set-up, timed part by part: inputs from the seed and the case,
    // then each warm-up iteration. The first one's case is the one timed;
    // the others are spread evenly over the timed phase, so that one noisy
    // spell cannot cover them all.
    let set_up = || {
        let mut parts = Vec::with_capacity(1 + plan.warmups);
        let t0 = Instant::now();
        let mut inputs = Inputs::from_seed(seed);
        if plan.inject_fault {
            inputs.truncate_horizons();
        }
        let case = prepare(name, &inputs);
        parts.push(t0.elapsed().as_secs_f64());
        for _ in 0..plan.warmups {
            let t0 = Instant::now();
            drop(case.call());
            parts.push(t0.elapsed().as_secs_f64());
        }
        (case, parts)
    };
    let (case, first_setup) = set_up();
    let mut setups = vec![first_setup];

    let mut problems = Vec::new();
    let (mut walls, mut cpus) = (Vec::new(), Vec::new());
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first: Option<(u64, u64)> = None; // (digest, events)
    let mut kept = None;
    let mut sched_total = Sched::default();
    let phase = Instant::now();
    // Time the later set-ups took out of the phase.
    let mut paused = 0.0;
    loop {
        let elapsed = phase.elapsed().as_secs_f64() - paused;
        let done = match plan.budget {
            Budget::Iters(n) => attempted as usize >= n,
            Budget::Seconds(s) => {
                let due = s * setups.len() as f64 / plan.setups as f64;
                if setups.len() < plan.setups && elapsed >= due {
                    let t0 = Instant::now();
                    setups.push(set_up().1);
                    paused += t0.elapsed().as_secs_f64();
                    continue;
                }
                attempted as usize >= MIN_ITERS && elapsed >= s
            }
        };
        if done {
            break;
        }
        let cpu0 = Sched::now();
        let t0 = Instant::now();
        let out = case.call();
        let wall = t0.elapsed();
        let sched = Sched::now().since(&cpu0);
        // Checking is outside the timed region.
        let mut v = verify(name, &case, &out);
        let (digest, _) = *first.get_or_insert((v.digest, v.events));
        if v.digest != digest {
            v.problems
                .push("result digest differs from the first iteration's".into());
        }
        attempted += 1;
        if v.problems.is_empty() {
            // A failed op is never timed as a success.
            walls.push(wall.as_secs_f64() * 1e3);
            cpus.push(sched.cpu_ns as f64 / 1e6);
            sched_total.cpu_ns += sched.cpu_ns;
            sched_total.wait_ns += sched.wait_ns;
        } else {
            failed += 1;
            note(&mut problems, "iteration", v.problems);
        }
        // One output is kept for the traced pass, without its sink: holding
        // ~75 MB of rendered trace would sit under every later iteration.
        kept.get_or_insert_with(|| out.without_sink());
    }

    while setups.len() < plan.setups {
        setups.push(set_up().1);
    }
    // Every set-up does the same work part for part, so the floor of the
    // whole is the sum of each part's fastest reading; a part falls into a
    // quiet gap more often than a whole set-up does.
    let totals: Vec<f64> = setups.iter().map(|parts| parts.iter().sum()).collect();
    let setup_s = Summary {
        value: (0..setups[0].len())
            .map(|k| {
                setups
                    .iter()
                    .map(|parts| parts[k])
                    .fold(f64::INFINITY, f64::min)
            })
            .sum(),
        ..Summary::of(&totals)
    };
    // The CPU time of the fastest iteration, not the least CPU time of any:
    // on two threads the least is the rare iteration the worker slept
    // through, a floor too seldom reached to repeat.
    let fastest = (0..walls.len()).min_by(|&a, &b| walls[a].total_cmp(&walls[b]));
    let cpu_ms = Summary {
        value: fastest.map_or(f64::NAN, |i| cpus[i]),
        ..Summary::of(&cpus)
    };

    // Counting pass: one separate iteration under the allocator's flag.
    let (out, heap) = alloc::measure(|| case.call_counted());
    let mut v = verify(name, &case, &out);
    drop(out);
    let (digest, events) = first.expect("the timed phase ran");
    if v.digest != digest {
        v.problems
            .push("result digest differs from the first iteration's".into());
    }
    attempted += 1;
    if !v.problems.is_empty() {
        failed += 1;
        note(&mut problems, "counting pass", v.problems);
    }

    let busy = (sched_total.cpu_ns + sched_total.wait_ns).max(1) as f64;
    Untraced {
        case,
        wall_ms: Summary::of(&walls),
        cpu_ms,
        setup_s,
        heap,
        events,
        attempted,
        failed,
        digest,
        output: kept.expect("the timed phase ran"),
        calib_ms: (calib_before + calib_ms()) / 2.0,
        sched_wait_pct: sched_total.wait_ns as f64 / busy * 100.0,
        problems,
    }
}

impl Untraced {
    /// The four end-to-end metrics, in [`END_TO_END`] order.
    pub fn end_to_end(&self) -> [Summary; 4] {
        [
            self.wall_ms,
            self.cpu_ms,
            Summary::single(self.heap.peak_bytes as f64 / 1e6),
            self.setup_s,
        ]
    }
}

/// The pinned digests: `seed workload digest` per line.
const GOLDEN: &str = include_str!("../golden.txt");

/// 1 when `digest` is the pinned one, 0 when it differs, -1 when
/// `golden.txt` pins nothing for this seed and workload.
pub fn golden_verdict(seed: u64, name: &str, digest: u64) -> f64 {
    let pinned = GOLDEN.lines().find_map(|line| {
        let mut f = line.split_whitespace();
        (f.next()?.parse() == Ok(seed) && f.next()? == name).then(|| f.next())?
    });
    match pinned {
        None => -1.0,
        Some(hex) if u64::from_str_radix(hex, 16) == Ok(digest) => 1.0,
        Some(_) => 0.0,
    }
}

/// The traced pass of one workload, held against its untraced phase and
/// completed to every workload-scoped row.
pub fn traced(
    name: &str,
    seed: u64,
    un: &Untraced,
    kernels: &[(&'static str, f64)],
    ab: bool,
    tracer: &mut Tracer,
) -> Traced {
    let base = Baseline {
        wall_ms: un.wall_ms.value,
        output: &un.output,
        heap: un.heap,
        heap_events: un.events,
        kernels,
        ab,
    };
    let mut t = layers::traced(name, &un.case, &base, tracer);
    if t.digest != un.digest {
        t.problems
            .push("traced iteration's digest differs from the untraced one's".into());
    }
    let golden = golden_verdict(seed, name, un.digest);
    if golden == 0.0 {
        eprintln!(
            "!!! {name}: result digest {:016x} differs from golden.txt at seed {seed} \
             (a physics change; not a failure)",
            un.digest
        );
    }
    t.rows.push(("digest_matches_golden", golden));
    t.rows.push(("bench.calib_ms", un.calib_ms));
    t.rows.push(("bench.sched_wait_pct", un.sched_wait_pct));
    t.rows = layers::fill_missing(&t.rows);
    t
}

/// Both phases of one workload, with what they add up to.
struct Measured {
    un: Untraced,
    tr: Traced,
    /// Ops attempted: the untraced phase's plus the traced iteration.
    attempted: u64,
    failed: u64,
}

fn measure(
    name: &str,
    seed: u64,
    plan: &Plan,
    kernels: &[(&'static str, f64)],
    tracer: &mut Tracer,
) -> Measured {
    let un = untraced(name, seed, plan);
    let tr = traced(name, seed, &un, kernels, plan.ab, tracer);
    for p in un.problems.iter().chain(&tr.problems) {
        eprintln!("FAILED {name}: {p}");
    }
    Measured {
        attempted: un.attempted + 1,
        failed: un.failed + !tr.problems.is_empty() as u64,
        un,
        tr,
    }
}

fn layer_json(rows: &[(&'static str, f64)], table: &[(&str, &str, Source)]) -> Json {
    Json::obj(rows.iter().map(|&(name, value)| {
        let &(_, unit, source) = table
            .iter()
            .find(|l| l.0 == name)
            .unwrap_or_else(|| panic!("{name} is not a declared per-layer metric"));
        let fields = [
            ("value", Json::Num(value)),
            ("unit", Json::str(unit)),
            ("source", Json::str(source.label())),
        ];
        (name, Json::obj(fields))
    }))
}

/// The driver's contract line: `correct`, `attempted`, `failed`, `metrics`.
pub fn contract_line(attempted: u64, failed: u64, metrics: Vec<(&str, f64, &str)>) -> Json {
    let metrics = metrics.into_iter().map(|(name, value, unit)| {
        let fields = [("value", Json::Num(value)), ("unit", Json::str(unit))];
        (name, Json::obj(fields))
    });
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::obj(metrics)),
    ])
}

/// One workload as the driver runs it: `--trace 0` reports the end-to-end
/// metrics, `--trace 1` every per-layer metric.
pub fn driver_run(name: &str, seed: u64, plan: &Plan, trace: bool, tracer: &mut Tracer) -> Json {
    if !trace {
        let un = untraced(name, seed, plan);
        for p in &un.problems {
            eprintln!("FAILED {name}: {p}");
        }
        let metrics = END_TO_END
            .iter()
            .zip(un.end_to_end())
            .map(|(&(metric, unit), s)| (metric, s.value, unit))
            .collect();
        return contract_line(un.attempted, un.failed, metrics);
    }
    let kernels = crate::kernels::run_all();
    let baseline = Plan {
        ab: true,
        inject_fault: plan.inject_fault,
        ..Plan::quick()
    };
    let m = measure(name, seed, &baseline, &kernels, tracer);
    let unit_of = |name: &str| {
        let mut all = WORKLOAD_LAYERS.iter().chain(KERNEL_LAYERS);
        all.find(|l| l.0 == name).expect("declared").1
    };
    let metrics =
        m.tr.rows
            .iter()
            .chain(&kernels)
            .map(|&(metric, value)| (metric, value, unit_of(metric)))
            .collect();
    contract_line(m.attempted, m.failed, metrics)
}

/// Compile-time features forwarded to the product crates.
pub fn features() -> Vec<&'static str> {
    let mut f = Vec::new();
    if cfg!(feature = "check") {
        f.push("check");
    }
    if cfg!(feature = "recorder") {
        f.push("recorder");
    }
    f
}

/// The full report: every workload untraced then traced, kernels once.
/// Returns the document and the number of failed ops.
pub fn report(
    seed: u64,
    only: Option<&str>,
    plan: &Plan,
    quick: bool,
    tracer: &mut Tracer,
) -> (Json, u64) {
    eprintln!("kernels ...");
    let kernels = crate::kernels::run_all();
    let mut workloads = Vec::new();
    let mut failed_total = 0;
    for name in NAMES.into_iter().filter(|n| only.is_none_or(|o| o == *n)) {
        eprintln!("{name} ...");
        let Measured {
            un,
            tr,
            attempted,
            failed,
        } = measure(name, seed, plan, &kernels, tracer);
        failed_total += failed;
        let e2e = END_TO_END
            .iter()
            .zip(un.end_to_end())
            .map(|(&(metric, unit), s)| (metric, s.to_json(unit)));
        let wall = un.wall_ms.value;
        let amdahl = tr.amdahl.iter().map(|&(layer, ms)| {
            Json::obj([
                ("layer", Json::str(layer)),
                ("ms", Json::Num(ms)),
                ("pct", Json::Num(ms / wall * 100.0)),
            ])
        });
        let problems = un.problems.iter().chain(&tr.problems).map(Json::str);
        workloads.push((
            name,
            Json::obj([
                ("end_to_end", Json::obj(e2e)),
                ("ops_attempted", Json::Num(attempted as f64)),
                ("ops_failed", Json::Num(failed as f64)),
                ("result_digest", Json::str(format!("{:016x}", un.digest))),
                ("per_layer", layer_json(&tr.rows, WORKLOAD_LAYERS)),
                ("amdahl", Json::Arr(amdahl.collect())),
                ("problems", Json::Arr(problems.collect())),
            ]),
        ));
    }
    let doc = Json::obj([
        ("benchmark", Json::str("incast-benchmark")),
        ("seed", Json::Num(seed as f64)),
        ("quick", Json::Bool(quick)),
        (
            "features",
            Json::Arr(features().into_iter().map(Json::str).collect()),
        ),
        ("threads", Json::Num(threads() as f64)),
        (
            "available_parallelism",
            Json::Num(std::thread::available_parallelism().map_or(1, |n| n.get()) as f64),
        ),
        ("kernels", layer_json(&kernels, KERNEL_LAYERS)),
        ("workloads", Json::obj(workloads)),
    ]);
    (doc, failed_total)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_lookup_knows_match_mismatch_and_absence() {
        let line = GOLDEN
            .lines()
            .find(|l| l.starts_with("11 mode1_steady "))
            .expect("pinned");
        let digest = u64::from_str_radix(line.split_whitespace().nth(2).unwrap(), 16).unwrap();
        assert_eq!(golden_verdict(11, "mode1_steady", digest), 1.0);
        assert_eq!(golden_verdict(11, "mode1_steady", digest ^ 1), 0.0);
        assert_eq!(golden_verdict(987_654, "mode1_steady", digest), -1.0);
    }

    #[test]
    fn contract_line_has_exactly_the_four_keys() {
        let line = contract_line(12, 0, vec![("wall_ms", 1.25, "ms")]);
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
        let m = line.get("metrics").unwrap().get("wall_ms").unwrap();
        assert_eq!(
            (
                m.get("value").unwrap().num(),
                m.get("unit").unwrap().as_str()
            ),
            (Some(1.25), Some("ms"))
        );
        assert_eq!(
            contract_line(3, 1, vec![]).get("correct"),
            Some(&Json::Bool(false))
        );
    }

    #[test]
    fn a_quick_untraced_run_of_a_small_sweep_is_correct() {
        let un = untraced("sweep_cold", 11, &Plan::quick());
        assert_eq!((un.attempted, un.failed), (4, 0), "{:?}", un.problems);
        assert_eq!(un.wall_ms.n, 3);
        assert!(un.wall_ms.value > 0.0 && un.cpu_ms.value > 0.0 && un.setup_s.value > 0.0);
        assert!(un.events > 0);
    }
}
