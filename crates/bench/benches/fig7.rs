//! Figure 7: per-flow in-flight data during a Mode-1 incast is skewed;
//! stragglers ramp up at burst end and spike the next burst.
//!
//! The paper runs 100 flows as its Mode-1 point. This reproduction's exact
//! window floor puts the Mode 1/2 boundary at K + BDP ≈ 90 packets in
//! flight (the paper's own arithmetic), so the bench shows both Mode-1
//! variants: 80 flows at the simulation threshold K=65, and the paper's
//! 100 flows at the production threshold K=89.

use bench::f;
use incast_core::full_scale;
use incast_core::report::{ascii_plot, Table};
use incast_core::straggler::{flight_skew, skew_summary, straggler_config};
use incast_core::sweep::run_incast_sweep;
use incast_core::{default_threads, RunCache};

fn main() {
    bench::banner(
        "Figure 7",
        "Per-flow in-flight distribution over time (Mode-1 incast, 15 ms bursts)",
        "a long tail (p95/p100) of flows transmits several times the median; \
         at burst end the mean rises as stragglers ramp up, 'unlearning' the \
         in-burst window and spiking the next burst's queue",
    );

    let bursts = if full_scale() { 11 } else { 5 };
    let mut t = Table::new([
        "config",
        "mode",
        "p95/median (body)",
        "p100/median (body)",
        "mean KB body",
        "mean KB ramp",
        "start spike pkts",
    ]);

    let variants = [
        (80usize, 65u32, "80 flows @ K=65"),
        (100, 89, "100 flows @ K=89 (production)"),
    ];
    let (_, sets) = bench::args();
    let cfgs: Vec<_> = variants
        .iter()
        .map(|&(flows, k, _)| bench::with_edits(straggler_config(flows, k, bursts, 11), &sets))
        .collect();
    println!("transport: {:?}", cfgs[0].tcp.transport);
    let cache = RunCache::global();
    let t0 = std::time::Instant::now();
    let runs = run_incast_sweep(&cfgs, default_threads(), cache);
    let sweep_wall = t0.elapsed();

    for (&(_, k, label), r) in variants.iter().zip(&runs) {
        let pts = flight_skew(&r.flights);
        let (s_ms, e_ms) = r.burst_windows[r.warmup_bursts as usize];

        // Body vs the final ramp of the burst.
        let body: Vec<_> = pts
            .iter()
            .filter(|p| p.t_ms >= s_ms && p.t_ms <= s_ms + (e_ms - s_ms) * 0.8)
            .copied()
            .collect();
        let ramp: Vec<_> = pts
            .iter()
            .filter(|p| p.t_ms > s_ms + (e_ms - s_ms) * 0.8 && p.t_ms <= e_ms)
            .copied()
            .collect();
        let mean_kb = |w: &[incast_core::straggler::FlightSkewPoint]| {
            w.iter().map(|p| p.mean).sum::<f64>() / w.len().max(1) as f64 / 1024.0
        };
        if let Some(s) = skew_summary(&body) {
            t.row([
                label.to_string(),
                r.mode().label().to_string(),
                f(s.p95_over_median),
                f(s.max_over_median),
                f(mean_kb(&body)),
                f(mean_kb(&ramp)),
                f(r.start_spike(simnet::SimTime::from_us(500))),
            ]);
        }

        // Plot the production-threshold variant (closest to the paper).
        if k == 89 {
            let window: Vec<_> = pts
                .iter()
                .filter(|p| p.t_ms >= s_ms && p.t_ms <= e_ms + 2.0)
                .collect();
            let to_kb = |v: f64| v / 1024.0;
            let mean: Vec<(f64, f64)> = window
                .iter()
                .map(|p| (p.t_ms - s_ms, to_kb(p.mean)))
                .collect();
            let p50: Vec<(f64, f64)> = window
                .iter()
                .map(|p| (p.t_ms - s_ms, to_kb(p.p50)))
                .collect();
            let p95: Vec<(f64, f64)> = window
                .iter()
                .map(|p| (p.t_ms - s_ms, to_kb(p.p95)))
                .collect();
            let max: Vec<(f64, f64)> = window
                .iter()
                .map(|p| (p.t_ms - s_ms, to_kb(p.max)))
                .collect();
            println!(
                "{}",
                ascii_plot(
                    &format!("Fig 7 ({label}): per-flow in-flight KB vs ms from burst start"),
                    &[
                        ("mean", &mean),
                        ("p50", &p50),
                        ("p95", &p95),
                        ("p100", &max)
                    ],
                    110,
                    16,
                )
            );
        }
    }
    println!("{}", t.render());
    println!("sweep: {} runs in {:.2?}", runs.len(), sweep_wall);
    println!("{}", cache.stats().summary());
    println!();
    println!("paper: p95/p100 run several times the median; the mean rises at");
    println!("burst end as stragglers claim freed bandwidth. This reproduction's");
    println!("per-packet-ECE DCTCP is fairer than a delayed-ACK stack, so the");
    println!("tail dominance is ~2x rather than 'several times' (see");
    println!("EXPERIMENTS.md); the end-of-burst ramp and the resulting");
    println!("burst-start queue spike reproduce directly.");
}
