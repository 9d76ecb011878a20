//! Figure 6: queue behavior during 2 ms bursts — the common case. Short
//! bursts are dominated by the initial window spike; there is no time for
//! the oscillatory steady state of Figure 5.
//!
//! Runs as one sweep (`run_incast_sweep`) through the run cache.

use bench::f;
use incast_core::full_scale;
use incast_core::modes::ModesConfig;
use incast_core::report::{ascii_plot, Table};
use incast_core::sweep::{run_incast_sweep, IncastSweepAggregate};
use incast_core::{default_threads, RunCache};

fn main() {
    bench::banner(
        "Figure 6",
        "Queue behavior during 2 ms incast bursts",
        "short bursts are dominated by the initial send spike; deeper queues \
         at higher flow counts; less time to react before the burst ends",
    );

    let num_bursts = if full_scale() { 11 } else { 6 };
    let (_, sets) = bench::args();
    let flow_counts = [50usize, 100, 200, 500];
    let cfgs: Vec<ModesConfig> = flow_counts
        .iter()
        .map(|&flows| {
            let cfg = ModesConfig {
                num_flows: flows,
                burst_duration_ms: 2.0,
                num_bursts,
                seed: 3,
                ..ModesConfig::default()
            };
            bench::with_edits(cfg, &sets)
        })
        .collect();
    println!("transport: {:?}", cfgs[0].tcp.transport);

    let cache = RunCache::global();
    let t0 = std::time::Instant::now();
    let runs = run_incast_sweep(&cfgs, default_threads(), cache);
    let sweep_wall = t0.elapsed();

    let mut t = Table::new([
        "flows",
        "steady BCT ms",
        "mean queue pkts",
        "peak queue pkts",
        "time above K",
        "steady drops",
    ]);
    let mut traces: Vec<(String, Vec<(f64, f64)>)> = Vec::new();

    for (&flows, r) in flow_counts.iter().zip(&runs) {
        let samples = r.steady_burst_samples();
        let above =
            samples.iter().filter(|&&q| q >= 65.0).count() as f64 / samples.len().max(1) as f64;
        let steady_bcts: Vec<f64> = r
            .bcts_ms
            .iter()
            .skip(r.warmup_bursts as usize)
            .copied()
            .collect();
        let mean_bct = steady_bcts.iter().sum::<f64>() / steady_bcts.len().max(1) as f64;
        t.row([
            flows.to_string(),
            f(mean_bct),
            f(r.mean_steady_queue_pkts()),
            f(r.peak_steady_queue_pkts()),
            bench::pc(above),
            r.steady_drops.to_string(),
        ]);

        if let Some(&(s_ms, e_ms)) = r.burst_windows.get(r.warmup_bursts as usize) {
            let pts: Vec<(f64, f64)> = r
                .queue_points()
                .into_iter()
                .filter(|&(t, _)| t >= s_ms - 0.3 && t <= e_ms + 1.0)
                .map(|(t, q)| (t - s_ms, q))
                .collect();
            traces.push((format!("{flows} flows"), pts));
        }
    }

    let series: Vec<(&str, &[(f64, f64)])> = traces
        .iter()
        .map(|(n, v)| (n.as_str(), v.as_slice()))
        .collect();
    println!(
        "{}",
        ascii_plot(
            "Fig 6: queue (pkts) vs ms from burst start, 2 ms bursts",
            &series,
            110,
            16,
        )
    );
    println!("{}", t.render());
    let agg = IncastSweepAggregate::from_runs(runs.iter().map(|r| &**r));
    println!("sweep: {} runs in {:.2?}", agg.runs, sweep_wall);
    println!("{}", cache.stats().summary());
    println!("digest: {}", agg.digest());
    println!();
    println!("paper: the spike at burst start dominates the whole (short) burst;");
    println!("higher flow counts pin deeper queues for the burst's entire life.");
}
