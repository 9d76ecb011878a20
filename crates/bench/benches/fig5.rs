//! Figure 5: DCTCP's three operating modes at 100 / 500 / 1000 flows
//! (15 ms bursts) — ToR queue length over time, burst completion times,
//! and mode classification.
//!
//! Runs as one sweep (`run_incast_sweep`) through the content-addressed
//! run cache (`INCAST_RUN_CACHE=1` enables the disk layer, making repeat
//! invocations nearly free). `-- --set path=value` edits every config
//! (`--set tcp.transport=quic` re-runs it on the QUIC-style stack); fig6
//! and fig7 take the same flag.

use bench::{banner, f};
use incast_core::full_scale;
use incast_core::modes::ModesConfig;
use incast_core::report::{ascii_plot, Table};
use incast_core::runner::profile_footer;
use incast_core::sweep::{run_incast_sweep, sweep_manifest, IncastSweepAggregate};
use incast_core::{default_threads, RunCache};

fn main() {
    banner(
        "Figure 5",
        "DCTCP operating modes (queue length during 15 ms bursts)",
        "5a @100 flows: healthy, queue oscillates near K=65, BCT ~15 ms; \
         5b @500: degenerate point, queue ~= flows - BDP ~= 475 pkts, \
         start-of-burst straggler spike, BCT still ~15 ms; \
         5c @1000: overflow at 1333 pkts, timeouts, BCT ~200 ms",
    );

    let num_bursts = if full_scale() { 11 } else { 6 };
    let (_, sets) = bench::args();
    // 80 flows is this reproduction's Mode-1 exemplar: the degenerate
    // point sits where N x 1 MSS > K + BDP (~90 packets in flight, as the
    // paper itself computes), so N=100 already pins the queue here.
    let flow_counts = [80usize, 100, 500, 1000];
    let cfgs: Vec<ModesConfig> = flow_counts
        .iter()
        .map(|&flows| {
            let cfg = ModesConfig {
                num_flows: flows,
                burst_duration_ms: 15.0,
                num_bursts,
                seed: 5,
                ..ModesConfig::default()
            };
            bench::with_edits(cfg, &sets)
        })
        .collect();
    println!("transport: {:?}", cfgs[0].tcp.transport);

    let cache = RunCache::global();
    let threads = default_threads();
    let t0 = std::time::Instant::now();
    let runs = run_incast_sweep(&cfgs, threads, cache);
    let sweep_wall = t0.elapsed();

    let mut t = Table::new([
        "flows",
        "mode",
        "steady BCT ms",
        "mean queue pkts",
        "peak queue pkts",
        "steady drops",
        "steady timeouts",
        "marked share",
    ]);
    let mut profiles = Vec::new();
    for (&flows, r) in flow_counts.iter().zip(&runs) {
        let steady_bcts: Vec<f64> = r
            .bcts_ms
            .iter()
            .skip(r.warmup_bursts as usize)
            .copied()
            .collect();
        let mean_bct = steady_bcts.iter().sum::<f64>() / steady_bcts.len().max(1) as f64;
        t.row([
            flows.to_string(),
            r.mode().label().to_string(),
            f(mean_bct),
            f(r.mean_steady_queue_pkts()),
            f(r.peak_steady_queue_pkts()),
            r.steady_drops.to_string(),
            r.steady_timeouts.to_string(),
            bench::pc(r.marked_pkts as f64 / r.enqueued_pkts.max(1) as f64),
        ]);
        profiles.push(r.profile);

        // Plot the queue trace of the first post-warm-up burst window (plus
        // a little margin either side).
        if let Some(&(s_ms, e_ms)) = r.burst_windows.get(r.warmup_bursts as usize) {
            let pts: Vec<(f64, f64)> = r
                .queue_points()
                .into_iter()
                .filter(|&(t, _)| t >= s_ms - 1.0 && t <= e_ms + 2.0)
                .map(|(t, q)| (t - s_ms, q))
                .collect();
            println!(
                "{}",
                ascii_plot(
                    &format!(
                        "Fig 5 ({flows} flows): queue (pkts) vs ms from burst start \
                         [K=65, capacity=1333]"
                    ),
                    &[("queue", &pts)],
                    110,
                    14,
                )
            );
        }
    }
    println!("{}", t.render());
    println!("{}", profile_footer(&profiles));

    let agg = IncastSweepAggregate::from_runs(runs.iter().map(|r| &**r));
    println!(
        "sweep: {} runs in {:.2?} on {threads} threads",
        agg.runs, sweep_wall
    );
    println!("{}", cache.stats().summary());
    println!("digest: {}", agg.digest());
    println!(
        "manifest: {}",
        sweep_manifest("fig5", 5, &agg, threads, cache).to_json()
    );
    println!();
    println!("paper: Mode 1 healthy at 100 flows; degenerate point once N x 1 MSS");
    println!("exceeds K + BDP (~90 pkts in flight); timeouts once the burst-start");
    println!("spike overflows the 1333-pkt queue. This reproduction's crossovers:");
    println!("healthy below ~90 flows, degenerate ~100-600, timeouts during early");
    println!("steady bursts at 1000 (see EXPERIMENTS.md for the deviation note).");
}
