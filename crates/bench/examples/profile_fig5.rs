//! Runs the fig5 Mode-1 workload on the wheel scheduler in a loop, for
//! profiler attachment (`gprofng collect app`) and quick Mev/s spot
//! checks. Not the benchmark (`benchmark/`): no JSON, no baseline comparison.

use incast_core::modes::{run_incast_with, ModesConfig};
use simnet::TimingWheel;
use std::time::Instant;

fn main() {
    let iters: usize = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(20);
    let cfg = ModesConfig {
        num_flows: 100,
        burst_duration_ms: 15.0,
        num_bursts: 3,
        seed: 5,
        ..ModesConfig::default()
    };
    let mut best = 0.0f64;
    let mut events = 0u64;
    for _ in 0..iters {
        let t0 = Instant::now();
        let (r, _) = run_incast_with::<TimingWheel>(&cfg, None);
        let eps = r.profile.events() as f64 / t0.elapsed().as_secs_f64();
        best = best.max(eps);
        events += r.profile.events();
    }
    println!("{events} events, best {:.2} Mev/s", best / 1e6);
}
