//! Developer tool: run one cyclic-incast configuration and dump its
//! headline numbers (per-burst BCTs, drops, timeouts, queue statistics).
//!
//! ```sh
//! cargo run --release -p incast-core --bin debug_modes -- <flows> <burst_ms> <bursts>
//! ```

#![forbid(unsafe_code)]

use incast_core::modes::{run_incast, ModesConfig};

fn main() {
    let flows: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(500);
    let burst_ms: f64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(15.0);
    let bursts: u32 = std::env::args()
        .nth(3)
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let cfg = ModesConfig {
        num_flows: flows,
        burst_duration_ms: burst_ms,
        num_bursts: bursts,
        ..ModesConfig::default()
    };
    let r = run_incast(&cfg);
    println!(
        "bcts_ms: {:?}",
        r.bcts_ms
            .iter()
            .map(|b| (b * 100.0).round() / 100.0)
            .collect::<Vec<_>>()
    );
    println!(
        "windows: {:?}",
        r.burst_windows
            .iter()
            .map(|(s, e)| ((s * 10.0).round() / 10.0, (e * 10.0).round() / 10.0))
            .collect::<Vec<_>>()
    );
    println!(
        "drops total {} steady {} | timeouts total {} steady {} | retx {} steady {}",
        r.drops, r.steady_drops, r.timeouts, r.steady_timeouts, r.retx_bytes, r.steady_retx_bytes
    );
    println!(
        "marked {} / enq {} | watermark {} | mean steady q {:.0} peak steady q {:.0} | mode {:?}",
        r.marked_pkts,
        r.enqueued_pkts,
        r.queue_watermark_pkts,
        r.mean_steady_queue_pkts(),
        r.peak_steady_queue_pkts(),
        r.mode()
    );
}
