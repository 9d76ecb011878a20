//! The paper's Section 4 headline: DCTCP's three operating modes as the
//! incast degree grows. Prints a queue-over-time sketch per mode.
//!
//! ```sh
//! cargo run --release --example dctcp_modes
//! cargo run --release --example dctcp_modes -- --transport quic
//! ```
//!
//! `--transport quic` swaps in the QUIC-style loss-recovery stack (packet
//! numbers, PTO, no 200 ms min-RTO) — the quickest way to see that Mode 3
//! is largely a TCP min-RTO artifact. Any other value exits 2.

use incast_bursts::core_api::modes::{run_incast, ModesConfig};
use incast_bursts::core_api::report::ascii_plot;

fn main() {
    let transport = bench::transport_arg();
    println!("transport: {transport:?}");
    for (flows, label) in [
        (
            80usize,
            "Mode 1 exemplar: healthy, queue oscillates around K",
        ),
        (500, "Mode 2: degenerate point, queue pinned at ~N - BDP"),
        (1000, "Mode 3: overflow, timeouts, BCT at RTO scale"),
    ] {
        let mut cfg = ModesConfig {
            num_flows: flows,
            burst_duration_ms: 15.0,
            num_bursts: 5,
            seed: 7,
            ..ModesConfig::default()
        };
        cfg.tcp.transport = transport;
        let r = run_incast(&cfg);
        println!("=== {flows} flows — {label}");
        println!(
            "classified {} | steady BCT {:.1} ms | mean queue {:.0} pkts | \
             peak {:.0} | steady drops {} timeouts {}",
            r.mode().label(),
            r.mean_bct_ms,
            r.mean_steady_queue_pkts(),
            r.peak_steady_queue_pkts(),
            r.steady_drops,
            r.steady_timeouts,
        );
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
                    "queue (pkts) vs ms from burst start",
                    &[("q", &pts)],
                    100,
                    10
                )
            );
        }
    }
}
