//! Developer tool: compare window-mode DCTCP against Swift-like pacing at
//! 2000 flows (the `swift_pacing` bench scenario, with per-burst BCTs).
//!
//! ```sh
//! cargo run --release -p incast-core --bin debug_pace
//! ```

#![forbid(unsafe_code)]

use incast_core::modes::{run_incast, ModesConfig};
use transport::config::PacingConfig;

fn main() {
    for paced in [false, true] {
        let mut cfg = ModesConfig {
            num_flows: 2000,
            burst_duration_ms: 50.0,
            num_bursts: 14,
            seed: 53,
            horizon: simnet::SimTime::from_secs(60),
            ..ModesConfig::default()
        };
        if paced {
            cfg.tcp.pacing = Some(PacingConfig::default());
            cfg.tcp.cca = transport::CcaKind::SwiftLike { target_us: 60 };
        }
        let r = run_incast(&cfg);
        println!(
            "paced={paced} bcts={:?} drops={} steady_drops={} timeouts={} steady_to={} meanq={:.0} peak={:.0}",
            r.bcts_ms.iter().map(|b| b.round()).collect::<Vec<_>>(),
            r.drops, r.steady_drops, r.timeouts, r.steady_timeouts,
            r.mean_steady_queue_pkts(), r.peak_steady_queue_pkts()
        );
    }
}
