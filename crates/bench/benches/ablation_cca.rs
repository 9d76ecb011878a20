//! Ablation A6: DCTCP vs Reno vs CUBIC under the same incast.
//!
//! The paper studies DCTCP because it is the deployed CCA; the baselines
//! show what the same bursts do to loss-based stacks on an ECN fabric.

use bench::f;
use incast_core::full_scale;
use incast_core::modes::{run_incast, ModesConfig};
use incast_core::report::Table;
use transport::CcaKind;

fn main() {
    bench::banner(
        "Ablation A6",
        "CCA comparison under a 100-flow, 15 ms incast",
        "DCTCP holds the queue near K; ECN-as-loss stacks oscillate harder",
    );

    let mut t = Table::new([
        "cca",
        "mode",
        "steady BCT ms",
        "mean queue pkts",
        "peak queue pkts",
        "steady drops",
        "steady retx KB",
        "mark share",
    ]);
    for kind in [
        CcaKind::Dctcp { g: 1.0 / 16.0 },
        CcaKind::Reno,
        CcaKind::Cubic,
    ] {
        let mut cfg = ModesConfig {
            num_flows: 100,
            burst_duration_ms: 15.0,
            num_bursts: if full_scale() { 11 } else { 6 },
            seed: 41,
            ..ModesConfig::default()
        };
        cfg.tcp.cca = kind;
        let r = run_incast(&cfg);
        t.row([
            kind.label().to_string(),
            r.mode().label().to_string(),
            f(r.mean_bct_ms),
            f(r.mean_steady_queue_pkts()),
            f(r.peak_steady_queue_pkts()),
            r.steady_drops.to_string(),
            f(r.steady_retx_bytes as f64 / 1024.0),
            bench::pc(r.marked_pkts as f64 / r.enqueued_pkts.max(1) as f64),
        ]);
    }
    println!("{}", t.render());
}
