//! Developer tool: run the quick fleet study and print one calibration row
//! per service (frequency, utilization, flows, marking, retransmissions).
//!
//! ```sh
//! cargo run --release -p incast-core --bin debug_fleet
//! ```

#![forbid(unsafe_code)]

use incast_core::default_threads;
use incast_core::production::{run_fleet, FleetConfig};

fn main() {
    let t0 = std::time::Instant::now();
    let cfg = FleetConfig::quick(default_threads());
    let fleet = run_fleet(&cfg);
    println!(
        "{:<11} {:>7} {:>6} {:>7} {:>5} {:>5} {:>5} {:>7} {:>7} {:>7} {:>8} {:>8}",
        "service",
        "bursts",
        "freq",
        "util%",
        "p50fl",
        "p99fl",
        "inc%",
        "mark%",
        "p95mark",
        "retx%",
        "p99retx",
        "p50qpeak"
    );
    for (svc, mut acc) in fleet {
        let n = acc.total_bursts();
        if n == 0 {
            // A short/quiet trace may record no bursts at all; every CDF is
            // empty then, so print a placeholder row instead of panicking.
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
}
