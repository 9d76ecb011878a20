//! Export a causal Perfetto trace of one incast run.
//!
//! Runs an instrumented incast and writes a Chrome trace-event document —
//! per-packet lifecycle spans (enqueue → mark/drop → deliver → ack), causal
//! arrows from drops to the retransmissions they trigger and from CE marks
//! to the ECE acks that echo them, per-flow cwnd/inflight counter tracks,
//! queue-depth tracks, and app-level burst spans. Open the file at
//! <https://ui.perfetto.dev> (or `chrome://tracing`) as-is.
//!
//! ```sh
//! cargo run --release --example trace_export -- --out incast-trace.json
//! cargo run --release --example trace_export -- --loss   # drops + retx arrows
//! ```

use incast_bursts::core_api::modes::{run_incast_instrumented, ModesConfig};
use incast_bursts::simnet::SimTime;
use incast_bursts::telemetry::PerfettoSink;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let value_of = |flag: &str| {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let out = value_of("--out").unwrap_or_else(|| "incast-trace.json".to_string());
    let mut cfg = ModesConfig {
        num_flows: value_of("--flows")
            .and_then(|v| v.parse().ok())
            .unwrap_or(15),
        burst_duration_ms: 1.0,
        num_bursts: 3,
        warmup_bursts: 1,
        seed: value_of("--seed")
            .and_then(|v| v.parse().ok())
            .unwrap_or(42),
        ..ModesConfig::default()
    };
    if args.iter().any(|a| a == "--loss") {
        // A lossy window mid-run: the trace then shows drop instants and
        // the causal arrows into the retransmissions they provoke.
        cfg.faults.loss = Some((SimTime::from_ms(1), SimTime::from_ms(4), 0.3));
    }

    let (sink, sref) = PerfettoSink::new().shared();
    let (result, _manifest) = run_incast_instrumented(&cfg, Some(&sref));
    // Streamed chunk by chunk: the document is never held twice.
    let mut file = std::fs::File::create(&out).expect("create trace");
    sink.borrow().write_to(&mut file).expect("write trace");
    let bytes = file.metadata().map_or(0, |m| m.len());
    let events = sink.borrow().events_written();

    println!(
        "traced {} flows x {} bursts (mode: {}, mean steady BCT {:.2} ms)",
        cfg.num_flows,
        cfg.num_bursts,
        result.mode().label(),
        result.mean_bct_ms
    );
    println!("wrote {out} ({events} trace events, {bytes} bytes)");
    println!("open it at https://ui.perfetto.dev");
}
