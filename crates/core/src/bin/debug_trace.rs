//! Developer tool and telemetry worked example: run a small dumbbell
//! incast with a JSONL sink attached and dump the event stream, the run
//! manifest, and the event-loop profile.
//!
//! ```sh
//! # Everything (packet trace, queue depth, flow windows, burst markers):
//! cargo run --release -p incast-core --bin debug_trace
//! # One flow's congestion-window trajectory only:
//! cargo run --release -p incast-core --bin debug_trace -- flow 3
//! # Human-readable tcpdump-style text instead of JSONL:
//! cargo run --release -p incast-core --bin debug_trace -- text
//! ```
//!
//! The JSONL stream is grep-friendly: `"ev":"flow_window"` lines carry
//! cwnd/ssthresh/inflight per transition, `"ev":"queue_depth"` the
//! bottleneck occupancy, `"ev":"burst_start"`/`"burst_end"` the workload
//! boundaries. Two runs with the same seed produce byte-identical streams.

#![forbid(unsafe_code)]

use incast_core::modes::{run_incast_instrumented, ModesConfig};
use simnet::{SimTime, TextTracer};
use std::io::Write;
use telemetry::{EventClass, JsonlSink, SinkRef};

/// Writes the trace to stdout, ignoring a closed pipe (`head`, `grep -m`).
fn dump(write: impl FnOnce(&mut std::io::StdoutLock<'static>) -> std::io::Result<()>) {
    let _ = write(&mut std::io::stdout().lock());
}

fn small_cfg() -> ModesConfig {
    ModesConfig {
        num_flows: 8,
        burst_duration_ms: 0.5,
        num_bursts: 2,
        warmup_bursts: 1,
        queue_sample: SimTime::from_us(50),
        seed: 7,
        ..ModesConfig::default()
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = small_cfg();

    if args.first().map(String::as_str) == Some("text") {
        // TextTracer is a formatter over the same event stream: attach it
        // as a sink and it renders tcpdump-style lines for packet events.
        let tracer = std::rc::Rc::new(std::cell::RefCell::new(TextTracer::new(1 << 20)));
        let sink = SinkRef::from_rc(tracer.clone());
        let (r, manifest) = run_incast_instrumented(&cfg, Some(&sink));
        dump(|out| out.write_all(tracer.borrow().render().as_bytes()));
        eprintln!("# mean BCT {:.3} ms", r.mean_bct_ms);
        eprintln!("# {}", manifest.to_json());
        return;
    }

    // JSONL mode, optionally filtered to one flow's events.
    let sink = match args.first().map(String::as_str) {
        Some("flow") => {
            let flow: u32 = match args.get(1).and_then(|s| s.parse().ok()) {
                Some(f) => f,
                None => {
                    eprintln!("usage: debug_trace [text | flow <id>]");
                    std::process::exit(2);
                }
            };
            JsonlSink::new()
                .with_flow_filter(flow)
                .with_classes(&[EventClass::Flow, EventClass::App])
        }
        _ => JsonlSink::new(),
    };
    let (jsonl, sref) = sink.shared();
    let (r, manifest) = run_incast_instrumented(&cfg, Some(&sref));

    dump(|out| jsonl.borrow().write_to(out));
    eprintln!("# events: {}", jsonl.borrow().events_written());
    eprintln!("# profile: {}", r.profile.summary());
    eprintln!("# manifest: {}", manifest.to_json());
}
