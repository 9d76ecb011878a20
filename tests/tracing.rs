//! End-to-end packet tracing: the simulator's `tcpdump` attached to a real
//! incast run, plus the JSONL telemetry export that supersedes it.

mod common;

use incast_bursts::core_api::modes::{run_incast_instrumented, ModesConfig};
use incast_bursts::simnet::FlowId;
use incast_bursts::simnet::{build_dumbbell, SimTime, TextTracer};
use incast_bursts::stats::Rng;
use incast_bursts::telemetry::{JsonlSink, PerfettoSink, CHUNK_BYTES};
use incast_bursts::transport::{TcpConfig, TcpHost};
use incast_bursts::workload::{CyclicCoordinator, IncastConfig, Worker};

fn run_traced(filter: Option<FlowId>) -> (u64, String) {
    let mut fabric = build_dumbbell(4, 21);
    for (i, &s) in fabric.senders.iter().enumerate() {
        fabric.sim.set_endpoint(
            s,
            Box::new(TcpHost::new(
                TcpConfig::default(),
                Box::new(Worker::new(Rng::new(i as u64))),
            )),
        );
    }
    fabric.sim.set_endpoint(
        fabric.receivers[0],
        Box::new(TcpHost::new(
            TcpConfig::default(),
            Box::new(CyclicCoordinator::new(IncastConfig::paper(
                fabric.senders.clone(),
                1.0,
                2,
                3,
            ))),
        )),
    );
    let tracer = common::attach_tracer(
        &mut fabric.sim,
        match filter {
            Some(f) => TextTracer::for_flow(f, 200_000),
            None => TextTracer::new(200_000),
        },
    );
    fabric.sim.run_until(SimTime::from_ms(20));
    let t = tracer.borrow();
    (t.events_seen, t.render())
}

#[test]
fn tracer_sees_the_whole_exchange() {
    let (events, log) = run_traced(None);
    assert!(events > 1000, "only {events} events traced");
    // Control, data, and ack legs all appear, as do all event kinds.
    assert!(
        log.contains("CTRL demand="),
        "{}",
        &log[..500.min(log.len())]
    );
    assert!(log.contains("DATA seq="));
    assert!(log.contains("ACK ack="));
    assert!(log.contains(" enq "));
    assert!(log.contains(" tx "));
    assert!(log.contains(" rx "));
}

#[test]
fn flow_filter_isolates_one_flow() {
    let (all, _) = run_traced(None);
    let (one, log) = run_traced(Some(FlowId(2)));
    assert!(one > 0 && one < all / 2, "filtered {one} vs all {all}");
    for line in log.lines() {
        assert!(line.contains(" f2 "), "foreign flow in: {line}");
    }
}

#[test]
fn tracing_does_not_change_outcomes() {
    // The tracer is passive: identical runs with and without it produce
    // identical event counts and logs across repetitions.
    let (a, log_a) = run_traced(None);
    let (b, log_b) = run_traced(None);
    assert_eq!(a, b);
    assert_eq!(log_a, log_b);
}

fn small_cfg(seed: u64) -> ModesConfig {
    ModesConfig {
        num_flows: 6,
        burst_duration_ms: 0.5,
        num_bursts: 2,
        warmup_bursts: 1,
        seed,
        ..ModesConfig::default()
    }
}

fn instrumented(seed: u64) -> (String, String) {
    let cfg = small_cfg(seed);
    let (jsonl, sref) = JsonlSink::new().shared();
    let (_, manifest) = run_incast_instrumented(&cfg, Some(&sref));
    let stream = jsonl.borrow().render();
    // Wall-clock is the one nondeterministic manifest field; strip it.
    (stream, manifest.deterministic().to_json())
}

#[test]
fn jsonl_export_is_byte_identical_across_same_seed_runs() {
    let (stream_a, manifest_a) = instrumented(42);
    let (stream_b, manifest_b) = instrumented(42);
    assert!(!stream_a.is_empty());
    assert_eq!(stream_a, stream_b, "same seed must replay byte-identically");
    assert_eq!(manifest_a, manifest_b);
    // Every event kind the acceptance criteria name is present.
    for ev in [
        "queue_depth",
        "flow_window",
        "burst_start",
        "burst_end",
        "pkt_enq",
    ] {
        assert!(
            stream_a.contains(&format!("\"ev\":\"{ev}\"")),
            "missing {ev} events"
        );
    }
}

#[test]
fn jsonl_export_differs_across_seeds() {
    let (stream_a, _) = instrumented(42);
    let (stream_b, _) = instrumented(43);
    assert_ne!(
        stream_a, stream_b,
        "different seeds should perturb the trace"
    );
}

fn perfetto_instrumented(cfg: &ModesConfig) -> String {
    let (pf, sref) = PerfettoSink::new().shared();
    let _ = run_incast_instrumented(cfg, Some(&sref));
    let out = pf.borrow().render();
    out
}

#[test]
fn perfetto_export_is_byte_identical_and_viewer_ready() {
    let cfg = small_cfg(42);
    let a = perfetto_instrumented(&cfg);
    let b = perfetto_instrumented(&cfg);
    assert_eq!(a, b, "same seed must render byte-identically");
    // A complete Chrome trace-event document a viewer opens as-is.
    assert!(a.starts_with(r#"{"traceEvents":["#), "not a trace document");
    assert!(a.ends_with(r#"],"displayTimeUnit":"ms"}"#), "unterminated");
    assert_brackets_balance(&a);
    for needle in [
        r#""ph":"b""#,              // async span opens (packet hops, bursts)
        r#""ph":"e""#,              // span closes
        r#""ph":"C""#,              // counters (queue depth, flow windows)
        r#""name":"process_name""#, // pid metadata
        r#""cat":"burst""#,         // app-level burst spans
        r#" window""#,              // per-flow cwnd/inflight track
    ] {
        assert!(a.contains(needle), "missing {needle} in trace");
    }
}

/// Every `{` / `[` outside a string literal is closed by its own kind, and
/// the document ends at depth 0 — what a strict JSON parser checks first.
fn assert_brackets_balance(doc: &str) {
    let mut open = Vec::new();
    let mut bytes = doc.bytes().enumerate();
    while let Some((at, b)) = bytes.next() {
        match b {
            b'"' => loop {
                match bytes.next() {
                    Some((_, b'\\')) => drop(bytes.next()),
                    Some((_, b'"')) => break,
                    Some(_) => {}
                    None => panic!("string opened at byte {at} never closes"),
                }
            },
            b'{' | b'[' => open.push((b, at)),
            b'}' | b']' => {
                let around = &doc[at.saturating_sub(80)..(at + 20).min(doc.len())];
                match open.pop() {
                    Some((opener, _)) if opener + 2 == b => {}
                    Some((opener, from)) => panic!(
                        "{:?} at byte {at} closes the {:?} opened at byte {from}: ...{around}",
                        b as char, opener as char
                    ),
                    None => panic!("{:?} at byte {at} closes nothing: ...{around}", b as char),
                }
                assert!(
                    !open.is_empty() || at + 1 == doc.len(),
                    "document closes at byte {at} of {}: ...{around}",
                    doc.len()
                );
            }
            _ => {}
        }
    }
    assert!(open.is_empty(), "{} brackets left open", open.len());
}

#[test]
fn perfetto_links_drops_to_retransmissions_under_loss() {
    // A 30 % loss window forces drops and the retransmissions they cause;
    // the trace must carry both ends of the causal arrows plus the fault
    // and drop instants.
    let mut cfg = small_cfg(42);
    cfg.num_flows = 15;
    cfg.burst_duration_ms = 1.0;
    cfg.num_bursts = 3;
    cfg.faults.loss = Some((SimTime::from_ms(1), SimTime::from_ms(4), 0.3));
    let out = perfetto_instrumented(&cfg);
    // Long enough to span several of the sink's chunks: the objects on
    // either side of every chunk boundary still nest and separate.
    assert!(out.len() > 2 * CHUNK_BYTES, "{} bytes", out.len());
    assert_brackets_balance(&out);
    assert!(out.contains(r#""name":"drop""#), "no drop instants");
    assert!(out.contains(r#""name":"fault:"#), "no fault instants");
    assert!(out.contains(r#""cat":"cause""#), "no causal arrows");
    assert!(out.contains(r#""ph":"s""#), "no arrow starts");
    assert!(out.contains(r#""bp":"e""#), "no arrow ends");
    assert!(out.contains(r#" retx "#), "no retransmission spans");
}

/// The two exporters' bytes, pinned: FNV-1a hashes of the JSONL stream and
/// the Perfetto document, recorded from the field-by-field encoders before
/// the fused line writer replaced them (the Perfetto column re-recorded once
/// since, when `burst_end` objects lost the stray third `}` that kept the
/// document from parsing). Between them the runs reach every
/// event kind and packet detail the stack emits — TCP under a loss window,
/// QUIC under one, a lossy Pulser plane (pause notifications, their acks,
/// episode transitions) and a Distributed one (cwnd cuts) on a Clos fabric
/// with a shared receiver buffer — so an encoder change that moves a byte
/// of either format fails here, not in a downstream trace diff.
#[test]
fn exported_bytes_match_the_pinned_encoders() {
    use incast_bursts::core_api::cache::fnv1a64;
    use incast_bursts::core_api::modes::{MitigationKind, TopologySpec};
    use incast_bursts::simnet::BufferPolicy;
    use incast_bursts::transport::TransportKind;

    let mut lossy = small_cfg(42);
    lossy.num_flows = 15;
    lossy.burst_duration_ms = 1.0;
    lossy.num_bursts = 3;
    lossy.faults.loss = Some((SimTime::from_ms(1), SimTime::from_ms(4), 0.3));
    let mut quic = lossy.clone();
    quic.tcp.transport = TransportKind::Quic;
    let mut pulser = small_cfg(5);
    pulser.num_flows = 12;
    pulser.topology = TopologySpec::Clos {
        racks: 3,
        spines: 2,
    };
    pulser.receiver_tor_buffer = Some((200_000, BufferPolicy::DynamicThreshold { alpha: 1.0 }));
    pulser.mitigation.kind = MitigationKind::Pulser;
    pulser.mitigation.notif_loss = 0.3;
    let mut distributed = pulser.clone();
    distributed.mitigation.kind = MitigationKind::Distributed;

    let pinned: [(&str, ModesConfig, u64, u64); 5] = [
        ("tcp", small_cfg(42), 0x3500cfcda0a20674, 0xc2074109c0ce7d17),
        ("tcp lossy", lossy, 0x291dc5dcfcd694be, 0x456f1fc2ef65b719),
        ("quic lossy", quic, 0x5a731323d5b11c28, 0x493319a900ea538a),
        ("pulser", pulser, 0x43dfe6927425da02, 0x89dcf79cf51dc202),
        (
            "distributed",
            distributed,
            0xf25d4e81dc27adb0,
            0xedb79b6b2d8c3941,
        ),
    ];
    let mut seen = String::new();
    let mut moved = Vec::new();
    for (label, cfg, jsonl_hash, perfetto_hash) in &pinned {
        let (jsonl, sref) = JsonlSink::new().shared();
        let _ = run_incast_instrumented(cfg, Some(&sref));
        let jsonl = jsonl.borrow();
        seen.push_str(&jsonl.render());
        let hashes = (
            fnv1a64(&jsonl.render()),
            fnv1a64(&perfetto_instrumented(cfg)),
        );
        if hashes != (*jsonl_hash, *perfetto_hash) {
            moved.push(format!("{label}: {:#018x}, {:#018x}", hashes.0, hashes.1));
        }
    }
    assert!(
        moved.is_empty(),
        "exported bytes moved (jsonl, perfetto): {moved:#?}"
    );
    // The pin is only as good as its coverage.
    for needle in [
        r#""ev":"pkt_drop""#,
        r#""ev":"fault""#,
        r#""ev":"ctrl""#,
        r#""ev":"buffer_watermark""#,
        r#""pkt":"qdata""#,
        r#""pkt":"qack""#,
        r#""pkt":"notif","#,
        r#""pkt":"notif_ack""#,
        r#""cut":true"#,
        r#""retx":true"#,
        r#""trigger":"rto""#,
    ] {
        assert!(seen.contains(needle), "no pinned run emits {needle}");
    }
}
