//! Physics pin: everything a run produces except its event count.
//!
//! How the simulator keeps its timers is allowed to change how many
//! scheduler events a run pops (`events_processed`, the `timer` / `ctrl`
//! tallies) and nothing else. The three configs below spend most of their
//! simulated time waiting out 200 ms RTOs and control-plane retry timers,
//! re-arming and cancelling them on every ACK — the path a timer change
//! touches — and each hash covers the per-burst completion times bit for
//! bit, the bottleneck and sender counters, the simulator's counters and
//! the complete JSONL stream. The constants were captured on the commit
//! before the one-live-event-per-timer table replaced per-arm generations.

use incast_bursts::core_api::cache::fnv1a64;
use incast_bursts::core_api::modes::{
    run_incast_instrumented, MitigationKind, ModesConfig, TopologySpec,
};
use incast_bursts::telemetry::JsonlSink;
use incast_bursts::transport::TransportKind;

/// 120 senders into a 150-packet bottleneck: every burst overflows it and
/// the stragglers recover by retransmission timeout.
fn mode3(seed: u64) -> ModesConfig {
    let mut cfg = ModesConfig {
        num_flows: 120,
        burst_duration_ms: 2.0,
        num_bursts: 4,
        warmup_bursts: 1,
        seed,
        ..ModesConfig::default()
    };
    cfg.tor_queue.capacity_pkts = Some(150);
    cfg
}

/// Hash of every output of one run but its event counts; the number of RTOs
/// it took (the coverage the pin depends on) and of events it popped.
fn physics(cfg: &ModesConfig) -> (u64, u64, u64) {
    let (jsonl, sref) = JsonlSink::new().shared();
    let (r, manifest) = run_incast_instrumented(cfg, Some(&sref));
    assert_eq!(r.bcts_ms.len(), cfg.num_bursts as usize, "run incomplete");
    let counters = &manifest.counters_json;
    let (head, tail) = counters
        .split_once(r#""events_processed":"#)
        .expect("counters name their event count");
    let tail = tail.trim_start_matches(|c: char| c.is_ascii_digit());
    let bcts: Vec<u64> = r.bcts_ms.iter().map(|b| b.to_bits()).collect();
    let mut text = format!(
        "{bcts:?} {} {} {} {} {} {} {} {} {head}{tail} {:?}\n",
        r.drops,
        r.marked_pkts,
        r.enqueued_pkts,
        r.timeouts,
        r.fast_retransmits,
        r.retx_bytes,
        r.queue_watermark_pkts,
        r.finished_at.as_ps(),
        manifest.control_json,
    );
    text.push_str(&jsonl.borrow().render());
    (fnv1a64(&text), r.timeouts, manifest.events_processed)
}

#[test]
fn outputs_other_than_event_counts_match_the_pinned_runs() {
    let mut quic = mode3(8);
    quic.tcp.transport = TransportKind::Quic;
    let mut pulser = mode3(9);
    pulser.num_flows = 48;
    pulser.tor_queue.capacity_pkts = Some(100);
    pulser.topology = TopologySpec::Clos {
        racks: 4,
        spines: 2,
    };
    pulser.mitigation.kind = MitigationKind::Pulser;
    pulser.mitigation.notif_loss = 0.2;

    let pinned: [(&str, ModesConfig, u64); 3] = [
        ("mode3 tcp", mode3(7), 0x1fed460d5a5ee2db),
        ("mode3 quic", quic, 0x6c32cb94c59cac14),
        ("clos pulser", pulser, 0x939c36beec0e4046),
    ];
    let mut moved = Vec::new();
    for (label, cfg, want) in &pinned {
        let (hash, timeouts, events) = physics(cfg);
        eprintln!("{label}: {timeouts} RTOs, {events} events");
        assert!(
            timeouts > 0,
            "{label}: no RTO fired, the pin covers nothing"
        );
        if hash != *want {
            moved.push(format!("{label}: {hash:#018x}"));
        }
    }
    assert!(moved.is_empty(), "run outputs moved: {moved:#?}");
}
