//! Property-style integration tests: random small configurations must
//! uphold the transport's delivery invariants and the simulator's
//! conservation laws.
//!
//! Formerly proptest-based; rewritten as seeded `stats::Rng` case loops so
//! the workspace carries no external dev-dependencies. The invariants
//! checked are unchanged.

mod common;

use incast_bursts::core_api::modes::{run_incast, ModesConfig};
use incast_bursts::millisampler::unwrap_seq;
use incast_bursts::simnet::{EventQueue, Scheduler, TimingWheel};
use incast_bursts::transport::seq;
use std::collections::BTreeMap;

/// Any small incast completes, delivers all demand, and never reports
/// more acked than sent.
#[test]
fn random_incasts_complete() {
    let mut rng = stats::Rng::new(0x1CA5);
    for _ in 0..12 {
        let flows = rng.range_u64(2, 39) as usize;
        let burst_ms = rng.range_u64(1, 3) as u32;
        let bursts = rng.range_u64(2, 3) as u32;
        let seed = rng.below(1000);

        let cfg = ModesConfig {
            num_flows: flows,
            burst_duration_ms: burst_ms as f64,
            num_bursts: bursts,
            warmup_bursts: 1,
            seed,
            ..ModesConfig::default()
        };
        let r = run_incast(&cfg);
        assert_eq!(r.bcts_ms.len(), bursts as usize);
        for bct in &r.bcts_ms {
            assert!(*bct > 0.0);
        }
        // Queue never exceeds its configured capacity.
        assert!(r.queue_watermark_pkts <= 1333);
        // Marks never exceed enqueued packets.
        assert!(r.marked_pkts <= r.enqueued_pkts);
    }
}

/// The sampler's sequence unwrap is exactly the transport's.
#[test]
fn unwrap_implementations_agree() {
    let mut rng = stats::Rng::new(0xA9CEE);
    for _ in 0..2000 {
        let wire = rng.next_u64() as u32;
        let reference = rng.below(1 << 48);
        assert_eq!(unwrap_seq(wire, reference), seq::unwrap(wire, reference));
    }
}

#[test]
fn zero_loss_zero_retx_invariant() {
    // In a healthy run (no drops anywhere), there must be no
    // retransmissions and no timeouts: retransmissions imply loss.
    let r = run_incast(&ModesConfig {
        num_flows: 20,
        burst_duration_ms: 2.0,
        num_bursts: 3,
        seed: 3,
        ..ModesConfig::default()
    });
    assert_eq!(r.drops, 0);
    assert_eq!(r.retx_bytes, 0, "retransmissions without loss");
    assert_eq!(r.timeouts, 0, "timeouts without loss");
}

/// Extracts, per (link, flow), the sequence of packet descriptors of the
/// `what` events in trace order. Trace lines look like:
/// `   123.456us L3 tx          F2 N0->N5 DATA seq=1446 len=1446`.
fn per_link_flow_sequences(trace: &str, what: &str) -> BTreeMap<(String, String), Vec<String>> {
    let mut seqs: BTreeMap<(String, String), Vec<String>> = BTreeMap::new();
    for line in trace.lines() {
        let mut it = line.split_whitespace();
        let _time = it.next();
        let (Some(link), Some(kind), Some(flow)) = (it.next(), it.next(), it.next()) else {
            continue;
        };
        if kind != what {
            continue;
        }
        let rest: Vec<&str> = it.collect();
        seqs.entry((link.to_string(), flow.to_string()))
            .or_default()
            .push(rest.join(" "));
    }
    seqs
}

/// On a lossless topology, a link delivers exactly the frames it
/// transmits, in transmission order; only frames still in flight when the
/// run cuts off may be missing. So per (link, flow), the delivered packet
/// sequence must be a prefix of the transmitted one — a reordered,
/// duplicated, or dropped delivery breaks the prefix.
fn links_deliver_in_transmission_order<S: Scheduler>() {
    for seed in [210u64, 47, 1009] {
        let (trace, ..) = common::seeded_observables::<S>(seed, false);
        let tx = per_link_flow_sequences(&trace, "tx");
        let rx = per_link_flow_sequences(&trace, "rx");
        assert!(!tx.is_empty(), "no transmissions traced (seed {seed})");
        let mut delivered = 0usize;
        for (key, tx_seq) in &tx {
            let rx_seq = rx.get(key).map_or(&[][..], Vec::as_slice);
            assert!(
                rx_seq.len() <= tx_seq.len() && tx_seq[..rx_seq.len()] == *rx_seq,
                "per-link delivery order diverged from transmission order \
                 for {key:?} (seed {seed}, {}):\n tx: {tx_seq:?}\n rx: {rx_seq:?}",
                S::NAME
            );
            delivered += rx_seq.len();
        }
        // Nothing rx'd that was never tx'd on that link either.
        for key in rx.keys() {
            assert!(
                tx.contains_key(key),
                "{key:?} delivered frames it never transmitted (seed {seed}, {})",
                S::NAME
            );
        }
        assert!(
            delivered > 100,
            "too little traffic to be meaningful (seed {seed})"
        );
    }
}

#[test]
fn links_preserve_fifo_order_on_both_schedulers() {
    links_deliver_in_transmission_order::<TimingWheel>();
    links_deliver_in_transmission_order::<EventQueue>();
}
