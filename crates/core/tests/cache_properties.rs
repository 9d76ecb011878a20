//! Cache-correctness properties:
//!
//! 1. The canonical key is injective over config fields: two configs
//!    differing in exactly one field — any field, including nested ones —
//!    never collide into the same key string.
//! 2. A cache hit is byte-identical to the cold run: the disk encoding of
//!    a decoded entry equals the encoding of the freshly computed result,
//!    so warm aggregates cannot drift.
//! 3. Damaged entries and entries written under an older schema version
//!    are misses, never panics or wrong decodes.

use incast_core::cache::{fnv1a64, incast_key, trace_key, CacheValue, RunCache};
use incast_core::modes::{run_incast, MitigationKind, ModesConfig};
use incast_core::production::TraceConfig;
use simnet::{BufferPolicy, SimTime};
use workload::{BurstSchedule, Grouping, ServiceId};

/// The base config plus one variant per `ModesConfig` field (nested
/// structs perturbed through a representative inner field).
fn one_field_variants() -> Vec<(&'static str, ModesConfig)> {
    let base = ModesConfig::default;
    let mut v: Vec<(&'static str, ModesConfig)> = Vec::new();
    v.push(("num_flows", {
        let mut c = base();
        c.num_flows += 1;
        c
    }));
    v.push(("burst_duration_ms", {
        let mut c = base();
        c.burst_duration_ms += 0.5;
        c
    }));
    v.push(("num_bursts", {
        let mut c = base();
        c.num_bursts += 1;
        c
    }));
    v.push(("warmup_bursts", {
        let mut c = base();
        c.warmup_bursts += 1;
        c
    }));
    v.push(("gap", {
        let mut c = base();
        c.gap = SimTime::from_ms(3);
        c
    }));
    v.push(("tcp.mss", {
        let mut c = base();
        c.tcp.mss -= 6;
        c
    }));
    v.push(("tcp.init_cwnd_segs", {
        let mut c = base();
        c.tcp.init_cwnd_segs += 1;
        c
    }));
    v.push(("tor_queue.ecn_threshold_pkts", {
        let mut c = base();
        c.tor_queue.ecn_threshold_pkts = Some(66);
        c
    }));
    v.push(("receiver_tor_buffer", {
        let mut c = base();
        c.receiver_tor_buffer = Some((4_000_000, BufferPolicy::DynamicThreshold { alpha: 1.0 }));
        c
    }));
    v.push(("queue_sample", {
        let mut c = base();
        c.queue_sample = SimTime::from_us(21);
        c
    }));
    v.push(("flight_sample", {
        let mut c = base();
        c.flight_sample = Some(SimTime::from_us(100));
        c
    }));
    v.push(("grouping", {
        let mut c = base();
        c.grouping = Some(Grouping {
            group_size: 10,
            group_gap: SimTime::from_us(500),
        });
        c
    }));
    v.push(("schedule", {
        let mut c = base();
        c.schedule = BurstSchedule::Periodic {
            period: SimTime::from_ms(17),
        };
        c
    }));
    v.push(("seed", {
        let mut c = base();
        c.seed += 1;
        c
    }));
    v.push(("horizon", {
        let mut c = base();
        c.horizon = SimTime::from_secs(31);
        c
    }));
    v.push(("faults.straggler", {
        let mut c = base();
        c.faults.straggler = Some((SimTime::from_ms(1), SimTime::from_ms(5), 0));
        c
    }));
    v.push(("faults.blackhole", {
        let mut c = base();
        c.faults.blackhole = Some((SimTime::from_ms(1), SimTime::from_ms(5)));
        c
    }));
    // Every control-plane field: flipping any one of them must produce a
    // distinct run, so each must perturb the key on its own.
    v.push(("mitigation.kind", {
        let mut c = base();
        c.mitigation.kind = MitigationKind::Pulser;
        c
    }));
    v.push(("mitigation.kind (distributed)", {
        let mut c = base();
        c.mitigation.kind = MitigationKind::Distributed;
        c
    }));
    v.push(("mitigation.notif_loss", {
        let mut c = base();
        c.mitigation.notif_loss = 0.5;
        c
    }));
    v.push(("mitigation.flow_threshold", {
        let mut c = base();
        c.mitigation.flow_threshold += 1;
        c
    }));
    v.push(("mitigation.window_us", {
        let mut c = base();
        c.mitigation.window_us += 50;
        c
    }));
    v.push(("mitigation.pause_us", {
        let mut c = base();
        c.mitigation.pause_us += 50;
        c
    }));
    v.push(("mitigation.retry_timeout_us", {
        let mut c = base();
        c.mitigation.retry_timeout_us += 50;
        c
    }));
    v.push(("mitigation.max_retries", {
        let mut c = base();
        c.mitigation.max_retries += 1;
        c
    }));
    v
}

#[test]
fn one_field_difference_never_collides() {
    let base_key = incast_key(&ModesConfig::default());
    let variants = one_field_variants();
    let mut keys = vec![("base", base_key)];
    for (name, cfg) in &variants {
        keys.push((name, incast_key(cfg)));
    }
    for (i, (ni, ki)) in keys.iter().enumerate() {
        for (nj, kj) in keys.iter().skip(i + 1) {
            assert_ne!(ki, kj, "configs '{ni}' and '{nj}' collided: {ki}");
        }
    }
}

#[test]
fn trace_keys_separate_every_field() {
    let base = || TraceConfig::new(ServiceId::Aggregator, 1);
    let variants = [
        {
            let mut c = base();
            c.service = ServiceId::Storage;
            c
        },
        {
            let mut c = base();
            c.duration = SimTime::from_secs(1);
            c
        },
        {
            let mut c = base();
            c.seed = 2;
            c
        },
        {
            let mut c = base();
            c.contention = false;
            c
        },
        {
            let mut c = base();
            c.queue_sample = SimTime::from_us(101);
            c
        },
    ];
    let base_key = trace_key(&base());
    let keys: Vec<String> = variants.iter().map(trace_key).collect();
    for (i, k) in keys.iter().enumerate() {
        assert_ne!(k, &base_key, "variant {i} collided with base");
        for other in keys.iter().skip(i + 1) {
            assert_ne!(k, other);
        }
    }
}

#[test]
fn warm_hit_is_byte_identical_to_cold_run() {
    let dir = std::env::temp_dir().join(format!(
        "incast-cache-prop-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ModesConfig {
        num_flows: 10,
        burst_duration_ms: 1.0,
        num_bursts: 3,
        warmup_bursts: 1,
        flight_sample: Some(SimTime::from_us(200)),
        seed: 9,
        ..ModesConfig::default()
    };
    let cold = run_incast(&cfg);

    let cache = RunCache::with_disk(&dir);
    let first = incast_core::run_incast_cached(&cfg, &cache);
    assert_eq!(cache.stats().misses, 1);
    // Fresh cache over the same dir: forces the disk decode path.
    let cache2 = RunCache::with_disk(&dir);
    let decoded = incast_core::run_incast_cached(&cfg, &cache2);
    assert_eq!(cache2.stats().disk_hits, 1);

    // Byte identity through the full encode/decode cycle, and against a
    // plain uncached run (wall-clock is the one field allowed to differ
    // between two separate executions; everything before it must match).
    let strip_wall = |s: &str| s.split(",\"p_wall_ns\":").next().unwrap().to_string();
    assert_eq!(first.encode(), decoded.encode());
    assert_eq!(strip_wall(&cold.encode()), strip_wall(&decoded.encode()));
    // Spot-check decoded structure (not just the encoding): per-burst
    // BCTs, flight series, and the profile survive exactly.
    assert_eq!(cold.bcts_ms, decoded.bcts_ms);
    assert_eq!(cold.flights.len(), decoded.flights.len());
    assert_eq!(cold.profile.tallies, decoded.profile.tallies);
    assert_eq!(cold.finished_at, decoded.finished_at);

    let _ = std::fs::remove_dir_all(&dir);
}

/// 3. A damaged on-disk entry — truncated, garbled, or outright binary
///    noise — is a cache *miss*, never a panic or a wrong decode: the
///    strict scanner rejects it and the value is recomputed and rewritten.
#[test]
fn corrupted_disk_entries_miss_instead_of_panicking() {
    let dir = std::env::temp_dir().join(format!(
        "incast-cache-corrupt-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ModesConfig {
        num_flows: 4,
        burst_duration_ms: 0.5,
        num_bursts: 1,
        warmup_bursts: 0,
        seed: 3,
        ..ModesConfig::default()
    };
    let key = incast_key(&cfg);
    let entry = dir.join(format!("{:016x}.jsonl", fnv1a64(&key)));

    // Seed the directory with one valid entry.
    let seed_cache = RunCache::with_disk(&dir);
    let reference = incast_core::run_incast_cached(&cfg, &seed_cache);
    assert_eq!(seed_cache.stats().disk_writes, 1);
    let pristine = std::fs::read_to_string(&entry).expect("entry written");
    let (meta, payload) = pristine.split_once('\n').expect("meta line");

    let corruptions: Vec<(&str, String)> = vec![
        // Payload cut mid-record: the scanner runs off the end.
        (
            "truncated payload",
            format!("{meta}\n{}", &payload[..payload.len() / 2]),
        ),
        // Meta line survives but the payload is not JSON at all.
        ("garbled payload", format!("{meta}\nnot json {{]!\n")),
        // A digit swapped for a letter deep inside an otherwise-valid body.
        (
            "flipped byte",
            format!("{meta}\n{}", payload.replacen(':', ":x", 1)),
        ),
        // Nothing after the meta line.
        ("missing payload", format!("{meta}\n")),
        // Zero-length file.
        ("empty file", String::new()),
        // Meta mismatch (wrong schema/key) must miss even with a valid body.
        ("garbled meta", format!("{{\"v\":999}}\n{payload}")),
        // Binary noise, including an invalid-UTF-8 decoy handled below.
        ("binary noise", "\u{1}\u{2}\u{3}\n[1,2,".to_string()),
    ];

    for (name, body) in &corruptions {
        std::fs::write(&entry, body).expect("inject corruption");
        let cache = RunCache::with_disk(&dir);
        let recomputed = incast_core::run_incast_cached(&cfg, &cache);
        let stats = cache.stats();
        assert_eq!(stats.disk_hits, 0, "'{name}' decoded as a hit");
        assert_eq!(stats.misses, 1, "'{name}' did not fall through to a miss");
        assert_eq!(
            recomputed.bcts_ms, reference.bcts_ms,
            "'{name}' recompute diverged"
        );
        // The recompute must also have repaired the entry on disk (byte
        // identical up to the wall-clock field, which varies per execution).
        let strip_wall = |s: &str| s.split(",\"p_wall_ns\":").next().unwrap().to_string();
        let repaired = std::fs::read_to_string(&entry).expect("entry rewritten");
        assert_eq!(
            strip_wall(&repaired),
            strip_wall(&pristine),
            "'{name}' left a bad entry behind"
        );
    }

    // Mid-write kill: a writer died after creating its temp file but
    // before the atomic rename. The stale `.tmp` must be invisible to
    // readers (the published entry is still the pristine one), and a
    // subsequent write must publish cleanly alongside it.
    std::fs::write(&entry, &pristine).expect("restore entry");
    let stale_tmp = dir.join(format!(".{:016x}.jsonl.999999.tmp", fnv1a64(&key)));
    std::fs::write(&stale_tmp, &pristine[..pristine.len() / 3]).expect("stale tmp");
    {
        let cache = RunCache::with_disk(&dir);
        let warmed = incast_core::run_incast_cached(&cfg, &cache);
        assert_eq!(cache.stats().disk_hits, 1, "stale tmp shadowed the entry");
        assert_eq!(warmed.bcts_ms, reference.bcts_ms);
    }
    // Kill the published entry too: only the half-written tmp remains.
    // That is a miss, and the recompute republishes a valid entry.
    std::fs::remove_file(&entry).expect("drop entry");
    {
        let cache = RunCache::with_disk(&dir);
        let recomputed = incast_core::run_incast_cached(&cfg, &cache);
        let stats = cache.stats();
        assert_eq!(stats.disk_hits, 0, "orphan tmp decoded as a hit");
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.disk_writes, 1);
        assert_eq!(recomputed.bcts_ms, reference.bcts_ms);
        let strip_wall = |s: &str| s.split(",\"p_wall_ns\":").next().unwrap().to_string();
        let republished = std::fs::read_to_string(&entry).expect("entry republished");
        assert_eq!(strip_wall(&republished), strip_wall(&pristine));
    }
    let _ = std::fs::remove_file(&stale_tmp);

    // Invalid UTF-8 bytes (read_to_string fails entirely).
    std::fs::write(&entry, [0xFF, 0xFE, 0x00, 0xC3]).expect("inject corruption");
    let cache = RunCache::with_disk(&dir);
    let recomputed = incast_core::run_incast_cached(&cfg, &cache);
    assert_eq!(cache.stats().disk_hits, 0);
    assert_eq!(recomputed.bcts_ms, reference.bcts_ms);

    let _ = std::fs::remove_dir_all(&dir);
}

/// 4. An entry a schema-v3 build left on disk is a miss: v3 results carry
///    the event counts of a `TxComplete` per frame per hop, and outside a
///    checkout both builds call themselves `"unknown"`, so only the schema
///    version tells them apart. The v3 file sits under the hash of its v3
///    key and is never looked at; copied over the v4 entry's name (a cache
///    directory migrated by hand) its meta line still gives it away.
#[test]
fn entries_from_schema_v3_miss_instead_of_decoding() {
    let dir = std::env::temp_dir().join(format!(
        "incast-cache-v3-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = ModesConfig {
        num_flows: 4,
        burst_duration_ms: 0.5,
        num_bursts: 1,
        warmup_bursts: 0,
        seed: 3,
        ..ModesConfig::default()
    };
    let key = incast_key(&cfg);
    assert!(key.starts_with("incast/v4|"), "{key}");
    let entry_of = |key: &str| dir.join(format!("{:016x}.jsonl", fnv1a64(key)));

    // What this build writes, re-labelled as schema v3 would have.
    let seed_cache = RunCache::with_disk(&dir);
    let reference = incast_core::run_incast_cached(&cfg, &seed_cache);
    let v4 = std::fs::read_to_string(entry_of(&key)).expect("entry written");
    assert!(v4.starts_with(r#"{"v":4,"#), "{v4}");
    let v3_key = key.replacen("incast/v4|", "incast/v3|", 1);
    let v3 = v4
        .replacen(r#"{"v":4,"#, r#"{"v":3,"#, 1)
        .replacen("incast/v4|", "incast/v3|", 1);
    std::fs::remove_file(entry_of(&key)).expect("drop the v4 entry");

    for (name, path) in [
        ("under its own v3 name", entry_of(&v3_key)),
        ("renamed over the v4 entry", entry_of(&key)),
    ] {
        std::fs::write(&path, &v3).expect("plant v3 entry");
        let cache = RunCache::with_disk(&dir);
        let recomputed = incast_core::run_incast_cached(&cfg, &cache);
        let stats = cache.stats();
        assert_eq!(stats.disk_hits, 0, "v3 entry {name} decoded as a hit");
        assert_eq!(stats.misses, 1, "v3 entry {name} was not a miss");
        assert_eq!(recomputed.bcts_ms, reference.bcts_ms);
        assert_eq!(recomputed.profile.tallies, reference.profile.tallies);
        std::fs::remove_file(entry_of(&key)).expect("recompute republished");
    }
    let _ = std::fs::remove_dir_all(&dir);
}
