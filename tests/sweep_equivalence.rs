//! Differential sweep testing: the sweep engine must produce *byte
//! identical* aggregates regardless of thread count or cache state. Every
//! comparison here is exact (string equality on digests, `f64::to_bits`
//! on pooled samples) — "close enough" would hide nondeterministic fold
//! order or a lossy cache round-trip.

use incast_bursts::core_api::modes::ModesConfig;
use incast_bursts::core_api::production::{run_fleet_with, FleetConfig};
use incast_bursts::core_api::stability::{run_stability_with, StabilityConfig};
use incast_bursts::core_api::{
    run_incast_cached, run_incast_sweep, IncastSweepAggregate, RunCache,
};
use incast_bursts::simnet::SimTime;
use incast_bursts::workload::ServiceId;

fn fig5_style_cfgs() -> Vec<ModesConfig> {
    [20usize, 40, 60]
        .iter()
        .map(|&flows| ModesConfig {
            num_flows: flows,
            burst_duration_ms: 2.0,
            num_bursts: 3,
            warmup_bursts: 1,
            seed: 5,
            ..ModesConfig::default()
        })
        .collect()
}

fn digest_of(cfgs: &[ModesConfig], threads: usize, cache: &RunCache) -> String {
    let runs = run_incast_sweep(cfgs, threads, cache);
    IncastSweepAggregate::from_runs(runs.iter().map(|r| &**r)).digest()
}

#[test]
fn digest_is_byte_identical_across_threads_and_cache_temperature() {
    let cfgs = fig5_style_cfgs();
    let mut digests = Vec::new();
    for threads in [1usize, 4] {
        let cache = RunCache::in_memory();
        digests.push(digest_of(&cfgs, threads, &cache)); // cold
        digests.push(digest_of(&cfgs, threads, &cache)); // warm (all hits)
        assert!(
            cache.stats().hits() > 0,
            "warm pass must hit: {}",
            cache.stats().summary()
        );
    }
    for d in &digests[1..] {
        assert_eq!(d, &digests[0], "sweep aggregate diverged:\n{digests:#?}");
    }
}

#[test]
fn partially_warm_sweep_serves_hits_and_simulates_only_the_rest() {
    let cfgs = fig5_style_cfgs();
    let all_cold = digest_of(&cfgs, 1, &RunCache::in_memory());
    let warm = cfgs.len() / 2;
    assert!(0 < warm && warm < cfgs.len());
    for threads in [1usize, 4] {
        let cache = RunCache::in_memory();
        run_incast_sweep(&cfgs[..warm], threads, &cache);
        let before = cache.stats();
        let runs = run_incast_sweep(&cfgs, threads, &cache);
        let after = cache.stats();
        assert_eq!(after.mem_hits - before.mem_hits, warm as u64);
        assert_eq!(after.misses - before.misses, (cfgs.len() - warm) as u64);
        // Config order: every result is the cache's entry for its config.
        for (cfg, run) in cfgs.iter().zip(&runs) {
            assert!(std::sync::Arc::ptr_eq(run, &run_incast_cached(cfg, &cache)));
        }
        let digest = IncastSweepAggregate::from_runs(runs.iter().map(|r| &**r)).digest();
        assert_eq!(digest, all_cold, "threads={threads}");

        // A panicking run names its index in the caller's slice, however
        // many configs ahead of it the cache served.
        let mut poisoned = cfgs.clone();
        poisoned.push(ModesConfig {
            burst_duration_ms: -1.0,
            ..cfgs[0].clone()
        });
        let label = format!("(({}, ModesConfig {{", cfgs.len());
        for cache in [RunCache::in_memory(), cache] {
            let payload = std::panic::catch_unwind(|| run_incast_sweep(&poisoned, threads, &cache))
                .expect_err("the poisoned config must abort the sweep");
            let msg = payload.downcast_ref::<String>().expect("labelled payload");
            assert!(
                msg.starts_with("sweep item ") && msg.contains(&label),
                "{msg}"
            );
        }
    }
}

#[test]
fn disk_layer_round_trips_the_sweep_byte_identically() {
    let dir = std::env::temp_dir().join(format!(
        "incast-sweep-equiv-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfgs = fig5_style_cfgs();

    let cold_cache = RunCache::with_disk(&dir);
    let cold = digest_of(&cfgs, 4, &cold_cache);
    assert_eq!(cold_cache.stats().disk_writes, cfgs.len() as u64);

    // A fresh cache over the same directory: memory is empty, so every
    // run decodes from disk — and the decoded aggregate must match the
    // computed one byte for byte.
    let warm_cache = RunCache::with_disk(&dir);
    let warm = digest_of(&cfgs, 4, &warm_cache);
    assert_eq!(warm_cache.stats().disk_hits, cfgs.len() as u64);
    assert_eq!(warm_cache.stats().misses, 0);
    assert_eq!(cold, warm);

    let _ = std::fs::remove_dir_all(&dir);
}

fn tiny_fleet() -> FleetConfig {
    FleetConfig {
        services: vec![ServiceId::Aggregator, ServiceId::Storage],
        hosts: 2,
        snapshots: 1,
        duration: SimTime::from_ms(200),
        contention: true,
        seed: 2024,
        threads: 1,
    }
}

#[test]
fn fleet_cdfs_are_bit_identical_across_threads_and_cache_state() {
    let baseline: Vec<Vec<u64>> = {
        let mut cfg = tiny_fleet();
        cfg.threads = 1;
        fleet_sample_bits(&run_fleet_with(&cfg, &RunCache::in_memory()))
    };
    // Parallel cold, then the same cache warm.
    let mut cfg = tiny_fleet();
    cfg.threads = 4;
    let cache = RunCache::in_memory();
    let parallel_cold = fleet_sample_bits(&run_fleet_with(&cfg, &cache));
    let parallel_warm = fleet_sample_bits(&run_fleet_with(&cfg, &cache));
    assert!(cache.stats().hits() > 0, "{}", cache.stats().summary());
    assert_eq!(baseline, parallel_cold);
    assert_eq!(baseline, parallel_warm);
}

fn fleet_sample_bits(
    fleet: &[(ServiceId, incast_bursts::millisampler::FleetAccumulator)],
) -> Vec<Vec<u64>> {
    fleet
        .iter()
        .flat_map(|(_, acc)| {
            [
                &acc.burst_frequency,
                &acc.burst_duration_ms,
                &acc.burst_flows,
                &acc.marked_fraction,
                &acc.retx_fraction,
                &acc.queue_peak_fraction,
                &acc.utilization,
            ]
            .map(|cdf| cdf.samples().iter().map(|v| v.to_bits()).collect())
        })
        .collect()
}

#[test]
fn stability_points_are_bit_identical_across_threads() {
    let cfg = |threads| StabilityConfig {
        services: vec![ServiceId::Indexer, ServiceId::Video],
        hosts: 2,
        snapshots: 2,
        interval_minutes: 10.0,
        duration: SimTime::from_ms(150),
        mode_switch_prob: 0.5,
        threads,
        seed: 5,
    };
    let bits = |threads| {
        let r = run_stability_with(&cfg(threads), &RunCache::in_memory());
        let mut out: Vec<u64> = Vec::new();
        for (_, pts) in &r.over_time {
            for p in pts {
                out.extend([
                    p.mean_flows.to_bits(),
                    p.p99_flows.to_bits(),
                    p.bursts as u64,
                ]);
            }
        }
        for (_, pts) in &r.per_host {
            for p in pts {
                out.extend([p.mean_flows.to_bits(), p.p99_flows.to_bits()]);
            }
        }
        out
    };
    assert_eq!(bits(1), bits(4));
}
