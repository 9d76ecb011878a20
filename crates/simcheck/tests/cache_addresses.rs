//! The run cache's two addresses — the config itself (fingerprint, then
//! `==`) and the rendered canonical key — agree over the fuzzer's config
//! space, and reach one entry for real runs.

use std::collections::HashMap;
use std::sync::Arc;

use incast_core::cache::{incast_fingerprint, incast_key};
use incast_core::modes::ModesConfig;
use incast_core::{run_incast_cached, run_incast_sweep, IncastRunResult, RunCache};
use simcheck::generate;

/// Every config the fuzzer draws reads back from its text
/// bit-exactly (floats compared through the bit-folding fingerprint), so
/// each is a reproducer's config.
#[test]
fn generated_configs_read_back_bit_exactly() {
    for seed in 0..200 {
        let cfg = generate(seed);
        let text = stats::leaves::write(&cfg);
        let back: ModesConfig = stats::leaves::read(&text).expect("reads back");
        assert_eq!(back, cfg, "seed {seed}");
        assert_eq!(incast_fingerprint(&back), incast_fingerprint(&cfg));
        assert_eq!(stats::leaves::write(&back), text);
    }
}

/// Over the configs of seeds 0..2000, pairwise: two configs are `==`
/// exactly when they render the same key, and no two distinct configs share
/// a fingerprint. The first hundred are drawn a second time, so that both
/// sides of the equivalence occur.
#[test]
fn equality_key_and_fingerprint_agree_over_generated_configs() {
    let cfgs: Vec<ModesConfig> = (0..2000).chain(0..100).map(generate).collect();
    let keys: Vec<String> = cfgs.iter().map(incast_key).collect();
    for i in 0..cfgs.len() {
        for j in i..cfgs.len() {
            assert_eq!(
                cfgs[i] == cfgs[j],
                keys[i] == keys[j],
                "draws {i} and {j}: `==` and the rendered key disagree"
            );
        }
    }
    let mut by_fingerprint: HashMap<u64, &str> = HashMap::new();
    for (cfg, key) in cfgs.iter().zip(&keys) {
        let first = by_fingerprint
            .entry(incast_fingerprint(cfg))
            .or_insert(key.as_str());
        assert_eq!(*first, key.as_str(), "two configs share a fingerprint");
    }
    assert_eq!(by_fingerprint.len(), 2000);
}

/// Real runs of generated configs: what a sweep inserted by config is a
/// memory hit by rendered key, and the reverse, one `mem_hits` per lookup
/// and one entry per run.
#[test]
fn a_sweep_and_the_raw_key_api_share_their_entries() {
    let cfgs: Vec<ModesConfig> = (0..4).map(generate).collect();
    let cache = RunCache::in_memory();
    let swept = run_incast_sweep(&cfgs, 2, &cache);
    for (cfg, run) in cfgs.iter().zip(&swept) {
        let by_key = cache
            .get::<IncastRunResult>(&incast_key(cfg))
            .expect("resident under its rendered key");
        assert!(Arc::ptr_eq(run, &by_key));
    }
    let s = cache.stats();
    assert_eq!((s.mem_hits, s.misses, s.entries), (4, 4, 4));

    let cache = RunCache::in_memory();
    let raw: Vec<_> = cfgs
        .iter()
        .map(|cfg| cache.get_or_compute(&incast_key(cfg), || incast_core::run_incast(cfg)))
        .collect();
    for (cfg, run) in cfgs.iter().zip(&raw) {
        assert!(Arc::ptr_eq(run, &run_incast_cached(cfg, &cache)));
    }
    let swept = run_incast_sweep(&cfgs, 2, &cache);
    assert!(raw.iter().zip(&swept).all(|(a, b)| Arc::ptr_eq(a, b)));
    let s = cache.stats();
    assert_eq!((s.mem_hits, s.misses, s.entries), (8, 4, 4));
}
