//! The content-addressed run cache.
//!
//! A sweep is hundreds of *pure* simulations: the result is a function of
//! the configuration and seed alone. The benches, examples, and study
//! modules share large config overlaps (a re-run figure bench repeats every
//! point; production and stability revisit the same service cells across
//! processes), so recomputing is pure waste. [`RunCache`]
//! memoizes by *content address*: the canonical key of an incast run is
//! its config's text ([`stats::leaves::write`]: every leaf, in declaration
//! order, read back bit-exactly by [`stats::leaves::read`], so two configs
//! differing in any one leaf get different keys), prefixed with a kind +
//! schema version; the 64-bit FNV-1a hash of that key names the entry, on
//! disk and in memory.
//!
//! The canonical key is what a *file* is named and checked by, and what the
//! raw `&str` API ([`RunCache::get_or_compute`], [`RunCache::get`]) takes.
//! It is not what a warm incast hit pays for: a resident incast run has two
//! addresses that reach one entry. The sweep engine and the supervisor ask
//! with the [`ModesConfig`] itself — an [`incast_fingerprint`], a fold over
//! the config's one leaf walk ([`stats::Leaves`]), finds the entry and `==`
//! against the config the entry owns confirms it, no key rendered, nothing
//! allocated — and render the key only on a miss, once, to name the file
//! and the new entry. A caller holding a
//! rendered key reaches the same entry by name; an entry owned by a config
//! answers it by rendering that config (exact, ≈ 2 µs, paid by the raw API
//! alone). Either way the owner is verified before the value is touched, so
//! a fingerprint or name shared by two different runs degrades to a
//! recompute, never a wrong result:
//! - two configs under one fingerprint: the later one takes the slot; the
//!   other is still found by name, at a key render per lookup;
//! - two keys under one name: the second is computed on every lookup and
//!   never stored;
//! - a config that is not equal to itself (a `NaN` field) fails the `==`
//!   and is found through its rendered key like a raw caller's (`NaN`,
//!   `inf` and `-inf` render as three different strings);
//! - `0.0` and `-0.0` are `==` but render differently; the fingerprint
//!   folds floats by `to_bits`, so they stay two entries.
//!
//! Two layers:
//! - **in-memory** — always on; `Arc`-shared values per process.
//! - **on-disk** — optional JSONL files under `target/run-cache/` (two
//!   lines per entry: a metadata line carrying schema version, build id,
//!   and the full key; then the encoded value). The full key is compared
//!   verbatim on load, so an FNV collision or a stale build degrades to a
//!   miss, never a wrong result. Enabled for [`RunCache::global`] with
//!   `INCAST_RUN_CACHE=1` (directory override: `INCAST_RUN_CACHE_DIR`).
//!
//! Values are written in the same text as keys, through their own leaf
//! lists, and round-trip bit-exactly: floats are written with Rust's
//! shortest round-trip formatting and parsed back with `str::parse`, so a
//! warm sweep's aggregates are byte-identical to a cold one — the sweep
//! differential test holds across cache states. The reader is strict: a
//! damaged entry (a missing leaf, a zero series interval) is a miss.

use std::any::Any;
use std::collections::hash_map::Entry;
use std::hash::Hasher;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use crate::modes::{IncastRunResult, ModesConfig};
use crate::production::TraceConfig;
use millisampler::TraceSummary;
use simnet::{FxHashMap, FxHasher};
use stats::leaves::{read, write};
use stats::{Leaves, Visit};
use telemetry::json::Obj;
use workload::SnapshotModel;

/// Bumped whenever an encoding or a simulation-visible default changes, so
/// stale disk entries from older schemas miss instead of decode.
///
/// v2: `ModesConfig` gained the `faults` spec (part of the `Debug` key) and
/// `IncastRunResult` gained the truncation cause and fault tallies.
///
/// v3: `ModesConfig` gained the `mitigation` spec (part of the `Debug`
/// key), the profile tallies gained the `ctrl` event class, and
/// `TraceSummary` gained the fault/notification tallies.
///
/// v4: a cached `IncastRunResult` carries its event tallies (`p_tx` among
/// them), and a link now pops a `TxComplete` only where a frame waits or
/// can be lost, so a v3 entry disagrees with a fresh run of the same
/// config. The build-id guard does not cover this: `git_describe()` reads
/// `"unknown"` on both sides outside a checkout.
///
/// Still v4 after `ModesConfig::gap` and `TcpConfig::flight_sample_interval`
/// were deleted: a key without those fields can never equal an old key, so
/// an old entry misses by file name and, renamed, by its verbatim meta line.
///
/// v5: the incast key is the config's text instead of its `Debug`
/// rendering, and values are written through their leaf lists.
pub const CACHE_SCHEMA_VERSION: u32 = 5;

/// 64-bit FNV-1a over the canonical key; names the on-disk entry file.
pub fn fnv1a64(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Canonical key of an incast run: `incast/v5|` and the config's text,
/// which [`stats::leaves::read`] reads back bit-exactly — so the key is
/// injective, and any single-leaf change produces a different key.
/// Rendered where a file is named or compared and for the raw `&str` API;
/// a memory hit asked for by config never renders it.
pub fn incast_key(cfg: &ModesConfig) -> String {
    format!("incast/v{CACHE_SCHEMA_VERSION}|{}", write(cfg))
}

/// Folds config leaves into an [`incast_fingerprint`]: a word per number
/// (floats by bit pattern, so `0.0` and `-0.0` fold as they render), the
/// bytes of each string and enum label, and a tag word per `Option`, so
/// `None` and `Some` of an all-zero payload differ.
struct Fold(FxHasher);

impl Visit for Fold {
    fn int(&mut self, _: &'static str, v: u64) {
        self.0.write_u64(v);
    }

    fn float(&mut self, _: &'static str, v: f64) {
        self.0.write_u64(v.to_bits());
    }

    fn str(&mut self, _: &'static str, v: &str) {
        self.0.write(v.as_bytes());
        self.0.write_u8(0xff);
    }

    fn variant(&mut self, _: &'static str, label: &'static str, _: bool) {
        self.0.write(label.as_bytes());
    }

    fn option(&mut self, _: &'static str, some: bool) {
        self.0.write_u64(some as u64);
    }
}

/// 64-bit fingerprint of an incast config: where the memory layer looks for
/// a resident run before any key is rendered. A fold over the config's leaf
/// walk ([`stats::Leaves`]), which destructures every struct without `..`,
/// so a new field does not compile until it is listed — and, once listed,
/// is folded here with no further edit. It only has to spread configs out:
/// a hit is confirmed with `==` against the stored config, so a collision
/// costs a key render, never a wrong result.
pub fn incast_fingerprint(cfg: &ModesConfig) -> u64 {
    let mut fold = Fold(FxHasher::default());
    cfg.walk("", &mut fold);
    fold.0.finish()
}

/// Canonical key of a service host-trace where the snapshot model is
/// derived from the seed ([`crate::production::run_service_trace`]).
pub fn trace_key(cfg: &TraceConfig) -> String {
    format!("trace/v{CACHE_SCHEMA_VERSION}|{cfg:?}")
}

/// Canonical key of a host-trace with an explicitly pinned snapshot model
/// ([`crate::production::run_trace_with_snapshot`], used by the stability
/// study); the snapshot is part of the content address.
pub fn trace_snapshot_key(cfg: &TraceConfig, snapshot: &SnapshotModel) -> String {
    format!("tracesnap/v{CACHE_SCHEMA_VERSION}|{cfg:?}|{snapshot:?}")
}

/// A value the cache can persist: a one-line encoding that decodes back
/// bit-exactly. The run cache's own values are written and read through
/// their leaf lists ([`stats::leaves`]).
pub trait CacheValue: Send + Sync + Sized + 'static {
    /// Encodes as a single line (no interior newlines).
    fn encode(&self) -> String;
    /// Decodes an [`Self::encode`] line; `None` on any mismatch (treated
    /// as a cache miss).
    fn decode(s: &str) -> Option<Self>;
}

/// Counters snapshot; see [`RunCache::stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Hits served from the in-memory map.
    pub mem_hits: u64,
    /// Hits served by decoding a disk entry.
    pub disk_hits: u64,
    /// Keys that had to be computed.
    pub misses: u64,
    /// Entries currently resident in memory.
    pub entries: u64,
    /// Entries written to disk.
    pub disk_writes: u64,
    /// Disk writes that needed at least one retry after a transient IO
    /// error (each retried write counts once per extra attempt).
    pub disk_retries: u64,
}

impl CacheStats {
    /// Total hits across both layers.
    pub fn hits(&self) -> u64 {
        self.mem_hits + self.disk_hits
    }

    /// Fraction of lookups served from either layer, in `[0, 1]`; `0.0`
    /// before any lookup has happened.
    pub fn hit_rate(&self) -> f64 {
        let lookups = self.hits() + self.misses;
        if lookups == 0 {
            0.0
        } else {
            self.hits() as f64 / lookups as f64
        }
    }

    /// Renders as a JSON object (for run manifests).
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        let mut o = Obj::new(&mut out);
        o.u64("hits", self.hits())
            .f64("hit_rate", self.hit_rate())
            .u64("mem_hits", self.mem_hits)
            .u64("disk_hits", self.disk_hits)
            .u64("misses", self.misses)
            .u64("entries", self.entries)
            .u64("disk_writes", self.disk_writes)
            .u64("disk_retries", self.disk_retries);
        o.finish();
        out
    }

    /// One stable human-readable line (grepped by the CI warm-cache check).
    pub fn summary(&self) -> String {
        format!(
            "cache: hits={} (mem {}, disk {}), misses={}, entries={}",
            self.hits(),
            self.mem_hits,
            self.disk_hits,
            self.misses,
            self.entries
        )
    }
}

/// What produced a resident entry, and so what a lookup is checked against
/// before the value is handed out.
enum Owner {
    /// Inserted by config ([`RunCache::get_or_compute_incast`]): compared
    /// with `==` on the hit path, rendered only to answer a raw-key lookup.
    /// Boxed: 640 bytes, about half of the key it stands in for.
    Config(Box<ModesConfig>),
    /// Inserted through the raw `&str` API: the canonical key itself.
    Key(Box<str>),
}

impl Owner {
    fn config(cfg: &ModesConfig) -> Owner {
        Owner::Config(Box::new(cfg.clone()))
    }

    /// Whether `key` is this owner's canonical key.
    fn renders(&self, key: &str) -> bool {
        match self {
            Owner::Config(cfg) => incast_key(cfg) == key,
            Owner::Key(k) => **k == *key,
        }
    }
}

struct Resident {
    owner: Owner,
    value: Arc<dyn Any + Send + Sync>,
}

/// The memory layer: one entry per run under its disk name (`fnv1a64` of
/// the canonical key), plus where each config-owned entry's fingerprint
/// points. Neither map is iterated.
#[derive(Default)]
struct Memory {
    by_name: FxHashMap<u64, Resident>,
    by_fingerprint: FxHashMap<u64, u64>,
}

/// The memoization store: a typed in-memory map plus the optional disk
/// layer. Thread-safe; sweep threads call [`Self::get_or_compute`]
/// concurrently.
pub struct RunCache {
    mem: Mutex<Memory>,
    disk_dir: Option<PathBuf>,
    mem_hits: AtomicU64,
    disk_hits: AtomicU64,
    misses: AtomicU64,
    disk_writes: AtomicU64,
    disk_retries: AtomicU64,
}

const TYPE_MIXUP: &str = "cache key reused with a different value type";

impl RunCache {
    /// A cache with only the in-memory layer.
    pub fn in_memory() -> Self {
        RunCache {
            mem: Mutex::new(Memory::default()),
            disk_dir: None,
            mem_hits: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            disk_writes: AtomicU64::new(0),
            disk_retries: AtomicU64::new(0),
        }
    }

    /// A cache that also persists entries as JSONL files under `dir`.
    pub fn with_disk(dir: impl Into<PathBuf>) -> Self {
        let mut c = Self::in_memory();
        c.disk_dir = Some(dir.into());
        c
    }

    /// The process-wide cache used by the sweep engine: in-memory always;
    /// the disk layer under `target/run-cache/` when `INCAST_RUN_CACHE=1`
    /// (path override: `INCAST_RUN_CACHE_DIR`).
    pub fn global() -> &'static RunCache {
        static CACHE: OnceLock<RunCache> = OnceLock::new();
        CACHE.get_or_init(|| {
            let enabled = std::env::var("INCAST_RUN_CACHE")
                .map(|v| v == "1")
                .unwrap_or(false);
            if enabled {
                let dir = std::env::var("INCAST_RUN_CACHE_DIR")
                    .unwrap_or_else(|_| "target/run-cache".to_string());
                RunCache::with_disk(dir)
            } else {
                RunCache::in_memory()
            }
        })
    }

    /// Returns the cached value for `key`, or computes, stores, and
    /// returns it. Two threads racing on a cold key may both compute; the
    /// first insert wins and both observe the same pure result.
    pub fn get_or_compute<V: CacheValue>(&self, key: &str, compute: impl FnOnce() -> V) -> Arc<V> {
        let name = fnv1a64(key);
        let owner = || Owner::Key(key.into());
        if let Some(hit) = self.lookup::<V>(name, key, owner) {
            return hit;
        }
        self.fill(name, key, owner, compute())
    }

    /// Cache-only probe by canonical key: both layers, no compute.
    pub fn get<V: CacheValue>(&self, key: &str) -> Option<Arc<V>> {
        self.lookup(fnv1a64(key), key, || Owner::Key(key.into()))
    }

    /// [`Self::get_or_compute`] for an incast run, addressed by the config
    /// itself: a memory hit renders no key and allocates nothing; a miss
    /// renders the key once, for the disk layer and the new entry's name.
    pub fn get_or_compute_incast(
        &self,
        cfg: &ModesConfig,
        compute: impl FnOnce() -> IncastRunResult,
    ) -> Arc<IncastRunResult> {
        match self.probe_incast(cfg) {
            Ok(hit) => hit,
            Err(key) => self.fill_incast(cfg, &key, compute()),
        }
    }

    /// The memory layer alone, by config: a fingerprint, a map lookup and
    /// an `==`, never a key render or a file read. What a sweep's calling
    /// thread probes before it hands the rest to other threads (a disk
    /// entry costs milliseconds to decode, so those stay parallel).
    pub(crate) fn get_resident_incast(&self, cfg: &ModesConfig) -> Option<Arc<IncastRunResult>> {
        let fingerprint = incast_fingerprint(cfg);
        let mem = self.mem.lock().expect("cache map");
        let held = mem.by_name.get(mem.by_fingerprint.get(&fingerprint)?)?;
        match &held.owner {
            Owner::Config(owner) if **owner == *cfg => {}
            _ => return None,
        }
        let v = held
            .value
            .clone()
            .downcast::<IncastRunResult>()
            .expect("only incast results are inserted by config");
        self.mem_hits.fetch_add(1, Ordering::Relaxed);
        Some(v)
    }

    /// Cache-only probe by config: both layers, no compute. A miss hands
    /// back the canonical key it had to render, for [`Self::fill_incast`] —
    /// the supervised runner decides *after* a miss whether the freshly
    /// computed result is cacheable (truncated runs are not).
    pub(crate) fn probe_incast(&self, cfg: &ModesConfig) -> Result<Arc<IncastRunResult>, String> {
        if let Some(hit) = self.get_resident_incast(cfg) {
            return Ok(hit);
        }
        let key = incast_key(cfg);
        self.lookup(fnv1a64(&key), &key, || Owner::config(cfg))
            .ok_or(key)
    }

    /// Stores the result of a run [`Self::probe_incast`] missed, under the
    /// key that probe rendered; counts the miss.
    pub(crate) fn fill_incast(
        &self,
        cfg: &ModesConfig,
        key: &str,
        value: IncastRunResult,
    ) -> Arc<IncastRunResult> {
        self.fill(fnv1a64(key), key, || Owner::config(cfg), value)
    }

    /// The memory layer by name. The owner is checked before the value is
    /// touched: a name held by another key is a miss, and only a value of
    /// the wrong type under the *right* key is a caller's bug.
    fn resident<V: CacheValue>(&self, name: u64, key: &str) -> Option<Arc<V>> {
        let mem = self.mem.lock().expect("cache map");
        let held = mem.by_name.get(&name)?;
        if !held.owner.renders(key) {
            return None;
        }
        let v = held.value.clone().downcast::<V>().expect(TYPE_MIXUP);
        self.mem_hits.fetch_add(1, Ordering::Relaxed);
        Some(v)
    }

    /// Both layers by name and key, promoting a disk hit into memory under
    /// `owner()` (built only when an entry is).
    fn lookup<V: CacheValue>(
        &self,
        name: u64,
        key: &str,
        owner: impl FnOnce() -> Owner,
    ) -> Option<Arc<V>> {
        if let Some(v) = self.resident(name, key) {
            return Some(v);
        }
        let v = self.disk_get::<V>(name, key)?;
        self.disk_hits.fetch_add(1, Ordering::Relaxed);
        Some(self.intern(name, key, owner, v))
    }

    /// A computed value enters both layers; counts the miss.
    fn fill<V: CacheValue>(
        &self,
        name: u64,
        key: &str,
        owner: impl FnOnce() -> Owner,
        value: V,
    ) -> Arc<V> {
        self.misses.fetch_add(1, Ordering::Relaxed);
        let value = Arc::new(value);
        self.disk_put(name, key, &*value);
        self.intern(name, key, owner, value)
    }

    /// Inserts unless another thread won the race, and returns the resident
    /// value either way — except under a name another key already holds,
    /// where `value` goes back to the caller uncached.
    fn intern<V: CacheValue>(
        &self,
        name: u64,
        key: &str,
        owner: impl FnOnce() -> Owner,
        value: Arc<V>,
    ) -> Arc<V> {
        let mut mem = self.mem.lock().expect("cache map");
        let Memory {
            by_name,
            by_fingerprint,
        } = &mut *mem;
        match by_name.entry(name) {
            Entry::Occupied(held) if !held.get().owner.renders(key) => value,
            Entry::Occupied(held) => held.get().value.clone().downcast::<V>().expect(TYPE_MIXUP),
            Entry::Vacant(slot) => {
                let owner = owner();
                if let Owner::Config(cfg) = &owner {
                    by_fingerprint.insert(incast_fingerprint(cfg), name);
                }
                slot.insert(Resident {
                    owner,
                    value: value.clone(),
                });
                value
            }
        }
    }

    fn disk_get<V: CacheValue>(&self, name: u64, key: &str) -> Option<Arc<V>> {
        let dir = self.disk_dir.as_ref()?;
        let body = std::fs::read_to_string(dir.join(entry_name(name))).ok()?;
        let (meta, rest) = body.split_once('\n')?;
        // Verbatim meta comparison: schema, build, and the *full* key must
        // match, so hash collisions and stale builds miss.
        if meta != meta_line(key) {
            return None;
        }
        Some(Arc::new(V::decode(rest.trim_end_matches('\n'))?))
    }

    /// Best effort: persistent IO errors silently leave the entry
    /// memory-only. The write is crash-safe — the body goes to a
    /// process-unique `.tmp` file first and is published with an atomic
    /// rename, so a reader never observes a half-written entry (a process
    /// killed mid-write leaves only an ignored `.tmp` behind) — and
    /// transient errors are retried with backoff (counted in
    /// [`CacheStats::disk_retries`]).
    fn disk_put<V: CacheValue>(&self, name: u64, key: &str, value: &V) {
        let Some(dir) = self.disk_dir.as_ref() else {
            return;
        };
        let name = entry_name(name);
        let tmp = dir.join(format!(".{name}.{}.tmp", std::process::id()));
        let dst = dir.join(name);
        let body = format!("{}\n{}\n", meta_line(key), value.encode());
        let (outcome, retries) = stats::retry_with_backoff(
            3,
            std::time::Duration::from_millis(5),
            || -> std::io::Result<()> {
                std::fs::create_dir_all(dir)?;
                std::fs::write(&tmp, &body)?;
                std::fs::rename(&tmp, &dst)
            },
        );
        self.disk_retries.fetch_add(retries, Ordering::Relaxed);
        if outcome.is_ok() {
            self.disk_writes.fetch_add(1, Ordering::Relaxed);
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    /// Snapshot of the hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            mem_hits: self.mem_hits.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.mem.lock().expect("cache map").by_name.len() as u64,
            disk_writes: self.disk_writes.load(Ordering::Relaxed),
            disk_retries: self.disk_retries.load(Ordering::Relaxed),
        }
    }
}

/// File name of the entry whose canonical key hashes to `name`.
fn entry_name(name: u64) -> String {
    format!("{name:016x}.jsonl")
}

fn meta_line(key: &str) -> String {
    let mut out = String::new();
    let mut o = Obj::new(&mut out);
    o.u64("v", CACHE_SCHEMA_VERSION as u64)
        .str("build", telemetry::git_describe())
        .str("key", key);
    o.finish();
    out
}

impl CacheValue for IncastRunResult {
    fn encode(&self) -> String {
        write(self)
    }

    fn decode(s: &str) -> Option<Self> {
        read(s).ok()
    }
}

impl CacheValue for TraceSummary {
    fn encode(&self) -> String {
        write(self)
    }

    fn decode(s: &str) -> Option<Self> {
        read(s).ok()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::modes::TruncationCause;
    use millisampler::{BurstRow, CtrlTallies};
    use stats::TimeSeries;
    use telemetry::{EventTallies, LoopProfile};

    #[test]
    fn fnv_matches_reference_vectors() {
        // Standard FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64("a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64("foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn keys_carry_kind_version_and_the_config_text() {
        let cfg = ModesConfig::default();
        let k = incast_key(&cfg);
        let text = k.strip_prefix("incast/v5|").expect("kind and version");
        assert_eq!(read::<ModesConfig>(text), Ok(cfg));
    }

    #[test]
    fn mem_layer_hits_and_counts() {
        let cache = RunCache::in_memory();
        let mut computed = 0u32;
        for _ in 0..3 {
            let v = cache.get_or_compute("k1", || {
                computed += 1;
                TraceSummary {
                    bursts_per_sec: 1.5,
                    mean_utilization: 0.1,
                    per_burst: vec![],
                    tallies: CtrlTallies::default(),
                }
            });
            assert_eq!(v.bursts_per_sec, 1.5);
        }
        assert_eq!(computed, 1);
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.mem_hits, 2);
        assert_eq!(s.disk_hits, 0);
        assert_eq!(s.entries, 1);
        assert!(s.summary().contains("hits=2"));
        // 2 hits over 3 lookups.
        assert!((s.hit_rate() - 2.0 / 3.0).abs() < 1e-12, "{}", s.hit_rate());
        let j = s.to_json();
        assert!(
            j.starts_with(r#"{"hits":2,"hit_rate":0.6666666666666666"#),
            "{j}"
        );
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    /// A stand-in for a run, told apart by its drop count.
    fn run_with_drops(drops: u64) -> IncastRunResult {
        IncastRunResult {
            drops,
            ..read(STAND_IN).expect("well-formed stand-in")
        }
    }

    const STAND_IN: &str = r#"{"bcts_ms":[1],"mean_bct_ms":1,"queue_pkts":{"interval":1,"buckets":[]},"burst_windows":[],"drops":0,"marked_pkts":0,"enqueued_pkts":0,"retx_bytes":0,"timeouts":0,"fast_retransmits":0,"steady_drops":0,"steady_timeouts":0,"steady_retx_bytes":0,"warmup_bursts":0,"queue_watermark_pkts":0,"flights":[],"finished_at":0,"ecn_threshold_pkts":0,"truncated":null,"profile":{"tallies":{"tx_complete":0,"delivery":0,"timer":0,"fault":0,"ctrl":0},"wall":0}}"#;

    fn seeded(seed: u64) -> ModesConfig {
        ModesConfig {
            seed,
            ..ModesConfig::default()
        }
    }

    fn must_hit() -> IncastRunResult {
        panic!("a resident run was recomputed")
    }

    #[test]
    fn config_and_rendered_key_reach_one_entry() {
        let cache = RunCache::in_memory();
        let (a, b) = (seeded(1), seeded(2));

        // In by config, out by rendered key.
        let inserted = cache.get_or_compute_incast(&a, || run_with_drops(1));
        let by_key = cache.get::<IncastRunResult>(&incast_key(&a)).expect("hit");
        assert!(Arc::ptr_eq(&inserted, &by_key));
        assert_eq!(cache.stats().mem_hits, 1);
        let by_key = cache.get_or_compute(&incast_key(&a), must_hit);
        assert!(Arc::ptr_eq(&inserted, &by_key));
        assert_eq!(cache.stats().mem_hits, 2);

        // In by rendered key, out by config.
        let inserted = cache.get_or_compute(&incast_key(&b), || run_with_drops(2));
        let by_cfg = cache.get_or_compute_incast(&b, must_hit);
        assert!(Arc::ptr_eq(&inserted, &by_cfg));
        assert_eq!(cache.stats().mem_hits, 3);
        let by_cfg = cache.probe_incast(&b).expect("hit");
        assert_eq!(by_cfg.drops, 2);

        // One count per lookup, each run resident once.
        let s = cache.stats();
        assert_eq!((s.mem_hits, s.misses, s.entries), (4, 2, 2));
        assert_eq!(cache.get_resident_incast(&a).expect("hit").drops, 1);
        assert_eq!(cache.stats().mem_hits, 5);
    }

    #[test]
    fn nan_config_hits_through_its_key_and_signed_zeros_stay_two_entries() {
        let cache = RunCache::in_memory();
        let nan = ModesConfig {
            burst_duration_ms: f64::NAN,
            ..ModesConfig::default()
        };
        let same = nan.clone();
        assert_ne!(nan, same, "a NaN field makes a config unequal to itself");
        let first = cache.get_or_compute_incast(&nan, || run_with_drops(1));
        let again = cache.get_or_compute_incast(&same, must_hit);
        assert!(Arc::ptr_eq(&first, &again));
        let by_key = cache.get_or_compute(&incast_key(&nan), must_hit);
        assert!(Arc::ptr_eq(&first, &by_key));
        let s = cache.stats();
        assert_eq!((s.mem_hits, s.misses, s.entries), (2, 1, 1));

        let zero = |z: f64| {
            let mut cfg = ModesConfig::default();
            cfg.mitigation.notif_loss = z;
            cfg
        };
        let (pos, neg) = (zero(0.0), zero(-0.0));
        assert_eq!(pos, neg, "IEEE zeros compare equal");
        assert_ne!(incast_key(&pos), incast_key(&neg));
        assert_ne!(incast_fingerprint(&pos), incast_fingerprint(&neg));
        cache.get_or_compute_incast(&pos, || run_with_drops(10));
        assert_eq!(
            cache
                .get_or_compute_incast(&neg, || run_with_drops(20))
                .drops,
            20
        );
        assert_eq!(cache.get_or_compute_incast(&pos, must_hit).drops, 10);
        assert_eq!(cache.get_or_compute_incast(&neg, must_hit).drops, 20);
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn a_shared_fingerprint_or_name_recomputes_instead_of_answering_wrongly() {
        let cache = RunCache::in_memory();
        let (a, b, c) = (seeded(1), seeded(2), seeded(3));
        let name_of = |cfg: &ModesConfig| fnv1a64(&incast_key(cfg));
        cache.get_or_compute_incast(&a, || run_with_drops(1));

        // Two configs under one fingerprint: `b`'s points at `a`'s entry.
        cache
            .mem
            .lock()
            .unwrap()
            .by_fingerprint
            .insert(incast_fingerprint(&b), name_of(&a));
        assert_eq!(
            cache.get_or_compute_incast(&b, || run_with_drops(2)).drops,
            2
        );
        assert_eq!(cache.get_or_compute_incast(&a, must_hit).drops, 1);
        assert_eq!(cache.get_or_compute_incast(&b, must_hit).drops, 2);
        let s = cache.stats();
        assert_eq!((s.misses, s.entries), (2, 2));

        // Two keys under one name: `a`'s entry also sits where `c`'s would.
        cache.mem.lock().unwrap().by_name.insert(
            name_of(&c),
            Resident {
                owner: Owner::config(&a),
                value: Arc::new(run_with_drops(1)),
            },
        );
        for by_config in [true, false, true] {
            let mut computed = false;
            let compute = || {
                computed = true;
                run_with_drops(3)
            };
            let got = if by_config {
                cache.get_or_compute_incast(&c, compute)
            } else {
                cache.get_or_compute(&incast_key(&c), compute)
            };
            assert_eq!(got.drops, 3);
            assert!(computed, "the squatted name must never serve or store `c`");
        }
        // Not even a value of another type is a reason to panic there: the
        // owner is checked before the downcast.
        assert!(cache.get::<TraceSummary>(&incast_key(&c)).is_none());
    }

    #[test]
    #[should_panic(expected = "cache key reused with a different value type")]
    fn one_key_asked_for_as_two_types_is_a_bug() {
        let cache = RunCache::in_memory();
        cache.get_or_compute("k", || run_with_drops(1));
        cache.get::<TraceSummary>("k");
    }

    #[test]
    fn disk_layer_round_trips_and_verifies_key() {
        let dir = std::env::temp_dir().join(format!("incast-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let value = TraceSummary {
            bursts_per_sec: 2.25,
            mean_utilization: 0.125,
            per_burst: vec![BurstRow {
                duration_ms: 3.0,
                peak_flows: 50.0,
                marked_fraction: 0.5,
                retx_fraction: 0.0,
                queue_peak_fraction: None,
            }],
            tallies: CtrlTallies::default(),
        };
        {
            let cache = RunCache::with_disk(&dir);
            let _ = cache.get_or_compute("key-a", || value.clone());
            assert_eq!(cache.stats().disk_writes, 1);
        }
        // A fresh cache (empty memory) must hit the disk entry…
        let cache = RunCache::with_disk(&dir);
        let v = cache.get_or_compute::<TraceSummary>("key-a", || panic!("must not recompute"));
        assert_eq!(*v, value);
        assert_eq!(cache.stats().disk_hits, 1);
        // …and a *different* key whose file name would collide is refused
        // by the verbatim meta comparison (simulate by renaming).
        let from = dir.join(entry_name(fnv1a64("key-a")));
        let to = dir.join(entry_name(fnv1a64("key-b")));
        std::fs::rename(from, to).unwrap();
        let cache = RunCache::with_disk(&dir);
        let mut recomputed = false;
        let _ = cache.get_or_compute("key-b", || {
            recomputed = true;
            value.clone()
        });
        assert!(recomputed, "stale/colliding entry must miss");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn incast_result_round_trips_bit_exactly() {
        let queue = |interval, buckets: &[f64]| {
            let mut t = TimeSeries::new(interval);
            for (i, &v) in buckets.iter().enumerate() {
                t.accumulate(i as u64 * interval, v);
            }
            t
        };
        let r = IncastRunResult {
            bcts_ms: vec![0.1 + 0.2, 1.0 / 3.0],
            mean_bct_ms: f64::NAN,
            queue_pkts: queue(20, &[0.0, 1e-7, 7.5]),
            burst_windows: vec![(0.0, 1e-9), (2.5, f64::INFINITY)],
            flights: vec![queue(100, &[1446.0]), queue(100, &[])],
            truncated: Some(TruncationCause::WallClock),
            profile: LoopProfile {
                tallies: EventTallies {
                    delivery: 41,
                    ..EventTallies::default()
                },
                wall: std::time::Duration::from_nanos(123_456_789),
            },
            ..run_with_drops(3)
        };
        let text = r.encode();
        let back = IncastRunResult::decode(&text).expect("decode");
        assert_eq!(back.encode(), text);
        assert_eq!(back.mean_bct_ms.to_bits(), r.mean_bct_ms.to_bits());
        assert!(back.queue_pkts.iter().eq(r.queue_pkts.iter()));
        assert_eq!(back.truncated, r.truncated);
        assert_eq!(back.profile.wall, r.profile.wall);
        assert!(text.contains(r#""truncated":"wall_clock""#), "{text}");
    }

    #[test]
    fn trace_summary_round_trips_bit_exactly() {
        let s = TraceSummary {
            bursts_per_sec: 1.0 / 3.0,
            mean_utilization: 0.1 + 0.2, // deliberately ugly float
            per_burst: vec![
                BurstRow {
                    duration_ms: 2.5,
                    peak_flows: 120.0,
                    marked_fraction: 1.0 / 7.0,
                    retx_fraction: 1e-9,
                    queue_peak_fraction: Some(0.499999999999),
                },
                BurstRow {
                    duration_ms: 1.0,
                    peak_flows: 2.0,
                    marked_fraction: 0.0,
                    retx_fraction: 0.0,
                    queue_peak_fraction: None,
                },
            ],
            tallies: CtrlTallies {
                faults_applied: 3,
                notif_sent: 41,
                notif_acked: 40,
                notif_retries: 5,
                notif_lost: 1,
            },
        };
        let d = TraceSummary::decode(&s.encode()).expect("decode");
        assert_eq!(d.bursts_per_sec.to_bits(), s.bursts_per_sec.to_bits());
        assert_eq!(d, s);
        // Empty rows also round-trip.
        let empty = TraceSummary {
            bursts_per_sec: 0.0,
            mean_utilization: 0.0,
            per_burst: vec![],
            tallies: CtrlTallies::default(),
        };
        assert_eq!(TraceSummary::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn corrupt_lines_decode_to_none() {
        assert!(TraceSummary::decode("").is_none());
        assert!(TraceSummary::decode("{}").is_none());
        assert!(TraceSummary::decode(r#"{"bursts_per_sec":1,"mean_utilization":nope}"#).is_none());
        assert!(IncastRunResult::decode(r#"{"bcts_ms":[1,2]"#).is_none());
        let zero = STAND_IN.replace(r#""interval":1"#, r#""interval":0"#);
        let err = read::<IncastRunResult>(&zero).expect_err("a zero interval");
        assert_eq!(err.path, "queue_pkts.interval");
    }
}
