//! A fast, deterministic hasher for hot-path lookup tables.
//!
//! `std`'s default SipHash is DoS-resistant but costs tens of cycles per
//! small key — measurable when the event loop consults the timer table
//! several times per ACK. Simulation tables hash simulator-assigned
//! integer keys (node ids, timer keys, flow ids), so there is no
//! adversarial input to defend against; what matters is that
//! the hash is cheap and *stable across runs and platforms*, keeping runs
//! bit-reproducible.
//!
//! [`FxHasher`] is the Firefox/rustc polynomial hash: fold each 8-byte
//! word in with a rotate, xor, and one multiply by a constant derived
//! from the golden ratio. None of the tables using it iterate in hash
//! order (iteration order would leak the hash into observable output), so
//! swapping the hasher cannot change any simulation result — only the
//! cycles spent per lookup.

use std::hash::{BuildHasherDefault, Hasher};

/// Multiplier from the golden ratio, as used by rustc's FxHash.
const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

/// The rustc/Firefox "Fx" polynomial hasher. Not DoS-resistant; only for
/// tables keyed by simulator-assigned integers.
#[derive(Default, Clone, Copy)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add_word(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(SEED);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in chunks.by_ref() {
            self.add_word(u64::from_le_bytes(c.try_into().unwrap()));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut word = [0u8; 8];
            word[..rest.len()].copy_from_slice(rest);
            self.add_word(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u16(&mut self, v: u16) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add_word(v as u64);
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add_word(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add_word(v as u64);
    }
}

/// `HashMap` keyed through [`FxHasher`].
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// One word of FNV-1a-style folding. Word-at-a-time rather than
/// byte-at-a-time: the inputs are fixed-width simulator ids, so there is
/// no framing to preserve, and one multiply per word keeps the per-packet
/// ECMP decision cheap.
#[inline]
fn fnv1a_word(h: u64, word: u64) -> u64 {
    (h ^ word).wrapping_mul(FNV_PRIME)
}

/// Finalizing avalanche (the splitmix64 mixer). FNV's low bits diffuse
/// slowly for small integer inputs; ECMP compares full 64-bit scores, so
/// every input bit must influence high bits too.
#[inline]
fn avalanche(mut h: u64) -> u64 {
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

/// Rendezvous (highest-random-weight) score of candidate egress link
/// `link` for the flow identified by `(src, dst, flow)` under `seed`: an
/// FNV fold of the flow tuple and the candidate, finalized with an
/// avalanche mix.
///
/// Deterministic and platform-stable, so ECMP decisions are part of the
/// reproducible simulation output. Scoring each *(flow, link)* pair
/// independently and forwarding on the argmax gives the classic
/// rendezvous-hashing locality property: removing one candidate only
/// remaps the flows whose argmax it was — every other flow keeps its
/// path (see `tests/ecmp_properties.rs`).
#[inline]
pub fn ecmp_score(seed: u64, src: u32, dst: u32, flow: u32, link: u32) -> u64 {
    let mut h = fnv1a_word(FNV_OFFSET, seed);
    h = fnv1a_word(h, ((src as u64) << 32) | dst as u64);
    h = fnv1a_word(h, ((flow as u64) << 32) | link as u64);
    avalanche(h)
}

/// The highest-scoring link among `candidates` for this flow tuple (ties
/// break toward the lowest link id; `None` on an empty slate). This is
/// the pure selection function behind the simulator's ECMP forwarding —
/// the engine applies it to the live subset of a switch's equal-cost set.
pub fn ecmp_pick(
    seed: u64,
    src: u32,
    dst: u32,
    flow: u32,
    candidates: &[crate::ids::LinkId],
) -> Option<crate::ids::LinkId> {
    let mut best: Option<(u64, crate::ids::LinkId)> = None;
    for &l in candidates {
        let score = ecmp_score(seed, src, dst, flow, l.0);
        // Strict `>` keeps the first (lowest-id, since candidate sets are
        // built in ascending link-id order) of any tied pair.
        if best.is_none_or(|(s, _)| score > s) {
            best = Some((score, l));
        }
    }
    best.map(|(_, l)| l)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of<T: std::hash::Hash>(v: &T) -> u64 {
        let mut h = FxHasher::default();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn deterministic_across_instances() {
        assert_eq!(hash_of(&(3u32, 17u64)), hash_of(&(3u32, 17u64)));
        assert_eq!(hash_of(&42u64), hash_of(&42u64));
    }

    #[test]
    fn distinguishes_small_keys() {
        // Timer-table keys: (node, key) pairs differing in either field.
        let a = hash_of(&(1u32, 4u64));
        let b = hash_of(&(2u32, 4u64));
        let c = hash_of(&(1u32, 5u64));
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn byte_stream_matches_word_writes_for_exact_chunks() {
        let mut via_bytes = FxHasher::default();
        via_bytes.write(&7u64.to_le_bytes());
        let mut via_word = FxHasher::default();
        via_word.write_u64(7);
        assert_eq!(via_bytes.finish(), via_word.finish());
    }

    #[test]
    fn ecmp_score_is_deterministic_and_input_sensitive() {
        let base = ecmp_score(9, 1, 2, 3, 4);
        assert_eq!(base, ecmp_score(9, 1, 2, 3, 4));
        assert_ne!(base, ecmp_score(10, 1, 2, 3, 4), "seed ignored");
        assert_ne!(base, ecmp_score(9, 5, 2, 3, 4), "src ignored");
        assert_ne!(base, ecmp_score(9, 1, 5, 3, 4), "dst ignored");
        assert_ne!(base, ecmp_score(9, 1, 2, 5, 4), "flow ignored");
        assert_ne!(base, ecmp_score(9, 1, 2, 3, 5), "link ignored");
    }

    #[test]
    fn ecmp_pick_returns_a_candidate_and_handles_empty() {
        use crate::ids::LinkId;
        let cands = [LinkId(3), LinkId(7), LinkId(9)];
        let picked = ecmp_pick(1, 2, 3, 4, &cands).unwrap();
        assert!(cands.contains(&picked));
        assert_eq!(ecmp_pick(1, 2, 3, 4, &[]), None);
        assert_eq!(ecmp_pick(1, 2, 3, 4, &[LinkId(5)]), Some(LinkId(5)));
    }

    #[test]
    fn map_roundtrips() {
        let mut m: FxHashMap<(u32, u64), u64> = FxHashMap::default();
        for node in 0..50u32 {
            for key in 0..4u64 {
                m.insert((node, key), (node as u64) * 10 + key);
            }
        }
        assert_eq!(m.len(), 200);
        assert_eq!(m.get(&(7, 3)), Some(&73));
        assert_eq!(m.get(&(49, 0)), Some(&490));
        assert_eq!(m.get(&(50, 0)), None);
    }
}
