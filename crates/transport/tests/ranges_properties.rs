//! Property tests for [`transport::AckRanges`] — the range arithmetic under
//! both stacks' reassembly and the QUIC-style ACK machinery.
//!
//! Strategy: drive an `AckRanges` and a `BTreeSet<u64>` model through the
//! same random operation sequences (insert, insert_one, remove,
//! take_prefix, for_each_missing queries) and assert after every step that
//!
//! - the stored ranges are sorted, non-empty, disjoint, and non-touching
//!   (adjacent ranges merged);
//! - the set of covered values equals the model exactly (uncapped case) —
//!   nothing lost, nothing invented;
//! - under a capped insert, the survivors are a *suffix* of the model (only
//!   the lowest ranges are forgotten) and the largest value is exact and
//!   monotone;
//! - derived views (`prefix_end`, `end`, `for_each_missing`, `to_blocks`)
//!   agree with the model;
//! - all of this holds on both sides of the set's storage boundary (one
//!   range in place, more in a `Vec` the set keeps once it has one).

use std::collections::BTreeSet;

use stats::rng::Rng;
use transport::AckRanges;

const UNIVERSE: u64 = 200;

/// Structural invariants that hold for every `AckRanges`, capped or not.
fn check_structure(r: &AckRanges) {
    let ranges = r.ranges();
    for &(lo, hi) in ranges {
        assert!(lo < hi, "empty/inverted range [{lo}, {hi})");
    }
    for w in ranges.windows(2) {
        assert!(
            w[0].1 < w[1].0,
            "ranges {:?} and {:?} overlap or touch unmerged",
            w[0],
            w[1]
        );
    }
    assert_eq!(r.end(), ranges.last().map_or(0, |&(_, hi)| hi));
}

fn largest(r: &AckRanges) -> Option<u64> {
    r.ranges().last().map(|&(_, hi)| hi - 1)
}

fn as_set(r: &AckRanges) -> BTreeSet<u64> {
    r.ranges().iter().flat_map(|&(lo, hi)| lo..hi).collect()
}

/// One random mutation applied to both implementations. Returns a label
/// for failure messages.
fn step(rng: &mut Rng, r: &mut AckRanges, model: &mut BTreeSet<u64>, universe: u64) -> String {
    match rng.below(4) {
        0 => {
            let lo = rng.below(universe);
            let hi = lo + 1 + rng.below(12);
            let grew = r.insert(lo, hi);
            let before = model.len();
            model.extend(lo..hi);
            assert_eq!(
                grew,
                (model.len() - before) as u64,
                "insert [{lo}, {hi}) growth disagrees with model"
            );
            format!("insert [{lo}, {hi})")
        }
        1 => {
            let v = rng.below(universe);
            let grew = r.insert_one(v);
            assert_eq!(grew, model.insert(v), "insert_one({v}) disagrees");
            format!("insert_one({v})")
        }
        2 => {
            let lo = rng.below(universe);
            let hi = lo + 1 + rng.below(20);
            r.remove(lo, hi);
            model.retain(|&v| v < lo || v >= hi);
            format!("remove [{lo}, {hi})")
        }
        _ => {
            let max = 1 + rng.below(8);
            let taken = r.take_prefix(max);
            // Model: the lowest contiguous run, truncated to `max`.
            let expect = model.iter().next().copied().map(|lo| {
                let mut hi = lo;
                while model.contains(&(hi + 1)) && hi + 1 - lo < max {
                    hi += 1;
                }
                (lo, hi + 1 - lo)
            });
            assert_eq!(taken, expect, "take_prefix({max}) disagrees");
            if let Some((lo, len)) = taken {
                model.retain(|&v| v < lo || v >= lo + len);
            }
            format!("take_prefix({max})")
        }
    }
}

/// Read-only views agree with the model after every step.
fn check_views(rng: &mut Rng, r: &AckRanges, model: &BTreeSet<u64>) {
    assert_eq!(as_set(r), *model, "covered values diverged from model");
    // prefix_end = end of the contiguous run from 0.
    let mut prefix = 0;
    while model.contains(&prefix) {
        prefix += 1;
    }
    assert_eq!(r.prefix_end(), prefix);
    // for_each_missing over a random window = model complement within it,
    // as maximal runs.
    let lo = rng.below(UNIVERSE);
    let hi = lo + rng.below(40);
    let mut holes = Vec::new();
    r.for_each_missing(lo, hi, |l, h| holes.push((l, h)));
    let expect: BTreeSet<u64> = (lo..hi).filter(|v| !model.contains(v)).collect();
    assert_eq!(
        holes,
        runs(&expect),
        "for_each_missing([{lo}, {hi})) disagrees"
    );
}

#[test]
fn uncapped_matches_btreeset_model() {
    for seed in 0..50u64 {
        let mut rng = Rng::new(0xACC0_0000 + seed);
        let mut r = AckRanges::new();
        let mut model = BTreeSet::new();
        for i in 0..200 {
            let op = step(&mut rng, &mut r, &mut model, UNIVERSE);
            check_structure(&r);
            check_views(&mut rng, &r, &model);
            assert!(
                r.num_ranges() <= model.len(),
                "seed {seed} step {i} ({op}): more ranges than elements"
            );
        }
    }
}

/// Contiguous runs of a value set, ascending, as half-open ranges.
fn runs(set: &BTreeSet<u64>) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = Vec::new();
    for &v in set {
        match out.last_mut() {
            Some((_, hi)) if *hi == v => *hi = v + 1,
            _ => out.push((v, v + 1)),
        }
    }
    out
}

/// Sets that cross between one range and several again and again: a
/// narrow universe keeps holes opening and closing, and a fresh set every
/// few dozen steps makes each one start in place and spill anew (by a
/// disjoint insert or by a remove that splits its only range).
#[test]
fn crossing_the_inline_boundary_matches_the_model() {
    const NARROW: u64 = 40;
    let (mut spills, mut returns) = (0u32, 0u32);
    for seed in 0..50u64 {
        let mut rng = Rng::new(0x1A11_0000 + seed);
        let mut r = AckRanges::new();
        let mut model = BTreeSet::new();
        for i in 0..400 {
            if rng.below(30) == 0 {
                if rng.below(2) == 0 {
                    r = AckRanges::new();
                } else {
                    r.clear();
                }
                model.clear();
            }
            let before = r.num_ranges();
            let op = step(&mut rng, &mut r, &mut model, NARROW);
            check_structure(&r);
            check_views(&mut rng, &r, &model);
            let after = r.num_ranges();
            spills += u32::from(before <= 1 && after >= 2);
            returns += u32::from(before >= 2 && after <= 1);
            assert!(
                after <= model.len(),
                "seed {seed} step {i} ({op}): more ranges than elements"
            );
        }
    }
    assert!(
        spills > 500 && returns > 500,
        "the boundary was crossed too rarely to test it ({spills} up, {returns} down)"
    );
}

#[test]
fn capped_forgets_lowest_only_and_largest_is_monotone() {
    for seed in 0..50u64 {
        let mut rng = Rng::new(0xCA90_0000 + seed);
        let cap = 1 + rng.below(4) as usize;
        let mut r = AckRanges::new();
        // Exact step-wise shadow: what the capped set currently stores.
        let mut shadow: BTreeSet<u64> = BTreeSet::new();
        let mut ever: BTreeSet<u64> = BTreeSet::new();
        let mut prev_largest = None;
        for i in 0..200 {
            // Inserts only: the cap's forget-lowest contract is defined
            // over insert overflow.
            let lo = rng.below(UNIVERSE);
            let hi = lo + 1 + rng.below(6);
            r.insert_capped(lo, hi, cap);
            check_structure(&r);
            assert!(r.num_ranges() <= cap, "cap {cap} exceeded");

            // Model the step exactly: merge the insert into the previous
            // stored set, then drop whole lowest runs until within cap.
            shadow.extend(lo..hi);
            ever.extend(lo..hi);
            let mut expected = runs(&shadow);
            while expected.len() > cap {
                let (dlo, dhi) = expected.remove(0);
                shadow.retain(|&v| v < dlo || v >= dhi);
            }
            assert_eq!(
                r.ranges(),
                expected.as_slice(),
                "seed {seed} step {i}: cap dropped something other than \
                 the lowest ranges"
            );

            // Nothing is ever invented, and the largest value is exact —
            // the cap never touches the top — and monotone under inserts.
            assert!(as_set(&r).is_subset(&ever), "invented values");
            assert_eq!(largest(&r), ever.iter().next_back().copied());
            assert!(largest(&r) >= prev_largest, "largest went backwards");
            prev_largest = largest(&r);
        }
    }
}

#[test]
fn to_blocks_reports_highest_ranges_descending() {
    for seed in 0..50u64 {
        let mut rng = Rng::new(0xB10C_0000 + seed);
        let mut r = AckRanges::new();
        for _ in 0..30 {
            let lo = rng.below(UNIVERSE);
            r.insert(lo, lo + 1 + rng.below(5));
        }
        if r.is_empty() {
            continue;
        }
        let blocks = r.to_blocks();
        let ranges = blocks.ranges();
        assert!(!ranges.is_empty());
        assert_eq!(u64::from(blocks.largest()), largest(&r).unwrap());
        for w in ranges.windows(2) {
            // Descending, disjoint, inclusive (lo, hi) pairs.
            assert!(
                w[1].1 < w[0].0,
                "blocks not descending/disjoint: {ranges:?}"
            );
        }
        // Every reported block is the wrapped image of a stored range.
        let stored: Vec<(u64, u64)> = r.ranges().to_vec();
        for &(lo_w, hi_w) in ranges {
            assert!(
                stored
                    .iter()
                    .any(|&(lo, hi)| lo as u32 == lo_w && (hi - 1) as u32 == hi_w),
                "block ({lo_w}, {hi_w}) matches no stored range"
            );
        }
    }
}
