//! Parallel experiment execution.
//!
//! A simulation is single-threaded and deterministic; experiments
//! parallelize by running many independent simulations. [`par_map`] is the
//! one parallel primitive: scoped threads claim item indices from a shared
//! cursor, and results land at their item's index, so the output order (and
//! therefore every downstream aggregate folded over it) is independent of
//! thread scheduling. Sweep items cost a millisecond of simulation or more,
//! and every caller makes one call per study, so there is no persistent
//! pool: a call's helper threads live exactly as long as the call.

use std::any::Any;
use std::fmt::Debug;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// Best-effort text of a panic payload (`&str` / `String`, else a marker).
pub(crate) fn panic_message(p: &(dyn Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The item's `Debug` rendering, truncated so a pathological config can't
/// blow up the panic message (the quarantine reproducer carries the full
/// config; the payload only needs to identify the scenario).
fn debug_key<T: Debug>(item: &T) -> String {
    let mut s = format!("{item:?}");
    if s.len() > 256 {
        let mut cut = 253;
        while !s.is_char_boundary(cut) {
            cut -= 1;
        }
        s.truncate(cut);
        s.push_str("...");
    }
    s
}

/// Runs `f` on item `i`, re-raising any panic with the failing item's
/// index and scenario key prepended — a sweep over hundreds of configs
/// otherwise surfaces a bare "index out of bounds" with no hint of which
/// scenario hit it.
fn run_item<T: Debug, R, F: Fn(&T) -> R>(f: &F, items: &[T], i: usize) -> R {
    match catch_unwind(AssertUnwindSafe(|| f(&items[i]))) {
        Ok(r) => r,
        Err(p) => std::panic::panic_any(format!(
            "sweep item {i} ({}): {}",
            debug_key(&items[i]),
            panic_message(&*p)
        )),
    }
}

// Process-wide counters behind [`PoolStats`]. Statistics only: they publish
// no other data, hence `Relaxed`.
static JOBS: AtomicU64 = AtomicU64::new(0);
static ITEMS: AtomicU64 = AtomicU64::new(0);
static PARTICIPANTS: AtomicU64 = AtomicU64::new(0);

/// Cumulative counters over every *parallel* [`par_map`] call of the
/// process (the inline `threads == 1` loop counts nothing). Readers take a
/// [`PoolStats::snapshot`] before a sweep and [`PoolStats::delta`] after.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Parallel `par_map` calls.
    pub jobs: u64,
    /// Items across those calls.
    pub items: u64,
    /// Threads that took part across those calls (the caller plus its
    /// scoped helpers, per call).
    pub participants: u64,
}

impl PoolStats {
    /// Current cumulative counters.
    pub fn snapshot() -> PoolStats {
        PoolStats {
            jobs: JOBS.load(Ordering::Relaxed),
            items: ITEMS.load(Ordering::Relaxed),
            participants: PARTICIPANTS.load(Ordering::Relaxed),
        }
    }

    /// Counters accumulated since `earlier` (a prior snapshot).
    pub fn delta(&self, earlier: &PoolStats) -> PoolStats {
        PoolStats {
            jobs: self.jobs - earlier.jobs,
            items: self.items - earlier.items,
            participants: self.participants - earlier.participants,
        }
    }

    /// Always `0.0`: one shared claim cursor has no lanes to steal from.
    /// Kept only because `benchmark/src/layers.rs` calls it for its
    /// `core.pool.steal_pct` row; goes when that row does (ROADMAP item 1).
    pub fn steal_fraction(&self) -> f64 {
        0.0
    }
}

/// Applies `f` to every item on up to `threads` participants (the calling
/// thread plus `threads - 1` scoped helpers), preserving input order in the
/// output. Each participant claims the next unclaimed index from one shared
/// cursor until none is left; with `threads <= 1` the map runs inline.
///
/// If `f` panics on any item, the first panic's payload is re-raised on the
/// calling thread (`std::thread::scope` alone would replace it with a
/// generic "a scoped thread panicked"), and participants stop claiming
/// further items. The payload is a `String` prefixed with the failing
/// item's index and `Debug` key, so a sweep failure names its scenario.
pub fn par_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Sync + Debug,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = items.len();
    let threads = threads.min(n);
    if threads <= 1 {
        return (0..n).map(|i| run_item(&f, &items, i)).collect();
    }
    JOBS.fetch_add(1, Ordering::Relaxed);
    ITEMS.fetch_add(n as u64, Ordering::Relaxed);
    PARTICIPANTS.fetch_add(threads as u64, Ordering::Relaxed);

    let cursor = AtomicUsize::new(0);
    let stop = AtomicBool::new(false);
    let first_panic: Mutex<Option<Box<dyn Any + Send>>> = Mutex::new(None);
    // `Relaxed` throughout: the cursor only hands out distinct indices and
    // the flag only ends claiming early; results and the parked payload
    // reach the caller through the scope's joins and the mutex.
    let claim_until_dry = || {
        let mut done = Vec::new();
        while !stop.load(Ordering::Relaxed) {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            // `f` runs outside the lock, so a panicking item cannot poison it.
            match catch_unwind(AssertUnwindSafe(|| run_item(&f, &items, i))) {
                Ok(r) => done.push((i, r)),
                Err(p) => {
                    stop.store(true, Ordering::Relaxed);
                    first_panic.lock().expect("panic slot").get_or_insert(p);
                }
            }
        }
        done
    };
    let mut out: Vec<Option<R>> = (0..n).map(|_| None).collect();
    std::thread::scope(|s| {
        let helpers: Vec<_> = (1..threads).map(|_| s.spawn(claim_until_dry)).collect();
        let mine = claim_until_dry();
        let theirs = helpers
            .into_iter()
            .flat_map(|h| h.join().expect("helper panics are caught per item"));
        for (i, r) in mine.into_iter().chain(theirs) {
            out[i] = Some(r);
        }
    });
    if let Some(p) = first_panic.into_inner().expect("panic slot") {
        resume_unwind(p);
    }
    out.into_iter()
        .map(|r| r.expect("every index is claimed exactly once"))
        .collect()
}

/// A default thread count: available parallelism minus one, at least one.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1).max(1))
        .unwrap_or(4)
}

/// Merges event-loop profiles from a batch of runs into one footer line to
/// print beside report tables, e.g.
/// `"perf: 3 runs, 1234567 events in 0.41s (3.0M ev/s; ...)"`.
///
/// Wall-clock times add up across runs, so for a parallel batch the ev/s
/// figure is per-core throughput, not the batch's elapsed time.
pub fn profile_footer<'a, I>(profiles: I) -> String
where
    I: IntoIterator<Item = &'a telemetry::LoopProfile>,
{
    let mut merged = telemetry::LoopProfile::new();
    let mut runs = 0usize;
    for p in profiles {
        merged.merge(p);
        runs += 1;
    }
    format!(
        "perf: {} run{}, {}",
        runs,
        if runs == 1 { "" } else { "s" },
        merged.summary()
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = par_map(items, 8, |&x| x * x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
    }

    #[test]
    fn single_thread_path() {
        let out = par_map(vec![1, 2, 3], 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let out: Vec<u32> = par_map(Vec::<u32>::new(), 4, |&x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn more_threads_than_items() {
        let out = par_map(vec![5], 64, |&x| x * 2);
        assert_eq!(out, vec![10]);
    }

    #[test]
    fn results_match_serial_regardless_of_threads() {
        let items: Vec<u64> = (0..50).collect();
        let serial = par_map(items.clone(), 1, |&x| x.wrapping_mul(0x9E3779B9));
        let parallel = par_map(items, 7, |&x| x.wrapping_mul(0x9E3779B9));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }

    #[test]
    fn worker_panic_propagates_labeled_payload() {
        let result = std::panic::catch_unwind(|| {
            par_map((0..64u64).collect::<Vec<_>>(), 4, |&x| {
                if x == 7 {
                    panic!("boom on item {x}");
                }
                x * 2
            })
        });
        let payload = result.expect_err("par_map must panic");
        let msg = payload
            .downcast_ref::<String>()
            .expect("String payload lost");
        assert_eq!(msg, "sweep item 7 (7): boom on item 7");
    }

    #[test]
    fn inline_path_labels_panics_too() {
        let result = std::panic::catch_unwind(|| {
            par_map(vec![10u64, 11, 12], 1, |&x| {
                if x == 11 {
                    panic!("inline boom");
                }
                x
            })
        });
        let payload = result.expect_err("par_map must panic");
        let msg = payload.downcast_ref::<String>().expect("payload lost");
        assert_eq!(msg, "sweep item 1 (11): inline boom");
    }

    #[test]
    fn oversized_item_keys_are_truncated() {
        let big = vec!["x"; 300];
        let result =
            std::panic::catch_unwind(|| par_map(vec![big], 1, |_| -> u64 { panic!("heavy") }));
        let msg_owner = result.expect_err("par_map must panic");
        let msg = msg_owner.downcast_ref::<String>().expect("payload lost");
        assert!(msg.contains("..."), "{msg}");
        assert!(msg.ends_with(": heavy"), "{msg}");
        assert!(msg.len() < 300, "{}", msg.len());
    }

    #[test]
    fn every_worker_panicking_still_reports_one_payload() {
        let result = std::panic::catch_unwind(|| {
            par_map(vec![1u64, 2, 3, 4, 5, 6, 7, 8], 4, |_| -> u64 {
                panic!("all fail")
            })
        });
        let payload = result.expect_err("par_map must panic");
        let msg = payload.downcast_ref::<String>().expect("payload lost");
        assert!(msg.contains("all fail"), "{msg}");
        assert!(msg.starts_with("sweep item "), "{msg}");
    }

    #[test]
    fn pool_survives_a_panicked_job() {
        // A panicked call leaves nothing behind (no poisoned lock, no stuck
        // thread) for later calls from the same process.
        let _ = std::panic::catch_unwind(|| {
            par_map(vec![1u64, 2, 3, 4], 4, |_| -> u64 { panic!("one-shot") })
        });
        let out = par_map((0..32u64).collect::<Vec<_>>(), 4, |&x| x + 1);
        assert_eq!(out[31], 32);
    }

    #[test]
    fn nested_par_map_does_not_deadlock() {
        // Every call brings its own scoped helpers and the caller works on
        // its own call, so an inner map never waits on an outer one.
        let out = par_map((0..8u64).collect::<Vec<_>>(), 4, |&x| {
            par_map((0..8u64).collect::<Vec<_>>(), 4, |&y| x * 10 + y)
                .into_iter()
                .sum::<u64>()
        });
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (0..8).map(|y| i as u64 * 10 + y).sum::<u64>());
        }
    }

    #[test]
    fn heavy_types_drop_cleanly() {
        // Results with heap payloads exercise slot initialization and drop.
        let out = par_map((0..100u64).collect::<Vec<_>>(), 8, |&x| vec![x; 3]);
        assert_eq!(out[99], vec![99, 99, 99]);
        // And on the panic path, already-written Vec results are dropped.
        let _ = std::panic::catch_unwind(|| {
            par_map((0..100u64).collect::<Vec<_>>(), 8, |&x| {
                if x == 50 {
                    panic!("mid-job");
                }
                vec![x; 3]
            })
        });
    }

    #[test]
    fn unequal_items_keep_index_order_and_every_participant_claims() {
        // The first `THREADS` items rendezvous, which holds one participant
        // on each: nobody can drain the cursor before the last helper has
        // started. Item 0 then outlasts all the others put together.
        const THREADS: usize = 4;
        let barrier = std::sync::Barrier::new(THREADS);
        let out = par_map((0..64usize).collect::<Vec<_>>(), THREADS, |&i| {
            if i < THREADS {
                barrier.wait();
            }
            if i == 0 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            (i, std::thread::current().id())
        });
        assert!(out.iter().map(|&(i, _)| i).eq(0..64), "{out:?}");
        let claimants: std::collections::HashSet<_> = out.iter().map(|&(_, t)| t).collect();
        assert_eq!(claimants.len(), THREADS, "{out:?}");
        assert!(claimants.contains(&std::thread::current().id()));
    }

    #[test]
    fn profile_footer_merges_runs() {
        let p = telemetry::LoopProfile {
            tallies: telemetry::EventTallies {
                tx_complete: 10,
                delivery: 20,
                timer: 5,
                fault: 0,
                ctrl: 0,
            },
            wall: std::time::Duration::from_millis(100),
        };
        let s = profile_footer([&p, &p]);
        assert!(s.starts_with("perf: 2 runs, 70 events"), "{s}");
        let s = profile_footer([&p]);
        assert!(s.starts_with("perf: 1 run, 35 events"), "{s}");
    }
}
