//! Simulation invariants (real under the `check` feature, no-op stubs
//! otherwise).
//!
//! When compiled in, the simulator keeps a *shadow* double-entry copy of
//! every queue's and shared buffer's byte accounting, counts injected
//! packets, and cross-checks conservation and monotonicity after each
//! mutation. Violations are recorded in a thread-local log rather than
//! panicking, so the `simcheck` fuzzer can observe a failure, keep the
//! simulation deterministic, and shrink the scenario that produced it.
//!
//! Everything here is cheap relative to the event loop (a few integer
//! compares per packet operation) but not free, which is why the real
//! implementation is behind a cargo feature that defaults to off: release
//! binaries and the benchmark pay zero cost unless
//! `--features check` is given. The module itself is always present so
//! callers (tests, the supervisor, transport's blackhole suite) can call
//! `reset`/`violation_count` unconditionally; without the feature those
//! are no-ops that report zero violations.
//!
//! The log is thread-local because simulations are single-threaded and the
//! sweep/fuzzer layers parallelize by running whole simulations on worker
//! threads; each worker resets, runs, and collects without synchronization.

/// One recorded invariant violation.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Stable machine-readable kind, e.g. `"packet_conservation"`.
    pub kind: &'static str,
    /// Human-readable details (counter values, ids).
    pub msg: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{}] {}", self.kind, self.msg)
    }
}

/// Shadow state the simulator maintains alongside its real structures.
///
/// Double-entry bookkeeping: every byte charged to a queue or shared buffer
/// is also charged here, and the two ledgers are compared after each
/// operation. A divergence means some path updated one side but not the
/// other — the bug class introduced by refactors of the packet hot path.
#[derive(Debug, Default)]
pub struct Audit {
    /// Shadow of each link queue's `bytes()`.
    pub queue_bytes: Vec<u64>,
    /// Shadow of each shared buffer's `used_bytes()`.
    pub buffer_used: Vec<u64>,
    /// Last time an endpoint on each node was dispatched, in ps.
    pub last_dispatch_ps: Vec<u64>,
    /// Packets handed to the engine via `Cmd::Send`.
    pub injected_pkts: u64,
}

impl Audit {
    /// Sized for a freshly assembled simulator.
    pub fn new(num_nodes: usize, num_links: usize, num_buffers: usize) -> Self {
        Audit {
            queue_bytes: vec![0; num_links],
            buffer_used: vec![0; num_buffers],
            last_dispatch_ps: vec![0; num_nodes],
            injected_pkts: 0,
        }
    }
}

#[cfg(feature = "check")]
mod imp {
    use super::Violation;
    use std::cell::Cell;
    use std::cell::RefCell;

    /// Cap on stored violations per thread; once a shadow counter diverges
    /// every subsequent operation would re-report, so keep the first few
    /// and count the rest.
    const MAX_LOG: usize = 64;

    thread_local! {
        static LOG: RefCell<Vec<Violation>> = const { RefCell::new(Vec::new()) };
        static OVERFLOW: Cell<u64> = const { Cell::new(0) };
        static INJECT_BUFFER_UNDERRELEASE: Cell<bool> = const { Cell::new(false) };
        static INJECT_FAULT_DROP_MISCOUNT: Cell<bool> = const { Cell::new(false) };
    }

    /// Clears this thread's violation log. Call before a checked run.
    pub fn reset() {
        LOG.with(|l| l.borrow_mut().clear());
        OVERFLOW.with(|o| o.set(0));
    }

    /// Drains and returns this thread's recorded violations (the first
    /// `MAX_LOG`; use [`violation_count`] for the true total).
    pub fn take() -> Vec<Violation> {
        LOG.with(|l| std::mem::take(&mut *l.borrow_mut()))
    }

    /// Total violations recorded on this thread since the last [`reset`],
    /// including any dropped past the log cap.
    pub fn violation_count() -> u64 {
        LOG.with(|l| l.borrow().len() as u64) + OVERFLOW.with(|o| o.get())
    }

    /// Records a violation (kept if under the cap, counted regardless).
    pub fn record(kind: &'static str, msg: String) {
        LOG.with(|l| {
            let mut log = l.borrow_mut();
            if log.len() < MAX_LOG {
                log.push(Violation { kind, msg });
            } else {
                OVERFLOW.with(|o| o.set(o.get() + 1));
            }
        });
    }

    /// Outlined violation recording for hot paths. Call sites pass
    /// `format_args!(..)` so the formatting machinery (and its code size)
    /// lives here, in a function the optimizer keeps out of the hot loop,
    /// instead of bloating every audited packet operation. The hot side is
    /// then just a predictable compare-and-branch to a cold call.
    #[cold]
    #[inline(never)]
    pub fn violated(kind: &'static str, args: std::fmt::Arguments<'_>) {
        record(kind, std::fmt::format(args));
    }

    /// Test-only fault injection: when set, [`crate::Simulator`] releases
    /// one byte too few from a shared buffer on every dequeue. The
    /// resulting drift is invisible to the buffer's own bounds checks
    /// (usage stays below capacity for a long time) and is caught only by
    /// the shadow accounting — exactly the class of bug the invariant
    /// layer exists for. Used by `simcheck` to prove the checker catches
    /// and shrinks real failures.
    pub fn set_inject_buffer_underrelease(on: bool) {
        INJECT_BUFFER_UNDERRELEASE.with(|f| f.set(on));
    }

    /// Current state of the injected buffer-accounting bug flag.
    pub fn inject_buffer_underrelease() -> bool {
        INJECT_BUFFER_UNDERRELEASE.with(|f| f.get())
    }

    /// Test-only fault injection for the *fault layer itself*: when set,
    /// drops on an administratively-down link are counted per-link but not
    /// in the global `fault_drops` counter, so packet conservation no
    /// longer balances. Invisible without a `FaultPlan` that takes a link
    /// down — which is what forces the simcheck shrinker to keep the fault
    /// schedule in its minimal reproducer.
    pub fn set_inject_fault_drop_miscount(on: bool) {
        INJECT_FAULT_DROP_MISCOUNT.with(|f| f.set(on));
    }

    /// Current state of the injected fault-drop-miscount bug flag.
    pub fn inject_fault_drop_miscount() -> bool {
        INJECT_FAULT_DROP_MISCOUNT.with(|f| f.get())
    }
}

#[cfg(not(feature = "check"))]
mod imp {
    use super::Violation;

    /// No-op without the `check` feature.
    pub fn reset() {}

    /// Always empty without the `check` feature.
    pub fn take() -> Vec<Violation> {
        Vec::new()
    }

    /// Always zero without the `check` feature.
    pub fn violation_count() -> u64 {
        0
    }

    /// No-op without the `check` feature.
    pub fn record(_kind: &'static str, _msg: String) {}

    /// No-op without the `check` feature.
    pub fn violated(_kind: &'static str, _args: std::fmt::Arguments<'_>) {}

    /// No-op without the `check` feature (the bug cannot be injected).
    pub fn set_inject_buffer_underrelease(_on: bool) {}

    /// Always false without the `check` feature.
    pub fn inject_buffer_underrelease() -> bool {
        false
    }

    /// No-op without the `check` feature (the bug cannot be injected).
    pub fn set_inject_fault_drop_miscount(_on: bool) {}

    /// Always false without the `check` feature.
    pub fn inject_fault_drop_miscount() -> bool {
        false
    }
}

pub use imp::*;
