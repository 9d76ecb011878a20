//! Wall-clock profiling of the simulator hot loop.
//!
//! [`LoopProfile`] accumulates how many events of each kind a run
//! processed and how much wall-clock time the event loop spent, giving an
//! events/sec figure that experiment reports print beside their tables.
//! Profiles from parallel runs merge additively.

use std::time::Duration;

/// Per-event-kind counts from the simulator loop.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventTallies {
    /// Link serialization completions.
    pub tx_complete: u64,
    /// Packet deliveries (hop arrivals).
    pub delivery: u64,
    /// Endpoint timers.
    pub timer: u64,
    /// Scheduled fault-plan events.
    pub fault: u64,
    /// Switch control-plane timers (incast notification retries).
    pub ctrl: u64,
}

stats::leaves!(EventTallies: tx_complete, delivery, timer, fault, ctrl);

impl EventTallies {
    /// Total events across kinds.
    pub fn total(&self) -> u64 {
        self.tx_complete + self.delivery + self.timer + self.fault + self.ctrl
    }
}

/// Wall-clock cost of one or more simulation runs.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LoopProfile {
    /// Per-kind event counts.
    pub tallies: EventTallies,
    /// Wall-clock time spent inside the event loop.
    pub wall: Duration,
}

stats::leaves!(LoopProfile: tallies, wall);

impl LoopProfile {
    /// An empty profile.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total events processed.
    pub fn events(&self) -> u64 {
        self.tallies.total()
    }

    /// Events per wall-clock second (0 when no time was measured).
    pub fn events_per_sec(&self) -> f64 {
        let secs = self.wall.as_secs_f64();
        if secs > 0.0 {
            self.events() as f64 / secs
        } else {
            0.0
        }
    }

    /// Adds another profile into this one (for aggregating parallel runs).
    pub fn merge(&mut self, other: &LoopProfile) {
        self.tallies.tx_complete += other.tallies.tx_complete;
        self.tallies.delivery += other.tallies.delivery;
        self.tallies.timer += other.tallies.timer;
        self.tallies.fault += other.tallies.fault;
        self.tallies.ctrl += other.tallies.ctrl;
        self.wall += other.wall;
    }

    /// One-line human summary, e.g.
    /// `"1234567 events in 0.41s (3.0M ev/s; tx 400000, rx 800000, timer 34567, fault 0)"`.
    pub fn summary(&self) -> String {
        let eps = self.events_per_sec();
        let eps_str = if eps >= 1e6 {
            format!("{:.1}M ev/s", eps / 1e6)
        } else if eps >= 1e3 {
            format!("{:.0}k ev/s", eps / 1e3)
        } else {
            format!("{eps:.0} ev/s")
        };
        format!(
            "{} events in {:.2}s ({}; tx {}, rx {}, timer {}, fault {}, ctrl {})",
            self.events(),
            self.wall.as_secs_f64(),
            eps_str,
            self.tallies.tx_complete,
            self.tallies.delivery,
            self.tallies.timer,
            self.tallies.fault,
            self.tallies.ctrl,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tallies_total() {
        let t = EventTallies {
            tx_complete: 1,
            delivery: 2,
            timer: 3,
            fault: 4,
            ctrl: 5,
        };
        assert_eq!(t.total(), 15);
    }

    #[test]
    fn events_per_sec_guards_zero_wall() {
        let p = LoopProfile::new();
        assert_eq!(p.events_per_sec(), 0.0);
        let p = LoopProfile {
            tallies: EventTallies {
                tx_complete: 500,
                delivery: 500,
                ..Default::default()
            },
            wall: Duration::from_millis(500),
        };
        assert!((p.events_per_sec() - 2000.0).abs() < 1e-9);
    }

    #[test]
    fn merge_is_additive() {
        let mut a = LoopProfile {
            tallies: EventTallies {
                tx_complete: 1,
                delivery: 2,
                timer: 3,
                fault: 1,
                ctrl: 1,
            },
            wall: Duration::from_millis(10),
        };
        let b = LoopProfile {
            tallies: EventTallies {
                tx_complete: 10,
                delivery: 20,
                timer: 30,
                fault: 2,
                ctrl: 2,
            },
            wall: Duration::from_millis(90),
        };
        a.merge(&b);
        assert_eq!(a.events(), 72);
        assert_eq!(a.wall, Duration::from_millis(100));
    }

    #[test]
    fn summary_formats_magnitudes() {
        let mk = |events: u64, ms: u64| LoopProfile {
            tallies: EventTallies {
                tx_complete: events,
                ..Default::default()
            },
            wall: Duration::from_millis(ms),
        };
        assert!(mk(5_000_000, 1000).summary().contains("M ev/s"));
        assert!(mk(5_000, 1000).summary().contains("k ev/s"));
        assert!(mk(50, 1000).summary().contains("50 ev/s"));
    }

    #[test]
    fn summary_reports_fault_and_ctrl_tallies() {
        let p = LoopProfile {
            tallies: EventTallies {
                tx_complete: 1,
                delivery: 2,
                timer: 3,
                fault: 4,
                ctrl: 5,
            },
            wall: Duration::from_millis(10),
        };
        assert!(
            p.summary().contains("tx 1, rx 2, timer 3, fault 4, ctrl 5"),
            "{}",
            p.summary()
        );
    }
}
