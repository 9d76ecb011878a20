//! Simulated time.
//!
//! [`SimTime`] is a count of **picoseconds** since simulation start. At the
//! paper's link rates this keeps serialization times exact: a 1500 B frame
//! takes precisely 1 200 000 ps at 10 Gbps and 120 000 ps at 100 Gbps, so no
//! rounding error accumulates over millions of packets. A `u64` of
//! picoseconds covers ~213 days of simulated time, far beyond any experiment
//! here (the longest is an 18-hour fleet study, which is simulated as many
//! independent 2-second traces).

use std::fmt;
use std::ops::{Add, AddAssign, Sub, SubAssign};

/// An instant (or duration) in simulated time, in picoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A time is one integer leaf, in picoseconds.
impl stats::Leaves for SimTime {
    fn walk<V: stats::Visit>(&self, name: &'static str, v: &mut V) {
        v.int(name, self.0);
    }

    fn read(
        name: &'static str,
        r: &mut stats::leaves::Reader<'_>,
    ) -> Result<Self, stats::ConfigError> {
        r.int(name).map(SimTime)
    }
}

pub const PS_PER_NS: u64 = 1_000;
pub const PS_PER_US: u64 = 1_000_000;
pub const PS_PER_MS: u64 = 1_000_000_000;
pub const PS_PER_SEC: u64 = 1_000_000_000_000;

impl SimTime {
    /// Simulation epoch.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant (used as "never").
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// From picoseconds.
    pub const fn from_ps(ps: u64) -> Self {
        SimTime(ps)
    }

    /// From nanoseconds.
    pub const fn from_ns(ns: u64) -> Self {
        SimTime(ns * PS_PER_NS)
    }

    /// From microseconds.
    pub const fn from_us(us: u64) -> Self {
        SimTime(us * PS_PER_US)
    }

    /// From milliseconds.
    pub const fn from_ms(ms: u64) -> Self {
        SimTime(ms * PS_PER_MS)
    }

    /// From seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * PS_PER_SEC)
    }

    /// From fractional microseconds (rounds to the nearest picosecond).
    pub fn from_us_f64(us: f64) -> Self {
        assert!(us >= 0.0 && us.is_finite(), "invalid duration: {us}");
        SimTime((us * PS_PER_US as f64).round() as u64)
    }

    /// From fractional milliseconds (rounds to the nearest picosecond).
    pub fn from_ms_f64(ms: f64) -> Self {
        assert!(ms >= 0.0 && ms.is_finite(), "invalid duration: {ms}");
        SimTime((ms * PS_PER_MS as f64).round() as u64)
    }

    /// From fractional seconds (rounds to the nearest picosecond).
    pub fn from_secs_f64(s: f64) -> Self {
        assert!(s >= 0.0 && s.is_finite(), "invalid duration: {s}");
        SimTime((s * PS_PER_SEC as f64).round() as u64)
    }

    /// Raw picoseconds.
    pub const fn as_ps(self) -> u64 {
        self.0
    }

    /// Whole nanoseconds (truncating).
    pub const fn as_ns(self) -> u64 {
        self.0 / PS_PER_NS
    }

    /// Fractional microseconds.
    pub fn as_us_f64(self) -> f64 {
        self.0 as f64 / PS_PER_US as f64
    }

    /// Fractional milliseconds.
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / PS_PER_MS as f64
    }

    /// Fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / PS_PER_SEC as f64
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(rhs.0))
    }

    /// Checked addition (None on overflow).
    pub fn checked_add(self, rhs: SimTime) -> Option<SimTime> {
        self.0.checked_add(rhs.0).map(SimTime)
    }

    /// Scales a duration by an integer factor.
    #[allow(clippy::should_implement_trait)] // deliberate: SimTime x scalar, not SimTime x SimTime
    pub fn mul(self, factor: u64) -> SimTime {
        SimTime(self.0 * factor)
    }

    /// Scales a duration by a float factor (rounds).
    pub fn mul_f64(self, factor: f64) -> SimTime {
        assert!(factor >= 0.0 && factor.is_finite());
        SimTime((self.0 as f64 * factor).round() as u64)
    }
}

impl Add for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl SubAssign for SimTime {
    fn sub_assign(&mut self, rhs: SimTime) {
        self.0 -= rhs.0;
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ps = self.0;
        if ps >= PS_PER_SEC {
            write!(f, "{:.6}s", self.as_secs_f64())
        } else if ps >= PS_PER_MS {
            write!(f, "{:.3}ms", self.as_ms_f64())
        } else if ps >= PS_PER_US {
            write!(f, "{:.3}us", self.as_us_f64())
        } else {
            write!(f, "{}ns", ps as f64 / PS_PER_NS as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_ns(1).as_ps(), 1_000);
        assert_eq!(SimTime::from_us(1).as_ps(), 1_000_000);
        assert_eq!(SimTime::from_ms(1).as_ps(), 1_000_000_000);
        assert_eq!(SimTime::from_secs(2).as_ms_f64(), 2_000.0);
        assert_eq!(SimTime::from_ms(30).as_ns(), 30_000_000);
    }

    #[test]
    fn float_constructors() {
        assert_eq!(SimTime::from_us_f64(1.5).as_ps(), 1_500_000);
        assert_eq!(SimTime::from_ms_f64(0.25).as_ps(), 250_000_000);
        assert_eq!(SimTime::from_secs_f64(1e-12).as_ps(), 1);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_us(3);
        let b = SimTime::from_us(1);
        assert_eq!(a + b, SimTime::from_us(4));
        assert_eq!(a - b, SimTime::from_us(2));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.mul(2), SimTime::from_us(6));
        assert_eq!(a.mul_f64(0.5), SimTime::from_us_f64(1.5));
    }

    #[test]
    fn serialization_is_exact_at_paper_rates() {
        // 1500 B at 10 Gbps = 1.2 us exactly; at 100 Gbps = 120 ns exactly.
        let bits = 1500u64 * 8;
        let at_10g = SimTime::from_ps(bits * PS_PER_SEC / 10_000_000_000);
        assert_eq!(at_10g, SimTime::from_ns(1200));
        let at_100g = SimTime::from_ps(bits * PS_PER_SEC / 100_000_000_000);
        assert_eq!(at_100g, SimTime::from_ns(120));
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_ns(1) < SimTime::from_us(1));
        assert!(SimTime::MAX > SimTime::from_secs(1000));
    }

    #[test]
    fn display_picks_sensible_unit() {
        assert_eq!(format!("{}", SimTime::from_ns(500)), "500ns");
        assert_eq!(format!("{}", SimTime::from_us(30)), "30.000us");
        assert_eq!(format!("{}", SimTime::from_ms(15)), "15.000ms");
        assert_eq!(format!("{}", SimTime::from_secs(2)), "2.000000s");
    }

    #[test]
    fn checked_add_detects_overflow() {
        assert!(SimTime::MAX.checked_add(SimTime(1)).is_none());
        assert_eq!(SimTime(1).checked_add(SimTime(2)), Some(SimTime(3)));
    }

    #[test]
    #[should_panic]
    fn negative_duration_rejected() {
        SimTime::from_ms_f64(-1.0);
    }
}
