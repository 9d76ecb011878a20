//! Link-rate and byte-size units.
//!
//! [`Rate`] is stored in bits per second and converts byte counts to exact
//! picosecond serialization times (see [`crate::time::SimTime`] for why
//! picoseconds).

use crate::time::{SimTime, PS_PER_SEC};
use std::fmt;

/// A link rate in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rate(pub u64);

impl Rate {
    /// From gigabits per second.
    pub const fn gbps(g: u64) -> Self {
        Rate(g * 1_000_000_000)
    }

    /// From megabits per second.
    pub const fn mbps(m: u64) -> Self {
        Rate(m * 1_000_000)
    }

    /// Bits per second.
    pub const fn bps(self) -> u64 {
        self.0
    }

    /// Bytes per second.
    pub fn bytes_per_sec(self) -> f64 {
        self.0 as f64 / 8.0
    }

    /// Exact time to serialize `bytes` onto the wire at this rate.
    ///
    /// Rounded up to a whole picosecond so a packet never finishes "early".
    /// The numerator `bytes * 8 * PS_PER_SEC` fits u64 for any frame under
    /// ~2.3 MB — every packet this simulator ships — so the hot path is one
    /// u64 division; larger byte counts fall back to u128 with the same
    /// result.
    pub fn serialize_time(self, bytes: u64) -> SimTime {
        assert!(self.0 > 0, "zero-rate link");
        match bytes.checked_mul(8 * PS_PER_SEC) {
            Some(num) => SimTime(num.div_ceil(self.0)),
            None => {
                let bits = bytes as u128 * 8;
                let ps = (bits * PS_PER_SEC as u128).div_ceil(self.0 as u128);
                SimTime(ps as u64)
            }
        }
    }

    /// Bytes that can be transmitted in `dur` at this rate (truncating).
    pub fn bytes_in(self, dur: SimTime) -> u64 {
        ((dur.as_ps() as u128 * self.0 as u128) / (8 * PS_PER_SEC as u128)) as u64
    }
}

impl fmt::Display for Rate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1_000_000_000) {
            write!(f, "{}Gbps", self.0 / 1_000_000_000)
        } else if self.0.is_multiple_of(1_000_000) {
            write!(f, "{}Mbps", self.0 / 1_000_000)
        } else {
            write!(f, "{}bps", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialize_time_exact() {
        assert_eq!(Rate::gbps(10).serialize_time(1500), SimTime::from_ns(1200));
        assert_eq!(Rate::gbps(100).serialize_time(1500), SimTime::from_ns(120));
        assert_eq!(Rate::gbps(25).serialize_time(1500), SimTime::from_ns(480));
        assert_eq!(Rate::gbps(10).serialize_time(60), SimTime::from_ns(48));
    }

    #[test]
    fn serialize_time_rounds_up() {
        // 1 byte at 3 bps: 8/3 s = 2.666..s -> rounds up.
        let t = Rate(3).serialize_time(1);
        assert_eq!(t.as_ps(), (8 * PS_PER_SEC).div_ceil(3));
    }

    #[test]
    fn bytes_in_inverts_serialize() {
        let r = Rate::gbps(10);
        let t = r.serialize_time(150_000);
        assert_eq!(r.bytes_in(t), 150_000);
    }

    #[test]
    fn bdp_matches_paper() {
        // 10 Gbps x 30 us = 37.5 KB, i.e. 25 x 1500 B packets (paper section 4).
        let bdp = Rate::gbps(10).bytes_in(SimTime::from_us(30));
        assert_eq!(bdp, 37_500);
        assert_eq!(bdp / 1500, 25);
    }

    #[test]
    fn display() {
        assert_eq!(format!("{}", Rate::gbps(100)), "100Gbps");
        assert_eq!(format!("{}", Rate::mbps(250)), "250Mbps");
        assert_eq!(format!("{}", Rate(7)), "7bps");
    }

    #[test]
    #[should_panic]
    fn zero_rate_serialize_panics() {
        Rate(0).serialize_time(1);
    }
}
