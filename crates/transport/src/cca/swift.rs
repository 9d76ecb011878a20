//! Swift-like delay-based congestion control (Kumar et al., SIGCOMM 2020),
//! the paper's §5.2 point of comparison for very-high-degree incast.
//!
//! The essentials reproduced here:
//!
//! - the congestion signal is **delay**: each ACK's RTT sample is compared
//!   to a target; below target the window grows additively, above target it
//!   decreases multiplicatively in proportion to the excess delay (at most
//!   once per window),
//! - the window is **fractional**: it may fall far below 1 MSS, in which
//!   case the sender's pacing mode transmits one packet every
//!   `RTT × MSS / cwnd` (enable [`crate::config::TcpConfig::pacing`]),
//! - sub-MSS growth is scaled by the square of the window so deeply paced
//!   flows probe gently.
//!
//! Delay responds to *any* queueing, immediately and in proportion — unlike
//! DCTCP's alpha-gated cuts, which are weak for a flow whose alpha has
//! decayed. That difference is exactly why Swift survives O(10k) incasts
//! where window DCTCP collapses (sweep `swift_pacing.json`).

use super::{Cca, CcaCtx};
use simnet::SimTime;

/// Swift-like delay-based congestion control.
#[derive(Debug)]
pub struct SwiftLike {
    cwnd: f64,
    /// Target end-to-end delay.
    target: SimTime,
    /// Additive increase per RTT, in MSS.
    ai: f64,
    /// Maximum multiplicative-decrease strength.
    beta: f64,
    /// End of the current reaction window (one decrease per window).
    window_end: u64,
}

impl SwiftLike {
    /// Creates the algorithm with the given initial window (bytes) and
    /// delay target.
    pub fn new(init_cwnd: u64, target: SimTime) -> Self {
        assert!(target > SimTime::ZERO, "zero delay target");
        SwiftLike {
            cwnd: init_cwnd as f64,
            target,
            ai: 1.0,
            beta: 0.8,
            window_end: 0,
        }
    }

    /// The delay target.
    pub fn target(&self) -> SimTime {
        self.target
    }

    fn clamp(&mut self, min_cwnd: u64) {
        if self.cwnd < min_cwnd as f64 {
            self.cwnd = min_cwnd as f64;
        }
    }

    fn grow(&mut self, ctx: &CcaCtx, newly_acked: u64) {
        let mss = ctx.mss as f64;
        if self.cwnd < mss {
            // Sub-MSS: probe with the square of the window.
            let frac = self.cwnd / mss;
            self.cwnd += mss * frac * frac * (newly_acked as f64 / mss);
        } else {
            // Additive increase: ai MSS per RTT.
            self.cwnd += self.ai * mss * (newly_acked as f64) / self.cwnd;
        }
    }
}

impl Cca for SwiftLike {
    fn cwnd(&self) -> u64 {
        self.cwnd as u64
    }

    fn ssthresh(&self) -> u64 {
        u64::MAX // Swift has no slow-start threshold notion.
    }

    fn on_ack(&mut self, ctx: &CcaCtx, newly_acked: u64, _ece: bool, rtt: Option<SimTime>) {
        if ctx.in_recovery {
            return;
        }
        let Some(rtt) = rtt else {
            return; // dupacks / unsampled acks carry no delay signal
        };
        if rtt <= self.target {
            self.grow(ctx, newly_acked);
        } else if ctx.snd_una >= self.window_end {
            // Multiplicative decrease proportional to the excess delay,
            // at most once per window.
            let excess = (rtt.as_ps() - self.target.as_ps()) as f64 / rtt.as_ps() as f64;
            let factor = (1.0 - self.beta * excess).max(1.0 - self.beta);
            self.cwnd *= factor;
            self.window_end = ctx.snd_nxt;
        }
        self.clamp(ctx.min_cwnd);
    }

    fn on_enter_recovery(&mut self, ctx: &CcaCtx) {
        self.cwnd /= 2.0;
        self.clamp(ctx.min_cwnd);
    }

    fn on_timeout(&mut self, ctx: &CcaCtx) {
        self.cwnd = ctx.min_cwnd as f64;
        self.window_end = ctx.snd_nxt;
    }

    fn name(&self) -> &'static str {
        "swift-like"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cca::test_ctx;

    const MSS: u64 = 1446;

    fn ctx() -> CcaCtx {
        let mut c = test_ctx(0);
        c.snd_nxt = 1000 * MSS;
        c.min_cwnd = MSS / 16;
        c
    }

    #[test]
    fn grows_below_target() {
        let mut s = SwiftLike::new(10 * MSS, SimTime::from_us(60));
        let before = s.cwnd();
        s.on_ack(&ctx(), 10 * MSS, false, Some(SimTime::from_us(30)));
        assert!(s.cwnd() > before);
    }

    #[test]
    fn shrinks_above_target_proportionally() {
        let mut s = SwiftLike::new(100 * MSS, SimTime::from_us(60));
        let mut c = ctx();
        c.snd_una = 1;
        // Mild excess -> mild cut.
        s.on_ack(&c, MSS, false, Some(SimTime::from_us(70)));
        let mild = s.cwnd() as f64 / (100 * MSS) as f64;
        assert!(mild > 0.85 && mild < 1.0, "mild cut {mild}");
        // Severe excess in the next window -> near-maximal cut.
        let mut s = SwiftLike::new(100 * MSS, SimTime::from_us(60));
        s.on_ack(&c, MSS, false, Some(SimTime::from_us(600)));
        let severe = s.cwnd() as f64 / (100 * MSS) as f64;
        assert!(severe < 0.35, "severe cut {severe}");
    }

    #[test]
    fn decrease_once_per_window() {
        let mut s = SwiftLike::new(100 * MSS, SimTime::from_us(60));
        let mut c = ctx();
        c.snd_una = 1;
        s.on_ack(&c, MSS, false, Some(SimTime::from_ms(1)));
        let after_first = s.cwnd();
        c.snd_una = 2; // still inside the reaction window
        s.on_ack(&c, MSS, false, Some(SimTime::from_ms(1)));
        assert_eq!(s.cwnd(), after_first);
    }

    #[test]
    fn window_can_fall_below_one_mss() {
        let mut s = SwiftLike::new(2 * MSS, SimTime::from_us(60));
        let mut c = ctx();
        for i in 0..40u64 {
            c.snd_una = (i + 1) * MSS;
            c.snd_nxt = c.snd_una; // every ack opens a new window
            s.on_ack(&c, MSS, false, Some(SimTime::from_ms(1)));
        }
        assert!(s.cwnd() < MSS, "cwnd {} should be sub-MSS", s.cwnd());
        assert!(s.cwnd() >= MSS / 16, "floor respected");
    }

    #[test]
    fn sub_mss_growth_is_gentle() {
        let mut s = SwiftLike::new(MSS / 16, SimTime::from_us(60));
        let c = ctx();
        s.on_ack(&c, MSS, false, Some(SimTime::from_us(10)));
        // One good ack from the floor must not snap back to 1 MSS.
        assert!(s.cwnd() < MSS / 8, "cwnd {}", s.cwnd());
    }

    #[test]
    fn dupacks_without_rtt_are_ignored() {
        let mut s = SwiftLike::new(10 * MSS, SimTime::from_us(60));
        let before = s.cwnd();
        s.on_ack(&ctx(), 0, false, None);
        assert_eq!(s.cwnd(), before);
    }

    #[test]
    fn loss_and_timeout() {
        let mut s = SwiftLike::new(10 * MSS, SimTime::from_us(60));
        let c = ctx();
        s.on_enter_recovery(&c);
        assert_eq!(s.cwnd(), 5 * MSS);
        s.on_timeout(&c);
        assert_eq!(s.cwnd(), MSS / 16);
    }

    #[test]
    #[should_panic]
    fn zero_target_rejected() {
        SwiftLike::new(MSS, SimTime::ZERO);
    }
}
