//! DCTCP (Data Center TCP), per Alizadeh et al. (SIGCOMM 2010).
//!
//! The sender maintains `alpha`, an EWMA of the fraction of acknowledged
//! bytes that carried ECN-Echo, updated once per window of data:
//!
//! ```text
//! alpha <- (1 - g) * alpha + g * F      (F = marked/acked in the window)
//! ```
//!
//! On the first ECN-Echo of a window it reduces `cwnd <- cwnd * (1 - alpha/2)`
//! (once per window — the CWR period), and otherwise grows like Reno
//! (slow start below `ssthresh`, +1 MSS per window above). The window floor
//! is enforced by the sender's `min_cwnd`; the paper's §4.1.2 "degenerate
//! point" is exactly when every flow sits at that floor and marking can no
//! longer reduce the aggregate rate.

use super::{Cca, CcaCtx};
use simnet::SimTime;

/// DCTCP congestion control.
#[derive(Debug)]
pub struct Dctcp {
    cwnd: f64,
    ssthresh: f64,
    g: f64,
    alpha: f64,
    /// Absolute sequence at which the current observation window ends.
    window_end: u64,
    acked_in_window: u64,
    marked_in_window: u64,
    /// True once this window has taken its (single) ECN reduction.
    cwr_this_window: bool,
}

impl Dctcp {
    /// Creates DCTCP with the given initial window (bytes) and gain `g`.
    pub fn new(init_cwnd: u64, g: f64) -> Self {
        assert!(g > 0.0 && g <= 1.0, "g out of (0,1]");
        Dctcp {
            cwnd: init_cwnd as f64,
            ssthresh: f64::INFINITY,
            g,
            alpha: 0.0,
            window_end: 0,
            acked_in_window: 0,
            marked_in_window: 0,
            cwr_this_window: false,
        }
    }

    /// Current marked-fraction estimate.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    fn clamp(&mut self, min_cwnd: u64) {
        if self.cwnd < min_cwnd as f64 {
            self.cwnd = min_cwnd as f64;
        }
    }

    fn grow(&mut self, ctx: &CcaCtx, newly_acked: u64) {
        if ctx.in_recovery || self.cwr_this_window {
            return;
        }
        let mss = ctx.mss as f64;
        if self.cwnd < mss {
            // Sub-MSS (pacing) regime: probe gently — growth scales with
            // the square of the window (Swift-like), so a deeply paced
            // flow takes many round trips to re-approach 1 MSS instead of
            // snapping back on the first unmarked ACK.
            let frac = self.cwnd / mss;
            self.cwnd += mss * frac * frac * (newly_acked as f64 / mss);
            return;
        }
        if self.cwnd < self.ssthresh {
            // Slow start: one MSS per MSS acknowledged.
            self.cwnd += newly_acked as f64;
            if self.cwnd > self.ssthresh {
                self.cwnd = self.ssthresh;
            }
        } else {
            // Congestion avoidance: ~one MSS per window.
            let inc = mss * (newly_acked as f64) / self.cwnd;
            self.cwnd += inc.min(newly_acked as f64);
        }
    }
}

impl Cca for Dctcp {
    fn cwnd(&self) -> u64 {
        self.cwnd as u64
    }

    fn ssthresh(&self) -> u64 {
        if self.ssthresh.is_finite() {
            self.ssthresh as u64
        } else {
            u64::MAX
        }
    }

    fn on_ack(&mut self, ctx: &CcaCtx, newly_acked: u64, ece: bool, _rtt: Option<SimTime>) {
        self.acked_in_window += newly_acked;
        if ece {
            self.marked_in_window += newly_acked;
            if !self.cwr_this_window {
                // One multiplicative decrease per window, scaled by alpha.
                self.cwnd *= 1.0 - self.alpha / 2.0;
                self.clamp(ctx.min_cwnd);
                self.ssthresh = self.cwnd;
                self.cwr_this_window = true;
            }
        }
        self.grow(ctx, newly_acked);
        self.clamp(ctx.min_cwnd);

        // Window rollover: update the alpha estimate.
        if ctx.snd_una >= self.window_end {
            if self.acked_in_window > 0 {
                let f = self.marked_in_window as f64 / self.acked_in_window as f64;
                self.alpha = (1.0 - self.g) * self.alpha + self.g * f;
            }
            self.acked_in_window = 0;
            self.marked_in_window = 0;
            self.cwr_this_window = false;
            self.window_end = ctx.snd_nxt;
        }
    }

    fn on_enter_recovery(&mut self, ctx: &CcaCtx) {
        // Loss: classic halving (stronger than the alpha-scaled cut; see
        // DESIGN.md for the deviation note vs. Linux's dctcp_ssthresh).
        self.cwnd /= 2.0;
        self.clamp(ctx.min_cwnd);
        self.ssthresh = self.cwnd;
    }

    fn on_timeout(&mut self, ctx: &CcaCtx) {
        self.ssthresh = (self.cwnd / 2.0).max(ctx.min_cwnd as f64);
        self.cwnd = ctx.min_cwnd as f64;
        // Fresh start for the estimator window.
        self.acked_in_window = 0;
        self.marked_in_window = 0;
        self.cwr_this_window = false;
        self.window_end = ctx.snd_nxt;
    }

    fn name(&self) -> &'static str {
        "dctcp"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cca::test_ctx;

    const MSS: u64 = 1446;

    #[test]
    fn slow_start_doubles_per_window() {
        let mut d = Dctcp::new(10 * MSS, 1.0 / 16.0);
        let mut ctx = test_ctx(0);
        ctx.snd_nxt = 100 * MSS;
        ctx.snd_una = 10 * MSS;
        d.on_ack(&ctx, 10 * MSS, false, None);
        assert_eq!(d.cwnd(), 20 * MSS);
    }

    #[test]
    fn no_marks_alpha_decays() {
        let mut d = Dctcp::new(10 * MSS, 0.5);
        // Force alpha up first.
        d.alpha = 0.8;
        let mut ctx = test_ctx(0);
        // One full window acked, no marks -> alpha = 0.5*0.8 + 0.5*0 = 0.4.
        ctx.snd_una = 10 * MSS;
        ctx.snd_nxt = 20 * MSS;
        d.on_ack(&ctx, 10 * MSS, false, None);
        assert!((d.alpha() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn fully_marked_window_raises_alpha() {
        let mut d = Dctcp::new(10 * MSS, 1.0 / 16.0);
        let mut ctx = test_ctx(0);
        ctx.snd_una = 10 * MSS;
        ctx.snd_nxt = 20 * MSS;
        d.on_ack(&ctx, 10 * MSS, true, None);
        // F = 1 -> alpha = g.
        assert!((d.alpha() - 1.0 / 16.0).abs() < 1e-12);
    }

    #[test]
    fn ece_reduces_once_per_window() {
        let mut d = Dctcp::new(100 * MSS, 1.0 / 16.0);
        d.alpha = 1.0; // worst case: halve on mark
        let mut ctx = test_ctx(0);
        ctx.snd_nxt = 200 * MSS;
        d.window_end = 150 * MSS; // mid-window
        ctx.snd_una = 10 * MSS;
        d.on_ack(&ctx, MSS, true, None);
        let after_first = d.cwnd();
        assert_eq!(after_first, 50 * MSS);
        // Second marked ACK in the same window: no further cut.
        ctx.snd_una = 11 * MSS;
        d.on_ack(&ctx, MSS, true, None);
        assert_eq!(d.cwnd(), after_first);
    }

    #[test]
    fn alpha_one_halves_window() {
        let mut d = Dctcp::new(100 * MSS, 1.0 / 16.0);
        d.alpha = 1.0;
        d.window_end = u64::MAX; // stay in one window
        let mut ctx = test_ctx(0);
        ctx.snd_nxt = 1;
        d.on_ack(&ctx, MSS, true, None);
        assert_eq!(d.cwnd(), 50 * MSS);
    }

    #[test]
    fn floor_is_respected_under_persistent_marking() {
        let mut d = Dctcp::new(2 * MSS, 1.0 / 16.0);
        d.alpha = 1.0;
        let mut ctx = test_ctx(0);
        for round in 0..50u64 {
            ctx.snd_una = round * MSS;
            ctx.snd_nxt = ctx.snd_una + MSS;
            d.window_end = ctx.snd_una; // every ack rolls the window
            d.on_ack(&ctx, MSS, true, None);
        }
        assert_eq!(d.cwnd(), MSS, "cannot fall below 1 MSS");
    }

    #[test]
    fn steady_state_alpha_tracks_marking_fraction() {
        // Alternate marked/unmarked windows -> alpha converges near 0.5.
        let mut d = Dctcp::new(10 * MSS, 1.0 / 16.0);
        let mut ctx = test_ctx(0);
        let mut seq = 0;
        for i in 0..2000u64 {
            ctx.snd_una = seq + 10 * MSS;
            ctx.snd_nxt = seq + 20 * MSS;
            d.window_end = seq + 5 * MSS;
            d.on_ack(&ctx, 10 * MSS, i % 2 == 0, None);
            seq += 10 * MSS;
        }
        assert!((d.alpha() - 0.5).abs() < 0.1, "alpha {}", d.alpha());
    }

    #[test]
    fn loss_halves_and_timeout_resets() {
        let mut d = Dctcp::new(40 * MSS, 1.0 / 16.0);
        let ctx = test_ctx(0);
        d.on_enter_recovery(&ctx);
        assert_eq!(d.cwnd(), 20 * MSS);
        assert_eq!(d.ssthresh(), 20 * MSS);
        d.on_timeout(&ctx);
        assert_eq!(d.cwnd(), MSS);
        assert_eq!(d.ssthresh(), 10 * MSS);
    }

    #[test]
    fn congestion_avoidance_is_linear() {
        let mut d = Dctcp::new(10 * MSS, 1.0 / 16.0);
        d.ssthresh = 10.0 * MSS as f64; // at threshold: CA mode
        let mut ctx = test_ctx(0);
        ctx.snd_nxt = 1000 * MSS;
        // Ack one full window worth: growth ~ 1 MSS.
        ctx.snd_una = 10 * MSS;
        d.window_end = u64::MAX;
        d.on_ack(&ctx, 10 * MSS, false, None);
        let grown = d.cwnd() - 10 * MSS;
        assert!(
            (MSS - 10..=MSS + 10).contains(&grown),
            "CA grew by {grown} bytes"
        );
    }

    #[test]
    fn no_growth_during_recovery() {
        let mut d = Dctcp::new(10 * MSS, 1.0 / 16.0);
        let mut ctx = test_ctx(0);
        ctx.in_recovery = true;
        d.on_ack(&ctx, 10 * MSS, false, None);
        assert_eq!(d.cwnd(), 10 * MSS);
    }

    #[test]
    #[should_panic]
    fn invalid_g_rejected() {
        Dctcp::new(MSS, 1.5);
    }
}
