//! Per-stream TCP throughput model.
//!
//! The fluid flow solver (see [`crate::flow`]) decides how concurrent flows
//! share link capacity; this module decides how much a *single TCP stream*
//! could carry at most, independent of sharing. Two classic effects bound a
//! stream below the raw link capacity on wide-area paths:
//!
//! 1. **Window limit** — a stream can keep at most one receive window in
//!    flight, so its rate is at most `W / RTT`.
//! 2. **Loss limit** — with packet loss probability `p`, congestion
//!    avoidance bounds the rate near the Mathis et al. formula
//!    `(MSS / RTT) * (C / sqrt(p))` with `C ≈ sqrt(3/2)`.
//!
//! These two bounds are exactly why the paper's GridFTP parallel data
//! transfer (MODE E, multiple TCP streams) improves aggregate bandwidth on
//! the 30 Mbps WAN path: each extra stream brings its own window and its own
//! loss recovery, so `n` streams can carry close to `n×` a single stream's
//! ceiling until the link itself saturates.
//!
//! Slow start is modelled as a startup *transient*: the time the stream
//! spends ramping its congestion window before reaching its steady rate,
//! expressed as an equivalent extra delay ([`TcpParams::startup_penalty`]).

use crate::time::SimDuration;
use crate::topology::Bandwidth;

/// Mathis constant `sqrt(3/2)` for Reno-style congestion avoidance.
const MATHIS_C: f64 = 1.224_744_871_391_589;

/// Parameters describing a TCP stack and path loss environment.
///
/// ```
/// use datagrid_simnet::tcp::TcpParams;
/// use datagrid_simnet::time::SimDuration;
///
/// let tcp = TcpParams::default();
/// let cap = tcp.steady_rate(SimDuration::from_millis(20));
/// assert!(cap.as_mbps() > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TcpParams {
    /// Maximum segment size in bytes (typical Ethernet: 1460).
    pub mss: u32,
    /// Receive/congestion window ceiling in bytes.
    pub max_window: u64,
    /// Initial congestion window in bytes (slow start entry point).
    pub initial_window: u64,
    /// Stationary packet loss probability on the path (0 disables the
    /// Mathis bound).
    pub loss_rate: f64,
}

impl Default for TcpParams {
    /// A 2005-era stack: 1460-byte MSS, 256 KiB window, 2-segment initial
    /// window, loss-free path.
    fn default() -> Self {
        TcpParams {
            mss: 1460,
            max_window: 256 * 1024,
            initial_window: 2 * 1460,
            loss_rate: 0.0,
        }
    }
}

impl TcpParams {
    /// Creates parameters with an explicit window ceiling and loss rate,
    /// keeping default MSS and initial window.
    ///
    /// # Panics
    ///
    /// Panics if `max_window` is zero or `loss_rate` is outside `[0, 1)`.
    pub fn new(max_window: u64, loss_rate: f64) -> Self {
        let p = TcpParams {
            max_window,
            loss_rate,
            ..TcpParams::default()
        };
        p.validate();
        p
    }

    fn validate(&self) {
        assert!(self.mss > 0, "MSS must be positive");
        assert!(self.max_window > 0, "window must be positive");
        assert!(
            self.initial_window > 0 && self.initial_window <= self.max_window,
            "initial window must be in (0, max_window]"
        );
        assert!(
            (0.0..1.0).contains(&self.loss_rate),
            "loss rate must be in [0, 1), got {}",
            self.loss_rate
        );
    }

    /// The window-limited rate `W / RTT`.
    pub fn window_rate(&self, rtt: SimDuration) -> Bandwidth {
        let rtt_s = rtt.as_secs_f64();
        if rtt_s <= 0.0 {
            // Zero-RTT paths (same node) are effectively unbounded.
            return Bandwidth::from_bps(1e15);
        }
        Bandwidth::from_bps(self.max_window as f64 * 8.0 / rtt_s)
    }

    /// The loss-limited (Mathis) rate, or `None` when the path is loss-free.
    pub fn mathis_rate(&self, rtt: SimDuration) -> Option<Bandwidth> {
        if self.loss_rate <= 0.0 {
            return None;
        }
        let rtt_s = rtt.as_secs_f64();
        if rtt_s <= 0.0 {
            return None;
        }
        let bps = (self.mss as f64 * 8.0 / rtt_s) * (MATHIS_C / self.loss_rate.sqrt());
        Some(Bandwidth::from_bps(bps))
    }

    /// The steady-state ceiling of one stream on a path with the given RTT:
    /// the tighter of the window and Mathis bounds.
    pub fn steady_rate(&self, rtt: SimDuration) -> Bandwidth {
        let w = self.window_rate(rtt);
        match self.mathis_rate(rtt) {
            Some(m) if m < w => m,
            _ => w,
        }
    }

    /// Extra completion delay attributable to slow start, relative to an
    /// ideal flow that runs at `steady_rate` from the first byte.
    ///
    /// During slow start the window doubles each RTT from
    /// `initial_window` until it reaches the steady window
    /// `W* = rate × RTT`; the stream spends `ceil(log2(W*/W0))` round trips
    /// sending only `W* - W0 < W*` bytes. The equivalent penalty is the ramp
    /// time minus the time those bytes would have taken at full rate.
    pub fn startup_penalty(&self, rtt: SimDuration, steady_rate: Bandwidth) -> SimDuration {
        let rtt_s = rtt.as_secs_f64();
        let rate = steady_rate.as_bytes_per_sec();
        if rtt_s <= 0.0 || rate <= 0.0 {
            return SimDuration::ZERO;
        }
        let target_window = (rate * rtt_s).max(self.initial_window as f64);
        let rounds = (target_window / self.initial_window as f64)
            .log2()
            .ceil()
            .max(0.0);
        // `rounds` is clamped to >= 0, so `<=` is the same test as `== 0`
        // without an exact float comparison.
        if rounds <= 0.0 {
            return SimDuration::ZERO;
        }
        // Bytes sent while ramping: W0 * (2^rounds - 1) ≈ target_window.
        let ramp_bytes = self.initial_window as f64 * (2f64.powf(rounds) - 1.0);
        let ramp_time = rounds * rtt_s;
        let ideal_time = ramp_bytes / rate;
        let penalty = (ramp_time - ideal_time).max(0.0);
        SimDuration::from_secs_f64(penalty)
    }

    /// Convenience: the startup penalty with the steady rate computed from
    /// this parameter set itself.
    pub fn startup_penalty_on(&self, rtt: SimDuration) -> SimDuration {
        self.startup_penalty(rtt, self.steady_rate(rtt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(m: u64) -> SimDuration {
        SimDuration::from_millis(m)
    }

    #[test]
    fn window_rate_scales_inverse_rtt() {
        let tcp = TcpParams::default();
        let r10 = tcp.window_rate(ms(10)).as_bps();
        let r20 = tcp.window_rate(ms(20)).as_bps();
        assert!((r10 / r20 - 2.0).abs() < 1e-9);
        // 256 KiB window over 10 ms: 262144*8/0.01 ≈ 209.7 Mbps.
        assert!((r10 / 1e6 - 209.7152).abs() < 1e-3);
    }

    #[test]
    fn lossless_path_has_no_mathis_bound() {
        let tcp = TcpParams::default();
        assert!(tcp.mathis_rate(ms(10)).is_none());
        assert_eq!(tcp.steady_rate(ms(10)), tcp.window_rate(ms(10)));
    }

    #[test]
    fn lossy_path_is_mathis_bound() {
        let tcp = TcpParams::new(8 * 1024 * 1024, 0.005);
        let steady = tcp.steady_rate(ms(20));
        let mathis = tcp.mathis_rate(ms(20)).unwrap();
        assert_eq!(steady, mathis);
        // MSS 1460 B, RTT 20 ms, p=0.005: ~10.1 Mbps.
        assert!(
            (mathis.as_mbps() - 10.11).abs() < 0.1,
            "{}",
            mathis.as_mbps()
        );
    }

    #[test]
    fn higher_loss_means_lower_rate() {
        let low = TcpParams::new(1 << 22, 0.001).steady_rate(ms(20));
        let high = TcpParams::new(1 << 22, 0.01).steady_rate(ms(20));
        assert!(low > high);
    }

    #[test]
    fn startup_penalty_positive_and_bounded() {
        let tcp = TcpParams::default();
        let rtt = ms(20);
        let rate = tcp.steady_rate(rtt);
        let pen = tcp.startup_penalty(rtt, rate);
        assert!(pen > SimDuration::ZERO);
        // Ramp takes log2(262144/2920) ≈ 6.5 → 7 rounds = 140 ms; penalty is
        // below the full ramp time.
        assert!(pen < ms(140));
    }

    #[test]
    fn startup_penalty_zero_for_zero_rtt() {
        let tcp = TcpParams::default();
        assert_eq!(
            tcp.startup_penalty(SimDuration::ZERO, Bandwidth::from_mbps(100.0)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn startup_penalty_grows_with_rtt() {
        let tcp = TcpParams::default();
        let p1 = tcp.startup_penalty_on(ms(5));
        let p2 = tcp.startup_penalty_on(ms(50));
        assert!(p2 > p1);
    }

    #[test]
    #[should_panic(expected = "loss rate")]
    fn invalid_loss_rejected() {
        let _ = TcpParams::new(64 * 1024, 1.5);
    }
}
