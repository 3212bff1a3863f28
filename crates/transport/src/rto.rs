//! Adaptive retransmission timer: Jacobson's SRTT/RTTVAR estimator with
//! Karn's rule and capped exponential backoff.
//!
//! The estimator is the textbook recipe, in integer picoseconds:
//!
//! * first sample: `SRTT = RTT`, `RTTVAR = RTT/2`;
//! * thereafter: `RTTVAR = 3/4·RTTVAR + 1/4·|SRTT − RTT|`, then
//!   `SRTT = 7/8·SRTT + 1/8·RTT`;
//! * `RTO = clamp(SRTT + 4·RTTVAR, min, max)`, doubled per backoff
//!   step up to `2^max_backoff_exp` and never past `max`.
//!
//! **Karn's rule lives in the caller**: the estimator only ever sees
//! samples the transport took from frames transmitted exactly once
//! (`sample` must not be called for a retransmitted frame — an ack for
//! it is ambiguous about which copy it answers). What the estimator
//! owns is the other half of Karn's algorithm: the backed-off RTO is
//! *kept* for subsequent frames until an ack for a never-retransmitted
//! frame produces a fresh sample or a cumulative ack advances the
//! window ([`RtoEstimator::on_cumulative_ack`]).

use hni_sim::Duration;

/// Static retransmission-timer policy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RtoConfig {
    /// RTO used before the first RTT sample exists.
    pub initial: Duration,
    /// Floor: the RTO never drops below this (spurious-retransmit guard).
    pub min: Duration,
    /// Ceiling: backoff never pushes the RTO past this.
    pub max: Duration,
    /// Backoff exponent cap: the multiplier saturates at `2^this`.
    pub max_backoff_exp: u32,
}

impl RtoConfig {
    /// LAN-ish defaults: 10 ms initial, 200 µs floor, 4 s ceiling,
    /// backoff capped at 64× (2^6).
    pub const DEFAULT: RtoConfig = RtoConfig {
        initial: Duration::from_ms(10),
        min: Duration::from_us(200),
        max: Duration::from_s(4),
        max_backoff_exp: 6,
    };

    /// Scale the policy to a path with the given expected round-trip
    /// time: initial RTO 3× the RTT, floor at half the RTT, ceiling at
    /// 16× (but never under the defaults' floor/ceiling granularity).
    pub fn for_rtt(rtt: Duration) -> RtoConfig {
        let floor = Duration::from_us(50);
        RtoConfig {
            initial: (rtt.times(3)).max(floor),
            min: (rtt / 2).max(floor),
            max: rtt.times(16).max(Duration::from_ms(100)),
            max_backoff_exp: 6,
        }
    }
}

/// The per-connection timer state machine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RtoEstimator {
    cfg: RtoConfig,
    srtt: Option<Duration>,
    rttvar: Duration,
    backoff_exp: u32,
}

impl RtoEstimator {
    /// Fresh estimator: no samples, no backoff.
    pub fn new(cfg: RtoConfig) -> Self {
        RtoEstimator {
            cfg,
            srtt: None,
            rttvar: Duration::ZERO,
            backoff_exp: 0,
        }
    }

    /// Feed one RTT sample from a frame transmitted exactly once
    /// (Karn's rule: the caller must not sample retransmitted frames).
    /// A fresh sample also clears any accumulated backoff.
    pub fn sample(&mut self, rtt: Duration) {
        match self.srtt {
            None => {
                self.srtt = Some(rtt);
                self.rttvar = rtt / 2;
            }
            Some(srtt) => {
                let err = if srtt >= rtt { srtt - rtt } else { rtt - srtt };
                self.rttvar = (self.rttvar.times(3) + err) / 4;
                self.srtt = Some((srtt.times(7) + rtt) / 8);
            }
        }
        self.backoff_exp = 0;
    }

    /// The un-backed-off RTO: `clamp(SRTT + 4·RTTVAR, min, max)`, or
    /// `initial` (clamped) before any sample exists.
    pub fn base_rto(&self) -> Duration {
        let raw = match self.srtt {
            Some(srtt) => srtt + self.rttvar.times(4),
            None => self.cfg.initial,
        };
        raw.max(self.cfg.min).min(self.cfg.max)
    }

    /// The operative RTO, including exponential backoff, capped at
    /// `cfg.max`.
    pub fn rto(&self) -> Duration {
        let base = self.base_rto().as_ps();
        let mult = 1u64 << self.backoff_exp;
        Duration::from_ps(base.saturating_mul(mult)).min(self.cfg.max)
    }

    /// A retransmission timer fired: double the RTO (exponent saturates
    /// at `cfg.max_backoff_exp`).
    pub fn back_off(&mut self) {
        self.backoff_exp = (self.backoff_exp + 1).min(self.cfg.max_backoff_exp);
    }

    /// A cumulative ack advanced the window: progress is being made, so
    /// the backoff resets (the timer restarts from the base RTO).
    pub fn on_cumulative_ack(&mut self) {
        self.backoff_exp = 0;
    }

    /// Smoothed RTT, if any sample has been taken.
    pub fn srtt(&self) -> Option<Duration> {
        self.srtt
    }

    /// Smoothed RTT deviation.
    pub fn rttvar(&self) -> Duration {
        self.rttvar
    }

    /// Current backoff exponent (0 = no backoff).
    pub fn backoff_exp(&self) -> u32 {
        self.backoff_exp
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_sample_initialises_jacobson_state() {
        let mut est = RtoEstimator::new(RtoConfig::DEFAULT);
        assert_eq!(est.base_rto(), RtoConfig::DEFAULT.initial);
        est.sample(Duration::from_ms(4));
        assert_eq!(est.srtt(), Some(Duration::from_ms(4)));
        assert_eq!(est.rttvar(), Duration::from_ms(2));
        // SRTT + 4·RTTVAR = 4 + 8 = 12 ms.
        assert_eq!(est.base_rto(), Duration::from_ms(12));
    }

    #[test]
    fn steady_samples_tighten_the_variance() {
        let mut est = RtoEstimator::new(RtoConfig::DEFAULT);
        for _ in 0..50 {
            est.sample(Duration::from_ms(5));
        }
        assert_eq!(est.srtt(), Some(Duration::from_ms(5)));
        // With identical samples RTTVAR decays geometrically toward 0,
        // so the RTO converges on SRTT clamped to the floor.
        assert!(est.base_rto() < Duration::from_ms(6));
        assert!(est.base_rto() >= RtoConfig::DEFAULT.min);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let cfg = RtoConfig {
            initial: Duration::from_ms(10),
            min: Duration::from_ms(1),
            max: Duration::from_s(1),
            max_backoff_exp: 4,
        };
        let mut est = RtoEstimator::new(cfg);
        assert_eq!(est.rto(), Duration::from_ms(10));
        est.back_off();
        assert_eq!(est.rto(), Duration::from_ms(20));
        est.back_off();
        assert_eq!(est.rto(), Duration::from_ms(40));
        // Exponent saturates at 2^4 = 16×...
        for _ in 0..10 {
            est.back_off();
        }
        assert_eq!(est.backoff_exp(), 4);
        assert_eq!(est.rto(), Duration::from_ms(160));
        // ...and the ceiling clamps regardless of the exponent.
        let mut long = RtoEstimator::new(cfg);
        long.sample(Duration::from_ms(400));
        for _ in 0..4 {
            long.back_off();
        }
        assert_eq!(long.rto(), Duration::from_s(1));
    }

    #[test]
    fn cumulative_ack_restarts_from_base() {
        let mut est = RtoEstimator::new(RtoConfig::DEFAULT);
        est.sample(Duration::from_ms(2));
        let base = est.rto();
        est.back_off();
        est.back_off();
        assert_eq!(est.rto(), base.times(4));
        est.on_cumulative_ack();
        assert_eq!(est.backoff_exp(), 0);
        assert_eq!(est.rto(), base, "timer must restart from the base RTO");
    }

    #[test]
    fn fresh_sample_also_clears_backoff() {
        let mut est = RtoEstimator::new(RtoConfig::DEFAULT);
        est.sample(Duration::from_ms(2));
        est.back_off();
        assert_eq!(est.backoff_exp(), 1);
        est.sample(Duration::from_ms(2));
        assert_eq!(est.backoff_exp(), 0);
    }

    #[test]
    fn for_rtt_scales_with_the_path() {
        let lan = RtoConfig::for_rtt(Duration::from_us(20));
        let sat = RtoConfig::for_rtt(Duration::from_ms(560));
        assert!(lan.initial < sat.initial);
        assert!(sat.initial >= Duration::from_ms(560).times(3));
        assert!(sat.max >= sat.initial);
        assert!(lan.min >= Duration::from_us(50));
    }
}
