//! Windowed utilization time-series: busy time per fixed window.
//!
//! The profiler charges `(start, duration)` intervals; this accumulator
//! splits each interval across fixed-width windows so a resource's
//! utilization can be inspected *over time* — a run that is 60% busy on
//! average may still contain saturated windows, and it is the saturated
//! window (the high watermark) that names the bottleneck under burst.

use hni_sim::{Duration, Time};

/// Busy time accumulated per fixed-width window of simulated time.
///
/// Window `i` covers `[i·window, (i+1)·window)`. Charges may arrive in
/// any order and may span window boundaries; each is split exactly.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    window: Duration,
    buckets: Vec<Duration>,
}

impl TimeSeries {
    /// An empty series with the given window width (must be non-zero).
    pub fn new(window: Duration) -> Self {
        assert!(window > Duration::ZERO, "window must be non-zero");
        TimeSeries {
            window,
            buckets: Vec::new(),
        }
    }

    /// Charge `dur` of busy time starting at `from`, splitting across
    /// window boundaries.
    pub fn charge(&mut self, from: Time, dur: Duration) {
        if dur == Duration::ZERO {
            return;
        }
        let w = self.window.as_ps();
        let mut at = from.as_ps();
        let mut remaining = dur.as_ps();
        while remaining > 0 {
            let idx = (at / w) as usize;
            if idx >= self.buckets.len() {
                self.buckets.resize(idx + 1, Duration::ZERO);
            }
            let window_end = (idx as u64 + 1) * w;
            let take = remaining.min(window_end - at);
            self.buckets[idx] += Duration::from_ps(take);
            at += take;
            remaining -= take;
        }
    }

    /// Number of windows touched so far (trailing idle windows included
    /// only up to the last charge).
    pub fn len(&self) -> usize {
        self.buckets.len()
    }

    /// Whether nothing has been charged.
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Busy time in window `i` (zero past the end).
    pub fn busy(&self, i: usize) -> Duration {
        self.buckets.get(i).copied().unwrap_or(Duration::ZERO)
    }

    /// Utilization of window `i` — busy time over the window width.
    pub fn utilization(&self, i: usize) -> f64 {
        self.busy(i).as_s_f64() / self.window.as_s_f64()
    }

    /// The busiest window: `(index, utilization)`. `None` if empty.
    /// Ties resolve to the earliest window (deterministic).
    pub fn high_watermark(&self) -> Option<(usize, f64)> {
        let (mut best, mut best_busy) = (None, Duration::ZERO);
        for (i, &b) in self.buckets.iter().enumerate() {
            if b > best_busy {
                best = Some(i);
                best_busy = b;
            }
        }
        best.map(|i| (i, self.utilization(i)))
    }

    /// Total busy time across all windows.
    pub fn total(&self) -> Duration {
        self.buckets.iter().copied().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> Duration {
        Duration::from_us(n)
    }

    #[test]
    fn charge_within_one_window() {
        let mut ts = TimeSeries::new(us(10));
        ts.charge(Time::from_us(2), us(3));
        assert_eq!(ts.len(), 1);
        assert_eq!(ts.busy(0), us(3));
        assert!((ts.utilization(0) - 0.3).abs() < 1e-12);
    }

    #[test]
    fn charge_splits_across_boundaries() {
        let mut ts = TimeSeries::new(us(10));
        // 25 µs starting at 8 µs: 2 into window 0, 10 into 1, 10 into 2,
        // 3 into 3.
        ts.charge(Time::from_us(8), us(25));
        assert_eq!(ts.busy(0), us(2));
        assert_eq!(ts.busy(1), us(10));
        assert_eq!(ts.busy(2), us(10));
        assert_eq!(ts.busy(3), us(3));
        assert_eq!(ts.total(), us(25));
    }

    #[test]
    fn high_watermark_finds_the_saturated_window() {
        let mut ts = TimeSeries::new(us(10));
        ts.charge(Time::ZERO, us(4));
        ts.charge(Time::from_us(10), us(10)); // window 1 fully busy
        ts.charge(Time::from_us(25), us(2));
        let (i, u) = ts.high_watermark().unwrap();
        assert_eq!(i, 1);
        assert!((u - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_series() {
        let ts = TimeSeries::new(us(10));
        assert!(ts.is_empty());
        assert_eq!(ts.high_watermark(), None);
        assert_eq!(ts.busy(7), Duration::ZERO);
        assert_eq!(ts.total(), Duration::ZERO);
    }

    #[test]
    fn zero_duration_charge_is_ignored() {
        let mut ts = TimeSeries::new(us(10));
        ts.charge(Time::from_us(99), Duration::ZERO);
        assert!(ts.is_empty());
    }

    #[test]
    fn out_of_order_charges_accumulate() {
        let mut ts = TimeSeries::new(us(10));
        ts.charge(Time::from_us(30), us(5));
        ts.charge(Time::ZERO, us(5));
        assert_eq!(ts.busy(0), us(5));
        assert_eq!(ts.busy(3), us(5));
        assert_eq!(ts.total(), us(10));
    }
}
