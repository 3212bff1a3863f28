//! Statistics collectors for simulations.
//!
//! Everything here is O(1) per sample and fixed-size, so instrumentation
//! never changes the asymptotics of a simulation. The collectors:
//!
//! * [`Summary`] — running min/max/mean/variance (Welford).
//! * [`Histogram`] — log₂-bucketed latency histogram with quantile queries.
//! * [`OccupancyTracker`] — time-weighted queue-occupancy statistics
//!   (mean and peak), the quantity FIFO-sizing decisions are made from.

use crate::time::{Duration, Time};
use core::fmt;

/// Running min / max / mean / variance over `f64` samples (Welford's
/// single-pass algorithm, numerically stable).
#[derive(Clone, Debug)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Summary {
    fn default() -> Self {
        // NOT derived: min/max must start at ±∞, not 0, or the first
        // sample would never register as an extreme.
        Self::new()
    }
}

impl Summary {
    /// New empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record a sample.
    #[inline]
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        if x < self.min {
            self.min = x;
        }
        if x > self.max {
            self.max = x;
        }
    }

    /// Record a duration sample in microseconds (the unit the paper's
    /// delay analysis reports).
    #[inline]
    pub fn record_us(&mut self, d: Duration) {
        self.record(d.as_us_f64());
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.n
    }
    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }
    /// Population variance (0 if fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / self.n as f64
        }
    }
    /// Population standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }
    /// Smallest sample (0 if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.min
        }
    }
    /// Largest sample (0 if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// Number of log₂ buckets in [`Histogram`]: values 0..2⁶³ are covered.
pub const HIST_BUCKETS: usize = 64;

/// Log₂-bucketed histogram of `u64` samples (typically picoseconds).
///
/// Bucket `i` holds samples whose value `v` satisfies `⌊log₂ v⌋ == i`
/// (bucket 0 additionally holds `v == 0`). Quantile queries return the
/// upper bound of the bucket containing the requested rank, i.e. they are
/// exact to within a factor of 2 — adequate for the order-of-magnitude
/// latency-tail questions the experiments ask, at constant memory.
#[derive(Clone)]
pub struct Histogram {
    buckets: [u64; HIST_BUCKETS],
    count: u64,
    sum: u128,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    #[inline]
    fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            63 - v.leading_zeros() as usize
        }
    }

    /// Record a sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.buckets[Self::bucket_of(v)] += 1;
        self.count += 1;
        self.sum += v as u128;
        if v > self.max {
            self.max = v;
        }
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact arithmetic mean of samples (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Largest sample ever recorded, exactly (0 if empty). The one tail
    /// statistic log₂ bucketing cannot bound from above is tracked
    /// outside the buckets, so `max` carries no quantization error.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Sum of all samples, exactly.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// The raw log₂ bucket counts (`buckets[i]` holds samples with
    /// `⌊log₂ v⌋ == i`; bucket 0 also holds `v == 0`). Exposed for
    /// mergeable exports (Prometheus cumulative buckets).
    pub fn bucket_counts(&self) -> &[u64; HIST_BUCKETS] {
        &self.buckets
    }

    /// Upper bound (inclusive) of bucket `i`: the largest value that
    /// lands in it.
    pub fn bucket_upper_bound(i: usize) -> u64 {
        if i >= 63 {
            u64::MAX
        } else {
            (2u64 << i) - 1
        }
    }

    /// Fold another histogram into this one. Bucket-wise addition —
    /// merging the shards of a parallel run is exact (the merged
    /// histogram equals the histogram of the concatenated samples).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum += other.sum;
        if other.max > self.max {
            self.max = other.max;
        }
    }

    /// Upper bound of the bucket containing the `q`-quantile sample
    /// (`q` in `[0,1]`). Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        // clamp() propagates NaN; treat a NaN quantile as 0 explicitly.
        let q = if q.is_nan() { 0.0 } else { q.clamp(0.0, 1.0) };
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::bucket_upper_bound(i);
            }
        }
        u64::MAX
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Histogram {{ n: {}, mean: {:.1}, p50≤{}, p99≤{} }}",
            self.count,
            self.mean(),
            self.quantile(0.5),
            self.quantile(0.99)
        )
    }
}

/// Time-weighted occupancy statistics for a queue or buffer pool.
///
/// Feed it every occupancy change; it integrates occupancy over time to
/// give the true time-average, plus the peak — the two numbers buffer
/// sizing is done from.
///
/// Timestamps are expected to be non-decreasing. An out-of-order sample
/// is **clamped**, not honored retroactively: the level and peak update
/// immediately, the interval contributes zero area (`saturating_since`
/// yields zero), and the tracker's clock does *not* rewind — later
/// in-order samples keep integrating from the latest time ever seen.
/// For monotonic inputs the behavior is unchanged.
#[derive(Clone, Debug, Default)]
pub struct OccupancyTracker {
    current: u64,
    peak: u64,
    weighted_area: u128, // Σ occupancy · dt(ps)
    last_change: Time,
    started: bool,
}

impl OccupancyTracker {
    /// New tracker at occupancy 0.
    pub fn new() -> Self {
        Self::default()
    }

    fn integrate(&mut self, now: Time) {
        if self.started {
            let dt = now.saturating_since(self.last_change).as_ps();
            self.weighted_area += self.current as u128 * dt as u128;
            // Clamp, don't rewind: an out-of-order `now` must not drag
            // the clock backwards, or the next in-order sample would
            // double-integrate the interval it re-crosses.
            if now > self.last_change {
                self.last_change = now;
            }
        } else {
            self.started = true;
            self.last_change = now;
        }
    }

    /// Set occupancy to an absolute value at time `now`.
    ///
    /// `now` earlier than the previous change is clamped (see the type
    /// docs): the level changes, the clock does not move back.
    pub fn set(&mut self, now: Time, occupancy: u64) {
        self.integrate(now);
        self.current = occupancy;
        if occupancy > self.peak {
            self.peak = occupancy;
        }
    }

    /// Increase occupancy by `n` at time `now`.
    pub fn add(&mut self, now: Time, n: u64) {
        let c = self.current + n;
        self.set(now, c);
    }

    /// Decrease occupancy by `n` at time `now` (saturating).
    pub fn remove(&mut self, now: Time, n: u64) {
        let c = self.current.saturating_sub(n);
        self.set(now, c);
    }

    /// Current occupancy.
    pub fn current(&self) -> u64 {
        self.current
    }
    /// Highest occupancy ever seen.
    pub fn peak(&self) -> u64 {
        self.peak
    }

    /// Time-weighted mean occupancy over `[first change, end]`.
    pub fn mean(&self, end: Time) -> f64 {
        if !self.started {
            return 0.0;
        }
        let tail = end.saturating_since(self.last_change).as_ps();
        let area = self.weighted_area + self.current as u128 * tail as u128;
        let span = end.saturating_since(Time::ZERO).as_ps();
        // Mean is over the whole simulation from t=0; a tracker that first
        // changes late simply averages in its implicit zero prefix, which
        // is the honest accounting for buffer sizing.
        if span == 0 {
            self.current as f64
        } else {
            area as f64 / span as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_moments() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.std_dev() - 2.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_default_equals_new() {
        // Regression: a derived Default once zero-initialized min/max,
        // so summaries built via `or_default()` reported min = 0 forever.
        let mut s = Summary::default();
        s.record(42.0);
        assert_eq!(s.min(), 42.0);
        assert_eq!(s.max(), 42.0);
    }

    #[test]
    fn summary_empty_is_zeroes() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.std_dev(), 0.0);
    }

    #[test]
    fn histogram_mean_exact() {
        let mut h = Histogram::new();
        for v in [10u64, 20, 30] {
            h.record(v);
        }
        assert!((h.mean() - 20.0).abs() < 1e-12);
        assert_eq!(h.count(), 3);
    }

    #[test]
    fn histogram_quantile_bounds() {
        let mut h = Histogram::new();
        for _ in 0..99 {
            h.record(100); // bucket ⌊log2 100⌋ = 6, upper bound 127
        }
        h.record(1_000_000); // bucket 19, upper bound 2^20-1
        assert_eq!(h.quantile(0.5), 127);
        assert!(h.quantile(0.999) >= 1_000_000);
        assert!(h.quantile(0.999) < 2_097_152);
    }

    #[test]
    fn histogram_zero_sample() {
        let mut h = Histogram::new();
        h.record(0);
        assert_eq!(h.quantile(1.0), 1); // bucket 0 upper bound = 1
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_max_is_exact_and_merge_is_concatenation() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut all = Histogram::new();
        for v in [3u64, 100, 999] {
            a.record(v);
            all.record(v);
        }
        for v in [0u64, 7, 1_000_000] {
            b.record(v);
            all.record(v);
        }
        assert_eq!(a.max(), 999);
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.sum(), all.sum());
        assert_eq!(a.max(), 1_000_000, "merge keeps the larger exact max");
        assert_eq!(a.bucket_counts(), all.bucket_counts());
        for q in [0.0, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), all.quantile(q), "q={q}");
        }
    }

    #[test]
    fn histogram_bucket_bounds_cover_u64() {
        assert_eq!(Histogram::bucket_upper_bound(0), 1);
        assert_eq!(Histogram::bucket_upper_bound(6), 127);
        assert_eq!(Histogram::bucket_upper_bound(63), u64::MAX);
        // Every value lands in a bucket whose bound is ≥ the value and
        // < 2× the value (the log₂ quantization error bound).
        for v in [1u64, 2, 3, 127, 128, 1 << 40, u64::MAX] {
            let mut h = Histogram::new();
            h.record(v);
            let q = h.quantile(1.0);
            assert!(q >= v, "bound below sample for {v}");
            if v > 1 && v < (1 << 62) {
                assert!(q < v.saturating_mul(2), "bound ≥ 2x for {v}");
            }
        }
    }

    #[test]
    fn histogram_empty_quantile_and_mean() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.0), 0);
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.quantile(1.0), 0);
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn histogram_quantile_pathological_q() {
        let mut h = Histogram::new();
        h.record(100);
        h.record(200_000);
        // Out-of-range and NaN quantiles clamp instead of panicking or
        // propagating NaN through the rank arithmetic.
        assert_eq!(h.quantile(-3.0), h.quantile(0.0));
        assert_eq!(h.quantile(7.5), h.quantile(1.0));
        assert_eq!(h.quantile(f64::NAN), h.quantile(0.0));
    }

    #[test]
    fn occupancy_mean_at_time_zero() {
        // span == 0: the mean degenerates to the current occupancy
        // rather than dividing by zero.
        let mut o = OccupancyTracker::new();
        o.set(Time::ZERO, 5);
        assert_eq!(o.mean(Time::ZERO), 5.0);
        // And an untouched tracker reports zero everywhere.
        let empty = OccupancyTracker::new();
        assert_eq!(empty.mean(Time::from_s(1)), 0.0);
        assert_eq!(empty.peak(), 0);
    }

    #[test]
    fn occupancy_time_weighted_mean() {
        let mut o = OccupancyTracker::new();
        o.set(Time::ZERO, 10);
        o.set(Time::from_us(1), 0);
        // 10 for 1µs, 0 for 1µs → mean 5 over 2µs.
        let mean = o.mean(Time::from_us(2));
        assert!((mean - 5.0).abs() < 1e-9, "mean={mean}");
        assert_eq!(o.peak(), 10);
    }

    #[test]
    fn occupancy_non_monotonic_set_clamps_without_rewinding() {
        let mut o = OccupancyTracker::new();
        o.set(Time::ZERO, 4);
        o.set(Time::from_us(2), 8); // area += 4 · 2µs
                                    // Out of order: level and peak update, zero retroactive area,
                                    // and the clock stays at 2 µs.
        o.set(Time::from_us(1), 100);
        assert_eq!(o.current(), 100);
        assert_eq!(o.peak(), 100);
        // In-order again: integrates 100 from 2 µs (not from 1 µs).
        o.set(Time::from_us(3), 0); // area += 100 · 1µs
        let mean = o.mean(Time::from_us(4)); // (8 + 100) / 4
        assert!((mean - 27.0).abs() < 1e-9, "mean={mean}");
    }

    #[test]
    fn occupancy_repeated_timestamp_is_fine() {
        // Equal timestamps are the degenerate in-order case: zero-width
        // intervals, last write wins on the level.
        let mut o = OccupancyTracker::new();
        o.set(Time::from_us(1), 3);
        o.set(Time::from_us(1), 7);
        o.set(Time::from_us(1), 2);
        assert_eq!(o.current(), 2);
        assert_eq!(o.peak(), 7);
        let mean = o.mean(Time::from_us(2)); // 2 for 1µs over a 2µs span
        assert!((mean - 1.0).abs() < 1e-9, "mean={mean}");
    }

    #[test]
    fn occupancy_add_remove() {
        let mut o = OccupancyTracker::new();
        o.add(Time::ZERO, 3);
        o.add(Time::from_ns(10), 2);
        o.remove(Time::from_ns(20), 4);
        assert_eq!(o.current(), 1);
        assert_eq!(o.peak(), 5);
        o.remove(Time::from_ns(30), 10);
        assert_eq!(o.current(), 0, "saturates at zero");
    }
}
