//! `HdrHist` — the always-on latency histogram of the telemetry plane.
//!
//! A thin percentile-oriented layer over the simulation kernel's
//! fixed-size log₂ [`Histogram`]:
//!
//! * **Fixed 64 buckets, zero-alloc.** Recording is a shift, an index
//!   and three adds; the struct is `Clone` and lives inline in run
//!   reports, so it can stay on at line rate.
//! * **Mergeable.** Bucket-wise addition is exact: merging per-shard
//!   histograms of a parallel run equals the histogram of the
//!   concatenated samples — the property that lets `par_sweep` workers
//!   each keep their own and still report one distribution.
//! * **Bounded quantization error.** A log₂ bucket's upper bound is
//!   < 2× the smallest value it holds, so any reported percentile is an
//!   upper bound within a factor of two of the true order statistic —
//!   the right trade for order-of-magnitude tail questions at O(1)
//!   memory. The `max` is tracked exactly, outside the buckets.
//!
//! The standard report is [`Pcts`]: p50/p90/p99/p999 upper bounds plus
//! the exact max — the tail profile the paper's host-interface argument
//! turns on, where a mean would hide every queueing excursion.

use core::fmt;
use hni_sim::stats::Histogram;
use hni_sim::Duration;

/// The percentile band a histogram reports: bucket upper bounds for the
/// quantiles, the exact maximum, and the exact count/mean.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pcts {
    /// Number of samples.
    pub count: u64,
    /// Exact arithmetic mean.
    pub mean: f64,
    /// Median upper bound.
    pub p50: u64,
    /// 90th-percentile upper bound.
    pub p90: u64,
    /// 99th-percentile upper bound.
    pub p99: u64,
    /// 99.9th-percentile upper bound.
    pub p999: u64,
    /// Exact largest sample.
    pub max: u64,
}

/// Fixed-size, mergeable, zero-alloc log₂ latency histogram.
#[derive(Clone, Default)]
pub struct HdrHist {
    inner: Histogram,
}

impl HdrHist {
    /// New empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a raw `u64` sample (picoseconds by convention).
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.inner.record(v);
    }

    /// Record a duration (in picoseconds).
    #[inline]
    pub fn record_duration(&mut self, d: Duration) {
        self.inner.record(d.as_ps());
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.inner.count()
    }

    /// Exact arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.inner.mean()
    }

    /// Exact largest sample (0 if empty).
    pub fn max(&self) -> u64 {
        self.inner.max()
    }

    /// Upper bound of the bucket holding the `q`-quantile sample.
    pub fn quantile(&self, q: f64) -> u64 {
        self.inner.quantile(q)
    }

    /// Fold another histogram into this one (exact, see module docs).
    pub fn merge(&mut self, other: &HdrHist) {
        self.inner.merge(&other.inner);
    }

    /// The standard percentile band.
    pub fn pcts(&self) -> Pcts {
        Pcts {
            count: self.inner.count(),
            mean: self.inner.mean(),
            p50: self.inner.quantile(0.50),
            p90: self.inner.quantile(0.90),
            p99: self.inner.quantile(0.99),
            p999: self.inner.quantile(0.999),
            max: self.inner.max(),
        }
    }

    /// The underlying kernel histogram (bucket access for exporters).
    pub fn as_histogram(&self) -> &Histogram {
        &self.inner
    }
}

impl fmt::Debug for HdrHist {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let p = self.pcts();
        write!(
            f,
            "HdrHist {{ n: {}, mean: {:.1}, p50≤{}, p90≤{}, p99≤{}, p999≤{}, max: {} }}",
            p.count, p.mean, p.p50, p.p90, p.p99, p.p999, p.max
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_band_orders_and_bounds() {
        let mut h = HdrHist::new();
        for _ in 0..900 {
            h.record(1_000); // ~µs-scale base latency
        }
        for _ in 0..90 {
            h.record(10_000);
        }
        for _ in 0..9 {
            h.record(100_000);
        }
        h.record(1_000_000);
        let p = h.pcts();
        assert_eq!(p.count, 1000);
        assert!(p.p50 >= 1_000 && p.p50 < 2_000);
        assert!(p.p90 >= 1_000, "p90={}", p.p90);
        assert!(p.p99 >= 10_000 && p.p99 < 20_000, "p99={}", p.p99);
        assert!(p.p999 >= 100_000 && p.p999 < 200_000, "p999={}", p.p999);
        assert_eq!(p.max, 1_000_000, "max is exact, not a bucket bound");
        assert!(p.p50 <= p.p90 && p.p90 <= p.p99 && p.p99 <= p.p999);
        assert!(p.p999 as f64 <= p.max as f64 * 2.0);
    }

    #[test]
    fn merge_equals_concatenation() {
        let mut a = HdrHist::new();
        let mut b = HdrHist::new();
        let mut whole = HdrHist::new();
        for v in 0..500u64 {
            a.record(v * 3);
            whole.record(v * 3);
        }
        for v in 0..500u64 {
            b.record(v * v);
            whole.record(v * v);
        }
        a.merge(&b);
        assert_eq!(a.pcts(), whole.pcts());
    }

    #[test]
    fn empty_hist_is_quiet_zeroes() {
        let h = HdrHist::new();
        let p = h.pcts();
        assert_eq!(
            (p.count, p.p50, p.p90, p.p99, p.p999, p.max),
            (0, 0, 0, 0, 0, 0)
        );
        assert_eq!(p.mean, 0.0);
    }
}
