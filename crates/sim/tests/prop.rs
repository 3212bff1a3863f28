//! Property-based tests for the simulation kernel.

use hni_sim::{Duration, EventQueue, Histogram, OccupancyTracker, Rng, Summary, Time};
use proptest::prelude::*;

proptest! {
    /// The event queue delivers in non-decreasing time order, FIFO
    /// within equal timestamps, for any schedule.
    #[test]
    fn event_queue_total_order(times in proptest::collection::vec(0u64..1000, 1..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(Time::from_ns(t), (t, i));
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((at, (t, i))) = q.pop() {
            prop_assert_eq!(at, Time::from_ns(t));
            if let Some((lt, li)) = last {
                prop_assert!(t > lt || (t == lt && i > li), "order violated");
            }
            last = Some((t, i));
        }
        prop_assert_eq!(q.delivered(), times.len() as u64);
    }

    /// Histogram quantiles bracket the true values within the log₂
    /// bucket guarantee, and the mean is exact.
    #[test]
    fn histogram_bounds(samples in proptest::collection::vec(1u64..1_000_000, 1..500)) {
        let mut h = Histogram::new();
        for &s in &samples {
            h.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let true_mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        prop_assert!((h.mean() - true_mean).abs() < 1e-6);
        for q in [0.0, 0.5, 0.9, 1.0] {
            let est = h.quantile(q);
            let rank = ((q * samples.len() as f64).ceil() as usize).clamp(1, samples.len());
            let truth = sorted[rank - 1];
            prop_assert!(est >= truth, "quantile {q}: est {est} < truth {truth}");
            prop_assert!(est < truth.saturating_mul(2).max(2), "quantile {q}: est {est} ≥ 2×{truth}");
        }
    }

    /// Summary mean/min/max agree with naïve computation.
    #[test]
    fn summary_matches_naive(xs in proptest::collection::vec(-1e6f64..1e6, 1..300)) {
        let mut s = Summary::new();
        for &x in &xs {
            s.record(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        prop_assert!((s.mean() - mean).abs() < 1e-6 * (1.0 + mean.abs()));
        prop_assert_eq!(s.min(), xs.iter().cloned().fold(f64::INFINITY, f64::min));
        prop_assert_eq!(s.max(), xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max));
    }

    /// Occupancy tracker's time-weighted mean equals a direct integral.
    #[test]
    fn occupancy_matches_integral(levels in proptest::collection::vec((0u64..100, 1u64..1000), 1..50)) {
        let mut o = OccupancyTracker::new();
        let mut t = Time::ZERO;
        let mut area = 0u128;
        for &(level, dwell_ns) in &levels {
            o.set(t, level);
            area += level as u128 * (dwell_ns as u128 * 1000);
            t += Duration::from_ns(dwell_ns);
        }
        o.set(t, 0);
        let mean = o.mean(t);
        let expected = area as f64 / t.as_ps() as f64;
        prop_assert!((mean - expected).abs() < 1e-9 * (1.0 + expected), "{mean} vs {expected}");
    }

    /// Rng::below is always in range; forked streams never rewind.
    #[test]
    fn rng_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut r = Rng::new(seed);
        for _ in 0..100 {
            prop_assert!(r.below(bound) < bound);
        }
    }

    /// Duration::for_bits is monotone in bits and antitone in rate.
    #[test]
    fn for_bits_monotone(bits in 1u64..1_000_000, rate_mbps in 1f64..1000.0) {
        let d1 = Duration::for_bits(bits, rate_mbps * 1e6);
        let d2 = Duration::for_bits(bits + 1, rate_mbps * 1e6);
        let d3 = Duration::for_bits(bits, rate_mbps * 2e6);
        prop_assert!(d2 >= d1);
        prop_assert!(d3 <= d1);
    }
}
