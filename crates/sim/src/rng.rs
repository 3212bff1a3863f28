//! Deterministic pseudo-random number generation.
//!
//! A hand-rolled **xoshiro256\*\*** generator seeded through SplitMix64.
//! We implement it locally (rather than pulling `rand`) so that the random
//! stream — and therefore every simulation result in EXPERIMENTS.md — can
//! never change underneath us with a dependency upgrade. The algorithm is
//! public domain (Blackman & Vigna, 2018).

/// Deterministic PRNG (xoshiro256**) with convenience samplers.
///
/// The generator counts how many raw 64-bit values it has produced
/// (`draws`), so tests can prove that a code path consumed *zero*
/// randomness — the contract the fault-injection fast paths rely on.
#[derive(Clone, Debug)]
pub struct Rng {
    s: [u64; 4],
    draws: u64,
}

impl Rng {
    /// Create a generator from a 64-bit seed.
    ///
    /// The full 256-bit state is expanded from the seed with SplitMix64,
    /// per the xoshiro authors' recommendation, so nearby seeds give
    /// uncorrelated streams.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        let mut next = || {
            sm = sm.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = sm;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let s = [next(), next(), next(), next()];
        Rng { s, draws: 0 }
    }

    /// How many raw 64-bit values this generator has produced. Every
    /// sampler ultimately calls [`Rng::next_u64`], so a `draws()` delta of
    /// zero proves a code path consulted no randomness at all.
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// Next raw 64 bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.draws += 1;
        let result = self.s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform float in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)`.
    ///
    /// Uses Lemire's multiply-shift with rejection, so the distribution is
    /// exactly uniform. Panics if `bound == 0`.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0) is meaningless");
        // Lemire 2019: unbiased bounded generation.
        let mut x = self.next_u64();
        let mut m = (x as u128) * (bound as u128);
        let mut l = m as u64;
        if l < bound {
            let t = bound.wrapping_neg() % bound;
            while l < t {
                x = self.next_u64();
                m = (x as u128) * (bound as u128);
                l = m as u64;
            }
        }
        (m >> 64) as u64
    }

    /// Uniform integer in the inclusive range `[lo, hi]`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(lo <= hi, "empty range");
        if lo == 0 && hi == u64::MAX {
            return self.next_u64();
        }
        lo + self.below(hi - lo + 1)
    }

    /// Bernoulli trial: `true` with probability `p` (clamped to `[0,1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.f64() < p
        }
    }

    /// Sample a geometric "number of successes before failure"-style gap:
    /// the number of Bernoulli(p) trials *until and including* the first
    /// success, i.e. a value in `1..`. Used to skip ahead over bit positions
    /// when injecting rare bit errors instead of rolling per bit.
    ///
    /// For `p` very small this is exponentially faster than per-trial
    /// sampling and produces the same distribution.
    #[inline]
    pub fn geometric(&mut self, p: f64) -> u64 {
        assert!(p > 0.0 && p <= 1.0, "geometric needs p in (0,1]");
        if p >= 1.0 {
            return 1;
        }
        let u = self.f64().max(f64::MIN_POSITIVE); // avoid ln(0)
        let g = (u.ln() / (1.0 - p).ln()).floor() as u64;
        g + 1
    }

    /// Shuffle a slice in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            xs.swap(i, j);
        }
    }
}

/// A Zipf(s) sampler over ranks `0..n`: rank `k` is drawn with
/// probability proportional to `1 / (k+1)^s`.
///
/// This is the canonical "few hot connections, a long cold tail"
/// arrival mix — the shape real VC populations have, and the worst case
/// for a connection table's cache behaviour (the hot set thrashes one
/// probe neighbourhood while the tail keeps the table big). The CDF is
/// precomputed and normalized at construction; each sample costs
/// exactly one [`Rng::next_u64`] draw plus a binary search, so the draw
/// accounting stays exact and the stream is reproducible regardless of
/// how many samples a worker takes.
#[derive(Clone, Debug)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// A sampler over `n` ranks with exponent `s`.
    ///
    /// # Panics
    /// If `n == 0` or `s` is not finite.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf over zero ranks is meaningless");
        assert!(s.is_finite(), "Zipf exponent must be finite");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draw one rank in `0..n` (rank 0 is the hottest).
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_seed() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let x = r.f64();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn below_is_bounded_and_covers() {
        let mut r = Rng::new(9);
        let mut seen = [false; 10];
        for _ in 0..10_000 {
            let x = r.below(10) as usize;
            assert!(x < 10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn range_inclusive() {
        let mut r = Rng::new(11);
        for _ in 0..1000 {
            let x = r.range(5, 7);
            assert!((5..=7).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut r = Rng::new(13);
        assert!(!r.chance(0.0));
        assert!(r.chance(1.0));
    }

    #[test]
    fn chance_extremes_draw_nothing() {
        let mut r = Rng::new(13);
        r.chance(0.0);
        r.chance(1.0);
        r.chance(-3.0);
        assert_eq!(r.draws(), 0, "degenerate Bernoulli must be free");
        r.chance(0.5);
        assert_eq!(r.draws(), 1);
    }

    #[test]
    fn draws_counts_every_sampler() {
        let mut r = Rng::new(99);
        assert_eq!(r.draws(), 0);
        r.next_u64();
        r.f64();
        assert_eq!(r.draws(), 2);
        let before = r.draws();
        r.geometric(0.01);
        assert_eq!(r.draws(), before + 1);
    }

    #[test]
    fn chance_frequency_close() {
        let mut r = Rng::new(17);
        let n = 100_000;
        let hits = (0..n).filter(|_| r.chance(0.25)).count() as f64;
        let freq = hits / n as f64;
        assert!((freq - 0.25).abs() < 0.01, "freq={freq}");
    }

    #[test]
    fn geometric_mean_close() {
        let mut r = Rng::new(19);
        let p = 0.01;
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.geometric(p) as f64).sum::<f64>() / n as f64;
        // Mean of this geometric is 1/p = 100.
        assert!((mean - 100.0).abs() < 5.0, "mean={mean}");
    }

    #[test]
    fn geometric_p1_is_always_1() {
        let mut r = Rng::new(23);
        for _ in 0..100 {
            assert_eq!(r.geometric(1.0), 1);
        }
    }

    #[test]
    fn zipf_is_bounded_head_heavy_and_single_draw() {
        let z = Zipf::new(1000, 1.1);
        let mut r = Rng::new(37);
        let n = 50_000;
        let mut counts = vec![0u64; 1000];
        let before = r.draws();
        for _ in 0..n {
            counts[z.sample(&mut r)] += 1;
        }
        assert_eq!(r.draws() - before, n, "exactly one draw per sample");
        // Rank 0 dominates rank 1 dominates the deep tail.
        assert!(counts[0] > counts[1]);
        assert!(counts[0] > 20 * counts[500].max(1));
        // Every sample was in range (counts indexing would have panicked
        // otherwise) and the head carries a Zipf-like share.
        let head: u64 = counts[..10].iter().sum();
        assert!(head as f64 / n as f64 > 0.4, "head share {head}");
    }

    #[test]
    fn zipf_deterministic_for_seed() {
        let z = Zipf::new(257, 0.9);
        let mut a = Rng::new(41);
        let mut b = Rng::new(41);
        for _ in 0..1000 {
            assert_eq!(z.sample(&mut a), z.sample(&mut b));
        }
    }

    #[test]
    fn zipf_n1_always_rank_zero() {
        let z = Zipf::new(1, 1.0);
        let mut r = Rng::new(43);
        for _ in 0..100 {
            assert_eq!(z.sample(&mut r), 0);
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(31);
        let mut v: Vec<u32> = (0..100).collect();
        r.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(v, (0..100).collect::<Vec<_>>(), "astronomically unlikely");
    }
}
