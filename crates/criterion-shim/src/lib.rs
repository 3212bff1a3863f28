//! Minimal stand-in for the `criterion` bench harness.
//!
//! The workspace builds in environments with no access to a crates
//! registry, so the benches' API surface (`criterion_group!`,
//! `criterion_main!`, `Criterion::bench_function`, `benchmark_group`,
//! `sample_size`, `Bencher::iter`) is reimplemented over
//! `std::time::Instant`. Each benchmark runs a short warm-up, then
//! `sample_size` timed samples, and prints the median per-iteration
//! time. No statistics beyond that — these are smoke-timing runs, not a
//! measurement framework.

use std::time::Instant;

/// Passed to the closure of `bench_function`; drives the timed loop.
pub struct Bencher {
    samples: Vec<f64>,
    sample_size: usize,
}

impl Bencher {
    /// Time `f`, recording per-iteration nanoseconds across samples.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        // Warm-up plus iteration-count calibration: aim for ~10 ms per
        // sample, at least one iteration.
        let t0 = Instant::now();
        std::hint::black_box(f());
        let once = t0.elapsed().as_secs_f64().max(1e-9);
        let iters = ((0.01 / once) as usize).clamp(1, 1_000_000);
        for _ in 0..self.sample_size {
            let t = Instant::now();
            for _ in 0..iters {
                std::hint::black_box(f());
            }
            self.samples
                .push(t.elapsed().as_secs_f64() * 1e9 / iters as f64);
        }
    }
}

/// The harness entry point, mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {
    sample_size: Option<usize>,
}

impl Criterion {
    /// Run one benchmark and print its median time.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size.unwrap_or(20),
        };
        f(&mut b);
        report(name, &mut b.samples);
        self
    }

    /// Start a named group; the shim's groups only scope `sample_size`.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.to_string(),
            sample_size: 20,
            _parent: self,
        }
    }
}

/// A named group of benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: usize,
    _parent: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Samples per benchmark in this group.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Run one benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher {
            samples: Vec::new(),
            sample_size: self.sample_size,
        };
        f(&mut b);
        report(&format!("{}/{}", self.name, name), &mut b.samples);
        self
    }

    /// End the group (printing happens per-benchmark; nothing to flush).
    pub fn finish(&mut self) {}
}

fn report(name: &str, samples: &mut [f64]) {
    if samples.is_empty() {
        println!("bench {name}: no samples");
        return;
    }
    samples.sort_by(|a, b| a.partial_cmp(b).expect("times are finite"));
    let median = samples[samples.len() / 2];
    let (lo, hi) = (samples[0], samples[samples.len() - 1]);
    println!(
        "bench {name}: median {median:.0} ns/iter (min {lo:.0}, max {hi:.0}, n={})",
        samples.len()
    );
}

/// Re-export so `use criterion::black_box` keeps working if added later.
pub use std::hint::black_box;

/// Group benchmark functions under one callable.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($f:path),+ $(,)?) => {
        pub fn $group() {
            let mut c = $crate::Criterion::default();
            $( $f(&mut c); )+
        }
    };
    ($group:ident; $($rest:tt)*) => { compile_error!("config-form criterion_group! unsupported by shim") };
}

/// Emit `main` running the listed groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(3);
        let mut count = 0u64;
        g.bench_function("count", |b| b.iter(|| count += 1));
        g.finish();
        assert!(count > 0);
    }
}
