//! Deterministic parallel sweep runner.
//!
//! Every report sweep is a grid of *independent* simulation runs — each
//! point builds its own config, workload and RNG streams from the grid
//! coordinates alone, so points share no mutable state. That makes the
//! grid embarrassingly parallel: [`par_sweep`] fans the points out over
//! a worker pool (std scoped threads, no dependencies) and reassembles
//! the results **in input order**, so the rendered report is
//! byte-identical to the serial loop no matter how many workers ran or
//! how the OS interleaved them.
//!
//! The worker count comes from the `HNI_JOBS` environment variable
//! (default: the machine's available parallelism). `HNI_JOBS=1` is the
//! serial path — it runs the closure inline on the caller's thread with
//! no pool at all, which keeps single-threaded debugging and profiling
//! honest.
//!
//! Determinism contract: `f` must derive everything from its item (and
//! captured immutable state). The runner guarantees result *order*; it
//! cannot guarantee a closure that reads wall clocks or shared counters.
//! `tests/perf_golden.rs` pins the contract by diffing whole rendered
//! reports across `HNI_JOBS=1..4`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Worker count from `HNI_JOBS`, defaulting to the machine's available
/// parallelism. Values below 1 or unparseable values fall back to 1.
pub fn jobs_from_env() -> usize {
    match std::env::var("HNI_JOBS") {
        Ok(v) => v.trim().parse::<usize>().unwrap_or(1).max(1),
        Err(_) => available_cores(),
    }
}

/// The machine's available parallelism (1 if it cannot be determined).
fn available_cores() -> usize {
    thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Map `f` over `items` with the worker count from `HNI_JOBS`,
/// returning results in input order. See [`par_sweep_with_jobs`].
pub fn par_sweep<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    par_sweep_with_jobs(jobs_from_env(), items, f)
}

/// Map `f` over `items` using up to `jobs` worker threads, returning
/// results in input order (index `i` of the output is `f(&items[i])`).
///
/// Work is handed out through a shared atomic cursor, so uneven point
/// costs balance across workers automatically. With `jobs <= 1` (or one
/// item) the closure runs inline on the caller's thread.
///
/// A panic inside `f` on any worker propagates to the caller once the
/// scope joins, exactly as the serial loop would panic.
pub fn par_sweep_with_jobs<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = jobs.min(items.len()).max(1);
    if workers == 1 {
        return items.iter().map(f).collect();
    }

    let cursor = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(items.len(), || None);
    let slots = Mutex::new(slots);

    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let r = f(&items[i]);
                slots.lock().unwrap()[i] = Some(r);
            });
        }
    });

    slots
        .into_inner()
        .unwrap()
        .into_iter()
        .map(|r| r.expect("worker completed every claimed slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..97).collect();
        for jobs in [1, 2, 3, 4, 16] {
            let got = par_sweep_with_jobs(jobs, &items, |&x| x * x);
            let want: Vec<u64> = items.iter().map(|&x| x * x).collect();
            assert_eq!(got, want, "jobs={jobs}");
        }
    }

    #[test]
    fn uneven_work_still_ordered() {
        // Make late items cheap and early items expensive so a naive
        // chunked split would finish out of order.
        let items: Vec<usize> = (0..40).collect();
        let got = par_sweep_with_jobs(4, &items, |&i| {
            let spin = (40 - i) * 1000;
            let mut acc = 0u64;
            for k in 0..spin {
                acc = acc.wrapping_add(k as u64);
            }
            (i, acc & 1)
        });
        for (idx, (i, _)) in got.iter().enumerate() {
            assert_eq!(idx, *i);
        }
    }

    #[test]
    fn empty_and_single_item_sweeps() {
        let empty: Vec<u8> = Vec::new();
        assert!(par_sweep_with_jobs(4, &empty, |&x| x).is_empty());
        assert_eq!(par_sweep_with_jobs(4, &[7u8], |&x| x + 1), vec![8]);
    }

    #[test]
    fn jobs_env_parsing() {
        // jobs_from_env reads a process-global; exercise the parsing
        // rules through a fresh helper rather than mutating the
        // environment (other tests run concurrently in this process).
        let parse = |v: &str| v.trim().parse::<usize>().unwrap_or(1).max(1);
        assert_eq!(parse("4"), 4);
        assert_eq!(parse(" 2 "), 2);
        assert_eq!(parse("0"), 1);
        assert_eq!(parse("nope"), 1);
        assert!(available_cores() >= 1);
    }
}
