//! # epq-pool — a minimal scoped work pool (std-only)
//!
//! The shared work-sharding substrate of the workspace: the threaded
//! counting engines (`epq-counting`), the pool-parallel relational
//! algebra (`epq-relalg`), and the batched counting API
//! (`epq_core::prepared`) all fan their jobs through this one pool.
//!
//! The container this workspace builds in is offline, so there is no
//! `rayon`; this crate provides the small slice of it those layers
//! need: run a vector of independent jobs on up to `threads` OS
//! threads and collect their results **in job order**. Workers pull
//! jobs from a shared atomic cursor (cheap work stealing), so uneven
//! shards still balance, but scheduling only ever decides *which
//! worker* runs a job — never which result slot it fills. Combined
//! with deterministic shard construction (see `epq_counting::csp` and
//! `epq_counting::brute`), parallel counts are reproducible run to run
//! and thread-count to thread-count.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The number of hardware threads available, with a floor of 1.
pub fn available_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Runs `jobs` on up to `threads` workers — the caller's thread and up
/// to `threads - 1` scoped threads — returning the results in job order.
///
/// With `threads <= 1` (or a single job) everything runs inline on the
/// caller's thread — every engine at one thread is *exactly* the
/// sequential algorithm. A panicking job propagates the panic to
/// the caller when the scope joins.
pub fn run_jobs<T, F>(threads: usize, jobs: Vec<F>) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    let workers = threads.min(n);
    if workers <= 1 {
        return jobs.into_iter().map(|job| job()).collect();
    }
    let cursor = AtomicUsize::new(0);
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let work = || loop {
        let i = cursor.fetch_add(1, Ordering::Relaxed);
        if i >= n {
            break;
        }
        let job = jobs[i]
            .lock()
            .expect("job slot poisoned")
            .take()
            .expect("job taken twice");
        let result = job();
        *slots[i].lock().expect("result slot poisoned") = Some(result);
    };
    // The caller is one of the workers: it would only wait otherwise.
    std::thread::scope(|scope| {
        for _ in 1..workers {
            scope.spawn(work);
        }
        work();
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("result slot poisoned")
                .expect("worker skipped a job")
        })
        .collect()
}

/// Splits `0..total` into at most `shards` contiguous, non-empty,
/// near-equal ranges (deterministically: the first `total % shards`
/// ranges are one longer).
pub fn split_ranges(total: u128, shards: usize) -> Vec<(u128, u128)> {
    if total == 0 || shards == 0 {
        return Vec::new();
    }
    let shards = (shards as u128).min(total);
    let base = total / shards;
    let extra = total % shards;
    let mut out = Vec::with_capacity(shards as usize);
    let mut start = 0u128;
    for i in 0..shards {
        let len = base + u128::from(i < extra);
        out.push((start, start + len));
        start += len;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_arrive_in_job_order() {
        for threads in [1usize, 2, 3, 8] {
            let jobs: Vec<_> = (0..17u64).map(|i| move || i * i).collect();
            let got = run_jobs(threads, jobs);
            let want: Vec<u64> = (0..17).map(|i| i * i).collect();
            assert_eq!(got, want, "threads = {threads}");
        }
    }

    #[test]
    fn empty_and_single_job_vectors() {
        let none: Vec<fn() -> u32> = Vec::new();
        assert!(run_jobs(4, none).is_empty());
        assert_eq!(run_jobs(4, vec![|| 7u32]), vec![7]);
    }

    #[test]
    fn uneven_jobs_still_complete() {
        // Jobs with wildly different costs: the atomic cursor hands the
        // remaining ones to whichever worker frees up first.
        let jobs: Vec<_> = (0..9u64)
            .map(|i| {
                move || {
                    let spins = if i == 0 { 200_000 } else { 10 };
                    let mut acc = 0u64;
                    for k in 0..spins {
                        acc = acc.wrapping_add(k ^ i);
                    }
                    std::hint::black_box(acc);
                    i
                }
            })
            .collect();
        assert_eq!(run_jobs(3, jobs), (0..9).collect::<Vec<u64>>());
    }

    #[test]
    fn split_ranges_partition_the_interval() {
        for (total, shards) in [(10u128, 3usize), (7, 7), (3, 8), (100, 1), (1, 2)] {
            let ranges = split_ranges(total, shards);
            assert!(ranges.len() <= shards);
            assert_eq!(ranges.first().map(|r| r.0), Some(0));
            assert_eq!(ranges.last().map(|r| r.1), Some(total));
            for w in ranges.windows(2) {
                assert_eq!(w[0].1, w[1].0, "contiguous");
                assert!(w[0].0 < w[0].1, "non-empty");
            }
        }
        assert!(split_ranges(0, 4).is_empty());
        assert!(split_ranges(5, 0).is_empty());
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }
}
