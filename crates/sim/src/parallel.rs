//! Deterministic fan-out over independent simulation runs.
//!
//! The paper's whole argument is that a building of workstations wins by
//! exploiting embarrassing parallelism across cheap nodes; this module
//! applies the same argument to the harness itself. Every sweep point,
//! Monte-Carlo trial, and table row in the workspace is an *independent*
//! deterministic computation — each derives all of its randomness from
//! its own seed — so a work list can be fanned out across OS threads and
//! still produce output byte-identical to the serial loop:
//!
//! * [`run_indexed`] hands items to scoped worker threads but returns the
//!   results **in input order**, so any reduction the caller performs
//!   (rendering rows, summing floats) visits them exactly as the serial
//!   path would. Floating-point reductions in particular stay exact:
//!   addition order never depends on which worker finished first.
//! * Work items must not share mutable state; each worker only reads the
//!   shared slice. Determinism is then a theorem, not a hope: the value
//!   of result `i` is a pure function of `items[i]`.
//!
//! The worker count comes from the caller; this module never reads the
//! environment. `jobs = 1` is exactly the legacy serial loop — no threads
//! are spawned at all.
//!
//! # Example
//!
//! ```
//! use now_sim::parallel::run_indexed;
//!
//! let squares = run_indexed(4, &[1u64, 2, 3, 4, 5], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16, 25]);
//! ```

use std::sync::atomic::{AtomicUsize, Ordering};

/// Runs `f(i, &items[i])` for every item, fanning the work out over up to
/// `jobs` scoped threads, and returns the results **in input order**.
///
/// Items are claimed dynamically (an atomic cursor), so heterogeneous
/// item costs balance across workers; results are slotted back by index,
/// so the returned `Vec` — and any order-sensitive reduction over it —
/// is byte-identical to the serial loop regardless of `jobs` or of how
/// the OS schedules the workers. With `jobs <= 1` (or fewer than two
/// items) no threads are spawned: that *is* the legacy serial path.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f`.
pub fn run_indexed<T, R, F>(jobs: usize, items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let workers = jobs.clamp(1, items.len().max(1));
    if workers == 1 {
        return items
            .iter()
            .enumerate()
            .map(|(i, item)| f(i, item))
            .collect();
    }
    let cursor = AtomicUsize::new(0);
    let buckets: Vec<Vec<(usize, R)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut claimed = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        claimed.push((i, f(i, item)));
                    }
                    claimed
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| match handle.join() {
                Ok(results) => results,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    let mut slots: Vec<Option<R>> = Vec::with_capacity(items.len());
    slots.resize_with(items.len(), || None);
    for (i, result) in buckets.into_iter().flatten() {
        slots[i] = Some(result);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every index was claimed exactly once"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_input_order() {
        let items: Vec<u64> = (0..100).collect();
        // Make later items cheaper so workers finish out of order.
        let out = run_indexed(8, &items, |i, &x| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x * 10
        });
        assert_eq!(out, (0..100).map(|x| x * 10).collect::<Vec<_>>());
    }

    #[test]
    fn output_is_independent_of_job_count() {
        let items: Vec<u64> = (0..257).collect();
        let f = |i: usize, x: &u64| -> f64 { (*x as f64).sqrt() + i as f64 };
        let serial = run_indexed(1, &items, f);
        for jobs in [2, 3, 8, 64] {
            assert_eq!(serial, run_indexed(jobs, &items, f), "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_single_item_lists_work() {
        let none: Vec<i32> = run_indexed(8, &[], |_, x: &i32| *x);
        assert!(none.is_empty());
        assert_eq!(run_indexed(8, &[7], |_, x| x + 1), vec![8]);
    }

    #[test]
    fn zero_jobs_is_treated_as_serial() {
        assert_eq!(run_indexed(0, &[1, 2, 3], |_, x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        run_indexed(4, &[1, 2, 3, 4, 5, 6, 7, 8], |i, _: &i32| {
            if i == 5 {
                panic!("boom");
            }
            i
        });
    }
}
