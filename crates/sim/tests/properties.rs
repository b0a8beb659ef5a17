//! Property-based tests for the simulation kernel's core invariants.

use now_sim::{EventQueue, SimDuration, SimRng, SimTime, ZipfSampler};
use proptest::prelude::*;

proptest! {
    /// Popping yields events in non-decreasing time order regardless of the
    /// insertion order.
    #[test]
    fn queue_pops_monotone(times in prop::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut last = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= last);
            last = t;
        }
    }

    /// Events scheduled at the same timestamp come out in insertion order.
    #[test]
    fn queue_equal_times_fifo(n in 1usize..300, t in 0u64..1_000) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule_at(SimTime::from_nanos(t), i);
        }
        let mut expect = 0;
        while let Some((_, i)) = q.pop() {
            prop_assert_eq!(i, expect);
            expect += 1;
        }
        prop_assert_eq!(expect, n);
    }

    /// Cancelling an arbitrary subset removes exactly that subset.
    #[test]
    fn queue_cancellation_is_exact(
        times in prop::collection::vec(0u64..10_000, 1..100),
        cancel_mask in prop::collection::vec(any::<bool>(), 1..100),
    ) {
        let mut q = EventQueue::new();
        let ids: Vec<_> = times
            .iter()
            .enumerate()
            .map(|(i, &t)| (i, q.schedule_at(SimTime::from_nanos(t), i)))
            .collect();
        let mut kept = Vec::new();
        for (i, id) in &ids {
            if cancel_mask.get(*i).copied().unwrap_or(false) {
                q.cancel(*id);
            } else {
                kept.push(*i);
            }
        }
        let mut delivered: Vec<usize> = Vec::new();
        while let Some((_, i)) = q.pop() {
            delivered.push(i);
        }
        delivered.sort_unstable();
        kept.sort_unstable();
        prop_assert_eq!(delivered, kept);
    }

    /// len() always equals the number of events that will still be delivered.
    #[test]
    fn queue_len_matches_deliveries(
        ops in prop::collection::vec((0u64..1000, any::<bool>()), 1..100)
    ) {
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for (delay, do_cancel) in &ops {
            let id = q.schedule_after(SimDuration::from_nanos(*delay + 1), ());
            ids.push(id);
            if *do_cancel {
                // Cancel a pseudo-arbitrary earlier event.
                let victim = ids[ids.len() / 2];
                q.cancel(victim);
            }
        }
        let expected = q.len();
        let mut actual = 0;
        while q.pop().is_some() {
            actual += 1;
        }
        prop_assert_eq!(actual, expected);
    }

    /// A cancel-heavy workload never holds more than twice the live events
    /// in heap storage: tombstoned entries are compacted away once they
    /// exceed half the heap (regression test for unbounded tombstone
    /// growth).
    #[test]
    fn queue_storage_bounded_under_cancellation(
        keepers in 1usize..40,
        churn in prop::collection::vec(1u64..1_000, 1..400),
    ) {
        let mut q = EventQueue::new();
        for i in 0..keepers {
            q.schedule_at(SimTime::from_secs(10_000 + i as u64), usize::MAX);
        }
        for (round, delay) in churn.iter().enumerate() {
            let id = q.schedule_after(SimDuration::from_micros(*delay), round);
            q.cancel(id);
            prop_assert!(
                q.storage_len() <= 2 * q.len().max(1),
                "round {}: storage {} exceeds twice the {} live events",
                round,
                q.storage_len(),
                q.len()
            );
        }
        prop_assert_eq!(q.len(), keepers);
    }

    /// Zipf samples are always in range and the rank-frequency curve is
    /// non-increasing (statistically) from rank 0 to the midpoint.
    #[test]
    fn zipf_in_range(n in 1usize..500, theta in 0.0f64..1.5, seed in any::<u64>()) {
        let z = ZipfSampler::new(n, theta);
        let mut rng = SimRng::new(seed);
        for _ in 0..200 {
            prop_assert!(z.sample(&mut rng) < n);
        }
    }

    /// Replays from the same seed are identical across all distributions.
    #[test]
    fn rng_replay_identical(seed in any::<u64>()) {
        let draw = |seed: u64| {
            let mut r = SimRng::new(seed);
            (
                r.gen_range(0..1_000_000),
                r.exponential(2.0),
                r.pareto(1.0, 1.2),
                r.normal(0.0, 1.0),
                r.log_uniform(1.0, 100.0),
                r.fork().gen_range(0..1_000_000),
            )
        };
        prop_assert_eq!(draw(seed), draw(seed));
    }

    /// Time arithmetic round-trips: (t + d) - t == d and (t + d) - d == t.
    #[test]
    fn time_roundtrip(t in 0u64..u64::MAX / 4, d in 0u64..u64::MAX / 4) {
        let t = SimTime::from_nanos(t);
        let d = SimDuration::from_nanos(d);
        prop_assert_eq!((t + d) - t, d);
        prop_assert_eq!((t + d) - d, t);
    }
}

proptest! {
    /// `run_indexed` returns results in input order with any worker count:
    /// byte-identical (here: bit-identical f64s) for jobs in {1, 2, 8},
    /// and identical across repeated runs at the same jobs count.
    #[test]
    fn run_indexed_output_is_worker_count_independent(
        items in prop::collection::vec(any::<u64>(), 0..300),
    ) {
        use now_sim::parallel::run_indexed;
        let f = |i: usize, x: &u64| {
            let mut rng = SimRng::new(x.wrapping_add(i as u64));
            rng.exponential(1.0) + rng.normal(0.0, 1.0)
        };
        let serial: Vec<f64> = run_indexed(1, &items, f);
        for jobs in [2usize, 8] {
            let parallel = run_indexed(jobs, &items, f);
            prop_assert_eq!(serial.len(), parallel.len());
            for (a, b) in serial.iter().zip(&parallel) {
                prop_assert_eq!(a.to_bits(), b.to_bits(), "jobs={}", jobs);
            }
        }
        let repeat = run_indexed(8, &items, f);
        for (a, b) in serial.iter().zip(&repeat) {
            prop_assert_eq!(a.to_bits(), b.to_bits(), "repeat at jobs=8");
        }
    }

    /// Under arbitrary schedule/cancel/pop interleavings, the non-mutating
    /// peek always reports the time the next pop delivers, and storage
    /// never exceeds twice the live count after a cancel.
    #[test]
    fn queue_peek_matches_pop_under_churn(
        ops in prop::collection::vec((0u8..3, 0u64..1_000), 1..300),
    ) {
        let mut q = EventQueue::new();
        let mut ids = Vec::new();
        for &(op, x) in &ops {
            match op {
                0 => ids.push(q.schedule_after(SimDuration::from_nanos(x + 1), x)),
                1 => {
                    if !ids.is_empty() && q.cancel(ids[(x as usize) % ids.len()]) {
                        // A successful cancel re-establishes the
                        // compaction bound (a stale id changes nothing).
                        prop_assert!(q.storage_len() <= 2 * q.len().max(1));
                    }
                }
                _ => {
                    let peeked = q.peek_time();
                    let popped = q.pop();
                    prop_assert_eq!(peeked, popped.map(|(t, _)| t));
                }
            }
        }
        while let Some(next) = q.peek_time() {
            let (t, _) = q.pop().expect("peeked event exists");
            prop_assert_eq!(next, t);
        }
        prop_assert!(q.is_empty());
    }
}
