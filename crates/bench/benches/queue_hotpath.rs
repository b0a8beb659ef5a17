//! Hot-path cost of the [`EventQueue`] itself: schedule/pop churn and
//! cancel-heavy churn.
//!
//! The queue used to track pending events in a `HashSet<u64>`, paying a
//! SipHash per schedule, per cancel, and per pop; it now uses a dense
//! windowed bitset, so those are single bit operations. These two
//! workloads pin the hot path from both sides:
//!
//! * `schedule_pop_churn` — the dispatch loop every simulator runs: a
//!   standing population of events, each pop scheduling a successor.
//!   The rework must not be slower here.
//! * `cancel_heavy_churn` — the mixed-workload simulators' pattern:
//!   provisional finish events scheduled, cancelled, and rescheduled.
//!   This is where hashing and tombstone churn used to dominate, and
//!   where the bitset must be measurably faster.
//!
//! Before/after numbers for this bench live in `EXPERIMENTS.md`.

use std::hint::black_box;

use criterion::{criterion_group, criterion_main, Criterion};
use now_sim::{EventQueue, SimDuration, SimTime};

const EVENTS: u64 = 100_000;
/// Standing event population for the churn loops (events in flight at
/// once — deep enough that heap reshuffling is real work).
const POPULATION: u64 = 256;

/// Dispatch-loop shape: keep `POPULATION` events in flight; every pop
/// schedules one successor. Exercises schedule + pop with no cancels.
fn schedule_pop_churn(events: u64) -> SimTime {
    let mut q = EventQueue::new();
    for i in 0..POPULATION {
        q.schedule_at(SimTime::from_micros(i % 17 + 1), i);
    }
    let mut left = events;
    while left > 0 {
        let Some((_, n)) = q.pop() else { break };
        black_box(n);
        left -= 1;
        q.schedule_after(SimDuration::from_micros(n % 17 + 1), n + 1);
    }
    q.now()
}

/// Timer-reset shape: every pop cancels a provisional event and
/// reschedules it, so two-thirds of all heap traffic is tombstones and
/// the compaction threshold is crossed constantly.
fn cancel_heavy_churn(events: u64) -> SimTime {
    let mut q = EventQueue::new();
    let mut provisional = Vec::with_capacity(POPULATION as usize);
    for i in 0..POPULATION {
        q.schedule_at(SimTime::from_micros(i % 17 + 1), i);
        provisional.push(q.schedule_at(SimTime::from_secs(3_600), u64::MAX));
    }
    let mut left = events;
    while left > 0 {
        let Some((_, n)) = q.pop() else { break };
        if n == u64::MAX {
            continue; // a provisional timer actually fired (horizon reached)
        }
        black_box(n);
        left -= 1;
        // Reset this worker's provisional finish time: cancel + reschedule.
        let slot = (n % POPULATION) as usize;
        q.cancel(provisional[slot]);
        provisional[slot] = q.schedule_at(q.now() + SimDuration::from_secs(3_600), u64::MAX);
        q.schedule_after(SimDuration::from_micros(n % 17 + 1), n + 1);
    }
    q.now()
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("queue_hotpath");
    g.bench_function("schedule_pop_churn_100k", |b| {
        b.iter(|| schedule_pop_churn(black_box(EVENTS)))
    });
    g.bench_function("cancel_heavy_churn_100k", |b| {
        b.iter(|| cancel_heavy_churn(black_box(EVENTS)))
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
