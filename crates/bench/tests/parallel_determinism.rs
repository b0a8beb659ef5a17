//! The run plan's contract, end to end: a report's text depends only on
//! what it reports, never on how its runs are scheduled. Fanning the
//! independent runs over worker threads, sharding cells over engine
//! partitions, or simply running again must not change a single byte.
//!
//! `now-sim::parallel::run_indexed` promises input-order results, the
//! Monte-Carlo estimators promise per-trial seed splitting, and the
//! partitioned engine promises serial-identical histories; these tests
//! check the promises where they matter — the rendered tables the
//! `repro` binary ships.

mod common;

use common::{assert_schedule_free, smoke, SCHEDULES};
use now_bench::Report;

#[test]
fn contention_table_is_byte_identical_across_jobs() {
    // One cell, then two cells: partitions shard only multi-cell runs.
    for nodes in [32, 64] {
        assert_schedule_free("contention", now_bench::contention, nodes, &SCHEDULES);
    }
}

#[test]
fn availability_report_is_byte_identical_across_jobs() {
    assert_schedule_free("availability", now_bench::availability, 32, &SCHEDULES);
}

#[test]
fn blame_tables_are_byte_identical_across_jobs() {
    // Causal logs are per run, so blame parallelises; the full observed
    // report (table + blame appendix) must still match the serial one.
    let blamed = |jobs, nodes, partitions| {
        now_bench::contention(&Report {
            blame: true,
            ..smoke(jobs, nodes, partitions)
        })
        .text
    };
    let serial = blamed(1, 32, 1);
    assert_eq!(serial, blamed(8, 32, 1));
    assert!(
        serial.contains("Blame - job makespan"),
        "blame appendix missing:\n{serial}"
    );
    // Two cells: the partitions share one causal log, each writing its
    // own offset id range, and the blame tables must not notice.
    let two_cells = blamed(1, 64, 1);
    for partitions in [2u32, 4] {
        assert_eq!(
            two_cells,
            blamed(1, 64, partitions),
            "blame tables diverged at partitions={partitions}"
        );
    }
}

#[test]
fn batched_contention_is_byte_identical_across_jobs_and_partitions() {
    // Batching state is per cell-fabric, so neither the fan-out worker
    // count nor the partition count may leak into a batched report. At
    // 64 nodes the run has two cells, so partitions > 1 really shard it.
    let batched = |jobs, partitions| {
        now_bench::contention(&Report {
            am_batch_us: 8,
            ..smoke(jobs, 64, partitions)
        })
        .text
    };
    let serial = batched(1, 1);
    for jobs in [2usize, 8] {
        assert_eq!(
            serial,
            batched(jobs, 1),
            "batched contention diverged at jobs={jobs}"
        );
    }
    for partitions in [2u32, 4] {
        assert_eq!(
            serial,
            batched(1, partitions),
            "batched contention diverged at partitions={partitions}"
        );
    }
}

#[test]
fn contention_series_matches_across_jobs() {
    let serial = now_bench::contention_series(&[0, 4], 1);
    let parallel = now_bench::contention_series(&[0, 4], 8);
    assert_eq!(serial, parallel);
}

#[test]
fn ablations_are_byte_identical_across_jobs() {
    let serial = now_bench::ablations::all(1);
    assert_eq!(serial, now_bench::ablations::all(8));
}

#[test]
fn enabled_probe_sees_identical_counts_whatever_jobs_asked() {
    // With a shared enabled probe the fan-out is forced serial, so the
    // registry snapshot — not just the table — is reproducible.
    use now_probe::Registry;
    let snap = |jobs: usize| {
        let registry = Registry::new();
        let text = now_bench::contention(&Report {
            probe: registry.probe(),
            ..smoke(jobs, 32, 1)
        })
        .text;
        (text, registry.snapshot().counters)
    };
    assert_eq!(snap(1), snap(8));
}
