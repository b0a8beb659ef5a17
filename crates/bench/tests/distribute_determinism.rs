//! The distribution report's contracts, end to end: byte-identical
//! output across repeated runs, worker counts, and partition requests;
//! blame tables that do not depend on the worker count; byte-identical
//! delivered images across strategies; and a crossover that lands inside
//! the sweep.

mod common;

use common::assert_schedule_free;
use now_bench::Report;

#[test]
fn distribute_report_is_byte_identical_across_runs_and_jobs() {
    // jobs=4 twice: the second pass checks repeated runs agree.
    let schedules = [(2, 1), (4, 1), (4, 1)];
    assert_schedule_free("distribute", now_bench::distribute, 32, &schedules);
}

#[test]
fn distribute_report_is_byte_identical_across_partitions() {
    // A distribution run is one event-coupled component and never reads
    // the partition count, so no value of it may change the report.
    let schedules = [(1, 0), (1, 4), (4, 4)];
    assert_schedule_free("distribute", now_bench::distribute, 32, &schedules);
}

#[test]
fn distribute_blame_tables_are_deterministic() {
    let blamed = |jobs| {
        now_bench::distribute(&Report {
            smoke: true,
            blame: true,
            jobs,
            ..Report::default()
        })
    };
    let a = blamed(1);
    let b = blamed(4);
    assert_eq!(a.text, b.text, "blame appendix must not depend on jobs");
    assert!(
        a.text.contains("Blame - cold-start makespan, registry"),
        "registry blame table missing:\n{}",
        a.text
    );
    assert!(
        a.text.contains("Blame - cold-start makespan, cooperative"),
        "cooperative blame table missing:\n{}",
        a.text
    );
}

#[test]
fn distribute_summary_matches_the_report_and_crosses_over() {
    let summary = now_bench::distribute_summary(true);
    assert!(
        summary.crossover_nodes > 0,
        "cooperative fetch must win somewhere in the sweep: {summary:?}"
    );
    assert!(
        summary.cooperative_ms < summary.registry_ms,
        "at the largest point cooperative must be ahead: {summary:?}"
    );
    assert!(
        summary.dedup_factor > 1.0,
        "catalog must dedup: {summary:?}"
    );
    let report = now_bench::distribute(&Report {
        smoke: true,
        ..Report::default()
    })
    .text;
    assert!(
        report.contains(&format!(
            "Crossover: cooperative fetch wins from {} nodes",
            summary.crossover_nodes
        )),
        "summary and report disagree on the crossover:\n{report}\n{summary:?}"
    );
}
