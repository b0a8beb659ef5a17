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
    let smoke = Report {
        smoke: true,
        ..Report::default()
    };
    let points = now_bench::distribute_points(&smoke);
    let crossover = points
        .iter()
        .find(|(_, (reg, _), (coop, _))| coop.makespan_ms() < reg.makespan_ms())
        .map_or(0, |(f, _, _)| *f);
    assert!(
        crossover > 0,
        "cooperative fetch must win somewhere in the sweep"
    );
    let (_, (reg, _), (coop, _)) = points.last().expect("sweep is never empty");
    assert!(
        coop.makespan_ms() < reg.makespan_ms(),
        "at the largest point cooperative must be ahead: {:.3} ms vs {:.3} ms",
        coop.makespan_ms(),
        reg.makespan_ms()
    );
    assert!(
        reg.dedup_factor > 1.0,
        "catalog must dedup: {:.2}x",
        reg.dedup_factor
    );
    let report = now_bench::distribute(&smoke).text;
    assert!(
        report.contains(&format!(
            "Crossover: cooperative fetch wins from {crossover} nodes"
        )),
        "sweep and report disagree on the crossover ({crossover} nodes):\n{report}"
    );
}
