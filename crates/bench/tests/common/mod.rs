//! The schedule table shared by the determinism tests: render a report
//! serially, then again under each (jobs, partitions) schedule, and
//! require the same bytes every time.

// Each test crate that includes this module uses only part of it.
#![allow(dead_code)]

use now_bench::{ObservedReport, Report};

/// A report renderer, as `now_bench` exports them.
pub type Render = fn(&Report) -> ObservedReport;

/// The schedules every report is held to: workers, partitions, both, and
/// the serial schedule again, so repeated runs are checked too.
pub const SCHEDULES: [(usize, u32); 4] = [(4, 1), (1, 4), (4, 4), (1, 1)];

/// A smoke report at the given schedule.
pub fn smoke(jobs: usize, nodes: u32, partitions: u32) -> Report {
    Report {
        smoke: true,
        jobs,
        nodes,
        partitions,
        ..Report::default()
    }
}

/// Asserts that `render` at `nodes` gives the serial text under every
/// schedule in `schedules`.
pub fn assert_schedule_free(name: &str, render: Render, nodes: u32, schedules: &[(usize, u32)]) {
    let serial = render(&smoke(1, nodes, 1)).text;
    for &(jobs, partitions) in schedules {
        assert_eq!(
            serial,
            render(&smoke(jobs, nodes, partitions)).text,
            "{name} at {nodes} nodes diverged at jobs={jobs}, partitions={partitions}"
        );
    }
}
