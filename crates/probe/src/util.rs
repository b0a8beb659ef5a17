//! Per-resource busy/idle utilization ledgers with windowed rollups.
//!
//! Every priced resource in the simulated NOW — a NIC, one direction of a
//! link, a swap disk, a NetRAM pool, an engine component — owns a
//! [`UtilCore`] in the registry. Producers report half-open busy intervals
//! `[start, end)` of **simulated** time; the ledger maintains an exact
//! union measure of the reported intervals, so the telescoping identity
//!
//! ```text
//! busy + idle == wall        (per resource, exactly, in nanoseconds)
//! ```
//!
//! holds by construction: `wall` is the span from run start to the end of
//! the last reported interval, `busy` is the measure of the interval
//! union, and `idle` is the difference. Overlapping reports (two packets
//! leaving one NIC at the same simulated instant) are clipped against the
//! ledger's cursor rather than double-counted, which is exact as long as
//! intervals arrive sorted by start — true for every engine-driven
//! producer, because resources are priced in event order.
//!
//! One registry often outlives several runs (a parameter sweep reuses the
//! registry across sweep points, each of which restarts simulated time at
//! zero). The registry bumps a global *epoch* at the start of each
//! observed run; a core that sees a new epoch closes the previous run's
//! wall span before accumulating into the next, so `busy` and `wall` both
//! sum across the sweep and `idle` never goes negative.
//!
//! Windowed rollups bucket busy time by offset from run start into at most
//! [`WINDOWS`] fixed-width windows. The width starts at 1 ms and doubles
//! (merging buckets pairwise) whenever a run outgrows the span, so memory
//! stays O(1) per resource while `sum(windows) == busy` remains exact.
//! The [`bottlenecks`] detector aligns every resource to the coarsest
//! width in play and names the busiest — binding — resource per window,
//! collapsing consecutive windows with the same leader into phases.

use now_sim::report::TextTable;
use std::cmp::Ordering;
use std::sync::Mutex;

/// Maximum rollup windows per resource.
pub const WINDOWS: usize = 32;

/// Initial rollup window width: 1 ms of simulated time.
const BASE_WINDOW_NS: u64 = 1_000_000;

/// The shared ledger behind one resource's [`crate::Util`] handle.
#[derive(Debug)]
pub struct UtilCore {
    state: Mutex<UtilState>,
}

#[derive(Debug)]
struct UtilState {
    /// Registry epoch the open span belongs to.
    epoch: u64,
    /// End of the latest busy interval in the current epoch (ns since the
    /// run's time zero). Runs start at `SimTime::ZERO`, so this is also
    /// the current epoch's wall span.
    cursor: u64,
    /// Wall accumulated from closed epochs (ns).
    closed_wall: u64,
    /// Exact union measure of every reported interval (ns).
    busy: u64,
    /// Intervals reported.
    intervals: u64,
    /// Nanoseconds clipped from overlapping reports.
    clipped: u64,
    /// Current rollup window width (ns); doubles as the run grows.
    window_ns: u64,
    /// Busy nanoseconds per window, keyed by offset from run start.
    /// Sweeps overlay their runs window-for-window.
    windows: [u64; WINDOWS],
}

impl Default for UtilCore {
    fn default() -> Self {
        UtilCore::new()
    }
}

impl UtilCore {
    /// A fresh, empty ledger.
    pub fn new() -> UtilCore {
        UtilCore {
            state: Mutex::new(UtilState {
                epoch: 0,
                cursor: 0,
                closed_wall: 0,
                busy: 0,
                intervals: 0,
                clipped: 0,
                window_ns: BASE_WINDOW_NS,
                windows: [0; WINDOWS],
            }),
        }
    }

    /// Reports one busy interval `[start, end)` under registry epoch
    /// `epoch`. The portion overlapping an earlier report in the same
    /// epoch is clipped, keeping `busy` an exact union measure.
    pub fn record(&self, epoch: u64, start_ns: u64, end_ns: u64) {
        let mut st = self.state.lock().expect("util poisoned");
        if epoch != st.epoch {
            // A new run began: its time axis restarts at zero, so close
            // the previous run's wall span first.
            st.closed_wall += st.cursor;
            st.cursor = 0;
            st.epoch = epoch;
        }
        st.intervals += 1;
        let len = end_ns.saturating_sub(start_ns);
        let s = start_ns.max(st.cursor);
        let e = end_ns.max(s);
        let take = e - s;
        st.clipped += len - take;
        st.busy += take;
        st.cursor = e;
        fill_windows(&mut st, s, e);
    }

    /// A point-in-time digest of this ledger.
    pub fn snapshot(&self) -> UtilSnapshot {
        let st = self.state.lock().expect("util poisoned");
        let mut windows = st.windows.to_vec();
        while windows.last() == Some(&0) {
            windows.pop();
        }
        UtilSnapshot {
            busy_ns: st.busy,
            wall_ns: st.closed_wall + st.cursor,
            intervals: st.intervals,
            clipped_ns: st.clipped,
            window_ns: st.window_ns,
            windows,
        }
    }
}

/// Buckets the busy interval `[s, e)` by offset from run start, doubling
/// the window width until the interval fits, then splitting it across
/// window boundaries so `sum(windows)` tracks `busy` exactly.
fn fill_windows(st: &mut UtilState, mut s: u64, e: u64) {
    if s == e {
        return;
    }
    while (e - 1) / st.window_ns >= WINDOWS as u64 {
        let mut merged = [0u64; WINDOWS];
        for (i, slot) in merged.iter_mut().take(WINDOWS / 2).enumerate() {
            *slot = st.windows[2 * i] + st.windows[2 * i + 1];
        }
        st.windows = merged;
        st.window_ns *= 2;
    }
    while s < e {
        let idx = (s / st.window_ns) as usize;
        let boundary = (idx as u64 + 1) * st.window_ns;
        let take = e.min(boundary);
        st.windows[idx] += take - s;
        s = take;
    }
}

/// A point-in-time digest of one resource's ledger.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UtilSnapshot {
    /// Exact union measure of reported busy intervals (ns).
    pub busy_ns: u64,
    /// Run-start-to-last-activity span, summed across epochs (ns).
    pub wall_ns: u64,
    /// Intervals reported.
    pub intervals: u64,
    /// Nanoseconds clipped from overlapping reports.
    pub clipped_ns: u64,
    /// Width of each rollup window (ns).
    pub window_ns: u64,
    /// Busy nanoseconds per window, trailing zeroes trimmed;
    /// `windows.iter().sum() == busy_ns`.
    pub windows: Vec<u64>,
}

impl UtilSnapshot {
    /// Idle time: `wall - busy`, never negative by construction.
    pub fn idle_ns(&self) -> u64 {
        self.wall_ns - self.busy_ns
    }

    /// Busy share of wall in `[0, 1]`; zero for an empty ledger.
    pub fn utilization(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.busy_ns as f64 / self.wall_ns as f64
        }
    }
}

/// One phase of the bottleneck timeline: consecutive windows in which the
/// same resource was the busiest.
#[derive(Debug, Clone, PartialEq)]
pub struct BottleneckPhase {
    /// Phase start, offset from run start (ns).
    pub start_ns: u64,
    /// Phase end, offset from run start (ns).
    pub end_ns: u64,
    /// Resource busiest across the phase's windows.
    pub leader: String,
    /// The leader's busy time within the phase (ns).
    pub busy_ns: u64,
}

/// The saturation report produced by [`bottlenecks`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Bottlenecks {
    /// Window width all resources were aligned to (ns).
    pub window_ns: u64,
    /// Per-phase leaders over the run's timeline.
    pub phases: Vec<BottleneckPhase>,
    /// The binding resource overall: largest total busy time, with its
    /// busy share of its own wall.
    pub binding: Option<(String, f64)>,
}

/// Names the binding resource per window of the run and overall.
///
/// Windows are aligned to the coarsest width in play (every width is the
/// 1 ms base times a power of two, so re-aggregation is exact); within a
/// window the resource with the most busy time leads, ties broken by name
/// order, and consecutive windows with one leader collapse into a phase.
pub fn bottlenecks(utils: &[(String, UtilSnapshot)]) -> Bottlenecks {
    let Some(window_ns) = utils.iter().map(|(_, u)| u.window_ns).max() else {
        return Bottlenecks::default();
    };
    // Re-aggregate every resource to the common width.
    let coarse: Vec<(&str, Vec<u64>)> = utils
        .iter()
        .map(|(name, u)| {
            let shift = (window_ns / u.window_ns).trailing_zeros();
            let mut w = Vec::new();
            for (i, &busy) in u.windows.iter().enumerate() {
                let j = i >> shift;
                if j >= w.len() {
                    w.resize(j + 1, 0);
                }
                w[j] += busy;
            }
            (name.as_str(), w)
        })
        .collect();
    let span = coarse.iter().map(|(_, w)| w.len()).max().unwrap_or(0);
    let mut phases: Vec<BottleneckPhase> = Vec::new();
    for win in 0..span {
        let leader = coarse
            .iter()
            .map(|(name, w)| (*name, w.get(win).copied().unwrap_or(0)))
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(a.0)))
            .filter(|&(_, busy)| busy > 0);
        let Some((name, busy)) = leader else {
            continue;
        };
        let start_ns = win as u64 * window_ns;
        let end_ns = start_ns + window_ns;
        match phases.last_mut() {
            Some(p) if p.leader == name && p.end_ns == start_ns => {
                p.end_ns = end_ns;
                p.busy_ns += busy;
            }
            _ => phases.push(BottleneckPhase {
                start_ns,
                end_ns,
                leader: name.to_string(),
                busy_ns: busy,
            }),
        }
    }
    let binding = utils
        .iter()
        .max_by(|a, b| (a.1.busy_ns.cmp(&b.1.busy_ns)).then_with(|| b.0.cmp(&a.0)))
        .filter(|(_, u)| u.busy_ns > 0)
        .map(|(name, u)| (name.clone(), u.utilization()));
    Bottlenecks {
        window_ns,
        phases,
        binding,
    }
}

/// Orders resource names the way a reader counts: runs of digits compare
/// as numbers, so `net.link.rx.4` sorts before `net.link.rx.31` (and
/// `cell2.` before `cell10.`); everything else compares as text.
fn natural_cmp(a: &str, b: &str) -> Ordering {
    let run_len = |s: &str, digits: bool| {
        s.find(|c: char| c.is_ascii_digit() != digits)
            .unwrap_or(s.len())
    };
    let (mut a, mut b) = (a, b);
    while let (Some(ca), Some(cb)) = (a.chars().next(), b.chars().next()) {
        let (da, db) = (ca.is_ascii_digit(), cb.is_ascii_digit());
        let (ha, ta) = a.split_at(run_len(a, da));
        let (hb, tb) = b.split_at(run_len(b, db));
        let order = if da && db {
            let (na, nb) = (ha.trim_start_matches('0'), hb.trim_start_matches('0'));
            na.len()
                .cmp(&nb.len())
                .then_with(|| na.cmp(nb))
                .then_with(|| ha.len().cmp(&hb.len()))
        } else {
            ha.cmp(hb)
        };
        if order != Ordering::Equal {
            return order;
        }
        (a, b) = (ta, tb);
    }
    a.len().cmp(&b.len())
}

/// Renders a utilization table: one row per resource, sorted by name with
/// numeric runs compared as numbers (see [`natural_cmp`]), with
/// busy/idle/wall in milliseconds and the busy share.
pub fn render_util_table(utils: &[(String, UtilSnapshot)]) -> String {
    let mut t = TextTable::new(&[
        "resource",
        "busy_ms",
        "idle_ms",
        "wall_ms",
        "util_%",
        "intervals",
    ]);
    t.title("Resource utilization (busy + idle = wall, per resource)");
    let mut rows: Vec<&(String, UtilSnapshot)> = utils.iter().collect();
    rows.sort_by(|(a, _), (b, _)| natural_cmp(a, b));
    for (name, u) in rows {
        t.row_owned(vec![
            name.clone(),
            fmt_ms(u.busy_ns),
            fmt_ms(u.idle_ns()),
            fmt_ms(u.wall_ns),
            format!("{:.1}", u.utilization() * 100.0),
            u.intervals.to_string(),
        ]);
    }
    t.render()
}

/// Renders the [`bottlenecks`] report: the overall binding resource, then
/// the per-phase leader timeline.
pub fn render_bottlenecks(report: &Bottlenecks) -> String {
    let mut out = String::new();
    match &report.binding {
        Some((name, share)) => out.push_str(&format!(
            "Binding resource: {name} ({:.1}% busy over its wall)\n",
            share * 100.0
        )),
        None => {
            out.push_str("Binding resource: none (no busy time recorded)\n");
            return out;
        }
    }
    let mut t = TextTable::new(&["phase_start_ms", "phase_end_ms", "leader", "leader_busy_ms"]);
    t.title(&format!(
        "Bottleneck timeline ({} ms windows)",
        report.window_ns / 1_000_000
    ));
    for p in &report.phases {
        t.row_owned(vec![
            fmt_ms(p.start_ns),
            fmt_ms(p.end_ns),
            p.leader.clone(),
            fmt_ms(p.busy_ns),
        ]);
    }
    out.push_str(&t.render());
    out
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.3}", ns as f64 / 1e6)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(core: &UtilCore) -> UtilSnapshot {
        core.snapshot()
    }

    #[test]
    fn util_table_orders_numbered_resources_numerically() {
        let utils: Vec<(String, UtilSnapshot)> = [
            "net.link.rx.31",
            "net.link.rx.4",
            "cell10.net.nic.0",
            "cell2.net.nic.0",
        ]
        .iter()
        .map(|name| (name.to_string(), snap(&UtilCore::new())))
        .collect();
        let table = render_util_table(&utils);
        let rows: Vec<&str> = table
            .lines()
            .filter_map(|line| line.split_whitespace().next())
            .filter(|first| first.contains('.'))
            .collect();
        assert_eq!(
            rows,
            [
                "cell2.net.nic.0",
                "cell10.net.nic.0",
                "net.link.rx.4",
                "net.link.rx.31"
            ],
            "{table}"
        );
        assert_eq!(natural_cmp("rx.04", "rx.4"), Ordering::Greater);
        assert_eq!(natural_cmp("rx.4", "rx.4"), Ordering::Equal);
        assert_eq!(natural_cmp("rx", "rx.1"), Ordering::Less);
    }

    #[test]
    fn empty_ledger_telescopes_trivially() {
        let u = snap(&UtilCore::new());
        assert_eq!(u.busy_ns, 0);
        assert_eq!(u.wall_ns, 0);
        assert_eq!(u.idle_ns(), 0);
        assert_eq!(u.utilization(), 0.0);
        assert!(u.windows.is_empty());
    }

    #[test]
    fn disjoint_intervals_sum_exactly() {
        let c = UtilCore::new();
        c.record(1, 1_000, 4_000);
        c.record(1, 10_000, 12_000);
        let u = snap(&c);
        assert_eq!(u.busy_ns, 5_000);
        assert_eq!(u.wall_ns, 12_000);
        assert_eq!(u.idle_ns(), 7_000);
        assert_eq!(u.clipped_ns, 0);
        assert_eq!(u.windows.iter().sum::<u64>(), u.busy_ns);
    }

    #[test]
    fn overlap_is_clipped_not_double_counted() {
        let c = UtilCore::new();
        c.record(1, 0, 1_000);
        c.record(1, 500, 2_000); // overlaps by 500 ns
        c.record(1, 500, 700); // fully contained
        let u = snap(&c);
        assert_eq!(u.busy_ns, 2_000);
        assert_eq!(u.wall_ns, 2_000);
        assert_eq!(u.clipped_ns, 500 + 200);
        assert_eq!(u.intervals, 3);
    }

    #[test]
    fn new_epoch_closes_previous_wall() {
        let c = UtilCore::new();
        c.record(1, 0, 1_000);
        c.record(1, 5_000, 6_000);
        // Next sweep point: time restarts at zero.
        c.record(2, 0, 2_000);
        let u = snap(&c);
        assert_eq!(u.busy_ns, 4_000);
        assert_eq!(u.wall_ns, 6_000 + 2_000);
        assert_eq!(u.idle_ns(), 4_000);
    }

    #[test]
    fn windows_double_and_keep_busy_sum() {
        let c = UtilCore::new();
        // First interval fits the base width; the second forces doubling.
        c.record(1, 0, 500_000);
        let before = snap(&c);
        assert_eq!(before.window_ns, 1_000_000);
        c.record(1, 63_000_000, 64_000_000);
        let u = snap(&c);
        assert!(u.window_ns > 1_000_000, "width doubled: {}", u.window_ns);
        assert_eq!(u.windows.iter().sum::<u64>(), u.busy_ns);
        assert_eq!(u.busy_ns, 1_500_000);
    }

    #[test]
    fn interval_spanning_boundaries_splits_exactly() {
        let c = UtilCore::new();
        c.record(1, 500_000, 3_500_000); // crosses 3 window boundaries
        let u = snap(&c);
        assert_eq!(u.windows, vec![500_000, 1_000_000, 1_000_000, 500_000]);
        assert_eq!(u.windows.iter().sum::<u64>(), u.busy_ns);
    }

    #[test]
    fn telescoping_holds_under_random_interval_streams() {
        // Property test with a deterministic xorshift generator: for any
        // start-sorted interval stream across several epochs,
        // busy + idle == wall and sum(windows) == busy, exactly.
        let mut seed: u64 = 0x9e3779b97f4a7c15;
        let mut rng = move || {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            seed
        };
        for case in 0..64 {
            let c = UtilCore::new();
            let mut expected_busy = 0u64;
            let mut expected_wall = 0u64;
            for epoch in 1..=1 + case % 4 {
                let mut start = 0u64;
                let mut union_end = 0u64;
                for _ in 0..(rng() % 200) {
                    start += rng() % 2_000_000;
                    let len = rng() % 5_000_000;
                    let end = start + len;
                    c.record(epoch, start, end);
                    // Track the union measure independently: intervals
                    // arrive start-sorted, so the union grows by the part
                    // past the running maximum end.
                    expected_busy += end.max(union_end) - start.max(union_end);
                    union_end = union_end.max(end);
                }
                expected_wall += union_end;
            }
            let u = snap(&c);
            assert_eq!(u.busy_ns, expected_busy, "case {case}");
            assert_eq!(u.wall_ns, expected_wall, "case {case}");
            assert_eq!(u.busy_ns + u.idle_ns(), u.wall_ns, "case {case}");
            assert_eq!(
                u.windows.iter().sum::<u64>(),
                u.busy_ns,
                "case {case}: windows must telescope too"
            );
        }
    }

    #[test]
    fn bottleneck_detector_names_leaders_and_phases() {
        let disk = UtilCore::new();
        let nic = UtilCore::new();
        // Disk dominates the first 2 ms, NIC the next 2 ms.
        disk.record(1, 0, 1_800_000);
        nic.record(1, 200_000, 1_000_000);
        nic.record(1, 2_000_000, 3_900_000);
        disk.record(1, 2_500_000, 3_000_000);
        let utils = vec![
            ("mem.disk".to_string(), disk.snapshot()),
            ("net.nic.0".to_string(), nic.snapshot()),
        ];
        let b = bottlenecks(&utils);
        assert_eq!(b.window_ns, 1_000_000);
        assert_eq!(b.phases.len(), 2);
        assert_eq!(b.phases[0].leader, "mem.disk");
        assert_eq!(b.phases[0].start_ns, 0);
        assert_eq!(b.phases[0].end_ns, 2_000_000);
        assert_eq!(b.phases[1].leader, "net.nic.0");
        assert_eq!(b.phases[1].end_ns, 4_000_000);
        // Binding resource: NIC has the most total busy time.
        let (name, _) = b.binding.as_ref().unwrap();
        assert_eq!(name, "net.nic.0");
        let text = render_bottlenecks(&b);
        assert!(text.contains("Binding resource: net.nic.0"));
        assert!(text.contains("mem.disk"));
    }

    #[test]
    fn bottleneck_detector_aligns_mixed_widths() {
        let fine = UtilCore::new();
        let coarse = UtilCore::new();
        fine.record(1, 0, 1_000_000);
        coarse.record(1, 0, 500_000);
        coarse.record(1, 40_000_000, 64_000_000); // forces doubling
        let utils = vec![
            ("fine".to_string(), fine.snapshot()),
            ("coarse".to_string(), coarse.snapshot()),
        ];
        let b = bottlenecks(&utils);
        let coarse_width = utils[1].1.window_ns;
        assert_eq!(b.window_ns, coarse_width);
        // Totals survive re-aggregation: sum of leader busy never exceeds
        // the busiest resource's total.
        assert!(b.phases.iter().all(|p| p.end_ns > p.start_ns));
        assert_eq!(b.binding.as_ref().unwrap().0, "coarse");
    }

    #[test]
    fn empty_bottlenecks_render_gracefully() {
        let b = bottlenecks(&[]);
        assert!(b.binding.is_none());
        assert!(render_bottlenecks(&b).contains("none"));
        let idle = vec![("x".to_string(), UtilCore::new().snapshot())];
        assert!(bottlenecks(&idle).binding.is_none());
    }

    #[test]
    fn util_table_renders_rows() {
        let c = UtilCore::new();
        c.record(1, 0, 2_000_000);
        c.record(1, 3_000_000, 4_000_000);
        let utils = vec![("net.link.tx.0".to_string(), c.snapshot())];
        let table = render_util_table(&utils);
        assert!(table.contains("net.link.tx.0"));
        assert!(table.contains("3.000")); // busy ms
        assert!(table.contains("75.0")); // util %
        assert!(table.contains("4.000")); // wall ms
    }
}
