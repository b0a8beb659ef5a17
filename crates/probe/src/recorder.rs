//! The flight recorder's output: fixed-cadence gauge samples as a
//! time series, exportable to CSV and JSON.
//!
//! Scenario runs sample a fixed list of registered gauges (fabric queue
//! wait, netram fetch latency, cache hit rate, job progress, background
//! frames) every few simulated milliseconds. The samples land here as a
//! [`TimeSeries`]; [`csv_concat`] / [`json_concat`] merge the series of
//! several runs (e.g. one per background-load point) into a single
//! labelled file, or refuse with a [`ColumnMismatch`] when the runs
//! recorded different gauges.

use std::fmt;

use now_sim::SimTime;

/// Quotes one CSV field per RFC 4180: fields containing a comma, a double
/// quote, or a line break are wrapped in double quotes with embedded
/// quotes doubled; everything else passes through unchanged (so existing
/// plain labels render byte-identically).
fn csv_field(field: &str) -> String {
    if field.contains(',') || field.contains('"') || field.contains('\n') || field.contains('\r') {
        format!("\"{}\"", field.replace('"', "\"\""))
    } else {
        field.to_string()
    }
}

/// A fixed-cadence sampling of named gauges over simulated time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimeSeries {
    /// Gauge names, one per value column.
    pub columns: Vec<String>,
    /// `(sample time, one value per column)` rows in time order.
    pub rows: Vec<(SimTime, Vec<f64>)>,
}

impl TimeSeries {
    /// An empty series with the given value columns.
    pub fn new(columns: Vec<String>) -> Self {
        TimeSeries {
            columns,
            rows: Vec::new(),
        }
    }

    /// Appends one sample row.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not have one entry per column.
    pub fn push(&mut self, at: SimTime, values: Vec<f64>) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "sample width must match the column list"
        );
        self.rows.push((at, values));
    }

    /// Number of sample rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Approximate heap + inline footprint in bytes, for the
    /// `probe.observation_bytes` self-accounting gauge.
    pub fn approx_bytes(&self) -> usize {
        let names: usize = self.columns.iter().map(|c| c.capacity()).sum();
        let rows: usize = self
            .rows
            .capacity()
            .saturating_mul(std::mem::size_of::<(SimTime, Vec<f64>)>());
        let values: usize = self
            .rows
            .iter()
            .map(|(_, v)| v.capacity() * std::mem::size_of::<f64>())
            .sum();
        std::mem::size_of::<Self>() + names + rows + values
    }

    /// The series as CSV with a `t_us` time column.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_us");
        for c in &self.columns {
            out.push(',');
            out.push_str(&csv_field(c));
        }
        out.push('\n');
        for (at, values) in &self.rows {
            out.push_str(&format!("{}", at.as_micros_f64()));
            for v in values {
                out.push_str(&format!(",{v}"));
            }
            out.push('\n');
        }
        out
    }
}

/// Two series of one batch recorded different gauge columns, so they
/// cannot share one table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnMismatch {
    /// Label of the batch's first series, whose columns head the table.
    pub first: String,
    /// Label of the first series whose columns differ from it.
    pub other: String,
}

impl fmt::Display for ColumnMismatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "series {:?} records different gauge columns than series {:?}",
            self.other, self.first
        )
    }
}

impl std::error::Error for ColumnMismatch {}

/// Merges several labelled series into one CSV with a leading `series`
/// column: `series,t_us,<columns>`. Fails if the series disagree on
/// their column lists.
pub fn csv_concat(series: &[(String, TimeSeries)]) -> Result<String, ColumnMismatch> {
    let columns = common_columns(series)?;
    let mut out = String::from("series,t_us");
    for c in columns {
        out.push(',');
        out.push_str(&csv_field(c));
    }
    out.push('\n');
    for (label, ts) in series {
        let label = csv_field(label);
        for (at, values) in &ts.rows {
            out.push_str(&format!("{label},{}", at.as_micros_f64()));
            for v in values {
                out.push_str(&format!(",{v}"));
            }
            out.push('\n');
        }
    }
    Ok(out)
}

/// Merges several labelled series into one JSON document:
/// `{"columns": [...], "series": {"<label>": [{"t_us": ..., "values": [...]}]}}`.
/// Fails if the series disagree on their column lists.
pub fn json_concat(series: &[(String, TimeSeries)]) -> Result<String, ColumnMismatch> {
    let columns = common_columns(series)?;
    let mut out = String::from("{\n  \"columns\": [");
    for (i, c) in columns.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        out.push_str(&format!("{c:?}"));
    }
    out.push_str("],\n  \"series\": {");
    for (si, (label, ts)) in series.iter().enumerate() {
        if si > 0 {
            out.push(',');
        }
        out.push_str(&format!("\n    {label:?}: ["));
        for (ri, (at, values)) in ts.rows.iter().enumerate() {
            if ri > 0 {
                out.push(',');
            }
            let vals: Vec<String> = values.iter().map(|v| format!("{v}")).collect();
            out.push_str(&format!(
                "\n      {{\"t_us\": {}, \"values\": [{}]}}",
                at.as_micros_f64(),
                vals.join(", ")
            ));
        }
        out.push_str("\n    ]");
    }
    out.push_str("\n  }\n}\n");
    Ok(out)
}

/// The shared column list of a batch of series (empty batch: no columns).
fn common_columns(series: &[(String, TimeSeries)]) -> Result<&[String], ColumnMismatch> {
    let Some((first_label, first)) = series.first() else {
        return Ok(&[]);
    };
    match series.iter().find(|(_, ts)| ts.columns != first.columns) {
        Some((label, _)) => Err(ColumnMismatch {
            first: first_label.clone(),
            other: label.clone(),
        }),
        None => Ok(&first.columns),
    }
}

/// Per-column summary of one downsampled window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WindowStat {
    /// Smallest sample in the window.
    pub min: f64,
    /// Largest sample in the window.
    pub max: f64,
    /// Sum of samples (mean = `sum / samples`).
    pub sum: f64,
}

/// One time window of a [`WindowedSeries`].
#[derive(Debug, Clone, PartialEq)]
pub struct Window {
    /// Time of the earliest sample merged into this window.
    pub start: SimTime,
    /// Time of the latest sample merged into this window.
    pub end: SimTime,
    /// Raw samples merged into this window.
    pub samples: u64,
    /// One [`WindowStat`] per column.
    pub stats: Vec<WindowStat>,
}

impl Window {
    /// Mean of column `i` over this window.
    pub fn mean(&self, i: usize) -> f64 {
        self.stats[i].sum / self.samples as f64
    }
}

/// Default window budget for downsampled flight recorders: enough points
/// to plot a trend, small enough that a series is a few tens of KB.
pub const DEFAULT_WINDOW_BUDGET: usize = 256;

/// A flight-recorder series downsampled to a fixed window budget.
///
/// Unlike [`TimeSeries`], which keeps every sample (memory O(run length)),
/// a `WindowedSeries` holds at most `budget` windows no matter how long
/// the run is: when a push exceeds the budget, *adjacent windows are
/// merged pairwise*, halving the count and doubling each window's span
/// while preserving exact per-column min / max / mean. Merging is a pure
/// function of the input order, so equal runs still render byte-identical
/// output.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowedSeries {
    /// Gauge names, one per value column.
    pub columns: Vec<String>,
    /// Maximum number of windows retained.
    budget: usize,
    /// Retained windows in time order.
    pub windows: Vec<Window>,
    /// Raw samples pushed over the series' lifetime.
    pub total_samples: u64,
}

impl Default for WindowedSeries {
    fn default() -> Self {
        WindowedSeries::new(Vec::new(), DEFAULT_WINDOW_BUDGET)
    }
}

impl WindowedSeries {
    /// An empty series keeping at most `budget` windows.
    ///
    /// # Panics
    ///
    /// Panics if `budget < 2` — a single window cannot preserve trend.
    pub fn new(columns: Vec<String>, budget: usize) -> Self {
        assert!(budget >= 2, "window budget must be at least 2");
        WindowedSeries {
            columns,
            budget,
            windows: Vec::with_capacity(budget + 1),
            total_samples: 0,
        }
    }

    /// The configured window budget.
    pub fn budget(&self) -> usize {
        self.budget
    }

    /// Number of retained windows (always `<= budget`).
    pub fn len(&self) -> usize {
        self.windows.len()
    }

    /// Whether the series holds no samples.
    pub fn is_empty(&self) -> bool {
        self.windows.is_empty()
    }

    /// Appends one sample row, merging adjacent windows if the budget
    /// would be exceeded.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not have one entry per column.
    pub fn push(&mut self, at: SimTime, values: &[f64]) {
        assert_eq!(
            values.len(),
            self.columns.len(),
            "sample width must match the column list"
        );
        self.windows.push(Window {
            start: at,
            end: at,
            samples: 1,
            stats: values
                .iter()
                .map(|&v| WindowStat {
                    min: v,
                    max: v,
                    sum: v,
                })
                .collect(),
        });
        self.total_samples += 1;
        if self.windows.len() > self.budget {
            self.compact();
        }
    }

    /// Merges adjacent window pairs in place, halving the window count
    /// (an odd trailing window is kept as-is).
    fn compact(&mut self) {
        let old = std::mem::take(&mut self.windows);
        let mut iter = old.into_iter();
        while let Some(mut left) = iter.next() {
            if let Some(right) = iter.next() {
                left.end = right.end;
                left.samples += right.samples;
                for (l, r) in left.stats.iter_mut().zip(&right.stats) {
                    l.min = l.min.min(r.min);
                    l.max = l.max.max(r.max);
                    l.sum += r.sum;
                }
            }
            self.windows.push(left);
        }
    }

    /// Approximate heap + inline footprint in bytes, for the
    /// `probe.observation_bytes` self-accounting gauge.
    pub fn approx_bytes(&self) -> usize {
        let names: usize = self.columns.iter().map(|c| c.capacity()).sum();
        let windows = self.windows.capacity() * std::mem::size_of::<Window>();
        let stats: usize = self
            .windows
            .iter()
            .map(|w| w.stats.capacity() * std::mem::size_of::<WindowStat>())
            .sum();
        std::mem::size_of::<Self>() + names + windows + stats
    }

    /// The series as CSV: `t_start_us,t_end_us,samples` then
    /// `<col>.min,<col>.mean,<col>.max` per column.
    pub fn to_csv(&self) -> String {
        let mut out = String::from("t_start_us,t_end_us,samples");
        for c in &self.columns {
            for suffix in ["min", "mean", "max"] {
                out.push(',');
                out.push_str(&csv_field(&format!("{c}.{suffix}")));
            }
        }
        out.push('\n');
        for w in &self.windows {
            out.push_str(&format!(
                "{},{},{}",
                w.start.as_micros_f64(),
                w.end.as_micros_f64(),
                w.samples
            ));
            for (i, s) in w.stats.iter().enumerate() {
                out.push_str(&format!(",{},{},{}", s.min, w.mean(i), s.max));
            }
            out.push('\n');
        }
        out
    }
}

/// Merges several labelled windowed series into one CSV with a leading
/// `series` column.
///
/// # Panics
///
/// Panics if the series disagree on their column lists.
pub fn windowed_csv_concat(series: &[(String, WindowedSeries)]) -> String {
    let Some((_, first)) = series.first() else {
        return String::from("series,t_start_us,t_end_us,samples\n");
    };
    for (label, ws) in series {
        assert_eq!(
            ws.columns, first.columns,
            "series {label:?} has a different column list"
        );
    }
    let mut out = String::from("series,t_start_us,t_end_us,samples");
    for c in &first.columns {
        for suffix in ["min", "mean", "max"] {
            out.push(',');
            out.push_str(&csv_field(&format!("{c}.{suffix}")));
        }
    }
    out.push('\n');
    for (label, ws) in series {
        let label = csv_field(label);
        for w in &ws.windows {
            out.push_str(&format!(
                "{label},{},{},{}",
                w.start.as_micros_f64(),
                w.end.as_micros_f64(),
                w.samples
            ));
            for (i, s) in w.stats.iter().enumerate() {
                out.push_str(&format!(",{},{},{}", s.min, w.mean(i), s.max));
            }
            out.push('\n');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TimeSeries {
        let mut ts = TimeSeries::new(vec!["a".into(), "b".into()]);
        ts.push(SimTime::from_micros(0), vec![1.0, 2.0]);
        ts.push(SimTime::from_micros(50), vec![3.5, 4.0]);
        ts
    }

    #[test]
    fn csv_has_time_column_and_rows() {
        let csv = sample().to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "t_us,a,b");
        assert_eq!(lines[1], "0,1,2");
        assert_eq!(lines[2], "50,3.5,4");
    }

    #[test]
    #[should_panic(expected = "sample width")]
    fn width_mismatch_panics() {
        let mut ts = TimeSeries::new(vec!["a".into()]);
        ts.push(SimTime::ZERO, vec![1.0, 2.0]);
    }

    #[test]
    fn concat_labels_every_row() {
        let batch = vec![("x=0".to_string(), sample()), ("x=1".to_string(), sample())];
        let csv = csv_concat(&batch).unwrap();
        assert_eq!(csv.lines().next().unwrap(), "series,t_us,a,b");
        assert_eq!(csv.lines().filter(|l| l.starts_with("x=0,")).count(), 2);
        assert_eq!(csv.lines().filter(|l| l.starts_with("x=1,")).count(), 2);
        let json = json_concat(&batch).unwrap();
        assert!(json.contains("\"x=0\""));
        assert!(json.contains("\"t_us\": 50"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn concat_rejects_mismatched_columns() {
        let other = TimeSeries::new(vec!["z".into()]);
        let batch = [
            ("a".into(), sample()),
            ("b".into(), sample()),
            ("c".into(), other),
        ];
        let mismatch = ColumnMismatch {
            first: "a".into(),
            other: "c".into(),
        };
        assert_eq!(csv_concat(&batch), Err(mismatch.clone()));
        assert_eq!(json_concat(&batch), Err(mismatch.clone()));
        let message = mismatch.to_string();
        assert!(
            message.contains("\"a\"") && message.contains("\"c\""),
            "the error names both series: {message}"
        );
    }

    #[test]
    fn csv_escapes_labels_with_commas_and_quotes() {
        // Regression: labels containing CSV metacharacters used to be
        // emitted raw, shifting every subsequent column in the row.
        let batch = vec![(r#"pop=1,000 "full""#.to_string(), sample())];
        let csv = csv_concat(&batch).unwrap();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "series,t_us,a,b");
        assert_eq!(lines[1], r#""pop=1,000 ""full""",0,1,2"#);
        // Every data row still parses to exactly header-many fields under
        // RFC 4180 quoting.
        for line in &lines[1..] {
            let mut fields = 0usize;
            let mut in_quotes = false;
            for ch in line.chars() {
                match ch {
                    '"' => in_quotes = !in_quotes,
                    ',' if !in_quotes => fields += 1,
                    _ => {}
                }
            }
            assert_eq!(fields + 1, 4, "row must keep the header's arity: {line}");
        }
    }

    #[test]
    fn csv_escapes_column_names_too() {
        let mut ts = TimeSeries::new(vec!["latency,ms".into()]);
        ts.push(SimTime::ZERO, vec![1.5]);
        let csv = ts.to_csv();
        assert_eq!(csv.lines().next().unwrap(), r#"t_us,"latency,ms""#);
    }

    #[test]
    fn plain_labels_render_unchanged() {
        // The goldens depend on pre-escaping output for ordinary labels.
        let batch = vec![("flows=0".to_string(), sample())];
        let csv = csv_concat(&batch).unwrap();
        assert!(csv.lines().nth(1).unwrap().starts_with("flows=0,"));
    }

    #[test]
    fn windowed_series_respects_budget() {
        let mut ws = WindowedSeries::new(vec!["g".into()], 8);
        for i in 0..10_000u64 {
            ws.push(SimTime::from_micros(i * 50), &[i as f64]);
            assert!(ws.len() <= 8, "budget exceeded at sample {i}");
        }
        assert_eq!(ws.total_samples, 10_000);
        // Windows tile the sampled interval in order.
        for pair in ws.windows.windows(2) {
            assert!(pair[0].end < pair[1].start);
        }
        assert_eq!(ws.windows.first().unwrap().start, SimTime::ZERO);
        assert_eq!(
            ws.windows.last().unwrap().end,
            SimTime::from_micros(9_999 * 50)
        );
    }

    #[test]
    fn windowed_series_preserves_min_max_mean() {
        let mut ws = WindowedSeries::new(vec!["g".into()], 4);
        let values: Vec<f64> = (0..1000).map(|i| (i % 97) as f64).collect();
        for (i, &v) in values.iter().enumerate() {
            ws.push(SimTime::from_micros(i as u64), &[v]);
        }
        let total: u64 = ws.windows.iter().map(|w| w.samples).sum();
        assert_eq!(total, 1000, "no sample lost in merges");
        let sum: f64 = ws.windows.iter().map(|w| w.stats[0].sum).sum();
        let exact: f64 = values.iter().sum();
        assert!((sum - exact).abs() < 1e-6, "global mean preserved");
        let min = ws
            .windows
            .iter()
            .map(|w| w.stats[0].min)
            .fold(f64::MAX, f64::min);
        let max = ws
            .windows
            .iter()
            .map(|w| w.stats[0].max)
            .fold(f64::MIN, f64::max);
        assert_eq!(min, 0.0);
        assert_eq!(max, 96.0);
    }

    #[test]
    fn windowed_series_memory_is_bounded() {
        let mut ws = WindowedSeries::new(vec!["a".into(), "b".into()], 16);
        ws.push(SimTime::ZERO, &[0.0, 0.0]);
        let early = ws.approx_bytes();
        for i in 1..50_000u64 {
            ws.push(SimTime::from_micros(i), &[i as f64, -(i as f64)]);
        }
        assert!(
            ws.approx_bytes() <= early * 2 + 4096,
            "windowed series footprint must not grow with run length"
        );
    }

    #[test]
    fn windowed_csv_has_min_mean_max_columns() {
        let mut ws = WindowedSeries::new(vec!["g".into()], 4);
        ws.push(SimTime::from_micros(0), &[1.0]);
        ws.push(SimTime::from_micros(10), &[3.0]);
        let csv = ws.to_csv();
        assert_eq!(
            csv.lines().next().unwrap(),
            "t_start_us,t_end_us,samples,g.min,g.mean,g.max"
        );
        let concat = windowed_csv_concat(&[("p=1".into(), ws)]);
        assert!(concat
            .lines()
            .next()
            .unwrap()
            .starts_with("series,t_start_us"));
        assert_eq!(concat.lines().count(), 3);
    }

    #[test]
    #[should_panic(expected = "at least 2")]
    fn windowed_budget_of_one_rejected() {
        WindowedSeries::new(vec!["g".into()], 1);
    }
}
