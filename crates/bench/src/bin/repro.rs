//! `repro` — regenerate the tables and figures of *A Case for NOW*.
//!
//! ```text
//! repro                  # everything (the two-day Table 3 trace takes ~1 min)
//! repro --table4 --fig2  # just those artifacts
//! repro --fast           # everything, with Table 3 on a 12-hour trace
//! repro availability --smoke       # fault/availability report, fewer MC trials
//! repro serve --smoke    # population-scale serving: tail latency, bounded observation
//! repro distribute --smoke         # cooperative image distribution vs registry-only
//! repro --help           # list every scenario and flag
//! repro --ablations      # design-choice sweeps (not in the paper)
//! repro --metrics table2           # append the probe snapshot (=text|csv|json)
//! repro --trace-out now.json fig2  # write a Chrome/Perfetto trace
//! repro contention --blame         # append critical-path blame tables
//! repro contention --timeseries-out ts.csv   # flight-recorder samples (.json for JSON)
//! repro contention --jobs 4        # fan independent runs over 4 threads
//! repro contention --nodes 256     # 8 cells of 32 nodes per sweep point
//! repro contention --nodes 256 --partitions 4  # shard the cells over 4 cores
//! repro contention --util          # append the resource-utilization observatory
//! repro contention --profile       # append host-time profile (where the wall went)
//! repro serve --profile-out out.collapsed  # flamegraph-ready collapsed stacks
//! repro contention --metrics=json --metrics-out snap.json  # snapshot to a file
//! repro diff baseline.json current.json --threshold 0.15   # regression gate
//! ```
//!
//! Every flag is declared once, in `FLAGS` (`DIFF_FLAGS` for `repro
//! diff`), which both parses the command line and renders `--help`. A flag with an environment variable
//! falls back to it when the command line leaves the flag unset, and the
//! variable's value passes the same check as the flag's.
//!
//! `--jobs N` (or the `NOW_JOBS` environment variable) sets how many
//! worker threads the contention sweep, the availability report, and the
//! ablations fan their independent runs over; the default is the
//! machine's available parallelism and `--jobs 1` forces the legacy
//! serial path. Output is byte-identical whatever the worker count.
//!
//! `--partitions N` (or `NOW_PARTITIONS`) shards the cells of each
//! contention run over N engine partitions — parallelism inside one
//! simulation, orthogonal to `--jobs`' fan-out across runs. `--nodes N`
//! (a multiple of 32) scales the contention scenario to N/32 independent
//! 32-node cells, which is what gives a run enough width to shard.
//! `--partitions 0` asks for one partition per core; requests clamp to
//! the cell count. The other reports run one event-coupled component per
//! run and ignore the flag. Output is byte-identical whatever the
//! partition count — only wall-clock time moves.

use std::env;
use std::num::NonZeroUsize;
use std::process::exit;

use now_bench::Report;
use now_probe::recorder::{
    csv_concat, json_concat, windowed_csv_concat, TimeSeries, WindowedSeries,
};
use now_probe::util::{bottlenecks, render_bottlenecks, render_util_table};
use now_probe::{Probe, Registry};
use now_sim::HostProfile;

/// Every scenario name the CLI accepts as a positional argument, with a
/// one-line description for `--help` and the unknown-argument message.
const SCENARIOS: &[(&str, &str)] = &[
    ("table1", "LAN latency/bandwidth trends (Table 1)"),
    ("table2", "Gator cost/performance prediction (Table 2)"),
    (
        "table3",
        "netram vs disk paging on a day-long trace (Table 3)",
    ),
    ("table4", "RAID small-write costs (Table 4)"),
    ("fig1", "DRAM price vs disk seek trends (Figure 1)"),
    ("fig2", "LFS log cleaning under load (Figure 2)"),
    ("fig3", "LANL workload turnaround on a NOW (Figure 3)"),
    (
        "fig4",
        "coscheduling vs uncoordinated time-slicing (Figure 4)",
    ),
    ("nfs", "NFS server saturation study"),
    ("comm", "communication layering costs"),
    ("restore", "64-MB memory restore time"),
    (
        "contention",
        "shared-fabric contention sweep (--nodes, --blame)",
    ),
    ("availability", "fault injection + Monte-Carlo availability"),
    (
        "serve",
        "population-scale serving: tail latency, bounded observation",
    ),
    (
        "distribute",
        "cooperative image distribution vs registry-only",
    ),
    ("ablations", "design-choice sweeps (not in the paper)"),
];

/// Aliases accepted for the figure scenarios (`figure1` for `fig1`, ...).
const SCENARIO_ALIASES: &[&str] = &["figure1", "figure2", "figure3", "figure4"];

/// What `repro`'s flags set: the shared report plan plus the outputs
/// only the CLI knows about.
#[derive(Default)]
struct Cli {
    report: Report,
    fast: bool,
    util: bool,
    metrics: Option<Metrics>,
    metrics_out: Option<String>,
    profile_out: Option<String>,
    trace_out: Option<String>,
    timeseries_out: Option<String>,
}

/// How `--metrics` renders the probe snapshot.
enum Metrics {
    Text,
    Csv,
    Json,
}

/// What `repro diff`'s flags set.
struct DiffCli {
    threshold: f64,
    ignore: Vec<String>,
}

/// How a flag takes its value, and where in the settings `C` it lands.
/// A missing or rejected value exits 2 (see [`Flag::store`]).
enum Takes<C> {
    /// A switch: `--flag` sets the slot.
    Switch(fn(&mut C) -> &mut bool),
    /// `--flag PATH` or `--flag=PATH`: any text, kept in the slot. A
    /// missing path says the flag needs a file path.
    Path(fn(&mut C) -> &mut Option<String>),
    /// `--flag META` or `--flag=META`, or else the environment variable
    /// `env`: `set` parses, checks and stores the value, or returns false.
    /// A rejection says the flag needs `need`, followed by `hint` in the
    /// spaced form or by the rejected text otherwise.
    Value {
        meta: &'static str,
        need: &'static str,
        hint: &'static str,
        env: Option<&'static str>,
        set: fn(&mut C, &str) -> bool,
    },
    /// `--flag[=FMT]`: a metrics format, `text` when bare. A rejection
    /// names the formats.
    Format(fn(&mut C) -> &mut Option<Metrics>),
}

/// One command-line flag of the settings `C`, with its `--help` line.
struct Flag<C> {
    name: &'static str,
    takes: Takes<C>,
    help: &'static str,
}

/// Parses `s` into `slot` when `ok` accepts it.
fn store<T: std::str::FromStr>(slot: &mut T, s: &str, ok: impl Fn(&T) -> bool) -> bool {
    match s.parse() {
        Ok(v) if ok(&v) => {
            *slot = v;
            true
        }
        _ => false,
    }
}

/// Every flag of `repro` outside `diff`, in `--help` order.
const FLAGS: &[Flag<Cli>] = &[
    Flag {
        name: "--fast",
        takes: Takes::Switch(|c| &mut c.fast),
        help: "Table 3 on a 12-hour trace instead of two days",
    },
    Flag {
        name: "--smoke",
        takes: Takes::Switch(|c| &mut c.report.smoke),
        help: "smaller sweeps and fewer Monte-Carlo trials",
    },
    Flag {
        name: "--blame",
        takes: Takes::Switch(|c| &mut c.report.blame),
        help: "append critical-path blame tables",
    },
    Flag {
        name: "--jobs",
        takes: Takes::Value {
            meta: "N",
            need: "a positive worker count",
            hint: "",
            env: Some("NOW_JOBS"),
            set: |c, s| store(&mut c.report.jobs, s, |&n| n >= 1),
        },
        help: "fan independent runs over N worker threads",
    },
    Flag {
        name: "--partitions",
        takes: Takes::Value {
            meta: "N",
            need: "a partition count",
            hint: " (0 = one per core)",
            env: Some("NOW_PARTITIONS"),
            set: |c, s| store(&mut c.report.partitions, s, |_| true),
        },
        help: "shard contention cells over N engine partitions (0 = per core)",
    },
    Flag {
        name: "--nodes",
        takes: Takes::Value {
            meta: "N",
            need: "a positive multiple of 32",
            hint: "",
            env: None,
            set: |c, s| store(&mut c.report.nodes, s, |&n| n >= 32 && n % 32 == 0),
        },
        help: "scale scaled scenarios to N nodes (multiple of 32)",
    },
    Flag {
        name: "--am-batch",
        takes: Takes::Value {
            meta: "N",
            need: "a flush quantum in microseconds",
            hint: " (0 = off)",
            env: None,
            set: |c, s| store(&mut c.report.am_batch_us, s, |_| true),
        },
        help: "active-message flush quantum in us (0 = batching off)",
    },
    Flag {
        name: "--metrics",
        takes: Takes::Format(|c| &mut c.metrics),
        help: "append the probe snapshot (text|csv|json)",
    },
    Flag {
        name: "--metrics-out",
        takes: Takes::Path(|c| &mut c.metrics_out),
        help: "write the JSON probe snapshot to a file (for repro diff)",
    },
    Flag {
        name: "--util",
        takes: Takes::Switch(|c| &mut c.util),
        help: "append the resource-utilization table and bottlenecks",
    },
    Flag {
        name: "--profile",
        takes: Takes::Switch(|c| &mut c.report.profile),
        help: "append the host-time profile (wall-clock attribution)",
    },
    Flag {
        name: "--profile-out",
        takes: Takes::Path(|c| &mut c.profile_out),
        help: "write collapsed stacks (frame;frame count) for flamegraphs",
    },
    Flag {
        name: "--trace-out",
        takes: Takes::Path(|c| &mut c.trace_out),
        help: "write a Chrome/Perfetto trace",
    },
    Flag {
        name: "--timeseries-out",
        takes: Takes::Path(|c| &mut c.timeseries_out),
        help: "write flight-recorder samples (CSV, .json for JSON)",
    },
];

/// The flags of `repro diff`, in `--help` order.
const DIFF_FLAGS: &[Flag<DiffCli>] = &[
    Flag {
        name: "--threshold",
        takes: Takes::Value {
            meta: "X",
            need: "a non-negative relative delta",
            hint: " (e.g. 0.15)",
            env: None,
            set: |d, s| store(&mut d.threshold, s, |&x| x >= 0.0),
        },
        help: "relative delta that counts as a regression (default 0.10)",
    },
    Flag {
        name: "--ignore",
        takes: Takes::Value {
            meta: "SUBSTR",
            need: "a key substring",
            hint: "",
            env: None,
            set: |d, s| {
                d.ignore.push(s.to_string());
                true
            },
        },
        help: "skip keys containing SUBSTR (repeatable)",
    },
];

impl<C> Flag<C> {
    /// How `--help` shows the flag: `--fast`, `--jobs N`, `--metrics[=FMT]`.
    fn synopsis(&self) -> String {
        match self.takes {
            Takes::Switch(_) => self.name.to_string(),
            Takes::Path(_) => format!("{} PATH", self.name),
            Takes::Value { meta, .. } => format!("{} {meta}", self.name),
            Takes::Format(_) => format!("{}[=FMT]", self.name),
        }
    }

    /// `Some(inline value)` when `arg` is this flag, as `--flag` or (for
    /// a flag with a value) `--flag=V`; `None` when it is something else.
    fn matches<'a>(&self, arg: &'a str) -> Option<Option<&'a str>> {
        if arg == self.name {
            return Some(None);
        }
        if let Takes::Switch(_) = self.takes {
            return None;
        }
        Some(Some(arg.strip_prefix(self.name)?.strip_prefix('=')?))
    }

    /// Stores `value` (`None` when there was none) into `settings`, or
    /// exits 2 saying what the flag needs. `source` names where the value
    /// came from, the flag or its environment variable; `spaced` marks the
    /// `--flag V` form.
    fn store(&self, settings: &mut C, source: &str, value: Option<&str>, spaced: bool) {
        let (need, hint) = match (&self.takes, value) {
            (Takes::Switch(slot), _) => {
                *slot(settings) = true;
                return;
            }
            (Takes::Path(slot), Some(path)) => {
                *slot(settings) = Some(path.to_string());
                return;
            }
            (Takes::Path(_), None) => ("a file path", ""),
            (Takes::Value { set, .. }, Some(v)) if set(settings, v) => return,
            (Takes::Value { need, hint, .. }, _) => (*need, *hint),
            (Takes::Format(slot), format) => {
                *slot(settings) = Some(match format.unwrap_or("text") {
                    "text" => Metrics::Text,
                    "csv" => Metrics::Csv,
                    "json" => Metrics::Json,
                    other => {
                        eprintln!("unknown metrics format {other:?} (want text, csv, or json)");
                        exit(2);
                    }
                });
                return;
            }
        };
        match value {
            Some(v) if !spaced => eprintln!("{source} needs {need}, got {v:?}"),
            _ => eprintln!("{source} needs {need}{hint}"),
        }
        exit(2);
    }
}

/// Parses `args` against `table` into `settings`, handing every argument
/// that names no flag to `other`; then fills each flag the command line
/// left unset from its environment variable, through the same check.
/// `--help` (or `-h`) prints the usage and exits 0.
fn parse<C>(
    table: &[Flag<C>],
    settings: &mut C,
    args: impl IntoIterator<Item = String>,
    mut other: impl FnMut(&mut C, String),
) {
    let mut seen = Vec::new();
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        if arg == "--help" || arg == "-h" {
            print!("{}", usage());
            exit(0);
        }
        let Some((flag, inline)) = table.iter().find_map(|f| Some((f, f.matches(&arg)?))) else {
            other(settings, arg);
            continue;
        };
        seen.push(flag.name);
        let next;
        let value = match flag.takes {
            Takes::Path(_) | Takes::Value { .. } if inline.is_none() => {
                next = args.next();
                next.as_deref()
            }
            _ => inline,
        };
        flag.store(settings, flag.name, value, inline.is_none());
    }
    for flag in table.iter().filter(|f| !seen.contains(&f.name)) {
        if let Takes::Value { env: Some(var), .. } = flag.takes {
            if let Ok(value) = env::var(var) {
                flag.store(settings, var, Some(value.trim()), false);
            }
        }
    }
}

/// Writes `body` to `path`, or exits 1 saying the `what` could not be
/// written.
fn write_or_exit(path: &str, body: String, what: &str) {
    if let Err(e) = std::fs::write(path, body) {
        eprintln!("cannot write {what} to {path}: {e}");
        exit(1);
    }
}

/// One `--help` line: a flag (or command) and what it does.
fn help_line(synopsis: &str, help: &str) -> String {
    format!("  {synopsis:<22} {help}\n")
}

fn usage() -> String {
    let diff_flags: Vec<String> = DIFF_FLAGS
        .iter()
        .map(|f| format!("[{}]", f.synopsis()))
        .collect();
    let mut text = format!(
        "usage: repro [SCENARIO...] [FLAGS]\n\
         \x20      repro diff BASELINE.json CURRENT.json {}\n\n\
         Runs every paper artifact when no scenario is named; the serve,\n\
         distribute, and ablations reports are opt-in.\n\nscenarios:\n",
        diff_flags.join(" ")
    );
    for (name, what) in SCENARIOS {
        text.push_str(&format!("  {name:<14} {what}\n"));
    }
    text.push_str("\nflags:\n");
    for flag in FLAGS {
        text.push_str(&help_line(&flag.synopsis(), flag.help));
    }
    text.push_str(&help_line("--help", "this message"));
    text.push_str(
        "\ndiff subcommand:\n  \
         repro diff BASELINE.json CURRENT.json   compare two --metrics-out snapshots\n",
    );
    for flag in DIFF_FLAGS {
        text.push_str(&help_line(&flag.synopsis(), flag.help));
    }
    text.push_str("  exits 1 when any metric moved past the threshold, 0 when clean\n");
    text
}

/// `repro diff baseline.json current.json` — the run-diff regression
/// gate. Reads two `--metrics-out` snapshots, compares every numeric
/// leaf by relative delta, and exits nonzero when anything moved past
/// the threshold so CI can fail the build.
fn run_diff(args: &[String]) -> ! {
    let mut cli = DiffCli {
        threshold: 0.10,
        ignore: Vec::new(),
    };
    let mut paths: Vec<String> = Vec::new();
    parse(DIFF_FLAGS, &mut cli, args.iter().cloned(), |_, arg| {
        if arg.starts_with('-') {
            eprintln!("unknown diff flag {arg:?}\n\n{}", usage());
            exit(2);
        }
        paths.push(arg);
    });
    let [baseline_path, current_path] = paths.as_slice() else {
        eprintln!(
            "repro diff needs exactly two snapshot paths (baseline, current)\n\n{}",
            usage()
        );
        exit(2);
    };
    let read = |path: &str| match std::fs::read_to_string(path) {
        Ok(body) => body,
        Err(e) => {
            eprintln!("cannot read snapshot {path}: {e}");
            exit(1);
        }
    };
    let baseline = read(baseline_path);
    let current = read(current_path);
    match now_probe::diff::diff(&baseline, &current, cli.threshold, &cli.ignore) {
        Ok(report) => {
            print!("{}", report.render_text());
            exit(if report.has_regressions() { 1 } else { 0 });
        }
        Err(e) => {
            eprintln!("repro diff: {e}");
            exit(1);
        }
    }
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    // `repro diff` is a subcommand, not a scenario: dispatch before the
    // flag loop so its positional snapshot paths never look like typos.
    if args.first().map(String::as_str) == Some("diff") {
        run_diff(&args[1..]);
    }
    let mut cli = Cli {
        report: Report {
            // One worker per core unless --jobs or NOW_JOBS says otherwise.
            jobs: std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
            ..Report::default()
        },
        ..Cli::default()
    };
    let mut selected: Vec<String> = Vec::new();
    parse(FLAGS, &mut cli, args, |cli, arg| {
        if arg == "profile" {
            // `repro profile contention` reads naturally enough that the
            // bare token is accepted as an alias for the flag.
            cli.report.profile = true;
            return;
        }
        // Scenarios select bare (`repro table4`) or flag-style
        // (`repro --table4`); anything else is a typo and dies loudly
        // rather than silently running the whole suite.
        let name = arg.trim_start_matches("--");
        let known = SCENARIOS.iter().any(|(s, _)| *s == name) || SCENARIO_ALIASES.contains(&name);
        if !known {
            let kind = if arg.starts_with('-') {
                "flag"
            } else {
                "scenario"
            };
            eprintln!("unknown {kind} {arg:?}\n\n{}", usage());
            exit(2);
        }
        selected.push(name.to_string());
    });
    // Asking for collapsed stacks is asking for the profiler; the flight
    // recorder runs only when its output has somewhere to go.
    cli.report.profile |= cli.profile_out.is_some();
    cli.report.record = cli.timeseries_out.is_some();

    let all = selected.is_empty();
    let want = |name: &str| all || selected.iter().any(|s| s == name);

    // Probing is on whenever any telemetry output was requested; otherwise
    // every subsystem sees a disabled (free) probe.
    let registry =
        (cli.metrics.is_some() || cli.metrics_out.is_some() || cli.trace_out.is_some() || cli.util)
            .then(Registry::new);
    let probe = registry
        .as_ref()
        .map_or_else(Probe::disabled, Registry::probe);
    cli.report.probe = probe.clone();
    let report = &cli.report;
    let mut series: Vec<(String, TimeSeries)> = Vec::new();
    let mut windowed: Vec<(String, WindowedSeries)> = Vec::new();
    // Host-time profiles from every profiled report, merged by label.
    let mut host_profile: Option<HostProfile> = None;
    let mut show = |mut r: now_bench::ObservedReport| {
        println!("{}", r.text);
        series.append(&mut r.series);
        windowed.append(&mut r.windowed);
        if let Some(p) = &r.profile {
            host_profile
                .get_or_insert_with(HostProfile::default)
                .merge(p);
        }
    };

    if want("table1") {
        println!("{}", now_bench::table1());
    }
    if want("fig1") || want("figure1") {
        println!("{}", now_bench::figure1());
    }
    if want("table2") {
        println!("{}", now_bench::table2(&probe));
    }
    if want("fig2") || want("figure2") {
        println!("{}", now_bench::figure2(&probe));
    }
    if want("table3") {
        println!("{}", now_bench::table3(!cli.fast, &probe));
    }
    if want("table4") {
        println!("{}", now_bench::table4());
    }
    if want("fig3") || want("figure3") {
        println!("{}", now_bench::figure3());
    }
    if want("fig4") || want("figure4") {
        println!("{}", now_bench::figure4(&probe));
    }
    if want("nfs") {
        println!("{}", now_bench::nfs_study());
    }
    if want("comm") {
        println!("{}", now_bench::comm_layers());
    }
    if want("restore") {
        println!("{}", now_bench::restore_study());
    }
    if want("contention") {
        show(now_bench::contention(report));
        // The message-rate-vs-batch-quantum deliverable rides with the
        // contention report. It sweeps its own quanta internally, so the
        // table is identical whatever --am-batch (or any other flag)
        // says — the byte-diff gates stay honest.
        println!("{}", now_bench::am_batching_table());
    }
    if want("availability") {
        show(now_bench::availability(report));
    }
    // The serving sweep is opt-in like the ablations: it is the unified
    // engine's population-scale story, not a paper table.
    if selected.iter().any(|s| s == "serve") {
        show(now_bench::serve(report));
    }
    // Image distribution is likewise opt-in: cold-starting the cluster
    // from a content-addressed registry, registry-only vs cooperative.
    if selected.iter().any(|s| s == "distribute") {
        show(now_bench::distribute(report));
    }
    // Ablations are opt-in: they are design-choice sweeps, not paper
    // artifacts.
    if selected.iter().any(|s| s == "ablations") {
        println!("{}", now_bench::ablations::all(report.jobs));
    }

    if let Some(path) = cli.timeseries_out {
        if series.is_empty() && windowed.is_empty() {
            eprintln!(
                "--timeseries-out produced no samples: only the contention, \
                 availability, serve, and distribute reports carry a flight recorder"
            );
        }
        // The serving recorder is windowed (downsampled min/mean/max); it
        // exports as CSV only and lands in the same file when it is the
        // only recorded report.
        let body = if !series.is_empty() {
            if !windowed.is_empty() {
                eprintln!(
                    "--timeseries-out holds one format: writing the raw series; \
                     rerun with only the serve report for the windowed CSV"
                );
            }
            let merged = if path.ends_with(".json") {
                json_concat(&series)
            } else {
                csv_concat(&series)
            };
            merged.unwrap_or_else(|e| {
                eprintln!(
                    "cannot write time series to {path}: {e}; \
                     record those reports in separate runs"
                );
                exit(2);
            })
        } else {
            if path.ends_with(".json") {
                eprintln!("windowed serve series export CSV; writing CSV to {path}");
            }
            windowed_csv_concat(&windowed)
        };
        write_or_exit(&path, body, "time series");
        eprintln!("wrote gauge time series to {path}");
    }

    if report.profile {
        match &host_profile {
            Some(p) => {
                println!("{}", p.render_text());
                if let Some(path) = cli.profile_out {
                    write_or_exit(&path, p.collapsed(), "collapsed stacks");
                    eprintln!("wrote collapsed stacks to {path} (feed to a flamegraph tool)");
                }
            }
            None => eprintln!(
                "--profile collected nothing: only the contention, availability, \
                 serve, and distribute reports run the host profiler, and \
                 multi-cell runs skip it (threads share the wall clock)"
            ),
        }
    }

    if let Some(registry) = registry {
        match cli.metrics {
            Some(Metrics::Text) => println!("{}", registry.render_text()),
            Some(Metrics::Csv) => print!("{}", registry.render_csv()),
            Some(Metrics::Json) => println!("{}", registry.render_json()),
            None => {}
        }
        if cli.util {
            let snapshot = registry.snapshot();
            if snapshot.utils.is_empty() {
                eprintln!(
                    "--util recorded nothing: resource ledgers fill during the \
                     contention, serve, and distribute reports"
                );
            } else {
                println!("{}", render_util_table(&snapshot.utils));
                println!("{}", render_bottlenecks(&bottlenecks(&snapshot.utils)));
            }
        }
        if let Some(path) = cli.metrics_out {
            let mut body = registry.render_json();
            body.push('\n');
            write_or_exit(&path, body, "metrics snapshot");
            eprintln!("wrote metrics snapshot to {path} (compare runs with repro diff)");
        }
        if let Some(path) = cli.trace_out {
            write_or_exit(&path, registry.chrome_trace(), "trace");
            eprintln!("wrote Chrome trace to {path} (open in Perfetto or chrome://tracing)");
        }
        // Silent data loss would undermine every export above; say so.
        let snapshot = registry.snapshot();
        if snapshot.trace_dropped > 0 {
            eprintln!(
                "warning: {} trace span(s) dropped (ring buffer full); \
                 the Chrome trace and span metrics are incomplete",
                snapshot.trace_dropped
            );
        }
        if let Some(dropped) = snapshot.counter("probe.spans_dropped") {
            if dropped > 0 {
                eprintln!(
                    "warning: probe.spans_dropped = {dropped}; \
                     span records were discarded under pressure"
                );
            }
        }
    }
}
