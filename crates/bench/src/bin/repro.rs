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
//! repro --bench-out BENCH_repro.json --jobs 4  # wall-time harness, serial vs parallel
//! repro contention --util          # append the resource-utilization observatory
//! repro contention --profile       # append host-time profile (where the wall went)
//! repro serve --profile-out out.collapsed  # flamegraph-ready collapsed stacks
//! repro contention --metrics=json --metrics-out snap.json  # snapshot to a file
//! repro diff baseline.json current.json --threshold 0.15   # regression gate
//! ```
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
use std::process::exit;
use std::time::Instant;

use now_probe::recorder::{
    csv_concat, json_concat, windowed_csv_concat, TimeSeries, WindowedSeries,
};
use now_probe::util::{bottlenecks, render_bottlenecks, render_util_table};
use now_probe::{Probe, Registry};
use now_sim::parallel::resolve_jobs;
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

fn usage() -> String {
    let mut text = String::from(
        "usage: repro [SCENARIO...] [FLAGS]\n\
         \x20      repro diff BASELINE.json CURRENT.json [--threshold X] [--ignore SUBSTR]\n\n\
         Runs every paper artifact when no scenario is named; the serve,\n\
         distribute, and ablations reports are opt-in.\n\nscenarios:\n",
    );
    for (name, what) in SCENARIOS {
        text.push_str(&format!("  {name:<14} {what}\n"));
    }
    text.push_str(
        "\nflags:\n\
         \x20 --fast                 Table 3 on a 12-hour trace instead of two days\n\
         \x20 --smoke                smaller sweeps and fewer Monte-Carlo trials\n\
         \x20 --blame                append critical-path blame tables\n\
         \x20 --jobs N               fan independent runs over N worker threads\n\
         \x20 --partitions N         shard contention cells over N engine partitions (0 = per core)\n\
         \x20 --nodes N              scale scaled scenarios to N nodes (multiple of 32)\n\
         \x20 --am-batch N           active-message flush quantum in us (0 = batching off)\n\
         \x20 --metrics[=FMT]        append the probe snapshot (text|csv|json)\n\
         \x20 --metrics-out PATH     write the JSON probe snapshot to a file (for repro diff)\n\
         \x20 --util                 append the resource-utilization table and bottlenecks\n\
         \x20 --profile              append the host-time profile (wall-clock attribution)\n\
         \x20 --profile-out PATH     write collapsed stacks (frame;frame count) for flamegraphs\n\
         \x20 --trace-out PATH       write a Chrome/Perfetto trace\n\
         \x20 --timeseries-out PATH  write flight-recorder samples (CSV, .json for JSON)\n\
         \x20 --bench-out PATH       run the wall-time harness and write JSON\n\
         \x20 --help                 this message\n\
         \ndiff subcommand:\n\
         \x20 repro diff BASELINE.json CURRENT.json   compare two --metrics-out snapshots\n\
         \x20 --threshold X          relative delta that counts as a regression (default 0.10)\n\
         \x20 --ignore SUBSTR        skip keys containing SUBSTR (repeatable)\n\
         \x20 exits 1 when any metric moved past the threshold, 0 when clean\n",
    );
    text
}

/// `repro diff baseline.json current.json` — the run-diff regression
/// gate. Reads two `--metrics-out` snapshots, compares every numeric
/// leaf by relative delta, and exits nonzero when anything moved past
/// the threshold so CI can fail the build.
fn run_diff(args: &[String]) -> ! {
    let mut threshold = 0.10_f64;
    let mut ignore: Vec<String> = Vec::new();
    let mut paths: Vec<String> = Vec::new();
    let mut it = args.iter().cloned();
    while let Some(arg) = it.next() {
        if let Some(x) = flag_value(
            &arg,
            "--threshold",
            &mut it,
            ("a non-negative relative delta", " (e.g. 0.15)"),
            |s| s.parse().ok().filter(|&x: &f64| x >= 0.0),
        ) {
            threshold = x;
        } else if let Some(s) = flag_value(&arg, "--ignore", &mut it, ("a key substring", ""), text)
        {
            ignore.push(s);
        } else if arg == "--help" || arg == "-h" {
            print!("{}", usage());
            exit(0);
        } else if arg.starts_with('-') {
            eprintln!("unknown diff flag {arg:?}\n\n{}", usage());
            exit(2);
        } else {
            paths.push(arg);
        }
    }
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
    match now_probe::diff::diff(&baseline, &current, threshold, &ignore) {
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

/// What a path-valued flag needs, for [`flag_value`]'s error message.
const FILE_PATH: (&str, &str) = ("a file path", "");

/// Accepts any text as a flag value.
fn text(s: &str) -> Option<String> {
    Some(s.to_string())
}

/// The value of the flag `flag` when `arg` is that flag, given either as
/// `--flag V` (the value is the next argument, taken from `rest`) or as
/// `--flag=V`; `None` when `arg` is something else. A missing value, or
/// one `parse` rejects, exits 2 with "`flag` needs `what`" followed by
/// `hint` in the spaced form, or by the rejected text in the `=` form.
fn flag_value<T>(
    arg: &str,
    flag: &str,
    rest: &mut impl Iterator<Item = String>,
    (what, hint): (&str, &str),
    parse: impl Fn(&str) -> Option<T>,
) -> Option<T> {
    if arg == flag {
        let value = rest.next().as_deref().and_then(&parse);
        if value.is_none() {
            eprintln!("{flag} needs {what}{hint}");
            exit(2);
        }
        return value;
    }
    let inline = arg.strip_prefix(flag)?.strip_prefix('=')?;
    if let Some(value) = parse(inline) {
        return Some(value);
    }
    eprintln!("{flag} needs {what}, got {inline:?}");
    exit(2);
}

fn main() {
    let args: Vec<String> = env::args().skip(1).collect();
    // `repro diff` is a subcommand, not a scenario: dispatch before the
    // flag loop so its positional snapshot paths never look like typos.
    if args.first().map(String::as_str) == Some("diff") {
        run_diff(&args[1..]);
    }
    let mut fast = false;
    let mut smoke = false;
    let mut blame = false;
    let mut profile = false;
    let mut util = false;
    let mut jobs_arg: Option<usize> = None;
    let mut partitions_arg: Option<u32> = None;
    let mut nodes: u32 = 32;
    let mut am_batch: u64 = 0;
    let mut metrics: Option<String> = None;
    let mut metrics_out: Option<String> = None;
    let mut trace_out: Option<String> = None;
    let mut profile_out: Option<String> = None;
    let mut timeseries_out: Option<String> = None;
    let mut bench_out: Option<String> = None;
    let mut selected: Vec<String> = Vec::new();
    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        if arg == "--fast" {
            fast = true;
        } else if arg == "--smoke" {
            smoke = true;
        } else if arg == "--blame" {
            blame = true;
        } else if arg == "--profile" || arg == "profile" {
            // `repro profile contention` reads naturally enough that the
            // bare token is accepted as an alias for the flag.
            profile = true;
        } else if arg == "--util" {
            util = true;
        } else if let Some(n) = flag_value(
            &arg,
            "--jobs",
            &mut it,
            ("a positive worker count", ""),
            |s| s.parse().ok().filter(|&n: &usize| n >= 1),
        ) {
            jobs_arg = Some(n);
        } else if let Some(n) = flag_value(
            &arg,
            "--partitions",
            &mut it,
            ("a partition count", " (0 = one per core)"),
            |s| s.parse().ok(),
        ) {
            partitions_arg = Some(n);
        } else if let Some(n) = flag_value(
            &arg,
            "--nodes",
            &mut it,
            ("a positive multiple of 32", ""),
            |s| s.parse().ok().filter(|&n: &u32| n >= 32 && n % 32 == 0),
        ) {
            nodes = n;
        } else if let Some(n) = flag_value(
            &arg,
            "--am-batch",
            &mut it,
            ("a flush quantum in microseconds", " (0 = off)"),
            |s| s.parse().ok(),
        ) {
            am_batch = n;
        } else if let Some(path) = flag_value(&arg, "--bench-out", &mut it, FILE_PATH, text) {
            bench_out = Some(path);
        } else if let Some(path) = flag_value(&arg, "--metrics-out", &mut it, FILE_PATH, text) {
            metrics_out = Some(path);
        } else if let Some(path) = flag_value(&arg, "--profile-out", &mut it, FILE_PATH, text) {
            profile_out = Some(path);
        } else if arg == "--metrics" {
            metrics = Some("text".to_string());
        } else if let Some(format) = arg.strip_prefix("--metrics=") {
            if !matches!(format, "text" | "csv" | "json") {
                eprintln!("unknown metrics format {format:?} (want text, csv, or json)");
                exit(2);
            }
            metrics = Some(format.to_string());
        } else if let Some(path) = flag_value(&arg, "--trace-out", &mut it, FILE_PATH, text) {
            trace_out = Some(path);
        } else if let Some(path) = flag_value(&arg, "--timeseries-out", &mut it, FILE_PATH, text) {
            timeseries_out = Some(path);
        } else if arg == "--help" || arg == "-h" {
            print!("{}", usage());
            return;
        } else {
            // Scenarios select bare (`repro table4`) or flag-style
            // (`repro --table4`); anything else is a typo and dies loudly
            // rather than silently running the whole suite.
            let name = arg.trim_start_matches("--");
            let known =
                SCENARIOS.iter().any(|(s, _)| *s == name) || SCENARIO_ALIASES.contains(&name);
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
        }
    }
    // Asking for collapsed stacks is asking for the profiler.
    if profile_out.is_some() {
        profile = true;
    }
    let jobs = resolve_jobs(jobs_arg);
    // CLI beats environment beats the serial default; 0 = one per core.
    let partitions = partitions_arg
        .or_else(|| env::var("NOW_PARTITIONS").ok().and_then(|s| s.parse().ok()))
        .unwrap_or(1);

    // The wall-time harness replaces the reports: time the heavy sweeps
    // serial vs parallel, write the trajectory entries, and exit.
    if let Some(path) = bench_out {
        let entries = run_bench_harness(smoke, jobs);
        let partitioned = run_partition_harness();
        let distribute = now_bench::distribute_summary(true);
        let batching = now_bench::am_batching_summary();
        if let Err(e) = std::fs::write(
            &path,
            render_bench_json(&entries, &partitioned, &distribute, &batching),
        ) {
            eprintln!("cannot write bench results to {path}: {e}");
            exit(1);
        }
        for e in &entries {
            eprintln!(
                "{}: serial {:.0} ms, parallel {:.0} ms at {} jobs ({:.2}x)",
                e.bench,
                e.serial_ms,
                e.parallel_ms,
                e.jobs,
                e.speedup()
            );
        }
        eprintln!(
            "{}: serial {:.0} ms, partitioned {:.0} ms at {} partitions ({:.2}x single-run)",
            partitioned.bench,
            partitioned.serial_ms,
            partitioned.partitioned_ms,
            partitioned.partitions,
            partitioned.single_run_speedup()
        );
        eprintln!(
            "distribute_smoke: registry {:.1} ms, cooperative {:.1} ms, dedup {:.2}x, \
             crossover at {} nodes",
            distribute.registry_ms,
            distribute.cooperative_ms,
            distribute.dedup_factor,
            distribute.crossover_nodes
        );
        eprintln!(
            "am_batching: {:.0} -> {:.0} msgs/s at mean batch {:.1} ({:.2}x)",
            batching.unbatched_msgs_per_s,
            batching.batched_msgs_per_s,
            batching.batch_size,
            batching.rate_gain
        );
        eprintln!("wrote bench trajectory to {path}");
        return;
    }

    let all = selected.is_empty();
    let want = |name: &str| all || selected.iter().any(|s| s == name);

    // Probing is on whenever any telemetry output was requested; otherwise
    // every subsystem sees a disabled (free) probe.
    let registry = (metrics.is_some() || metrics_out.is_some() || trace_out.is_some() || util)
        .then(Registry::new);
    let probe = registry
        .as_ref()
        .map_or_else(Probe::disabled, Registry::probe);

    let report = now_bench::Report {
        smoke,
        blame,
        // The flight recorder runs only when its output has somewhere to go.
        record: timeseries_out.is_some(),
        profile,
        probe: probe.clone(),
        jobs,
        nodes,
        partitions,
        am_batch_us: am_batch,
    };
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
        println!("{}", now_bench::table3(!fast, &probe));
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
        show(now_bench::contention(&report));
        // The message-rate-vs-batch-quantum deliverable rides with the
        // contention report. It sweeps its own quanta internally, so the
        // table is identical whatever --am-batch (or any other flag)
        // says — the byte-diff gates stay honest.
        println!("{}", now_bench::am_batching_table());
    }
    if want("availability") {
        show(now_bench::availability(&report));
    }
    // The serving sweep is opt-in like the ablations: it is the unified
    // engine's population-scale story, not a paper table.
    if selected.iter().any(|s| s == "serve") {
        show(now_bench::serve(&report));
    }
    // Image distribution is likewise opt-in: cold-starting the cluster
    // from a content-addressed registry, registry-only vs cooperative.
    if selected.iter().any(|s| s == "distribute") {
        show(now_bench::distribute(&report));
    }
    // Ablations are opt-in: they are design-choice sweeps, not paper
    // artifacts.
    if selected.iter().any(|s| s == "ablations") {
        println!("{}", now_bench::ablations::all(jobs));
    }

    if let Some(path) = timeseries_out {
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
            if path.ends_with(".json") {
                json_concat(&series)
            } else {
                csv_concat(&series)
            }
        } else {
            if path.ends_with(".json") {
                eprintln!("windowed serve series export CSV; writing CSV to {path}");
            }
            windowed_csv_concat(&windowed)
        };
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("cannot write time series to {path}: {e}");
            exit(1);
        }
        eprintln!("wrote gauge time series to {path}");
    }

    if profile {
        match &host_profile {
            Some(p) => {
                println!("{}", p.render_text());
                if let Some(path) = profile_out {
                    if let Err(e) = std::fs::write(&path, p.collapsed()) {
                        eprintln!("cannot write collapsed stacks to {path}: {e}");
                        exit(1);
                    }
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
        if let Some(format) = metrics {
            match format.as_str() {
                "text" => println!("{}", registry.render_text()),
                "csv" => print!("{}", registry.render_csv()),
                "json" => println!("{}", registry.render_json()),
                other => {
                    // Unreachable from the CLI (parsing validates), but
                    // never fall through silently.
                    eprintln!("unknown metrics format {other:?} (want text, csv, or json)");
                    println!("{}", registry.render_text());
                }
            }
        }
        if util {
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
        if let Some(path) = metrics_out {
            let mut body = registry.render_json();
            body.push('\n');
            if let Err(e) = std::fs::write(&path, body) {
                eprintln!("cannot write metrics snapshot to {path}: {e}");
                exit(1);
            }
            eprintln!("wrote metrics snapshot to {path} (compare runs with repro diff)");
        }
        if let Some(path) = trace_out {
            if let Err(e) = std::fs::write(&path, registry.chrome_trace()) {
                eprintln!("cannot write trace to {path}: {e}");
                exit(1);
            }
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

/// One wall-time measurement of a heavy sweep, serial vs parallel.
struct BenchEntry {
    bench: &'static str,
    serial_ms: f64,
    parallel_ms: f64,
    jobs: usize,
}

impl BenchEntry {
    fn speedup(&self) -> f64 {
        if self.parallel_ms > 0.0 {
            self.serial_ms / self.parallel_ms
        } else {
            0.0
        }
    }
}

/// One wall-time measurement of a *single* scaled run, serial vs sharded
/// over engine partitions — parallelism inside one simulation, where
/// `--jobs` cannot help.
struct PartitionedBenchEntry {
    bench: &'static str,
    serial_ms: f64,
    partitioned_ms: f64,
    partitions: u32,
}

impl PartitionedBenchEntry {
    fn single_run_speedup(&self) -> f64 {
        if self.partitioned_ms > 0.0 {
            self.serial_ms / self.partitioned_ms
        } else {
            0.0
        }
    }
}

fn time_ms(f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_secs_f64() * 1_000.0
}

/// Times the availability Monte-Carlo and the contention sweep at one
/// worker and at `jobs` workers. Each pair also cross-checks what the
/// parallel layer promises: identical output, faster wall clock.
///
/// At `--jobs 1` the "parallel" leg would be the serial leg rerun under
/// a different label — same code path, same thread — so it is skipped
/// and the serial time reported for both columns (speedup 1.0 by
/// construction). That halves harness wall time on 1-core containers,
/// where fan-out has no parallelism to find anyway.
fn run_bench_harness(smoke: bool, jobs: usize) -> Vec<BenchEntry> {
    use now_raid::availability::FailureModel;

    let model = FailureModel::paper_defaults();
    let trials: u64 = 2_000;
    let mut serial_mc = 0.0;
    let serial_mc_ms = time_ms(|| {
        serial_mc = now_fault::montecarlo::software_service_mttf_hours(
            &model,
            8,
            trials,
            now_bench::SEED,
            1,
        );
    });
    let parallel_mc_ms = if jobs == 1 {
        serial_mc_ms
    } else {
        let mut parallel_mc = 0.0;
        let ms = time_ms(|| {
            parallel_mc = now_fault::montecarlo::software_service_mttf_hours(
                &model,
                8,
                trials,
                now_bench::SEED,
                jobs,
            );
        });
        assert_eq!(
            serial_mc.to_bits(),
            parallel_mc.to_bits(),
            "parallel Monte-Carlo must match serial bit-for-bit"
        );
        ms
    };

    // Reports at `smoke` with only the worker count varying.
    let at = |smoke: bool, jobs: usize| now_bench::Report {
        smoke,
        jobs,
        ..now_bench::Report::default()
    };
    let mut serial_table = String::new();
    let serial_sweep_ms = time_ms(|| serial_table = now_bench::contention(&at(smoke, 1)).text);
    let parallel_sweep_ms = if jobs == 1 {
        serial_sweep_ms
    } else {
        let mut parallel_table = String::new();
        let ms = time_ms(|| parallel_table = now_bench::contention(&at(smoke, jobs)).text);
        assert_eq!(
            serial_table, parallel_table,
            "parallel contention sweep must match serial byte-for-byte"
        );
        ms
    };

    let mut serial_serve = String::new();
    let serial_serve_ms = time_ms(|| serial_serve = now_bench::serve(&at(true, 1)).text);
    let parallel_serve_ms = if jobs == 1 {
        serial_serve_ms
    } else {
        let mut parallel_serve = String::new();
        let ms = time_ms(|| parallel_serve = now_bench::serve(&at(true, jobs)).text);
        assert_eq!(
            serial_serve, parallel_serve,
            "parallel serve sweep must match serial byte-for-byte"
        );
        ms
    };

    vec![
        BenchEntry {
            bench: "availability_mc_2000",
            serial_ms: serial_mc_ms,
            parallel_ms: parallel_mc_ms,
            jobs,
        },
        BenchEntry {
            bench: "contention_sweep",
            serial_ms: serial_sweep_ms,
            parallel_ms: parallel_sweep_ms,
            jobs,
        },
        BenchEntry {
            bench: "serve_smoke",
            serial_ms: serial_serve_ms,
            parallel_ms: parallel_serve_ms,
            jobs,
        },
    ]
}

/// Times one 256-node contention run (8 cells, 8 background flows each)
/// serial and sharded over 4 engine partitions, asserting the outcomes
/// are identical — the partitioned engine's whole contract.
fn run_partition_harness() -> PartitionedBenchEntry {
    const NODES: u32 = 256;
    const FLOWS: u32 = 8;
    const PARTITIONS: u32 = 4;
    let mut serial = None;
    let mut partitioned = None;
    let serial_ms = time_ms(|| serial = Some(now_bench::contention_point(FLOWS, NODES, 1)));
    let partitioned_ms =
        time_ms(|| partitioned = Some(now_bench::contention_point(FLOWS, NODES, PARTITIONS)));
    assert_eq!(
        serial, partitioned,
        "the partitioned run must match the serial run exactly"
    );
    PartitionedBenchEntry {
        bench: "contention_nodes256",
        serial_ms,
        partitioned_ms,
        partitions: PARTITIONS,
    }
}

fn render_bench_json(
    entries: &[BenchEntry],
    partitioned: &PartitionedBenchEntry,
    distribute: &now_bench::DistributeSummary,
    batching: &now_bench::AmBatchingSummary,
) -> String {
    let mut rows: Vec<String> = entries
        .iter()
        .map(|e| {
            format!(
                "  {{\"bench\": \"{}\", \"serial_ms\": {:.3}, \"parallel_ms\": {:.3}, \
                 \"jobs\": {}, \"speedup\": {:.3}}}",
                e.bench,
                e.serial_ms,
                e.parallel_ms,
                e.jobs,
                e.speedup()
            )
        })
        .collect();
    rows.push(format!(
        "  {{\"bench\": \"{}\", \"serial_ms\": {:.3}, \"partitioned_ms\": {:.3}, \
         \"partitions\": {}, \"single_run_speedup\": {:.3}}}",
        partitioned.bench,
        partitioned.serial_ms,
        partitioned.partitioned_ms,
        partitioned.partitions,
        partitioned.single_run_speedup()
    ));
    rows.push(format!(
        "  {{\"bench\": \"distribute_smoke\", \"registry_ms\": {:.3}, \
         \"cooperative_ms\": {:.3}, \"dedup_factor\": {:.3}, \"crossover_nodes\": {}}}",
        distribute.registry_ms,
        distribute.cooperative_ms,
        distribute.dedup_factor,
        distribute.crossover_nodes
    ));
    rows.push(format!(
        "  {{\"bench\": \"am_batching\", \"unbatched_msgs_per_s\": {:.1}, \
         \"batched_msgs_per_s\": {:.1}, \"batch_size\": {:.2}, \"rate_gain\": {:.3}}}",
        batching.unbatched_msgs_per_s,
        batching.batched_msgs_per_s,
        batching.batch_size,
        batching.rate_gain
    ));
    format!("[\n{}\n]\n", rows.join(",\n"))
}
