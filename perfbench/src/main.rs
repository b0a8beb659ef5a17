//! Host-time benchmark of the NOW simulator.
//!
//! ```text
//! now-perfbench --workload W [--seed N] [--seconds S] [--trace 0|1] [--quick]
//! ```
//!
//! Runs one of four workloads (see `README.md`) by calling the
//! simulator's public functions and timing them from outside. With
//! `--trace 0` it repeats the untraced workload for `--seconds` and
//! reports the end-to-end metrics; with `--trace 1` it alternates
//! untraced and host-profiled runs and reports the per-layer ledger.
//! Every run is checked: an outcome digest against the one recorded for
//! the default seed, repeats against the first run, and the workload's
//! own invariants. The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the exit code is 0
//! only when every run was correct.

#![forbid(unsafe_code)]

mod layers;
mod stats;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use now_core::NowCluster;
use now_sim::HostProfile;

use stats::{median, quartiles};
use workload::{Kind, Outcomes, Workload, DEFAULT_SEED};

/// Fewest set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 9;
/// Set-ups repeat until they have taken this long too, so a set-up of a
/// few microseconds is timed thousands of times.
const SETUP_SECONDS: f64 = 0.25;
/// Fewest timed repeats of an untraced run, however long each takes.
const MIN_REPS: usize = 3;

/// Engine components by profiler label, and the layer each is reported
/// under. A component not listed here is reported as [`OTHER_LAYER`].
const LAYERS: [(&str, &str); 7] = [
    ("job", "core.job"),
    ("paging", "mem.paging"),
    ("cache", "cache.coop"),
    ("traffic", "net.traffic"),
    ("serve", "cache.serve"),
    ("cas", "cas.fetch"),
    ("recorder", "probe.recorder"),
];
/// The layer of every profiled component outside [`LAYERS`] (cluster
/// control and fault injection, idle unless a run injects faults).
const OTHER_LAYER: &str = "core.other";

const USAGE: &str = "usage: now-perfbench --workload <contention_cells|serve_population|\
distribute_cold|contention_observed> [--seed N] [--seconds S] [--trace 0|1] [--quick]";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut quick = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or(format!("{flag} needs a value"));
        match arg.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                kind = Some(Kind::parse(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => {
                seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                seconds = value("--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                trace = match value("--trace")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                };
            }
            "--quick" => quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        quick,
    })
}

/// Every run attempted, and every one that panicked or failed a check.
#[derive(Default)]
struct Ledger {
    attempted: u64,
    failed: u64,
}

impl Ledger {
    /// Runs `f` once, timed from outside, returning its host wall time
    /// in seconds and its result; a panic counts as a failed run.
    fn attempt<T>(&mut self, what: &str, f: impl FnOnce() -> T) -> Option<(f64, T)> {
        self.attempted += 1;
        let start = Instant::now();
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(value) => Some((start.elapsed().as_secs_f64(), value)),
            Err(_) => {
                self.fail(format!("{what}: panicked"));
                None
            }
        }
    }

    /// Runs the workload once via `f` and checks the outcome: its
    /// invariants, and its digest against `expect` when given. Returns
    /// the timing, the digest, and the outcomes.
    fn run_checked(
        &mut self,
        w: &Workload,
        what: &str,
        expect: Option<u64>,
        f: impl FnOnce() -> Outcomes,
    ) -> Option<(f64, u64, Outcomes)> {
        let (secs, out) = self.attempt(what, f)?;
        let mut checked = w.check(&out);
        if let Some(want) = expect {
            if checked.digest != want {
                checked.problems.push(format!(
                    "outcome digest {:#018x}, expected {want:#018x}",
                    checked.digest
                ));
            }
        }
        if !checked.problems.is_empty() {
            self.fail(format!("{what}: {}", checked.problems.join("; ")));
        }
        Some((secs, checked.digest, out))
    }

    fn fail(&mut self, problem: String) {
        self.failed += 1;
        eprintln!("FAILED {problem}");
    }
}

/// Metrics in report order, each with its unit.
#[derive(Default)]
struct Report(Vec<(String, f64, &'static str)>);

impl Report {
    fn add(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.push((name.to_string(), value, unit));
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get()) as u32;
    let threads = match args.kind {
        Kind::ContentionCells => nproc,
        _ => 1,
    };
    let mut ledger = Ledger::default();

    // Set-up: the cluster, the specs, and the generated inputs, built
    // repeatedly; the last build is the one the runs use.
    let mut setup_s = Vec::new();
    let setup_start = Instant::now();
    let w = loop {
        let start = Instant::now();
        let w = Workload::setup(args.kind, args.seed, threads, args.quick);
        setup_s.push(start.elapsed().as_secs_f64());
        if setup_s.len() >= SETUP_REPS && setup_start.elapsed().as_secs_f64() >= SETUP_SECONDS {
            break w;
        }
    };

    // The golden check doubles as the warm-up run: the workload at the
    // default seed must reproduce the recorded outcome digest.
    let mut golden_digest = None;
    if !args.quick {
        let golden = Workload::setup(args.kind, DEFAULT_SEED, threads, false);
        let recorded = args.kind.golden_digest();
        golden_digest = ledger
            .run_checked(&golden, "default-seed run", Some(recorded), || {
                golden.run(golden.threads)
            })
            .map(|(_, d, _)| d);
    }

    let budget = args.seconds;
    let (report, events, digest) = if args.trace {
        traced(&args, &w, &mut ledger, budget, nproc)
    } else {
        untraced(&w, &mut ledger, budget, median(&setup_s))
    };

    let correct = ledger.failed == 0;
    println!(
        "workload {} seed {} nproc {nproc} threads {} events {events} attempted {} failed {} \
         digest {digest:#018x} default-seed digest {}",
        args.kind.name(),
        args.seed,
        w.threads,
        ledger.attempted,
        ledger.failed,
        golden_digest.map_or("skipped".to_string(), |d| format!("{d:#018x}")),
    );
    for (name, value, unit) in &report.0 {
        println!("  {name:<28} {value:>16.4} {unit}");
    }
    let metrics: Vec<String> = report
        .0
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ledger.attempted,
        ledger.failed,
        metrics.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end metrics: untraced repeats for `budget` seconds (at
/// least [`MIN_REPS`]), then the checks that need extra runs, then one
/// traced run for the exact event count.
fn untraced(w: &Workload, ledger: &mut Ledger, budget: f64, setup_s: f64) -> (Report, u64, u64) {
    let start = Instant::now();
    let mut walls = Vec::new();
    let mut first = None;
    let mut reps = 0;
    while reps < MIN_REPS || start.elapsed().as_secs_f64() < budget {
        reps += 1;
        if let Some((secs, digest, _)) =
            ledger.run_checked(w, "timed run", first, || w.run(w.threads))
        {
            first.get_or_insert(digest);
            walls.push(secs);
        }
    }
    let peak_rss_mb = peak_rss_mb().unwrap_or_else(|e| {
        ledger.fail(e);
        0.0
    });
    if w.kind == Kind::ContentionCells {
        ledger.run_checked(w, "partitions=1 run", first, || w.run(1));
    }
    let events = ledger
        .attempt("traced run", || w.run_traced(true))
        .map_or(0, |(_, profile)| profile.events);

    let wall_ms = median(&walls) * 1e3;
    let (q1, q3) = quartiles(&walls);
    eprintln!(
        "wall: {} runs, median {wall_ms:.3} ms, quartiles {:.3}..{:.3} ms, runs {:.1?}",
        walls.len(),
        q1 * 1e3,
        q3 * 1e3,
        walls.iter().map(|s| s * 1e3).collect::<Vec<_>>()
    );
    let mut r = Report::default();
    r.add("wall_ms", wall_ms, "ms");
    r.add("events_per_s", events as f64 / (wall_ms / 1e3), "1/s");
    r.add("peak_rss_mb", peak_rss_mb, "MB");
    r.add("setup_s", setup_s, "s");
    let ok = ledger.attempted.saturating_sub(ledger.failed);
    r.add(
        "ok_frac",
        ok as f64 / ledger.attempted.max(1) as f64,
        "fraction",
    );
    (r, events, first.unwrap_or(0))
}

/// The per-layer ledger: rounds of an untraced run, the runs a ratio
/// needs as its base, and a traced run, for `budget` seconds (at least
/// one round); then the timed calls into the layers the workload
/// exercises.
fn traced(
    args: &Args,
    w: &Workload,
    ledger: &mut Ledger,
    budget: f64,
    nproc: u32,
) -> (Report, u64, u64) {
    let start = Instant::now();
    let mut untraced = Vec::new();
    let mut serial = Vec::new();
    let mut cells_untraced = Vec::new();
    let mut traced = Vec::new();
    let mut profiles: Vec<HostProfile> = Vec::new();
    let mut observed = Vec::new();
    let mut unobserved = Vec::new();
    let mut observed_profiles: Vec<HostProfile> = Vec::new();
    let mut snapshot = None;
    let mut first = None;
    let (mut observed_first, mut unobserved_first) = (None, None);
    let mut last = None;
    while traced.is_empty() || start.elapsed().as_secs_f64() < budget {
        if let Some((secs, digest, out)) =
            ledger.run_checked(w, "untraced run", first, || w.run(w.threads))
        {
            first.get_or_insert(digest);
            untraced.push(secs);
            last = Some(out);
        }
        if w.kind == Kind::ContentionCells {
            if let Some((secs, ..)) = ledger.run_checked(w, "partitions=1 run", first, || w.run(1))
            {
                serial.push(secs);
            }
            if let Some((secs, _)) = ledger.attempt("untraced cell runs", || w.run_traced(false)) {
                cells_untraced.push(secs);
            }
            // Observation cost, on the same sweep run on one cell.
            if let Some((secs, digest, out)) =
                ledger.run_checked(w, "observed run", observed_first, || {
                    w.run_observation(true, false).0
                })
            {
                observed_first.get_or_insert(digest);
                observed.push(secs);
                if let Outcomes::Observed { snapshot: s, .. } = out {
                    snapshot = Some(s);
                }
            }
            if let Some((secs, digest, _)) =
                ledger.run_checked(w, "unobserved run", unobserved_first, || {
                    w.run_observation(false, false).0
                })
            {
                unobserved_first.get_or_insert(digest);
                unobserved.push(secs);
            }
            if let Some((_, profile)) =
                ledger.attempt("traced observed run", || w.run_observation(true, true).1)
            {
                observed_profiles.push(profile);
            }
        }
        match ledger.attempt("traced run", || w.run_traced(true)) {
            Some((secs, profile)) => {
                traced.push(secs);
                profiles.push(profile);
            }
            None if start.elapsed().as_secs_f64() >= budget => break,
            None => {}
        }
    }
    let events = profiles.first().map_or(0, |p| p.events);
    if profiles.iter().any(|p| p.events != events) {
        ledger.fail("traced runs dispatched different event counts".to_string());
    }

    let mut r = Report::default();
    let layer_of = |label: &str| {
        LAYERS
            .iter()
            .find(|(l, _)| *l == label)
            .map_or(OTHER_LAYER, |(_, layer)| layer)
    };
    let layer_names = LAYERS.iter().map(|(_, l)| *l).chain([OTHER_LAYER]);
    for layer in layer_names {
        // Per traced run: (events, self ns, fabric ns) summed over the
        // components reported under this layer. The flight recorder runs
        // only in the observed sweep.
        let source = if layer == "probe.recorder" {
            &observed_profiles
        } else {
            &profiles
        };
        let per_run: Vec<(u64, f64, f64)> = source
            .iter()
            .map(|p| {
                p.components
                    .iter()
                    .filter(|c| layer_of(&c.label) == layer)
                    .fold((0, 0.0, 0.0), |(e, s, f), c| {
                        (e + c.events, s + c.self_ns as f64, f + c.fabric_ns as f64)
                    })
            })
            .collect();
        let col = |pick: fn(&(u64, f64, f64)) -> f64| {
            median(&per_run.iter().map(pick).collect::<Vec<_>>())
        };
        r.add(&format!("{layer}.events"), col(|x| x.0 as f64), "count");
        r.add(&format!("{layer}.self_ms"), col(|x| x.1) / 1e6, "ms");
        r.add(&format!("{layer}.fabric_ms"), col(|x| x.2) / 1e6, "ms");
    }
    let dispatch_ns = median(
        &profiles
            .iter()
            .map(|p| p.unattributed_ns() as f64)
            .collect::<Vec<_>>(),
    );
    let fabric_ns = median(
        &profiles
            .iter()
            .map(|p| p.components.iter().map(|c| c.fabric_ns as f64).sum())
            .collect::<Vec<_>>(),
    );
    r.add("sim.events", events as f64, "count");
    r.add("sim.dispatch_ms", dispatch_ns / 1e6, "ms");
    r.add(
        "sim.dispatch_ns_per_event",
        dispatch_ns / events.max(1) as f64,
        "ns",
    );
    r.add("net.fabric_ms", fabric_ns / 1e6, "ms");
    // Host time a traced run spends outside `Engine::run`: building each
    // engine and its generated inputs (traces, catalogs) and collecting
    // the outcome.
    let outside_ns: Vec<f64> = traced
        .iter()
        .zip(&profiles)
        .map(|(secs, p)| secs * 1e9 - p.wall_ns as f64)
        .collect();
    r.add("core.outside_engine_ms", median(&outside_ns) / 1e6, "ms");

    // Timed calls into single layers, on the workload that exercises
    // each; 0 on the others.
    let mut queue = (0.0, 0.0);
    let mut transfer = 0.0;
    let mut pager = 0.0;
    let mut hash = 0.0;
    let mut probe = (0.0, 0.0, 0.0);
    match (w.kind, &last) {
        (Kind::ServePopulation, Some(Outcomes::Serve(outs))) => {
            let depth = layers::serve_pending_depth(outs, workload::SERVE_HORIZON);
            queue = (depth as f64, layers::queue_ns_per_op(args.seed, depth));
        }
        (Kind::ContentionCells, _) => {
            let spec = &w.scenario_specs()[0];
            let mut cluster = NowCluster::builder().nodes(32).seed(args.seed).build();
            transfer = layers::transfer_ns(args.seed, cluster.network_mut(), spec);
            pager = layers::pager_access_ns(spec);
            match &snapshot {
                Some(s) => probe = layers::probe_ns(args.seed, s),
                None => ledger.fail("no observed run completed to shape the probe calls".into()),
            }
        }
        (Kind::DistributeCold, _) => {
            let catalog = w
                .catalog()
                .expect("the distribution workload generates a catalog");
            let (ns, intact) = layers::hash_ns_per_kb(catalog);
            if !intact {
                ledger.fail("a catalog block does not hash to its address".to_string());
            }
            hash = ns;
        }
        _ => ledger.fail("no untraced run completed to shape the layer inputs".to_string()),
    }
    r.add("sim.queue_depth", queue.0, "count");
    r.add("sim.queue_ns_per_op", queue.1, "ns");
    r.add("net.transfer_ns", transfer, "ns");
    r.add("mem.pager_access_ns", pager, "ns");
    r.add("cas.hash_ns_per_kb", hash, "ns/KB");
    r.add("probe.count_ns", probe.0, "ns");
    r.add("probe.busy_ns", probe.1, "ns");
    r.add("probe.disabled_ns", probe.2, "ns");

    // Ratios of medians. The partitioned workload is traced one cell at a
    // time, so its tracing overhead is taken against the same cell runs
    // untraced.
    let ratio = |num: &[f64], den: &[f64]| {
        if num.is_empty() || den.is_empty() {
            0.0
        } else {
            median(num) / median(den)
        }
    };
    r.add("sim.partition.speedup", ratio(&serial, &untraced), "x");
    r.add("probe.overhead_x", ratio(&observed, &unobserved), "x");
    let trace_base = if w.kind == Kind::ContentionCells {
        &cells_untraced
    } else {
        &untraced
    };
    r.add("trace.overhead_x", ratio(&traced, trace_base), "x");
    r.add("trace.wall_ms", median(&traced) * 1e3, "ms");
    r.add("host.nproc", f64::from(nproc), "count");
    r.add("host.threads", f64::from(w.threads), "count");
    (r, events, first.unwrap_or(0))
}

/// Peak resident set of this process so far (`VmHWM`), in MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status for peak RSS: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}
