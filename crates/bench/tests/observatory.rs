//! End-to-end checks on the observatory surface: the Chrome trace export
//! parses as JSON with monotone timestamps, the `repro diff` regression
//! gate catches an injected regression with a nonzero exit, and `repro`
//! answers bad flags, bad environment values and unmergeable outputs with
//! exit code 2 and a message.

use std::process::Command;

use now_mem::multigrid::{self, MemoryConfig};
use now_probe::Registry;
use now_sim::SimTime;

/// Every `"ts":<number>` in emission order. The exporter writes one per
/// trace event, so the sequence is exactly the event timeline.
fn timestamps(trace: &str) -> Vec<f64> {
    let mut out = Vec::new();
    let mut rest = trace;
    while let Some(at) = rest.find("\"ts\":") {
        rest = &rest[at + 5..];
        let end = rest.find([',', '}']).expect("a ts field ends with , or }");
        out.push(rest[..end].parse().expect("ts is a number"));
        rest = &rest[end..];
    }
    out
}

#[test]
fn chrome_trace_parses_and_timestamps_are_monotone() {
    let registry = Registry::new();
    let probe = registry.probe();
    // A real span producer (the multigrid solver records one `mem` span
    // per run) plus hand-placed events at scattered sim times, so the
    // sorted export has distinct timestamps to order.
    multigrid::run(8, MemoryConfig::local32_disk(), &probe);
    for i in [7u64, 3, 11, 1, 9] {
        let at = SimTime::from_nanos(i * 1_000);
        probe.instant("test", "tick", at, &[("i", i as f64)]);
        probe
            .span("test", "work", at)
            .arg("i", i as f64)
            .end(SimTime::from_nanos(i * 1_000 + 500));
    }
    let trace = registry.chrome_trace();

    // The exporter hand-writes its JSON; the diff module's parser is an
    // independent implementation, so a clean parse is a real check.
    let parsed = now_probe::diff::parse(&trace);
    assert!(parsed.is_ok(), "chrome trace must parse: {parsed:?}");

    let ts = timestamps(&trace);
    assert!(
        ts.len() > 10,
        "an observed contention sweep must emit trace events, got {}",
        ts.len()
    );
    assert!(
        ts.windows(2).all(|w| w[0] <= w[1]),
        "trace timestamps must be sorted non-decreasing"
    );
    assert!(
        ts.iter().all(|t| t.is_finite() && *t >= 0.0),
        "timestamps are non-negative microseconds"
    );
}

/// A tiny metrics snapshot in the `--metrics-out` shape with one knob to
/// turn for injecting regressions.
fn snapshot(net_bytes: u64) -> String {
    format!(
        "{{\n  \"counters\": {{\n    \"net.bytes\": {net_bytes},\n    \
         \"pager.faults\": 120\n  }},\n  \"trace_dropped\": 0\n}}\n"
    )
}

fn run_diff(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .arg("diff")
        .args(args)
        .output()
        .expect("repro diff runs");
    (
        out.status.code().expect("repro diff exits"),
        String::from_utf8(out.stdout).expect("utf-8 stdout"),
    )
}

#[test]
fn repro_diff_gates_an_injected_regression() {
    let dir = std::env::temp_dir();
    let base = dir.join("now_observatory_base.json");
    let same = dir.join("now_observatory_same.json");
    let worse = dir.join("now_observatory_worse.json");
    std::fs::write(&base, snapshot(1_000_000)).unwrap();
    std::fs::write(&same, snapshot(1_000_000)).unwrap();
    // 12% more bytes on the wire: past the 10% default threshold.
    std::fs::write(&worse, snapshot(1_120_000)).unwrap();

    let (code, stdout) = run_diff(&[base.to_str().unwrap(), same.to_str().unwrap()]);
    assert_eq!(code, 0, "identical snapshots are clean: {stdout}");
    assert!(stdout.contains("all within"), "{stdout}");

    let (code, stdout) = run_diff(&[base.to_str().unwrap(), worse.to_str().unwrap()]);
    assert_eq!(code, 1, "a 12% regression must fail the gate: {stdout}");
    assert!(
        stdout.contains("counters.net.bytes"),
        "the report names the regressed key: {stdout}"
    );
    assert!(stdout.contains("+12.0"), "{stdout}");

    // A looser threshold waves the same delta through.
    let (code, _) = run_diff(&[
        base.to_str().unwrap(),
        worse.to_str().unwrap(),
        "--threshold",
        "0.2",
    ]);
    assert_eq!(code, 0, "12% is clean under a 20% threshold");

    // Ignored keys never regress.
    let (code, _) = run_diff(&[
        base.to_str().unwrap(),
        worse.to_str().unwrap(),
        "--ignore",
        "net.bytes",
    ]);
    assert_eq!(code, 0, "ignored keys are skipped");
}

#[test]
fn repro_diff_usage_errors_exit_two() {
    let (code, _) = run_diff(&["/nonexistent-only-one-path.json"]);
    assert_eq!(code, 2, "one path is a usage error");
    let out = Command::new(env!("CARGO_BIN_EXE_repro"))
        .args(["diff", "--bogus-flag", "a.json", "b.json"])
        .output()
        .expect("repro diff runs");
    assert_eq!(out.status.code(), Some(2), "unknown flags are usage errors");
}

/// Every flag `repro --help` must list.
const HELP_FLAGS: &[&str] = &[
    "--fast",
    "--smoke",
    "--blame",
    "--jobs N",
    "--partitions N",
    "--nodes N",
    "--am-batch N",
    "--metrics[=FMT]",
    "--metrics-out PATH",
    "--util",
    "--profile",
    "--profile-out PATH",
    "--trace-out PATH",
    "--timeseries-out PATH",
    "--help",
    "--threshold X",
    "--ignore SUBSTR",
];

/// Every scenario `repro --help` must list.
const HELP_SCENARIOS: &[&str] = &[
    "table1",
    "table2",
    "table3",
    "table4",
    "fig1",
    "fig2",
    "fig3",
    "fig4",
    "nfs",
    "comm",
    "restore",
    "contention",
    "availability",
    "serve",
    "distribute",
    "ablations",
];

/// One CLI contract case: (args, environment, exit code, stderr substring).
type Case<'a> = (&'a [&'a str], &'a [(&'a str, &'a str)], i32, &'a str);

#[test]
fn repro_cli_contract_holds() {
    let mismatch = std::env::temp_dir().join("now_cli_mismatched_series.csv");
    let mismatch = mismatch.to_str().expect("utf-8 temp dir");
    // Only the time-series case runs reports; every other case stops at
    // parsing.
    let cases: &[Case] = &[
        (&["--bogus"], &[], 2, "unknown flag \"--bogus\""),
        (&["tabel9"], &[], 2, "unknown scenario \"tabel9\""),
        (
            &["--jobs", "0"],
            &[],
            2,
            "--jobs needs a positive worker count",
        ),
        (&["--jobs"], &[], 2, "--jobs needs a positive worker count"),
        (
            &["--jobs=x"],
            &[],
            2,
            "--jobs needs a positive worker count, got \"x\"",
        ),
        (
            &["--nodes", "33"],
            &[],
            2,
            "--nodes needs a positive multiple of 32",
        ),
        (
            &["--partitions", "x"],
            &[],
            2,
            "--partitions needs a partition count (0 = one per core)",
        ),
        (
            &["--am-batch=-1"],
            &[],
            2,
            "--am-batch needs a flush quantum in microseconds, got \"-1\"",
        ),
        (
            &["--metrics=xml"],
            &[],
            2,
            "unknown metrics format \"xml\" (want text, csv, or json)",
        ),
        (
            &["--metrics-out"],
            &[],
            2,
            "--metrics-out needs a file path",
        ),
        (
            &["--profile-out"],
            &[],
            2,
            "--profile-out needs a file path",
        ),
        (&["--trace-out"], &[], 2, "--trace-out needs a file path"),
        (
            &["--timeseries-out"],
            &[],
            2,
            "--timeseries-out needs a file path",
        ),
        (
            &["--bench-out", "b.json"],
            &[],
            2,
            "unknown flag \"--bench-out\"",
        ),
        (
            &["table1"],
            &[("NOW_JOBS", "0")],
            2,
            "NOW_JOBS needs a positive worker count, got \"0\"",
        ),
        (
            &["table1"],
            &[("NOW_JOBS", "abc")],
            2,
            "NOW_JOBS needs a positive worker count, got \"abc\"",
        ),
        (
            &["table1"],
            &[("NOW_PARTITIONS", "abc")],
            2,
            "NOW_PARTITIONS needs a partition count, got \"abc\"",
        ),
        // The flag wins, so its variable is never read.
        (&["table1", "--jobs", "2"], &[("NOW_JOBS", "abc")], 0, ""),
        (
            &[
                "contention",
                "distribute",
                "--smoke",
                "--timeseries-out",
                mismatch,
            ],
            &[],
            2,
            "records different gauge columns than series \"flows=0\"",
        ),
        (
            &["diff", "one.json"],
            &[],
            2,
            "repro diff needs exactly two snapshot paths",
        ),
        (
            &["diff", "a.json", "b.json", "--threshold=-1"],
            &[],
            2,
            "--threshold needs a non-negative relative delta, got \"-1\"",
        ),
        (&["--help"], &[], 0, ""),
        (&["diff", "--help"], &[], 0, ""),
    ];
    for &(args, env, code, stderr) in cases {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_repro"));
        cmd.args(args)
            .env_remove("NOW_JOBS")
            .env_remove("NOW_PARTITIONS");
        for &(key, value) in env {
            cmd.env(key, value);
        }
        let out = cmd.output().expect("repro runs");
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(
            out.status.code(),
            Some(code),
            "{args:?} with {env:?}: stderr\n{err}"
        );
        assert!(
            err.contains(stderr),
            "{args:?} with {env:?}: stderr lacks {stderr:?}:\n{err}"
        );
        if args.contains(&"--help") {
            let help = String::from_utf8_lossy(&out.stdout);
            for item in HELP_FLAGS.iter().chain(HELP_SCENARIOS) {
                assert!(
                    help.lines().any(|l| l.trim_start().starts_with(item)),
                    "{args:?} does not list {item}:\n{help}"
                );
            }
        }
    }
}
