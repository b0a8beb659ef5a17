//! Quick-mode self-test of the benchmark against its manifest: every
//! workload `BENCHMARK.json` names, untraced and traced, must emit
//! exactly the metrics the manifest declares for that mode, each with
//! its declared unit, from correct runs; and every name must use only
//! `[A-Za-z0-9_.-]`.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::process::Command;

use now_probe::diff::{parse, Json};

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repository root");
    parse(&text).expect("BENCHMARK.json is valid JSON")
}

fn field<'a>(value: &'a Json, key: &str) -> &'a Json {
    match value {
        Json::Obj(fields) => fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("no {key:?} in {value:?}")),
        other => panic!("expected an object holding {key:?}, got {other:?}"),
    }
}

fn text(value: &Json) -> &str {
    match value {
        Json::Str(s) => s,
        other => panic!("expected a string, got {other:?}"),
    }
}

fn items(value: &Json) -> &[Json] {
    match value {
        Json::Arr(items) => items,
        other => panic!("expected an array, got {other:?}"),
    }
}

/// `name -> unit` for one metric section of the manifest.
fn declared(section: &str) -> BTreeMap<String, String> {
    items(field(&manifest(), section))
        .iter()
        .map(|m| {
            (
                text(field(m, "name")).to_string(),
                text(field(m, "unit")).to_string(),
            )
        })
        .collect()
}

/// Runs one quick-mode workload and returns its parsed result line.
fn run(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_now-perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", trace, "--quick"])
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout
        .lines()
        .last()
        .expect("the benchmark prints a result");
    parse(last).expect("the last line is one JSON object")
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    let manifest = manifest();
    let workloads: Vec<&str> = items(field(&manifest, "workloads"))
        .iter()
        .map(|w| text(field(w, "name")))
        .collect();
    assert_eq!(workloads.len(), 3, "the benchmark defines three workloads");
    for workload in workloads {
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(workload, trace);
            assert_eq!(field(&result, "correct"), &Json::Bool(true), "{workload}");
            assert_eq!(field(&result, "failed"), &Json::Num(0.0), "{workload}");
            assert!(matches!(field(&result, "attempted"), Json::Num(n) if *n >= 1.0));
            let Json::Obj(metrics) = field(&result, "metrics") else {
                panic!("metrics is an object");
            };
            let emitted: BTreeMap<String, String> = metrics
                .iter()
                .map(|(name, m)| {
                    assert!(
                        matches!(field(m, "value"), Json::Num(v) if v.is_finite()),
                        "{workload}: {name} has no numeric value"
                    );
                    (name.clone(), text(field(m, "unit")).to_string())
                })
                .collect();
            assert_eq!(emitted.len(), metrics.len(), "{workload}: a metric repeats");
            assert_eq!(
                emitted,
                declared(section),
                "{workload} --trace {trace} must emit exactly the {section} metrics"
            );
        }
    }
}

#[test]
fn names_use_only_the_allowed_characters() {
    let manifest = manifest();
    let mut names: Vec<String> = Vec::new();
    for section in ["workloads", "end_to_end", "per_layer"] {
        names.extend(
            items(field(&manifest, section))
                .iter()
                .map(|m| text(field(m, "name")).to_string()),
        );
    }
    for name in &names {
        let ok = name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'));
        assert!(
            ok,
            "metric or workload name {name:?} breaks the naming rule"
        );
    }
    let mut unique = names.clone();
    unique.sort();
    unique.dedup();
    assert_eq!(unique.len(), names.len(), "names must be unique");
}
