//! A tiny-size pass of every workload: every metric `BENCHMARK.json`
//! names is reported with its unit, and the result line parses. A
//! corrupted ledger must count as a failure.

use e2ebench::{run, work_dir, Fault, RunConfig, RunReport, WORKLOADS};
use wf_platform::store::JsonValue;

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = JsonValue::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(JsonValue::as_arr)
        .expect("section is a list")
        .iter()
        .map(|m| {
            let field = |k| {
                m.get(k)
                    .and_then(JsonValue::as_str)
                    .expect("name and unit")
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn tiny_run(name: &str, trace: bool, fault: Option<Fault>) -> RunReport {
    let workload = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .expect("workload")
        .tiny();
    run(&RunConfig {
        workload,
        seed: 3,
        seconds: 0.0,
        trace,
        work_dir: work_dir().join(format!("test-{name}-{trace}-{}", fault.is_some())),
        fault,
    })
}

fn assert_reports(report: &RunReport, expected: &[(String, String)], what: &str) {
    assert!(report.correct(), "{what}: {:?}", report.notes);
    assert!(report.attempted >= 1);
    let doc = JsonValue::parse(&report.json()).expect("the result line parses");
    let metrics = match doc.get("metrics") {
        Some(JsonValue::Obj(pairs)) => pairs.clone(),
        other => panic!("{what}: metrics is not an object: {other:?}"),
    };
    let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
    let wanted: Vec<&str> = expected.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(names, wanted, "{what}: metric names");
    for ((name, m), (_, unit)) in metrics.iter().zip(expected) {
        assert_eq!(
            m.get("unit").and_then(JsonValue::as_str),
            Some(unit.as_str()),
            "{what}: {name}"
        );
        let value = m.get("value").and_then(JsonValue::as_f64);
        assert!(
            value.is_some_and(f64::is_finite),
            "{what}: {name} = {value:?}"
        );
    }
}

#[test]
fn every_workload_reports_every_metric_with_its_unit() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    for w in WORKLOADS {
        assert_reports(&tiny_run(w.name, false, None), &end_to_end, w.name);
        assert_reports(&tiny_run(w.name, true, None), &per_layer, w.name);
    }
}

#[test]
fn a_corrupted_ledger_counts_as_an_error() {
    let report = tiny_run("store-riscv", false, Some(Fault::CorruptLedger));
    assert!(!report.correct());
    assert!(report.failed >= 1 && report.failed <= report.attempted);
    assert!(
        report
            .notes
            .iter()
            .any(|n| n.contains("FAILED phase verify")),
        "{:?}",
        report.notes
    );
}
