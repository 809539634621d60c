//! Integration tests of the unified telemetry layer: counter atomicity
//! under real `ParallelSweep` fan-out, drain/reset isolation, the
//! round-trip of the report JSON through the telemetry JSON reader, and
//! a golden study-run metrics report produced by the `nmcache` binary.

use nmcache::sweep::ParallelSweep;
use nmcache::telemetry;
use nmcache::telemetry::json::{self, Value};
use std::process::Command;
use std::sync::Mutex;

/// Serialises in-process tests that touch the process-global registry.
fn lock() -> std::sync::MutexGuard<'static, ()> {
    static LOCK: Mutex<()> = Mutex::new(());
    LOCK.lock().unwrap_or_else(|p| p.into_inner())
}

#[test]
fn counters_survive_parallel_sweep_fan_out_without_lost_updates() {
    let _guard = lock();
    telemetry::reset();
    telemetry::enable();
    let items: Vec<u64> = (0..512).collect();
    let results = ParallelSweep::new()
        .with_workers(8)
        .labeled("telemetry-fanout")
        .map(&items, |&x| {
            telemetry::counter_inc("test.fanout");
            x * 2
        });
    let snap = telemetry::drain();
    telemetry::disable();
    assert_eq!(results.len(), 512);
    // Every worker increment landed exactly once.
    assert_eq!(snap.counters["test.fanout"], 512);
    // The executor recorded its own counters and sweep entry too.
    assert_eq!(snap.counters["sweep.items"], 512);
    assert_eq!(snap.counters["sweep.faults"], 0);
    assert_eq!(snap.sweeps.len(), 1);
    assert_eq!(snap.sweeps[0].label, "telemetry-fanout");
    // Per-item latencies were observed for every item.
    assert_eq!(snap.histograms["sweep.item.telemetry-fanout"].count, 512);
}

#[test]
fn drain_isolates_regions_and_reset_clears() {
    let _guard = lock();
    telemetry::reset();
    telemetry::enable();
    telemetry::counter_inc("test.region");
    let first = telemetry::drain();
    assert_eq!(first.counters["test.region"], 1);
    // A fresh region starts empty.
    telemetry::counter_inc("test.region");
    telemetry::counter_inc("test.region");
    let second = telemetry::drain();
    assert_eq!(second.counters["test.region"], 2);
    // reset() discards without returning.
    telemetry::counter_inc("test.region");
    telemetry::reset();
    let third = telemetry::drain();
    telemetry::disable();
    assert!(third.counters.is_empty());
}

#[test]
fn report_json_round_trips_through_the_json_reader() {
    let _guard = lock();
    telemetry::reset();
    telemetry::enable();
    telemetry::counter_add("test.counter", 7);
    telemetry::set_gauge("test.gauge", 2.5);
    telemetry::set_note("test.note", "escaped \"quotes\" and\nnewline");
    telemetry::observe_seconds("test.hist", 0.004);
    {
        let _span = telemetry::span("test.span");
    }
    let report = telemetry::RunReport::from_snapshot(telemetry::drain());
    telemetry::disable();
    let json = report.to_json();

    let value = json::parse(&json).expect("report JSON parses");
    let get = |key: &str| {
        value
            .get(key)
            .unwrap_or_else(|| panic!("missing section {key:?}"))
    };
    assert_eq!(
        get("schema_version"),
        &Value::U64(telemetry::SCHEMA_VERSION)
    );
    assert_eq!(get("generator"), &Value::Str("nm-telemetry".into()));
    let counters = get("counters").as_object().expect("counters object");
    assert_eq!(counters[0], ("test.counter".into(), Value::U64(7)));
    assert_eq!(
        get("notes").get("test.note"),
        Some(&Value::Str("escaped \"quotes\" and\nnewline".into()))
    );
    let spans = get("spans").as_object().expect("spans object");
    assert_eq!(spans[0].0, "test.span");

    // The Chrome trace parses too.
    let trace = telemetry::report::chrome_trace_json(report.snapshot());
    let value = json::parse(&trace).expect("trace JSON parses");
    let events = value.get("traceEvents").and_then(Value::as_array);
    assert_eq!(events.map(<[_]>::len), Some(1));
}

#[test]
fn study_run_writes_a_golden_metrics_report() {
    let dir = std::env::temp_dir().join("nmcache-telemetry-golden");
    std::fs::create_dir_all(&dir).expect("temp dir");
    let metrics = dir.join("metrics.json");
    let trace = dir.join("trace.json");
    let out = Command::new(env!("CARGO_BIN_EXE_nmcache"))
        .args([
            "schemes",
            "--quick",
            "--steps",
            "2",
            "--metrics",
            metrics.to_str().unwrap(),
            "--trace-out",
            trace.to_str().unwrap(),
        ])
        .output()
        .expect("binary runs");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );

    let json = std::fs::read_to_string(&metrics).expect("metrics written");
    let value = json::parse(&json).expect("metrics JSON parses");
    let sections = value.as_object().expect("report is a JSON object");
    let keys: Vec<&str> = sections.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "schema_version",
            "generator",
            "notes",
            "counters",
            "gauges",
            "spans",
            "histograms",
            "sweeps"
        ],
        "stable section order"
    );
    let counter = |name: &str| match value.get("counters").and_then(|c| c.get(name)) {
        Some(Value::U64(n)) => *n,
        other => panic!("counter {name:?} not a number: {other:?}"),
    };
    // A healthy study builds surfaces and touches the memo cache...
    assert!(counter("eval.surface_built") > 0);
    assert!(counter("eval.front_built") > 0);
    assert!(counter("sweep.items") > 0);
    // ...and records zero fault-class events.
    assert_eq!(counter("sweep.faults"), 0);
    // The command note names the study.
    assert!(json.contains("\"command\": \"schemes\""), "{json}");

    // The Perfetto trace is valid JSON with at least one complete event.
    let trace_json = std::fs::read_to_string(&trace).expect("trace written");
    let value = json::parse(&trace_json).expect("trace JSON parses");
    let events = value.get("traceEvents").and_then(Value::as_array);
    assert!(events.is_some_and(|e| !e.is_empty()), "{events:?}");
    assert!(trace_json.contains("\"ph\": \"X\""));
}

#[test]
fn flags_off_produces_byte_identical_tables() {
    let run = || {
        let out = Command::new(env!("CARGO_BIN_EXE_nmcache"))
            .args(["schemes", "--quick", "--steps", "2"])
            .output()
            .expect("binary runs");
        assert!(out.status.success());
        out.stdout
    };
    // With no observability flag the registry never enables, so two runs
    // print byte-identical golden tables.
    assert_eq!(run(), run());
}
