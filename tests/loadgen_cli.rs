//! End-to-end tests of `nmcache loadgen` and `nmcache benchdiff`:
//! deterministic replay, the serve-report schema, the SLO regression
//! gate's exit-code contract, and the JSON reader the gate parses
//! reports with.

use nmcache::telemetry::json::{self, Value};
use proptest::prelude::*;
use std::path::Path;
use std::process::Command;
use std::sync::OnceLock;

fn nmcache() -> Command {
    Command::new(env!("CARGO_BIN_EXE_nmcache"))
}

fn temp_dir(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("nmcache-loadgen-{name}"));
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn run_loadgen(out: &Path, seed: &str) {
    let status = nmcache()
        .args(["loadgen", "--quick", "--queries", "24", "--seed", seed])
        .arg("--out")
        .arg(out)
        .status()
        .expect("binary runs");
    assert!(status.success());
}

fn section<'a>(doc: &'a Value, key: &str) -> &'a Value {
    doc.get(key)
        .unwrap_or_else(|| panic!("report missing section {key:?}"))
}

#[test]
fn loadgen_report_is_replay_deterministic_with_percentiles_per_class() {
    let dir = temp_dir("determinism");
    let a_path = dir.join("a.json");
    let b_path = dir.join("b.json");
    run_loadgen(&a_path, "2005");
    run_loadgen(&b_path, "2005");

    let a = json::parse(&std::fs::read_to_string(&a_path).expect("a.json")).expect("a parses");
    let b = json::parse(&std::fs::read_to_string(&b_path).expect("b.json")).expect("b parses");

    // Counters and the mix note are byte-identical across replays of
    // the same seed; only timing (gauges, histograms, spans) may move.
    assert_eq!(section(&a, "counters"), section(&b, "counters"));
    assert_eq!(
        section(&a, "notes").get("loadgen.mix"),
        section(&b, "notes").get("loadgen.mix")
    );
    assert_eq!(
        section(&a, "schema_version"),
        &Value::U64(nmcache::telemetry::SCHEMA_VERSION)
    );

    // Every query class publishes p50/p95/p99.
    let histograms = section(&a, "histograms");
    for class in ["cold", "warm", "tuple", "adversarial", "mixed"] {
        let hist = histograms
            .get(&format!("loadgen.latency.{class}"))
            .unwrap_or_else(|| panic!("missing histogram for class {class}"));
        for key in ["p50", "p95", "p99"] {
            let quantile = hist.get(key).unwrap_or_else(|| panic!("{class}/{key}"));
            assert!(
                matches!(quantile, Value::F64(v) if *v > 0.0),
                "{class}/{key}: {quantile:?}"
            );
        }
    }
}

#[test]
fn different_seeds_produce_different_mixes() {
    let dir = temp_dir("seeds");
    let a_path = dir.join("a.json");
    let b_path = dir.join("b.json");
    run_loadgen(&a_path, "1");
    run_loadgen(&b_path, "2");
    let a = json::parse(&std::fs::read_to_string(&a_path).expect("a.json")).expect("a parses");
    let b = json::parse(&std::fs::read_to_string(&b_path).expect("b.json")).expect("b parses");
    assert_ne!(
        section(&a, "notes").get("loadgen.mix"),
        section(&b, "notes").get("loadgen.mix")
    );
}

#[test]
fn benchdiff_self_comparison_exits_zero() {
    let dir = temp_dir("selfcompare");
    let path = dir.join("serve.json");
    run_loadgen(&path, "2005");
    let out = nmcache()
        .arg("benchdiff")
        .arg(&path)
        .arg(&path)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(0), "{:?}", out);
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("none regressed"), "{text}");
}

#[test]
fn benchdiff_flags_an_injected_p99_regression_with_exit_7() {
    let dir = temp_dir("regression");
    let base_path = dir.join("base.json");
    run_loadgen(&base_path, "2005");
    let base = std::fs::read_to_string(&base_path).expect("base.json");

    // Inject a 3x regression on every p99 by rescaling the candidate's
    // p99 fields (keeps the machine-scale gauge untouched, so the gate
    // sees a genuine slowdown rather than a slower host).
    // The writer puts each histogram's last key, `p99`, on a line of
    // its own.
    let mut injected = 0;
    let cand: Vec<String> = base
        .lines()
        .map(|line| match line.split_once("\"p99\": ") {
            Some((indent, p99)) => {
                let p99: f64 = p99.parse().expect("numeric p99");
                injected += 1;
                format!("{indent}\"p99\": {}", p99 * 3.0)
            }
            None => line.to_owned(),
        })
        .collect();
    assert!(injected > 0, "no p99 fields to inject into");
    let cand_path = dir.join("cand.json");
    std::fs::write(&cand_path, cand.join("\n")).expect("write cand");

    let out = nmcache()
        .arg("benchdiff")
        .arg(&base_path)
        .arg(&cand_path)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(7), "SLO regressions exit with 7");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("REGRESSED"), "{text}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("regressed past"), "{err}");
}

#[test]
fn benchdiff_rejects_malformed_and_missing_reports() {
    let dir = temp_dir("malformed");
    let good = dir.join("good.json");
    run_loadgen(&good, "2005");
    let bad = dir.join("bad.json");
    std::fs::write(&bad, "not json").expect("write bad");

    let out = nmcache()
        .arg("benchdiff")
        .arg(&good)
        .arg(&bad)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "malformed reports exit with 2");

    let out = nmcache()
        .arg("benchdiff")
        .arg(&good)
        .arg(dir.join("nonexistent.json"))
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(5), "missing files exit with 5");
}

#[test]
fn benchdiff_rejects_deep_nesting_as_invalid_json() {
    let dir = temp_dir("deep");
    let deep = dir.join("deep.json");
    let depth = 200_000;
    std::fs::write(&deep, format!("{}{}", "[".repeat(depth), "]".repeat(depth)))
        .expect("write deep");
    let out = nmcache()
        .arg("benchdiff")
        .arg(&deep)
        .arg(&deep)
        .output()
        .expect("binary runs");
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("report is not valid JSON"), "{err}");
}

/// A real `loadgen --quick` report, generated once per test binary.
fn quick_report() -> &'static str {
    static REPORT: OnceLock<String> = OnceLock::new();
    REPORT.get_or_init(|| {
        let path = temp_dir("mutation").join("report.json");
        run_loadgen(&path, "2005");
        std::fs::read_to_string(&path).expect("report.json")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// Every single-byte mutation of a real report either parses or
    /// returns a `JsonError` inside the text; none panics. Mutated bytes
    /// that break UTF-8 reach the reader as U+FFFD, as they would
    /// through a lossy read.
    #[test]
    fn json_reader_is_total_on_mutated_reports(at in any::<u64>(), byte in any::<u8>()) {
        let mut bytes = quick_report().as_bytes().to_vec();
        let at = (at % bytes.len() as u64) as usize;
        bytes[at] = byte;
        let mutated = String::from_utf8_lossy(&bytes);
        if let Err(e) = json::parse(&mutated) {
            prop_assert!(e.offset <= mutated.len(), "{e} past {}", mutated.len());
        }
    }
}

#[test]
fn json_reader_rejects_every_truncation_of_a_report() {
    let report = quick_report();
    assert!(json::parse(report).is_ok());
    // Only ASCII is written, so every length is a character boundary.
    for cut in 0..report.trim_end().len() {
        let err = json::parse(&report[..cut]).expect_err("a truncated report is not JSON");
        assert!(err.offset <= cut, "{err} past {cut}");
    }
}
