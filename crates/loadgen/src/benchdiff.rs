//! Report comparison and the SLO regression gate.
//!
//! [`diff`] parses two schema-versioned `nm-telemetry` reports (the
//! committed baseline and a fresh candidate — typically two
//! `BENCH_serve.json` files), pairs up their histograms and gauges, and
//! flags every histogram whose candidate p99 exceeds `max_ratio` times
//! the baseline p99 *after* host-speed normalization: when both reports
//! carry the `slo.machine_scale` calibration gauge, the p99 ratio is
//! divided by the scale ratio so a slower CI box is not mistaken for a
//! regression.

use crate::names;
use nm_telemetry::json::{self, Value};
use std::collections::BTreeMap;

/// Highest allowed normalized candidate/baseline p99 ratio before a
/// histogram counts as regressed.
pub const DEFAULT_MAX_RATIO: f64 = 2.0;

/// Why a comparison could not run. The CLI maps `Parse`/`Schema` to the
/// usage exit code — both mean "these are not two comparable reports".
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DiffError {
    /// A file was not valid JSON.
    Parse(String),
    /// A file parsed but is not a comparable metrics report (missing
    /// sections, wrong types, or an unexpected `schema_version`).
    Schema(String),
}

impl std::fmt::Display for DiffError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DiffError::Parse(msg) => write!(f, "report is not valid JSON: {msg}"),
            DiffError::Schema(msg) => write!(f, "report is not comparable: {msg}"),
        }
    }
}

impl std::error::Error for DiffError {}

/// One compared histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramDiff {
    /// Histogram name.
    pub name: String,
    /// Baseline p99 (seconds).
    pub base_p99: f64,
    /// Candidate p99 (seconds).
    pub cand_p99: f64,
    /// Candidate/baseline p99 ratio after machine-scale normalization.
    pub ratio: f64,
    /// Whether `ratio` exceeds the configured maximum.
    pub regressed: bool,
}

/// One compared gauge (informational — gauges never gate).
#[derive(Debug, Clone, PartialEq)]
pub struct GaugeDiff {
    /// Gauge name.
    pub name: String,
    /// Baseline value.
    pub base: f64,
    /// Candidate value.
    pub cand: f64,
}

/// The full comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// Candidate/baseline host-speed ratio applied to every p99 ratio
    /// (`1.0` when either report lacks the calibration gauge).
    pub machine_scale: f64,
    /// Histograms present in both reports, in name order.
    pub histograms: Vec<HistogramDiff>,
    /// Gauges present in both reports, in name order.
    pub gauges: Vec<GaugeDiff>,
}

impl DiffReport {
    /// Number of regressed histograms.
    pub fn regressions(&self) -> usize {
        self.histograms.iter().filter(|h| h.regressed).count()
    }
}

/// Compares two rendered report documents.
///
/// # Errors
///
/// [`DiffError::Parse`] when either document is not JSON;
/// [`DiffError::Schema`] when either is not a
/// `schema_version`-compatible metrics report.
pub fn diff(baseline: &str, candidate: &str, max_ratio: f64) -> Result<DiffReport, DiffError> {
    let base = parse_report(baseline, "baseline")?;
    let cand = parse_report(candidate, "candidate")?;

    let machine_scale = match (
        base.gauges.get(names::SLO_MACHINE_SCALE),
        cand.gauges.get(names::SLO_MACHINE_SCALE),
    ) {
        (Some(&b), Some(&c)) if b > 0.0 && c > 0.0 => c / b,
        _ => 1.0,
    };

    let mut histograms = Vec::new();
    for (name, base_p99) in &base.p99s {
        let Some(&cand_p99) = cand.p99s.get(name) else {
            continue;
        };
        // A zero or absent baseline p99 cannot define a ratio — typical
        // for empty histograms; skip rather than divide by zero.
        if *base_p99 <= 0.0 {
            continue;
        }
        let ratio = (cand_p99 / base_p99) / machine_scale;
        histograms.push(HistogramDiff {
            name: name.clone(),
            base_p99: *base_p99,
            cand_p99,
            ratio,
            regressed: ratio > max_ratio,
        });
    }

    let mut gauges = Vec::new();
    for (name, &b) in &base.gauges {
        if let Some(&c) = cand.gauges.get(name) {
            gauges.push(GaugeDiff {
                name: name.clone(),
                base: b,
                cand: c,
            });
        }
    }

    Ok(DiffReport {
        machine_scale,
        histograms,
        gauges,
    })
}

struct ParsedReport {
    p99s: BTreeMap<String, f64>,
    gauges: BTreeMap<String, f64>,
}

fn numeric(value: &Value) -> Option<f64> {
    match value {
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        Value::F64(n) => Some(*n),
        _ => None,
    }
}

fn parse_report(text: &str, which: &str) -> Result<ParsedReport, DiffError> {
    let value = json::parse(text).map_err(|e| DiffError::Parse(format!("{which}: {e}")))?;
    let schema = value
        .get("schema_version")
        .and_then(numeric)
        .ok_or_else(|| DiffError::Schema(format!("{which}: missing schema_version")))?;
    let expected = nm_telemetry::SCHEMA_VERSION as f64;
    if schema.total_cmp(&expected).is_ne() {
        return Err(DiffError::Schema(format!(
            "{which}: schema_version {schema} (expected {expected})"
        )));
    }
    let histograms = value
        .get("histograms")
        .and_then(Value::as_object)
        .ok_or_else(|| DiffError::Schema(format!("{which}: missing histograms section")))?;
    let mut p99s = BTreeMap::new();
    for (name, entry) in histograms {
        let p99 = entry.get("p99").and_then(numeric).ok_or_else(|| {
            DiffError::Schema(format!("{which}: histogram {name:?} has no numeric p99"))
        })?;
        p99s.insert(name.clone(), p99);
    }
    let gauge_pairs = value
        .get("gauges")
        .and_then(Value::as_object)
        .ok_or_else(|| DiffError::Schema(format!("{which}: missing gauges section")))?;
    let mut gauges = BTreeMap::new();
    for (name, entry) in gauge_pairs {
        // Non-finite gauges render as JSON null; skip them.
        if let Some(v) = numeric(entry) {
            gauges.insert(name.clone(), v);
        }
    }
    Ok(ParsedReport { p99s, gauges })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(p99s: &[(&str, f64)], scale: Option<f64>) -> String {
        let mut hists = String::new();
        for (i, (name, p99)) in p99s.iter().enumerate() {
            if i > 0 {
                hists.push(',');
            }
            hists.push_str(&format!(
                "\"{name}\": {{\"count\": 10, \"sum\": 1.0, \"min\": 0.001, \
                 \"max\": {p99}, \"mean\": 0.1, \"p50\": 0.001, \"p95\": {p99}, \
                 \"p99\": {p99}}}"
            ));
        }
        let gauges = match scale {
            Some(s) => format!("{{\"slo.machine_scale\": {s}}}"),
            None => "{}".to_owned(),
        };
        format!(
            "{{\"schema_version\": {}, \"generator\": \"nm-telemetry\", \
             \"notes\": {{}}, \"counters\": {{}}, \"gauges\": {gauges}, \
             \"spans\": {{}}, \"histograms\": {{{hists}}}, \"sweeps\": []}}",
            nm_telemetry::SCHEMA_VERSION
        )
    }

    #[test]
    fn self_comparison_never_regresses() {
        let doc = report(&[("a.latency", 0.5), ("b.latency", 0.01)], Some(0.02));
        let out = diff(&doc, &doc, DEFAULT_MAX_RATIO).expect("diff");
        assert_eq!(out.regressions(), 0);
        assert_eq!(out.histograms.len(), 2);
        assert!(out.machine_scale.total_cmp(&1.0).is_eq());
    }

    #[test]
    fn three_x_p99_regression_is_flagged() {
        let base = report(&[("a.latency", 0.1)], None);
        let cand = report(&[("a.latency", 0.3)], None);
        let out = diff(&base, &cand, DEFAULT_MAX_RATIO).expect("diff");
        assert_eq!(out.regressions(), 1);
        assert!(out.histograms[0].regressed);
        assert!((out.histograms[0].ratio - 3.0).abs() < 1e-12);
    }

    #[test]
    fn machine_scale_normalizes_a_uniformly_slower_host() {
        // Candidate host is 3x slower: both the p99 and the calibration
        // probe tripled, so the normalized ratio is 1 — no regression.
        let base = report(&[("a.latency", 0.1)], Some(0.01));
        let cand = report(&[("a.latency", 0.3)], Some(0.03));
        let out = diff(&base, &cand, DEFAULT_MAX_RATIO).expect("diff");
        assert_eq!(out.regressions(), 0);
        assert!((out.histograms[0].ratio - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_baseline_p99_is_skipped_not_divided() {
        let base = report(&[("a.latency", 0.0)], None);
        let cand = report(&[("a.latency", 0.3)], None);
        let out = diff(&base, &cand, DEFAULT_MAX_RATIO).expect("diff");
        assert!(out.histograms.is_empty());
    }

    #[test]
    fn malformed_and_mismatched_reports_are_rejected() {
        let good = report(&[], None);
        assert!(matches!(
            diff("not json", &good, DEFAULT_MAX_RATIO),
            Err(DiffError::Parse(_))
        ));
        assert!(matches!(
            diff("{}", &good, DEFAULT_MAX_RATIO),
            Err(DiffError::Schema(_))
        ));
        let old = good.replace(
            &format!("\"schema_version\": {}", nm_telemetry::SCHEMA_VERSION),
            "\"schema_version\": 1",
        );
        assert!(matches!(
            diff(&old, &good, DEFAULT_MAX_RATIO),
            Err(DiffError::Schema(_))
        ));
    }

    #[test]
    fn a_non_finite_p99_is_a_parse_error_not_a_nan_ratio() {
        let good = report(&[("a.latency", 0.1)], None);
        let huge = good.replace("\"p99\": 0.1", "\"p99\": 1e400");
        assert_ne!(huge, good);
        assert!(matches!(
            diff(&good, &huge, DEFAULT_MAX_RATIO),
            Err(DiffError::Parse(_))
        ));
    }
}
