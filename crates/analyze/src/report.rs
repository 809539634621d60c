//! Rendering an [`Analysis`] for humans and machines.
//!
//! The human form is one diagnostic per line in the familiar
//! `path:line:col: RULE: message` shape, followed by the fix hint and
//! the finding's fingerprint. Printing the fingerprint is deliberate:
//! an exemption is authored by copying `RULE path fingerprint` straight
//! off the diagnostic into `analyze.allow`, so there is never a reason
//! to compute a hash by hand.
//!
//! The machine form is a schema-versioned JSON document rendered
//! through [`nm_telemetry::report::JsonWriter`], which keeps its
//! conventions (stable key order, `schema_version`, `generator`)
//! identical to every other machine-readable artifact in the
//! workspace.

use crate::Analysis;
use nm_telemetry::report::JsonWriter;

/// Schema version of the JSON findings report.
pub const SCHEMA_VERSION: u64 = 1;

/// Renders the human-readable report. Ends with a one-line summary;
/// clean runs produce just that line.
pub fn render_text(analysis: &Analysis) -> String {
    let mut out = String::new();
    for f in &analysis.findings {
        out.push_str(&format!(
            "{}:{}:{}: {}: {}\n",
            f.path,
            f.line,
            f.col,
            f.rule.as_str(),
            f.message
        ));
        out.push_str(&format!("    hint: {}\n", f.hint));
        out.push_str(&format!(
            "    allow: {} {} {}\n",
            f.rule.as_str(),
            f.path,
            f.fingerprint
        ));
    }
    for e in &analysis.stale {
        out.push_str(&format!(
            "analyze.allow:{}: stale entry `{}` matched nothing — the exempted code changed or moved; delete or re-fingerprint it\n",
            e.line, e
        ));
    }
    let total = analysis.findings.len();
    if analysis.is_clean() {
        out.push_str(&format!(
            "analyze: clean — {} file(s), {} rule(s), {} allowlisted site(s)\n",
            analysis.files_scanned,
            analysis.rules.len(),
            analysis.allowlisted
        ));
    } else {
        let per_rule: Vec<String> = analysis
            .counts()
            .into_iter()
            .filter(|(_, n)| *n > 0)
            .map(|(r, n)| format!("{r}:{n}"))
            .collect();
        out.push_str(&format!(
            "analyze: {} finding(s) [{}], {} stale allowlist entr{} — {} file(s) scanned\n",
            total,
            per_rule.join(" "),
            analysis.stale.len(),
            if analysis.stale.len() == 1 {
                "y"
            } else {
                "ies"
            },
            analysis.files_scanned
        ));
    }
    out
}

/// Renders the schema-versioned JSON findings report.
pub fn render_json(analysis: &Analysis) -> String {
    let mut w = JsonWriter::new();
    w.begin_object();
    w.key("schema_version");
    w.u64(SCHEMA_VERSION);
    w.key("generator");
    w.string("nm-analyze");
    w.key("rules");
    w.begin_array();
    for r in &analysis.rules {
        w.string(r.as_str());
    }
    w.end_array();
    w.key("files_scanned");
    w.u64(analysis.files_scanned as u64);
    w.key("allowlisted");
    w.u64(analysis.allowlisted as u64);
    w.key("findings");
    w.begin_array();
    for f in &analysis.findings {
        w.begin_object();
        w.key("rule");
        w.string(f.rule.as_str());
        w.key("path");
        w.string(&f.path);
        w.key("line");
        w.u64(u64::from(f.line));
        w.key("col");
        w.u64(u64::from(f.col));
        w.key("message");
        w.string(&f.message);
        w.key("hint");
        w.string(f.hint);
        w.key("fingerprint");
        w.string(&f.fingerprint);
        w.end_object();
    }
    w.end_array();
    w.key("stale_allowlist");
    w.begin_array();
    for e in &analysis.stale {
        w.begin_object();
        w.key("rule");
        w.string(&e.rule);
        w.key("path");
        w.string(&e.path);
        w.key("fingerprint");
        w.string(&e.fingerprint);
        w.key("allow_line");
        w.u64(u64::from(e.line));
        w.end_object();
    }
    w.end_array();
    w.key("summary");
    w.begin_object();
    for (rule, n) in analysis.counts() {
        w.key(rule);
        w.u64(n as u64);
    }
    w.end_object();
    w.end_object();
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allowlist::AllowEntry;
    use crate::rules::{Finding, RuleId};

    fn sample() -> Analysis {
        Analysis {
            findings: vec![Finding {
                rule: RuleId::D2,
                path: "crates/x/src/lib.rs".to_owned(),
                line: 10,
                col: 7,
                message: "`unwrap()` in library code".to_owned(),
                hint: RuleId::D2.hint(),
                fingerprint: "00112233aabbccdd".to_owned(),
            }],
            stale: vec![AllowEntry {
                rule: "D4".to_owned(),
                path: "crates/y/src/lib.rs".to_owned(),
                fingerprint: "ffeeddccbbaa9988".to_owned(),
                justification: "old".to_owned(),
                line: 4,
            }],
            allowlisted: 2,
            files_scanned: 9,
            rules: RuleId::ALL.to_vec(),
        }
    }

    #[test]
    fn text_report_carries_span_hint_and_copyable_allow_line() {
        let text = render_text(&sample());
        assert!(text.contains("crates/x/src/lib.rs:10:7: D2:"));
        assert!(text.contains("hint:"));
        assert!(text.contains("allow: D2 crates/x/src/lib.rs 00112233aabbccdd"));
        assert!(text.contains("analyze.allow:4: stale entry"));
        assert!(text.contains("1 finding(s) [D2:1], 1 stale allowlist entry"));
    }

    #[test]
    fn clean_run_is_one_summary_line() {
        let clean = Analysis {
            findings: Vec::new(),
            stale: Vec::new(),
            allowlisted: 3,
            files_scanned: 12,
            rules: vec![RuleId::D1, RuleId::D2],
        };
        let text = render_text(&clean);
        assert_eq!(text.lines().count(), 1);
        assert!(text.contains("clean"));
        assert!(text.contains("3 allowlisted"));
    }

    #[test]
    fn json_report_has_schema_and_stable_fields() {
        let json = render_json(&sample());
        assert!(json.starts_with('{'));
        assert!(json.contains("\"schema_version\": 1"));
        assert!(json.contains("\"generator\": \"nm-analyze\""));
        assert!(json.contains("\"files_scanned\": 9"));
        assert!(json.contains("\"fingerprint\": \"00112233aabbccdd\""));
        assert!(json.contains("\"stale_allowlist\""));
        assert!(json.contains("\"D2\": 1"));
        // Summary is zero-filled for all rules that ran.
        assert!(json.contains("\"D6\": 0"));
    }
}
