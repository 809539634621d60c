//! The D1–D6 ruleset encoding this repository's reproducibility
//! invariants.
//!
//! | id | invariant |
//! |----|-----------|
//! | D1 | float ordering goes through `total_cmp`: no `partial_cmp` call sites, no `==`/`!=` against float literals |
//! | D2 | panic-freedom in library code: no `.unwrap()` / `.expect()` / `panic!` family outside tests/benches |
//! | D3 | no wall clocks in result-producing crates: `Instant::now` / `SystemTime` live in `nm-telemetry` only |
//! | D4 | no `HashMap`/`HashSet` in library code: iteration order feeds output paths, use `BTreeMap`/`BTreeSet` |
//! | D5 | all parallelism goes through the bounded executor: no thread spawns outside `nm-sweep` |
//! | D6 | every telemetry name literal (and `names.rs` const) appears in `telemetry_names.txt`, and vice versa |
//!
//! Rules are lexical: they match token patterns from [`crate::lexer`]
//! scoped by [`crate::scope`]. What a lexical pass cannot prove (a
//! `HashMap` that is genuinely never iterated, a documented panicking
//! wrapper) is exempted per site through the fingerprinted
//! [`crate::allowlist`], never silently.

use crate::allowlist::fingerprint;
use crate::scope::{FileKind, SourceFile};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

/// Identifier of one rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum RuleId {
    /// Float ordering must use `total_cmp`.
    D1,
    /// No panics in library code.
    D2,
    /// No wall clocks outside `nm-telemetry`.
    D3,
    /// No hash-ordered containers in library code.
    D4,
    /// No thread spawns outside `nm-sweep`.
    D5,
    /// Telemetry names match the committed manifest.
    D6,
}

impl RuleId {
    /// Every rule, in id order.
    pub const ALL: [RuleId; 6] = [
        RuleId::D1,
        RuleId::D2,
        RuleId::D3,
        RuleId::D4,
        RuleId::D5,
        RuleId::D6,
    ];

    /// The stable textual id (`"D1"` ...).
    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::D3 => "D3",
            RuleId::D4 => "D4",
            RuleId::D5 => "D5",
            RuleId::D6 => "D6",
        }
    }

    /// Parses `"D1"` ... `"D6"` (case-insensitive).
    pub fn from_name(name: &str) -> Option<RuleId> {
        RuleId::ALL
            .into_iter()
            .find(|r| r.as_str().eq_ignore_ascii_case(name))
    }

    /// One-line description for `--help`-ish output and reports.
    pub fn summary(self) -> &'static str {
        match self {
            RuleId::D1 => {
                "float ordering must use total_cmp (no partial_cmp, no == on float literals)"
            }
            RuleId::D2 => "no unwrap()/expect()/panic! in library code",
            RuleId::D3 => "no Instant::now/SystemTime outside nm-telemetry",
            RuleId::D4 => {
                "no HashMap/HashSet in library code (iteration order is nondeterministic)"
            }
            RuleId::D5 => "no thread spawns outside the bounded nm-sweep executor",
            RuleId::D6 => "telemetry names must match telemetry_names.txt (both directions)",
        }
    }

    /// The fix hint attached to this rule's findings.
    pub fn hint(self) -> &'static str {
        match self {
            RuleId::D1 => "use f64::total_cmp for ordering, or compare with an explicit tolerance; allowlist exact-representation checks",
            RuleId::D2 => "return a typed error (try_* API), recover (unwrap_or_else), or allowlist a documented invariant",
            RuleId::D3 => "route timing through nm_telemetry::Stopwatch so result paths never read a wall clock",
            RuleId::D4 => "use BTreeMap/BTreeSet, or sort before iterating and allowlist the site with a justification",
            RuleId::D5 => "fan work into nm_sweep::ParallelSweep; it bounds workers and keeps reduction order deterministic",
            RuleId::D6 => "add the name to telemetry_names.txt, or fix the typo'd literal / dead manifest entry",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One diagnostic produced by a rule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// The rule that fired.
    pub rule: RuleId,
    /// Workspace-relative path with forward slashes.
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// What was found, specifically.
    pub message: String,
    /// How to fix it.
    pub hint: &'static str,
    /// The allowlist fingerprint of this finding.
    pub fingerprint: String,
}

impl Finding {
    fn new(rule: RuleId, file: &SourceFile, line: u32, col: u32, message: String) -> Self {
        Finding {
            rule,
            path: file.rel_path.clone(),
            line,
            col,
            message,
            hint: rule.hint(),
            fingerprint: fingerprint(rule.as_str(), file.line(line)),
        }
    }
}

/// Telemetry function names whose first argument is a metric/span/note
/// name (matched only behind a `*telemetry::` path qualifier).
const TELEMETRY_NAME_FNS: [&str; 8] = [
    "span",
    "counter_add",
    "counter_inc",
    "counter_value",
    "set_gauge",
    "set_note",
    "observe_seconds",
    "observe",
];

/// Cross-file state for D6: the manifest and which names were seen.
#[derive(Debug, Default)]
pub struct ManifestState {
    /// Manifest name -> 1-based line in `telemetry_names.txt`.
    pub names: BTreeMap<String, u32>,
    /// Names referenced by a scanned literal or `names.rs` const.
    pub used: BTreeSet<String>,
}

impl ManifestState {
    /// Parses the manifest text (one name per line, `#` comments).
    pub fn parse(text: &str) -> Self {
        let mut names = BTreeMap::new();
        for (idx, raw) in text.lines().enumerate() {
            let name = raw.trim();
            if name.is_empty() || name.starts_with('#') {
                continue;
            }
            names.entry(name.to_owned()).or_insert(idx as u32 + 1);
        }
        ManifestState {
            names,
            used: BTreeSet::new(),
        }
    }

    /// Findings for manifest entries no scanned file references: the
    /// "other side" of the D6 loop. `manifest_path` is the
    /// workspace-relative path the findings should point at.
    pub fn dead_entries(&self, manifest_path: &str) -> Vec<Finding> {
        self.names
            .iter()
            .filter(|(name, _)| !self.used.contains(*name))
            .map(|(name, &line)| Finding {
                rule: RuleId::D6,
                path: manifest_path.to_owned(),
                line,
                col: 1,
                message: format!(
                    "manifest name {name:?} is referenced by no telemetry call site or names module"
                ),
                hint: RuleId::D6.hint(),
                fingerprint: fingerprint(RuleId::D6.as_str(), name),
            })
            .collect()
    }
}

/// Whether `rule` scans `file` at all, given this workspace's layout.
fn in_scope(rule: RuleId, file: &SourceFile) -> bool {
    let dir = file.crate_dir();
    match file.kind {
        FileKind::Test => false,
        FileKind::Bench | FileKind::Example => matches!(rule, RuleId::D5 | RuleId::D6),
        FileKind::Source => match rule {
            RuleId::D1 | RuleId::D2 | RuleId::D4 | RuleId::D6 => true,
            // Timing is nm-telemetry's job.
            RuleId::D3 => dir != "crates/telemetry",
            RuleId::D5 => dir != "crates/sweep",
        },
    }
}

/// Runs every enabled rule over one file.
pub fn scan_file(
    file: &SourceFile,
    rules: &[RuleId],
    manifest: &mut ManifestState,
) -> Vec<Finding> {
    let mut out = Vec::new();
    let enabled = |r: RuleId| rules.contains(&r) && in_scope(r, file);
    let toks = &file.tokens;

    for i in 0..toks.len() {
        if file.is_test_token(i) {
            continue;
        }
        let t = &toks[i];
        let at = |msg: String, rule: RuleId| Finding::new(rule, file, t.span.line, t.span.col, msg);

        // D1: `partial_cmp` call sites (not trait-impl definitions).
        if enabled(RuleId::D1)
            && t.is_ident("partial_cmp")
            && !matches!(prev_tok(toks, i, 1), Some(p) if p.is_ident("fn"))
        {
            out.push(at(
                "partial_cmp on floats is NaN-unsound for ordering; use total_cmp".into(),
                RuleId::D1,
            ));
        }
        // D1: `== 1.5` / `!= 0.0` float-literal equality.
        if enabled(RuleId::D1) && t.is_float_literal() && float_literal_compared(toks, i) {
            out.push(at(
                format!("equality comparison against float literal `{}`", t.text),
                RuleId::D1,
            ));
        }
        // D2: `.unwrap()` / `.expect(` and the panicking macros.
        if enabled(RuleId::D2) {
            let method = (t.is_ident("unwrap") || t.is_ident("expect"))
                && matches!(prev_tok(toks, i, 1), Some(p) if p.is_punct('.'))
                && matches!(toks.get(i + 1), Some(n) if n.is_punct('('));
            let mac = ["panic", "unreachable", "todo", "unimplemented"]
                .iter()
                .any(|m| t.is_ident(m))
                && matches!(toks.get(i + 1), Some(n) if n.is_punct('!'));
            if method {
                out.push(at(format!(".{}() in library code", t.text), RuleId::D2));
            } else if mac {
                out.push(at(format!("{}! in library code", t.text), RuleId::D2));
            }
        }
        // D3: `Instant::now` and any `SystemTime`.
        if enabled(RuleId::D3) {
            if t.is_ident("Instant")
                && matches!(toks.get(i + 1), Some(a) if a.is_punct(':'))
                && matches!(toks.get(i + 2), Some(b) if b.is_punct(':'))
                && matches!(toks.get(i + 3), Some(n) if n.is_ident("now"))
            {
                out.push(at("Instant::now outside nm-telemetry".into(), RuleId::D3));
            }
            if t.is_ident("SystemTime") {
                out.push(at("SystemTime outside nm-telemetry".into(), RuleId::D3));
            }
        }
        // D4: hash-ordered containers.
        if enabled(RuleId::D4) && (t.is_ident("HashMap") || t.is_ident("HashSet")) {
            out.push(at(
                format!("{} has nondeterministic iteration order", t.text),
                RuleId::D4,
            ));
        }
        // D5: thread creation outside the executor.
        if enabled(RuleId::D5) {
            let qualified = t.is_ident("thread")
                && matches!(toks.get(i + 1), Some(a) if a.is_punct(':'))
                && matches!(toks.get(i + 2), Some(b) if b.is_punct(':'))
                && matches!(toks.get(i + 3), Some(n) if n.is_ident("spawn") || n.is_ident("scope"));
            let method = t.is_ident("spawn")
                && matches!(prev_tok(toks, i, 1), Some(p) if p.is_punct('.'))
                && matches!(toks.get(i + 1), Some(n) if n.is_punct('('));
            if qualified {
                out.push(at(
                    "thread creation outside nm-sweep's bounded executor".into(),
                    RuleId::D5,
                ));
            } else if method {
                out.push(at(
                    ".spawn() outside nm-sweep's bounded executor".into(),
                    RuleId::D5,
                ));
            }
        }
        // D6: literal names at `*telemetry::fn("name", ...)` call sites.
        if enabled(RuleId::D6)
            && TELEMETRY_NAME_FNS.iter().any(|f| t.is_ident(f))
            && matches!(prev_tok(toks, i, 1), Some(a) if a.is_punct(':'))
            && matches!(prev_tok(toks, i, 2), Some(b) if b.is_punct(':'))
            && matches!(prev_tok(toks, i, 3), Some(q) if q.kind == crate::lexer::TokenKind::Ident
                && q.text.ends_with("telemetry"))
            && matches!(toks.get(i + 1), Some(n) if n.is_punct('('))
        {
            if let Some(name) = toks.get(i + 2).and_then(|a| a.str_value()) {
                if manifest.names.contains_key(&name) {
                    manifest.used.insert(name);
                } else {
                    out.push(at(
                        format!("telemetry name {name:?} is not in telemetry_names.txt"),
                        RuleId::D6,
                    ));
                }
            }
        }
        // D6: consts in a `names.rs` module must match the manifest.
        if enabled(RuleId::D6)
            && file.rel_path.ends_with("/names.rs")
            && t.is_ident("const")
            && !file.is_test_token(i)
        {
            if let Some(name_tok) = names_const_value(toks, i) {
                if let Some(name) = name_tok.str_value() {
                    if manifest.names.contains_key(&name) {
                        manifest.used.insert(name);
                    } else {
                        out.push(Finding::new(
                            RuleId::D6,
                            file,
                            name_tok.span.line,
                            name_tok.span.col,
                            format!("names-module const {name:?} is not in telemetry_names.txt"),
                        ));
                    }
                }
            }
        }
    }
    out
}

/// The `n`-th token before `i`, if any.
fn prev_tok(toks: &[crate::lexer::Token], i: usize, n: usize) -> Option<&crate::lexer::Token> {
    i.checked_sub(n).map(|j| &toks[j])
}

/// `true` when the float literal at `i` is an operand of `==` or `!=`
/// (an optional unary minus between the operator and the literal is
/// looked through).
fn float_literal_compared(toks: &[crate::lexer::Token], i: usize) -> bool {
    // `... == 1.5` / `... != -1.5`: look left, over one optional '-'.
    let mut j = i;
    if matches!(prev_tok(toks, j, 1), Some(p) if p.is_punct('-')) {
        j -= 1;
    }
    let left = matches!(prev_tok(toks, j, 1), Some(e) if e.is_punct('='))
        && matches!(prev_tok(toks, j, 2), Some(p) if p.is_punct('=') || p.is_punct('!'))
        // Exclude `<=` / `>=` (ordering, not equality) and plain `=`.
        && !matches!(prev_tok(toks, j, 2), Some(p) if p.is_punct('<') || p.is_punct('>'));
    // `1.5 == ...`: look right.
    let right = matches!(toks.get(i + 1), Some(p) if p.is_punct('=') || p.is_punct('!'))
        && matches!(toks.get(i + 2), Some(e) if e.is_punct('='));
    left || right
}

/// For `const NAME: &str = "value";` starting at the `const` keyword,
/// the string token holding the value (searched up to the terminating
/// `;`).
fn names_const_value(
    toks: &[crate::lexer::Token],
    const_idx: usize,
) -> Option<&crate::lexer::Token> {
    for t in toks.iter().skip(const_idx + 1).take(12) {
        if t.is_punct(';') {
            return None;
        }
        if t.kind == crate::lexer::TokenKind::Str {
            return Some(t);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(path: &str, src: &str) -> Vec<Finding> {
        let file = SourceFile::parse(path, src);
        let mut manifest = ManifestState::parse("eval.surface_hit\n");
        scan_file(&file, &RuleId::ALL, &mut manifest)
    }

    fn rules_of(findings: &[Finding]) -> Vec<RuleId> {
        findings.iter().map(|f| f.rule).collect()
    }

    #[test]
    fn d1_flags_calls_not_definitions() {
        let src = "fn f(a: f64, b: f64) { a.partial_cmp(&b); }\nimpl P for T { fn partial_cmp(&self, o: &T) -> O { x } }";
        let found = scan("crates/x/src/lib.rs", src);
        assert_eq!(rules_of(&found), [RuleId::D1]);
        assert_eq!(found[0].line, 1);
    }

    #[test]
    fn d1_flags_float_literal_equality_both_sides() {
        let found = scan(
            "crates/x/src/lib.rs",
            "fn f(x: f64) -> bool { x == 0.0 || 1.5 != x || x == -2.5 }",
        );
        assert_eq!(rules_of(&found), [RuleId::D1, RuleId::D1, RuleId::D1]);
        // Ordering comparisons and integer equality stay silent.
        assert!(scan(
            "crates/x/src/lib.rs",
            "fn f(x: f64, n: u32) -> bool { x >= 1.5 && x < 2.0 && n == 3 }"
        )
        .is_empty());
    }

    #[test]
    fn d2_flags_methods_and_macros_but_not_variants() {
        let src = "fn f() { x.unwrap(); y.expect(\"m\"); panic!(\"b\"); unreachable!(); z.unwrap_or(0); w.unwrap_or_else(|p| p); }";
        let found = scan("crates/x/src/lib.rs", src);
        assert_eq!(
            rules_of(&found),
            [RuleId::D2, RuleId::D2, RuleId::D2, RuleId::D2]
        );
    }

    #[test]
    fn d3_and_d5_fire_outside_their_home_crates() {
        let src = "fn f() { let t = Instant::now(); std::thread::spawn(|| {}); s.spawn(|| {}); }";
        let found = scan("crates/core/src/lib.rs", src);
        assert_eq!(rules_of(&found), [RuleId::D3, RuleId::D5, RuleId::D5]);
        // nm-sweep may spawn; nm-telemetry may read clocks.
        assert!(scan(
            "crates/sweep/src/lib.rs",
            "fn f() { std::thread::spawn(|| {}); }"
        )
        .is_empty());
        assert!(scan("crates/telemetry/src/span.rs", "fn f() { Instant::now(); }").is_empty());
    }

    #[test]
    fn d4_flags_hash_containers() {
        let found = scan(
            "crates/x/src/lib.rs",
            "use std::collections::HashMap;\nfn f() { let s: HashSet<u32> = HashSet::new(); }",
        );
        assert_eq!(found.len(), 3);
        assert!(found.iter().all(|f| f.rule == RuleId::D4));
    }

    #[test]
    fn d6_checks_call_sites_and_names_modules() {
        let src = "fn f() { nm_telemetry::counter_inc(\"eval.surface_hit\"); nm_telemetry::counter_inc(\"eval.typo\"); }";
        let file = SourceFile::parse("crates/x/src/lib.rs", src);
        let mut manifest = ManifestState::parse("eval.surface_hit\neval.dead\n");
        let found = scan_file(&file, &RuleId::ALL, &mut manifest);
        assert_eq!(rules_of(&found), [RuleId::D6]);
        assert!(found[0].message.contains("eval.typo"));
        assert!(manifest.used.contains("eval.surface_hit"));
        let dead = manifest.dead_entries("telemetry_names.txt");
        assert_eq!(dead.len(), 1);
        assert!(dead[0].message.contains("eval.dead"));
        assert_eq!(dead[0].line, 2);

        let names_src =
            "pub const HIT: &str = \"eval.surface_hit\";\npub const BAD: &str = \"eval.bogus\";";
        let names_file = SourceFile::parse("crates/x/src/names.rs", names_src);
        let mut manifest = ManifestState::parse("eval.surface_hit\n");
        let found = scan_file(&names_file, &RuleId::ALL, &mut manifest);
        assert_eq!(rules_of(&found), [RuleId::D6]);
        assert!(found[0].message.contains("eval.bogus"));
    }

    #[test]
    fn dynamic_names_and_unqualified_calls_are_ignored() {
        let src = "fn f(h: &str) { nm_telemetry::observe_seconds(h, 0.1); other::span(\"free\"); span(\"free\"); }";
        let file = SourceFile::parse("crates/x/src/lib.rs", src);
        let mut manifest = ManifestState::parse("");
        assert!(scan_file(&file, &RuleId::ALL, &mut manifest).is_empty());
    }

    #[test]
    fn test_regions_and_test_files_are_silent() {
        let src = "#[cfg(test)]\nmod tests { fn t() { x.unwrap(); a.partial_cmp(&b); } }";
        assert!(scan("crates/x/src/lib.rs", src).is_empty());
        assert!(scan("crates/x/tests/it.rs", "fn t() { x.unwrap(); }").is_empty());
        // Benches: D2/D3 do not apply, D5 does.
        let bench = "fn b() { let t = Instant::now(); x.unwrap(); std::thread::spawn(|| {}); }";
        let found = scan("crates/x/benches/b.rs", bench);
        assert_eq!(rules_of(&found), [RuleId::D5]);
    }
}
