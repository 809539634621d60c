//! File classification and `#[cfg(test)]` region detection.
//!
//! Rules do not see raw token streams: they see a [`SourceFile`] that
//! knows its path-derived role in the workspace (library source, bench,
//! example, ...) and, per token, whether it sits inside
//! a test-only region (`#[cfg(test)] mod ... { ... }`, `#[test] fn`).

use crate::lexer::{lex, Token};

/// Path-derived role of a source file in the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library or binary source under a `src/` directory.
    Source,
    /// A benchmark under a `benches/` directory.
    Bench,
    /// Example code under `examples/`.
    Example,
    /// Integration tests under a `tests/` directory (never scanned by
    /// the default walker, but classified for completeness).
    Test,
}

/// A lexed source file plus everything rules need to scope themselves.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the analysis root, with forward slashes.
    pub rel_path: String,
    /// Path-derived role.
    pub kind: FileKind,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// `in_test[i]` is `true` when `tokens[i]` lies inside a
    /// `#[cfg(test)]` / `#[test]` region.
    in_test: Vec<bool>,
    /// Source lines, for diagnostics and fingerprints.
    lines: Vec<String>,
}

impl SourceFile {
    /// Lexes `src` and computes test regions.
    pub fn parse(rel_path: &str, src: &str) -> Self {
        let tokens = lex(src);
        let in_test = test_regions(&tokens);
        SourceFile {
            rel_path: rel_path.to_owned(),
            kind: classify(rel_path),
            tokens,
            in_test,
            lines: src.lines().map(str::to_owned).collect(),
        }
    }

    /// `true` when token `i` is inside a test-only region.
    pub fn is_test_token(&self, i: usize) -> bool {
        self.in_test.get(i).copied().unwrap_or(false)
    }

    /// The 1-based source line, trimmed, for diagnostics ("" if out of
    /// range).
    pub fn line(&self, line: u32) -> &str {
        line.checked_sub(1)
            .and_then(|i| self.lines.get(i as usize))
            .map(|s| s.trim())
            .unwrap_or("")
    }

    /// The crate-ish prefix of the path: `crates/<name>` for workspace
    /// crates, `src` for the root binary, the first component otherwise.
    pub fn crate_dir(&self) -> &str {
        let p = &self.rel_path;
        if let Some(rest) = p.strip_prefix("crates/") {
            let end = rest.find('/').map(|i| i + 7).unwrap_or(p.len());
            &p[..end]
        } else {
            let end = p.find('/').unwrap_or(p.len());
            &p[..end]
        }
    }
}

/// Classifies a workspace-relative path.
pub fn classify(rel_path: &str) -> FileKind {
    let has = |dir: &str| {
        rel_path.starts_with(&format!("{dir}/")) || rel_path.contains(&format!("/{dir}/"))
    };
    if has("tests") {
        FileKind::Test
    } else if has("benches") {
        FileKind::Bench
    } else if has("examples") {
        FileKind::Example
    } else {
        FileKind::Source
    }
}

/// Marks every token inside a `#[cfg(test)]` or `#[test]` item.
///
/// Recognises an attribute whose tokens contain the ident `test` inside
/// a `cfg(...)` (covers `#[cfg(test)]`, `#[cfg(all(test, ...))]`) or
/// that is exactly `#[test]`, then marks the attribute and the item it
/// decorates — up to the matching `}` of the item's block, or the first
/// top-level `;` for block-less items like `use`.
fn test_regions(tokens: &[Token]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut i = 0;
    while i < tokens.len() {
        if !(tokens[i].is_punct('#') && matches!(tokens.get(i + 1), Some(t) if t.is_punct('['))) {
            i += 1;
            continue;
        }
        // Collect the attribute's token range [i, close].
        let Some(close) = matching_bracket(tokens, i + 1) else {
            break;
        };
        if !attr_is_test(&tokens[i + 2..close]) {
            i = close + 1;
            continue;
        }
        // Mark the attribute, any further attributes, and the item body.
        let mut j = close + 1;
        // Skip stacked attributes (`#[cfg(test)] #[allow(...)] mod t {`).
        while j < tokens.len()
            && tokens[j].is_punct('#')
            && matches!(tokens.get(j + 1), Some(t) if t.is_punct('['))
        {
            match matching_bracket(tokens, j + 1) {
                Some(c) => j = c + 1,
                None => break,
            }
        }
        // Find the end of the decorated item.
        let mut end = j;
        while end < tokens.len() {
            if tokens[end].is_punct(';') {
                break;
            }
            if tokens[end].is_punct('{') {
                end = matching_brace(tokens, end).unwrap_or(tokens.len() - 1);
                break;
            }
            end += 1;
        }
        let end = end.min(tokens.len() - 1);
        for m in mask.iter_mut().take(end + 1).skip(i) {
            *m = true;
        }
        i = end + 1;
    }
    mask
}

/// `true` when the attribute token slice marks test-only code.
fn attr_is_test(attr: &[Token]) -> bool {
    // Exactly `test` (i.e. `#[test]`).
    if attr.len() == 1 && attr[0].is_ident("test") {
        return true;
    }
    // `cfg( ... test ... )` with `test` as a bare ident somewhere inside.
    if attr.first().map(|t| t.is_ident("cfg")) == Some(true) {
        return attr.iter().any(|t| t.is_ident("test"));
    }
    false
}

/// Index of the `]` matching the `[` at `open`.
fn matching_bracket(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(']') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(tokens: &[Token], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (k, t) in tokens.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cfg_test_mod_is_masked_to_its_closing_brace() {
        let src = "fn lib() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n fn t() { y.unwrap(); }\n}\nfn tail() {}";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let unwraps: Vec<bool> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("unwrap"))
            .map(|(i, _)| f.is_test_token(i))
            .collect();
        assert_eq!(unwraps, [false, true]);
        // Code after the test module is live again.
        let tail = f.tokens.iter().position(|t| t.is_ident("tail"));
        assert!(matches!(tail, Some(i) if !f.is_test_token(i)));
    }

    #[test]
    fn test_attr_on_fn_and_stacked_attrs() {
        let src = "#[test]\n#[allow(dead_code)]\nfn check() { a.expect(\"x\"); }\nfn live() { b.expect(\"y\"); }";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let expects: Vec<bool> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("expect"))
            .map(|(i, _)| f.is_test_token(i))
            .collect();
        assert_eq!(expects, [true, false]);
    }

    #[test]
    fn cfg_feature_is_not_a_test_region() {
        let src = "#[cfg(feature = \"faultinject\")]\nfn inject() { panic!(\"boom\"); }";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let panic_idx = f.tokens.iter().position(|t| t.is_ident("panic"));
        assert!(matches!(panic_idx, Some(i) if !f.is_test_token(i)));
    }

    #[test]
    fn cfg_test_use_item_ends_at_semicolon() {
        let src =
            "#[cfg(test)]\nuse std::collections::HashMap;\nfn live() { let _ = HashMap::new(); }";
        let f = SourceFile::parse("crates/x/src/lib.rs", src);
        let maps: Vec<bool> = f
            .tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| t.is_ident("HashMap"))
            .map(|(i, _)| f.is_test_token(i))
            .collect();
        assert_eq!(maps, [true, false]);
    }

    #[test]
    fn classification_by_path() {
        assert_eq!(classify("crates/core/src/lib.rs"), FileKind::Source);
        assert_eq!(classify("crates/core/tests/golden.rs"), FileKind::Test);
        assert_eq!(classify("crates/x/benches/demo.rs"), FileKind::Bench);
        assert_eq!(classify("examples/demo.rs"), FileKind::Example);
        assert_eq!(classify("src/main.rs"), FileKind::Source);
    }

    #[test]
    fn crate_dir_extraction() {
        let f = SourceFile::parse("crates/sweep/src/lib.rs", "");
        assert_eq!(f.crate_dir(), "crates/sweep");
        let f = SourceFile::parse("src/main.rs", "");
        assert_eq!(f.crate_dir(), "src");
    }
}
