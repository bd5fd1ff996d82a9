//! Per-file analysis context: the lexed token stream plus the two overlays
//! every rule needs — which token ranges are test-only code, and which
//! lines carry `grub-lint: allow(...)` suppressions.

use std::path::{Path, PathBuf};

use crate::diag::{Diagnostic, Rule};
use crate::lexer::{lex, Comment, Lexed, Tok};

/// A parsed `// grub-lint: allow(<rule>[, <rule>...]) — <justification>`
/// directive.
#[derive(Clone, Debug)]
pub struct Suppression {
    /// 1-based line the comment starts on. The suppression covers
    /// diagnostics on this line and the next (trailing-comment and
    /// comment-above placement respectively).
    pub line: u32,
    /// The rules it suppresses.
    pub rules: Vec<Rule>,
}

/// One source file ready for rule passes.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root (used in diagnostics).
    pub rel_path: PathBuf,
    /// The workspace crate this file belongs to (`"chain"`, `"core"`, ...),
    /// or `""` for files outside `crates/` (the umbrella `src/`, `tests/`,
    /// `examples/`).
    pub crate_name: String,
    /// Token stream + comment channel.
    pub lexed: Lexed,
    /// Half-open line ranges `[start, end]` (inclusive) of test-only code:
    /// items annotated `#[cfg(test)]` or `#[test]`.
    pub test_line_ranges: Vec<(u32, u32)>,
    /// Parsed suppression directives.
    pub suppressions: Vec<Suppression>,
    /// Diagnostics for malformed suppression comments, reported alongside
    /// rule findings.
    pub suppression_diags: Vec<Diagnostic>,
}

impl SourceFile {
    /// Lexes `source` and computes the overlays.
    pub fn parse(rel_path: &Path, crate_name: &str, source: &str) -> SourceFile {
        let lexed = lex(source);
        let test_line_ranges = test_line_ranges(&lexed.toks);
        let (suppressions, suppression_diags) = parse_suppressions(rel_path, &lexed.comments);
        SourceFile {
            rel_path: rel_path.to_path_buf(),
            crate_name: crate_name.to_string(),
            lexed,
            test_line_ranges,
            suppressions,
            suppression_diags,
        }
    }

    /// Whether `line` falls inside a `#[cfg(test)]` / `#[test]` item.
    pub fn in_test_code(&self, line: u32) -> bool {
        self.test_line_ranges
            .iter()
            .any(|&(lo, hi)| (lo..=hi).contains(&line))
    }

    /// Whether a diagnostic of `rule` on `line` is covered by a
    /// suppression (same line for trailing comments, previous line for a
    /// comment of its own above the code).
    pub fn suppressed(&self, rule: Rule, line: u32) -> bool {
        self.suppressions
            .iter()
            .any(|s| (s.line == line || s.line + 1 == line) && s.rules.contains(&rule))
    }

    /// Emits `diag` unless the line is test code or suppressed.
    pub fn push_checked(&self, out: &mut Vec<Diagnostic>, rule: Rule, line: u32, message: String) {
        if self.in_test_code(line) || self.suppressed(rule, line) {
            return;
        }
        out.push(Diagnostic {
            rule,
            path: self.rel_path.clone(),
            line,
            message,
        });
    }
}

/// Finds line ranges of items annotated `#[cfg(test)]` or `#[test]`.
///
/// Works on the token stream: after such an attribute, any further
/// attributes are skipped, then the item extends to its matching closing
/// brace (brace matching on tokens is immune to braces in strings or
/// comments, which the lexer already removed), or to the first `;` for
/// brace-less items like `#[cfg(test)] use …;`. A file that opens with an
/// inner `#![cfg(test)]` (a test-only module kept in its own file, declared
/// `#[cfg(test)] mod name;` by its parent) is test code throughout.
fn test_line_ranges(toks: &[Tok]) -> Vec<(u32, u32)> {
    let mut ranges = Vec::new();
    let mut i = 0usize;
    // The file's leading inner attributes: `#` `!` `[` body `]`.
    while i + 2 < toks.len() && toks[i].is_punct("#") && toks[i + 1].is_punct("!") {
        let body_start = i + 3;
        let j = attr_end(toks, body_start);
        let body = &toks[body_start..j.saturating_sub(1)];
        if body.first().is_some_and(|t| t.is_ident("cfg"))
            && body.iter().any(|t| t.is_ident("test"))
        {
            return vec![(1, u32::MAX)];
        }
        i = j;
    }
    while i < toks.len() {
        if !toks[i].is_punct("#") {
            i += 1;
            continue;
        }
        let attr_start_line = toks[i].line;
        // `#[` or `#![` — inner attributes can't mark items, skip those.
        let mut j = i + 1;
        if j < toks.len() && toks[j].is_punct("!") {
            i = j + 1;
            continue;
        }
        if j >= toks.len() || !toks[j].is_punct("[") {
            i += 1;
            continue;
        }
        // Collect the attribute body up to the matching `]`.
        let body_start = j + 1;
        j = attr_end(toks, body_start);
        let body = &toks[body_start..j.saturating_sub(1)];
        let is_test_attr = match body.first() {
            Some(t) if t.is_ident("test") => body.len() == 1,
            Some(t) if t.is_ident("cfg") => body.iter().any(|t| t.is_ident("test")),
            _ => false,
        };
        if !is_test_attr {
            i = j;
            continue;
        }
        // Skip any further outer attributes between this one and the item.
        let mut k = j;
        while k < toks.len() && toks[k].is_punct("#") {
            k += 1;
            if k < toks.len() && toks[k].is_punct("[") {
                k = attr_end(toks, k + 1);
            }
        }
        // The item runs to its matching `}` (or a `;` seen before any `{`).
        let mut brace_depth = 0i32;
        let mut end_line = attr_start_line;
        while k < toks.len() {
            let t = &toks[k];
            end_line = t.line;
            if t.is_punct("{") {
                brace_depth += 1;
            } else if t.is_punct("}") {
                brace_depth -= 1;
                if brace_depth == 0 {
                    k += 1;
                    break;
                }
            } else if t.is_punct(";") && brace_depth == 0 {
                k += 1;
                break;
            }
            k += 1;
        }
        ranges.push((attr_start_line, end_line));
        i = k;
    }
    ranges
}

/// The index just past the `]` that closes an attribute whose body starts
/// at `start` (the token after its `[`).
fn attr_end(toks: &[Tok], start: usize) -> usize {
    let mut depth = 1i32;
    let mut j = start;
    while j < toks.len() && depth > 0 {
        if toks[j].is_punct("[") {
            depth += 1;
        } else if toks[j].is_punct("]") {
            depth -= 1;
        }
        j += 1;
    }
    j
}

/// Parses `grub-lint: allow(...)` directives out of the comment channel.
///
/// Grammar: `grub-lint: allow(<rule>[, <rule>...])` followed by a non-empty
/// justification (an optional dash separator, then prose). A directive with
/// an unknown rule name or no justification is itself a violation — it is
/// reported and does **not** suppress anything, so a typo can't silently
/// disable a check.
///
/// Only plain `//` comments carry directives: doc comments (`///`, `//!`)
/// and block comments are prose *about* the syntax, not uses of it.
fn parse_suppressions(
    rel_path: &Path,
    comments: &[Comment],
) -> (Vec<Suppression>, Vec<Diagnostic>) {
    const MARKER: &str = "grub-lint: allow(";
    let mut sups = Vec::new();
    let mut diags = Vec::new();
    for c in comments {
        if c.text.starts_with("///") || c.text.starts_with("//!") || c.text.starts_with("/*") {
            continue;
        }
        let Some(pos) = c.text.find(MARKER) else {
            continue;
        };
        let after = &c.text[pos + MARKER.len()..];
        let bad = |msg: String, diags: &mut Vec<Diagnostic>| {
            diags.push(Diagnostic {
                rule: Rule::Suppression,
                path: rel_path.to_path_buf(),
                line: c.line,
                message: msg,
            });
        };
        let Some(close) = after.find(')') else {
            bad(
                "unclosed `grub-lint: allow(` directive".to_string(),
                &mut diags,
            );
            continue;
        };
        let mut rules = Vec::new();
        let mut ok = true;
        for name in after[..close].split(',') {
            let name = name.trim();
            match Rule::parse(name) {
                Some(rule) => rules.push(rule),
                None => {
                    bad(
                        format!(
                            "unknown rule {:?} in suppression (expected one of: {})",
                            name,
                            Rule::ALL.map(Rule::name).join(", ")
                        ),
                        &mut diags,
                    );
                    ok = false;
                }
            }
        }
        // Justification: anything substantive after the `)`, dashes and
        // whitespace stripped.
        let justification = after[close + 1..]
            .trim_start_matches(|ch: char| {
                ch.is_whitespace() || ch == '-' || ch == '—' || ch == '–' || ch == ':'
            })
            .trim();
        if justification.is_empty() {
            bad(
                "suppression without a justification (write `// grub-lint: allow(<rule>) — <why \
                 this is sound>`)"
                    .to_string(),
                &mut diags,
            );
            ok = false;
        }
        if ok && !rules.is_empty() {
            sups.push(Suppression {
                line: c.line,
                rules,
            });
        }
    }
    (sups, diags)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(src: &str) -> SourceFile {
        SourceFile::parse(Path::new("x.rs"), "core", src)
    }

    #[test]
    fn cfg_test_mod_is_test_code() {
        let f = parse(
            "fn lib() {}\n#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { panic!() }\n}\n",
        );
        assert!(!f.in_test_code(1));
        assert!(f.in_test_code(2));
        assert!(f.in_test_code(5));
        assert!(f.in_test_code(6));
    }

    #[test]
    fn a_file_opening_with_inner_cfg_test_is_test_code_throughout() {
        let f = parse("//! Oracle.\n#![allow(dead_code)]\n#![cfg(test)]\nfn o() { None::<u8>.expect(\"x\"); }\n");
        assert!(f.in_test_code(4));
        // Only a leading inner attribute counts: one inside an inline
        // module, or any other inner attribute, does not.
        let f = parse("#![allow(dead_code)]\nfn lib() {}\nmod m {\n    #![cfg(test)]\n}\n");
        assert!(!f.in_test_code(2));
    }

    #[test]
    fn braceless_cfg_test_item_ends_at_semi() {
        let f = parse("#[cfg(test)]\nuse foo::bar;\nfn lib() {}\n");
        assert!(f.in_test_code(2));
        assert!(!f.in_test_code(3));
    }

    #[test]
    fn cfg_not_test_is_not_test_code() {
        let f = parse("#[cfg(feature = \"x\")]\nfn lib() { body(); }\n");
        assert!(!f.in_test_code(2));
    }

    #[test]
    fn test_attr_with_extra_attrs() {
        let f = parse("#[test]\n#[ignore]\nfn t() {\n    body();\n}\n");
        assert!(f.in_test_code(4));
    }

    #[test]
    fn suppression_parses_and_covers_next_line() {
        let f = parse("// grub-lint: allow(panic) — invariant: len checked above\nfoo();\n");
        assert!(f.suppression_diags.is_empty());
        assert!(f.suppressed(Rule::Panic, 1));
        assert!(f.suppressed(Rule::Panic, 2));
        assert!(!f.suppressed(Rule::Panic, 3));
        assert!(!f.suppressed(Rule::Determinism, 2));
    }

    #[test]
    fn multi_rule_suppression() {
        let f = parse("// grub-lint: allow(panic, determinism) — harness-only path\n");
        assert!(f.suppressed(Rule::Panic, 2));
        assert!(f.suppressed(Rule::Determinism, 2));
    }

    #[test]
    fn unjustified_suppression_is_reported_and_inert() {
        let f = parse("// grub-lint: allow(panic)\nfoo();\n");
        assert_eq!(f.suppression_diags.len(), 1);
        assert!(!f.suppressed(Rule::Panic, 2));
    }

    #[test]
    fn unknown_rule_is_reported_and_inert() {
        let f = parse("// grub-lint: allow(speed) — because\n");
        assert_eq!(f.suppression_diags.len(), 1);
        assert!(f.suppressions.is_empty());
    }
}
