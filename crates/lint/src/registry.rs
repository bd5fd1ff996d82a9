//! Rule 4 — **registry-sync**: the workspace's two out-of-band registries
//! must match the code, in both directions, or the build fails.
//!
//! * **Knobs**: every `GRUB_*` environment variable read anywhere in the
//!   tree (`std::env::var`/`var_os` with a literal name) must have a row in
//!   ARCHITECTURE.md's knob table, and every row must correspond to a live
//!   read. A knob that drifts out of the table is invisible to operators; a
//!   row whose knob is gone documents a lie.
//!   In the crates that share `grub_fault::knob` (`chain`, `core`, `engine`,
//!   `fault`, `store`) a direct `env::var("GRUB_…")` is itself a violation:
//!   the helper is what makes unset/empty/`0` mean "off" everywhere and
//!   leaves each knob a pure, testable parser.
//! * **Doc pointers**: a `*.md` file named in a doc comment must exist at
//!   the workspace root — a pointer to a document nobody wrote is worse
//!   than none.
//! * **Fault points**: every [`FaultPoint`] variant declared in `grub-fault`
//!   must have a live hook site (`FaultPoint::<Variant>` in another crate's
//!   non-test library code), and its kebab-case knob name must appear in
//!   ARCHITECTURE.md. A variant without a hook is a crash point that can
//!   never fire — recovery coverage silently shrinks.
//!
//! [`FaultPoint`]: https://docs.rs/grub-fault

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use crate::diag::{Diagnostic, Rule};
use crate::file::SourceFile;
use crate::lexer::{Tok, TokKind};

/// The documentation side of the registries: parsed out of ARCHITECTURE.md.
#[derive(Debug, Default)]
pub struct DocRegistry {
    /// Knob-table rows: knob name → 1-based line of its row.
    pub knobs: BTreeMap<String, u32>,
    /// Every backtick-quoted token in the document (used to check fault
    /// point names are documented).
    pub backticked: BTreeSet<String>,
}

/// Parses ARCHITECTURE.md: knob-table rows are lines whose first cell is a
/// backticked `GRUB_*` name (`| \`GRUB_X\` | ...`).
pub fn parse_doc(text: &str) -> DocRegistry {
    let mut doc = DocRegistry::default();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx as u32 + 1;
        // Collect backticked tokens.
        let mut rest = line;
        while let Some(open) = rest.find('`') {
            let after = &rest[open + 1..];
            let Some(close) = after.find('`') else {
                break;
            };
            doc.backticked.insert(after[..close].to_string());
            rest = &after[close + 1..];
        }
        // Knob-table rows.
        let trimmed = line.trim_start();
        if let Some(cell) = trimmed.strip_prefix("| `") {
            if let Some(name) = cell.split('`').next() {
                if is_knob_name(name) {
                    doc.knobs.entry(name.to_string()).or_insert(lineno);
                }
            }
        }
    }
    doc
}

fn is_knob_name(s: &str) -> bool {
    s.starts_with("GRUB_")
        && s.len() > 5
        && s.chars()
            .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
}

/// A `GRUB_*` env read found in code.
#[derive(Debug)]
pub struct KnobRead {
    /// The knob name.
    pub knob: String,
    /// File it is read in.
    pub path: PathBuf,
    /// 1-based line of the read.
    pub line: u32,
}

/// Finds `GRUB_*` knob uses in a file: any string literal whose *entire*
/// content is a knob name. This catches direct `env::var("GRUB_X")` reads
/// and reads routed through helpers (`env_ms("GRUB_BENCH_WARMUP_MS", …)`,
/// `plan_from_env`'s parser) alike, while substrings in error messages
/// (`"GRUB_FAULT_POINT: bad hit count"`) never match.
pub fn knob_reads(file: &SourceFile) -> Vec<KnobRead> {
    let toks = file.lexed.toks.iter();
    toks.filter_map(|t| knob_literal(file, t)).collect()
}

/// `t` as a knob read, if it is a string literal holding exactly a knob name.
fn knob_literal(file: &SourceFile, t: &Tok) -> Option<KnobRead> {
    if t.kind != TokKind::Str {
        return None;
    }
    let name = t
        .text
        .trim_start_matches(['b', 'r', '#'])
        .trim_matches(['"', '#']);
    is_knob_name(name).then(|| KnobRead {
        knob: name.to_string(),
        path: file.rel_path.clone(),
        line: t.line,
    })
}

/// Crates whose knob reads must go through `grub_fault::knob`.
pub const KNOB_HELPER_CRATES: &[&str] = &["chain", "core", "engine", "fault", "store"];

/// Knob reads that bypass the helper: `env::var("GRUB_X")` / `var_os`.
pub fn direct_knob_reads(file: &SourceFile) -> Vec<KnobRead> {
    let toks = &file.lexed.toks;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        let is_env_read = i >= 2
            && (t.is_ident("var") || t.is_ident("var_os"))
            && toks[i - 1].is_punct("::")
            && toks[i - 2].is_ident("env")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("("));
        if is_env_read {
            out.extend(toks.get(i + 2).and_then(|arg| knob_literal(file, arg)));
        }
    }
    out
}

/// `*.md` file names mentioned in a file's doc comments, with their lines.
pub fn doc_md_refs(file: &SourceFile) -> Vec<(String, u32)> {
    let mut out = Vec::new();
    for c in &file.lexed.comments {
        if !(c.text.starts_with("///") || c.text.starts_with("//!")) {
            continue;
        }
        let is_name = |ch: char| ch.is_ascii_alphanumeric() || ch == '_' || ch == '-' || ch == '.';
        for word in c.text.split(|ch: char| !is_name(ch)) {
            let word = word.trim_end_matches('.');
            if word.len() > 3 && word.ends_with(".md") {
                out.push((word.to_string(), c.line));
            }
        }
    }
    out
}

/// A `FaultPoint` variant declared in `grub-fault`.
#[derive(Debug)]
pub struct FaultVariant {
    /// The variant identifier (`MidWalAppend`).
    pub name: String,
    /// Its kebab-case knob/display name (`mid-wal-append`).
    pub kebab: String,
    /// 1-based declaration line in the fault crate's source.
    pub line: u32,
}

/// Extracts the variants of `enum FaultPoint { … }` from the fault crate's
/// lexed source. Token-level brace matching; variants are bare identifiers
/// at depth 1 followed by `,` or the closing brace.
pub fn fault_variants(file: &SourceFile) -> Vec<FaultVariant> {
    let toks = &file.lexed.toks;
    let mut out = Vec::new();
    let Some(start) = toks
        .windows(3)
        .position(|w| w[0].is_ident("enum") && w[1].is_ident("FaultPoint") && w[2].is_punct("{"))
    else {
        return out;
    };
    let mut depth = 1i32;
    let mut i = start + 3;
    while i < toks.len() && depth > 0 {
        let t = &toks[i];
        if t.is_punct("{") {
            depth += 1;
        } else if t.is_punct("}") {
            depth -= 1;
        } else if depth == 1
            && t.kind == TokKind::Ident
            && toks
                .get(i + 1)
                .is_some_and(|n| n.is_punct(",") || n.is_punct("}"))
        {
            out.push(FaultVariant {
                name: t.text.clone(),
                kebab: kebab_case(&t.text),
                line: t.line,
            });
        }
        i += 1;
    }
    out
}

/// `MidWalAppend` → `mid-wal-append`.
fn kebab_case(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 4);
    for (i, c) in name.chars().enumerate() {
        if c.is_ascii_uppercase() {
            if i > 0 {
                out.push('-');
            }
            out.push(c.to_ascii_lowercase());
        } else {
            out.push(c);
        }
    }
    out
}

/// References to `FaultPoint::<Variant>` in a file's non-test code.
pub fn fault_refs(file: &SourceFile) -> Vec<String> {
    let toks = &file.lexed.toks;
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.is_ident("FaultPoint")
            && toks.get(i + 1).is_some_and(|n| n.is_punct("::"))
            && toks.get(i + 2).is_some_and(|n| n.kind == TokKind::Ident)
            && !file.in_test_code(t.line)
        {
            out.push(toks[i + 2].text.clone());
        }
    }
    out
}

/// Runs the whole registry-sync rule.
///
/// * `doc` — parsed ARCHITECTURE.md (`None` when the file is absent, which
///   makes every code-side knob a violation: the table is mandatory).
/// * `all_files` — every lexed file in the scan set (library code, tests,
///   examples, benches, vendor stubs).
/// * `fault_file`/`hook_files` — the fault crate's source and the library
///   files eligible to carry hook sites.
/// * `root_docs` — names of the `*.md` files at the workspace root.
pub fn registry_sync(
    doc: Option<&DocRegistry>,
    doc_path: &str,
    root_docs: &BTreeSet<String>,
    all_files: &[&SourceFile],
    fault_file: Option<&SourceFile>,
    hook_files: &[&SourceFile],
    out: &mut Vec<Diagnostic>,
) {
    let empty = DocRegistry::default();
    let doc_reg = doc.unwrap_or(&empty);

    // Knobs: code → doc.
    let mut reads: Vec<(KnobRead, &SourceFile)> = Vec::new();
    for file in all_files {
        for read in knob_reads(file) {
            reads.push((read, file));
        }
    }
    reads.sort_by(|a, b| (&a.0.knob, &a.0.path, a.0.line).cmp(&(&b.0.knob, &b.0.path, b.0.line)));
    let mut flagged: BTreeSet<String> = BTreeSet::new();
    for (read, file) in &reads {
        if doc_reg.knobs.contains_key(&read.knob) || flagged.contains(&read.knob) {
            continue;
        }
        flagged.insert(read.knob.clone());
        file.push_checked(
            out,
            Rule::RegistrySync,
            read.line,
            format!(
                "`{}` is read here but has no row in {doc_path}'s knob table — document the \
                 knob (or remove the read)",
                read.knob
            ),
        );
    }
    // Knobs: doc → code.
    let read_names: BTreeSet<&str> = reads.iter().map(|(r, _)| r.knob.as_str()).collect();
    for (knob, line) in &doc_reg.knobs {
        if !read_names.contains(knob.as_str()) {
            out.push(Diagnostic {
                rule: Rule::RegistrySync,
                path: PathBuf::from(doc_path),
                line: *line,
                message: format!(
                    "knob table documents `{knob}` but nothing in the tree reads it — delete \
                     the row (or wire the knob back up)"
                ),
            });
        }
    }

    // Knobs: reads that bypass the shared helper; doc pointers to nowhere.
    for file in all_files {
        if KNOB_HELPER_CRATES.contains(&file.crate_name.as_str()) {
            for read in direct_knob_reads(file) {
                let message = format!(
                    "`{}` is read with a direct `env::var` — go through `grub_fault::knob` (unset, \
                     empty and `0` mean off) and a pure parser returning `KnobError`",
                    read.knob
                );
                file.push_checked(out, Rule::RegistrySync, read.line, message);
            }
        }
        for (name, line) in doc_md_refs(file) {
            if !root_docs.contains(&name) {
                let message = format!(
                    "doc comment points at `{name}`, which does not exist at the workspace root"
                );
                file.push_checked(out, Rule::RegistrySync, line, message);
            }
        }
    }

    // Fault points.
    let Some(fault_file) = fault_file else {
        return;
    };
    let variants = fault_variants(fault_file);
    let mut hooked: BTreeSet<String> = BTreeSet::new();
    for file in hook_files {
        for v in fault_refs(file) {
            hooked.insert(v);
        }
    }
    for v in &variants {
        if !hooked.contains(&v.name) {
            fault_file.push_checked(
                out,
                Rule::RegistrySync,
                v.line,
                format!(
                    "`FaultPoint::{}` has no live hook site (`FaultPoint::{}` never appears in \
                     another crate's non-test code) — thread the probe through the pipeline or \
                     retire the point",
                    v.name, v.name
                ),
            );
        }
        if !doc_reg.backticked.contains(&v.kebab) {
            fault_file.push_checked(
                out,
                Rule::RegistrySync,
                v.line,
                format!(
                    "crash point `{}` (`FaultPoint::{}`) is not documented in {doc_path} — add \
                     it to the `GRUB_FAULT_POINT` row's point list",
                    v.kebab, v.name
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    #[test]
    fn doc_knob_rows_parse() {
        let doc = parse_doc(
            "prose `GRUB_NOT_A_ROW` here\n\
             | `GRUB_SMOKE` | scope | detail |\n\
             | `GRUB_REORG` | scope | `seed:period:depth` |\n",
        );
        assert_eq!(doc.knobs.len(), 2);
        assert_eq!(doc.knobs["GRUB_SMOKE"], 2);
        assert!(doc.backticked.contains("GRUB_NOT_A_ROW"));
    }

    #[test]
    fn knob_reads_found() {
        let f = SourceFile::parse(
            Path::new("x.rs"),
            "",
            "fn f() { let a = std::env::var(\"GRUB_SMOKE\").ok(); \
             let b = helper(\"GRUB_REORG\", 7); let c = err(\"GRUB_SMOKE: bad value\"); }",
        );
        let reads = knob_reads(&f);
        let names: Vec<&str> = reads.iter().map(|r| r.knob.as_str()).collect();
        assert_eq!(names, ["GRUB_SMOKE", "GRUB_REORG"]);
    }

    #[test]
    fn direct_env_reads_and_doc_pointers_found() {
        let f = SourceFile::parse(
            Path::new("crates/chain/src/x.rs"),
            "chain",
            "//! See `DESIGN.md` §3 and ARCHITECTURE.md.\n\
             // a plain comment may say NOTES.md\n\
             fn f() { let a = std::env::var(\"GRUB_REORG\"); let b = env::var_os(\"GRUB_SMOKE\"); \
             let c = knob(\"GRUB_MEMPOOL\"); let d = std::env::var(name); }",
        );
        let direct: Vec<String> = direct_knob_reads(&f).into_iter().map(|r| r.knob).collect();
        assert_eq!(direct, ["GRUB_REORG", "GRUB_SMOKE"]);
        let names: Vec<String> = doc_md_refs(&f).into_iter().map(|r| r.0).collect();
        assert_eq!(names, ["DESIGN.md", "ARCHITECTURE.md"]);
    }

    #[test]
    fn fault_enum_parses_with_kebab_names() {
        let f = SourceFile::parse(
            Path::new("f.rs"),
            "fault",
            "pub enum FaultPoint { PostStage, MidWalAppend }\n\
             impl FaultPoint { pub const ALL: [FaultPoint; 2] = \
             [FaultPoint::PostStage, FaultPoint::MidWalAppend]; }",
        );
        let vars = fault_variants(&f);
        assert_eq!(vars.len(), 2);
        assert_eq!(vars[0].name, "PostStage");
        assert_eq!(vars[0].kebab, "post-stage");
        assert_eq!(vars[1].kebab, "mid-wal-append");
    }

    #[test]
    fn fault_refs_skip_test_code() {
        let f = SourceFile::parse(
            Path::new("e.rs"),
            "engine",
            "fn hook() { check(FaultPoint::PostStage); }\n\
             #[cfg(test)]\nmod tests { fn t() { check(FaultPoint::MidWalAppend); } }",
        );
        assert_eq!(fault_refs(&f), ["PostStage"]);
    }
}
