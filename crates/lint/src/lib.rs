//! `grub-lint` — workspace static analysis for the contracts every GRuB
//! guarantee bottoms out in.
//!
//! The reproduction's claims — the 2-competitive bound, parallel ==
//! sequential, reorg digest-transparency, crash recovery — all reduce to
//! one contract: **runs are byte-for-byte deterministic and gas accounting
//! never silently under-charges**. The test suites enforce that
//! dynamically, workload by workload; this crate enforces it *statically*,
//! before a trace ever runs, so a stray `HashMap` iteration in a new policy
//! can't pass every existing test and still break determinism on the next
//! workload.
//!
//! Four rules (see [`diag::Rule`]):
//!
//! | rule | scope | what it bans |
//! |------|-------|--------------|
//! | `determinism` | digest-feeding crates | `HashMap`/`HashSet` iteration, wall clocks, thread ids, unseeded randomness |
//! | `gas-safety` | digest-feeding crates | bare `+`/`-`/`+=`/`-=` on raw gas amounts (use `checked_add_gas`/`checked_sub_gas`) |
//! | `panic` | library crates | `unwrap()`/`expect()`/`panic!` outside test code (typed errors are the house style) |
//! | `registry-sync` | whole tree | `GRUB_*` knob reads vs ARCHITECTURE.md's knob table, `FaultPoint` variants vs live hook sites — both directions; knob reads that bypass `grub_fault::knob`; doc comments naming a `*.md` that does not exist |
//!
//! Any finding is suppressible, one site at a time, with a justified
//! comment on the same line or the line above:
//!
//! ```text
//! // grub-lint: allow(determinism) — drained into a sort two lines down
//! ```
//!
//! A suppression without a justification, or naming an unknown rule, is
//! itself a violation — a typo can't silently disable a check.
//!
//! The analyzer is deliberately `syn`-free and offline: a hand-rolled
//! lexer ([`lexer`]) plus token-pattern rules ([`rules`], [`registry`]),
//! same vendoring discipline as the rest of the workspace. Run it with
//! `cargo run --release -p grub-lint` (add `--json` for machine-readable
//! output); CI fails on any violation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod diag;
pub mod file;
pub mod lexer;
pub mod registry;
pub mod rules;
pub mod walk;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use diag::{Diagnostic, Rule};
use file::SourceFile;

/// Crates whose output feeds `chain_digest` / `state_digest`: the
/// determinism and gas-safety rules sweep exactly these.
pub const DIGEST_CRATES: &[&str] = &[
    "chain", "core", "engine", "gas", "merkle", "store", "workload",
];

/// Crates swept by the panic audit: all library crates. `bench` is exempt
/// (a measurement harness that must die loudly on a broken setup, not
/// thread `Result`s through report tables) — the exemption is scoped here,
/// in one place, rather than as dozens of inline allows.
pub const PANIC_AUDIT_CRATES: &[&str] = &[
    "apps", "chain", "core", "crypto", "engine", "fault", "gas", "lint", "merkle", "pool", "store",
    "workload",
];

/// Reporting modules exempt from the determinism rule: they carry the
/// wall-clock fields that ARCHITECTURE.md's determinism table explicitly
/// excludes from digests (`EpochMetrics::wall_clock_*`, per-epoch report
/// rows). Everything else in a digest-feeding crate needs an inline allow.
pub const DETERMINISM_EXEMPT_FILES: &[&str] =
    &["crates/core/src/metrics.rs", "crates/engine/src/report.rs"];

/// Name of the document holding the knob table.
pub const DOC_PATH: &str = "ARCHITECTURE.md";

/// The outcome of a workspace lint run.
#[derive(Debug, Default)]
pub struct LintReport {
    /// All unsuppressed violations, sorted by (path, line, rule).
    pub diags: Vec<Diagnostic>,
    /// How many `.rs` files were scanned.
    pub files_scanned: usize,
}

impl LintReport {
    /// Whether the workspace is clean.
    pub fn clean(&self) -> bool {
        self.diags.is_empty()
    }
}

/// Lints one source snippet with one per-file rule — the entry point the
/// fixture corpus uses. `rel_path`/`crate_name` position the snippet the
/// way the workspace walk would (e.g. `crates/core/src/x.rs` / `core`).
pub fn lint_source(rule: Rule, crate_name: &str, rel_path: &str, source: &str) -> Vec<Diagnostic> {
    let f = SourceFile::parse(Path::new(rel_path), crate_name, source);
    let mut out = Vec::new();
    match rule {
        Rule::Determinism => rules::determinism(&f, &mut out),
        Rule::GasSafety => rules::gas_safety(&f, &mut out),
        Rule::Panic => rules::panic_audit(&f, &mut out),
        Rule::Suppression => {}
        Rule::RegistrySync => {}
    }
    out.extend(f.suppression_diags.iter().cloned());
    out
}

/// Walks the workspace at `root` and runs every rule at its scope.
///
/// File groups:
/// * `crates/<name>/**.rs` — per-crate library code (rules 1–3 apply to
///   `crates/<name>/src/**` by crate scope; benches and bins feed only the
///   registry scan);
/// * `src/`, `tests/`, `examples/`, `vendor/` — registry scan only
///   (`tests/lint_fixtures/` is skipped by the walker: fixtures violate on
///   purpose).
pub fn lint_workspace(root: &Path) -> io::Result<LintReport> {
    let mut files: Vec<SourceFile> = Vec::new();
    for krate in walk::subdirs(root, "crates")? {
        for rel in rust_files(root, &format!("crates/{krate}"))? {
            files.push(parse_file(root, &rel, &krate)?);
        }
    }
    for dir in ["src", "tests", "examples", "vendor"] {
        for rel in rust_files(root, dir)? {
            files.push(parse_file(root, &rel, "")?);
        }
    }

    let mut diags: Vec<Diagnostic> = Vec::new();
    for f in &files {
        let rel = f.rel_path.to_string_lossy().replace('\\', "/");
        let in_crate_src = rel.starts_with(&format!("crates/{}/src/", f.crate_name));
        if in_crate_src && DIGEST_CRATES.contains(&f.crate_name.as_str()) {
            if !DETERMINISM_EXEMPT_FILES.contains(&rel.as_str()) {
                rules::determinism(f, &mut diags);
            }
            rules::gas_safety(f, &mut diags);
        }
        if in_crate_src && PANIC_AUDIT_CRATES.contains(&f.crate_name.as_str()) {
            rules::panic_audit(f, &mut diags);
        }
        diags.extend(f.suppression_diags.iter().cloned());
    }

    // Registry sync: the doc side, every file as the scan set, and
    // `crates/*/src` minus the fault crate itself as hook-site candidates.
    let doc_text = fs::read_to_string(root.join(DOC_PATH)).ok();
    let doc = doc_text.as_deref().map(registry::parse_doc);
    let root_docs = walk::root_markdown(root)?;
    let all: Vec<&SourceFile> = files.iter().collect();
    let fault_file = files
        .iter()
        .find(|f| f.crate_name == "fault" && f.rel_path.to_string_lossy().ends_with("src/lib.rs"));
    let hook_files: Vec<&SourceFile> = files
        .iter()
        .filter(|f| {
            f.crate_name != "fault"
                && !f.crate_name.is_empty()
                && f.rel_path
                    .to_string_lossy()
                    .replace('\\', "/")
                    .starts_with(&format!("crates/{}/src/", f.crate_name))
        })
        .collect();
    registry::registry_sync(
        doc.as_ref(),
        DOC_PATH,
        &root_docs,
        &all,
        fault_file,
        &hook_files,
        &mut diags,
    );

    diags.sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    Ok(LintReport {
        diags,
        files_scanned: files.len(),
    })
}

fn rust_files(root: &Path, rel: &str) -> io::Result<Vec<PathBuf>> {
    walk::rust_files_under(root, rel)
}

fn parse_file(root: &Path, rel: &Path, crate_name: &str) -> io::Result<SourceFile> {
    let source = fs::read_to_string(root.join(rel))?;
    Ok(SourceFile::parse(rel, crate_name, &source))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_crates_match_architecture_table() {
        // The determinism sweep and the panic sweep must stay supersets of
        // nothing and subsets of the workspace: every listed crate name is
        // kebab-free and nonempty.
        for name in DIGEST_CRATES.iter().chain(PANIC_AUDIT_CRATES) {
            assert!(!name.is_empty() && name.chars().all(|c| c.is_ascii_lowercase()));
        }
        // bench is exempt from the panic audit by design.
        assert!(!PANIC_AUDIT_CRATES.contains(&"bench"));
    }

    #[test]
    fn lint_source_routes_rules() {
        let bad = "fn f(x: Option<u64>) -> u64 { x.unwrap() }";
        assert_eq!(
            lint_source(Rule::Panic, "core", "crates/core/src/x.rs", bad).len(),
            1
        );
        assert!(lint_source(Rule::Determinism, "core", "crates/core/src/x.rs", bad).is_empty());
    }
}
