//! The `grub-lint` fixture corpus and workspace self-check.
//!
//! Every rule gets at least one deliberately-bad fixture (must be flagged)
//! and one good fixture (must pass), so a rule that silently stops firing
//! — or starts over-firing — fails this suite. The final test lints the
//! workspace itself: the tree this test compiles from must be clean.

use std::fs;
use std::path::{Path, PathBuf};

use grub_lint::diag::Rule;
use grub_lint::{lint_source, lint_workspace};

fn fixture_dir(rule_dir: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/lint_fixtures")
        .join(rule_dir)
}

/// Runs `rule` over every fixture in `tests/lint_fixtures/<rule_dir>/`,
/// positioned as non-test library code of `crate_name`. `bad_*` fixtures
/// must produce at least one diagnostic of `rule` (and nothing else);
/// `good_*` fixtures must produce none.
fn check_rule_fixtures(rule: Rule, rule_dir: &str, crate_name: &str) {
    let dir = fixture_dir(rule_dir);
    let mut saw_bad = false;
    let mut saw_good = false;
    for entry in fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        if !name.ends_with(".rs") {
            continue;
        }
        let source = fs::read_to_string(&path).unwrap();
        let rel = format!("crates/{crate_name}/src/{name}");
        let diags = lint_source(rule, crate_name, &rel, &source);
        if name.starts_with("bad_") {
            saw_bad = true;
            assert!(
                !diags.is_empty(),
                "{name}: expected {rule} violations, got none"
            );
            for d in &diags {
                assert_eq!(d.rule, rule, "{name}: unexpected {} diagnostic", d.rule);
                assert!(d.line > 0, "{name}: diagnostic without a line");
            }
        } else {
            saw_good = true;
            assert!(
                diags.is_empty(),
                "{name}: expected clean, got: {}",
                diags
                    .iter()
                    .map(|d| d.render())
                    .collect::<Vec<_>>()
                    .join("; ")
            );
        }
    }
    assert!(
        saw_bad && saw_good,
        "{rule_dir}: fixture corpus must hold bad and good cases"
    );
}

#[test]
fn determinism_fixtures() {
    check_rule_fixtures(Rule::Determinism, "determinism", "core");
}

#[test]
fn gas_safety_fixtures() {
    check_rule_fixtures(Rule::GasSafety, "gas_safety", "gas");
}

#[test]
fn panic_fixtures() {
    check_rule_fixtures(Rule::Panic, "panic", "store");
}

#[test]
fn unjustified_suppression_is_itself_a_violation() {
    let src = "// grub-lint: allow(panic)\npub fn f(x: Option<u64>) -> u64 { x.unwrap() }\n";
    let diags = lint_source(Rule::Panic, "core", "crates/core/src/x.rs", src);
    // The bare allow is inert (the unwrap still fires) and malformed (it
    // carries no justification), so both diagnostics surface.
    assert!(
        diags.iter().any(|d| d.rule == Rule::Panic),
        "unwrap must stay flagged"
    );
    assert!(
        diags.iter().any(|d| d.rule == Rule::Suppression),
        "bare allow must be flagged"
    );
}

#[test]
fn registry_bad_workspace_is_flagged_both_directions() {
    let report = lint_workspace(&fixture_dir("registry/bad_workspace")).unwrap();
    let msgs: Vec<String> = report.diags.iter().map(|d| d.render()).collect();
    for d in &report.diags {
        assert_eq!(
            d.rule,
            Rule::RegistrySync,
            "unexpected diagnostic: {}",
            d.render()
        );
    }
    let expect = [
        "`GRUB_ROGUE` is read here but has no row", // code → doc
        "`GRUB_ROGUE` is read with a direct `env::var`", // bypasses the helper
        "points at `GHOST.md`, which does not exist", // doc pointer → file
        "documents `GRUB_GHOST` but nothing in the tree reads it", // doc → code
        "`FaultPoint::Orphan` has no live hook site", // variant → hook
        "crash point `orphan` (`FaultPoint::Orphan`) is not documented", // variant → doc
    ];
    for needle in expect {
        assert!(
            msgs.iter().any(|m| m.contains(needle)),
            "missing violation containing {needle:?}; got: {msgs:?}"
        );
    }
    assert_eq!(
        report.diags.len(),
        expect.len(),
        "exactly the seeded violations: {msgs:?}"
    );
}

#[test]
fn registry_good_workspace_is_clean() {
    let report = lint_workspace(&fixture_dir("registry/good_workspace")).unwrap();
    assert!(
        report.clean(),
        "good registry fixture must be clean, got: {}",
        report
            .diags
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("; ")
    );
}

#[test]
fn seeded_determinism_violation_is_rejected() {
    // The same seeded violation CI injects into grub-chain to prove the
    // gate bites: HashMap iteration feeding an aggregate.
    let seeded = "use std::collections::HashMap;\n\
                  pub fn grub_lint_seeded_violation(m: &HashMap<u64, u64>) -> u64 {\n\
                      m.iter().map(|(k, v)| k + v).sum()\n\
                  }\n";
    let diags = lint_source(
        Rule::Determinism,
        "chain",
        "crates/chain/src/chain.rs",
        seeded,
    );
    assert!(
        !diags.is_empty(),
        "seeded HashMap iteration must be flagged"
    );
}

#[test]
fn workspace_self_check_is_clean() {
    let report = lint_workspace(Path::new(env!("CARGO_MANIFEST_DIR"))).unwrap();
    assert!(
        report.clean(),
        "the workspace must lint clean:\n{}",
        report
            .diags
            .iter()
            .map(|d| d.render())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(
        report.files_scanned > 50,
        "suspiciously few files scanned ({}) — did the walker break?",
        report.files_scanned
    );
}
