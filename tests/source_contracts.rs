//! Source contracts clippy cannot state by type (ARCHITECTURE.md, "Static
//! analysis"): gas arithmetic and hash `into_iter` in the crates that feed
//! `chain_digest`, and the knob, crash-point and doc registries against the
//! tree. Each scanner is a plain function over source text, and inline seeded
//! sources prove it bites.

use std::collections::BTreeSet;
use std::fs;
use std::path::{Path, PathBuf};

use grub::fault::FaultPoint;

fn erase(text: impl Iterator<Item = char>) -> String {
    text.map(|ch| if ch == '\n' { ch } else { ' ' }).collect()
}

/// `src` with its comments and string and char literals erased to spaces
/// (newlines kept, so lines still count), and its string literals' text.
fn blank(src: &str) -> (String, Vec<String>) {
    let c: Vec<char> = src.chars().collect();
    let at = |i: usize, s: &str| s.chars().zip(i..).all(|(ch, k)| c.get(k) == Some(&ch));
    let (mut code, mut strs, mut i) = (String::new(), Vec::new(), 0);
    while i < c.len() {
        let hashes = c[i + 1..].iter().take_while(|&&h| h == '#').count();
        let end = if at(i, "//") {
            (i..c.len()).find(|&j| c[j] == '\n')
        } else if at(i, "/*") {
            (i + 2..c.len()).find(|&j| at(j, "*/")).map(|j| j + 2)
        } else if c[i] == '"' || c[i] == 'r' && c.get(i + 1 + hashes) == Some(&'"') {
            // `"…"` with escapes, or raw `r#"…"#`; a `b` prefix stays code.
            let raw = c[i] == 'r';
            let open = if raw { i + 2 + hashes } else { i + 1 };
            let close = format!("\"{}", "#".repeat(if raw { hashes } else { 0 }));
            let mut j = open;
            while j < c.len() && !at(j, &close) {
                j += if !raw && c[j] == '\\' { 2 } else { 1 };
            }
            strs.push(c[open..j.min(c.len())].iter().collect());
            Some(j + close.len())
        } else if at(i, "'\\") {
            (i + 3..c.len()).find(|&j| c[j] == '\'').map(|j| j + 1)
        } else if c[i] == '\'' && c.get(i + 2) == Some(&'\'') {
            Some(i + 3)
        } else {
            code.push(c[i]);
            i += 1;
            continue;
        };
        let end = end.unwrap_or(c.len()).min(c.len());
        code.push_str(&erase(c[i..end].iter().copied()));
        i = end;
    }
    (code, strs)
}

/// `src` as [`blank`] leaves it, with each `#[cfg(test)]` or `#[test]` item
/// erased to its matching `}` (or to a `;` before any `{`).
fn non_test(src: &str) -> String {
    let mut code = blank(src).0;
    if code.contains("#![cfg(test)]") {
        return String::new();
    }
    while let Some(at) = code.find("#[cfg(test)]").or_else(|| code.find("#[test]")) {
        let mut depth = 0;
        let end = code[at..].find(|ch| {
            depth += i32::from(ch == '{') - i32::from(ch == '}');
            depth == 0 && (ch == '}' || ch == ';')
        });
        let end = end.map_or(code.len(), |e| at + e + 1);
        code.replace_range(at..end, &erase(code[at..end].chars()));
    }
    code
}

fn is_ident_char(ch: char) -> bool {
    ch.is_alphanumeric() || ch == '_'
}

fn leading_ident(code: &str) -> &str {
    &code[..code.len() - code.trim_start_matches(is_ident_char).len()]
}

fn trailing_ident(code: &str) -> &str {
    let code = code.trim_end();
    &code[code.trim_end_matches(is_ident_char).len()..]
}

fn finding(before: &str, what: &str) -> String {
    format!("line {}: {what}", before.matches('\n').count() + 1)
}

/// Bare `+`, `-`, `+=` or `-=` whose operand (`name`, `name.0` or
/// `name(…)` on the left, `name` or `self.name` on the right) is a raw gas
/// amount: `gas` in the name, the `Gas` newtype aside.
fn gas_findings(src: &str) -> Vec<String> {
    let code = non_test(src);
    let is_gas = |name: &&str| *name != "Gas" && name.to_ascii_lowercase().contains("gas");
    let mut out = Vec::new();
    for (p, op) in code.match_indices(['+', '-']) {
        let mut left = code[..p].trim_end();
        if left.ends_with(')') {
            let mut depth = 0;
            let open = left.rfind(|ch| {
                depth += i32::from(ch == ')') - i32::from(ch == '(');
                depth == 0
            });
            left = &left[..open.unwrap_or(0)];
        } else if let Some(base) = left.trim_end_matches(char::is_numeric).strip_suffix('.') {
            left = base;
        }
        let right = code[p + 1..].trim_start_matches(['=', '&', '(', ' ', '\n']);
        let right = right.trim_start_matches("mut ").trim_start_matches("self.");
        let operands = [trailing_ident(left), leading_ident(right)];
        let arrow = code[p + 1..].starts_with('>');
        if let Some(name) = operands.into_iter().find(is_gas).filter(|_| !arrow) {
            out.push(finding(&code[..p], &format!("bare `{op}` on gas `{name}`")));
        }
    }
    out
}

/// `.into_iter()` on a name the file declares with a `HashMap`/`HashSet`
/// type (`name: …HashMap…`) or initialiser (`let [mut] name = …HashMap…`).
fn hash_into_iter_findings(src: &str) -> Vec<String> {
    let code = non_test(src);
    let mut names = BTreeSet::new();
    let mentions = code.match_indices("HashMap");
    for (p, _) in mentions.chain(code.match_indices("HashSet")) {
        let decl = &code[code[..p].rfind([';', '{', '}', ',']).map_or(0, |s| s + 1)..p];
        let head = decl.split("::").next().unwrap_or_default();
        names.insert(match head.trim_start().strip_prefix("let ") {
            Some(rest) => leading_ident(rest.trim_start_matches("mut ")),
            None => trailing_ident(&head[..head.rfind(':').unwrap_or(0)]),
        });
    }
    names.remove("");
    let calls = code.match_indices(".into_iter()").map(|(p, _)| &code[..p]);
    let hashed = calls.filter(|before| names.contains(trailing_ident(before)));
    let what = |before: &str| format!("`{}.into_iter()` on a hash", trailing_ident(before));
    hashed
        .map(|before| finding(before, &what(before)))
        .collect()
}

fn is_knob(name: &str) -> bool {
    let tail = name.strip_prefix("GRUB_").unwrap_or_default();
    let knob_char = |ch| matches!(ch, 'A'..='Z' | '0'..='9' | '_');
    !tail.is_empty() && tail.trim_start_matches(knob_char).is_empty()
}

/// Knob drift both ways: `srcs`' `GRUB_*` literals against `doc`'s rows.
fn knob_drift<'a>(srcs: impl IntoIterator<Item = &'a str>, doc: &str) -> Vec<String> {
    let strs = srcs.into_iter().flat_map(|src| blank(src).1);
    let lits: BTreeSet<String> = strs.filter(|s| is_knob(s)).collect();
    let cells = doc.lines().filter_map(|l| l.strip_prefix("| `"));
    let rows = cells.map(|cell| cell.split('`').next().unwrap_or_default().to_owned());
    let rows: BTreeSet<String> = rows.filter(|s| is_knob(s)).collect();
    let unrowed = lits.difference(&rows).map(|k| format!("`{k}` has no row"));
    let unread = rows.difference(&lits).map(|k| format!("`{k}` has no read"));
    unrowed.chain(unread).collect()
}

/// `*.md` names in `src`'s `///` and `//!` lines that are not at the root.
fn missing_docs(src: &str) -> Vec<String> {
    let lines = src.lines().map(str::trim_start);
    let docs = lines.filter(|l| l.starts_with("///") || l.starts_with("//!"));
    let words = docs.flat_map(|l| l.split(|ch| !is_ident_char(ch) && !"-.".contains(ch)));
    let names = words.map(|w| w.trim_end_matches('.'));
    let missing = names.filter(|w| w.len() > 3 && w.ends_with(".md") && !root().join(w).is_file());
    missing.map(|w| format!("{w} is not at the root")).collect()
}

/// The `FaultPoint::<Variant>` paths in `src`'s non-test code.
fn fault_hooks(src: &str) -> Vec<String> {
    let code = non_test(src);
    let paths = code.split("FaultPoint::").skip(1);
    paths.map(|rest| leading_ident(rest).to_owned()).collect()
}

fn root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// The `.rs` files under `dirs`, `target/` skipped, with their text.
fn sources<D: AsRef<Path>>(dirs: impl IntoIterator<Item = D>) -> Vec<(PathBuf, String)> {
    let mut todo: Vec<PathBuf> = dirs.into_iter().map(|d| root().join(d)).collect();
    let mut out = Vec::new();
    while let Some(dir) = todo.pop() {
        for entry in fs::read_dir(&dir).expect("readable directory") {
            let path = entry.expect("directory entry").path();
            if path.is_dir() && !path.ends_with("target") {
                todo.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = fs::read_to_string(&path).expect("readable source");
                out.push((path, src));
            }
        }
    }
    out
}

fn assert_clean(scan: fn(&str) -> Vec<String>, files: &[(PathBuf, String)]) {
    for (path, src) in files {
        let found = scan(src).join("\n");
        assert!(found.is_empty(), "{}:\n{found}", path.display());
    }
}

#[test]
fn digest_crates_keep_gas_checked_and_hash_order_unobserved() {
    let digest_crates = "chain core engine gas merkle store workload".split(' ');
    let files = sources(digest_crates.map(|k| format!("crates/{k}/src")));
    assert_clean(gas_findings, &files);
    assert_clean(hash_into_iter_findings, &files);
}

/// Every `FaultPoint` variant and its name, by an exhaustive `match`: a new
/// variant does not compile until it is listed.
macro_rules! every_fault_point {
    ($($v:ident),* $(,)?) => {{
        let listed = |p: FaultPoint| match p { $(FaultPoint::$v => stringify!($v)),* };
        [$(FaultPoint::$v),*].map(|p| (p, listed(p)))
    }};
}

#[test]
fn registries_match_the_tree() {
    let files = sources(["crates", "src", "tests", "examples", "vendor"]);
    let doc = fs::read_to_string(root().join("ARCHITECTURE.md")).expect("ARCHITECTURE.md");
    let drift = knob_drift(files.iter().map(|(_, src)| src.as_str()), &doc);
    assert_eq!(drift, Vec::<String>::new());
    assert_clean(missing_docs, &files);
    let points = every_fault_point! {
        PostStage, PreMerge, MidShardCommit, PostWriteBlock, MidWalAppend, MidSstableFlush,
        MidReorgRollback, MidResubmission,
    };
    let libs = files.iter().filter(|(p, _)| {
        let rel = p.strip_prefix(root()).expect("under the root");
        rel.iter().nth(2).is_some_and(|c| c == "src") && !rel.starts_with("crates/fault")
    });
    let hooks: BTreeSet<String> = libs.flat_map(|(_, src)| fault_hooks(src)).collect();
    let sound = |&(p, name): &(FaultPoint, &str)| {
        FaultPoint::ALL.contains(&p) && hooks.contains(name) && doc.contains(&format!("`{p}`"))
    };
    let unsound: Vec<_> = points.iter().filter(|&p| !sound(p)).collect();
    assert_eq!(unsound, Vec::<&(FaultPoint, &str)>::new());
}

/// Runs `scan` over each `(findings expected, seeded source)` pair.
fn assert_seeds(scan: fn(&str) -> Vec<String>, seeds: &[(usize, &str)]) {
    for &(want, src) in seeds {
        assert_eq!((src, scan(src).len()), (src, want), "{:?}", scan(src));
    }
}

#[test]
fn bare_gas_arithmetic_flagged() {
    assert_seeds(
        gas_findings,
        &[
            (1, "fn f(a_gas: u64, b: u64) -> u64 { a_gas + b }"),
            (1, "fn f(a: u64, feed_gas: u64) -> u64 { a - feed_gas }"),
            (1, "fn f(m: &mut M) { m.total_gas += 1; }"),
            (1, "fn f(m: &mut M) { m.n -= self.spent_gas; }"),
            (1, "#[cfg(test)] mod t { fn t(a_gas: u64) { a_gas + 1 } } #[test] #[ignore] fn u() { t_gas - 1 } fn f() { a_gas + 1 }"),
        ],
    );
}

#[test]
fn gas_projections_flagged() {
    assert_seeds(
        gas_findings,
        &[
            (1, "fn f(g: G) -> u64 { g.feed_gas.0 + 1 }"),
            (1, "fn f(r: &R) -> u64 { r.feed_gas() + 1 }"),
            (1, "fn f(r: &R) -> u64 { r.gas(x) - 1 }"),
        ],
    );
}

#[test]
fn checked_helpers_and_gas_newtype_pass() {
    assert_seeds(
        gas_findings,
        &[
            (
                0,
                "fn f(a_gas: u64, b_gas: u64) -> u64 { checked_add_gas(a_gas, b_gas) }",
            ),
            (0, "fn f() -> Gas { Gas(1) + Gas(2) }"),
            (0, "fn f(a: u64, b: u64) -> u64 { a + b }"),
            (
                0,
                r###"fn f() { g("x_gas + 1", '-', r##"y_gas - 1"##, '\''); /* z_gas - 1 */ }"###,
            ),
        ],
    );
}

#[test]
fn gas_settle_flagged_bare_and_passed_checked() {
    let bare = "pub fn settle(feed_gas: u64, app_gas: u64) -> u64 {
        let mut total_gas = feed_gas + app_gas;
        total_gas += 21_000;
        total_gas - 1
    }";
    let checked = "pub fn checked_add_gas(a: u64, b: u64) -> u64 {
        a.checked_add(b).unwrap_or(u64::MAX)
    }
    pub fn settle(feed_gas: u64, app_gas: u64) -> u64 {
        checked_add_gas(feed_gas, app_gas)
    }
    pub fn unrelated(height: u64, delta: u64) -> u64 {
        height + delta
    }";
    assert_eq!(
        gas_findings(bare),
        [
            "line 2: bare `+` on gas `feed_gas`",
            "line 3: bare `+` on gas `total_gas`",
            "line 4: bare `-` on gas `total_gas`"
        ]
    );
    assert_eq!(gas_findings(checked), Vec::<String>::new());
}

#[test]
fn hash_into_iter_flagged_on_hash_names_only() {
    assert_seeds(
        hash_into_iter_findings,
        &[
            (2, "struct S { m: HashMap<u8, u8> } fn f(s: S) { let t = HashSet::new(); (s.m.into_iter(), t.into_iter()) }"),
            (0, "fn f(v: Vec<u8>, m: BTreeMap<u8, HashSet<u8>>) { g(v.into_iter(), m.into_iter()) }"),
        ],
    );
}

#[test]
fn registry_drift_is_flagged_both_directions() {
    let code = r#"fn f() { knob("GRUB_ROGUE"); knob(r"GRUB_KEPT"); g("GRUB_KEPT is off") }"#;
    let doc = "| knob | use |\n|---|---|\n| `GRUB_KEPT` | read |\n| `GRUB_GHOST` | - |\n";
    let drift = ["`GRUB_ROGUE` has no row", "`GRUB_GHOST` has no read"];
    assert_eq!(knob_drift([code], doc), drift);
    let pointers = "//! Pointers to ARCHITECTURE.md, NOWHERE.md and ROADMAP.md.";
    assert_eq!(missing_docs(pointers), ["NOWHERE.md is not at the root"]);
    let hooks =
        "fn f() { hit(FaultPoint::PreMerge) } #[cfg(test)] fn t() { hit(FaultPoint::PostStage) }";
    assert_eq!(fault_hooks(hooks), ["PreMerge"]);
}
