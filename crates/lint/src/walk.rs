//! Deterministic workspace file walker.
//!
//! Directory entries are visited in sorted order so the diagnostic stream
//! is byte-stable across machines — the same discipline the rest of the
//! workspace applies to everything that feeds a digest.

use std::collections::BTreeSet;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// Directory names the walker never descends into: build output, the lint
/// fixture corpus (deliberately violating code), and VCS internals.
const SKIP_DIRS: &[&str] = &["target", "lint_fixtures", ".git"];

/// Recursively collects every `*.rs` under `root/rel`, returned as paths
/// relative to `root`, sorted. A missing `rel` yields an empty list (mini
/// fixture workspaces omit most directories).
pub fn rust_files_under(root: &Path, rel: &str) -> io::Result<Vec<PathBuf>> {
    let dir = root.join(rel);
    if !dir.is_dir() {
        return Ok(Vec::new());
    }
    let mut out = Vec::new();
    collect(root, &dir, &mut out)?;
    out.sort();
    Ok(out)
}

/// Lists immediate subdirectory names of `root/rel`, sorted; empty when
/// `rel` is missing.
pub fn subdirs(root: &Path, rel: &str) -> io::Result<Vec<String>> {
    let dir = root.join(rel);
    if !dir.is_dir() {
        return Ok(Vec::new());
    }
    let mut names = Vec::new();
    for entry in fs::read_dir(&dir)? {
        let entry = entry?;
        if entry.file_type()?.is_dir() {
            if let Some(name) = entry.file_name().to_str() {
                if !SKIP_DIRS.contains(&name) && !name.starts_with('.') {
                    names.push(name.to_string());
                }
            }
        }
    }
    names.sort();
    Ok(names)
}

/// Names of the `*.md` files directly under `root` — the documents a doc
/// comment may point at.
pub fn root_markdown(root: &Path) -> io::Result<BTreeSet<String>> {
    let mut names = BTreeSet::new();
    for entry in fs::read_dir(root)? {
        let entry = entry?;
        if let Some(name) = entry.file_name().to_str() {
            if name.ends_with(".md") && entry.file_type()?.is_file() {
                names.insert(name.to_string());
            }
        }
    }
    Ok(names)
}

fn collect(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .map(|e| e.path())
        .collect();
    entries.sort();
    for path in entries {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if path.is_dir() {
            if SKIP_DIRS.contains(&name) || name.starts_with('.') {
                continue;
            }
            collect(root, &path, out)?;
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
    Ok(())
}
