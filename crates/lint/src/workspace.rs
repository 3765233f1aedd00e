//! Workspace file discovery and classification.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::rules::{FileClass, FileKind};

/// Directory names never descended into. `fixtures` holds the lint's own
/// deliberately-violating test inputs; the rest are build products, vendored
/// third-party stand-ins or VCS internals.
const SKIP_DIRS: &[&str] = &["target", "vendor", ".git", "bench_results", "fixtures"];

/// Finds the workspace root by walking upward from `start` until a
/// `Cargo.toml` containing a `[workspace]` table appears.
#[must_use]
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

/// Classifies a workspace-relative `.rs` path, or `None` if it is out of
/// scope (not under a recognized target directory).
#[must_use]
pub fn classify(rel: &Path) -> Option<FileClass> {
    let parts: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
    let (crate_name, rest) = match parts.as_slice() {
        ["crates", name, rest @ ..] => ((*name).to_string(), rest),
        rest => ("sbqa".to_string(), rest),
    };
    let kind = match rest.first() {
        Some(&"src") => FileKind::Library,
        Some(&"tests") => FileKind::Test,
        Some(&"examples") => FileKind::Example,
        _ => return None,
    };
    Some(FileClass { crate_name, kind })
}

/// Recursively collects every classifiable `.rs` file under `root`, as
/// `(absolute path, workspace-relative label, class)` sorted by label so
/// reports are deterministic.
pub fn discover(root: &Path) -> io::Result<Vec<(PathBuf, String, FileClass)>> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort_by(|a, b| a.1.cmp(&b.1));
    Ok(files)
}

/// Every `.rs` file under `perf/src`, sorted: read only for the identifiers
/// it uses. The benchmark is its own workspace and is never linted, but what
/// it calls is not dead.
pub fn name_sources(root: &Path) -> io::Result<Vec<PathBuf>> {
    let mut files = Vec::new();
    let dir = root.join("perf/src");
    if dir.is_dir() {
        collect_rs(&dir, &mut files)?;
    }
    files.sort();
    Ok(files)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

fn walk(root: &Path, dir: &Path, out: &mut Vec<(PathBuf, String, FileClass)>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) {
                continue;
            }
            walk(root, &path, out)?;
        } else if name.ends_with(".rs") {
            let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
            if let Some(class) = classify(&rel) {
                let label = rel
                    .iter()
                    .filter_map(|c| c.to_str())
                    .collect::<Vec<_>>()
                    .join("/");
                out.push((path, label, class));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_path() {
        let lib = classify(Path::new("crates/core/src/registry.rs")).unwrap();
        assert_eq!(lib.crate_name, "core");
        assert_eq!(lib.kind, FileKind::Library);

        let bin = classify(Path::new("crates/bench/src/bin/scenario.rs")).unwrap();
        assert_eq!(bin.crate_name, "bench");
        assert_eq!(bin.kind, FileKind::Library);

        let test = classify(Path::new("crates/core/tests/zero_alloc.rs")).unwrap();
        assert_eq!(test.kind, FileKind::Test);

        let root_test = classify(Path::new("tests/golden_scenario1.rs")).unwrap();
        assert_eq!(root_test.crate_name, "sbqa");
        assert_eq!(root_test.kind, FileKind::Test);

        let example = classify(Path::new("examples/quickstart.rs")).unwrap();
        assert_eq!(example.kind, FileKind::Example);

        assert!(classify(Path::new("README.md")).is_none());
        assert!(classify(Path::new("scripts/ci.sh")).is_none());
    }
}
