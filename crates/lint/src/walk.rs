//! Workspace traversal and file classification.
//!
//! Rules apply to different slices of the tree: the panic and mutex rules
//! police first-party *library* code, the float rule only the `pfv` kernel
//! crate, and vendored shims are exempt from everything except the
//! `bad-allow` annotation check. This module walks the workspace once and
//! hands every `.rs` file to the rule engine with a [`FileKind`]
//! classification derived from its path.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// What part of the workspace a file belongs to, by path convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileKind {
    /// Library code of a first-party crate (`crates/*/src`, root `src/`).
    Lib,
    /// Binary / bench code (`src/bin`, `main.rs`, `benches/`):
    /// first-party, but allowed to panic on bad input.
    Bin,
    /// Example programs (`examples/`): like binaries, but they demonstrate
    /// API usage, so the lock-protocol rules stay on.
    Example,
    /// Integration tests (root `tests/`, `crates/*/tests/`): relaxed rule
    /// set — no-panic off, but `ignored-io-result` stays on.
    Test,
    /// Vendored dependency shims (`shims/`): not first-party style-wise.
    Shim,
}

/// One workspace source file, classified.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the workspace root (forward slashes).
    pub rel_path: String,
    /// Absolute path on disk.
    pub abs_path: PathBuf,
    /// Which rule scope the file falls into.
    pub kind: FileKind,
    /// Name of the owning crate directory (`pfv`, `storage`, `lint`, …);
    /// the umbrella crate at the root is `"."`.
    pub crate_name: String,
}

impl SourceFile {
    /// Whether this is non-test first-party library code — the scope of
    /// the strictest rules.
    #[must_use]
    pub fn is_lib(&self) -> bool {
        self.kind == FileKind::Lib
    }
}

/// Classifies `rel` (a `/`-separated path relative to the workspace root).
#[must_use]
pub fn classify(rel: &str) -> (FileKind, String) {
    let parts: Vec<&str> = rel.split('/').collect();
    let crate_name = match parts.as_slice() {
        ["crates", name, ..] => (*name).to_string(),
        ["shims", name, ..] => (*name).to_string(),
        _ => ".".to_string(),
    };
    let kind = if parts.first() == Some(&"shims") {
        FileKind::Shim
    } else if parts.contains(&"tests") {
        FileKind::Test
    } else if parts.contains(&"examples") {
        FileKind::Example
    } else if parts.contains(&"benches")
        || parts.windows(2).any(|w| w == ["src", "bin"])
        || parts.last() == Some(&"main.rs")
        || parts.last() == Some(&"build.rs")
    {
        FileKind::Bin
    } else {
        FileKind::Lib
    };
    (kind, crate_name)
}

/// Directories never descended into.
fn skip_dir(name: &str) -> bool {
    name == "target" || name.starts_with('.') || name == "fixtures"
}

/// Collects every `.rs` file under `root`, classified, sorted by path.
///
/// `fixtures/` directories are skipped so the lint's own violation
/// fixtures do not fail the self-hosted run.
///
/// # Errors
/// Propagates I/O errors from directory traversal.
pub fn workspace_files(root: &Path) -> io::Result<Vec<SourceFile>> {
    let mut out = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if !skip_dir(&name) {
                    stack.push(path);
                }
            } else if name.ends_with(".rs") {
                let rel = path
                    .strip_prefix(root)
                    .unwrap_or(&path)
                    .components()
                    .map(|c| c.as_os_str().to_string_lossy().into_owned())
                    .collect::<Vec<_>>()
                    .join("/");
                let (kind, crate_name) = classify(&rel);
                out.push(SourceFile {
                    rel_path: rel,
                    abs_path: path,
                    kind,
                    crate_name,
                });
            }
        }
    }
    out.sort_by(|a, b| a.rel_path.cmp(&b.rel_path));
    Ok(out)
}

/// Finds the workspace root: the nearest ancestor of `start` whose
/// `Cargo.toml` declares `[workspace]`.
#[must_use]
pub fn find_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification_by_path() {
        assert_eq!(
            classify("crates/pfv/src/gaussian.rs"),
            (FileKind::Lib, "pfv".to_string())
        );
        assert_eq!(
            classify("crates/storage/src/sync.rs").0,
            FileKind::Lib,
            "sync module is lib code"
        );
        assert_eq!(classify("crates/cli/src/main.rs").0, FileKind::Bin);
        assert_eq!(
            classify("crates/bench/src/bin/answer_bits.rs").0,
            FileKind::Bin
        );
        assert_eq!(
            classify("crates/bench/benches/microbench.rs").0,
            FileKind::Bin
        );
        assert_eq!(classify("examples/quickstart.rs").0, FileKind::Example);
        assert_eq!(classify("tests/concurrency.rs").0, FileKind::Test);
        assert_eq!(classify("crates/storage/tests/foo.rs").0, FileKind::Test);
        assert_eq!(
            classify("shims/rand/src/lib.rs"),
            (FileKind::Shim, "rand".to_string())
        );
        assert_eq!(classify("src/lib.rs"), (FileKind::Lib, ".".to_string()));
    }
}
