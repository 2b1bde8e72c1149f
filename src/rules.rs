//! The project's code rules, and where each one is switched on.
//!
//! Each rule is a rustc or clippy lint denied at a crate root, or a
//! setting in `clippy.toml`; `cargo clippy --workspace --all-targets -- -D
//! warnings` enforces them. Deleting one of those attributes or settings
//! would switch a rule off with no error, so these tests read the crate
//! roots and the config and check that each rule is still on where it
//! should be.

mod tests {
    use std::fs;
    use std::path::{Path, PathBuf};

    /// Every library crate root, plus the CLI binary, which keeps the same
    /// no-panic rules as the libraries.
    const LIB_ROOTS: [(&str, &str); 8] = [
        ("pfv", include_str!("../crates/pfv/src/lib.rs")),
        (
            "gauss_storage",
            include_str!("../crates/storage/src/lib.rs"),
        ),
        ("gauss_tree", include_str!("../crates/core/src/lib.rs")),
        (
            "gauss_baselines",
            include_str!("../crates/baselines/src/lib.rs"),
        ),
        (
            "gauss_workloads",
            include_str!("../crates/workloads/src/lib.rs"),
        ),
        ("gauss_bench", include_str!("../crates/bench/src/lib.rs")),
        ("gausstree", include_str!("lib.rs")),
        ("gauss_cli", include_str!("../crates/cli/src/main.rs")),
    ];

    /// The crates that also get the rules for core code: docs and checked
    /// narrowing casts.
    const CORE_ROOTS: [(&str, &str); 3] = [
        ("pfv", include_str!("../crates/pfv/src/lib.rs")),
        (
            "gauss_storage",
            include_str!("../crates/storage/src/lib.rs"),
        ),
        ("gauss_tree", include_str!("../crates/core/src/lib.rs")),
    ];

    const CLIPPY_TOML: &str = include_str!("../clippy.toml");
    const CARGO_TOML: &str = include_str!("../Cargo.toml");

    /// Lints a crate root denies: `(everywhere, in non-test code only)`.
    /// Reads the `#![deny(..)]` and `#![cfg_attr(not(test), deny(..))]`
    /// inner attributes, each of which may span several lines.
    fn denied(root: &str) -> (Vec<String>, Vec<String>) {
        let (mut always, mut lib_only) = (Vec::new(), Vec::new());
        let mut rest = root;
        while let Some(at) = rest.find("#![") {
            let body = &rest[at + 3..];
            let mut depth = 1;
            let end = body
                .char_indices()
                .find(|&(_, c)| {
                    match c {
                        '[' => depth += 1,
                        ']' => depth -= 1,
                        _ => {}
                    }
                    depth == 0
                })
                .map_or(body.len(), |(i, _)| i);
            let attr: String = body[..end].split_whitespace().collect();
            rest = &body[end..];
            let (list, into) = if let Some(l) = attr.strip_prefix("cfg_attr(not(test),deny(") {
                (l, &mut lib_only)
            } else if let Some(l) = attr.strip_prefix("deny(") {
                (l, &mut always)
            } else {
                continue;
            };
            let list = list.trim_end_matches(')');
            into.extend(list.split(',').filter(|s| !s.is_empty()).map(str::to_owned));
        }
        (always, lib_only)
    }

    fn assert_denies(roots: &[(&str, &str)], lint: &str, in_tests_too: bool) {
        for (name, root) in roots {
            let (always, lib_only) = denied(root);
            let on = always.iter().any(|l| l == lint)
                || (!in_tests_too && lib_only.iter().any(|l| l == lint));
            assert!(on, "{name} does not deny {lint}");
        }
    }

    /// Every `.rs` file under `dir`, recursively.
    fn rust_files(dir: &Path) -> Vec<PathBuf> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                out.extend(rust_files(&path));
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
        out
    }

    /// The library sources under `crates/`, each with its text.
    fn crate_sources() -> Vec<(PathBuf, String)> {
        let crates = Path::new(env!("CARGO_MANIFEST_DIR")).join("crates");
        let mut out = Vec::new();
        for entry in fs::read_dir(crates).unwrap() {
            let src = entry.unwrap().path().join("src");
            if src.is_dir() {
                for file in rust_files(&src) {
                    let text = fs::read_to_string(&file).unwrap();
                    out.push((file, text));
                }
            }
        }
        out
    }

    /// The `reason` of each `#[expect(<lint>, ..)]` or `#![expect(..)]`
    /// in `text`, or `None` for one without a reason.
    fn expects<'a>(text: &'a str, lint: &str) -> Vec<Option<&'a str>> {
        let mut out = Vec::new();
        let mut rest = text;
        while let Some(at) = rest.find("expect(") {
            rest = &rest[at + "expect(".len()..];
            let attr = &rest[..rest.find(']').unwrap_or(rest.len())];
            if attr.trim_start().starts_with(lint)
                && attr.trim_start()[lint.len()..].starts_with([',', ')'])
            {
                out.push(attr.split("reason = ").nth(1));
            }
        }
        out
    }

    #[test]
    fn unwrap_in_lib_code_flagged() {
        assert_denies(&LIB_ROOTS, "clippy::unwrap_used", true);
        assert_denies(&LIB_ROOTS, "clippy::expect_used", true);
    }

    #[test]
    fn unwrap_in_tests_and_bins_not_flagged() {
        for key in [
            "allow-unwrap-in-tests",
            "allow-expect-in-tests",
            "allow-panic-in-tests",
        ] {
            let set = CLIPPY_TOML
                .lines()
                .any(|l| l.split_whitespace().collect::<String>() == format!("{key}=true"));
            assert!(set, "clippy.toml does not set {key} = true");
        }
    }

    #[test]
    fn panic_todo_unimplemented_flagged_with_allow_hatch() {
        assert_denies(&LIB_ROOTS, "clippy::panic", true);
        for lint in ["todo", "unimplemented"] {
            assert!(
                CARGO_TOML.contains(&format!("\n{lint} = \"deny\"")),
                "workspace does not deny {lint}"
            );
        }
        // The hatch is an `#[expect]`, and it must say why.
        for (file, text) in crate_sources() {
            for lint in [
                "clippy::unwrap_used",
                "clippy::expect_used",
                "clippy::panic",
            ] {
                for reason in expects(&text, lint) {
                    assert!(
                        reason.is_some(),
                        "{}: expect({lint}) without a reason",
                        file.display()
                    );
                }
            }
        }
    }

    #[test]
    fn raw_mutex_flagged_outside_sync_module() {
        for ty in [
            "std::sync::Mutex",
            "std::sync::MutexGuard",
            "std::sync::Condvar",
        ] {
            assert!(
                CLIPPY_TOML.contains(&format!("path = \"{ty}\"")),
                "clippy.toml does not disallow {ty}"
            );
        }
        let exempt: Vec<_> = crate_sources()
            .into_iter()
            .filter(|(_, text)| !expects(text, "clippy::disallowed_types").is_empty())
            .map(|(file, _)| file)
            .collect();
        assert_eq!(exempt.len(), 1, "{exempt:?}");
        assert!(
            exempt[0].ends_with("crates/storage/src/sync.rs"),
            "{exempt:?}"
        );
    }

    #[test]
    fn float_eq_flagged_only_in_pfv() {
        let pfv = &LIB_ROOTS[..1];
        assert_denies(pfv, "clippy::float_cmp", false);
        assert_denies(pfv, "clippy::float_cmp_const", false);
    }

    #[test]
    fn cast_truncation_scope_and_allow() {
        assert_denies(&CORE_ROOTS, "clippy::cast_possible_truncation", false);
        for (file, text) in crate_sources() {
            for reason in expects(&text, "clippy::cast_possible_truncation") {
                assert!(
                    reason.is_some(),
                    "{}: cast expect without a reason",
                    file.display()
                );
            }
        }
    }

    #[test]
    fn cast_truncation_flags_f32_outside_quant() {
        // Quantising to `f32` is the one sanctioned narrowing in `pfv`.
        for (file, text) in crate_sources() {
            if file.to_string_lossy().contains("crates/pfv/") && !file.ends_with("quant.rs") {
                assert!(
                    expects(&text, "clippy::cast_possible_truncation").is_empty(),
                    "{} narrows outside quant.rs",
                    file.display()
                );
            }
        }
    }

    #[test]
    fn missing_docs_on_pub_items() {
        assert_denies(&CORE_ROOTS, "missing_docs", true);
    }

    #[test]
    fn bad_allow_reported() {
        assert_denies(&LIB_ROOTS, "clippy::allow_attributes_without_reason", true);
    }
}
