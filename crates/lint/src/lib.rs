//! `gauss_lint`: stdlib-only static analysis for the Gauss-tree workspace.
//!
//! The build environment has no registry access, so project-specific rules
//! cannot live in clippy plugins or `syn`-based tooling; instead this crate
//! ships a hand-rolled, comment/string/raw-string-aware scanner
//! ([`lexer`]), a recursive-descent item-tree parser ([`parse`]), a small
//! token-rule engine ([`rules`]), and a flow-aware analyzer ([`analysis`])
//! that builds an intra-workspace call graph and enforces the conventions
//! the compiler cannot express:
//!
//! * no `unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!` in non-test
//!   library code,
//! * no raw `std::sync::Mutex`/`Condvar` outside `gauss_storage::sync`
//!   (everything else goes through `TrackedMutex` so the lock-order
//!   detector sees it),
//! * no float `==`/`!=` against literals in `pfv` kernel code,
//! * no bare narrowing `as` casts in page-id/byte-count code,
//! * doc comments on public items in `core`/`pfv`/`storage`,
//! * **static-lock-order**: no call path may acquire a `LockRank` below
//!   one already held (the runtime tracker only sees interleavings tests
//!   happen to execute; this rule sees every path),
//! * **guard-across-call**: no guard live across a call that can
//!   re-acquire its rank, nor across `PageStore` I/O on the query path,
//! * **durability-protocol**: `gauss_storage::commit::commit` must run
//!   its data barrier before its slot write,
//! * **ignored-io-result**: no `let _ =`/`drop(…)` of a storage I/O
//!   `Result`.
//!
//! Violations that are genuinely fine carry an inline escape hatch:
//!
//! ```text
//! // lint: allow(no-panic) -- the scope above joins every worker
//! ```
//!
//! The annotation silences the named rule(s) on its own line, or on the
//! next line when the comment stands alone; the `-- <reason>` is
//! mandatory and malformed annotations are themselves findings. For
//! call-graph rules the annotation goes on the *call site* the finding
//! points at. The lint is self-hosting: `cargo run -p gauss_lint` must
//! exit 0 on this workspace, and CI runs it as a gating job. Findings
//! print as text or as JSON ([`output`]).

#![forbid(unsafe_code)]

pub mod analysis;
pub mod lexer;
pub mod output;
pub mod parse;
pub mod rules;
pub mod walk;

use std::io;
use std::path::Path;

use rules::Finding;
use walk::workspace_files;

/// Lints every workspace `.rs` file under `root`, returning all findings
/// sorted by path and line.
///
/// # Errors
/// Propagates I/O errors from the directory walk or file reads.
pub fn run(root: &Path) -> io::Result<Vec<Finding>> {
    let mut per_file = Vec::new();
    for file in workspace_files(root)? {
        let src = std::fs::read_to_string(&file.abs_path)?;
        per_file.push(analysis::file_facts(&file, &src));
    }
    let mut findings: Vec<Finding> = per_file
        .iter_mut()
        .flat_map(|f| std::mem::take(&mut f.local))
        .collect();
    findings.extend(analysis::global_findings(&per_file));
    findings.sort_by(|a, b| (&a.rel_path, a.line, a.rule).cmp(&(&b.rel_path, b.line, b.rule)));
    findings.dedup();
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The tentpole acceptance test: the lint passes on the workspace that
    /// defines it (self-hosting), and flags its own violation fixture.
    #[test]
    fn self_hosting_clean_on_this_workspace() {
        let here = Path::new(env!("CARGO_MANIFEST_DIR"));
        let root = walk::find_root(here).expect("workspace root above crates/lint");
        let findings = run(&root).expect("workspace readable");
        assert!(
            findings.is_empty(),
            "gauss_lint must be clean on its own workspace:\n{}",
            findings
                .iter()
                .map(ToString::to_string)
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn fixture_workspace_trips_every_rule() {
        let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/ws");
        let findings = run(&fixture).expect("fixture readable");
        let hit: std::collections::BTreeSet<&str> = findings.iter().map(|f| f.rule).collect();
        for (rule, _) in rules::all_rules() {
            assert!(hit.contains(rule), "fixture must trip rule {rule}: {hit:?}");
        }
        // And the allow-annotated site in the fixture stays silent.
        assert!(
            !findings
                .iter()
                .any(|f| f.rel_path.ends_with("allowed.rs") && f.rule != rules::BAD_ALLOW),
            "annotated fixture file must only report its deliberate bad-allow"
        );
    }
}
