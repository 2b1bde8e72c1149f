//! Golden-finding tests: each flow-aware rule against the fixture
//! workspace, asserting exact rule id, file, line, and chain rendering —
//! plus the JSON feed's shape.

use std::path::{Path, PathBuf};

use gauss_lint::rules::{
    DURABILITY_PROTOCOL, GUARD_ACROSS_CALL, IGNORED_IO_RESULT, STATIC_LOCK_ORDER,
};
use gauss_lint::{output, run};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures/ws")
}

fn fixture_findings() -> Vec<gauss_lint::rules::Finding> {
    run(&fixture_root()).expect("fixture readable")
}

#[test]
fn seeded_inversion_reported_with_full_call_chain() {
    let findings = fixture_findings();
    let slo: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == STATIC_LOCK_ORDER)
        .collect();
    assert_eq!(slo.len(), 1, "{slo:?}");
    let f = slo[0];
    assert_eq!(f.rel_path, "crates/storage/src/locks.rs");
    assert_eq!(f.line, 24, "anchored at the call that starts the bad path");
    assert_eq!(
        f.chain,
        vec![
            "Pool::shard_then_store",
            "Pool::refill_from_disk",
            "Pool::grab_store"
        ],
        "three-hop chain, end to end"
    );
    assert!(
        f.message.contains("`Pool::grab_store`")
            && f.message.contains("rank 0/Store")
            && f.message.contains("crates/storage/src/locks.rs:33"),
        "message names the sink and the acquisition site: {}",
        f.message
    );
    let text = f.to_string();
    assert!(
        text.contains(
            "chain: Pool::shard_then_store -> Pool::refill_from_disk -> Pool::grab_store"
        ),
        "text rendering carries the chain: {text}"
    );
}

#[test]
fn guard_across_call_equal_rank_and_query_path_io() {
    let findings = fixture_findings();
    let gac: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == GUARD_ACROSS_CALL)
        .collect();
    assert_eq!(gac.len(), 2, "{gac:?}");
    // Equal-rank re-acquisition through a call.
    let call = gac
        .iter()
        .find(|f| f.rel_path == "crates/storage/src/locks.rs")
        .expect("locks.rs finding");
    assert_eq!(call.line, 40);
    assert_eq!(call.chain, vec!["Pool::double_store", "Pool::store_total"]);
    assert!(call.message.contains("re-acquire the same rank"));
    // Guard across PageStore I/O on the query path.
    let io = gac
        .iter()
        .find(|f| f.rel_path == "crates/core/src/query.rs")
        .expect("query.rs finding");
    assert_eq!(io.line, 8);
    assert!(io.message.contains("read_page"), "{}", io.message);
}

#[test]
fn durability_protocol_violations_pinned() {
    let findings = fixture_findings();
    let dur: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == DURABILITY_PROTOCOL)
        .collect();
    assert_eq!(dur.len(), 1, "{dur:?}");
    assert!(dur
        .iter()
        .any(|f| f.rel_path == "crates/storage/src/commit.rs"
            && f.line == 9
            && f.message.contains("data_barrier")));
}

#[test]
fn ignored_io_result_in_lib_and_relaxed_test_scope() {
    let findings = fixture_findings();
    let io: Vec<_> = findings
        .iter()
        .filter(|f| f.rule == IGNORED_IO_RESULT)
        .collect();
    assert_eq!(io.len(), 2, "{io:?}");
    assert!(io
        .iter()
        .any(|f| f.rel_path == "crates/storage/src/lib.rs" && f.line == 14));
    // Root tests/ run the relaxed set: unwrap is fine, dropped I/O is not.
    assert!(io
        .iter()
        .any(|f| f.rel_path == "tests/smoke.rs" && f.line == 6));
    assert!(
        !findings
            .iter()
            .any(|f| f.rel_path == "tests/smoke.rs" && f.rule == "no-panic"),
        "no-panic stays off in test files"
    );
}

#[test]
fn json_output_carries_fixture_findings() {
    let findings = fixture_findings();
    let json = output::to_json(&findings);
    assert!(json.contains("\"version\":1"));
    assert!(json.contains("\"rule\":\"static-lock-order\""));
    assert!(json.contains("\"path\":\"crates/storage/src/locks.rs\""));
    assert!(json.contains("\"chain\":[\"Pool::shard_then_store\""));
}

#[test]
fn real_workspace_lock_facts_are_not_vacuous() {
    // Guards against the analysis silently seeing nothing: the real
    // buffer pool must yield lock facts at both ends of the hierarchy (its
    // frame shards through the `SideCache` they are built as), and the
    // store guard must be seen live across the calls its write path makes
    // under it.
    let here = Path::new(env!("CARGO_MANIFEST_DIR"));
    let root = gauss_lint::walk::find_root(here).expect("workspace root");
    let shared = root.join("crates/storage/src/shared.rs");
    let src = std::fs::read_to_string(&shared).expect("shared.rs readable");
    let (kind, crate_name) = gauss_lint::walk::classify("crates/storage/src/shared.rs");
    let file = gauss_lint::walk::SourceFile {
        rel_path: "crates/storage/src/shared.rs".to_string(),
        abs_path: shared,
        kind,
        crate_name,
    };
    let facts = gauss_lint::analysis::file_facts(&file, &src);
    let ranks: std::collections::BTreeSet<u8> = facts
        .fns
        .iter()
        .flat_map(|f| f.acquires.iter().map(|a| a.rank))
        .collect();
    assert!(
        ranks.contains(&0) && ranks.contains(&1),
        "shared.rs must show Store and Shard acquisitions, got {ranks:?}"
    );
    let under_store: Vec<&str> = facts
        .fns
        .iter()
        .flat_map(|f| &f.calls)
        .filter(|c| c.held.iter().any(|h| h.rank == 0))
        .map(|c| c.name.as_str())
        .collect();
    assert!(
        under_store.contains(&"write_page") && under_store.contains(&"install"),
        "a write stores and installs under the store guard, got {under_store:?}"
    );
    assert!(
        facts.fns.iter().any(|f| !f.calls.is_empty()),
        "call graph must have edges out of shared.rs"
    );
}
