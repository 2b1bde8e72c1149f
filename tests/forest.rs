//! Property-based equivalence of the Gauss-forest write path.
//!
//! The forest's contract is that the LSM machinery — memtable, tombstone
//! shadowing, flushes into immutable components, multi-way merges — is
//! *invisible* to readers: after ANY interleaving of `insert`, `delete`,
//! `flush` and `maintain`, a snapshot must answer exactly like a fresh
//! single Gauss-tree bulk-loaded from the surviving live set.
//!
//! * k-MLIQ (and the streaming ranking cursor) are asserted
//!   **bit-identical**: same ids, same order, same `log_density` bits;
//! * TIQ id sets are asserted identical, with per-id probabilities agreeing
//!   to well under the query accuracy (the interval *bounds* may close in
//!   different exploration orders across component forests, so only the
//!   settled answer is contractual);
//! * refined k-MLIQ ids and density bits are asserted identical, and every
//!   reported `[prob_lo, prob_hi]` must contain the brute-force posterior
//!   and be no wider than the accuracy; `tiq_anytime` must report a
//!   superset of the exact TIQ; box-query answers are bit-identical;
//! * a forest flushed once into a single component with an empty memtable
//!   is asserted bit-equal to the bulk-loaded tree on *every* entry point,
//!   interval bounds included — the contract that lets one read engine
//!   serve both (`one_component_forest_is_bit_equal_to_the_tree`);
//! * `contains`/`len` bookkeeping matches a plain map replay, and both
//!   leaf formats are exercised (the memtable pre-quantises, so flushing
//!   must never re-round).

use gausstree::pfv::Pfv;
use gausstree::storage::MemComponentStores;
use gausstree::storage::{AccessStats, MemStore, PageStore, SharedBufferPool};
use gausstree::tree::{ForestOptions, GaussForest, GaussTree, LeafFormat, ReadView, TreeConfig};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// One step of the interleaved workload.
#[derive(Debug, Clone)]
enum Op {
    Insert(u64, Vec<f64>, Vec<f64>),
    Delete(u64),
    Flush,
    Maintain,
}

fn op_strategy(dims: usize, id_space: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (
            0..id_space,
            prop::collection::vec(-20.0..20.0f64, dims),
            prop::collection::vec(0.05..3.0f64, dims),
        )
            .prop_map(|(id, m, s)| Op::Insert(id, m, s)),
        2 => (0..id_space).prop_map(Op::Delete),
        1 => Just(Op::Flush),
        1 => Just(Op::Maintain),
    ]
}

/// Replays `ops` against a forest and a plain map side by side.
fn run_ops(
    ops: &[Op],
    dims: usize,
    format: LeafFormat,
    memtable_capacity: usize,
) -> (GaussForest<MemComponentStores>, BTreeMap<u64, Pfv>) {
    let config = TreeConfig::new(dims)
        .with_capacities(6, 4)
        .with_leaf_format(format);
    let mut forest = GaussForest::create(
        MemComponentStores::new(4096),
        config,
        ForestOptions::new().memtable_capacity(memtable_capacity),
    )
    .expect("create forest");
    let mut model: BTreeMap<u64, Pfv> = BTreeMap::new();
    for op in ops {
        match op {
            Op::Insert(id, m, s) => {
                let v = Pfv::new(m.clone(), s.clone()).expect("valid pfv");
                forest.insert(*id, &v).expect("insert");
                model.insert(*id, v);
            }
            Op::Delete(id) => {
                let existed = forest.delete(*id).expect("delete");
                assert_eq!(existed, model.remove(id).is_some(), "delete({id}) status");
            }
            Op::Flush => {
                forest.flush().expect("flush");
            }
            Op::Maintain => {
                forest.maintain().expect("maintain");
            }
        }
        assert_eq!(forest.len(), model.len() as u64, "live count after {op:?}");
    }
    (forest, model)
}

/// Bulk-loads the model's live set into a fresh single tree.
fn reference_tree(model: &BTreeMap<u64, Pfv>, config: TreeConfig) -> GaussTree<MemStore> {
    let items: Vec<(u64, Pfv)> = model.iter().map(|(id, v)| (*id, v.clone())).collect();
    let pool = SharedBufferPool::new(MemStore::new(4096), 256, AccessStats::new_shared());
    GaussTree::bulk_load(pool, config, items).expect("reference bulk load")
}

fn check_equivalence(ops: &[Op], dims: usize, format: LeafFormat, queries: &[Pfv]) {
    let (forest, model) = run_ops(ops, dims, format, 4);
    let config = *forest.config();
    let reference = reference_tree(&model, config);
    let snap = forest.snapshot().expect("snapshot");
    assert_eq!(snap.len(), reference.len());

    for id in model.keys() {
        assert!(forest.contains(*id));
    }

    // The stored live set (the quantised image under `Quantised`), id
    // ascending: what the brute-force Bayes oracle sums over.
    let mut stored: Vec<(u64, Pfv)> = Vec::new();
    reference
        .for_each_entry(|id, v| stored.push((id, v.clone())))
        .expect("reference entries");
    stored.sort_by_key(|(id, _)| *id);
    let stored_pfvs: Vec<Pfv> = stored.iter().map(|(_, v)| v.clone()).collect();

    for q in queries {
        // k-MLIQ: bit-identical ids, order and densities.
        let k = 5;
        let a = snap.k_mliq(q, k).expect("forest k-mliq");
        let b = reference.k_mliq(q, k).expect("reference k-mliq");
        assert_eq!(a, b, "k-MLIQ diverged");

        // Ranking cursor agrees with k-MLIQ prefix semantics too.
        let mut cursor = snap.ranking_cursor(q).expect("cursor");
        let mut cursor_ids: Vec<u64> = Vec::new();
        while cursor_ids.len() < k {
            match cursor.next_hit().expect("cursor hit") {
                Some(hit) => cursor_ids.push(hit.id),
                None => break,
            }
        }
        let ref_ids: Vec<u64> = b.iter().map(|h| h.id).collect();
        assert_eq!(cursor_ids, ref_ids, "ranking cursor diverged");

        // TIQ: identical id sets; probabilities equal to far tighter than
        // the accuracy both sides refined to.
        let theta = 0.05;
        let accuracy = 1e-7;
        let mut fa = snap.tiq(q, theta, accuracy).expect("forest tiq");
        let mut fb = reference.tiq(q, theta, accuracy).expect("reference tiq");
        fa.sort_by_key(|h| h.id);
        fb.sort_by_key(|h| h.id);
        let ids_a: Vec<u64> = fa.iter().map(|h| h.id).collect();
        let ids_b: Vec<u64> = fb.iter().map(|h| h.id).collect();
        assert_eq!(ids_a, ids_b, "TIQ id sets diverged");
        for (x, y) in fa.iter().zip(&fb) {
            assert!(
                (x.probability - y.probability).abs() <= 1e-6,
                "TIQ probability diverged for id {}: {} vs {}\nforest: {:?}\nreference: {:?}",
                x.id,
                x.probability,
                y.probability,
                fa,
                fb
            );
        }

        // Refined k-MLIQ: ids and density bits as the reference tree; the
        // intervals are exploration-order dependent, so each side answers
        // to the brute-force posterior instead of to the other.
        let accuracy = 1e-6;
        let ra = snap.k_mliq_refined(q, k, accuracy).expect("forest refined");
        let rb = reference
            .k_mliq_refined(q, k, accuracy)
            .expect("reference refined");
        let key = |r: &gausstree::tree::RefinedResult| (r.id, r.log_density.to_bits());
        assert_eq!(
            ra.iter().map(key).collect::<Vec<_>>(),
            rb.iter().map(key).collect::<Vec<_>>(),
            "refined k-MLIQ diverged"
        );
        let truth = gausstree::pfv::posteriors(config.combine, &stored_pfvs, q);
        for r in &ra {
            let at = stored
                .binary_search_by_key(&r.id, |(id, _)| *id)
                .expect("refined hit is live");
            let want = truth[at].probability;
            assert!(
                r.prob_lo <= want + 1e-9 && want <= r.prob_hi + 1e-9,
                "posterior {want} of id {} outside [{}, {}]",
                r.id,
                r.prob_lo,
                r.prob_hi
            );
            assert!(
                r.prob_hi - r.prob_lo <= accuracy + 1e-9,
                "interval of id {} wider than the accuracy: [{}, {}]",
                r.id,
                r.prob_lo,
                r.prob_hi
            );
        }

        // Anytime TIQ never dismisses what the exact TIQ reports.
        let anytime: BTreeSet<u64> = snap
            .tiq_anytime(q, theta)
            .expect("forest anytime tiq")
            .iter()
            .map(|h| h.id)
            .collect();
        for id in &ids_a {
            assert!(anytime.contains(id), "tiq_anytime dismissed id {id}");
        }

        // Box query: bit-identical ids, order and probabilities.
        for (half, tau) in [(1.5, 0.2), (6.0, 0.01)] {
            let lo: Vec<f64> = q.means().iter().map(|m| m - half).collect();
            let hi: Vec<f64> = q.means().iter().map(|m| m + half).collect();
            let ba = snap
                .probabilistic_box_query(&lo, &hi, tau)
                .expect("forest box query");
            let bb = reference
                .probabilistic_box_query(&lo, &hi, tau)
                .expect("reference box query");
            assert_eq!(ba, bb, "box query diverged");
        }
    }

    // The full visible entry stream matches the model exactly.
    let mut seen: Vec<(u64, Pfv)> = Vec::new();
    snap.for_each_entry(|id, v| seen.push((id, v.clone())))
        .expect("for_each_entry");
    seen.sort_by_key(|(id, _)| *id);
    let expect: Vec<(u64, Pfv)> = if format == LeafFormat::Quantised {
        // The tree stores the quantised image of what was inserted; the
        // round-trip through the forest must quantise exactly once.
        stored
    } else {
        model.iter().map(|(id, v)| (*id, v.clone())).collect()
    };
    assert_eq!(seen, expect, "visible entry set diverged");
}

fn queries_for(dims: usize) -> Vec<Pfv> {
    [(0.0, 0.5), (5.0, 1.0), (-8.0, 0.2), (15.0, 2.0)]
        .iter()
        .map(|&(m, s)| Pfv::new(vec![m; dims], vec![s; dims]).expect("query"))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn interleavings_match_fresh_bulk_load_exact(
        ops in prop::collection::vec(op_strategy(2, 24), 1..80),
    ) {
        check_equivalence(&ops, 2, LeafFormat::Exact, &queries_for(2));
    }

    #[test]
    fn interleavings_match_fresh_bulk_load_quantised(
        ops in prop::collection::vec(op_strategy(3, 16), 1..60),
    ) {
        check_equivalence(&ops, 3, LeafFormat::Quantised, &queries_for(3));
    }
}

/// A deterministic deep workload: enough volume to stack several levels,
/// heavy same-id churn, then full compaction — the shape proptest's small
/// cases rarely reach.
#[test]
fn deep_churn_matches_reference() {
    let dims = 2;
    let mut ops: Vec<Op> = Vec::new();
    for round in 0..6u64 {
        for i in 0..40u64 {
            let id = i % 24;
            let x = (id as f64) - 10.0 + round as f64 * 0.1;
            ops.push(Op::Insert(id, vec![x, -x], vec![0.3, 0.7]));
        }
        ops.push(Op::Flush);
        if round % 2 == 1 {
            ops.push(Op::Maintain);
        }
        for id in (round * 3)..(round * 3 + 3) {
            ops.push(Op::Delete(id % 24));
        }
    }
    ops.push(Op::Flush);
    ops.push(Op::Maintain);
    check_equivalence(&ops, dims, LeafFormat::Exact, &queries_for(dims));
}

/// Every field of every entry point's answer for `q`, by bits: one row
/// `(entry point, id, [fields])` per reported object.
fn answer_bits<S: PageStore, V: ReadView<S>>(view: &V, q: &Pfv) -> Vec<(String, u64, Vec<u64>)> {
    let mut rows = Vec::new();
    let mut row = |what: &str, id: u64, fields: &[f64]| {
        rows.push((
            what.to_string(),
            id,
            fields.iter().map(|f| f.to_bits()).collect(),
        ));
    };
    for h in view.k_mliq(q, 7).expect("k-mliq") {
        row("k_mliq", h.id, &[h.log_density]);
    }
    for accuracy in [1e-2, 1e-7] {
        for h in view.k_mliq_refined(q, 7, accuracy).expect("refined") {
            let fields = [h.log_density, h.probability, h.prob_lo, h.prob_hi];
            row(&format!("refined a={accuracy}"), h.id, &fields);
        }
        for theta in [0.05, 0.2, 0.7] {
            for h in view.tiq(q, theta, accuracy).expect("tiq") {
                let fields = [h.log_density, h.probability, h.prob_lo, h.prob_hi];
                row(&format!("tiq t={theta} a={accuracy}"), h.id, &fields);
            }
        }
    }
    for theta in [0.05, 0.2, 0.7] {
        for h in view.tiq_anytime(q, theta).expect("anytime tiq") {
            let fields = [h.log_density, h.probability, h.prob_lo, h.prob_hi];
            row(&format!("tiq_anytime t={theta}"), h.id, &fields);
        }
    }
    let lo: Vec<f64> = q.means().iter().map(|m| m - 2.0).collect();
    let hi: Vec<f64> = q.means().iter().map(|m| m + 2.0).collect();
    for h in view
        .probabilistic_box_query(&lo, &hi, 0.05)
        .expect("box query")
    {
        row("box", h.id, &[h.probability]);
    }
    let mut cursor = view.ranking_cursor(q).expect("cursor");
    for _ in 0..20 {
        match cursor.next_hit().expect("cursor hit") {
            Some(h) => row("cursor", h.id, &[h.log_density]),
            None => break,
        }
    }
    rows
}

/// All inserts, one flush, empty memtable: the forest *is* one bulk-loaded
/// tree, so every entry point — interval bounds and the ranking cursor
/// included — must agree with the bulk-loaded reference bit for bit.
#[test]
fn one_component_forest_is_bit_equal_to_the_tree() {
    for (dims, format) in [(2, LeafFormat::Exact), (3, LeafFormat::Quantised)] {
        let config = TreeConfig::new(dims)
            .with_capacities(6, 4)
            .with_leaf_format(format);
        let mut forest = GaussForest::create(
            MemComponentStores::new(4096),
            config,
            ForestOptions::new().memtable_capacity(10_000),
        )
        .expect("create forest");
        let mut model: BTreeMap<u64, Pfv> = BTreeMap::new();
        for id in 0..300u64 {
            let t = id as f64;
            let means: Vec<f64> = (0..dims)
                .map(|j| ((t + 1.0) * (0.37 + j as f64 * 0.21)).sin() * 12.0)
                .collect();
            let sigmas: Vec<f64> = (0..dims)
                .map(|j| 0.1 + ((id + j as u64) % 7) as f64 * 0.25)
                .collect();
            let v = Pfv::new(means, sigmas).expect("valid pfv");
            forest.insert(id, &v).expect("insert");
            model.insert(id, v);
        }
        assert!(forest.flush().expect("flush"));
        assert_eq!(forest.component_stats().len(), 1);
        assert_eq!(forest.memtable_len(), 0);
        let snap = forest.snapshot().expect("snapshot");
        let reference = reference_tree(&model, config);

        let mut queries = queries_for(dims);
        // Near stored objects, so TIQ and the intervals are non-trivial.
        for id in [7u64, 150, 299] {
            queries.push(Pfv::new(model[&id].means().to_vec(), vec![0.3; dims]).expect("query"));
        }
        for q in &queries {
            assert_eq!(answer_bits(&snap, q), answer_bits(&reference, q));
        }
    }
}
