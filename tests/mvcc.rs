//! Snapshot isolation under a racing writer.
//!
//! The forest is the durable writer, and [`ForestSnapshot`] is its reader
//! half: the memtable image plus an `Arc` of every write-once component
//! tree. This suite pins down its contract while a writer runs on the other
//! side of a thread boundary: queries on a snapshot are bit-identical to
//! the same queries on the quiesced forest at pin time — whatever the
//! writer inserts, deletes, flushes and merges afterwards, components it
//! drops included — and its k-MLIQ answers equal those of one tree
//! bulk-loaded over the pinned live set.

use gausstree::pfv::Pfv;
use gausstree::storage::{
    AccessStats, Durability, MemComponentStores, MemStore, PageStore, SharedBufferPool,
};
use gausstree::tree::{
    ForestOptions, ForestSnapshot, GaussForest, GaussTree, ReadView, TreeConfig,
};

fn pfv2(i: u64, salt: u64) -> Pfv {
    Pfv::new(
        vec![
            ((i * 29 + salt) % 97) as f64 * 0.4 - 19.0,
            ((i * 13 + salt * 7) % 89) as f64 * 0.4 - 17.0,
        ],
        vec![
            0.05 + (i % 7) as f64 * 0.05,
            0.05 + ((i + salt) % 5) as f64 * 0.07,
        ],
    )
    .unwrap()
}

/// Order-independent, bit-exact logical content of any read view.
fn logical_state<S: PageStore, V: ReadView<S>>(view: &V) -> Vec<(u64, Vec<u64>, Vec<u64>)> {
    let mut entries = Vec::new();
    view.for_each_entry(|id, pfv| {
        entries.push((
            id,
            pfv.means().iter().map(|m| m.to_bits()).collect(),
            pfv.sigmas().iter().map(|s| s.to_bits()).collect(),
        ));
    })
    .unwrap();
    entries.sort();
    entries
}

/// Every query family, captured bit-exactly so racing reads can be
/// compared for equality, not approximation.
fn query_fingerprint<S: PageStore, V: ReadView<S>>(view: &V, q: &Pfv) -> Vec<(u64, u64)> {
    let mut out: Vec<(u64, u64)> = view
        .k_mliq(q, 10)
        .unwrap()
        .into_iter()
        .map(|h| (h.id, h.log_density.to_bits()))
        .collect();
    for h in view.tiq(q, 0.05, 1e-6).unwrap() {
        out.push((h.id, h.probability.to_bits()));
    }
    let mut cursor = view.ranking_cursor(q).unwrap();
    for _ in 0..5 {
        if let Some(h) = cursor.next_hit().unwrap() {
            out.push((h.id, h.log_density.to_bits()));
        }
    }
    for h in view
        .probabilistic_box_query(&[-5.0, -5.0], &[5.0, 5.0], 0.01)
        .unwrap()
    {
        out.push((h.id, h.probability.to_bits()));
    }
    out
}

/// A forest of 200 objects with several components, shadowed ids and a
/// live memtable.
fn build(durability: Durability) -> GaussForest<MemComponentStores> {
    let mut forest = GaussForest::create(
        MemComponentStores::new(1024),
        TreeConfig::new(2).with_capacities(5, 4),
        ForestOptions::new()
            .memtable_capacity(48)
            .durability(durability),
    )
    .unwrap();
    for i in 0..200 {
        forest.insert(i, &pfv2(i, 3)).unwrap();
    }
    for i in (0..200).step_by(9) {
        forest.delete(i).unwrap();
    }
    for i in (1..200).step_by(13) {
        forest.insert(i, &pfv2(i, 5)).unwrap();
    }
    forest
}

#[test]
fn snapshot_matches_quiesced_tree_bit_for_bit_under_racing_writer() {
    for durability in [Durability::None, Durability::Fsync] {
        let mut forest = build(durability);
        let q = Pfv::new(vec![1.5, -2.0], vec![0.3, 0.3]).unwrap();
        let live = forest.len();
        assert!(forest.component_stats().len() > 1 && forest.memtable_len() > 0);

        // Quiesced ground truth at pin time.
        let snap: ForestSnapshot<_> = forest.snapshot().unwrap();
        let epoch0 = snap.epoch();
        let want_state = logical_state(&snap);
        let want_queries = query_fingerprint(&snap, &q);
        assert_eq!(snap.len(), live);

        // Readers race the writer: the writer inserts, deletes, flushes
        // and merges (dropping the components the snapshot holds) while
        // reader threads keep querying their clones of the snapshot.
        let mut merges = 0;
        std::thread::scope(|scope| {
            let workers: Vec<_> = (0..3)
                .map(|_| {
                    let snap = snap.clone();
                    let q = q.clone();
                    scope.spawn(move || {
                        let mut fps = Vec::new();
                        for _ in 0..20 {
                            fps.push(query_fingerprint(&snap, &q));
                        }
                        fps
                    })
                })
                .collect();
            for round in 0u64..5 {
                for i in 0..40 {
                    forest
                        .insert(1_000 + round * 100 + i, &pfv2(i, round + 11))
                        .unwrap();
                }
                for i in (round * 20..round * 20 + 20).filter(|i| i % 3 == 0) {
                    forest.delete(i).unwrap();
                }
                forest.flush().unwrap();
                merges += forest.maintain().unwrap().merges;
            }
            for w in workers {
                for fp in w.join().unwrap() {
                    assert_eq!(fp, want_queries, "racing snapshot read diverged");
                }
            }
        });

        // The writer moved on; the snapshot did not.
        assert!(merges > 0, "the writer must have merged components away");
        assert!(forest.epoch() > epoch0, "writer must have committed");
        assert_ne!(forest.len(), live);
        assert_eq!(snap.len(), live);
        assert_eq!(logical_state(&snap), want_state);
        assert_eq!(query_fingerprint(&snap, &q), want_queries);

        // The batch executor fans out over the snapshot too.
        let serial = snap.k_mliq(&q, 5).unwrap();
        let batched = snap.batch(4).k_mliq(&[q.clone(), q.clone()], 5).unwrap();
        assert_eq!(batched, vec![serial.clone(), serial.clone()]);

        // And it answers like one tree bulk-loaded over its live set.
        let mut items: Vec<(u64, Pfv)> = Vec::new();
        snap.for_each_entry(|id, v| items.push((id, v.clone())))
            .unwrap();
        let pool = SharedBufferPool::new(MemStore::new(1024), 1024, AccessStats::new_shared());
        let reference = GaussTree::bulk_load(pool, *snap.config(), items).unwrap();
        assert!(reference.check_invariants(true).unwrap().is_empty());
        assert_eq!(reference.k_mliq(&q, 5).unwrap(), serial);
        assert_eq!(logical_state(&reference), want_state);
    }
}
