//! Cross-crate pipeline tests: workloads → indexes → metrics, mirroring the
//! paper's evaluation at smoke-test scale.

use gausstree::baselines::{euclidean_knn, PfvFile, Rect, XTree, XTreeConfig};
use gausstree::pfv::{CombineMode, Pfv};
use gausstree::storage::{AccessStats, MemStore, SharedBufferPool, DEFAULT_PAGE_SIZE};
use gausstree::tree::ReadView;
use gausstree::tree::{GaussTree, TreeConfig};
use gausstree::workloads::metrics::{precision_recall_sweep, rank_of};
use gausstree::workloads::{generate_queries, histogram_dataset, uniform_dataset, SigmaSpec};

fn mem_pool(cap: usize) -> SharedBufferPool<MemStore> {
    SharedBufferPool::new(
        MemStore::new(DEFAULT_PAGE_SIZE),
        cap,
        AccessStats::new_shared(),
    )
}

#[test]
fn effectiveness_pipeline_mliq_beats_nn() {
    // Miniature Figure 6: heteroscedastic histograms where Euclidean NN is
    // misled but the Gaussian model identifies almost perfectly.
    let sigma = SigmaSpec::log_uniform(0.05, 0.9)
        .with_object_scale(0.5, 2.0)
        .relative_to_value(0.01);
    let dataset = histogram_dataset(2000, 27, sigma, 99);
    let queries = generate_queries(&dataset, 40, sigma, 7);

    let tree = GaussTree::bulk_load(mem_pool(4096), TreeConfig::new(27), dataset.items()).unwrap();

    let mut mliq_ranks = Vec::new();
    let mut nn_ranks = Vec::new();
    for q in &queries {
        let ids: Vec<u64> = tree
            .k_mliq(&q.query, 9)
            .unwrap()
            .iter()
            .map(|r| r.id)
            .collect();
        mliq_ranks.push(rank_of(&ids, q.truth as u64));
        let ids: Vec<u64> = euclidean_knn(&dataset.objects, &q.query, 9)
            .iter()
            .map(|(i, _)| *i as u64)
            .collect();
        nn_ranks.push(rank_of(&ids, q.truth as u64));
    }
    let mliq = precision_recall_sweep(&mliq_ranks, 3, 3);
    let nn = precision_recall_sweep(&nn_ranks, 3, 3);
    assert!(
        mliq.recall[0] >= 0.85,
        "MLIQ recall too low: {}",
        mliq.recall[0]
    );
    assert!(
        mliq.recall[0] > nn.recall[0],
        "MLIQ ({}) must beat NN ({})",
        mliq.recall[0],
        nn.recall[0]
    );
}

#[test]
fn efficiency_pipeline_tree_reads_fewer_pages_than_scan() {
    let sigma = SigmaSpec::log_uniform(0.05, 0.9)
        .with_object_scale(0.5, 2.0)
        .relative_to_value(0.01);
    let dataset = histogram_dataset(3000, 27, sigma, 5);
    let queries = generate_queries(&dataset, 10, sigma, 3);

    let mut file = PfvFile::build(mem_pool(1 << 14), 27, dataset.items()).unwrap();
    let tree =
        GaussTree::bulk_load(mem_pool(1 << 14), TreeConfig::new(27), dataset.items()).unwrap();

    let mut scan_pages = 0u64;
    let mut tree_pages = 0u64;
    for q in &queries {
        let b = file.stats().snapshot();
        let scan_top = file.k_mliq(&q.query, 1, CombineMode::Convolution).unwrap();
        scan_pages += file.stats().snapshot().since(&b).logical_reads;

        let b = tree.stats().snapshot();
        let tree_top = tree.k_mliq(&q.query, 1).unwrap();
        tree_pages += tree.stats().snapshot().since(&b).logical_reads;

        // Same winner (no ties in generated data).
        assert_eq!(scan_top[0].0, tree_top[0].id);
    }
    assert!(
        tree_pages * 2 < scan_pages,
        "expected at least 2x page reduction: tree {tree_pages} vs scan {scan_pages}"
    );
}

#[test]
fn xtree_filter_is_consistent_and_approximate() {
    let sigma = SigmaSpec::log_uniform(0.01, 0.2);
    let dataset = uniform_dataset(1500, 6, sigma, 31);
    let queries = generate_queries(&dataset, 30, sigma, 13);

    let mut file = PfvFile::build(mem_pool(4096), 6, dataset.items()).unwrap();
    let mut xtree = XTree::build_from_file(mem_pool(4096), XTreeConfig::new(6), &mut file).unwrap();

    let mut hits = 0;
    for q in &queries {
        // Filter correctness: candidates == brute-force box intersections.
        let qbox = Rect::quantile_box(&q.query, 0.95);
        let got: std::collections::HashSet<u64> = xtree
            .candidates(&qbox)
            .unwrap()
            .iter()
            .map(|e| e.id)
            .collect();
        let want: std::collections::HashSet<u64> = dataset
            .objects
            .iter()
            .enumerate()
            .filter(|(_, v)| Rect::quantile_box(v, 0.95).intersects(&qbox))
            .map(|(i, _)| i as u64)
            .collect();
        assert_eq!(got, want);

        let res = xtree
            .k_mliq(&mut file, &q.query, 1, CombineMode::Convolution)
            .unwrap();
        if res.first().map(|r| r.0) == Some(q.truth as u64) {
            hits += 1;
        }
    }
    // Approximate but decent: the paper observed quality "only slightly
    // below" the Gauss-tree.
    assert!(hits >= 20, "X-tree identification collapsed: {hits}/30");
}

#[test]
fn scan_and_tree_tiq_agree_on_pipeline_data() {
    let sigma = SigmaSpec::log_uniform(0.01, 0.3).with_object_scale(0.5, 1.5);
    let dataset = uniform_dataset(800, 5, sigma, 17);
    let queries = generate_queries(&dataset, 15, sigma, 23);

    let mut file = PfvFile::build(mem_pool(4096), 5, dataset.items()).unwrap();
    let tree = GaussTree::bulk_load(mem_pool(4096), TreeConfig::new(5), dataset.items()).unwrap();

    for q in &queries {
        for theta in [0.1, 0.5] {
            let scan: Vec<u64> = file
                .tiq(&q.query, theta, CombineMode::Convolution)
                .unwrap()
                .iter()
                .map(|r| r.0)
                .collect();
            let idx: Vec<u64> = tree
                .tiq(&q.query, theta, 1e-9)
                .unwrap()
                .iter()
                .map(|r| r.id)
                .collect();
            let mut scan = scan;
            let mut idx = idx;
            scan.sort_unstable();
            idx.sort_unstable();
            assert_eq!(scan, idx, "TIQ({theta}) disagreement");
        }
    }
}

#[test]
fn figure1_example_full_stack() {
    // Run the paper's §3 example through the actual index, not just the
    // in-memory Bayes helper.
    let db = gausstree::workloads::figure1::database();
    let q = gausstree::workloads::figure1::query();

    let mut tree = GaussTree::create(mem_pool(64), TreeConfig::new(2)).unwrap();
    for (i, v) in db.iter().enumerate() {
        tree.insert(i as u64, v).unwrap();
    }

    let top = tree.k_mliq_refined(&q, 1, 1e-9).unwrap();
    assert_eq!(top[0].id, 2, "1-MLIQ must report O3");
    assert!(
        (0.65..0.88).contains(&top[0].probability),
        "P(O3) = {} (paper: 0.77)",
        top[0].probability
    );

    let tiq = tree.tiq(&q, 0.12, 1e-9).unwrap();
    let ids: Vec<u64> = tiq.iter().map(|r| r.id).collect();
    assert!(ids.contains(&2) && ids.contains(&1) && !ids.contains(&0));
}

#[test]
fn mixed_insert_query_workload_stays_consistent() {
    // Interleave inserts and queries; the tree must stay equivalent to a
    // growing brute-force database at every step.
    let sigma = SigmaSpec::uniform(0.05, 0.5);
    let dataset = uniform_dataset(300, 3, sigma, 41);
    let mut tree = GaussTree::create(mem_pool(4096), TreeConfig::new(3)).unwrap();

    let mut db: Vec<Pfv> = Vec::new();
    for (i, v) in dataset.objects.iter().enumerate() {
        tree.insert(i as u64, v).unwrap();
        db.push(v.clone());
        if i % 50 == 49 {
            let q = Pfv::new(vec![0.5, 0.5, 0.5], vec![0.2, 0.2, 0.2]).unwrap();
            let got = tree.k_mliq(&q, 3).unwrap();
            let truth = gausstree::pfv::posteriors(CombineMode::Convolution, &db, &q);
            let mut want: Vec<f64> = truth.iter().map(|p| p.log_density).collect();
            want.sort_by(|a, b| b.total_cmp(a));
            for (g, w) in got.iter().zip(want.iter()) {
                assert!((g.log_density - w).abs() < 1e-9);
            }
        }
    }
}
