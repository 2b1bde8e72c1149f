//! On-disk persistence: trees bulk-loaded into a `FileStore` must survive
//! process boundaries (simulated by dropping and reopening) with identical
//! query results.

use gausstree::pfv::Pfv;
use gausstree::storage::{
    AccessStats, FileStore, MemStore, PageId, SharedBufferPool, DEFAULT_PAGE_SIZE,
};
use gausstree::tree::ReadView;
use gausstree::tree::{GaussTree, TreeConfig};

struct TempDir(std::path::PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!(
            "gauss-it-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }

    fn path(&self, name: &str) -> std::path::PathBuf {
        self.0.join(name)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

fn sample_items(n: u64, dims: usize) -> Vec<(u64, Pfv)> {
    (0..n)
        .map(|i| {
            let means: Vec<f64> = (0..dims)
                .map(|d| ((i * 7 + d as u64) as f64 * 0.37).sin() * 12.0)
                .collect();
            let sigmas: Vec<f64> = (0..dims)
                .map(|d| 0.05 + ((i + d as u64) % 9) as f64 * 0.07)
                .collect();
            (i, Pfv::new(means, sigmas).unwrap())
        })
        .collect()
}

/// Bulk-loads `items` into a fresh page file at `path`.
fn build_file(path: &std::path::Path, items: Vec<(u64, Pfv)>, dims: usize) -> GaussTree<FileStore> {
    let store = FileStore::create(path, DEFAULT_PAGE_SIZE).unwrap();
    let pool = SharedBufferPool::new(store, 256, AccessStats::new_shared());
    GaussTree::bulk_load(pool, TreeConfig::new(dims), items).unwrap()
}

fn reopen(path: &std::path::Path) -> GaussTree<FileStore> {
    let store = FileStore::open(path, DEFAULT_PAGE_SIZE).unwrap();
    let pool = SharedBufferPool::new(store, 256, AccessStats::new_shared());
    GaussTree::open(pool).unwrap()
}

#[test]
fn queries_identical_after_reopen() {
    let tmp = TempDir::new("reopen");
    let path = tmp.path("tree.pages");
    let items = sample_items(400, 3);
    let q = Pfv::new(vec![1.0, -2.0, 3.0], vec![0.2, 0.3, 0.1]).unwrap();

    let before = build_file(&path, items, 3)
        .k_mliq_refined(&q, 5, 1e-8)
        .unwrap();

    let tree = reopen(&path);
    assert_eq!(tree.len(), 400);
    assert_eq!(tree.dims(), 3);
    assert!(tree.check_invariants(true).unwrap().is_empty());
    // Same pages, same search: bit-identical answers.
    assert_eq!(tree.k_mliq_refined(&q, 5, 1e-8).unwrap(), before);
}

#[test]
fn bulk_loaded_tree_survives_reopen_and_rebuild() {
    let tmp = TempDir::new("bulk");
    let path = tmp.path("bulk.pages");
    let items = sample_items(900, 2);
    drop(build_file(&path, items, 2));

    let tree = reopen(&path);
    assert_eq!(tree.len(), 900);
    assert!(tree.check_invariants(true).unwrap().is_empty());

    // A tree file is written once: more objects mean a new file, loaded
    // from the reopened tree's entries plus the new ones.
    let mut grown: Vec<(u64, Pfv)> = Vec::new();
    tree.for_each_entry(|id, v| grown.push((id, v.clone())))
        .unwrap();
    for i in 900..1000u64 {
        let v = Pfv::new(vec![i as f64, -(i as f64)], vec![0.4, 0.2]).unwrap();
        grown.push((i, v));
    }
    let next = tmp.path("bulk-next.pages");
    drop(build_file(&next, grown, 2));
    let tree = reopen(&next);
    assert_eq!(tree.len(), 1000);
    let errors = tree.check_invariants(true).unwrap();
    assert!(
        errors.is_empty(),
        "violations after reopen and rebuild: {errors:?}"
    );
    let mut ids = Vec::new();
    tree.for_each_entry(|id, _| ids.push(id)).unwrap();
    ids.sort_unstable();
    assert_eq!(ids, (0..1000).collect::<Vec<_>>());
}

#[test]
fn mem_and_file_trees_agree() {
    let items = sample_items(300, 2);
    let q = Pfv::new(vec![0.5, 0.5], vec![0.3, 0.3]).unwrap();

    let pool = SharedBufferPool::new(
        MemStore::new(DEFAULT_PAGE_SIZE),
        256,
        AccessStats::new_shared(),
    );
    let mem_tree = GaussTree::bulk_load(pool, TreeConfig::new(2), items.clone()).unwrap();

    let tmp = TempDir::new("agree");
    let file_tree = build_file(&tmp.path("t.pages"), items, 2);

    // The loader writes the same bytes to either store.
    let pages = mem_tree.pool().num_pages();
    assert_eq!(file_tree.pool().num_pages(), pages);
    for i in 0..pages {
        assert_eq!(
            mem_tree.pool().page(PageId(i)).unwrap(),
            file_tree.pool().page(PageId(i)).unwrap(),
            "page {i}"
        );
    }
    assert_eq!(
        mem_tree.k_mliq(&q, 10).unwrap(),
        file_tree.k_mliq(&q, 10).unwrap()
    );
}

#[test]
fn tiny_cache_still_correct() {
    // A 2-page cache forces constant eviction; results must not change.
    let items = sample_items(500, 2);
    let q = Pfv::new(vec![3.0, -3.0], vec![0.2, 0.2]).unwrap();

    let pool = SharedBufferPool::new(
        MemStore::new(DEFAULT_PAGE_SIZE),
        4096,
        AccessStats::new_shared(),
    );
    let mut big = GaussTree::create(pool, TreeConfig::new(2)).unwrap();
    let pool = SharedBufferPool::new(
        MemStore::new(DEFAULT_PAGE_SIZE),
        2,
        AccessStats::new_shared(),
    );
    let mut small = GaussTree::create(pool, TreeConfig::new(2)).unwrap();
    for (id, v) in &items {
        big.insert(*id, v).unwrap();
        small.insert(*id, v).unwrap();
    }

    let a = big.tiq(&q, 0.05, 1e-9).unwrap();
    let b = small.tiq(&q, 0.05, 1e-9).unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b.iter()) {
        assert_eq!(x.id, y.id);
        assert!((x.probability - y.probability).abs() < 1e-9);
    }
    // The small cache must have evicted a lot.
    assert!(small.stats().snapshot().evictions > 0);
}
