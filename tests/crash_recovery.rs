//! Crash-injection suite for the one durable write a tree file gets: its
//! bulk load.
//!
//! A tree file is written once — every node page, then one commit (data
//! barrier, slot write, commit barrier). For every page-granular kill point
//! a [`FaultStore`] can inject into a durable bulk load, reopening the
//! surviving "disk" with [`GaussTree::open`] must either
//!
//! 1. yield the full tree: structural invariants clean, exact page
//!    accounting included, the same entries bit for bit and the same
//!    answers as the unkilled build; or
//! 2. refuse the store as [`TreeError::NotAGaussTree`] — nothing was
//!    committed yet.
//!
//! Never a torn tree, and never an empty one. Both kill flavours (the
//! killing write dropped whole, or torn half-old/half-new) run across page
//! sizes, both durable barrier levels, a spilled multi-threaded quantised
//! build, an empty load, and a real file reopened from its path. The
//! forest's write path — flushes, merges and manifest commits — has its own
//! sweep in `tests/forest_crash.rs`.

use gausstree::pfv::Pfv;
use gausstree::storage::{
    AccessStats, Durability, FaultStore, FileStore, KillMode, MemStore, PageStore, SharedBufferPool,
};
use gausstree::tree::{
    BulkLoadOptions, GaussTree, LeafFormat, MliqResult, ReadView, TiqResult, TreeConfig, TreeError,
};

/// Order-independent logical content of a tree: `(len, sorted entries)`
/// with floats captured bit-exactly.
type LogicalState = (u64, Vec<(u64, Vec<u64>, Vec<u64>)>);

fn logical_state<S: PageStore>(tree: &GaussTree<S>) -> LogicalState {
    let mut entries = Vec::new();
    tree.for_each_entry(|id, pfv| {
        entries.push((
            id,
            pfv.means().iter().map(|m| m.to_bits()).collect(),
            pfv.sigmas().iter().map(|s| s.to_bits()).collect(),
        ));
    })
    .expect("an opened tree must be fully readable");
    entries.sort();
    (tree.len(), entries)
}

/// Every 1-MLIQ top 5 and TIQ answer over `queries`, field for field.
fn answers<S: PageStore>(
    tree: &GaussTree<S>,
    queries: &[Pfv],
) -> Vec<(Vec<MliqResult>, Vec<TiqResult>)> {
    queries
        .iter()
        .map(|q| {
            (
                tree.k_mliq(q, 5).expect("k_mliq"),
                tree.tiq(q, 0.05, 1e-6).expect("tiq"),
            )
        })
        .collect()
}

fn items(n: u64, dims: usize, salt: u64) -> Vec<(u64, Pfv)> {
    (0..n)
        .map(|i| {
            let means: Vec<f64> = (0..dims)
                .map(|d| (((i * 29 + d as u64 * 11 + salt) % 97) as f64 - 48.0) * 0.4)
                .collect();
            let sigmas: Vec<f64> = (0..dims)
                .map(|d| 0.03 + ((i * 7 + d as u64 * 5 + salt) % 13) as f64 * 0.05)
                .collect();
            (salt * 10_000 + i, Pfv::new(means, sigmas).unwrap())
        })
        .collect()
}

/// One durable bulk load to kill at every point.
struct Load {
    data: Vec<(u64, Pfv)>,
    config: TreeConfig,
    page_size: usize,
    opts: BulkLoadOptions,
}

impl Load {
    fn new(n: u64, page_size: usize, durability: Durability) -> Self {
        Self {
            data: items(n, 2, n + page_size as u64),
            config: TreeConfig::new(2).with_capacities(4, 4),
            page_size,
            opts: BulkLoadOptions::default().with_durability(durability),
        }
    }

    fn run<S: PageStore>(&self, store: S) -> Result<GaussTree<S>, TreeError> {
        let pool = SharedBufferPool::new(store, 4096, AccessStats::new_shared());
        GaussTree::bulk_load_with(pool, self.config, self.data.clone(), &self.opts).map(|(t, _)| t)
    }
}

/// The exhaustive sweep: the load killed after each of its `0..=total`
/// writes, the surviving store reopened. Returns how many kill points
/// opened as the full tree and how many were refused; the unkilled load
/// must open.
fn kill_sweep(load: &Load, mode: KillMode) -> (u64, u64) {
    let queries: Vec<Pfv> = items(6, 2, 777).into_iter().map(|(_, q)| q).collect();
    let reference = load
        .run(FaultStore::unlimited(MemStore::new(load.page_size)))
        .expect("unkilled load");
    let full = logical_state(&reference);
    let want = answers(&reference, &queries);
    // The pool's physical-write counter matches the fault store's page-write
    // ops one to one (allocation is charged by neither).
    let total = reference.stats().snapshot().physical_writes;
    let (mut opened, mut refused) = (0, 0);
    for n in 0..=total {
        // The clone shares the page array: what the killed load leaves on
        // this "disk" is what recovery reads.
        let disk = MemStore::new(load.page_size);
        drop(load.run(FaultStore::new(disk.clone(), n, mode)));
        let pool = SharedBufferPool::new(disk, 4096, AccessStats::new_shared());
        match GaussTree::open(pool) {
            Ok(tree) => {
                // The slot write is the load's last write: only a load that
                // reached it may open (a torn slot write whose image landed
                // up to its zero padding is a whole one).
                assert!(n + 1 >= total, "kill at {n}/{total} ({mode:?}) opened");
                let errs = tree.check_invariants(true).expect("traversable");
                assert!(errs.is_empty(), "kill at {n} ({mode:?}): {errs:?}");
                assert_eq!(logical_state(&tree), full, "kill at {n} ({mode:?})");
                assert_eq!(answers(&tree, &queries), want, "kill at {n} ({mode:?})");
                opened += 1;
            }
            Err(TreeError::NotAGaussTree) => {
                assert!(n < total, "the unkilled load was refused");
                refused += 1;
            }
            Err(e) => panic!("kill at {n}/{total} ({mode:?}): open failed with {e}"),
        }
    }
    (opened, refused)
}

#[test]
fn bulk_load_kill_sweep_opens_full_or_refuses() {
    for (page_size, durability) in [
        (1024, Durability::Fsync),
        (1024, Durability::Flush),
        (4096, Durability::Fsync),
    ] {
        for mode in [KillMode::Drop, KillMode::Tear] {
            let load = Load::new(150, page_size, durability);
            let (opened, refused) = kill_sweep(&load, mode);
            assert!(opened >= 1, "{page_size} {durability:?} {mode:?}");
            assert!(refused > 40, "a vacuous sweep: {refused} kill points");
        }
    }
    // Spilled, partitioned on three threads, quantised leaves.
    let mut load = Load::new(300, 1024, Durability::Fsync);
    load.config = load.config.with_leaf_format(LeafFormat::Quantised);
    load.opts = load.opts.clone().with_threads(3).with_mem_budget(40);
    for mode in [KillMode::Drop, KillMode::Tear] {
        assert!(kill_sweep(&load, mode).1 > 40);
    }
    // An empty load writes its empty root leaf and commits it.
    let empty = Load::new(0, 1024, Durability::Flush);
    assert_eq!(kill_sweep(&empty, KillMode::Drop), (1, 2));
}

#[test]
fn file_backed_crashes_recover_through_real_reopen() {
    // Same protocol over an actual file: kill the FileStore mid-load, then
    // reopen the path from scratch like a restarted process would.
    let dir = std::env::temp_dir().join(format!(
        "gauss-crash-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let load = Load::new(200, 1024, Durability::Fsync);

    let dry = load
        .run(FaultStore::unlimited(
            FileStore::create(dir.join("dry.gtree"), 1024).unwrap(),
        ))
        .expect("dry file load");
    let full = logical_state(&dry);
    let total = dry.stats().snapshot().physical_writes;

    // Sample the kill space (every 3rd point, and the last two) to keep
    // file churn bounded; the sweeps above cover every point in memory.
    for n in (0..total).step_by(3).chain([total - 1, total]) {
        let path = dir.join("crash.gtree");
        let store = FileStore::create(&path, 1024).unwrap();
        drop(load.run(FaultStore::new(store, n, KillMode::Tear)));
        let store = FileStore::open(&path, 1024).expect("crash file must reopen");
        let pool = SharedBufferPool::new(store, 4096, AccessStats::new_shared());
        match GaussTree::open(pool) {
            Err(TreeError::NotAGaussTree) => assert!(n < total, "the full load was refused"),
            Err(e) => panic!("file kill at {n}: {e}"),
            Ok(tree) => {
                assert!(n + 1 >= total, "file kill at {n}/{total} opened");
                let errs = tree.check_invariants(true).unwrap();
                assert!(errs.is_empty(), "file kill at {n}: {errs:?}");
                assert_eq!(logical_state(&tree), full);
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}
