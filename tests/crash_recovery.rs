//! Crash-injection atomicity suite.
//!
//! For every page-granular kill point a [`FaultStore`] can inject into a
//! scenario — base build, insert run, delete run, batch extend, bulk load,
//! and the meta commits in between — reopening the surviving "disk" with
//! [`GaussTree::open_with_recovery`] must yield a tree that
//!
//! 1. passes the full structural invariants including exact page
//!    accounting, and
//! 2. is logically identical to a state the scenario *committed*: the one
//!    before the interrupted operation or (when the kill landed after the
//!    commit's meta write) the one after it — never a torn in-between.
//!
//! Both kill flavours are exercised (the killing write dropped whole, or
//! torn half-old/half-new), across page sizes and both durable write
//! modes. The shadow-paging + dual-slot-commit protocol is what makes
//! this hold; `Durability::None` intentionally provides no such guarantee
//! and is not tested here.

use gausstree::pfv::Pfv;
use gausstree::storage::{
    AccessStats, BufferPool, Durability, FaultStore, FileStore, KillMode, MemStore, PageId,
    PageStore, StoreError,
};
use gausstree::tree::ReadView;
use gausstree::tree::{BulkLoadOptions, GaussTree, SpillKind, TreeConfig, TreeError, TreeOptions};
use proptest::prelude::*;
use std::sync::{Arc, Mutex};

/// A heap store whose pages outlive the tree that wrote them — the "disk"
/// a crashed process leaves behind for recovery to inspect.
#[derive(Clone)]
struct SharedMem(Arc<Mutex<MemStore>>);

impl SharedMem {
    fn new(page_size: usize) -> Self {
        Self(Arc::new(Mutex::new(MemStore::new(page_size))))
    }
}

impl PageStore for SharedMem {
    fn page_size(&self) -> usize {
        self.0.lock().unwrap().page_size()
    }
    fn num_pages(&self) -> u64 {
        self.0.lock().unwrap().num_pages()
    }
    fn allocate(&mut self) -> Result<PageId, StoreError> {
        self.0.lock().unwrap().allocate()
    }
    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<(), StoreError> {
        self.0.lock().unwrap().read_page(id, buf)
    }
    fn write_page(&mut self, id: PageId, buf: &[u8]) -> Result<(), StoreError> {
        self.0.lock().unwrap().write_page(id, buf)
    }
}

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
    .expect("recovered tree must be fully readable");
    entries.sort();
    (tree.len(), entries)
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

/// The mutation applied (and committed) after the base state.
#[derive(Clone, Copy, Debug)]
enum Op {
    InsertRun,
    DeleteRun,
    Extend,
}

struct Scenario {
    dims: usize,
    page_size: usize,
    durability: Durability,
    base: Vec<(u64, Pfv)>,
    extra: Vec<(u64, Pfv)>,
    op: Op,
    /// Hold a pinned `Snapshot` of the base commit across the op phase, so
    /// the kill sweep also covers the epoch-publish / deferred-reclaim
    /// (`free_aging`) write path a live reader forces.
    pin_snapshot: bool,
}

impl Scenario {
    fn config(&self) -> TreeConfig {
        TreeConfig::new(self.dims).with_capacities(4, 4)
    }

    /// Runs build-base → flush → op → flush on `pool`'s tree. Every write
    /// goes through the caller's (possibly killing) store.
    fn run(
        &self,
        pool: BufferPool<FaultStore<SharedMem>>,
    ) -> Result<GaussTree<FaultStore<SharedMem>>, TreeError> {
        let mut tree = GaussTree::create_with(
            pool,
            self.config(),
            &TreeOptions::new().durability(self.durability),
        )?;
        tree.extend(self.base.clone())?;
        tree.flush()?;
        let _pin = if self.pin_snapshot {
            Some(tree.snapshot()?)
        } else {
            None
        };
        match self.op {
            Op::InsertRun => {
                for (id, v) in &self.extra {
                    tree.insert(*id, v)?;
                }
            }
            Op::DeleteRun => {
                for (id, v) in self.base.iter().take(self.extra.len().max(8)) {
                    tree.delete(*id, v)?;
                }
            }
            Op::Extend => {
                tree.extend(self.extra.clone())?;
            }
        }
        tree.flush()?;
        Ok(tree)
    }

    fn pool_over(&self, store: FaultStore<SharedMem>) -> BufferPool<FaultStore<SharedMem>> {
        BufferPool::new(store, 4096, AccessStats::new_shared())
    }
}

/// Dry-runs the scenario to learn its committed states and write count.
fn dry_run(sc: &Scenario) -> (LogicalState, LogicalState, u64) {
    // Pre-state: replay only the base phase.
    let mem = SharedMem::new(sc.page_size);
    let pool = sc.pool_over(FaultStore::unlimited(mem));
    let mut tree = GaussTree::create_with(
        pool,
        sc.config(),
        &TreeOptions::new().durability(sc.durability),
    )
    .expect("dry create");
    tree.extend(sc.base.clone()).expect("dry base");
    tree.flush().expect("dry base flush");
    let pre = logical_state(&tree);
    drop(tree);

    // Full run: post-state and the total write-op count. The pool's
    // physical-write counter matches the fault store's page-write ops one
    // to one (allocation is charged by neither), so it sizes the budget
    // space exactly.
    let mem = SharedMem::new(sc.page_size);
    let tree = sc
        .run(sc.pool_over(FaultStore::unlimited(mem)))
        .expect("dry full run");
    let post = logical_state(&tree);
    let total_ops = tree.stats().snapshot().physical_writes;
    (pre, post, total_ops)
}

/// Write ops consumed by the base phase alone (create + extend + flush).
fn base_ops(sc: &Scenario) -> u64 {
    let mem = SharedMem::new(sc.page_size);
    let pool = sc.pool_over(FaultStore::unlimited(mem));
    let mut tree = GaussTree::create_with(
        pool,
        sc.config(),
        &TreeOptions::new().durability(sc.durability),
    )
    .expect("base create");
    tree.extend(sc.base.clone()).expect("base extend");
    tree.flush().expect("base flush");
    tree.stats().snapshot().physical_writes
}

/// Replays the scenario with a kill budget of `n` writes, then recovers
/// from the surviving store. `None`: nothing was ever committed
/// (`NotAGaussTree`), only legal before the first commit.
fn crash_and_recover(sc: &Scenario, n: u64, mode: KillMode) -> Option<LogicalState> {
    let mem = SharedMem::new(sc.page_size);
    let result = sc.run(sc.pool_over(FaultStore::new(mem.clone(), n, mode)));
    drop(result); // tree (if any) and its killed store go away; pages survive

    let pool = BufferPool::new(mem, 4096, AccessStats::new_shared());
    match GaussTree::open_with_recovery(pool) {
        Ok((tree, _report)) => {
            let errs = tree
                .check_invariants(false)
                .expect("recovered tree must be traversable");
            assert!(
                errs.is_empty(),
                "kill at {n} ({mode:?}): violations {errs:?}"
            );
            Some(logical_state(&tree))
        }
        Err(TreeError::NotAGaussTree) => None,
        Err(e) => panic!("kill at {n} ({mode:?}): recovery failed with {e}"),
    }
}

/// The exhaustive sweep: every kill point `0..=total`, both committed
/// states accepted, tighter acceptance once the base commit is durable.
fn exhaustive_sweep(sc: &Scenario, mode: KillMode) {
    let (pre, post, total_ops) = dry_run(sc);
    assert_ne!(pre, post, "scenario must actually change the tree");
    let base = base_ops(sc);
    assert!(total_ops > base, "op phase must write");
    let empty: LogicalState = (0, Vec::new());
    let (mut saw_empty, mut saw_pre, mut saw_post) = (0u64, 0u64, 0u64);
    for n in 0..=total_ops {
        match crash_and_recover(sc, n, mode) {
            None => assert!(
                n < base,
                "kill at {n}/{total_ops} ({mode:?}): committed base state lost"
            ),
            Some(state) => {
                if state == empty {
                    saw_empty += 1;
                } else if state == pre {
                    saw_pre += 1;
                } else if state == post {
                    saw_post += 1;
                }
                if n >= base {
                    assert!(
                        state == pre || state == post,
                        "kill at {n}/{total_ops} ({mode:?}): torn state recovered \
                         (len {} vs pre {} / post {})",
                        state.0,
                        pre.0,
                        post.0
                    );
                } else {
                    assert!(
                        state == empty || state == pre,
                        "kill at {n}/{total_ops} ({mode:?}) during base phase: \
                         unexpected state of len {}",
                        state.0
                    );
                }
                if n == total_ops {
                    assert_eq!(state, post, "an unkilled run must land on the post state");
                }
            }
        }
    }
    // The sweep must have exercised all three recovery targets — an
    // accidentally write-free phase would make the atomicity claim vacuous.
    assert!(
        saw_empty > 0 && saw_pre > 0 && saw_post > 0,
        "sweep not exhaustive: empty {saw_empty}, pre {saw_pre}, post {saw_post} of {total_ops}"
    );
}

fn scenario(op: Op, page_size: usize, durability: Durability, salt: u64) -> Scenario {
    Scenario {
        dims: 2,
        page_size,
        durability,
        base: items(40, 2, salt),
        extra: items(12, 2, salt + 71),
        op,
        pin_snapshot: false,
    }
}

fn pinned_scenario(op: Op, page_size: usize, durability: Durability, salt: u64) -> Scenario {
    Scenario {
        pin_snapshot: true,
        ..scenario(op, page_size, durability, salt)
    }
}

/// The exhaustive kill sweep again, but with a live snapshot pinning the
/// base epoch throughout the interrupted mutation: superseded pages age in
/// `free_aging` instead of being reused, and the commit publishes a new
/// epoch while the old one is still pinned. Crash atomicity must be
/// unaffected — every kill point still recovers to exactly the pre- or
/// post-commit state.
#[test]
fn pinned_snapshot_epoch_publish_is_crash_atomic() {
    for (op, durability, salt) in [
        (Op::InsertRun, Durability::Fsync, 81),
        (Op::DeleteRun, Durability::Fsync, 82),
        (Op::Extend, Durability::Flush, 83),
    ] {
        for mode in [KillMode::Drop, KillMode::Tear] {
            exhaustive_sweep(&pinned_scenario(op, 1024, durability, salt), mode);
        }
    }
}

#[test]
fn insert_run_is_crash_atomic_at_every_kill_point() {
    for (page_size, mode) in [
        (1024, KillMode::Drop),
        (1024, KillMode::Tear),
        (4096, KillMode::Tear),
    ] {
        exhaustive_sweep(
            &scenario(Op::InsertRun, page_size, Durability::Fsync, 1),
            mode,
        );
    }
    // The Flush level runs the same shadow-paging protocol.
    exhaustive_sweep(
        &scenario(Op::InsertRun, 1024, Durability::Flush, 2),
        KillMode::Tear,
    );
}

#[test]
fn delete_run_is_crash_atomic_at_every_kill_point() {
    for (page_size, mode) in [
        (1024, KillMode::Drop),
        (1024, KillMode::Tear),
        (4096, KillMode::Drop),
    ] {
        exhaustive_sweep(
            &scenario(Op::DeleteRun, page_size, Durability::Fsync, 3),
            mode,
        );
    }
    exhaustive_sweep(
        &scenario(Op::DeleteRun, 1024, Durability::Flush, 4),
        KillMode::Tear,
    );
}

#[test]
fn extend_batch_is_crash_atomic_at_every_kill_point() {
    for (page_size, mode) in [
        (1024, KillMode::Drop),
        (1024, KillMode::Tear),
        (4096, KillMode::Tear),
    ] {
        exhaustive_sweep(&scenario(Op::Extend, page_size, Durability::Fsync, 5), mode);
    }
    exhaustive_sweep(
        &scenario(Op::Extend, 1024, Durability::Flush, 6),
        KillMode::Drop,
    );
}

#[test]
fn bulk_load_crashes_recover_to_empty_or_full() {
    // A bulk load into a fresh durable store: any kill point must recover
    // to nothing-committed-yet, the committed empty tree, or the fully
    // loaded tree.
    let data = items(150, 2, 9);
    let config = TreeConfig::new(2).with_capacities(4, 4);
    let opts = BulkLoadOptions::default()
        .with_spill(SpillKind::Memory)
        .with_durability(Durability::Fsync);

    let mem = SharedMem::new(1024);
    let pool = BufferPool::new(FaultStore::unlimited(mem), 4096, AccessStats::new_shared());
    let (tree, _) = GaussTree::bulk_load_with(pool, config, data.clone(), &opts).expect("dry bulk");
    let post = logical_state(&tree);
    let total_ops = tree.stats().snapshot().physical_writes;
    let empty: LogicalState = (0, Vec::new());

    for n in 0..=total_ops {
        for mode in [KillMode::Drop, KillMode::Tear] {
            let mem = SharedMem::new(1024);
            let pool = BufferPool::new(
                FaultStore::new(mem.clone(), n, mode),
                4096,
                AccessStats::new_shared(),
            );
            let r = GaussTree::bulk_load_with(pool, config, data.clone(), &opts);
            drop(r);
            let pool = BufferPool::new(mem, 4096, AccessStats::new_shared());
            match GaussTree::open_with_recovery(pool) {
                Err(TreeError::NotAGaussTree) => {}
                Err(e) => panic!("bulk kill at {n} ({mode:?}): {e}"),
                Ok((tree, _)) => {
                    let errs = tree.check_invariants(false).unwrap();
                    assert!(errs.is_empty(), "bulk kill at {n} ({mode:?}): {errs:?}");
                    let state = logical_state(&tree);
                    assert!(
                        state == empty || state == post,
                        "bulk kill at {n}/{total_ops} ({mode:?}): torn state of len {}",
                        state.0
                    );
                }
            }
        }
    }
}

#[test]
fn file_backed_crashes_recover_through_real_reopen() {
    // Same protocol over an actual file: kill the FileStore mid-scenario,
    // then reopen the path from scratch like a restarted process would.
    let dir = std::env::temp_dir().join(format!(
        "gauss-crash-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let config = TreeConfig::new(2).with_capacities(4, 4);
    let base = items(30, 2, 13);
    let extra = items(10, 2, 99);

    // Dry run to size the kill space.
    let run =
        |store: FaultStore<FileStore>| -> Result<GaussTree<FaultStore<FileStore>>, TreeError> {
            let pool = BufferPool::new(store, 4096, AccessStats::new_shared());
            let mut tree = GaussTree::create_with(
                pool,
                config,
                &TreeOptions::new().durability(Durability::Fsync),
            )?;
            tree.extend(base.clone())?;
            tree.flush()?;
            tree.extend(extra.clone())?;
            tree.flush()?;
            Ok(tree)
        };
    let dry_path = dir.join("dry.gtree");
    let tree = run(FaultStore::unlimited(
        FileStore::create(&dry_path, 1024).unwrap(),
    ))
    .expect("dry file run");
    let post = logical_state(&tree);
    let total_ops = tree.stats().snapshot().physical_writes;

    // Sample the kill space densely (every 3rd point) to keep file churn
    // bounded; the exhaustive sweeps above cover every point in memory.
    for n in (0..total_ops).step_by(3).chain([total_ops]) {
        let path = dir.join("crash.gtree");
        let r = run(FaultStore::new(
            FileStore::create(&path, 1024).unwrap(),
            n,
            KillMode::Tear,
        ));
        drop(r);
        let store = FileStore::open(&path, 1024).expect("crash file must reopen");
        let pool = BufferPool::new(store, 4096, AccessStats::new_shared());
        match GaussTree::open_with_recovery(pool) {
            Err(TreeError::NotAGaussTree) => {}
            Err(e) => panic!("file kill at {n}: {e}"),
            Ok((tree, _)) => {
                let errs = tree.check_invariants(false).unwrap();
                assert!(errs.is_empty(), "file kill at {n}: {errs:?}");
                if n == total_ops {
                    assert_eq!(logical_state(&tree), post);
                }
            }
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random shapes and salts through the full exhaustive sweep: the
    /// atomicity property must not depend on any particular tree layout.
    #[test]
    fn random_extend_scenarios_are_crash_atomic(
        n_base in 10u64..60,
        n_extra in 1u64..20,
        dims in 1usize..3,
        salt in 0u64..500,
        tear in 0u8..2,
    ) {
        let sc = Scenario {
            dims,
            page_size: 1024,
            durability: Durability::Fsync,
            base: items(n_base, dims, salt),
            extra: items(n_extra, dims, salt + 1000),
            op: Op::Extend,
            pin_snapshot: false,
        };
        let mode = if tear == 1 { KillMode::Tear } else { KillMode::Drop };
        let (pre, post, total_ops) = dry_run(&sc);
        let base = base_ops(&sc);
        let empty: LogicalState = (0, Vec::new());
        for n in 0..=total_ops {
            match crash_and_recover(&sc, n, mode) {
                None => prop_assert!(n < base),
                Some(state) => {
                    if n >= base {
                        prop_assert!(state == pre || state == post);
                    } else {
                        prop_assert!(state == empty || state == pre);
                    }
                }
            }
        }
    }
}
