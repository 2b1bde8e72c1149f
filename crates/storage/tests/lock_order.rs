//! Integration tests for the lock-order detector and poison recovery.
//!
//! The inversion tests only observe panics when tracking is compiled in
//! (`debug_assertions`); they are no-ops in a release build, where the
//! detector is a zero-cost passthrough.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use gauss_storage::{
    AccessStats, Durability, LockRank, MemStore, PageId, PageStore, SharedBufferPool, StoreError,
    TrackedMutex, LOCK_TRACKING,
};

fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
    err.downcast_ref::<String>().cloned().unwrap_or_else(|| {
        err.downcast_ref::<&str>()
            .map(ToString::to_string)
            .unwrap_or_default()
    })
}

/// The acceptance scenario from the lock-rank table: taking a pool shard
/// and *then* the store is the classic inversion, and the panic must name
/// both acquisition sites.
#[test]
fn shard_then_store_inversion_panics_naming_both_sites() {
    if !LOCK_TRACKING {
        return;
    }
    let store = TrackedMutex::new((), LockRank::Store, 0, "it-store");
    let shard = TrackedMutex::new((), LockRank::Shard, 0, "it-shard");
    let err = catch_unwind(AssertUnwindSafe(|| {
        let _shard_guard = shard.lock();
        let _store_guard = store.lock(); // inversion: rank 0 after rank 1
    }))
    .expect_err("shard-then-store must panic under lock tracking");
    let msg = panic_message(err);
    assert!(
        msg.contains("lock-order violation"),
        "unexpected message: {msg}"
    );
    assert!(msg.contains("it-store"), "names the acquired lock: {msg}");
    assert!(msg.contains("it-shard"), "names the held lock: {msg}");
    assert_eq!(
        msg.matches("lock_order.rs").count(),
        2,
        "names both acquisition sites in this file: {msg}"
    );
}

#[test]
fn store_then_shard_is_the_sanctioned_order() {
    let store = TrackedMutex::new(1u32, LockRank::Store, 0, "ok-store");
    let shard = TrackedMutex::new(2u32, LockRank::Shard, 0, "ok-shard");
    let s = store.lock();
    let h = shard.lock();
    assert_eq!(*s + *h, 3);
}

/// A [`MemStore`] wrapper that panics on the next read once armed —
/// simulating a reader thread dying mid-query while the pool's internal
/// locks are held.
struct PanickingStore {
    inner: MemStore,
    armed: Arc<AtomicBool>,
}

impl PageStore for PanickingStore {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }
    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }
    fn allocate(&mut self) -> Result<PageId, StoreError> {
        self.inner.allocate()
    }
    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<(), StoreError> {
        if self.armed.swap(false, Ordering::SeqCst) {
            panic!("injected reader panic");
        }
        self.inner.read_page(id, buf)
    }
    fn write_page(&mut self, id: PageId, buf: &[u8]) -> Result<(), StoreError> {
        self.inner.write_page(id, buf)
    }
    fn sync(&mut self, durability: Durability) -> Result<(), StoreError> {
        self.inner.sync(durability)
    }
}

/// A panic inside the pool's critical section poisons the store and shard
/// mutexes; `TrackedMutex` recovers instead of cascading `PoisonError`
/// panics into every later query.
#[test]
fn panicking_reader_does_not_wedge_subsequent_queries() {
    let armed = Arc::new(AtomicBool::new(false));
    let store = PanickingStore {
        inner: MemStore::new(256),
        armed: Arc::clone(&armed),
    };
    let pool = SharedBufferPool::new(store, 8, AccessStats::new_shared());
    let id = pool.allocate().expect("allocate");
    pool.write(id, &vec![7u8; 256]).expect("write");
    pool.clear_cache(); // force the next read to hit the store

    armed.store(true, Ordering::SeqCst);
    let died = catch_unwind(AssertUnwindSafe(|| pool.page(id)));
    assert!(died.is_err(), "the armed read must panic");

    // The locks the panicking reader held are poisoned now; queries must
    // still work, and the page contents must be intact.
    let data = pool.page(id).expect("pool must survive a poisoned reader");
    assert!(data.iter().all(|&b| b == 7));
    let id2 = pool.allocate().expect("allocate after poison");
    pool.write(id2, &vec![9u8; 256])
        .expect("write after poison");
    assert!(pool
        .page(id2)
        .expect("read after poison")
        .iter()
        .all(|&b| b == 9));
}

/// `MemStore` keeps its pages behind a `Store`-ranked lock of its own, taken
/// under the pool's `(Store, 0)` lock on every miss and write-through. Two
/// threads drive both paths on a pool too small to hold the pages, and a
/// clone of the store is read directly beside them: in a debug build the
/// detector checks every one of those nestings, and the clone sees every
/// page the pool wrote.
#[test]
fn mem_store_lock_nests_under_the_pool_lock_from_two_threads() {
    let disk = MemStore::new(64);
    let pool = SharedBufferPool::new(disk.clone(), 4, AccessStats::new_shared());
    let first = pool.allocate_many(16).expect("allocate").index();
    let image = |page: u64, round: u8| [round.wrapping_mul(16).wrapping_add(page as u8); 64];
    std::thread::scope(|scope| {
        for t in 0..2u64 {
            let pool = &pool;
            scope.spawn(move || {
                for round in 1..=20u8 {
                    // Thread t writes the pages of its parity, and reads all.
                    for page in (t..16).step_by(2) {
                        pool.write(PageId(first + page), &image(page, round))
                            .expect("write-through");
                    }
                    for page in 0..16 {
                        let _ = pool.page(PageId(first + page)).expect("miss");
                    }
                }
            });
        }
        let mut clone = disk.clone();
        let mut buf = [0u8; 64];
        for page in 0..16 {
            clone
                .read_page(PageId(first + page), &mut buf)
                .expect("direct read");
        }
    });
    assert!(pool.stats().snapshot().physical_reads > 0, "misses ran");
    let mut clone = disk.clone();
    let mut buf = [0u8; 64];
    for page in 0..16 {
        clone
            .read_page(PageId(first + page), &mut buf)
            .expect("direct read");
        assert_eq!(buf, image(page, 20), "page {page}");
        assert_eq!(&pool.page(PageId(first + page)).expect("read")[..], &buf);
    }
}
