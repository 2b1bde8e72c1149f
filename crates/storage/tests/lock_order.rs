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
