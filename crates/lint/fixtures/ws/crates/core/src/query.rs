//! Fixture: a side-cache guard held across PageStore I/O on the query path.

use gauss_storage::sync::{LockRank, TrackedMutex};

fn scan_under_lock(pool: &Pool) -> u32 {
    let cache = TrackedMutex::new(0, LockRank::SideCache, 9, "fx-query-cache");
    let slot = cache.lock();
    let hit = pool.read_page(7);
    *slot + hit
}
