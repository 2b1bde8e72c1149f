//! The workspace's one sharded `PageId → Arc<T>` LRU cache.
//!
//! [`SideCache`] is a sharded, `&self` LRU map from [`PageId`] to `Arc<T>`:
//! up to 16 [`TrackedMutex`]-guarded shards (fewer when the capacity is
//! smaller, so every shard holds a frame), each running the crate-internal
//! LRU core over `capacity / shards` entries and selected by a Fibonacci
//! hash of the page id. It holds two kinds of value:
//!
//! * page *bytes* — [`crate::SharedBufferPool`] keeps its frames in a
//!   `SideCache<[u8]>` whose shards rank as [`LockRank::Shard`], below the
//!   pool's store lock;
//! * values *derived* from page bytes (a decoded node, a columnar leaf),
//!   which index layers reuse across reads without re-parsing. Such a cache
//!   is built by [`SideCache::new`]; its shards rank as
//!   [`LockRank::SideCache`], the innermost rank of the workspace lock
//!   hierarchy, though no current path nests them under another lock.
//!
//! A derived-value cache is deliberately *passive*: it does not watch the
//! pool for writes. The owner of the derived values is responsible for
//! calling [`SideCache::remove`] when it rewrites a page (the in-memory
//! Gauss-tree does this on every node write) and [`SideCache::clear`] on
//! cold starts. Its reads never touch the backing store, so a hit or miss
//! has no effect on the pool's logical/physical access accounting.

use crate::lru::LruCache;
use crate::page::PageId;
use crate::sync::{LockRank, TrackedMutex};
use std::sync::Arc;

/// Largest number of independently locked shards (a power of two).
const SHARD_COUNT: usize = 16;

/// One shard. `Option` payloads so eager removal can `mem::take` the `Arc`
/// out of its slot (the LRU core hands freed slots back by index, not by
/// value).
type Shard<T> = LruCache<Option<Arc<T>>>;

/// Sharded `PageId → Arc<T>` LRU cache.
///
/// All operations take `&self`; see the [module docs](self) for the
/// invalidation contract.
#[derive(Debug)]
pub struct SideCache<T: ?Sized> {
    shards: Vec<TrackedMutex<Shard<T>>>,
    shard_cap: usize,
}

impl<T: ?Sized> SideCache<T> {
    /// Creates a cache of derived values holding at most (approximately)
    /// `capacity` values, split across up to 16 shards (fewer for tiny
    /// capacities).
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self::with_rank(capacity, LockRank::SideCache, "side-cache-shard")
    }

    /// [`SideCache::new`] with the shards at lock rank `rank`, named `name`
    /// in lock-order panics.
    pub(crate) fn with_rank(capacity: usize, rank: LockRank, name: &'static str) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        // Halve the shard count (keeping it a power of two) until every
        // shard holds at least one entry, so a deliberately tiny capacity —
        // eviction-stress tests, paper configurations — is still honoured.
        let mut shard_count = SHARD_COUNT;
        while shard_count > capacity {
            shard_count /= 2;
        }
        Self {
            shards: (0..shard_count)
                .map(|i| TrackedMutex::new(LruCache::new(), rank, i, name))
                .collect(),
            shard_cap: capacity / shard_count,
        }
    }

    /// Maximum number of cached values across all shards (never above the
    /// requested capacity; at most `shards − 1` below it when the capacity
    /// does not divide evenly).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shard_cap * self.shards.len()
    }

    /// Number of values currently cached (sums all shards).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Whether the cache holds no values.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_of(&self, id: PageId) -> &TrackedMutex<Shard<T>> {
        // Fibonacci hash of the page id; the top bits select the shard.
        let h = id.index().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.shards[(h >> 60) as usize & (self.shards.len() - 1)]
    }

    /// Cache lookup; refreshes the entry's LRU position on a hit.
    #[must_use]
    pub fn get(&self, id: PageId) -> Option<Arc<T>> {
        let mut shard = self.shard_of(id).lock();
        shard.get(id).and_then(|v| v.as_ref().map(Arc::clone))
    }

    /// Installs (or replaces) the value for `id`, evicting the least
    /// recently used entry of the owning shard when full. Returns `true`
    /// iff an entry was evicted.
    pub fn insert(&self, id: PageId, value: Arc<T>) -> bool {
        let mut shard = self.shard_of(id).lock();
        shard.insert(id, Some(value), self.shard_cap)
    }

    /// Drops the value for `id`, if cached — the write-invalidation hook.
    pub fn remove(&self, id: PageId) {
        let mut shard = self.shard_of(id).lock();
        shard.remove(id);
    }

    /// Drops every cached value (cold start).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn get_after_insert_returns_same_arc() {
        let c: SideCache<u32> = SideCache::new(64);
        let v = Arc::new(7u32);
        c.insert(PageId(3), Arc::clone(&v));
        let got = c.get(PageId(3)).unwrap();
        assert!(Arc::ptr_eq(&got, &v));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn remove_invalidates() {
        let c: SideCache<u32> = SideCache::new(64);
        c.insert(PageId(1), Arc::new(1));
        c.remove(PageId(1));
        assert!(c.get(PageId(1)).is_none());
        // Removing an uncached id is a no-op.
        c.remove(PageId(99));
    }

    #[test]
    fn clear_empties_all_shards() {
        let c: SideCache<u32> = SideCache::new(64);
        for i in 0..32 {
            c.insert(PageId(i), Arc::new(i as u32));
        }
        assert!(!c.is_empty());
        c.clear();
        assert!(c.is_empty());
    }

    #[test]
    fn capacity_is_bounded_per_shard() {
        let c: SideCache<u32> = SideCache::new(SHARD_COUNT);
        for i in 0..1000 {
            c.insert(PageId(i), Arc::new(i as u32));
        }
        assert!(c.len() <= c.capacity());
    }

    #[test]
    fn tiny_capacity_halves_shards() {
        let c: SideCache<u32> = SideCache::new(3);
        assert!(c.capacity() >= 1);
        for i in 0..10 {
            c.insert(PageId(i), Arc::new(i as u32));
        }
        assert!(c.len() <= c.capacity());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _: SideCache<u32> = SideCache::new(0);
    }

    #[test]
    fn concurrent_access_is_safe() {
        let c: Arc<SideCache<u64>> = Arc::new(SideCache::new(128));
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let c = Arc::clone(&c);
                scope.spawn(move || {
                    for i in 0..200u64 {
                        let id = PageId((i * 7 + t) % 64);
                        c.insert(id, Arc::new(id.index()));
                        if let Some(v) = c.get(id) {
                            assert_eq!(*v, id.index());
                        }
                    }
                });
            }
        });
    }
}
