//! A sharded buffer pool with interior mutability for concurrent readers.
//!
//! [`crate::BufferPool`] mutates its LRU list on every read, so even a
//! logically read-only page request needs `&mut self` — which serializes the
//! whole read path of any index built on top of it. [`SharedBufferPool`]
//! removes that bottleneck:
//!
//! * the frame map is split into [`SHARD_COUNT`](crate::shared::SHARD_COUNT) shards, each guarded by its
//!   own [`TrackedMutex`] and keyed by a multiplicative hash of the
//!   [`PageId`], so concurrent readers of *different* pages rarely contend;
//! * all operations take `&self`; the shared [`AccessStats`] counters were
//!   already atomic;
//! * the backing [`PageStore`] sits behind a single store mutex that is only
//!   taken on a cache miss (or a write/allocate). Lock order follows the
//!   workspace rank table ([`crate::sync::LockRank`]): **store before
//!   shard**, shards in ascending index order. A miss re-checks its shard
//!   *under the store lock*, which keeps page-access accounting
//!   *deterministic*: two threads can never both read the same page from
//!   the store, so logical/physical totals are independent of the thread
//!   count whenever the cache is large enough to avoid evictions.
//!
//! Writes stay effectively single-writer by design: the Gauss-tree build
//! path (`insert`/`delete`/`bulk_load`) takes `&mut` at the tree layer, so
//! the store mutex never sees write contention in practice — it exists so
//! the type is sound, not as a concurrency strategy. Writes are
//! write-through *and* write-allocate: a written page is installed in its
//! shard so the immediately following read during a build is a cache hit,
//! not a spurious physical read.
//!
//! Each shard runs its own intrusive LRU list over `capacity / SHARD_COUNT`
//! frames (an approximation of global LRU, as in any sharded cache). The
//! paper's cold start is [`SharedBufferPool::clear_cache`];
//! [`SharedBufferPool::clear_cache_and_stats`] additionally zeroes the
//! counters so measurement loops cannot carry stale counts across runs.

use crate::buffer::BufferPool;
use crate::lru::LruCache;
use crate::page::PageId;
use crate::stats::AccessStats;
use crate::store::{Durability, PageStore, StoreError};
use crate::sync::{LockRank, TrackedMutex};
use std::sync::Arc;

/// A group-commit buffer of page writes, flushed through
/// [`SharedBufferPool::write_batch`].
///
/// Staged pages are sorted by id at flush time and written as maximal runs
/// of *consecutive* ids, each run through one [`PageStore::write_pages`]
/// call — one positioning operation instead of one per page. The bulk
/// loader stages every node of a tree level here, turning its per-node
/// write storm into a handful of sequential multi-page transfers
/// ([`crate::AccessStats`] counts the difference as `write_calls` vs
/// `physical_writes`).
///
/// Staging the same page twice keeps the later image (last-writer-wins,
/// like issuing the two writes in order).
///
/// A batch carries a [`Durability`] policy (default [`Durability::None`]):
/// [`SharedBufferPool::write_batch`] issues one store barrier after the
/// coalesced runs land, so a group commit can be made durable as a unit
/// without a separate sync call.
#[derive(Debug, Default)]
pub struct WriteBatch {
    pages: Vec<(PageId, Box<[u8]>)>,
    durability: Durability,
}

impl WriteBatch {
    /// An empty batch.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the durability barrier issued after each flush of this batch.
    #[must_use]
    pub fn with_durability(mut self, durability: Durability) -> Self {
        self.durability = durability;
        self
    }

    /// The barrier policy applied when the batch is flushed.
    #[must_use]
    pub fn durability(&self) -> Durability {
        self.durability
    }

    /// Stages `buf` as the new content of page `id`.
    pub fn put(&mut self, id: PageId, buf: &[u8]) {
        self.pages.push((id, Box::from(buf)));
    }

    /// Number of staged pages.
    #[must_use]
    pub fn len(&self) -> usize {
        self.pages.len()
    }

    /// Whether the batch holds no staged pages.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.pages.is_empty()
    }
}

/// Number of independently locked cache shards (a power of two).
pub const SHARD_COUNT: usize = 16;

/// One independently locked slice of the cache — the same
/// [`LruCache`] core the single-threaded [`BufferPool`] runs, holding
/// `Arc<[u8]>` frames so read handles survive eviction.
type Shard = LruCache<Arc<[u8]>>;

/// Sharded LRU buffer pool over a [`PageStore`], usable from `&self`.
///
/// See the [module docs](self) for the locking design. Converts from a
/// [`BufferPool`] via `From`, preserving store, capacity and stats handle.
#[derive(Debug)]
pub struct SharedBufferPool<S: PageStore> {
    store: TrackedMutex<S>,
    shards: Vec<TrackedMutex<Shard>>,
    shard_cap: usize,
    capacity: usize,
    page_size: usize,
    stats: Arc<AccessStats>,
}

impl<S: PageStore> SharedBufferPool<S> {
    /// Creates a pool holding at most (approximately) `capacity` pages,
    /// split evenly across [`SHARD_COUNT`] shards.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(store: S, capacity: usize, stats: Arc<AccessStats>) -> Self {
        assert!(capacity > 0, "buffer pool capacity must be positive");
        let page_size = store.page_size();
        // Halve the shard count (keeping it a power of two) until every
        // shard holds at least one frame, so a deliberately tiny capacity —
        // eviction-stress tests, paper configurations — is still honoured.
        let mut shard_count = SHARD_COUNT;
        while shard_count > capacity {
            shard_count /= 2;
        }
        Self {
            store: TrackedMutex::new(store, LockRank::Store, 0, "pool-store"),
            shards: (0..shard_count)
                .map(|i| TrackedMutex::new(LruCache::new(), LockRank::Shard, i, "pool-shard"))
                .collect(),
            shard_cap: capacity / shard_count,
            capacity,
            page_size,
            stats,
        }
    }

    /// Creates a pool sized for a byte budget (the paper's "50 MByte
    /// database cache").
    #[must_use]
    pub fn with_byte_budget(store: S, bytes: usize, stats: Arc<AccessStats>) -> Self {
        let cap = (bytes / store.page_size()).max(1);
        Self::new(store, cap, stats)
    }

    /// The shared statistics handle.
    #[must_use]
    pub fn stats(&self) -> &Arc<AccessStats> {
        &self.stats
    }

    /// Page size of the underlying store.
    #[must_use]
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of pages allocated in the underlying store.
    #[must_use]
    pub fn num_pages(&self) -> u64 {
        self.store.lock().num_pages()
    }

    /// Number of pages currently cached (sums all shards).
    #[must_use]
    pub fn cached_pages(&self) -> usize {
        self.shards.iter().map(|s| s.lock().len()).sum()
    }

    /// Maximum number of cached pages across all shards (never exceeds the
    /// configured capacity; at most `SHARD_COUNT − 1` below it when the
    /// capacity does not divide evenly).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.shard_cap * self.shards.len()
    }

    /// The capacity the pool was configured with (before shard rounding).
    #[must_use]
    pub fn configured_capacity(&self) -> usize {
        self.capacity
    }

    /// Gives back the underlying store, dropping the cache.
    #[must_use]
    pub fn into_store(self) -> S {
        self.store.into_inner()
    }

    /// Allocates a fresh zeroed page.
    ///
    /// # Errors
    /// Propagates store errors.
    pub fn allocate(&self) -> Result<PageId, StoreError> {
        self.store.lock().allocate()
    }

    /// Allocates `n` fresh zeroed pages with consecutive ids in one store
    /// operation and returns the first id ([`PageId::INVALID`] for `n == 0`).
    ///
    /// # Errors
    /// Propagates store errors.
    pub fn allocate_many(&self, n: u64) -> Result<PageId, StoreError> {
        self.store.lock().allocate_many(n)
    }

    /// Issues a durability barrier to the store ([`PageStore::sync`]).
    /// Counted in [`AccessStats`] unless the level is
    /// [`Durability::None`], which is free.
    ///
    /// # Errors
    /// Propagates store errors.
    pub fn sync(&self, durability: Durability) -> Result<(), StoreError> {
        if durability == Durability::None {
            return Ok(());
        }
        self.stats.record_sync();
        self.store.lock().sync(durability)
    }

    /// Drops every cached frame — the paper's cold start.
    pub fn clear_cache(&self) {
        for shard in &self.shards {
            shard.lock().clear();
        }
    }

    /// Cold start *and* zeroed counters: the combination every measurement
    /// loop wants. Using [`SharedBufferPool::clear_cache`] alone silently
    /// carries access counts across runs unless the caller separately
    /// remembers to reset the stats.
    pub fn clear_cache_and_stats(&self) {
        self.clear_cache();
        self.stats.reset();
    }

    fn shard_index(&self, id: PageId) -> usize {
        // Fibonacci hash of the page id; top bits select the shard (the
        // shard count is always a power of two).
        let h = id.index().wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> 60) as usize & (self.shards.len() - 1)
    }

    fn shard_of(&self, id: PageId) -> &TrackedMutex<Shard> {
        &self.shards[self.shard_index(id)]
    }

    /// Reads page `id`, serving from cache when possible.
    ///
    /// The returned [`Arc`] is a zero-copy handle to the cached frame; a
    /// concurrent eviction or write simply replaces the shard's `Arc`
    /// without invalidating handles already given out.
    ///
    /// # Errors
    /// Propagates store errors on a miss.
    pub fn page(&self, id: PageId) -> Result<Arc<[u8]>, StoreError> {
        self.stats.record_logical_read();
        // Optimistic hit path: the owning shard lock only.
        {
            let mut shard = self.shard_of(id).lock();
            if let Some(data) = shard.get(id) {
                return Ok(Arc::clone(data));
            }
        }
        // Miss path, in rank order: store first, then the shard for a
        // re-check, dropped again before the store read so that stores
        // with their own Store-ranked internals (e.g. `SharedMemStore`)
        // are never entered with a higher-ranked shard lock held. Holding
        // the pool's store lock across the whole miss means two threads
        // can never both read the same page — the loser of the store-lock
        // race re-checks and finds the winner's frame, keeping
        // physical-read counts deterministic (eviction pressure aside) —
        // and no frame for `id` can be installed between the re-check and
        // the install below, because every install path takes this lock.
        let mut store = self.store.lock();
        {
            let mut shard = self.shard_of(id).lock();
            if let Some(data) = shard.get(id) {
                return Ok(Arc::clone(data));
            }
        }
        self.stats.record_physical_read();
        // The frame is allocated once, as the `Arc` it will be cached as,
        // and the store reads straight into it: `make_mut` on an `Arc` no
        // one else holds yet hands out its buffer without a copy. A read
        // that fails returns here and installs nothing.
        let mut data: Arc<[u8]> = std::iter::repeat_n(0u8, self.page_size).collect();
        store.read_page(id, Arc::make_mut(&mut data))?;
        let mut shard = self.shard_of(id).lock();
        if shard.insert(id, Arc::clone(&data), self.shard_cap) {
            self.stats.record_eviction();
        }
        Ok(data)
    }

    /// Writes `buf` through to the store and installs the page in the cache
    /// (write-allocate), so the next read of `id` is a hit.
    ///
    /// # Errors
    /// Propagates store errors.
    ///
    /// # Panics
    /// Panics if `buf.len()` differs from the page size.
    pub fn write(&self, id: PageId, buf: &[u8]) -> Result<(), StoreError> {
        assert_eq!(buf.len(), self.page_size, "buffer/page size mismatch");
        self.stats.record_physical_write();
        self.stats.record_write_call();
        // Store before shard (rank order); the store lock is held across
        // the cache install, so a concurrent reader that misses on `id`
        // serializes behind this write and can never install stale bytes
        // over the new frame.
        let mut store = self.store.lock();
        store.write_page(id, buf)?;
        let mut shard = self.shard_of(id).lock();
        if shard.insert(id, Arc::from(buf), self.shard_cap) {
            self.stats.record_eviction();
        }
        Ok(())
    }

    /// Flushes a [`WriteBatch`]: stages are sorted by page id, coalesced
    /// into maximal consecutive runs, and each run goes to the store as one
    /// [`PageStore::write_pages`] call (one positioning operation). Every
    /// written page is installed in the cache (write-allocate), exactly as
    /// [`SharedBufferPool::write`] would. The batch is drained.
    ///
    /// Accounting: `physical_writes` counts pages, `write_calls` counts
    /// runs — their ratio is the coalescing factor of the batch.
    ///
    /// # Errors
    /// Propagates store errors.
    ///
    /// # Panics
    /// Panics if a staged buffer's length differs from the page size.
    pub fn write_batch(&self, batch: &mut WriteBatch) -> Result<(), StoreError> {
        let mut pages = std::mem::take(&mut batch.pages);
        if pages.is_empty() {
            return Ok(());
        }
        for (_, buf) in &pages {
            assert_eq!(buf.len(), self.page_size, "buffer/page size mismatch");
        }
        // Stable sort + keep-last dedup: a page staged twice behaves like
        // two ordered writes.
        pages.sort_by_key(|(id, _)| id.index());
        let mut deduped: Vec<(PageId, Box<[u8]>)> = Vec::with_capacity(pages.len());
        for (id, buf) in pages {
            match deduped.last_mut() {
                Some(last) if last.0 == id => last.1 = buf,
                _ => deduped.push((id, buf)),
            }
        }
        // Rank order: the store lock first, held across both the coalesced
        // store writes and every cache install, exactly like
        // [`SharedBufferPool::write`]. Any concurrent write or miss on one
        // of these pages serializes behind the whole batch, so a stale
        // frame can never be installed over a staged image. Shards are then
        // taken one at a time in ascending index order (the rank rule for
        // siblings), never more than one at once.
        let mut store = self.store.lock();
        let mut run_start = 0usize;
        for i in 1..=deduped.len() {
            let run_ends =
                i == deduped.len() || deduped[i].0.index() != deduped[i - 1].0.index() + 1;
            if run_ends {
                let run = &deduped[run_start..i];
                let bufs: Vec<&[u8]> = run.iter().map(|(_, b)| &b[..]).collect();
                store.write_pages(run[0].0, &bufs)?;
                self.stats.record_write_call();
                self.stats.record_physical_writes(run.len() as u64);
                run_start = i;
            }
        }
        if batch.durability != Durability::None {
            self.stats.record_sync();
            store.sync(batch.durability)?;
        }
        // Install write-allocate frames grouped by shard, ascending.
        let mut by_shard: Vec<(usize, PageId, Box<[u8]>)> = deduped
            .into_iter()
            .map(|(id, buf)| (self.shard_index(id), id, buf))
            .collect();
        by_shard.sort_by_key(|(si, id, _)| (*si, id.index()));
        let mut iter = by_shard.into_iter().peekable();
        while let Some((si, id, buf)) = iter.next() {
            let mut shard = self.shards[si].lock();
            if shard.insert(id, Arc::from(buf), self.shard_cap) {
                self.stats.record_eviction();
            }
            while let Some((next_si, _, _)) = iter.peek() {
                if *next_si != si {
                    break;
                }
                let Some((_, id, buf)) = iter.next() else {
                    break;
                };
                if shard.insert(id, Arc::from(buf), self.shard_cap) {
                    self.stats.record_eviction();
                }
            }
        }
        drop(store);
        Ok(())
    }
}

impl<S: PageStore> From<BufferPool<S>> for SharedBufferPool<S> {
    /// Rewraps a single-threaded pool, keeping its store, capacity and
    /// stats handle (cached frames are dropped).
    fn from(pool: BufferPool<S>) -> Self {
        let capacity = pool.capacity();
        let stats = Arc::clone(pool.stats());
        Self::new(pool.into_store(), capacity, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn pool(cap: usize) -> SharedBufferPool<MemStore> {
        SharedBufferPool::new(MemStore::new(64), cap, AccessStats::new_shared())
    }

    fn fill(pool: &SharedBufferPool<MemStore>, n: usize) -> Vec<PageId> {
        (0..n)
            .map(|i| {
                let id = pool.allocate().unwrap();
                let mut buf = vec![0u8; 64];
                buf[0] = i as u8;
                pool.write(id, &buf).unwrap();
                id
            })
            .collect()
    }

    #[test]
    fn reads_return_written_content() {
        let p = pool(64);
        let ids = fill(&p, 40);
        p.clear_cache();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(p.page(id).unwrap()[0], i as u8);
        }
    }

    #[test]
    fn writes_are_write_allocate() {
        let p = pool(64);
        let ids = fill(&p, 8);
        // No cold start: the build's writes must have primed the cache.
        p.stats().reset();
        for &id in &ids {
            let _ = p.page(id).unwrap();
        }
        let s = p.stats().snapshot();
        assert_eq!(s.logical_reads, 8);
        assert_eq!(s.physical_reads, 0, "written pages must be cached");
    }

    #[test]
    fn cold_start_forgets_everything() {
        let p = pool(64);
        let ids = fill(&p, 10);
        for &id in &ids {
            let _ = p.page(id).unwrap();
        }
        p.clear_cache_and_stats();
        assert_eq!(p.cached_pages(), 0);
        for &id in &ids {
            let _ = p.page(id).unwrap();
        }
        let s = p.stats().snapshot();
        assert_eq!(s.logical_reads, 10);
        assert_eq!(s.physical_reads, 10, "all reads must miss after cold start");
    }

    #[test]
    fn clear_cache_and_stats_zeroes_counters() {
        let p = pool(8);
        let ids = fill(&p, 4);
        let _ = p.page(ids[0]).unwrap();
        p.clear_cache_and_stats();
        assert_eq!(p.stats().snapshot(), crate::stats::StatsSnapshot::default());
    }

    #[test]
    fn per_shard_eviction_bounds_the_cache() {
        let p = pool(SHARD_COUNT); // one frame per shard
        let ids = fill(&p, 200);
        p.clear_cache();
        for &id in &ids {
            let _ = p.page(id).unwrap();
        }
        assert!(p.cached_pages() <= p.capacity());
        assert!(p.stats().snapshot().evictions > 0);
    }

    #[test]
    fn from_buffer_pool_preserves_store_and_stats() {
        let stats = AccessStats::new_shared();
        let mut single = BufferPool::new(MemStore::new(64), 32, stats.clone());
        let id = single.allocate().unwrap();
        let mut buf = vec![0u8; 64];
        buf[0] = 77;
        single.write(id, &buf).unwrap();

        let shared: SharedBufferPool<MemStore> = single.into();
        assert_eq!(shared.page(id).unwrap()[0], 77);
        assert!(Arc::ptr_eq(shared.stats(), &stats));
    }

    #[test]
    fn concurrent_readers_see_consistent_data_and_counts() {
        let p = pool(1024); // big enough: no evictions
        let ids = fill(&p, 64);
        p.clear_cache_and_stats();

        std::thread::scope(|scope| {
            for t in 0..4 {
                let p = &p;
                let ids = &ids;
                scope.spawn(move || {
                    for round in 0..50usize {
                        let idx = (round * 7 + t * 13) % ids.len();
                        assert_eq!(p.page(ids[idx]).unwrap()[0], idx as u8);
                    }
                });
            }
        });

        let s = p.stats().snapshot();
        assert_eq!(s.logical_reads, 4 * 50);
        // The shard lock is held across a miss, so every page faults at
        // most once regardless of interleaving.
        assert_eq!(s.physical_reads, 64);
        assert_eq!(s.evictions, 0);
    }

    #[test]
    fn handles_survive_eviction() {
        let p = pool(SHARD_COUNT);
        let ids = fill(&p, 64);
        p.clear_cache();
        let handle = p.page(ids[0]).unwrap();
        for &id in &ids[1..] {
            let _ = p.page(id).unwrap(); // evicts ids[0] eventually
        }
        assert_eq!(handle[0], 0, "Arc handle must outlive eviction");
    }

    /// A `MemStore` whose next `fail_reads` reads fail as I/O errors.
    struct FlakyStore {
        inner: MemStore,
        fail_reads: usize,
    }

    impl PageStore for FlakyStore {
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
            if self.fail_reads > 0 {
                self.fail_reads -= 1;
                // A torn read: bytes arrive, then the error.
                buf.fill(0xEE);
                return Err(StoreError::Io(std::io::Error::other("injected read fault")));
            }
            self.inner.read_page(id, buf)
        }
        fn write_page(&mut self, id: PageId, buf: &[u8]) -> Result<(), StoreError> {
            self.inner.write_page(id, buf)
        }
    }

    #[test]
    fn a_failed_store_read_installs_no_frame() {
        let store = FlakyStore {
            inner: MemStore::new(64),
            fail_reads: 0,
        };
        let p = SharedBufferPool::new(store, 64, AccessStats::new_shared());
        let ids: Vec<PageId> = (0..4u8)
            .map(|i| {
                let id = p.allocate().unwrap();
                p.write(id, &[i + 1; 64]).unwrap();
                id
            })
            .collect();
        p.clear_cache_and_stats();
        let _ = p.page(ids[0]).unwrap();
        assert_eq!(p.cached_pages(), 1);

        // An id the store never allocated: an error, counted as the
        // physical read it attempted, and nothing cached.
        assert!(p.page(PageId(99)).is_err());
        assert_eq!(p.cached_pages(), 1);
        assert!(
            p.page(PageId(99)).is_err(),
            "no frame of a failed read is served"
        );
        assert_eq!(p.stats().snapshot().physical_reads, 3);

        // A read that fails inside the store after bytes arrived: the
        // half-filled buffer is dropped, not installed, and the next read
        // of the page goes to the store again and gets the real bytes.
        p.store.lock().fail_reads = 1;
        assert!(p.page(ids[1]).is_err());
        assert_eq!(p.cached_pages(), 1);
        let before = p.stats().snapshot();
        assert_eq!(&p.page(ids[1]).unwrap()[..], &[2u8; 64]);
        let after = p.stats().snapshot();
        assert_eq!(after.physical_reads, before.physical_reads + 1);
        assert_eq!(p.cached_pages(), 2);
        // And from then on it is a hit.
        assert_eq!(&p.page(ids[1]).unwrap()[..], &[2u8; 64]);
        assert_eq!(p.stats().snapshot().physical_reads, after.physical_reads);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_capacity_rejected() {
        let _ = pool(0);
    }

    #[test]
    fn write_batch_coalesces_consecutive_runs() {
        let p = pool(64);
        let first = {
            let _ = p.allocate().unwrap(); // page 0
            p.allocate_many(7).unwrap() // pages 1..=7
        };
        assert_eq!(first, PageId(1));
        p.stats().reset();

        // Stage pages 1,2,3 and 5,6 (out of order) plus a restage of 2:
        // two consecutive runs -> two write calls, five pages written.
        let mut batch = WriteBatch::new();
        for id in [3u64, 1, 2, 6, 5] {
            let mut buf = vec![0u8; 64];
            buf[0] = id as u8;
            batch.put(PageId(id), &buf);
        }
        let mut restage = vec![0u8; 64];
        restage[0] = 99;
        batch.put(PageId(2), &restage);
        assert_eq!(batch.len(), 6);
        p.write_batch(&mut batch).unwrap();
        assert!(batch.is_empty(), "flush drains the batch");

        let s = p.stats().snapshot();
        assert_eq!(s.physical_writes, 5, "dedup keeps one image per page");
        assert_eq!(s.write_calls, 2, "runs [1..=3] and [5..=6]");

        // Contents are the staged images (last-writer-wins for page 2) and
        // the writes are write-allocate: no physical read needed.
        p.stats().reset();
        assert_eq!(p.page(PageId(1)).unwrap()[0], 1);
        assert_eq!(p.page(PageId(2)).unwrap()[0], 99);
        assert_eq!(p.page(PageId(3)).unwrap()[0], 3);
        assert_eq!(p.page(PageId(5)).unwrap()[0], 5);
        assert_eq!(p.page(PageId(6)).unwrap()[0], 6);
        assert_eq!(p.stats().snapshot().physical_reads, 0);
    }

    #[test]
    fn write_batch_matches_per_page_writes_byte_for_byte() {
        let a = pool(64);
        let b = pool(64);
        for p in [&a, &b] {
            let _ = p.allocate_many(10).unwrap();
        }
        let images: Vec<(PageId, Vec<u8>)> = (0..10u64)
            .map(|i| {
                let mut buf = vec![0u8; 64];
                buf[0] = 100 + i as u8;
                (PageId(i), buf)
            })
            .collect();
        for (id, buf) in &images {
            a.write(*id, buf).unwrap();
        }
        let mut batch = WriteBatch::new();
        for (id, buf) in &images {
            batch.put(*id, buf);
        }
        b.write_batch(&mut batch).unwrap();
        for (id, _) in &images {
            assert_eq!(&a.page(*id).unwrap()[..], &b.page(*id).unwrap()[..]);
        }
        // Same pages written, far fewer positioning operations.
        assert_eq!(a.stats().snapshot().write_calls, 10);
        assert_eq!(b.stats().snapshot().write_calls, 1);
        assert_eq!(
            a.stats().snapshot().physical_writes,
            b.stats().snapshot().physical_writes
        );
    }

    #[test]
    fn empty_write_batch_is_free() {
        let p = pool(8);
        p.write_batch(&mut WriteBatch::new()).unwrap();
        assert_eq!(p.stats().snapshot().write_calls, 0);
    }

    #[test]
    fn sync_counts_only_real_barriers() {
        let p = pool(8);
        p.sync(Durability::None).unwrap();
        assert_eq!(p.stats().snapshot().syncs, 0, "None barriers are free");
        p.sync(Durability::Flush).unwrap();
        p.sync(Durability::Fsync).unwrap();
        assert_eq!(p.stats().snapshot().syncs, 2);
    }

    #[test]
    fn durable_write_batch_syncs_once_per_flush() {
        let p = pool(8);
        let _ = p.allocate_many(4).unwrap();
        p.stats().reset();
        let mut batch = WriteBatch::new().with_durability(Durability::Fsync);
        assert_eq!(batch.durability(), Durability::Fsync);
        for i in 0..4u64 {
            batch.put(PageId(i), &[0u8; 64]);
        }
        p.write_batch(&mut batch).unwrap();
        assert_eq!(p.stats().snapshot().syncs, 1, "one barrier per flush");
        // Draining left the policy in place for the next fill.
        assert_eq!(batch.durability(), Durability::Fsync);
        // An empty flush issues no barrier.
        p.write_batch(&mut batch).unwrap();
        assert_eq!(p.stats().snapshot().syncs, 1);
    }

    #[test]
    fn write_batch_rejects_unallocated_pages() {
        let p = pool(8);
        let _ = p.allocate().unwrap();
        let mut batch = WriteBatch::new();
        batch.put(PageId(7), &[0u8; 64]);
        assert!(p.write_batch(&mut batch).is_err());
    }
}
