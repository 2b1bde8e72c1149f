//! The buffer pool: a sharded LRU page cache over a [`PageStore`], with
//! interior mutability so many threads can read one index concurrently.
//!
//! Every page request is counted as a *logical* read; requests that miss
//! the cache are additionally counted as *physical* reads — the paper's
//! "page accesses". The paper cold-starts a 50 MB cache before each
//! experiment; [`SharedBufferPool::clear_cache`] reproduces that, and
//! [`SharedBufferPool::clear_cache_and_stats`] additionally zeroes the
//! counters so measurement loops cannot carry stale counts across runs.
//!
//! * Frames live in a [`SideCache<[u8]>`](SideCache): up to 16 shards,
//!   each guarded by its own [`TrackedMutex`], keyed by a multiplicative
//!   hash of the [`PageId`] and running its own LRU list over
//!   `capacity / shards` frames (an approximation of global LRU, as in any
//!   sharded cache), so concurrent readers of *different* pages rarely
//!   contend;
//! * all operations take `&self`; the shared [`AccessStats`] counters are
//!   atomic;
//! * the backing [`PageStore`] sits behind a single store mutex that is only
//!   taken on a cache miss (or a write/allocate). Lock order follows the
//!   workspace rank table ([`crate::sync::LockRank`]): **store before
//!   shard**. A miss re-checks the cache *under the store lock*, which keeps
//!   page-access accounting *deterministic*: two threads can never both
//!   read the same page from the store, so logical/physical totals are
//!   independent of the thread count whenever the cache is large enough to
//!   avoid evictions.
//!
//! Writes stay effectively single-writer by design: a Gauss-tree is written
//! by its bulk load (or an in-memory tree's `insert`, which takes `&mut` at
//! the tree layer), so the store mutex never sees write contention in
//! practice — it exists so the type is sound, not as a concurrency
//! strategy. Writes are write-through *and* write-allocate: a written page
//! is installed in the cache so the immediately following read during a
//! build is a cache hit, not a spurious physical read. A write the store
//! fails drops the page's frame, so the cache never serves an image the
//! store does not hold.

use crate::page::PageId;
use crate::side_cache::SideCache;
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

/// Sharded LRU buffer pool over a [`PageStore`], usable from `&self`.
///
/// See the [module docs](self) for the locking design.
#[derive(Debug)]
pub struct SharedBufferPool<S: PageStore> {
    store: TrackedMutex<S>,
    frames: SideCache<[u8]>,
    page_size: usize,
    stats: Arc<AccessStats>,
}

impl<S: PageStore> SharedBufferPool<S> {
    /// Creates a pool holding at most (approximately) `capacity` pages,
    /// split evenly across up to 16 shards.
    ///
    /// # Panics
    /// Panics if `capacity == 0`.
    #[must_use]
    pub fn new(store: S, capacity: usize, stats: Arc<AccessStats>) -> Self {
        Self {
            page_size: store.page_size(),
            store: TrackedMutex::new(store, LockRank::Store, 0, "pool-store"),
            frames: SideCache::with_rank(capacity, LockRank::Shard, "pool-shard"),
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

    /// Number of pages currently cached.
    #[must_use]
    pub fn cached_pages(&self) -> usize {
        self.frames.len()
    }

    /// Maximum number of cached pages (never exceeds the configured
    /// capacity; at most `shards − 1` below it when the capacity does not
    /// divide evenly).
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.frames.capacity()
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
        self.frames.clear();
    }

    /// Cold start *and* zeroed counters: the combination every measurement
    /// loop wants. Using [`SharedBufferPool::clear_cache`] alone silently
    /// carries access counts across runs unless the caller separately
    /// remembers to reset the stats.
    pub fn clear_cache_and_stats(&self) {
        self.clear_cache();
        self.stats.reset();
    }

    /// Caches `data` as the frame of `id`, counting an eviction if it
    /// displaced one.
    fn install(&self, id: PageId, data: Arc<[u8]>) {
        if self.frames.insert(id, data) {
            self.stats.record_eviction();
        }
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
        if let Some(data) = self.frames.get(id) {
            return Ok(data);
        }
        // Miss path, in rank order: store first, then the shard for a
        // re-check, released again before the store read so that stores
        // with their own Store-ranked internals (e.g. `MemStore`'s page
        // array) are never entered with a higher-ranked shard lock held.
        // Holding the pool's store lock across the whole miss means two
        // threads can never both read the same page — the loser of the
        // store-lock race re-checks and finds the winner's frame, keeping
        // physical-read counts deterministic (eviction pressure aside) —
        // and no frame for `id` can be installed between the re-check and
        // the install below, because every install path takes this lock.
        let mut store = self.store.lock();
        if let Some(data) = self.frames.get(id) {
            return Ok(data);
        }
        self.stats.record_physical_read();
        // The frame is allocated once, as the `Arc` it will be cached as,
        // and the store reads straight into it: `make_mut` on an `Arc` no
        // one else holds yet hands out its buffer without a copy. A read
        // that fails returns here and installs nothing.
        let mut data: Arc<[u8]> = std::iter::repeat_n(0u8, self.page_size).collect();
        store.read_page(id, Arc::make_mut(&mut data))?;
        self.install(id, Arc::clone(&data));
        Ok(data)
    }

    /// Writes `buf` through to the store and installs the page in the cache
    /// (write-allocate), so the next read of `id` is a hit. A failed store
    /// write may have torn the page, so it drops the cached frame instead.
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
        // the cache update, so a concurrent reader that misses on `id`
        // serializes behind this write and can never install stale bytes
        // over the new frame.
        let mut store = self.store.lock();
        if let Err(e) = store.write_page(id, buf) {
            self.frames.remove(id);
            return Err(e);
        }
        self.install(id, Arc::from(buf));
        Ok(())
    }

    /// Flushes a [`WriteBatch`]: stages are sorted by page id, coalesced
    /// into maximal consecutive runs, and each run goes to the store as one
    /// [`PageStore::write_pages`] call (one positioning operation). Each
    /// run's pages are installed in the cache (write-allocate, exactly as
    /// [`SharedBufferPool::write`] would) as soon as the store accepts the
    /// run; a run the store fails drops its pages' frames and ends the
    /// flush, so earlier runs stay cached with what the store now holds.
    /// The batch is drained.
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
        // store writes and every cache update, exactly like
        // [`SharedBufferPool::write`]. Any concurrent write or miss on one
        // of these pages serializes behind the whole batch, so a stale
        // frame can never be installed over a staged image.
        let mut store = self.store.lock();
        for run in deduped.chunk_by(|a, b| b.0.index() == a.0.index() + 1) {
            let bufs: Vec<&[u8]> = run.iter().map(|(_, b)| &b[..]).collect();
            if let Err(e) = store.write_pages(run[0].0, &bufs) {
                for &(id, _) in run {
                    self.frames.remove(id);
                }
                return Err(e);
            }
            self.stats.record_write_call();
            self.stats.record_physical_writes(run.len() as u64);
            for (id, buf) in run {
                self.install(*id, Arc::from(&buf[..]));
            }
        }
        if batch.durability != Durability::None {
            self.stats.record_sync();
            store.sync(batch.durability)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{FaultStore, KillMode};
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
    fn clear_cache_and_stats_zeroes_evictions() {
        let p = pool(2);
        let ids = fill(&p, 5);
        assert!(p.stats().snapshot().evictions > 0);
        p.clear_cache_and_stats();
        assert_eq!(p.cached_pages(), 0);
        assert_eq!(p.stats().snapshot().evictions, 0);
        let _ = p.page(ids[4]).unwrap();
        assert_eq!(p.stats().snapshot().physical_reads, 1);
    }

    #[test]
    fn clear_cache_keeps_counters() {
        let p = pool(8);
        let ids = fill(&p, 4);
        for &id in &ids {
            let _ = p.page(id).unwrap();
        }
        let before = p.stats().snapshot();
        p.clear_cache();
        assert_eq!(p.cached_pages(), 0);
        assert_eq!(p.stats().snapshot(), before, "only the frames are dropped");
        p.stats().reset();
        for &id in &ids {
            let _ = p.page(id).unwrap();
        }
        assert_eq!(p.stats().snapshot().physical_reads, 4);
    }

    #[test]
    fn write_allocate_caches_every_written_page() {
        let p = pool(64);
        let ids = fill(&p, 8);
        assert_eq!(p.cached_pages(), 8);
        assert_eq!(p.stats().snapshot().evictions, 0);
        p.stats().reset();
        for &id in &ids {
            let _ = p.page(id).unwrap();
        }
        assert_eq!(p.stats().snapshot().physical_reads, 0);
    }

    #[test]
    fn reads_return_written_content_through_eviction() {
        let p = pool(2);
        let ids = fill(&p, 10);
        p.clear_cache_and_stats();
        for (i, &id) in ids.iter().enumerate() {
            assert_eq!(p.page(id).unwrap()[0], i as u8);
        }
        assert!(p.cached_pages() <= 2);
        assert!(p.stats().snapshot().evictions > 0);
    }

    #[test]
    fn per_shard_eviction_bounds_the_cache() {
        let p = pool(16); // one frame per shard
        let ids = fill(&p, 200);
        p.clear_cache();
        for &id in &ids {
            let _ = p.page(id).unwrap();
        }
        assert!(p.cached_pages() <= p.capacity());
        assert!(p.stats().snapshot().evictions > 0);
    }

    #[test]
    fn hits_do_not_touch_store() {
        let p = pool(4);
        let ids = fill(&p, 2);
        p.clear_cache_and_stats();
        for _ in 0..3 {
            let _ = p.page(ids[0]).unwrap();
        }
        let s = p.stats().snapshot();
        assert_eq!(s.logical_reads, 3);
        assert_eq!(s.physical_reads, 1, "only the first read misses");
    }

    #[test]
    fn write_through_updates_cache_and_store() {
        let p = pool(2);
        let ids = fill(&p, 1);
        let _ = p.page(ids[0]).unwrap();
        let mut buf = vec![0u8; 64];
        buf[0] = 99;
        p.write(ids[0], &buf).unwrap();
        // Served from cache — but must reflect the write.
        assert_eq!(p.page(ids[0]).unwrap()[0], 99);
        // And the store has it too.
        p.clear_cache();
        assert_eq!(p.page(ids[0]).unwrap()[0], 99);
    }

    #[test]
    fn byte_budget_sizing() {
        let p = SharedBufferPool::with_byte_budget(
            MemStore::new(8192),
            50 * 1024 * 1024,
            AccessStats::new_shared(),
        );
        // 6400 frames split evenly across 16 shards.
        assert_eq!(p.capacity(), 50 * 1024 * 1024 / 8192);
        let tiny =
            SharedBufferPool::with_byte_budget(MemStore::new(8192), 100, AccessStats::new_shared());
        assert_eq!(
            tiny.capacity(),
            1,
            "a budget below one page still holds one"
        );
    }

    #[test]
    fn write_allocate_respects_capacity() {
        let p = pool(2);
        let ids = fill(&p, 5);
        assert!(p.cached_pages() <= 2);
        assert!(p.stats().snapshot().evictions >= 3);
        // The last page written is the most recent frame of its shard.
        p.stats().reset();
        let _ = p.page(ids[4]).unwrap();
        assert_eq!(p.stats().snapshot().physical_reads, 0);
    }

    #[test]
    fn heavy_random_access_is_consistent() {
        // Randomised smoke test of the shards' intrusive lists under churn,
        // at a capacity that leaves fewer shards than the default.
        let p = pool(7);
        let ids = fill(&p, 30);
        p.clear_cache();
        let mut state = 0x1234_5678_u64;
        for _ in 0..5000 {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            let idx = (state >> 33) as usize % ids.len();
            assert_eq!(p.page(ids[idx]).unwrap()[0], idx as u8);
            assert!(p.cached_pages() <= 7);
        }
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
        let p = pool(16);
        let ids = fill(&p, 64);
        p.clear_cache();
        let handle = p.page(ids[0]).unwrap();
        for &id in &ids[1..] {
            let _ = p.page(id).unwrap(); // evicts ids[0] eventually
        }
        assert_eq!(handle[0], 0, "Arc handle must outlive eviction");
    }

    /// A `MemStore` whose next `fail_reads` reads fail as I/O errors, and
    /// whose writes go through a [`FaultStore`] that
    /// [`FlakyStore::fail_writes_after`] arms.
    struct FlakyStore {
        disk: MemStore,
        writes: FaultStore<MemStore>,
        fail_reads: usize,
    }

    impl FlakyStore {
        fn new() -> Self {
            let disk = MemStore::new(64);
            Self {
                writes: FaultStore::unlimited(disk.clone()),
                disk,
                fail_reads: 0,
            }
        }

        /// The next `n` page writes land; the one after tears and fails.
        fn fail_writes_after(&mut self, n: u64) {
            self.writes = FaultStore::new(self.disk.clone(), n, KillMode::Tear);
        }
    }

    impl PageStore for FlakyStore {
        fn page_size(&self) -> usize {
            self.disk.page_size()
        }
        fn num_pages(&self) -> u64 {
            self.disk.num_pages()
        }
        fn allocate(&mut self) -> Result<PageId, StoreError> {
            self.writes.allocate()
        }
        fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<(), StoreError> {
            if self.fail_reads > 0 {
                self.fail_reads -= 1;
                // A torn read: bytes arrive, then the error.
                buf.fill(0xEE);
                return Err(StoreError::Io(std::io::Error::other("injected read fault")));
            }
            self.disk.read_page(id, buf)
        }
        fn write_page(&mut self, id: PageId, buf: &[u8]) -> Result<(), StoreError> {
            self.writes.write_page(id, buf)
        }
    }

    /// What the store behind `p` holds for `id`, read around the cache.
    fn stored(p: &SharedBufferPool<FlakyStore>, id: PageId) -> Vec<u8> {
        let mut buf = vec![0u8; 64];
        p.store.lock().disk.read_page(id, &mut buf).unwrap();
        buf
    }

    #[test]
    fn a_failed_store_read_installs_no_frame() {
        let p = SharedBufferPool::new(FlakyStore::new(), 64, AccessStats::new_shared());
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
    fn a_failed_batch_run_leaves_no_stale_frame() {
        let p = SharedBufferPool::new(FlakyStore::new(), 64, AccessStats::new_shared());
        let _ = p.allocate_many(6).unwrap();
        // Cache the old image of a page in each run: 1 in [1, 2], 4 in [4, 5].
        for id in [PageId(1), PageId(4)] {
            p.write(id, &[7u8; 64]).unwrap();
            assert_eq!(&p.page(id).unwrap()[..], &[7u8; 64]);
        }
        let mut batch = WriteBatch::new();
        for id in [1u64, 2, 4, 5] {
            batch.put(PageId(id), &[id as u8; 64]);
        }
        // The first run lands, the second tears on its first page.
        p.store.lock().fail_writes_after(2);
        assert!(p.write_batch(&mut batch).is_err());
        for id in [1u64, 2, 4, 5] {
            let id = PageId(id);
            assert_eq!(
                &p.page(id).unwrap()[..],
                &stored(&p, id)[..],
                "page {id:?}: the cache serves what the store holds"
            );
        }
        assert_eq!(&p.page(PageId(1)).unwrap()[..], &[1u8; 64]);
        assert_ne!(&p.page(PageId(4)).unwrap()[..], &[7u8; 64], "torn, not old");
    }

    #[test]
    fn a_failed_write_drops_the_cached_frame() {
        let p = SharedBufferPool::new(FlakyStore::new(), 64, AccessStats::new_shared());
        let id = p.allocate().unwrap();
        p.write(id, &[7u8; 64]).unwrap();
        assert_eq!(&p.page(id).unwrap()[..], &[7u8; 64]);
        p.store.lock().fail_writes_after(0);
        assert!(p.write(id, &[9u8; 64]).is_err());
        assert_eq!(&p.page(id).unwrap()[..], &stored(&p, id)[..]);
        assert_ne!(&p.page(id).unwrap()[..], &[7u8; 64], "torn, not old");
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
