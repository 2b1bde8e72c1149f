//! Shared page-access counters.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Cumulative access statistics of a buffer pool.
///
/// *Logical* accesses are every page request; *physical* accesses are the
/// requests that missed the cache and went to the store. The paper's "page
/// accesses" metric corresponds to physical reads on a cold cache.
#[derive(Debug, Default)]
pub struct AccessStats {
    logical_reads: AtomicU64,
    physical_reads: AtomicU64,
    physical_writes: AtomicU64,
    write_calls: AtomicU64,
    syncs: AtomicU64,
    evictions: AtomicU64,
}

impl AccessStats {
    /// Creates a zeroed, shareable counter set.
    #[must_use]
    pub fn new_shared() -> Arc<Self> {
        Arc::new(Self::default())
    }

    /// Records a logical page read.
    #[inline]
    pub fn record_logical_read(&self) {
        self.logical_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a physical page read (cache miss).
    #[inline]
    pub fn record_physical_read(&self) {
        self.physical_reads.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a physical page write.
    #[inline]
    pub fn record_physical_write(&self) {
        self.physical_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` pages physically written.
    #[inline]
    pub fn record_physical_writes(&self, n: u64) {
        self.physical_writes.fetch_add(n, Ordering::Relaxed);
    }

    /// Records one positioning operation on the write path (a seek followed
    /// by one contiguous transfer). A single-page write is one call; a
    /// coalesced batch of `k` consecutive pages is also one call — the gap
    /// between `physical_writes` and `write_calls` is exactly what write
    /// batching saves.
    #[inline]
    pub fn record_write_call(&self) {
        self.write_calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one durability barrier actually issued to the store (a
    /// `flush`/`fsync` — [`crate::store::Durability::None`] barriers are
    /// free and not counted). The commit protocol pays two per commit: a
    /// data barrier and a commit barrier.
    #[inline]
    pub fn record_sync(&self) {
        self.syncs.fetch_add(1, Ordering::Relaxed);
    }

    /// Records a cache eviction.
    #[inline]
    pub fn record_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of all counters.
    #[must_use]
    pub fn snapshot(&self) -> StatsSnapshot {
        StatsSnapshot {
            logical_reads: self.logical_reads.load(Ordering::Relaxed),
            physical_reads: self.physical_reads.load(Ordering::Relaxed),
            physical_writes: self.physical_writes.load(Ordering::Relaxed),
            write_calls: self.write_calls.load(Ordering::Relaxed),
            syncs: self.syncs.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        self.logical_reads.store(0, Ordering::Relaxed);
        self.physical_reads.store(0, Ordering::Relaxed);
        self.physical_writes.store(0, Ordering::Relaxed);
        self.write_calls.store(0, Ordering::Relaxed);
        self.syncs.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
    }
}

/// Immutable copy of [`AccessStats`] counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsSnapshot {
    /// Page requests served (hit or miss).
    pub logical_reads: u64,
    /// Page requests that went to the store.
    pub physical_reads: u64,
    /// Pages written to the store.
    pub physical_writes: u64,
    /// Positioning operations on the write path (one per single-page
    /// write, one per coalesced run of consecutive pages in a batch).
    pub write_calls: u64,
    /// Durability barriers (flush/fsync) issued to the store.
    pub syncs: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
}

impl StatsSnapshot {
    /// Counter-wise difference `self − earlier` (saturating).
    #[must_use]
    pub fn since(&self, earlier: &StatsSnapshot) -> StatsSnapshot {
        StatsSnapshot {
            logical_reads: self.logical_reads.saturating_sub(earlier.logical_reads),
            physical_reads: self.physical_reads.saturating_sub(earlier.physical_reads),
            physical_writes: self.physical_writes.saturating_sub(earlier.physical_writes),
            write_calls: self.write_calls.saturating_sub(earlier.write_calls),
            syncs: self.syncs.saturating_sub(earlier.syncs),
            evictions: self.evictions.saturating_sub(earlier.evictions),
        }
    }

    /// Cache hit ratio of the covered interval (0 when no reads happened).
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        if self.logical_reads == 0 {
            0.0
        } else {
            1.0 - self.physical_reads as f64 / self.logical_reads as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = AccessStats::new_shared();
        s.record_logical_read();
        s.record_logical_read();
        s.record_physical_read();
        s.record_physical_write();
        s.record_physical_writes(3);
        s.record_write_call();
        s.record_sync();
        s.record_sync();
        s.record_eviction();
        let snap = s.snapshot();
        assert_eq!(snap.logical_reads, 2);
        assert_eq!(snap.physical_reads, 1);
        assert_eq!(snap.physical_writes, 4);
        assert_eq!(snap.write_calls, 1);
        assert_eq!(snap.syncs, 2);
        assert_eq!(snap.evictions, 1);
        assert!((snap.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn since_subtracts() {
        let s = AccessStats::new_shared();
        s.record_logical_read();
        let before = s.snapshot();
        s.record_logical_read();
        s.record_physical_read();
        let delta = s.snapshot().since(&before);
        assert_eq!(delta.logical_reads, 1);
        assert_eq!(delta.physical_reads, 1);
    }

    #[test]
    fn reset_zeroes() {
        let s = AccessStats::new_shared();
        s.record_physical_read();
        s.reset();
        assert_eq!(s.snapshot(), StatsSnapshot::default());
    }

    #[test]
    fn empty_hit_ratio_is_zero() {
        assert_eq!(StatsSnapshot::default().hit_ratio(), 0.0);
    }
}
