//! Paged storage substrate for the Gauss-tree reproduction.
//!
//! The paper's efficiency evaluation (§6, Figure 7) reports three metrics —
//! *page accesses*, *CPU time* and *overall time* — for query processing on
//! top of a 50 MB database cache that is cold-started before each experiment.
//! This crate provides everything needed to reproduce those measurements:
//!
//! * [`page`] — fixed-size pages and identifiers;
//! * [`codec`] — little-endian serialisation helpers for node layouts;
//! * [`store`] — the [`PageStore`] abstraction with an in-memory
//!   implementation, whose clones share their pages, and an on-disk one;
//! * [`shared`] — the buffer pool: a sharded, `&self` LRU page cache that
//!   counts logical and physical page accesses (the paper's "page
//!   accesses" are the physical ones that miss the cache), so many threads
//!   can read one index concurrently;
//! * [`side_cache`] — the one sharded `PageId → Arc<T>` LRU: it holds the
//!   pool's page frames, and values derived from page bytes (decoded
//!   nodes, columnar leaves);
//! * [`stats`] — shared access counters;
//! * [`commit`] — the checksummed dual-slot epoch commit: slot header,
//!   checksum, newest-valid-slot selection and the barrier → slot write →
//!   barrier order, used by the tree's meta pages and the forest's
//!   manifest alike;
//! * [`disk`] — a disk cost model (seek + transfer) used to
//!   translate page accesses into the paper's "overall time" on hardware
//!   we do not have;
//! * [`forest`] — the component stores and dual-slot manifest of the
//!   Gauss-forest: a heap, a directory and a crash-injecting backend;
//! * [`fault`] — the one kill-after-N-writes / torn-page wrapper for
//!   crash-recovery testing, over a [`PageStore`] or a whole forest
//!   backend, with one budget its clones share.
//!
//! Crash safety: stores expose a [`store::Durability`] policy and a
//! [`PageStore::sync`] barrier, plumbed through the buffer pool and
//! [`WriteBatch`], so an index can order its data writes before its
//! metadata commit and survive the kill points [`fault::FaultStore`]
//! injects.
//!
//! Concurrency discipline: every mutex in the workspace is a storage lock —
//! a page store or a cache shard — and a [`sync::TrackedMutex`] carrying a
//! static [`sync::LockRank`]; under `debug_assertions` a rank inversion or
//! lock-order cycle panics immediately with both acquisition sites named,
//! and in release builds the checks compile away (see [`sync`]).

#![forbid(unsafe_code)]
#![deny(missing_docs, clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]
#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

/// Little-endian page (de)serialization primitives.
pub mod codec;
/// The checksummed dual-slot epoch commit protocol.
pub mod commit;
/// The disk cost model (seek + transfer) behind "overall time".
pub mod disk;
/// Fault-injection hooks for crash-safety tests.
pub mod fault;
/// Multi-component storage + manifest slots for the Gauss-forest.
pub mod forest;
mod lru;
/// Page identifiers and raw page buffers.
pub mod page;
/// The sharded, thread-safe buffer pool.
pub mod shared;
/// The sharded `PageId → Arc<T>` LRU cache.
pub mod side_cache;
/// Atomic I/O statistics counters.
pub mod stats;
/// The `PageStore` trait over memory- and disk-backed stores.
pub mod store;
/// Rank-checked mutexes and the lock-order detector.
pub mod sync;

pub use codec::{fnv1a64, Reader, Writer};
pub use disk::DiskModel;
pub use fault::{FaultStore, KillMode};
pub use forest::{
    ComponentStores, DirComponentStores, FaultComponentStores, MemComponentStores, MANIFEST_SLOTS,
};
pub use page::{PageId, DEFAULT_PAGE_SIZE};
pub use shared::{SharedBufferPool, WriteBatch};
pub use side_cache::SideCache;
pub use stats::{AccessStats, StatsSnapshot};
pub use store::{Durability, FileStore, MemStore, PageStore, StoreError};
pub use sync::{LockRank, TrackedGuard, TrackedMutex, LOCK_TRACKING};
