//! Fault injection for crash-safety testing.
//!
//! [`FaultStore`] wraps any [`PageStore`] — or any forest backend
//! ([`ComponentStores`]) — and simulates a process being killed mid-write:
//! every page-granular write consumes one unit of a write budget, and the
//! write that exhausts the budget *kills* the store. The killing write is
//! either dropped whole ([`KillMode::Drop`]) or torn ([`KillMode::Tear`] —
//! the first half of the new image lands, the rest keeps the old bytes,
//! like a page write interrupted by power loss). After the kill every
//! mutation and every [`PageStore::sync`] fails, but reads keep working, so
//! a test can reopen "the disk as the crash left it" and assert what
//! recovery finds.
//!
//! Clones share the budget, and so does every component store a wrapped
//! forest backend hands out: its manifest-slot writes draw from the same
//! budget as its component pages, so a kill point can land anywhere inside
//! a multi-file flush or merge, not one file at a time. Removing a
//! component costs nothing but fails once the store is killed.
//!
//! Budgets are page-granular on purpose: a [`PageStore::write_pages`] run
//! of `k` pages costs `k` units, so a kill point can land in the middle of
//! a coalesced group commit. The run is range-checked whole first, as every
//! store does, so a run that cannot land is refused before any unit is
//! charged. Allocation (zero-extension of the store) is free — it never
//! touches committed data, and charging it would only shift every kill
//! point without adding a distinguishable failure mode.
//!
//! The simulation is *ordered*: writes that happened before the kill are
//! all on the "disk", writes after it are not. Real devices may reorder
//! un-synced writes, which is exactly why the tree's commit protocol puts
//! a [`Durability`] barrier between data and metadata — the wrapper tests
//! the protocol's ordering, the barrier covers the hardware's.

use crate::forest::ComponentStores;
use crate::page::PageId;
use crate::store::{Durability, PageStore, StoreError};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// What happens to the write that exhausts the budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KillMode {
    /// The killing write is dropped entirely (kill between two writes).
    #[default]
    Drop,
    /// The killing write lands half-old half-new (a torn page).
    Tear,
}

/// The kill state a [`FaultStore`] shares with its clones.
///
/// Every access is `Relaxed`: the fields publish no other data, and the
/// bytes a write lands are ordered by the wrapped store itself.
#[derive(Debug)]
struct Fault {
    mode: KillMode,
    /// Page-granular writes left before the kill; `None` = unlimited.
    budget: Option<AtomicU64>,
    killed: AtomicBool,
    write_ops: AtomicU64,
}

impl Fault {
    fn dead() -> StoreError {
        StoreError::Io(std::io::Error::other(
            "injected crash: write budget exhausted",
        ))
    }

    fn alive(&self) -> Result<(), StoreError> {
        if self.killed.load(Ordering::Relaxed) {
            return Err(Self::dead());
        }
        Ok(())
    }

    /// Charges one write of `new` and lands it on `target` through `put`.
    /// The write that finds the budget spent kills the store and fails:
    /// under [`KillMode::Tear`] it first lands the first half of `new` over
    /// the bytes `old` reads back.
    fn write<T>(
        &self,
        target: &mut T,
        new: &[u8],
        old: impl FnOnce(&mut T) -> Result<Vec<u8>, StoreError>,
        put: impl FnOnce(&mut T, &[u8]) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        self.alive()?;
        self.write_ops.fetch_add(1, Ordering::Relaxed);
        let spent = self.budget.as_ref().is_some_and(|left| {
            left.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |n| n.checked_sub(1))
                .is_err()
        });
        if !spent {
            return put(target, new);
        }
        if !self.killed.swap(true, Ordering::Relaxed) && self.mode == KillMode::Tear {
            let mut torn = old(target)?;
            let half = new.len() / 2;
            if torn.len() < half {
                torn.resize(half, 0);
            }
            torn[..half].copy_from_slice(&new[..half]);
            put(target, &torn)?;
        }
        Err(Self::dead())
    }
}

/// A wrapper that kills writes after a configured budget.
///
/// It wraps a [`PageStore`] or a [`ComponentStores`] forest backend; clones
/// share the budget. See the [module docs](self) for the failure model.
#[derive(Debug, Clone)]
pub struct FaultStore<S> {
    inner: S,
    fault: Arc<Fault>,
}

impl<S> FaultStore<S> {
    /// Wraps `inner`; the first `budget` page writes succeed, the next one
    /// kills the store (budget 0 kills the very first write).
    #[must_use]
    pub fn new(inner: S, budget: u64, mode: KillMode) -> Self {
        Self::with(inner, Some(budget), mode)
    }

    /// Wraps `inner` with no kill point — used to count how many write
    /// operations a scenario performs before replaying it with budgets.
    #[must_use]
    pub fn unlimited(inner: S) -> Self {
        Self::with(inner, None, KillMode::Drop)
    }

    fn with(inner: S, budget: Option<u64>, mode: KillMode) -> Self {
        Self {
            inner,
            fault: Arc::new(Fault {
                mode,
                budget: budget.map(AtomicU64::new),
                killed: AtomicBool::new(false),
                write_ops: AtomicU64::new(0),
            }),
        }
    }

    /// Whether the kill point has fired.
    #[must_use]
    pub fn killed(&self) -> bool {
        self.fault.killed.load(Ordering::Relaxed)
    }

    /// Page-granular write operations attempted so far (including the
    /// killing one).
    #[must_use]
    pub fn write_ops(&self) -> u64 {
        self.fault.write_ops.load(Ordering::Relaxed)
    }

    /// Unwraps the inner store — "the disk as the crash left it".
    #[must_use]
    pub fn into_inner(self) -> S {
        self.inner
    }

    /// `inner` charged against this store's budget.
    fn sharing<T>(&self, inner: T) -> FaultStore<T> {
        FaultStore {
            inner,
            fault: Arc::clone(&self.fault),
        }
    }
}

impl<S: PageStore> PageStore for FaultStore<S> {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn allocate(&mut self) -> Result<PageId, StoreError> {
        self.fault.alive()?;
        self.inner.allocate()
    }

    fn allocate_many(&mut self, n: u64) -> Result<PageId, StoreError> {
        self.fault.alive()?;
        self.inner.allocate_many(n)
    }

    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<(), StoreError> {
        // Reads survive the kill: recovery inspects the post-crash disk.
        self.inner.read_page(id, buf)
    }

    fn write_page(&mut self, id: PageId, buf: &[u8]) -> Result<(), StoreError> {
        self.fault.write(
            &mut self.inner,
            buf,
            |store| {
                let mut old = vec![0u8; store.page_size()];
                store.read_page(id, &mut old)?;
                Ok(old)
            },
            |store, bytes| store.write_page(id, bytes),
        )
    }

    fn sync(&mut self, durability: Durability) -> Result<(), StoreError> {
        self.fault.alive()?;
        self.inner.sync(durability)
    }
}

impl<C: ComponentStores> ComponentStores for FaultStore<C> {
    type Store = FaultStore<C::Store>;

    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn create_component(&self, id: u64) -> Result<Self::Store, StoreError> {
        self.fault.alive()?;
        Ok(self.sharing(self.inner.create_component(id)?))
    }

    fn open_component(&self, id: u64) -> Result<Self::Store, StoreError> {
        Ok(self.sharing(self.inner.open_component(id)?))
    }

    fn remove_component(&self, id: u64) -> Result<(), StoreError> {
        // Unlink is a directory operation whose loss the manifest protocol
        // already tolerates: free, but the dead process cannot do it.
        self.fault.alive()?;
        self.inner.remove_component(id)
    }

    fn list_components(&self) -> Result<Vec<u64>, StoreError> {
        self.inner.list_components()
    }

    fn read_manifest_slot(&self, slot: usize) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.read_manifest_slot(slot)
    }

    fn write_manifest_slot(&self, slot: usize, bytes: &[u8]) -> Result<(), StoreError> {
        self.fault.write(
            &mut &self.inner,
            bytes,
            |disk| Ok(disk.read_manifest_slot(slot)?.unwrap_or_default()),
            |disk, bytes| disk.write_manifest_slot(slot, bytes),
        )
    }

    fn sync_manifest(&self, durability: Durability) -> Result<(), StoreError> {
        self.fault.alive()?;
        self.inner.sync_manifest(durability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemStore;

    fn page(fill: u8, ps: usize) -> Vec<u8> {
        vec![fill; ps]
    }

    #[test]
    fn unlimited_counts_without_killing() {
        let mut s = FaultStore::unlimited(MemStore::new(64));
        let a = s.allocate().unwrap();
        s.write_page(a, &page(1, 64)).unwrap();
        s.write_page(a, &page(2, 64)).unwrap();
        s.sync(Durability::Fsync).unwrap();
        assert_eq!(s.write_ops(), 2);
        assert!(!s.killed());
    }

    #[test]
    fn drop_kill_leaves_previous_image() {
        let mut s = FaultStore::new(MemStore::new(64), 1, KillMode::Drop);
        let a = s.allocate().unwrap();
        s.write_page(a, &page(1, 64)).unwrap();
        assert!(s.write_page(a, &page(2, 64)).is_err());
        assert!(s.killed());
        // Everything after the kill fails except reads.
        assert!(s.write_page(a, &page(3, 64)).is_err());
        assert!(s.allocate().is_err());
        assert!(s.sync(Durability::Fsync).is_err());
        let mut buf = page(0, 64);
        s.read_page(a, &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 1), "killing write must be dropped");
    }

    #[test]
    fn tear_kill_writes_half_the_new_image() {
        let mut s = FaultStore::new(MemStore::new(64), 1, KillMode::Tear);
        let a = s.allocate().unwrap();
        s.write_page(a, &page(1, 64)).unwrap();
        assert!(s.write_page(a, &page(2, 64)).is_err());
        let mut buf = page(0, 64);
        s.read_page(a, &mut buf).unwrap();
        assert!(buf[..32].iter().all(|&b| b == 2), "new prefix");
        assert!(buf[32..].iter().all(|&b| b == 1), "old suffix");
    }

    #[test]
    fn budget_zero_kills_the_first_write() {
        let mut s = FaultStore::new(MemStore::new(64), 0, KillMode::Drop);
        let a = s.allocate().unwrap();
        assert!(s.write_page(a, &page(9, 64)).is_err());
        assert_eq!(s.write_ops(), 1);
    }

    #[test]
    fn an_out_of_range_run_is_refused_before_it_is_charged() {
        let mut s = FaultStore::new(MemStore::new(64), 5, KillMode::Drop);
        let first = s.allocate_many(2).unwrap();
        let imgs = [page(1, 64), page(2, 64), page(3, 64)];
        let refs: Vec<&[u8]> = imgs.iter().map(|v| &v[..]).collect();
        assert!(matches!(
            s.write_pages(first, &refs),
            Err(StoreError::PageOutOfRange { .. })
        ));
        assert_eq!(s.write_ops(), 0, "no budget charged");
        let mut buf = page(9, 64);
        for id in [PageId(0), PageId(1)] {
            s.read_page(id, &mut buf).unwrap();
            assert!(buf.iter().all(|&b| b == 0), "no page of the run written");
        }
    }

    #[test]
    fn clones_share_one_budget() {
        let disk = MemStore::new(64);
        let mut a = FaultStore::new(disk.clone(), 1, KillMode::Drop);
        let mut b = a.clone();
        let p = a.allocate().unwrap();
        b.write_page(p, &page(1, 64)).unwrap();
        assert!(a.write_page(p, &page(2, 64)).is_err());
        assert!(b.killed() && a.killed());
        assert_eq!(b.write_ops(), 2);
        assert!(b.allocate().is_err());
    }

    #[test]
    fn batched_runs_can_tear_mid_run() {
        let mut s = FaultStore::new(MemStore::new(64), 2, KillMode::Tear);
        let first = s.allocate_many(4).unwrap();
        let imgs: Vec<Vec<u8>> = (0..4).map(|i| page(10 + i as u8, 64)).collect();
        let refs: Vec<&[u8]> = imgs.iter().map(|v| &v[..]).collect();
        assert!(s.write_pages(first, &refs).is_err());
        let mut buf = page(0, 64);
        // Pages 0 and 1 of the run landed, page 2 is torn, page 3 untouched.
        s.read_page(PageId(0), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 10));
        s.read_page(PageId(1), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 11));
        s.read_page(PageId(2), &mut buf).unwrap();
        assert!(buf[..32].iter().all(|&b| b == 12));
        assert!(buf[32..].iter().all(|&b| b == 0));
        s.read_page(PageId(3), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 0));
        // The crash image is recoverable through into_inner.
        let mut inner = s.into_inner();
        inner.read_page(PageId(0), &mut buf).unwrap();
        assert!(buf.iter().all(|&b| b == 10));
    }
}
