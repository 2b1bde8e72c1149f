//! Multi-component storage for the Gauss-forest write path.
//!
//! An LSM-style forest is not one page file but a *set* of immutable
//! component files plus a tiny manifest naming the committed set. This
//! module provides the storage half of that design, mirroring the
//! single-tree split between [`PageStore`] and its backends:
//!
//! * [`ComponentStores`] — the backend abstraction: create / open / remove
//!   component page stores by numeric id, plus blob IO for the two
//!   manifest slots of [`crate::commit`] (what pages 0–1 are to a tree);
//! * [`SharedMemStore`] — a heap page store whose clones share one page
//!   array, so an in-memory component can be "reopened" after the writer
//!   handle is dropped (crash-recovery tests need exactly this);
//! * [`MemComponentStores`] — the heap backend; clones share one "disk";
//! * [`DirComponentStores`] — the on-disk backend: one directory holding
//!   `c<id>.gtree` component files and two manifest slot files;
//! * [`FaultComponentStores`] — a [`MemComponentStores`] wrapper with one
//!   *shared* write budget across every component and the manifest, so a
//!   kill point can land anywhere inside a multi-file flush or merge —
//!   the forest counterpart of [`crate::FaultStore`].
//!
//! Crash-safety contract: the forest core writes manifest slots only
//! through [`crate::commit::commit`], which makes component data durable
//! *before* the slot naming it is written, follows the slot write with its
//! own barrier ([`ComponentStores::sync_manifest`]) and checksums the slot
//! image, so a torn slot write is detected at open and the previous slot
//! wins.

use crate::page::PageId;
use crate::store::{Durability, FileStore, PageStore, StoreError};
use crate::sync::{LockRank, TrackedMutex};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Number of manifest slots (the dual-slot commit protocol).
pub const MANIFEST_SLOTS: usize = 2;

/// A backend that stores a *set* of component page stores plus a
/// dual-slot manifest blob.
///
/// The forest core drives this trait with a strict protocol: component
/// stores are created, filled, and synced; then one manifest slot is
/// overwritten ([`ComponentStores::write_manifest_slot`]) and made durable
/// ([`ComponentStores::sync_manifest`]); only after that commit are
/// superseded components removed. Backends never interpret manifest bytes.
pub trait ComponentStores {
    /// The page store type backing each component.
    type Store: PageStore;

    /// Page size every component store is created with.
    fn page_size(&self) -> usize;

    /// Creates an empty component store for `id`.
    ///
    /// # Errors
    /// I/O errors, or `id` already existing.
    fn create_component(&self, id: u64) -> Result<Self::Store, StoreError>;

    /// Opens the existing component store `id`.
    ///
    /// # Errors
    /// I/O errors or an unknown `id`.
    fn open_component(&self, id: u64) -> Result<Self::Store, StoreError>;

    /// Removes component `id` from the backend. Handles already opened on
    /// it stay readable (files: POSIX unlink semantics; memory: shared
    /// page array kept alive by the clone).
    ///
    /// # Errors
    /// I/O errors; removing an unknown id is not an error.
    fn remove_component(&self, id: u64) -> Result<(), StoreError>;

    /// Lists every component id present on the backend (committed or
    /// orphaned), in ascending order.
    ///
    /// # Errors
    /// I/O errors.
    fn list_components(&self) -> Result<Vec<u64>, StoreError>;

    /// Reads manifest slot `slot` (`< MANIFEST_SLOTS`); `None` if the slot
    /// was never written.
    ///
    /// # Errors
    /// I/O errors.
    fn read_manifest_slot(&self, slot: usize) -> Result<Option<Vec<u8>>, StoreError>;

    /// Overwrites manifest slot `slot` with `bytes`. Not assumed atomic —
    /// the forest core checksums slot contents and falls back to the other
    /// slot when a torn write is detected.
    ///
    /// # Errors
    /// I/O errors.
    fn write_manifest_slot(&self, slot: usize, bytes: &[u8]) -> Result<(), StoreError>;

    /// Durability barrier for previously written manifest slots (and, for
    /// directory backends, the directory entries of component files).
    ///
    /// # Errors
    /// I/O errors from the underlying sync primitive.
    fn sync_manifest(&self, durability: Durability) -> Result<(), StoreError>;
}

/// Sequence numbers for [`LockRank::Store`]-ranked locks created here.
///
/// The shared buffer pool wraps its store in a `(Store, 0)` lock and calls
/// [`PageStore`] methods while holding it, so every lock a store takes
/// internally must order strictly *after* `(Store, 0)` — starting the
/// counter at 1 guarantees that.
fn next_store_seq() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A heap-backed page store whose clones share one page array.
///
/// Functionally a shareable [`crate::MemStore`]: dropping the writer's
/// buffer pool does not lose the pages, so [`MemComponentStores`] can hand
/// the *same* component back out from [`ComponentStores::open_component`] —
/// the property crash-recovery tests rely on to "reopen the disk".
#[derive(Debug, Clone)]
pub struct SharedMemStore {
    page_size: usize,
    pages: Arc<TrackedMutex<Vec<Box<[u8]>>>>,
}

impl SharedMemStore {
    /// Creates an empty store with the given page size.
    ///
    /// # Panics
    /// Panics if `page_size == 0`.
    #[must_use]
    pub fn new(page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        Self {
            page_size,
            pages: Arc::new(TrackedMutex::new(
                Vec::new(),
                LockRank::Store,
                next_store_seq(),
                "shared-mem-store",
            )),
        }
    }

    fn check(pages: &[Box<[u8]>], id: PageId) -> Result<usize, StoreError> {
        let idx = usize::try_from(id.index()).unwrap_or(usize::MAX);
        if !id.is_valid() || idx >= pages.len() {
            return Err(StoreError::PageOutOfRange {
                page: id,
                allocated: pages.len() as u64,
            });
        }
        Ok(idx)
    }
}

impl PageStore for SharedMemStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u64 {
        self.pages.lock().len() as u64
    }

    fn allocate(&mut self) -> Result<PageId, StoreError> {
        let mut pages = self.pages.lock();
        let id = PageId(pages.len() as u64);
        pages.push(vec![0u8; self.page_size].into_boxed_slice());
        Ok(id)
    }

    fn allocate_many(&mut self, n: u64) -> Result<PageId, StoreError> {
        if n == 0 {
            return Ok(PageId::INVALID);
        }
        let mut pages = self.pages.lock();
        let first = PageId(pages.len() as u64);
        for _ in 0..n {
            pages.push(vec![0u8; self.page_size].into_boxed_slice());
        }
        Ok(first)
    }

    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<(), StoreError> {
        let pages = self.pages.lock();
        let idx = Self::check(&pages, id)?;
        buf.copy_from_slice(&pages[idx]);
        Ok(())
    }

    fn write_page(&mut self, id: PageId, buf: &[u8]) -> Result<(), StoreError> {
        let mut pages = self.pages.lock();
        let idx = Self::check(&pages, id)?;
        pages[idx].copy_from_slice(buf);
        Ok(())
    }
}

/// Shared heap state of a [`MemComponentStores`] "disk".
#[derive(Debug, Default)]
struct MemForestState {
    components: BTreeMap<u64, SharedMemStore>,
    manifest: [Option<Vec<u8>>; MANIFEST_SLOTS],
}

/// Heap-backed [`ComponentStores`]; clones share one underlying "disk".
#[derive(Debug, Clone)]
pub struct MemComponentStores {
    page_size: usize,
    state: Arc<TrackedMutex<MemForestState>>,
}

impl MemComponentStores {
    /// Creates an empty in-memory forest backend.
    ///
    /// # Panics
    /// Panics if `page_size == 0`.
    #[must_use]
    pub fn new(page_size: usize) -> Self {
        assert!(page_size > 0, "page size must be positive");
        Self {
            page_size,
            state: Arc::new(TrackedMutex::new(
                MemForestState::default(),
                LockRank::Store,
                next_store_seq(),
                "mem-component-stores",
            )),
        }
    }

    fn duplicate(id: u64) -> StoreError {
        StoreError::Io(std::io::Error::new(
            std::io::ErrorKind::AlreadyExists,
            format!("component {id} already exists"),
        ))
    }

    fn missing(id: u64) -> StoreError {
        StoreError::Io(std::io::Error::new(
            std::io::ErrorKind::NotFound,
            format!("component {id} not found"),
        ))
    }
}

impl ComponentStores for MemComponentStores {
    type Store = SharedMemStore;

    fn page_size(&self) -> usize {
        self.page_size
    }

    fn create_component(&self, id: u64) -> Result<Self::Store, StoreError> {
        let mut state = self.state.lock();
        if state.components.contains_key(&id) {
            return Err(Self::duplicate(id));
        }
        let store = SharedMemStore::new(self.page_size);
        state.components.insert(id, store.clone());
        Ok(store)
    }

    fn open_component(&self, id: u64) -> Result<Self::Store, StoreError> {
        self.state
            .lock()
            .components
            .get(&id)
            .cloned()
            .ok_or_else(|| Self::missing(id))
    }

    fn remove_component(&self, id: u64) -> Result<(), StoreError> {
        self.state.lock().components.remove(&id);
        Ok(())
    }

    fn list_components(&self) -> Result<Vec<u64>, StoreError> {
        Ok(self.state.lock().components.keys().copied().collect())
    }

    fn read_manifest_slot(&self, slot: usize) -> Result<Option<Vec<u8>>, StoreError> {
        Ok(self.state.lock().manifest[slot].clone())
    }

    fn write_manifest_slot(&self, slot: usize, bytes: &[u8]) -> Result<(), StoreError> {
        self.state.lock().manifest[slot] = Some(bytes.to_vec());
        Ok(())
    }

    fn sync_manifest(&self, _durability: Durability) -> Result<(), StoreError> {
        // Heap-backed: nothing below the store to lose.
        Ok(())
    }
}

/// On-disk [`ComponentStores`]: a directory of `c<id>.gtree` page files
/// plus `MANIFEST.a` / `MANIFEST.b` slot files.
#[derive(Debug, Clone)]
pub struct DirComponentStores {
    dir: PathBuf,
    page_size: usize,
}

impl DirComponentStores {
    /// Opens (creating if needed) a forest directory backend at `dir`.
    ///
    /// # Errors
    /// I/O errors creating the directory.
    ///
    /// # Panics
    /// Panics if `page_size == 0`.
    pub fn new(dir: impl AsRef<Path>, page_size: usize) -> Result<Self, StoreError> {
        assert!(page_size > 0, "page size must be positive");
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)?;
        Ok(Self { dir, page_size })
    }

    /// The backing directory.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn component_path(&self, id: u64) -> PathBuf {
        self.dir.join(format!("c{id}.gtree"))
    }

    fn slot_path(&self, slot: usize) -> PathBuf {
        self.dir.join(if slot == 0 {
            "MANIFEST.a"
        } else {
            "MANIFEST.b"
        })
    }
}

impl ComponentStores for DirComponentStores {
    type Store = FileStore;

    fn page_size(&self) -> usize {
        self.page_size
    }

    fn create_component(&self, id: u64) -> Result<Self::Store, StoreError> {
        FileStore::create(self.component_path(id), self.page_size)
    }

    fn open_component(&self, id: u64) -> Result<Self::Store, StoreError> {
        FileStore::open(self.component_path(id), self.page_size)
    }

    fn remove_component(&self, id: u64) -> Result<(), StoreError> {
        match fs::remove_file(self.component_path(id)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e.into()),
        }
    }

    fn list_components(&self) -> Result<Vec<u64>, StoreError> {
        let mut ids = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let name = entry?.file_name();
            let Some(name) = name.to_str() else { continue };
            if let Some(stem) = name
                .strip_prefix('c')
                .and_then(|s| s.strip_suffix(".gtree"))
            {
                if let Ok(id) = stem.parse::<u64>() {
                    ids.push(id);
                }
            }
        }
        ids.sort_unstable();
        Ok(ids)
    }

    fn read_manifest_slot(&self, slot: usize) -> Result<Option<Vec<u8>>, StoreError> {
        match fs::read(self.slot_path(slot)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn write_manifest_slot(&self, slot: usize, bytes: &[u8]) -> Result<(), StoreError> {
        fs::write(self.slot_path(slot), bytes)?;
        Ok(())
    }

    fn sync_manifest(&self, durability: Durability) -> Result<(), StoreError> {
        if durability != Durability::Fsync {
            // `fs::write` hands the bytes to the kernel before returning,
            // which is all `Flush` promises (process-crash safety).
            return Ok(());
        }
        for slot in 0..MANIFEST_SLOTS {
            let path = self.slot_path(slot);
            match fs::File::open(&path) {
                Ok(f) => f.sync_all()?,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
                Err(e) => return Err(e.into()),
            }
        }
        // Directory entry durability: component creates/removes and slot
        // file creation all live in the directory inode.
        fs::File::open(&self.dir)?.sync_all()?;
        Ok(())
    }
}

/// Shared kill switch of a [`FaultComponentStores`] — one budget across
/// every component store *and* the manifest, so the kill point sweeps the
/// whole multi-file commit protocol, not one file at a time.
#[derive(Debug)]
struct FaultControl {
    /// Remaining page-granular writes + 1, or 0 for unlimited — encoded so
    /// a plain `fetch_sub` can both count down and detect exhaustion.
    remaining: AtomicU64,
    killed: AtomicU64,
    write_ops: AtomicU64,
}

const UNLIMITED: u64 = 0;

impl FaultControl {
    /// Charges one write unit; `Err` means this write must be dropped (the
    /// store was just killed or already was).
    fn charge(&self) -> Result<(), StoreError> {
        if self.killed.load(Ordering::Relaxed) != 0 {
            return Err(Self::injected());
        }
        self.write_ops.fetch_add(1, Ordering::Relaxed);
        if self.remaining.load(Ordering::Relaxed) == UNLIMITED {
            return Ok(());
        }
        let before = self.remaining.fetch_sub(1, Ordering::Relaxed);
        if before <= 1 {
            self.killed.store(1, Ordering::Relaxed);
            self.remaining.store(1, Ordering::Relaxed);
            return Err(Self::injected());
        }
        Ok(())
    }

    fn check_alive(&self) -> Result<(), StoreError> {
        if self.killed.load(Ordering::Relaxed) != 0 {
            return Err(Self::injected());
        }
        Ok(())
    }

    fn injected() -> StoreError {
        StoreError::Io(std::io::Error::other(
            "injected crash: forest write budget exhausted",
        ))
    }
}

/// A [`SharedMemStore`] charged against a forest-wide write budget.
#[derive(Debug, Clone)]
pub struct FaultSharedStore {
    inner: SharedMemStore,
    ctl: Arc<FaultControl>,
}

impl PageStore for FaultSharedStore {
    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn num_pages(&self) -> u64 {
        self.inner.num_pages()
    }

    fn allocate(&mut self) -> Result<PageId, StoreError> {
        // Allocation is free, as in `FaultStore`: zero-extension never
        // touches committed data.
        self.ctl.check_alive()?;
        self.inner.allocate()
    }

    fn allocate_many(&mut self, n: u64) -> Result<PageId, StoreError> {
        self.ctl.check_alive()?;
        self.inner.allocate_many(n)
    }

    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<(), StoreError> {
        // Reads survive the kill: recovery inspects the post-crash disk.
        self.inner.read_page(id, buf)
    }

    fn write_page(&mut self, id: PageId, buf: &[u8]) -> Result<(), StoreError> {
        self.ctl.charge()?;
        self.inner.write_page(id, buf)
    }

    fn write_pages(&mut self, first: PageId, pages: &[&[u8]]) -> Result<(), StoreError> {
        // Per-page so a kill point can land mid-run.
        for (i, buf) in pages.iter().enumerate() {
            self.write_page(PageId(first.index() + i as u64), buf)?;
        }
        Ok(())
    }

    fn sync(&mut self, durability: Durability) -> Result<(), StoreError> {
        self.ctl.check_alive()?;
        self.inner.sync(durability)
    }
}

/// Crash-injecting forest backend: a [`MemComponentStores`] whose page
/// writes and manifest-slot writes all draw from one shared budget.
///
/// The write that exhausts the budget is dropped whole and kills the
/// backend; afterwards every mutation fails but reads keep working, so a
/// test can reopen the forest "as the crash left it". Clones share the
/// disk *and* the budget.
#[derive(Debug, Clone)]
pub struct FaultComponentStores {
    inner: MemComponentStores,
    ctl: Arc<FaultControl>,
}

impl FaultComponentStores {
    /// Wraps a fresh in-memory disk; the first `budget` writes succeed and
    /// the next one kills the backend (budget 0 kills the very first).
    #[must_use]
    pub fn new(page_size: usize, budget: u64) -> Self {
        Self {
            inner: MemComponentStores::new(page_size),
            ctl: Arc::new(FaultControl {
                remaining: AtomicU64::new(budget.saturating_add(1)),
                killed: AtomicU64::new(0),
                write_ops: AtomicU64::new(0),
            }),
        }
    }

    /// Wraps a fresh in-memory disk with no kill point — used to count how
    /// many writes a scenario performs before replaying it with budgets.
    #[must_use]
    pub fn unlimited(page_size: usize) -> Self {
        Self {
            inner: MemComponentStores::new(page_size),
            ctl: Arc::new(FaultControl {
                remaining: AtomicU64::new(UNLIMITED),
                killed: AtomicU64::new(0),
                write_ops: AtomicU64::new(0),
            }),
        }
    }

    /// Whether the kill point has fired.
    #[must_use]
    pub fn killed(&self) -> bool {
        self.ctl.killed.load(Ordering::Relaxed) != 0
    }

    /// Write operations attempted so far (including the killing one).
    #[must_use]
    pub fn write_ops(&self) -> u64 {
        self.ctl.write_ops.load(Ordering::Relaxed)
    }

    /// The post-crash disk, reopenable without any fault injection.
    #[must_use]
    pub fn into_disk(self) -> MemComponentStores {
        self.inner
    }
}

impl ComponentStores for FaultComponentStores {
    type Store = FaultSharedStore;

    fn page_size(&self) -> usize {
        self.inner.page_size()
    }

    fn create_component(&self, id: u64) -> Result<Self::Store, StoreError> {
        self.ctl.check_alive()?;
        Ok(FaultSharedStore {
            inner: self.inner.create_component(id)?,
            ctl: Arc::clone(&self.ctl),
        })
    }

    fn open_component(&self, id: u64) -> Result<Self::Store, StoreError> {
        Ok(FaultSharedStore {
            inner: self.inner.open_component(id)?,
            ctl: Arc::clone(&self.ctl),
        })
    }

    fn remove_component(&self, id: u64) -> Result<(), StoreError> {
        // Removal after a kill must fail (the process is "dead"), but it
        // costs no budget: unlink is a directory operation whose loss the
        // manifest protocol already tolerates.
        self.ctl.check_alive()?;
        self.inner.remove_component(id)
    }

    fn list_components(&self) -> Result<Vec<u64>, StoreError> {
        self.inner.list_components()
    }

    fn read_manifest_slot(&self, slot: usize) -> Result<Option<Vec<u8>>, StoreError> {
        self.inner.read_manifest_slot(slot)
    }

    fn write_manifest_slot(&self, slot: usize, bytes: &[u8]) -> Result<(), StoreError> {
        self.ctl.charge()?;
        self.inner.write_manifest_slot(slot, bytes)
    }

    fn sync_manifest(&self, durability: Durability) -> Result<(), StoreError> {
        self.ctl.check_alive()?;
        self.inner.sync_manifest(durability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_mem_store_clones_share_pages() {
        let mut a = SharedMemStore::new(64);
        let mut b = a.clone();
        let id = a.allocate().unwrap();
        a.write_page(id, &[7u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        b.read_page(id, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 7));
    }

    #[test]
    fn mem_backend_reopens_components_and_slots() {
        let backend = MemComponentStores::new(64);
        let mut s = backend.create_component(3).unwrap();
        let id = s.allocate().unwrap();
        s.write_page(id, &[9u8; 64]).unwrap();
        drop(s);
        let mut again = backend.clone().open_component(3).unwrap();
        let mut buf = [0u8; 64];
        again.read_page(id, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 9));
        assert!(backend.create_component(3).is_err(), "duplicate create");
        assert_eq!(backend.list_components().unwrap(), vec![3]);

        assert_eq!(backend.read_manifest_slot(0).unwrap(), None);
        backend.write_manifest_slot(0, b"hello").unwrap();
        assert_eq!(
            backend.read_manifest_slot(0).unwrap().as_deref(),
            Some(&b"hello"[..])
        );
        backend.remove_component(3).unwrap();
        assert!(backend.list_components().unwrap().is_empty());
        // The clone that was already open keeps reading.
        again.read_page(id, &mut buf).unwrap();
    }

    #[test]
    fn fault_backend_kills_across_files() {
        let backend = FaultComponentStores::new(64, 3);
        let mut a = backend.create_component(0).unwrap();
        let pa = a.allocate().unwrap();
        a.write_page(pa, &[1u8; 64]).unwrap();
        let mut b = backend.create_component(1).unwrap();
        let pb = b.allocate().unwrap();
        b.write_page(pb, &[2u8; 64]).unwrap();
        // Third write unit goes to the manifest; the fourth kills.
        backend.write_manifest_slot(0, b"m").unwrap();
        assert!(backend.write_manifest_slot(1, b"n").is_err());
        assert!(backend.killed());
        assert_eq!(backend.write_ops(), 4);
        assert!(b.write_page(pb, &[3u8; 64]).is_err());
        assert!(backend.sync_manifest(Durability::Fsync).is_err());
        // Reads survive; the post-crash disk is intact.
        let disk = backend.into_disk();
        assert_eq!(
            disk.read_manifest_slot(0).unwrap().as_deref(),
            Some(&b"m"[..])
        );
        assert_eq!(disk.read_manifest_slot(1).unwrap(), None);
        let mut buf = [0u8; 64];
        disk.open_component(1)
            .unwrap()
            .read_page(pb, &mut buf)
            .unwrap();
        assert!(buf.iter().all(|&x| x == 2));
    }

    #[test]
    fn fault_budget_zero_kills_first_write() {
        let backend = FaultComponentStores::new(64, 0);
        let mut s = backend.create_component(0).unwrap();
        let p = s.allocate().unwrap();
        assert!(s.write_page(p, &[1u8; 64]).is_err());
        assert!(backend.killed());
        assert_eq!(backend.write_ops(), 1);
    }

    #[test]
    fn dir_backend_round_trips() {
        let dir = std::env::temp_dir().join(format!(
            "gauss-forest-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        let backend = DirComponentStores::new(&dir, 4096).unwrap();
        let mut s = backend.create_component(12).unwrap();
        let p = s.allocate().unwrap();
        s.write_page(p, &[5u8; 4096]).unwrap();
        s.sync(Durability::Fsync).unwrap();
        drop(s);
        assert_eq!(backend.list_components().unwrap(), vec![12]);
        let mut buf = [0u8; 4096];
        backend
            .open_component(12)
            .unwrap()
            .read_page(p, &mut buf)
            .unwrap();
        assert!(buf.iter().all(|&x| x == 5));
        backend.write_manifest_slot(1, b"slot-b").unwrap();
        backend.sync_manifest(Durability::Fsync).unwrap();
        assert_eq!(backend.read_manifest_slot(0).unwrap(), None);
        assert_eq!(
            backend.read_manifest_slot(1).unwrap().as_deref(),
            Some(&b"slot-b"[..])
        );
        backend.remove_component(12).unwrap();
        backend.remove_component(12).unwrap();
        assert!(backend.list_components().unwrap().is_empty());
        let _ = fs::remove_dir_all(&dir);
    }
}
