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
//! * [`MemComponentStores`] — the heap backend; clones share one "disk",
//!   and its components are [`MemStore`]s, whose clones share their pages,
//!   so a component can be reopened after the writer handle is dropped;
//! * [`DirComponentStores`] — the on-disk backend: one directory holding
//!   `c<id>.gtree` component files and two manifest slot files;
//! * [`FaultComponentStores`] — [`MemComponentStores`] behind a
//!   [`FaultStore`]: one write budget, dropping or tearing the killing
//!   write, across every component and the manifest, so a kill point can
//!   land anywhere inside a multi-file flush or merge.
//!
//! Crash-safety contract: the forest core writes manifest slots only
//! through [`crate::commit::commit`], which makes component data durable
//! *before* the slot naming it is written, follows the slot write with its
//! own barrier ([`ComponentStores::sync_manifest`]) and checksums the slot
//! image, so a torn slot write is detected at open and the previous slot
//! wins.

use crate::fault::FaultStore;
use crate::store::{next_store_seq, Durability, FileStore, MemStore, PageStore, StoreError};
use crate::sync::{LockRank, TrackedMutex};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
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

/// Shared heap state of a [`MemComponentStores`] "disk".
#[derive(Debug, Default)]
struct MemForestState {
    components: BTreeMap<u64, MemStore>,
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
    type Store = MemStore;

    fn page_size(&self) -> usize {
        self.page_size
    }

    fn create_component(&self, id: u64) -> Result<Self::Store, StoreError> {
        let mut state = self.state.lock();
        if state.components.contains_key(&id) {
            return Err(Self::duplicate(id));
        }
        let store = MemStore::new(self.page_size);
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

/// Crash-injecting forest backend: a [`MemComponentStores`] whose
/// component page writes and manifest-slot writes all draw from one
/// budget; the stores it hands out are [`FaultStore`]s over [`MemStore`]s.
///
/// The write that exhausts the budget kills the backend; afterwards every
/// mutation fails but reads keep working, so a test can reopen the forest
/// from [`FaultStore::into_inner`] "as the crash left it". Clones share
/// the disk *and* the budget.
pub type FaultComponentStores = FaultStore<MemComponentStores>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::KillMode;

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
        let backend = FaultComponentStores::new(MemComponentStores::new(64), 3, KillMode::Drop);
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
        let disk = backend.into_inner();
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
        let backend = FaultComponentStores::new(MemComponentStores::new(64), 0, KillMode::Drop);
        let mut s = backend.create_component(0).unwrap();
        let p = s.allocate().unwrap();
        assert!(s.write_page(p, &[1u8; 64]).is_err());
        assert!(backend.killed());
        assert_eq!(backend.write_ops(), 1);
    }

    #[test]
    fn a_torn_manifest_write_lands_half_the_new_bytes() {
        let backend = FaultComponentStores::new(MemComponentStores::new(64), 2, KillMode::Tear);
        backend.write_manifest_slot(0, b"old-slot-bytes").unwrap();
        let mut s = backend.create_component(0).unwrap();
        let p = s.allocate().unwrap();
        s.write_page(p, &[1u8; 64]).unwrap();
        assert!(backend.write_manifest_slot(0, b"NEW-SLOT-BYTES").is_err());
        assert!(backend.write_manifest_slot(1, b"never").is_err());
        let disk = backend.into_inner();
        assert_eq!(
            disk.read_manifest_slot(0).unwrap().as_deref(),
            Some(&b"NEW-SLOt-bytes"[..])
        );
        assert_eq!(disk.read_manifest_slot(1).unwrap(), None);
        // A never-written slot torn by the kill holds the first half only.
        let backend = FaultComponentStores::new(disk, 0, KillMode::Tear);
        assert!(backend.write_manifest_slot(1, b"abcdef").is_err());
        assert_eq!(
            backend
                .into_inner()
                .read_manifest_slot(1)
                .unwrap()
                .as_deref(),
            Some(&b"abc"[..])
        );
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
