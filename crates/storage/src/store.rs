//! The [`PageStore`] abstraction and its in-memory / on-disk backends.

use crate::page::PageId;
use crate::sync::{LockRank, TrackedMutex};
use std::fs::{File, OpenOptions};
#[cfg(not(unix))]
use std::io::Read;
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Errors surfaced by page stores.
#[derive(Debug)]
pub enum StoreError {
    /// A page id outside the allocated range was addressed.
    PageOutOfRange {
        /// The offending page id.
        page: PageId,
        /// Number of allocated pages.
        allocated: u64,
    },
    /// An I/O error from the underlying file.
    Io(std::io::Error),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::PageOutOfRange { page, allocated } => {
                write!(f, "{page} out of range ({allocated} pages allocated)")
            }
            StoreError::Io(e) => write!(f, "I/O error: {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// How hard a store must try to make written pages survive a crash.
///
/// The levels are ordered: each one implies everything the previous level
/// does. What each guarantees (for a [`FileStore`]; heap-backed stores
/// treat every level as a no-op):
///
/// * [`Durability::None`] — writes go wherever the OS puts them; a process
///   or machine crash can lose or tear anything written since the last
///   sync. Fastest; the right choice for rebuildable indexes and benches.
/// * [`Durability::Flush`] — `sync` drains userspace buffering into the
///   OS. `std::fs::File` performs no userspace buffering, so this level is
///   about *write ordering within the process*: data handed to the kernel
///   survives a process crash (`kill -9`), but not power loss.
/// * [`Durability::Fsync`] — `sync` calls `File::sync_all` (fsync), so
///   acknowledged data survives power loss, at the cost of one device
///   round-trip per barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum Durability {
    /// No sync at all; crashes may lose or tear recent writes.
    #[default]
    None,
    /// Drain userspace buffers to the OS (process-crash safety).
    Flush,
    /// fsync to stable storage (power-loss safety).
    Fsync,
}

/// A store of fixed-size pages addressed by dense [`PageId`]s.
pub trait PageStore {
    /// Page size in bytes; constant for the lifetime of the store.
    fn page_size(&self) -> usize;

    /// Number of allocated pages.
    fn num_pages(&self) -> u64;

    /// Allocates a fresh zeroed page and returns its id.
    fn allocate(&mut self) -> Result<PageId, StoreError>;

    /// Reads page `id` into `buf` (`buf.len() == page_size()`).
    ///
    /// # Errors
    /// [`StoreError::PageOutOfRange`] for unallocated ids, or I/O errors.
    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<(), StoreError>;

    /// Writes `buf` to page `id`.
    ///
    /// # Errors
    /// [`StoreError::PageOutOfRange`] for unallocated ids, or I/O errors.
    fn write_page(&mut self, id: PageId, buf: &[u8]) -> Result<(), StoreError>;

    /// Allocates `n` fresh zeroed pages with consecutive ids and returns the
    /// first id (`PageId::INVALID` when `n == 0`). Backends that can extend
    /// in one operation override this; the default loops [`allocate`].
    ///
    /// [`allocate`]: PageStore::allocate
    ///
    /// # Errors
    /// Propagates allocation errors.
    fn allocate_many(&mut self, n: u64) -> Result<PageId, StoreError> {
        let mut first = PageId::INVALID;
        for i in 0..n {
            let id = self.allocate()?;
            if i == 0 {
                first = id;
            }
        }
        Ok(first)
    }

    /// Makes previously written pages durable to the given [`Durability`]
    /// level. The default is a no-op — correct for heap-backed stores,
    /// where there is nothing below the store to lose.
    ///
    /// # Errors
    /// I/O errors from the underlying sync primitive.
    fn sync(&mut self, durability: Durability) -> Result<(), StoreError> {
        let _ = durability;
        Ok(())
    }

    /// Writes `pages` to the consecutive range starting at `first` — the
    /// group-commit primitive behind [`crate::WriteBatch`]. Backends with a
    /// positioning cost override this with one seek plus one streaming
    /// transfer; the default loops [`write_page`].
    ///
    /// [`write_page`]: PageStore::write_page
    ///
    /// # Errors
    /// [`StoreError::PageOutOfRange`] if any page of the run is
    /// unallocated, or I/O errors.
    fn write_pages(&mut self, first: PageId, pages: &[&[u8]]) -> Result<(), StoreError> {
        let Some(n) = pages.len().checked_sub(1) else {
            return Ok(());
        };
        let last = PageId(first.index() + n as u64);
        if !first.is_valid() || last.index() >= self.num_pages() {
            // Reject the whole run up front so no prefix is written.
            return Err(StoreError::PageOutOfRange {
                page: last,
                allocated: self.num_pages(),
            });
        }
        for (i, buf) in pages.iter().enumerate() {
            self.write_page(PageId(first.index() + i as u64), buf)?;
        }
        Ok(())
    }
}

/// Sequence numbers for [`LockRank::Store`]-ranked locks inside stores.
///
/// The shared buffer pool wraps its store in a `(Store, 0)` lock and calls
/// [`PageStore`] methods while holding it, so every lock a store takes
/// internally must order strictly *after* `(Store, 0)` — starting the
/// counter at 1 guarantees that.
pub(crate) fn next_store_seq() -> usize {
    static NEXT: AtomicUsize = AtomicUsize::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// Heap-backed page store whose clones share one page array.
///
/// Dropping the writer's buffer pool does not lose the pages: a clone kept
/// aside reads what was written, which is how a forest component is
/// reopened from a [`crate::MemComponentStores`] and how a crash test
/// reopens "the disk as the crash left it".
#[derive(Debug, Clone)]
pub struct MemStore {
    page_size: usize,
    pages: Arc<TrackedMutex<Vec<Box<[u8]>>>>,
}

impl MemStore {
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
                "mem-store",
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

impl PageStore for MemStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u64 {
        self.pages.lock().len() as u64
    }

    fn allocate(&mut self) -> Result<PageId, StoreError> {
        self.allocate_many(1)
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

/// File-backed page store.
///
/// Pages are stored contiguously at offset `id * page_size`. The store keeps
/// no cache of its own — caching is the buffer pool's job, so that page
/// access counting stays honest.
#[derive(Debug)]
pub struct FileStore {
    page_size: usize,
    num_pages: u64,
    file: File,
}

impl FileStore {
    /// Creates (truncating) a store at `path`.
    ///
    /// # Errors
    /// I/O errors from file creation.
    ///
    /// # Panics
    /// Panics if `page_size == 0`.
    pub fn create(path: impl AsRef<Path>, page_size: usize) -> Result<Self, StoreError> {
        assert!(page_size > 0, "page size must be positive");
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        Ok(Self {
            page_size,
            num_pages: 0,
            file,
        })
    }

    /// Opens an existing store; the caller supplies the page size used at
    /// creation time (stores carry no header — the tree's metadata page does).
    ///
    /// # Errors
    /// I/O errors from opening; a file whose size is not a multiple of
    /// `page_size` is rejected.
    pub fn open(path: impl AsRef<Path>, page_size: usize) -> Result<Self, StoreError> {
        assert!(page_size > 0, "page size must be positive");
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let len = file.metadata()?.len();
        if len % page_size as u64 != 0 {
            return Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("file length {len} is not a multiple of page size {page_size}"),
            )));
        }
        Ok(Self {
            page_size,
            num_pages: len / page_size as u64,
            file,
        })
    }

    fn check(&self, id: PageId) -> Result<u64, StoreError> {
        if !id.is_valid() || id.index() >= self.num_pages {
            return Err(StoreError::PageOutOfRange {
                page: id,
                allocated: self.num_pages,
            });
        }
        Ok(id.index() * self.page_size as u64)
    }
}

impl PageStore for FileStore {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn num_pages(&self) -> u64 {
        self.num_pages
    }

    fn allocate(&mut self) -> Result<PageId, StoreError> {
        let id = PageId(self.num_pages);
        self.file
            .seek(SeekFrom::Start(self.num_pages * self.page_size as u64))?;
        self.file.write_all(&vec![0u8; self.page_size])?;
        self.num_pages += 1;
        Ok(id)
    }

    fn allocate_many(&mut self, n: u64) -> Result<PageId, StoreError> {
        if n == 0 {
            return Ok(PageId::INVALID);
        }
        let first = PageId(self.num_pages);
        self.file
            .seek(SeekFrom::Start(self.num_pages * self.page_size as u64))?;
        // One positioning, then a streaming zero-extension in bounded
        // chunks: a huge level allocation must not materialise an
        // O(n · page_size) scratch buffer (that would dwarf the bulk
        // loader's memory budget).
        const ZERO_CHUNK_BYTES: usize = 1 << 20;
        let pages_per_chunk = (ZERO_CHUNK_BYTES / self.page_size).max(1) as u64;
        #[expect(clippy::expect_used, reason = "a chunk is at most 2^20 pages")]
        let chunk_pages = usize::try_from(pages_per_chunk.min(n)).expect("chunk fits usize");
        let zeros = vec![0u8; self.page_size * chunk_pages];
        let mut remaining = n;
        while remaining > 0 {
            #[expect(clippy::expect_used, reason = "a chunk is at most 2^20 pages")]
            let k = usize::try_from(remaining.min(pages_per_chunk)).expect("chunk fits usize");
            self.file.write_all(&zeros[..self.page_size * k])?;
            remaining -= k as u64;
        }
        self.num_pages += n;
        Ok(first)
    }

    fn read_page(&mut self, id: PageId, buf: &mut [u8]) -> Result<(), StoreError> {
        assert_eq!(buf.len(), self.page_size, "buffer/page size mismatch");
        let off = self.check(id)?;
        // One positional read. It neither uses nor moves the file cursor,
        // and every write and allocation seeks before it transfers, so
        // reads and writes cannot disturb each other.
        #[cfg(unix)]
        std::os::unix::fs::FileExt::read_exact_at(&self.file, buf, off)?;
        #[cfg(not(unix))]
        {
            self.file.seek(SeekFrom::Start(off))?;
            self.file.read_exact(buf)?;
        }
        Ok(())
    }

    fn write_page(&mut self, id: PageId, buf: &[u8]) -> Result<(), StoreError> {
        assert_eq!(buf.len(), self.page_size, "buffer/page size mismatch");
        let off = self.check(id)?;
        self.file.seek(SeekFrom::Start(off))?;
        self.file.write_all(buf)?;
        Ok(())
    }

    fn sync(&mut self, durability: Durability) -> Result<(), StoreError> {
        match durability {
            Durability::None => Ok(()),
            // `std::fs::File` keeps no userspace buffer, so Flush is a
            // semantic barrier only: everything written is already with
            // the OS and survives a process crash.
            Durability::Flush => Ok(self.file.flush()?),
            Durability::Fsync => Ok(self.file.sync_all()?),
        }
    }

    fn write_pages(&mut self, first: PageId, pages: &[&[u8]]) -> Result<(), StoreError> {
        let Some(n) = pages.len().checked_sub(1) else {
            return Ok(());
        };
        let off = self.check(first)?;
        self.check(PageId(first.index() + n as u64))?;
        let mut run = Vec::with_capacity(self.page_size * pages.len());
        for buf in pages {
            assert_eq!(buf.len(), self.page_size, "buffer/page size mismatch");
            run.extend_from_slice(buf);
        }
        // One seek, one contiguous transfer for the whole run.
        self.file.seek(SeekFrom::Start(off))?;
        self.file.write_all(&run)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &mut dyn PageStore) {
        let a = store.allocate().unwrap();
        let b = store.allocate().unwrap();
        assert_eq!(store.num_pages(), 2);
        assert_ne!(a, b);

        let ps = store.page_size();
        let mut page = vec![0u8; ps];
        page[0] = 42;
        page[ps - 1] = 7;
        store.write_page(a, &page).unwrap();

        let mut back = vec![0u8; ps];
        store.read_page(a, &mut back).unwrap();
        assert_eq!(back, page);

        // b is still zeroed
        store.read_page(b, &mut back).unwrap();
        assert!(back.iter().all(|&x| x == 0));

        // out-of-range and invalid ids rejected
        assert!(store.read_page(PageId(99), &mut back).is_err());
        assert!(store.read_page(PageId::INVALID, &mut back).is_err());

        // Multi-page allocation hands out consecutive ids.
        let first = store.allocate_many(3).unwrap();
        assert_eq!(first, PageId(2));
        assert_eq!(store.num_pages(), 5);
        store.read_page(PageId(4), &mut back).unwrap();
        assert!(back.iter().all(|&x| x == 0));

        // Batched run writes land on the right pages.
        let mut p1 = vec![0u8; ps];
        let mut p2 = vec![0u8; ps];
        p1[0] = 11;
        p2[0] = 22;
        store
            .write_pages(first, &[p1.as_slice(), p2.as_slice()])
            .unwrap();
        store.read_page(PageId(2), &mut back).unwrap();
        assert_eq!(back[0], 11);
        store.read_page(PageId(3), &mut back).unwrap();
        assert_eq!(back[0], 22);
        // Empty run is a no-op; out-of-range run rejected.
        store.write_pages(first, &[]).unwrap();
        assert!(store
            .write_pages(PageId(4), &[p1.as_slice(), p2.as_slice()])
            .is_err());

        // Every durability level syncs without error on a healthy store.
        for d in [Durability::None, Durability::Flush, Durability::Fsync] {
            store.sync(d).unwrap();
        }
    }

    #[test]
    fn mem_store_round_trip() {
        let mut s = MemStore::new(256);
        exercise(&mut s);
    }

    #[test]
    fn mem_store_clones_share_pages() {
        let mut a = MemStore::new(64);
        let mut b = a.clone();
        let id = a.allocate().unwrap();
        a.write_page(id, &[7u8; 64]).unwrap();
        let mut buf = [0u8; 64];
        b.read_page(id, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 7));
    }

    #[test]
    fn file_store_round_trip() {
        let dir = std::env::temp_dir().join(format!("gauss-store-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("pages.bin");
        {
            let mut s = FileStore::create(&path, 256).unwrap();
            exercise(&mut s);
        }
        // Re-open and verify persistence.
        {
            let mut s = FileStore::open(&path, 256).unwrap();
            assert_eq!(s.num_pages(), 5);
            let mut buf = vec![0u8; 256];
            s.read_page(PageId(0), &mut buf).unwrap();
            assert_eq!(buf[0], 42);
            assert_eq!(buf[255], 7);
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_store_reads_are_positional() {
        // Reads interleaved with writes and allocations elsewhere in the
        // file, and a read that fails its range check, must neither see nor
        // leave a cursor: every read returns its own page, every write
        // lands on its own page.
        let dir = std::env::temp_dir().join(format!("gauss-store-pread-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut s = FileStore::create(dir.join("pages.bin"), 64).unwrap();
        let first = s.allocate_many(8).unwrap();
        assert_eq!(first, PageId(0));
        let image = |i: u64, gen: u8| vec![gen.wrapping_mul(31).wrapping_add(i as u8); 64];
        for i in 0..8 {
            s.write_page(PageId(i), &image(i, 0)).unwrap();
        }
        let mut buf = vec![0u8; 64];
        for i in 0..8u64 {
            // Write page 7 − i, then read page i: the read must not follow
            // the write's cursor. Pages 7, 6, .., 7 − i are rewritten so far.
            s.write_page(PageId(7 - i), &image(7 - i, 1)).unwrap();
            s.read_page(PageId(i), &mut buf).unwrap();
            let gen = u8::from(i >= 4);
            assert_eq!(buf, image(i, gen), "page {i}");
            // A failed read changes nothing for whoever comes next ...
            assert!(s.read_page(PageId(99), &mut buf).is_err());
            assert_eq!(
                buf,
                image(i, gen),
                "a refused read must not touch the buffer"
            );
            s.read_page(PageId(i), &mut buf).unwrap();
            assert_eq!(buf, image(i, gen));
            // ... nor does a read in front of an allocation or a run write.
            if i == 3 {
                s.read_page(PageId(0), &mut buf).unwrap();
                assert_eq!(s.allocate().unwrap(), PageId(8));
                s.read_page(PageId(1), &mut buf).unwrap();
                let run = [image(8, 2), image(9, 2)];
                assert_eq!(s.allocate().unwrap(), PageId(9));
                s.read_page(PageId(2), &mut buf).unwrap();
                s.write_pages(PageId(8), &[&run[0], &run[1]]).unwrap();
            }
        }
        for i in 0..8 {
            s.read_page(PageId(i), &mut buf).unwrap();
            assert_eq!(buf, image(i, 1), "page {i} after all writes");
        }
        for i in 8..10 {
            s.read_page(PageId(i), &mut buf).unwrap();
            assert_eq!(buf, image(i, 2), "page {i} of the run");
        }
        assert_eq!(s.num_pages(), 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_store_rejects_misaligned_file() {
        let dir = std::env::temp_dir().join(format!("gauss-store-mis-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("bad.bin");
        std::fs::write(&path, [0u8; 100]).unwrap();
        assert!(FileStore::open(&path, 256).is_err());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_page_size_rejected() {
        let _ = MemStore::new(0);
    }
}
