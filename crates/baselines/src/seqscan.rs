//! A sequential pfv file and the scan-based query processor of paper §4.
//!
//! Page layout: `[count: u16] [entry: id u64, means d×f64, sigmas d×f64]*`.

use gauss_storage::store::{PageStore, StoreError};
use gauss_storage::{PageId, Reader, SharedBufferPool, Writer};
use pfv::logsum::LogSumAcc;
use pfv::{combine, CombineMode, Pfv};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

const PAGE_HEADER: usize = 2;

/// Errors from the sequential file.
#[derive(Debug)]
pub enum ScanError {
    /// Storage failure.
    Store(StoreError),
    /// Malformed page.
    Corrupt(&'static str),
    /// Query dimensionality does not match the file.
    DimMismatch {
        /// File dimensionality.
        expected: usize,
        /// Query dimensionality.
        got: usize,
    },
}

impl std::fmt::Display for ScanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScanError::Store(e) => write!(f, "store error: {e}"),
            ScanError::Corrupt(w) => write!(f, "corrupt pfv file: {w}"),
            ScanError::DimMismatch { expected, got } => {
                write!(f, "dimensionality mismatch: file {expected}, query {got}")
            }
        }
    }
}

impl std::error::Error for ScanError {}

impl From<StoreError> for ScanError {
    fn from(e: StoreError) -> Self {
        ScanError::Store(e)
    }
}

/// Reference to an entry inside a [`PfvFile`] (used by the X-tree's
/// refinement step to fetch candidate pfv).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EntryRef {
    /// Page holding the entry.
    pub page: PageId,
    /// Slot within the page.
    pub slot: u16,
}

/// An unordered, sequentially paged file of pfv — the paper's baseline
/// storage and the refinement source for the X-tree.
#[derive(Debug)]
pub struct PfvFile<S: PageStore> {
    pool: SharedBufferPool<S>,
    dims: usize,
    pages: Vec<PageId>,
    len: u64,
    per_page: usize,
}

impl<S: PageStore> PfvFile<S> {
    /// Entry size in bytes for dimensionality `dims`.
    #[must_use]
    pub fn entry_bytes(dims: usize) -> usize {
        8 + 16 * dims
    }

    /// Builds a file from `(id, pfv)` pairs in input order.
    ///
    /// # Errors
    /// Storage errors, or a dimensionality mismatch between items.
    #[expect(clippy::expect_used, reason = "in_page is far below u16::MAX")]
    pub fn build(
        pool: SharedBufferPool<S>,
        dims: usize,
        items: impl IntoIterator<Item = (u64, Pfv)>,
    ) -> Result<Self, ScanError> {
        assert!(dims > 0, "dimensionality must be positive");
        let page_size = pool.page_size();
        let per_page = (page_size - PAGE_HEADER) / Self::entry_bytes(dims);
        assert!(
            per_page >= 1,
            "page too small for one pfv of dimension {dims}"
        );

        let mut pages = Vec::new();
        let mut len = 0u64;
        let mut buf = vec![0u8; page_size];
        let mut in_page = 0usize;

        let flush = |pool: &SharedBufferPool<S>,
                     buf: &mut [u8],
                     in_page: usize,
                     pages: &mut Vec<PageId>|
         -> Result<(), ScanError> {
            let id = pool.allocate()?;
            buf[0..2].copy_from_slice(&u16::try_from(in_page).expect("fits").to_le_bytes());
            pool.write(id, buf)?;
            pages.push(id);
            Ok(())
        };

        for (id, v) in items {
            if v.dims() != dims {
                return Err(ScanError::DimMismatch {
                    expected: dims,
                    got: v.dims(),
                });
            }
            if in_page == per_page {
                flush(&pool, &mut buf, in_page, &mut pages)?;
                buf.iter_mut().for_each(|b| *b = 0);
                in_page = 0;
            }
            let off = PAGE_HEADER + in_page * Self::entry_bytes(dims);
            let mut w = Writer::new(&mut buf[off..off + Self::entry_bytes(dims)]);
            w.put_u64(id);
            w.put_f64_slice(v.means());
            w.put_f64_slice(v.sigmas());
            in_page += 1;
            len += 1;
        }
        if in_page > 0 {
            flush(&pool, &mut buf, in_page, &mut pages)?;
        }
        Ok(Self {
            pool,
            dims,
            pages,
            len,
            per_page,
        })
    }

    /// Number of stored pfv.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the file is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Dimensionality of the stored pfv.
    #[must_use]
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of data pages.
    #[must_use]
    pub fn num_pages(&self) -> usize {
        self.pages.len()
    }

    /// Bytes a sequential scan of the file must stream: every page before
    /// the last in full (their per-page tail slack sits *between* live
    /// data, so the stream cannot skip it), plus only the used prefix of
    /// the last page. This is the byte count `DiskModel::scan_time_ms`
    /// bills — a page-granular model over-bills the scan by up to one page
    /// of trailing padding.
    #[must_use]
    pub fn data_bytes(&self) -> u64 {
        if self.pages.is_empty() {
            return 0;
        }
        let full_pages = self.pages.len() as u64 - 1;
        let last_entries = self.len - full_pages * self.per_page as u64;
        full_pages * self.pool.page_size() as u64
            + PAGE_HEADER as u64
            + last_entries * Self::entry_bytes(self.dims) as u64
    }

    /// Buffer pool access (stats, cold start).
    pub fn pool_mut(&mut self) -> &mut SharedBufferPool<S> {
        &mut self.pool
    }

    /// Shared access statistics.
    #[must_use]
    pub fn stats(&self) -> &std::sync::Arc<gauss_storage::AccessStats> {
        self.pool.stats()
    }

    fn check_query(&self, q: &Pfv) -> Result<(), ScanError> {
        if q.dims() != self.dims {
            return Err(ScanError::DimMismatch {
                expected: self.dims,
                got: q.dims(),
            });
        }
        Ok(())
    }

    /// Visits every entry in file order.
    ///
    /// # Errors
    /// Storage errors or corrupt pages.
    pub fn for_each(&mut self, mut f: impl FnMut(EntryRef, u64, &Pfv)) -> Result<(), ScanError> {
        let dims = self.dims;
        for &page in &self.pages {
            let bytes = self.pool.page(page)?;
            let mut r = Reader::new(&bytes);
            let count = r.get_u16().map_err(|_| ScanError::Corrupt("header"))? as usize;
            if count > self.per_page {
                return Err(ScanError::Corrupt("entry count exceeds capacity"));
            }
            for slot in 0..count {
                let id = r.get_u64().map_err(|_| ScanError::Corrupt("id"))?;
                let means = r
                    .get_f64_vec(dims)
                    .map_err(|_| ScanError::Corrupt("means"))?;
                let sigmas = r
                    .get_f64_vec(dims)
                    .map_err(|_| ScanError::Corrupt("sigmas"))?;
                let v = Pfv::new(means, sigmas).map_err(|_| ScanError::Corrupt("pfv"))?;
                f(
                    EntryRef {
                        page,
                        slot: slot as u16,
                    },
                    id,
                    &v,
                );
            }
        }
        Ok(())
    }

    /// Fetches a single entry by reference (one page access, possibly
    /// cached).
    ///
    /// # Errors
    /// Storage errors or an out-of-range slot.
    pub fn fetch(&mut self, at: EntryRef) -> Result<(u64, Pfv), ScanError> {
        let dims = self.dims;
        let bytes = self.pool.page(at.page)?;
        let mut r = Reader::new(&bytes);
        let count = r.get_u16().map_err(|_| ScanError::Corrupt("header"))? as usize;
        if at.slot as usize >= count {
            return Err(ScanError::Corrupt("slot out of range"));
        }
        let off = PAGE_HEADER + at.slot as usize * Self::entry_bytes(dims);
        let mut r = Reader::new(&bytes[off..off + Self::entry_bytes(dims)]);
        let id = r.get_u64().map_err(|_| ScanError::Corrupt("id"))?;
        let means = r
            .get_f64_vec(dims)
            .map_err(|_| ScanError::Corrupt("means"))?;
        let sigmas = r
            .get_f64_vec(dims)
            .map_err(|_| ScanError::Corrupt("sigmas"))?;
        let v = Pfv::new(means, sigmas).map_err(|_| ScanError::Corrupt("pfv"))?;
        Ok((id, v))
    }

    /// k-MLIQ by a single sequential scan (paper §4): keeps the k densest
    /// objects seen so far in a local list.
    ///
    /// # Errors
    /// Storage errors or dimensionality mismatch.
    #[expect(clippy::expect_used, reason = "reached only with best.len() >= k > 0")]
    pub fn k_mliq(
        &mut self,
        q: &Pfv,
        k: usize,
        mode: CombineMode,
    ) -> Result<Vec<(u64, f64)>, ScanError> {
        self.check_query(q)?;
        if k == 0 {
            return Ok(Vec::new());
        }
        // Min-heap of (log density, Reverse(id)) keeping the k best.
        let mut best: BinaryHeap<Reverse<(FloatOrd, Reverse<u64>)>> = BinaryHeap::new();
        self.for_each(|_, id, v| {
            let ld = combine::log_joint(mode, v, q);
            let key = (FloatOrd(ld), Reverse(id));
            if best.len() < k {
                best.push(Reverse(key));
            } else if key > best.peek().expect("non-empty").0 {
                best.pop();
                best.push(Reverse(key));
            }
        })?;
        let mut out: Vec<(u64, f64)> = best
            .into_iter()
            .map(|Reverse((FloatOrd(ld), Reverse(id)))| (id, ld))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        Ok(out)
    }

    /// k-MLIQ with exact identification probabilities: one scan for
    /// candidates plus the running denominator (single pass suffices — the
    /// denominator does not depend on the candidate set).
    ///
    /// # Errors
    /// Storage errors or dimensionality mismatch.
    #[expect(clippy::expect_used, reason = "reached only with best.len() >= k > 0")]
    pub fn k_mliq_with_probability(
        &mut self,
        q: &Pfv,
        k: usize,
        mode: CombineMode,
    ) -> Result<Vec<(u64, f64, f64)>, ScanError> {
        self.check_query(q)?;
        let mut denom = LogSumAcc::new();
        let mut best: BinaryHeap<Reverse<(FloatOrd, Reverse<u64>)>> = BinaryHeap::new();
        self.for_each(|_, id, v| {
            let ld = combine::log_joint(mode, v, q);
            denom.add(ld);
            let key = (FloatOrd(ld), Reverse(id));
            if best.len() < k {
                best.push(Reverse(key));
            } else if k > 0 && key > best.peek().expect("non-empty").0 {
                best.pop();
                best.push(Reverse(key));
            }
        })?;
        let d = denom.value();
        let mut out: Vec<(u64, f64, f64)> = best
            .into_iter()
            .map(|Reverse((FloatOrd(ld), Reverse(id)))| (id, ld, (ld - d).exp()))
            .collect();
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        Ok(out)
    }

    /// Threshold identification query by two sequential scans (paper §4):
    /// the first scan determines the total probability mass, the second
    /// reports every object at or above `p_theta`.
    ///
    /// # Errors
    /// Storage errors or dimensionality mismatch.
    ///
    /// # Panics
    /// Panics unless `0 < p_theta <= 1`.
    pub fn tiq(
        &mut self,
        q: &Pfv,
        p_theta: f64,
        mode: CombineMode,
    ) -> Result<Vec<(u64, f64, f64)>, ScanError> {
        assert!(
            p_theta > 0.0 && p_theta <= 1.0,
            "threshold must be in (0,1], got {p_theta}"
        );
        self.check_query(q)?;
        // Pass 1: denominator.
        let mut denom = LogSumAcc::new();
        self.for_each(|_, _, v| {
            denom.add(combine::log_joint(mode, v, q));
        })?;
        let d = denom.value();
        // Pass 2: report.
        let ln_theta = p_theta.ln();
        let mut out = Vec::new();
        self.for_each(|_, id, v| {
            let ld = combine::log_joint(mode, v, q);
            if ld - d >= ln_theta {
                out.push((id, ld, (ld - d).exp()));
            }
        })?;
        out.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        Ok(out)
    }
}

/// Total-order f64 wrapper for heap keys.
#[derive(Debug, Clone, Copy, PartialEq)]
struct FloatOrd(f64);

impl Eq for FloatOrd {}
impl PartialOrd for FloatOrd {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for FloatOrd {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gauss_storage::{AccessStats, MemStore};

    fn make_file(n: usize, dims: usize) -> (PfvFile<MemStore>, Vec<(u64, Pfv)>) {
        let items: Vec<(u64, Pfv)> = (0..n as u64)
            .map(|i| {
                let means: Vec<f64> = (0..dims)
                    .map(|d| ((i + d as u64) as f64 * 0.7).sin() * 5.0)
                    .collect();
                let sigmas: Vec<f64> = (0..dims)
                    .map(|d| 0.1 + ((i as usize + d) % 5) as f64 * 0.1)
                    .collect();
                (i, Pfv::new(means, sigmas).unwrap())
            })
            .collect();
        let pool = SharedBufferPool::new(MemStore::new(4096), 1024, AccessStats::new_shared());
        let file = PfvFile::build(pool, dims, items.clone()).unwrap();
        (file, items)
    }

    #[test]
    fn data_bytes_excludes_only_last_page_padding() {
        let (f, _) = make_file(100, 3);
        let entry = PfvFile::<MemStore>::entry_bytes(3);
        let per_page = (4096 - PAGE_HEADER) / entry;
        assert!(
            100 % per_page != 0,
            "test needs a partially filled last page"
        );
        let bytes = f.data_bytes();
        let page_granular = f.num_pages() as u64 * 4096;
        assert!(bytes < page_granular, "trailing padding must not be billed");
        // Full pages stream in full (their tail slack sits between live
        // data); only the last page's used prefix counts.
        let full_pages = f.num_pages() as u64 - 1;
        let last_entries = 100 - full_pages * per_page as u64;
        assert_eq!(
            bytes,
            full_pages * 4096 + PAGE_HEADER as u64 + last_entries * entry as u64
        );
        // The discount is strictly less than one page.
        assert!(page_granular - bytes < 4096);
    }

    #[test]
    fn build_and_iterate() {
        let (mut f, items) = make_file(100, 3);
        assert_eq!(f.len(), 100);
        let mut got = Vec::new();
        f.for_each(|_, id, v| got.push((id, v.clone()))).unwrap();
        assert_eq!(got.len(), 100);
        for ((gid, gv), (wid, wv)) in got.iter().zip(items.iter()) {
            assert_eq!(gid, wid);
            assert_eq!(gv, wv);
        }
    }

    #[test]
    fn fetch_by_reference() {
        let (mut f, items) = make_file(50, 2);
        let mut refs = Vec::new();
        f.for_each(|r, id, _| refs.push((r, id))).unwrap();
        for (r, want_id) in refs {
            let (id, v) = f.fetch(r).unwrap();
            assert_eq!(id, want_id);
            assert_eq!(&v, &items[id as usize].1);
        }
    }

    #[test]
    fn k_mliq_matches_posteriors_ranking() {
        let (mut f, items) = make_file(80, 2);
        let db: Vec<Pfv> = items.iter().map(|(_, v)| v.clone()).collect();
        let q = Pfv::new(vec![1.0, -1.0], vec![0.3, 0.2]).unwrap();
        let got = f.k_mliq(&q, 5, CombineMode::Convolution).unwrap();
        let truth = pfv::posteriors(CombineMode::Convolution, &db, &q);
        let mut want: Vec<(u64, f64)> = truth
            .iter()
            .map(|p| (p.index as u64, p.log_density))
            .collect();
        want.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        want.truncate(5);
        assert_eq!(got.len(), 5);
        for (g, w) in got.iter().zip(want.iter()) {
            assert_eq!(g.0, w.0);
            assert!((g.1 - w.1).abs() < 1e-12);
        }
    }

    #[test]
    fn tiq_matches_posteriors() {
        let (mut f, items) = make_file(60, 2);
        let db: Vec<Pfv> = items.iter().map(|(_, v)| v.clone()).collect();
        let q = Pfv::new(items[7].1.means().to_vec(), vec![0.2, 0.2]).unwrap();
        let got = f.tiq(&q, 0.05, CombineMode::Convolution).unwrap();
        let truth = pfv::posteriors(CombineMode::Convolution, &db, &q);
        let mut want: Vec<u64> = truth
            .iter()
            .filter(|p| p.probability >= 0.05)
            .map(|p| p.index as u64)
            .collect();
        want.sort_unstable();
        let mut got_ids: Vec<u64> = got.iter().map(|g| g.0).collect();
        got_ids.sort_unstable();
        assert_eq!(got_ids, want);
        for (_, _, p) in &got {
            assert!(*p >= 0.05 - 1e-12);
        }
    }

    #[test]
    fn tiq_scans_file_twice() {
        let (mut f, _) = make_file(100, 2);
        f.pool_mut().clear_cache();
        f.stats().reset();
        let q = Pfv::new(vec![0.0, 0.0], vec![0.3, 0.3]).unwrap();
        let _ = f.tiq(&q, 0.5, CombineMode::Convolution).unwrap();
        let s = f.stats().snapshot();
        assert_eq!(s.logical_reads, 2 * f.num_pages() as u64);
        // Second pass is served from cache (file fits).
        assert_eq!(s.physical_reads, f.num_pages() as u64);
    }

    #[test]
    fn k_mliq_scans_once() {
        let (mut f, _) = make_file(100, 2);
        f.pool_mut().clear_cache();
        f.stats().reset();
        let q = Pfv::new(vec![0.0, 0.0], vec![0.3, 0.3]).unwrap();
        let _ = f.k_mliq(&q, 3, CombineMode::Convolution).unwrap();
        assert_eq!(f.stats().snapshot().logical_reads, f.num_pages() as u64);
    }

    #[test]
    fn empty_file() {
        let pool = SharedBufferPool::new(MemStore::new(4096), 16, AccessStats::new_shared());
        let mut f = PfvFile::build(pool, 2, Vec::new()).unwrap();
        assert!(f.is_empty());
        let q = Pfv::new(vec![0.0, 0.0], vec![0.1, 0.1]).unwrap();
        assert!(f
            .k_mliq(&q, 3, CombineMode::Convolution)
            .unwrap()
            .is_empty());
        assert!(f.tiq(&q, 0.5, CombineMode::Convolution).unwrap().is_empty());
    }

    #[test]
    fn probability_variant_matches_plain() {
        let (mut f, _) = make_file(60, 2);
        let q = Pfv::new(vec![0.5, 0.5], vec![0.2, 0.2]).unwrap();
        let plain = f.k_mliq(&q, 4, CombineMode::Convolution).unwrap();
        let withp = f
            .k_mliq_with_probability(&q, 4, CombineMode::Convolution)
            .unwrap();
        assert_eq!(plain.len(), withp.len());
        let total: f64 = withp.iter().map(|r| r.2).sum();
        assert!(total <= 1.0 + 1e-9);
        for (p, w) in plain.iter().zip(withp.iter()) {
            assert_eq!(p.0, w.0);
        }
    }

    #[test]
    fn rejects_wrong_dims() {
        let (mut f, _) = make_file(10, 3);
        let q = Pfv::new(vec![0.0], vec![0.1]).unwrap();
        assert!(matches!(
            f.k_mliq(&q, 1, CombineMode::Convolution),
            Err(ScanError::DimMismatch { .. })
        ));
    }
}
