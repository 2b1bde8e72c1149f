//! Shared harness code for the figure-reproduction binaries.
//!
//! The per-figure binaries (`fig1_example`, `fig6_effectiveness`,
//! `fig7_efficiency`, `ablation_*`, `scaling`) assemble their experiments
//! from the helpers here: canonical data-set configurations, index builders
//! over all three evaluated access methods, and measurement utilities that
//! report the paper's three metrics (page accesses, CPU time, overall time
//! including modelled I/O).

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]

use gauss_baselines::{PfvFile, XTree, XTreeConfig};
use gauss_storage::{AccessStats, DiskModel, MemStore, SharedBufferPool, DEFAULT_PAGE_SIZE};
use gauss_tree::{GaussTree, TreeConfig};
use gauss_workloads::{
    generate_queries, histogram_dataset, uniform_dataset, Dataset, IdentificationQuery, SigmaSpec,
};

/// Canonical experiment configuration for one of the paper's data sets.
#[derive(Debug, Clone)]
pub struct ExperimentSpec {
    /// Which paper data set this mirrors (1 or 2).
    pub id: u8,
    /// Number of database objects.
    pub n: usize,
    /// Dimensionality.
    pub dims: usize,
    /// Number of queries.
    pub queries: usize,
    /// σ distribution of database objects.
    pub db_sigma: SigmaSpec,
    /// σ distribution of query objects.
    pub query_sigma: SigmaSpec,
    /// RNG seed.
    pub seed: u64,
}

impl ExperimentSpec {
    /// Data set 1: 10 987 27-dimensional colour histograms, 100 queries
    /// (paper §6). `quick` shrinks it for smoke tests.
    #[must_use]
    pub fn dataset1(quick: bool) -> Self {
        let (n, queries) = if quick { (1500, 30) } else { (10_987, 100) };
        Self {
            id: 1,
            n,
            dims: 27,
            queries,
            db_sigma: SigmaSpec::log_uniform(0.05, 0.9)
                .with_object_scale(0.5, 2.0)
                .relative_to_value(0.01),
            query_sigma: SigmaSpec::log_uniform(0.05, 0.9)
                .with_object_scale(0.5, 1.5)
                .relative_to_value(0.01),
            seed: 20060403,
        }
    }

    /// Data set 2: 100 000 uniformly distributed 10-dimensional vectors,
    /// 500 queries (paper §6).
    #[must_use]
    pub fn dataset2(quick: bool) -> Self {
        let (n, queries) = if quick { (8_000, 50) } else { (100_000, 500) };
        Self {
            id: 2,
            n,
            dims: 10,
            queries,
            db_sigma: SigmaSpec::log_uniform(0.005, 0.3).with_object_scale(0.5, 3.0),
            query_sigma: SigmaSpec::log_uniform(0.005, 0.3).with_object_scale(0.5, 1.5),
            seed: 20060404,
        }
    }

    /// Generates the data set.
    #[must_use]
    pub fn dataset(&self) -> Dataset {
        match self.id {
            1 => histogram_dataset(self.n, self.dims, self.db_sigma, self.seed),
            _ => uniform_dataset(self.n, self.dims, self.db_sigma, self.seed),
        }
    }

    /// Generates the query workload with ground truth.
    #[must_use]
    pub fn queries(&self, dataset: &Dataset) -> Vec<IdentificationQuery> {
        generate_queries(dataset, self.queries, self.query_sigma, self.seed ^ 0xABCD)
    }
}

/// Cache budget used by every experiment (the paper's 50 MB).
pub const CACHE_BYTES: usize = 50 * 1024 * 1024;

/// Builds the sequential pfv file for a data set.
///
/// # Panics
/// Panics on builder errors (in-memory store cannot fail).
#[must_use]
#[expect(clippy::expect_used, reason = "a broken fixture must abort loudly")]
pub fn build_pfv_file(dataset: &Dataset) -> PfvFile<MemStore> {
    let pool = SharedBufferPool::with_byte_budget(
        MemStore::new(DEFAULT_PAGE_SIZE),
        CACHE_BYTES,
        AccessStats::new_shared(),
    );
    PfvFile::build(pool, dataset.dims(), dataset.items()).expect("pfv file build")
}

/// Bulk-loads the Gauss-tree for a data set.
///
/// # Panics
/// Panics on builder errors.
#[must_use]
#[expect(clippy::expect_used, reason = "a broken fixture must abort loudly")]
pub fn build_gauss_tree(dataset: &Dataset, config: TreeConfig) -> GaussTree<MemStore> {
    let pool = SharedBufferPool::with_byte_budget(
        MemStore::new(DEFAULT_PAGE_SIZE),
        CACHE_BYTES,
        AccessStats::new_shared(),
    );
    GaussTree::bulk_load(pool, config, dataset.items()).expect("gauss tree build")
}

/// Builds the X-tree over a pfv file.
///
/// # Panics
/// Panics on builder errors.
#[must_use]
#[expect(clippy::expect_used, reason = "a broken fixture must abort loudly")]
pub fn build_xtree(dataset: &Dataset, file: &mut PfvFile<MemStore>) -> XTree<MemStore> {
    let pool = SharedBufferPool::with_byte_budget(
        MemStore::new(DEFAULT_PAGE_SIZE),
        CACHE_BYTES,
        AccessStats::new_shared(),
    );
    XTree::build_from_file(pool, XTreeConfig::new(dataset.dims()), file).expect("xtree build")
}

/// One measured query workload: totals over all queries.
#[derive(Debug, Clone, Copy, Default)]
pub struct Measurement {
    /// Logical page accesses (buffer requests) — the paper's "page
    /// accesses" metric; independent of cache state.
    pub pages: u64,
    /// Physical page reads under the 50 MB cache cold-started once per
    /// experiment — what actually hits the (modelled) disk.
    pub faults: u64,
    /// Whether this workload reads sequentially (scan) or randomly (index).
    pub sequential: bool,
    /// Exact payload bytes a sequential workload transferred, when the
    /// caller knows them (see [`Measurement::with_scan_bytes`]). `None`
    /// falls back to page-granular billing of `faults`.
    pub scan_bytes: Option<u64>,
    /// Measured CPU (wall) time in seconds.
    pub cpu_s: f64,
}

impl Measurement {
    /// Attaches the exact byte count a sequential scan transferred, so the
    /// disk model bills `DiskModel::sequential_scan_s(bytes)` instead of
    /// charging every faulted page in full — a file whose last page is
    /// half-empty is then no longer over-billed for the padding.
    #[must_use]
    pub fn with_scan_bytes(mut self, bytes: u64) -> Self {
        self.scan_bytes = Some(bytes);
        self
    }

    /// Modelled I/O time under a disk model, in seconds.
    #[must_use]
    pub fn io_s(&self, disk: &DiskModel) -> f64 {
        if self.sequential {
            match self.scan_bytes {
                Some(bytes) => disk.sequential_scan_s(bytes),
                None => disk.sequential_io_s(self.faults),
            }
        } else {
            disk.random_io_s(self.faults)
        }
    }

    /// Overall time = measured CPU + modelled I/O (paper's "overall time").
    #[must_use]
    pub fn overall_s(&self, disk: &DiskModel) -> f64 {
        self.cpu_s + self.io_s(disk)
    }
}

/// Measures a query workload under the paper's methodology: the 50 MB cache
/// is cold-started once per experiment (the caller clears it before this
/// call), *page accesses* are logical buffer requests, and *overall time*
/// combines measured CPU with disk time modelled from the physical faults
/// that actually occurred against the cold cache.
pub fn measure_queries(
    queries: &[IdentificationQuery],
    sequential: bool,
    mut stats: impl FnMut() -> gauss_storage::StatsSnapshot,
    mut run: impl FnMut(&IdentificationQuery) -> f64,
) -> Measurement {
    let mut pages = 0u64;
    let mut faults = 0u64;
    let mut cpu_s = 0.0f64;
    for q in queries {
        let before = stats();
        cpu_s += run(q);
        let delta = stats().since(&before);
        pages += delta.logical_reads;
        faults += delta.physical_reads;
    }
    Measurement {
        pages,
        faults,
        sequential,
        scan_bytes: None,
        cpu_s,
    }
}

/// Exact bytes transferred by `faults` sequential page reads over a file of
/// `file_pages` pages and `file_bytes` payload bytes: whole-file passes are
/// billed their true payload size (no padding for the partial last page),
/// any remainder of pages at full page size.
#[must_use]
pub fn scan_bytes_for_faults(
    faults: u64,
    file_pages: u64,
    file_bytes: u64,
    page_size: usize,
) -> u64 {
    if file_pages == 0 {
        return 0;
    }
    let full_scans = faults / file_pages;
    let rem_pages = faults % file_pages;
    full_scans * file_bytes + rem_pages * page_size as u64
}

/// Simple `--flag value` argument scraper for the harness binaries.
#[must_use]
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Whether a bare flag is present.
#[must_use]
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Formats a percentage table row.
#[must_use]
pub fn fmt_row(label: &str, cells: &[f64]) -> String {
    let mut s = format!("{label:<28}");
    for c in cells {
        s.push_str(&format!(" {c:>9.1}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use gauss_tree::TreeConfig;

    #[test]
    fn quick_specs_generate() {
        let spec = ExperimentSpec::dataset1(true);
        let ds = spec.dataset();
        assert_eq!(ds.len(), spec.n);
        assert_eq!(ds.dims(), 27);
        let qs = spec.queries(&ds);
        assert_eq!(qs.len(), spec.queries);
    }

    #[test]
    fn builders_produce_consistent_sizes() {
        let spec = ExperimentSpec {
            n: 500,
            queries: 5,
            ..ExperimentSpec::dataset2(true)
        };
        let ds = spec.dataset();
        let mut file = build_pfv_file(&ds);
        assert_eq!(file.len(), 500);
        let tree = build_gauss_tree(&ds, TreeConfig::new(ds.dims()));
        assert_eq!(tree.len(), 500);
        let xt = build_xtree(&ds, &mut file);
        assert_eq!(xt.len(), 500);
    }

    #[test]
    fn measurement_percentages() {
        let disk = DiskModel::hdd_2006(8192);
        let base = Measurement {
            pages: 100,
            faults: 100,
            sequential: true,
            scan_bytes: None,
            cpu_s: 2.0,
        };
        let m = Measurement {
            pages: 25,
            faults: 10,
            sequential: false,
            scan_bytes: None,
            cpu_s: 0.5,
        };
        // Sequential base streams; random access pays a seek per fault.
        assert!(base.io_s(&disk) < m.io_s(&disk) * 2.0);
        assert!(m.overall_s(&disk) > m.cpu_s);
    }

    #[test]
    fn scan_byte_accounting_discounts_partial_last_page() {
        // File: 3 pages, 2.5 pages' worth of payload.
        let (pages, bytes, page) = (3u64, 8192 * 2 + 4096, 8192usize);
        // One full cold scan: billed the exact payload.
        assert_eq!(scan_bytes_for_faults(3, pages, bytes, page), bytes);
        // Two full scans.
        assert_eq!(scan_bytes_for_faults(6, pages, bytes, page), 2 * bytes);
        // A partial pass bills whole pages (we cannot know which).
        assert_eq!(scan_bytes_for_faults(4, pages, bytes, page), bytes + 8192);
        assert_eq!(scan_bytes_for_faults(5, 0, bytes, page), 0);
        // The byte-accurate sequential bill undercuts page-granular billing.
        let disk = DiskModel::hdd_2006(page);
        let m = Measurement {
            pages: 3,
            faults: 3,
            sequential: true,
            scan_bytes: None,
            cpu_s: 0.0,
        };
        let exact = m.with_scan_bytes(bytes);
        assert!(exact.io_s(&disk) < m.io_s(&disk));
    }

    #[test]
    fn arg_helpers() {
        let args: Vec<String> = ["--dataset", "2", "--quick"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--dataset").as_deref(), Some("2"));
        assert!(has_flag(&args, "--quick"));
        assert!(!has_flag(&args, "--verbose"));
    }
}
