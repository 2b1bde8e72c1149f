//! Multi-threaded batch-query execution over one shared read view — a
//! [`GaussTree`](crate::tree::GaussTree) or a
//! [`ForestSnapshot`](crate::ForestSnapshot).
//!
//! The storage layer's [`gauss_storage::SharedBufferPool`] makes every
//! read-only tree operation `&self`, so a batch of queries can fan out
//! across [`std::thread::scope`] workers over a *single* tree instance —
//! no cloning, no per-thread pools, one shared cache and one shared set of
//! access counters.
//!
//! Work distribution is a shared atomic claim counter: each worker claims
//! the next unprocessed query index until the batch is drained, so skewed
//! per-query costs (a diffuse TIQ next to a peaked 1-MLIQ) cannot idle a
//! thread. Each worker returns its `(index, result)` pairs (or its error)
//! through its scoped join handle — no lock is taken — and results are
//! returned **in input order** regardless of which worker answered which
//! query. Every individual query computes exactly what its serial
//! counterpart would — the executor adds parallelism, not approximation.
//!
//! Each worker's refinement loop runs the columnar leaf path: visited
//! leaves come from the tree's shared decoded-node cache and are evaluated
//! with the batched Lemma-1 kernel ([`pfv::batch::log_densities`]), so the
//! threads share one set of columnar leaves instead of re-decoding pages,
//! and results stay bit-identical to the scalar serial path
//! (`tests/concurrency.rs` pins this down).
//!
//! ```
//! use gauss_storage::{AccessStats, MemStore, SharedBufferPool};
//! use gauss_tree::{BatchExecutor, GaussTree, TreeConfig};
//! use pfv::Pfv;
//!
//! let pool = SharedBufferPool::new(MemStore::new(4096), 64, AccessStats::new_shared());
//! let mut tree = GaussTree::create(pool, TreeConfig::new(1)).unwrap();
//! for i in 0..100u64 {
//!     tree.insert(i, &Pfv::new(vec![i as f64], vec![0.2]).unwrap()).unwrap();
//! }
//! let queries: Vec<Pfv> = (0..8)
//!     .map(|i| Pfv::new(vec![i as f64 * 10.0], vec![0.3]).unwrap())
//!     .collect();
//! let results = BatchExecutor::new(&tree, 4).k_mliq(&queries, 3).unwrap();
//! assert_eq!(results.len(), queries.len()); // in input order
//! ```

use crate::query::{MliqResult, RefinedResult, TiqResult};
use crate::tree::TreeError;
use crate::view::ReadView;
use gauss_storage::store::PageStore;
use pfv::Pfv;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// Fans batches of queries across worker threads over one shared view —
/// either a [`GaussTree`](crate::tree::GaussTree) borrowed shared or a
/// [`ForestSnapshot`](crate::ForestSnapshot).
///
/// Created by [`BatchExecutor::new`] or [`ReadView::batch`].
#[derive(Debug)]
pub struct BatchExecutor<'t, S: PageStore, V: ReadView<S>> {
    view: &'t V,
    threads: usize,
    _store: PhantomData<fn() -> S>,
}

impl<'t, S: PageStore + Send, V: ReadView<S> + Sync> BatchExecutor<'t, S, V> {
    /// Creates an executor running `threads` workers (clamped to ≥ 1; a
    /// single worker degenerates to an in-place serial loop).
    #[must_use]
    pub fn new(view: &'t V, threads: usize) -> Self {
        Self {
            view,
            threads: threads.max(1),
            _store: PhantomData,
        }
    }

    /// Number of worker threads this executor uses.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Batch [`ReadView::k_mliq`]: one result vector per query, in input
    /// order.
    ///
    /// # Errors
    /// The first error any worker hits (remaining work is abandoned).
    pub fn k_mliq(&self, queries: &[Pfv], k: usize) -> Result<Vec<Vec<MliqResult>>, TreeError> {
        self.run(queries, |q| self.view.k_mliq(q, k))
    }

    /// Batch [`ReadView::k_mliq_refined`].
    ///
    /// # Errors
    /// The first error any worker hits.
    ///
    /// # Panics
    /// Panics if `accuracy <= 0`.
    pub fn k_mliq_refined(
        &self,
        queries: &[Pfv],
        k: usize,
        accuracy: f64,
    ) -> Result<Vec<Vec<RefinedResult>>, TreeError> {
        self.run(queries, |q| self.view.k_mliq_refined(q, k, accuracy))
    }

    /// Batch [`ReadView::tiq`].
    ///
    /// # Errors
    /// The first error any worker hits.
    ///
    /// # Panics
    /// Panics unless `0 < p_theta <= 1` and `accuracy > 0`.
    pub fn tiq(
        &self,
        queries: &[Pfv],
        p_theta: f64,
        accuracy: f64,
    ) -> Result<Vec<Vec<TiqResult>>, TreeError> {
        self.run(queries, |q| self.view.tiq(q, p_theta, accuracy))
    }

    /// Batch [`ReadView::tiq_anytime`].
    ///
    /// # Errors
    /// The first error any worker hits.
    ///
    /// # Panics
    /// Panics unless `0 < p_theta <= 1`.
    pub fn tiq_anytime(
        &self,
        queries: &[Pfv],
        p_theta: f64,
    ) -> Result<Vec<Vec<TiqResult>>, TreeError> {
        self.run(queries, |q| self.view.tiq_anytime(q, p_theta))
    }

    /// Runs `f` over every query, claiming indices from a shared atomic
    /// counter, and reassembles results in input order.
    fn run<R: Send>(
        &self,
        queries: &[Pfv],
        f: impl Fn(&Pfv) -> Result<R, TreeError> + Sync,
    ) -> Result<Vec<R>, TreeError> {
        let workers = self.threads.min(queries.len());
        if workers <= 1 {
            return queries.iter().map(f).collect();
        }

        let next = AtomicUsize::new(0);
        let failed = AtomicBool::new(false);
        let answered: Vec<Result<Vec<(usize, R)>, TreeError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut local = Vec::new();
                        while !failed.load(Ordering::Relaxed) {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            let Some(q) = queries.get(i) else { break };
                            match f(q) {
                                Ok(r) => local.push((i, r)),
                                Err(e) => {
                                    failed.store(true, Ordering::Relaxed);
                                    return Err(e);
                                }
                            }
                        }
                        Ok(local)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| {
                    h.join()
                        .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
                })
                .collect()
        });

        let mut all = Vec::with_capacity(queries.len());
        for worker in answered {
            all.extend(worker?);
        }
        all.sort_unstable_by_key(|&(i, _)| i);
        Ok(all.into_iter().map(|(_, r)| r).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeConfig;
    use crate::tree::GaussTree;
    use gauss_storage::{AccessStats, MemStore, SharedBufferPool};

    fn build(n: u64) -> GaussTree<MemStore> {
        let pool = SharedBufferPool::new(MemStore::new(8192), 4096, AccessStats::new_shared());
        let mut tree = GaussTree::create(pool, TreeConfig::new(2).with_capacities(6, 4)).unwrap();
        for i in 0..n {
            let v = Pfv::new(
                vec![
                    (i as f64 * 0.71).sin() * 10.0,
                    (i as f64 * 0.37).cos() * 10.0,
                ],
                vec![0.1 + (i % 4) as f64 * 0.2, 0.15],
            )
            .unwrap();
            tree.insert(i, &v).unwrap();
        }
        tree
    }

    fn queries(n: usize) -> Vec<Pfv> {
        (0..n)
            .map(|i| {
                Pfv::new(
                    vec![(i as f64 * 1.3).sin() * 10.0, (i as f64 * 0.9).cos() * 10.0],
                    vec![0.2, 0.3],
                )
                .unwrap()
            })
            .collect()
    }

    #[test]
    fn results_are_in_input_order_and_match_serial() {
        let tree = build(400);
        let qs = queries(40);
        let serial: Vec<_> = qs.iter().map(|q| tree.k_mliq(q, 5).unwrap()).collect();
        for threads in [1, 2, 4, 8] {
            let par = tree.batch(threads).k_mliq(&qs, 5).unwrap();
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    #[test]
    fn refined_and_tiq_batches_match_serial() {
        let tree = build(300);
        let qs = queries(24);
        let refined_serial: Vec<_> = qs
            .iter()
            .map(|q| tree.k_mliq_refined(q, 3, 1e-6).unwrap())
            .collect();
        assert_eq!(
            tree.batch(4).k_mliq_refined(&qs, 3, 1e-6).unwrap(),
            refined_serial
        );
        let tiq_serial: Vec<_> = qs.iter().map(|q| tree.tiq(q, 0.1, 1e-6).unwrap()).collect();
        assert_eq!(tree.batch(4).tiq(&qs, 0.1, 1e-6).unwrap(), tiq_serial);
    }

    #[test]
    fn errors_propagate() {
        let tree = build(50);
        let mut qs = queries(10);
        qs.push(Pfv::new(vec![0.0], vec![0.1]).unwrap()); // wrong dims
        let err = tree.batch(4).k_mliq(&qs, 1).unwrap_err();
        assert!(matches!(err, TreeError::DimMismatch { .. }));
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let tree = build(20);
        let exec = tree.batch(0);
        assert_eq!(exec.threads(), 1);
        assert_eq!(exec.k_mliq(&queries(3), 2).unwrap().len(), 3);
    }

    #[test]
    fn empty_batch_is_fine() {
        let tree = build(20);
        assert!(tree.batch(4).k_mliq(&[], 2).unwrap().is_empty());
    }
}
