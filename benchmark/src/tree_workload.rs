//! The three single-tree workloads: `uniform10_warm`, `uniform10_cold` and
//! `hist27_warm`. One runner, generic over the page store; the specs differ
//! in data set, sizes and whether the tree is reopened on a small pool.

use crate::harness::minimum;
use crate::layers;
use crate::measure::{put_query_metrics, run_rounds, Ctx, QuerySet, THETA};
use crate::oracle::brute_force;
use gauss_bench::{ExperimentSpec, CACHE_BYTES};
use gauss_storage::{
    AccessStats, Durability, FileStore, MemStore, PageStore, SharedBufferPool, StatsSnapshot,
    DEFAULT_PAGE_SIZE,
};
use gauss_tree::{
    BulkLoadOptions, BulkLoadReport, GaussTree, ReadView, TreeConfig, TreeError, TreeOptions,
};
use gauss_workloads::{generate_queries, histogram_dataset, uniform_dataset, Dataset, SigmaSpec};
use pfv::Pfv;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Data {
    /// Paper data set 2: uniform vectors, d = 10.
    Uniform10,
    /// Paper data set 1: colour-histogram-like vectors, d = 27. A fixed
    /// corpus, as the paper's image collection is: `--seed` draws the queries.
    Hist27,
}

/// Sizes of one tree workload.
#[derive(Debug, Clone, Copy)]
pub struct TreeSpec {
    pub name: &'static str,
    pub data: Data,
    pub objects: usize,
    pub mliq_queries: usize,
    pub tiq_queries: usize,
    pub batch_queries: usize,
    /// Fresh set-ups per run: the first before round 0, the others spread
    /// through the rounds.
    pub setup_reps: usize,
    /// `Some(frames)`: file-backed, reopened on a pool and node cache of
    /// that many frames, cold-started before every round.
    pub cold_frames: Option<usize>,
}

/// Query counts follow from what moves the figures between seeds. The cost
/// of a 1-MLIQ is spread almost evenly over a wide range (uniform10: 0.1 to
/// 7 ms), so the median of a query sample is its least certain quantile;
/// TIQ at θ = 0.2 reads nearly all of a uniform10 tree whatever the query,
/// so few queries pin it down there, while on hist27 its cost is as wide as
/// 1-MLIQ's.
pub fn spec(name: &str, quick: bool) -> Option<TreeSpec> {
    let full = match name {
        "uniform10_warm" => TreeSpec {
            name: "uniform10_warm",
            data: Data::Uniform10,
            objects: 100_000,
            mliq_queries: 360,
            tiq_queries: 100,
            batch_queries: 64,
            setup_reps: 4,
            cold_frames: None,
        },
        "uniform10_cold" => TreeSpec {
            name: "uniform10_cold",
            data: Data::Uniform10,
            objects: 30_000,
            mliq_queries: 260,
            tiq_queries: 100,
            batch_queries: 48,
            setup_reps: 5,
            cold_frames: Some(64),
        },
        "hist27_warm" => TreeSpec {
            name: "hist27_warm",
            data: Data::Hist27,
            objects: 10_987,
            mliq_queries: 800,
            tiq_queries: 900,
            batch_queries: 400,
            setup_reps: 5,
            cold_frames: None,
        },
        _ => return None,
    };
    Some(if quick {
        TreeSpec {
            objects: 1500,
            mliq_queries: 24,
            tiq_queries: 8,
            batch_queries: 16,
            setup_reps: 2,
            cold_frames: full.cold_frames.map(|_| 16),
            ..full
        }
    } else {
        full
    })
}

/// `count` queries by the §6 protocol over a *systematic* sample of the
/// objects: the objects are ordered by Σ ln σ, a start is drawn from `seed`
/// within the first `len / count` of them, and every `len / count`-th object
/// from there is re-observed by `generate_queries`. Each object is as likely
/// to be picked as under the protocol's simple random choice, so every
/// statistic keeps its expectation; but how uncertain the picked object is
/// decides most of what its query costs (r = 0.78 with 1-MLIQ page reads on
/// uniform10), and this way every seed sees the same mix of easy and hard
/// objects. The queries come back in that order, so an evenly strided subset
/// has the same mix again.
pub fn stratified_queries(
    dataset: &Dataset,
    count: usize,
    sigma: SigmaSpec,
    seed: u64,
) -> Vec<Pfv> {
    let len = dataset.len();
    let count = count.min(len);
    let keys: Vec<f64> = dataset
        .objects
        .iter()
        .map(|v| v.sigmas().iter().map(|s| s.ln()).sum())
        .collect();
    let mut order: Vec<usize> = (0..len).collect();
    order.sort_by(|&a, &b| keys[a].total_cmp(&keys[b]));
    let step = len as f64 / count as f64;
    let start = StdRng::seed_from_u64(seed).random::<f64>() * step;
    let sample = Dataset {
        name: format!("systematic sample of {}", dataset.name),
        objects: (0..count)
            .map(|k| {
                let at = ((start + k as f64 * step) as usize).min(len - 1);
                dataset.objects[order[at]].clone()
            })
            .collect(),
    };
    let mut queries = generate_queries(&sample, count, sigma, seed);
    queries.sort_by_key(|q| q.truth);
    queries.into_iter().map(|q| q.query).collect()
}

/// One freshly set-up tree with what its set-up cost.
pub struct Built<S: PageStore> {
    pub tree: GaussTree<S>,
    /// Store creation through the first answered query.
    pub setup_s: f64,
    /// `GaussTree::bulk_load_with` alone.
    pub load_s: f64,
    /// Pool counters of the load (writes, write calls, syncs).
    pub writes: StatsSnapshot,
    pub report: BulkLoadReport,
}

/// `MemStore` under the paper's 50 MB cache: everything stays resident.
pub fn build_warm(
    items: Vec<(u64, Pfv)>,
    dims: usize,
    first: &Pfv,
    opts: &BulkLoadOptions,
) -> Result<Built<MemStore>, TreeError> {
    let t0 = Instant::now();
    let stats = AccessStats::new_shared();
    let pool = SharedBufferPool::with_byte_budget(
        MemStore::new(DEFAULT_PAGE_SIZE),
        CACHE_BYTES,
        stats.clone(),
    );
    let (tree, report) = GaussTree::bulk_load_with(pool, TreeConfig::new(dims), items, opts)?;
    let load_s = t0.elapsed().as_secs_f64();
    tree.k_mliq(first, 1)?;
    Ok(Built {
        tree,
        setup_s: t0.elapsed().as_secs_f64(),
        load_s,
        writes: stats.snapshot(),
        report,
    })
}

/// `FileStore` under `Durability::Flush`, loaded through a large pool, then
/// dropped and reopened on `frames` pool frames and as many cached nodes.
pub fn build_cold(
    items: Vec<(u64, Pfv)>,
    dims: usize,
    first: &Pfv,
    path: &Path,
    frames: usize,
) -> Result<Built<FileStore>, TreeError> {
    let t0 = Instant::now();
    let stats = AccessStats::new_shared();
    let store = FileStore::create(path, DEFAULT_PAGE_SIZE)?;
    let pool = SharedBufferPool::with_byte_budget(store, CACHE_BYTES, stats.clone());
    let opts = BulkLoadOptions::default().with_durability(Durability::Flush);
    let (tree, report) = GaussTree::bulk_load_with(pool, TreeConfig::new(dims), items, &opts)?;
    let load_s = t0.elapsed().as_secs_f64();
    drop(tree);
    let store = FileStore::open(path, DEFAULT_PAGE_SIZE)?;
    let pool = SharedBufferPool::new(store, frames, AccessStats::new_shared());
    let tree_opts = TreeOptions::new()
        .durability(Durability::Flush)
        .node_cache_capacity(frames);
    let tree = GaussTree::open_with(pool, &tree_opts)?;
    tree.k_mliq(first, 1)?;
    Ok(Built {
        tree,
        setup_s: t0.elapsed().as_secs_f64(),
        load_s,
        writes: stats.snapshot(),
        report,
    })
}

pub fn run(ctx: &mut Ctx, spec: &TreeSpec) -> Result<(), String> {
    let t0 = Instant::now();
    let paper = match spec.data {
        Data::Uniform10 => ExperimentSpec::dataset2(false),
        Data::Hist27 => ExperimentSpec::dataset1(false),
    };
    let dataset = match spec.data {
        Data::Uniform10 => uniform_dataset(spec.objects, paper.dims, paper.db_sigma, ctx.seed),
        Data::Hist27 => histogram_dataset(spec.objects, paper.dims, paper.db_sigma, paper.seed),
    };
    let (mliq, tiq) = (
        ctx.query_count(spec.mliq_queries),
        ctx.query_count(spec.tiq_queries),
    );
    let pool = stratified_queries(
        &dataset,
        mliq.max(tiq),
        paper.query_sigma,
        ctx.seed ^ 0xABCD,
    );
    let qs = QuerySet::new(pool, mliq, tiq, spec.batch_queries);
    let items = dataset.items();
    let gen_s = t0.elapsed().as_secs_f64();
    ctx.metrics.put("harness.gen_s", gen_s);
    println!(
        "workload {}: {} objects, {} dims, {} 1-MLIQ / {} TIQ / {} batch queries, generated in {gen_s:.2} s",
        spec.name, spec.objects, paper.dims, qs.mliq.len(), qs.tiq.len(), qs.batch.len()
    );

    match spec.cold_frames {
        None => {
            let build = |_rep: usize| {
                build_warm(
                    items.clone(),
                    paper.dims,
                    &qs.queries[0],
                    &BulkLoadOptions::default(),
                )
            };
            run_built(ctx, spec, &dataset, &items, &qs, &build, None)
        }
        Some(frames) => {
            std::fs::create_dir_all(&ctx.out_dir).map_err(|e| e.to_string())?;
            let dir = ctx.out_dir.clone();
            let path = move |rep: usize| dir.join(format!("{}-{rep}.gtree", spec.name));
            let build = |rep: usize| {
                build_cold(
                    items.clone(),
                    paper.dims,
                    &qs.queries[0],
                    &path(rep),
                    frames,
                )
            };
            let result = run_built(ctx, spec, &dataset, &items, &qs, &build, Some(&path(0)));
            for rep in 0..spec.setup_reps {
                let _ = std::fs::remove_file(path(rep));
            }
            result
        }
    }
}

fn run_built<S: PageStore + Send>(
    ctx: &mut Ctx,
    spec: &TreeSpec,
    dataset: &Dataset,
    items: &[(u64, Pfv)],
    qs: &QuerySet,
    build: &dyn Fn(usize) -> Result<Built<S>, TreeError>,
    store_path: Option<&Path>,
) -> Result<(), String> {
    let dims = items[0].1.dims();
    let setup_span = ctx.tracer.enter("setup", 0, -1);
    let built = build(0).map_err(|e| format!("set-up failed: {e}"))?;
    ctx.tracer.exit(setup_span);
    let tree = &built.tree;
    let pages = tree.pool().num_pages();
    println!(
        "  tree: {pages} pages ({:.1} MiB), height {}, pool {} frames, node cache {} nodes",
        pages as f64 * DEFAULT_PAGE_SIZE as f64 / (1 << 20) as f64,
        tree.height(),
        tree.pool().capacity(),
        tree.node_cache().capacity(),
    );

    let t_check = Instant::now();
    let violations = ctx.checked(tree.check_invariants(false), "check_invariants");
    ctx.check(violations.as_ref().is_some_and(Vec::is_empty), || {
        format!("invariant violations after set-up: {violations:?}")
    });
    let expected = brute_force(
        tree.config().combine,
        items,
        &qs.queries,
        &qs.tiq_flags(),
        THETA,
        ctx.threads,
    );
    ctx.metrics
        .put("harness.oracle_checked", expected.len() as f64);
    let check_s = t_check.elapsed().as_secs_f64();
    let cold = spec.cold_frames.is_some();

    let mut setups = vec![built.setup_s];
    let mut loads = vec![built.load_s];
    let before = || {
        if cold {
            tree.cold_start();
        }
    };
    let mut setup = |ctx: &mut Ctx| {
        if let Some(b) = ctx.checked(build(setups.len()), "repeated set-up") {
            setups.push(b.setup_s);
            loads.push(b.load_s);
        }
    };
    let t_rounds = Instant::now();
    let rounds = run_rounds(
        ctx,
        tree,
        tree.stats(),
        qs,
        &expected,
        &before,
        spec.setup_reps - 1,
        &mut setup,
    );
    let rounds_s = t_rounds.elapsed().as_secs_f64();

    if !ctx.trace {
        put_query_metrics(ctx, &rounds, qs);
        let n = items.len() as f64;
        let m = &mut ctx.metrics;
        m.put("setup_s", minimum(&setups));
        m.put("ingest_ops_per_s", n / minimum(&loads));
        m.put(
            "space_bytes_per_obj",
            pages as f64 * DEFAULT_PAGE_SIZE as f64 / n,
        );
        m.put(
            "write_amp",
            built.writes.physical_writes as f64 * DEFAULT_PAGE_SIZE as f64
                / (n * (8 + 16 * dims) as f64),
        );
    }
    let m = &mut ctx.metrics;
    m.put("harness.rounds", rounds.mliq_us.rounds() as f64);
    println!(
        "  rounds: {} in {rounds_s:.1} s (1-MLIQ n = {} x {}, TIQ n = {}), invariants and oracle: {check_s:.1} s, set-ups: {setups:.3?} s",
        rounds.mliq_us.rounds(),
        qs.mliq.len(),
        rounds.mliq_us.rounds(),
        qs.tiq.len(),
    );

    if ctx.trace {
        layers::tree_layers(ctx, &built, dataset, items, qs, &rounds, store_path)?;
        layers::not_applicable(ctx, "forest.");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn systematic_sample_covers_every_stratum_and_repeats_for_a_seed() {
        let sigma = SigmaSpec::log_uniform(0.005, 0.3).with_object_scale(0.5, 3.0);
        let dataset = uniform_dataset(1000, 4, sigma, 9);
        let spread = |v: &Pfv| v.sigmas().iter().map(|s| s.ln()).sum::<f64>();
        let mut keys: Vec<f64> = dataset.objects.iter().map(spread).collect();
        keys.sort_by(f64::total_cmp);

        let queries = stratified_queries(&dataset, 100, SigmaSpec::uniform(0.01, 0.02), 5);
        assert_eq!(queries.len(), 100);
        let again = stratified_queries(&dataset, 100, SigmaSpec::uniform(0.01, 0.02), 5);
        assert_eq!(queries, again, "same seed, same queries");
        let other = stratified_queries(&dataset, 100, SigmaSpec::uniform(0.01, 0.02), 6);
        assert_ne!(
            queries, other,
            "another seed, another start and other observations"
        );

        // Query k re-observes an object of the k-th tenth-of-a-tenth of the
        // objects ordered by spread: its mean lies within a few of that
        // object's (small) sigmas of an object in that slice.
        for (k, q) in queries.iter().enumerate() {
            let slice = &keys[k * 10..(k + 1) * 10];
            let hit = dataset.objects.iter().any(|v| {
                let key = spread(v);
                key >= slice[0]
                    && key <= slice[9]
                    && v.means()
                        .iter()
                        .zip(v.sigmas())
                        .zip(q.means())
                        .all(|((m, s), x)| (x - m).abs() <= 6.0 * s)
            });
            assert!(hit, "query {k} has no source object in stratum {k}");
        }
        assert_eq!(
            stratified_queries(&dataset, 5000, sigma, 1).len(),
            1000,
            "capped at the data set"
        );
    }
}
