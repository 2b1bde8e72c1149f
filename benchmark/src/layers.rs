//! Per-layer probes of the traced run. Every number here is measured from
//! outside: by timing calls into a layer's public functions on the
//! workload's own pages and queries, each batch of calls inside a span, or by
//! reading the counters the layer already keeps.

use crate::harness::{mean, percentile, BestOf, Contract};
use crate::measure::{
    batch_chunks, batch_pass, batch_qps, strided, Ctx, PassCounts, QuerySet, Rounds, ACCURACY,
    THETA,
};
use crate::tree_workload::{build_warm, Built};
use gauss_bench::{build_pfv_file, build_xtree};
use gauss_storage::{
    AccessStats, DiskModel, FileStore, MemStore, PageId, PageStore, SideCache, DEFAULT_PAGE_SIZE,
};
use gauss_tree::node::{InnerEntry, LeafEntry, Node};
use gauss_tree::{
    children_log_hulls, BulkLoadOptions, CachedNode, ColumnarLeafNode, GaussTree, ReadView,
};
use gauss_workloads::Dataset;
use pfv::batch::{log_densities, log_densities_upper};
use pfv::combine::log_joint;
use pfv::{FastScratch, Pfv};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Queries the kernel probes sweep over the sampled nodes.
const PROBE_QUERIES: usize = 16;
/// Queries of the alternative entry points and of the Figure-7 reference.
const VARIANT_QUERIES: usize = 50;
const FIG7_QUERIES: usize = 16;

/// Emits 0 for every declared per-layer metric under `prefix` that the
/// workload has no such layer for, so each traced run reports the full set.
pub fn not_applicable(ctx: &mut Ctx, prefix: &str) {
    for d in &Contract::committed().per_layer {
        if d.name.starts_with(prefix) && ctx.metrics.get(&d.name).is_none() {
            ctx.metrics.put(&d.name, 0.0);
        }
    }
}

/// Times `passes` repetitions of `f`, each inside a span, and returns the
/// best nanoseconds per unit of work.
fn best_ns(
    ctx: &mut Ctx,
    name: &'static str,
    passes: u32,
    units: usize,
    mut f: impl FnMut(),
) -> f64 {
    let mut best = f64::INFINITY;
    for pass in 0..passes {
        let span = ctx.tracer.enter(name, pass, -1);
        let t = Instant::now();
        f();
        let ns = t.elapsed().as_nanos() as f64;
        ctx.tracer.exit(span);
        best = best.min(ns / units.max(1) as f64);
    }
    best
}

/// Up to `max` elements of `all`, evenly strided.
fn sample<T: Copy>(all: &[T], max: usize) -> Vec<T> {
    let picks = strided(all.len(), max);
    picks.into_iter().map(|i| all[i]).collect()
}

/// The pages of a tree, by level kind, found by walking from the root
/// through the pool and the node codec.
pub struct Shape {
    pub leaves: Vec<PageId>,
    pub inners: Vec<PageId>,
    pub leaf_entries: usize,
    pub inner_children: usize,
}

pub fn walk<S: PageStore>(tree: &GaussTree<S>) -> Result<Shape, String> {
    let mut shape = Shape {
        leaves: Vec::new(),
        inners: Vec::new(),
        leaf_entries: 0,
        inner_children: 0,
    };
    let mut stack = vec![tree.root_page()];
    while let Some(page) = stack.pop() {
        match decode(tree, page)?.1 {
            Node::Leaf(es) => {
                shape.leaves.push(page);
                shape.leaf_entries += es.len();
            }
            Node::Inner(es) => {
                shape.inners.push(page);
                shape.inner_children += es.len();
                stack.extend(es.iter().map(|e| e.child));
            }
        }
    }
    Ok(shape)
}

fn decode<S: PageStore>(tree: &GaussTree<S>, page: PageId) -> Result<(Arc<[u8]>, Node), String> {
    let cfg = tree.config();
    let bytes = tree.pool().page(page).map_err(|e| e.to_string())?;
    let node = Node::read_from(cfg.dims, cfg.leaf_format, &bytes).map_err(|e| e.to_string())?;
    Ok((bytes, node))
}

/// `pfv.*` and `node.*`: kernels, hull pricing and the node codec over a
/// strided sample of the tree's own nodes. Returns the shape for the ledger.
pub fn pfv_and_node<S: PageStore>(
    ctx: &mut Ctx,
    tree: &GaussTree<S>,
    qs: &QuerySet,
) -> Result<Shape, String> {
    let shape = walk(tree)?;
    let cfg = *tree.config();
    let mode = cfg.combine;
    let queries = &qs.sample(PROBE_QUERIES)[..];

    let mut leaf_pages: Vec<Arc<[u8]>> = Vec::new();
    let mut leaves: Vec<(Vec<LeafEntry>, ColumnarLeafNode)> = Vec::new();
    for page in sample(&shape.leaves, 256) {
        let (bytes, node) = decode(tree, page)?;
        if let (Node::Leaf(es), CachedNode::Leaf(col)) = (node.clone(), node.into_cached(cfg.dims))
        {
            leaf_pages.push(bytes);
            leaves.push((es, col));
        }
    }
    let mut inner_pages: Vec<Arc<[u8]>> = Vec::new();
    let mut inners: Vec<Vec<InnerEntry>> = Vec::new();
    for page in sample(&shape.inners, 64) {
        let (bytes, node) = decode(tree, page)?;
        if let Node::Inner(es) = node {
            inner_pages.push(bytes);
            inners.push(es);
        }
    }
    let entries: usize = leaves.iter().map(|(es, _)| es.len()).sum();
    let children: usize = inners.iter().map(Vec::len).sum();

    let mut out = vec![0.0f64; leaves.iter().map(|(es, _)| es.len()).max().unwrap_or(0)];
    let exact = best_ns(ctx, "pfv.log_densities", 3, entries * queries.len(), || {
        for q in queries {
            for (_, leaf) in &leaves {
                let n = leaf.columns.len();
                log_densities(mode, q, &leaf.columns, &mut out[..n]);
                black_box(&out);
            }
        }
    });
    let mut scratch = FastScratch::new();
    let fast = best_ns(
        ctx,
        "pfv.log_densities_upper",
        3,
        entries * queries.len(),
        || {
            for q in queries {
                for (_, leaf) in &leaves {
                    log_densities_upper(mode, q, &leaf.columns, &mut scratch);
                    black_box(scratch.upper());
                }
            }
        },
    );
    let scalar = best_ns(ctx, "pfv.log_joint", 3, entries * queries.len(), || {
        for q in queries {
            for (es, _) in &leaves {
                for e in es {
                    black_box(log_joint(mode, &e.pfv, q));
                }
            }
        }
    });
    let hull = best_ns(
        ctx,
        "pfv.children_log_hulls",
        3,
        children * queries.len(),
        || {
            for q in queries {
                for es in &inners {
                    black_box(children_log_hulls(es, q, mode));
                }
            }
        },
    );
    let m = &mut ctx.metrics;
    m.put("pfv.exact_ns_per_entry", exact);
    m.put("pfv.fast_ns_per_entry", fast);
    m.put("pfv.scalar_ns_per_entry", scalar);
    // A one-leaf tree has no inner node to price.
    m.put(
        "pfv.hull_ns_per_child",
        if children == 0 { 0.0 } else { hull },
    );

    let decode_pages = |ctx: &mut Ctx, name: &'static str, pages: &[Arc<[u8]>]| {
        if pages.is_empty() {
            return 0.0;
        }
        best_ns(ctx, name, 3, pages.len(), || {
            for bytes in pages {
                let node = Node::read_from(cfg.dims, cfg.leaf_format, bytes);
                black_box(node.map(|n| n.into_cached(cfg.dims)).ok());
            }
        })
    };
    let decode_leaf = decode_pages(ctx, "node.decode_leaf", &leaf_pages);
    let decode_inner = decode_pages(ctx, "node.decode_inner", &inner_pages);
    let m = &mut ctx.metrics;
    m.put("node.decode_leaf_ns", decode_leaf);
    m.put("node.decode_inner_ns", decode_inner);
    m.put(
        "node.leaf_entries_avg",
        shape.leaf_entries as f64 / shape.leaves.len() as f64,
    );
    m.put(
        "node.inner_fanout_avg",
        if shape.inners.is_empty() {
            0.0
        } else {
            shape.inner_children as f64 / shape.inners.len() as f64
        },
    );
    m.put("node.height", f64::from(tree.height()));
    m.put("node.pages_total", tree.pool().num_pages() as f64);

    // `storage.side_cache_get_ns`: the side cache on its own, holding the
    // sampled nodes in decoded form.
    let cache: SideCache<CachedNode> = SideCache::new(leaves.len() + inners.len() + 16);
    let ids: Vec<PageId> = sample(&shape.leaves, 256);
    for (id, (_, col)) in ids.iter().zip(&leaves) {
        cache.insert(*id, Arc::new(CachedNode::Leaf(col.clone())));
    }
    let get = best_ns(ctx, "storage.side_cache_get", 5, ids.len() * 16, || {
        for _ in 0..16 {
            for id in &ids {
                black_box(cache.get(*id));
            }
        }
    });
    ctx.metrics.put("storage.side_cache_get_ns", get);
    Ok(shape)
}

/// `storage.pool_*_ns` and `storage.store_read_ns`. Leaves the tree's pool
/// cold, so it runs after everything that wants it warm.
pub fn storage_costs<S: PageStore>(
    ctx: &mut Ctx,
    tree: &GaussTree<S>,
    shape: &Shape,
    store_path: Option<&Path>,
) -> Result<(), String> {
    let pool = tree.pool();
    // A quarter of the frames: pages hash to shards, and a shard that
    // overflowed would turn "hits" into misses.
    let resident = (pool.capacity() / 4).clamp(4, 1024);
    let ids = sample(&shape.leaves, resident);
    let touch = |ids: &[PageId]| {
        for id in ids {
            black_box(pool.page(*id).ok());
        }
    };
    touch(&ids);
    let hit = best_ns(ctx, "storage.pool_hit", 5, ids.len() * 8, || {
        for _ in 0..8 {
            touch(&ids);
        }
    });
    let mut miss = f64::INFINITY;
    for _ in 0..5 {
        pool.clear_cache();
        miss = miss.min(best_ns(ctx, "storage.pool_miss", 1, ids.len(), || {
            touch(&ids)
        }));
    }
    ctx.metrics.put("storage.pool_hit_ns", hit);
    ctx.metrics.put("storage.pool_miss_ns", miss);

    let mut buf = vec![0u8; DEFAULT_PAGE_SIZE];
    let mut read_all = |ctx: &mut Ctx, store: &mut dyn FnMut(PageId, &mut [u8])| {
        best_ns(ctx, "storage.store_read", 5, ids.len(), || {
            for id in &ids {
                store(*id, &mut buf);
            }
        })
    };
    let read_ns = match store_path {
        // A second handle on the workload's own file.
        Some(path) => {
            let mut store = FileStore::open(path, DEFAULT_PAGE_SIZE).map_err(|e| e.to_string())?;
            read_all(ctx, &mut |id, buf| {
                black_box(store.read_page(id, buf).ok());
            })
        }
        // The pool owns the workload's `MemStore`; read a copy of the pages.
        None => {
            let mut store = MemStore::new(DEFAULT_PAGE_SIZE);
            store
                .allocate_many(pool.num_pages())
                .map_err(|e| e.to_string())?;
            for id in &ids {
                let bytes = pool.page(*id).map_err(|e| e.to_string())?;
                store.write_page(*id, &bytes).map_err(|e| e.to_string())?;
            }
            read_all(ctx, &mut |id, buf| {
                black_box(store.read_page(id, buf).ok());
            })
        }
    };
    ctx.metrics.put("storage.store_read_ns", read_ns);
    Ok(())
}

/// `storage.*` counters: what the pool counted over the serial passes and
/// over the set-up.
pub fn storage_counts(ctx: &mut Ctx, counts: &PassCounts, qs: &QuerySet, writes: [u64; 3]) {
    let queries = (qs.mliq.len() + qs.tiq.len()) as f64;
    let logical = (counts.mliq.logical_reads + counts.tiq.logical_reads) as f64;
    let physical = (counts.mliq.physical_reads + counts.tiq.physical_reads) as f64;
    let evictions = (counts.mliq.evictions + counts.tiq.evictions) as f64;
    let m = &mut ctx.metrics;
    m.put("storage.phys_reads_per_query", physical / queries);
    m.put("storage.hit_ratio", 1.0 - physical / logical);
    m.put("storage.evictions_per_query", evictions / queries);
    m.put("storage.write_calls", writes[0] as f64);
    m.put("storage.pages_written", writes[1] as f64);
    m.put("storage.syncs", writes[2] as f64);
}

/// `bulk.*`: the loader on one and on two threads, into fresh `MemStore`s.
pub fn bulk(ctx: &mut Ctx, items: &[(u64, Pfv)], spilled: u64) {
    let dims = items[0].1.dims();
    let mut rates = [0.0f64; 2];
    for (slot, threads) in [1usize, ctx.threads].into_iter().enumerate() {
        let span = ctx.tracer.enter("bulk.bulk_load_with", 0, threads as i32);
        let opts = BulkLoadOptions::default().with_threads(threads);
        let built = build_warm(items.to_vec(), dims, &items[0].1, &opts);
        ctx.tracer.exit(span);
        if let Some(b) = ctx.checked(built, "bulk load") {
            rates[slot] = items.len() as f64 / b.load_s;
        }
    }
    let m = &mut ctx.metrics;
    m.put("bulk.objs_per_s_t1", rates[0]);
    m.put("bulk.objs_per_s_t2", rates[1]);
    m.put("bulk.speedup_t2", rates[1] / rates[0]);
    m.put("bulk.spilled_entries", spilled as f64);
}

/// `query.*`: page counts per query kind, time per page, and the engine's
/// other entry points on a prefix of the queries.
pub fn query<S: PageStore + Send, V: ReadView<S> + Sync>(
    ctx: &mut Ctx,
    view: &V,
    qs: &QuerySet,
    rounds: &Rounds,
) {
    let counts = &rounds.counts;
    let mliq_pages = counts.mliq.logical_reads as f64 / qs.mliq.len() as f64;
    let tiq_pages = counts.tiq.logical_reads as f64 / qs.tiq.len() as f64;
    let m = &mut ctx.metrics;
    m.put("query.mliq_pages_per_query", mliq_pages);
    m.put("query.tiq_pages_per_query", tiq_pages);
    m.put(
        "query.mliq_us_per_page",
        mean(rounds.mliq_us.best()) / mliq_pages,
    );
    m.put(
        "query.tiq_us_per_page",
        mean(rounds.tiq_us.best()) / tiq_pages,
    );

    let variants = &qs.sample(VARIANT_QUERIES)[..];
    let mut refined = BestOf::new(variants.len());
    let mut anytime = BestOf::new(variants.len());
    let mut cursor = BestOf::new(variants.len());
    let mut tiq_results = 0usize;
    for pass in 0..2u32 {
        let mut samples = [Vec::new(), Vec::new(), Vec::new()];
        for (i, q) in variants.iter().enumerate() {
            let span = ctx.tracer.enter("query.k_mliq_refined", pass, i as i32);
            let t = Instant::now();
            let r = view.k_mliq_refined(q, 3, ACCURACY);
            samples[0].push(t.elapsed().as_secs_f64() * 1e6);
            ctx.tracer.exit(span);
            ctx.checked(r, "k_mliq_refined");

            let span = ctx.tracer.enter("query.tiq_anytime", pass, i as i32);
            let t = Instant::now();
            let r = view.tiq_anytime(q, THETA);
            samples[1].push(t.elapsed().as_secs_f64() * 1e6);
            ctx.tracer.exit(span);
            ctx.checked(r, "tiq_anytime");

            let span = ctx.tracer.enter("query.ranking_cursor", pass, i as i32);
            let t = Instant::now();
            let r = view.ranking_cursor(q).and_then(|mut c| {
                let mut left = 10;
                c.take_while(|_| {
                    left -= 1;
                    left > 0
                })
            });
            samples[2].push(t.elapsed().as_secs_f64() * 1e6);
            ctx.tracer.exit(span);
            ctx.checked(r, "ranking_cursor");
        }
        refined.round(&samples[0]);
        anytime.round(&samples[1]);
        cursor.round(&samples[2]);
    }
    for &i in &qs.tiq {
        let r = view.tiq(&qs.queries[i], THETA, ACCURACY);
        tiq_results += ctx.checked(r, "tiq").map_or(0, |r| r.len());
    }
    let m = &mut ctx.metrics;
    m.put(
        "query.tiq_results_avg",
        tiq_results as f64 / qs.tiq.len() as f64,
    );
    m.put("query.refined_p50_us", refined.percentile(0.5));
    m.put("query.tiq_anytime_p50_us", anytime.percentile(0.5));
    m.put("query.cursor10_p50_us", cursor.percentile(0.5));
}

/// `executor.*`: two one-thread passes over the batch chunks, then three
/// two-thread passes whose very first call, coming after serial work, shows
/// the vCPU wake-up.
pub fn executor<S: PageStore + Send, V: ReadView<S> + Sync>(
    ctx: &mut Ctx,
    view: &V,
    qs: &QuerySet,
    before: &dyn Fn(),
) {
    let chunks = batch_chunks(qs).count();
    let (mut one, mut two) = (BestOf::new(chunks), BestOf::new(chunks));
    for _ in 0..2 {
        batch_pass(ctx, view, qs, 1, &mut one, before);
    }
    batch_pass(ctx, view, qs, ctx.threads, &mut two, before);
    let first_chunk = batch_chunks(qs).next().map_or(0, <[Pfv]>::len);
    let first_call_qps = first_chunk as f64 * 1e6 / two.best()[0];
    for _ in 0..2 {
        batch_pass(ctx, view, qs, ctx.threads, &mut two, before);
    }
    let (t1, t2) = (batch_qps(qs, &one), batch_qps(qs, &two));
    let m = &mut ctx.metrics;
    m.put("executor.qps_t1", t1);
    m.put("executor.qps_t2", t2);
    m.put("executor.speedup_t2", t2 / t1);
    m.put("executor.first_call_qps", first_call_qps);
}

/// One structure's side of the Figure-7 comparison.
struct Fig7Side {
    /// Logical page accesses of the first (cold-started) pass.
    pages: f64,
    /// Physical reads of that pass: what would hit the device.
    faults: u64,
    /// Best wall time of three passes over the queries, in seconds.
    cpu_s: f64,
}

/// Runs `run` over the queries three times; the caller has just cold-started
/// the pools whose counters `stats` names.
fn fig7_side(
    ctx: &mut Ctx,
    name: &'static str,
    queries: &[Pfv],
    stats: &[&AccessStats],
    mut run: impl FnMut(&Pfv) -> Result<(), String>,
) -> Result<Fig7Side, String> {
    let counters = || {
        stats.iter().map(|s| s.snapshot()).fold((0, 0), |acc, s| {
            (acc.0 + s.logical_reads, acc.1 + s.physical_reads)
        })
    };
    let mut side = Fig7Side {
        pages: 0.0,
        faults: 0,
        cpu_s: f64::INFINITY,
    };
    for pass in 0..3u32 {
        let before = counters();
        let span = ctx.tracer.enter(name, pass, -1);
        let t = Instant::now();
        for q in queries {
            run(q)?;
        }
        side.cpu_s = side.cpu_s.min(t.elapsed().as_secs_f64());
        ctx.tracer.exit(span);
        if pass == 0 {
            let after = counters();
            side.pages = (after.0 - before.0) as f64;
            side.faults = after.1 - before.1;
        }
    }
    Ok(side)
}

/// `fig7.*`: the paper's comparison — sequential scan, X-tree over 95 %
/// quantile boxes, Gauss-tree — on 1-MLIQ over a query subset, each
/// cold-started once. Kept as reference, not scored.
pub fn fig7<S: PageStore>(
    ctx: &mut Ctx,
    tree: &GaussTree<S>,
    dataset: &Dataset,
    qs: &QuerySet,
) -> Result<(), String> {
    let mode = tree.config().combine;
    let queries = &qs.sample(FIG7_QUERIES)[..];
    let span = ctx.tracer.enter("fig7.build_baselines", 0, -1);
    let mut file = build_pfv_file(dataset);
    let mut xtree = build_xtree(dataset, &mut file);
    ctx.tracer.exit(span);
    let (file_stats, xtree_stats) = (file.stats().clone(), xtree.stats().clone());

    file.pool_mut().clear_cache_and_stats();
    let scan = fig7_side(ctx, "fig7.scan", queries, &[&file_stats], |q| {
        file.k_mliq(q, 1, mode).map(drop).map_err(|e| e.to_string())
    })?;
    file.pool_mut().clear_cache_and_stats();
    xtree.pool_mut().clear_cache_and_stats();
    let xt = fig7_side(
        ctx,
        "fig7.xtree",
        queries,
        &[&xtree_stats, &file_stats],
        |q| {
            xtree
                .k_mliq(&mut file, q, 1, mode)
                .map(drop)
                .map_err(|e| e.to_string())
        },
    )?;
    tree.cold_start();
    let gt = fig7_side(ctx, "fig7.gauss_tree", queries, &[tree.stats()], |q| {
        tree.k_mliq(q, 1).map(drop).map_err(|e| e.to_string())
    })?;

    let n = queries.len() as f64;
    let disk = DiskModel::nvme(DEFAULT_PAGE_SIZE);
    let scan_overall = scan.cpu_s + disk.sequential_io_s(scan.faults);
    let gt_overall = gt.cpu_s + disk.random_io_s(gt.faults);
    let m = &mut ctx.metrics;
    m.put("fig7.scan_pages_per_query", scan.pages / n);
    m.put("fig7.xtree_pages_per_query", xt.pages / n);
    m.put("fig7.pages_vs_scan_pct", 100.0 * gt.pages / scan.pages);
    m.put("fig7.pages_vs_xtree_pct", 100.0 * gt.pages / xt.pages);
    m.put("fig7.cpu_vs_scan_pct", 100.0 * gt.cpu_s / scan.cpu_s);
    m.put("fig7.cpu_vs_xtree_pct", 100.0 * gt.cpu_s / xt.cpu_s);
    m.put(
        "fig7.overall_vs_scan_pct_nvme",
        100.0 * gt_overall / scan_overall,
    );
    Ok(())
}

/// `ledger.*`: unit costs times page and entry counts, over the mean 1-MLIQ
/// wall time. An estimate: which pages a query visits is not visible from
/// outside, so visited pages are split leaf/inner in the tree's own
/// proportion and every visited leaf entry is priced at the exact kernel.
pub fn ledger(ctx: &mut Ctx, shape: &Shape, rounds: &Rounds, qs: &QuerySet) {
    let counts = &rounds.counts;
    let get = |ctx: &Ctx, name: &str| ctx.metrics.get(name).unwrap_or(0.0);
    let queries = qs.mliq.len() as f64;
    let pages = counts.mliq.logical_reads as f64 / queries;
    let misses = counts.mliq.physical_reads as f64 / queries;
    let leaf_share = shape.leaves.len() as f64 / (shape.leaves.len() + shape.inners.len()) as f64;
    let (leaf_pages, inner_pages) = (pages * leaf_share, pages * (1.0 - leaf_share));
    let wall_ns = mean(rounds.mliq_us.best()) * 1e3;

    let kernel =
        leaf_pages * get(ctx, "node.leaf_entries_avg") * get(ctx, "pfv.exact_ns_per_entry");
    let hull = inner_pages * get(ctx, "node.inner_fanout_avg") * get(ctx, "pfv.hull_ns_per_child");
    let pool = (pages - misses) * get(ctx, "storage.pool_hit_ns")
        + misses * get(ctx, "storage.pool_miss_ns")
        + pages * get(ctx, "storage.side_cache_get_ns");
    let decode = misses
        * (leaf_share * get(ctx, "node.decode_leaf_ns")
            + (1.0 - leaf_share) * get(ctx, "node.decode_inner_ns"));
    let m = &mut ctx.metrics;
    m.put("ledger.kernel_share", kernel / wall_ns);
    m.put("ledger.hull_share", hull / wall_ns);
    m.put("ledger.pool_share", pool / wall_ns);
    m.put("ledger.decode_share", decode / wall_ns);
    m.put(
        "ledger.unexplained_share",
        1.0 - (kernel + hull + pool + decode) / wall_ns,
    );
}

/// `harness.trace_overhead_pct`; the run itself reports the rest of `harness.*`.
pub fn harness(ctx: &mut Ctx, rounds: &Rounds) {
    let traced = rounds.mliq_traced_us.percentile(0.5);
    let bare: Vec<f64> = rounds
        .traced_pos
        .iter()
        .map(|&k| rounds.mliq_us.best()[k])
        .collect();
    let bare = percentile(&bare, 0.5);
    ctx.metrics
        .put("harness.trace_overhead_pct", 100.0 * (traced - bare) / bare);
}

/// Every per-layer metric of a tree workload.
pub fn tree_layers<S: PageStore + Send>(
    ctx: &mut Ctx,
    built: &Built<S>,
    dataset: &Dataset,
    items: &[(u64, Pfv)],
    qs: &QuerySet,
    rounds: &Rounds,
    store_path: Option<&Path>,
) -> Result<(), String> {
    let tree = &built.tree;
    let probes = ctx.tracer.enter("layer_probes", 0, -1);
    let shape = pfv_and_node(ctx, tree, qs)?;
    let w = &built.writes;
    storage_counts(
        ctx,
        &rounds.counts,
        qs,
        [w.write_calls, w.physical_writes, w.syncs],
    );
    query(ctx, tree, qs, rounds);
    executor(ctx, tree, qs, &|| {
        if store_path.is_some() {
            tree.cold_start();
        }
    });
    bulk(ctx, items, built.report.spilled_entries);
    if store_path.is_some() {
        // Figure 7 puts all three structures under the same 50 MB cache;
        // the cold workload's own tree sits on a few dozen frames.
        let dims = items[0].1.dims();
        let warm = build_warm(
            items.to_vec(),
            dims,
            &qs.queries[0],
            &BulkLoadOptions::default(),
        )
        .map_err(|e| format!("fig7 tree: {e}"))?;
        fig7(ctx, &warm.tree, dataset, qs)?;
    } else {
        fig7(ctx, tree, dataset, qs)?;
    }
    storage_costs(ctx, tree, &shape, store_path)?;
    ledger(ctx, &shape, rounds, qs);
    harness(ctx, rounds);
    ctx.tracer.exit(probes);
    Ok(())
}
