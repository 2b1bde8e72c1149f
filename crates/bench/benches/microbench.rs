//! Criterion microbenchmarks for the core operations on the query path:
//! hull-bound evaluation (Lemma 2/3, and the inner screen's brackets),
//! Lemma-1 combination, node splits and the split objective's per-node
//! cost, incremental insert, page decode (row form then transpose against
//! straight to columns), and end-to-end k-MLIQ / TIQ on a mid-sized tree.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion};
use gauss_baselines::PfvFile;
use gauss_storage::{AccessStats, MemStore, SharedBufferPool, DEFAULT_PAGE_SIZE};
use gauss_tree::node::Node;
use gauss_tree::{CachedNode, GaussTree, LeafFormat, ReadView, SplitStrategy, TreeConfig};
use gauss_workloads::{generate_queries, uniform_dataset, SigmaSpec};
use pfv::hull::{DimBounds, ParamRect};
use pfv::{combine, ColumnarRects, CombineMode, Pfv};
use std::hint::black_box;

fn bench_hull(c: &mut Criterion) {
    let b = DimBounds::new(3.0, 4.0, 0.6, 0.9);
    c.bench_function("hull/log_upper", |bench| {
        bench.iter(|| {
            let mut acc = 0.0;
            for i in 0..100 {
                acc += b.log_upper(black_box(2.0 + i as f64 * 0.04));
            }
            acc
        })
    });
    c.bench_function("hull/log_lower", |bench| {
        bench.iter(|| {
            let mut acc = 0.0;
            for i in 0..100 {
                acc += b.log_lower(black_box(2.0 + i as f64 * 0.04));
            }
            acc
        })
    });
    c.bench_function("hull/integral_closed_form", |bench| {
        bench.iter(|| black_box(&b).hull_integral())
    });

    let rect = ParamRect::from_dims(
        (0..27)
            .map(|i| DimBounds::new(i as f64, i as f64 + 1.0, 0.1, 0.5))
            .collect(),
    );
    let q = Pfv::new(
        (0..27).map(|i| i as f64 + 0.3).collect::<Vec<_>>(),
        vec![0.2; 27],
    )
    .unwrap();
    c.bench_function("hull/27d_query_upper", |bench| {
        bench.iter(|| rect.log_upper_for_query(black_box(&q), CombineMode::Convolution))
    });

    // The children of one d27 inner node (capacity 18 on 8 KiB pages) as
    // the read path holds them: the screen's bracket for all eighteen in
    // one call, against eighteen times `hull/27d_query_upper` for the exact
    // bounds.
    let children: Vec<ParamRect> = (0..18)
        .map(|c| {
            let shift = f64::from(c) * 0.25;
            ParamRect::from_dims(
                (0..27)
                    .map(|i| DimBounds::new(i as f64 + shift, i as f64 + shift + 1.0, 0.1, 0.5))
                    .collect(),
            )
        })
        .collect();
    let columns = ColumnarRects::from_rects(27, children.iter());
    let mut brackets = Vec::new();
    c.bench_function("hull/27d_screen_children", |bench| {
        bench.iter(|| {
            columns.screen_upper_for_query(black_box(&q), CombineMode::Convolution, &mut brackets);
            brackets.len()
        })
    });
}

fn bench_combine(c: &mut Criterion) {
    let v = Pfv::new(vec![0.5; 27], vec![0.1; 27]).unwrap();
    let q = Pfv::new(vec![0.52; 27], vec![0.15; 27]).unwrap();
    c.bench_function("combine/log_joint_27d", |bench| {
        bench.iter(|| combine::log_joint(CombineMode::Convolution, black_box(&v), black_box(&q)))
    });
}

fn bench_split(c: &mut Criterion) {
    use gauss_tree::split::{split_items, SplitCost};
    let entries: Vec<gauss_tree::node::LeafEntry> = (0..40)
        .map(|i| gauss_tree::node::LeafEntry {
            id: i,
            pfv: Pfv::new(
                vec![
                    (i as f64 * 0.37).sin() * 10.0,
                    (i as f64 * 0.7).cos() * 10.0,
                ],
                vec![0.05 + (i % 7) as f64 * 0.1, 0.05 + (i % 3) as f64 * 0.2],
            )
            .unwrap(),
        })
        .collect();
    let mut group = c.benchmark_group("split");
    for strategy in [
        SplitStrategy::HullIntegral,
        SplitStrategy::WidestMu,
        SplitStrategy::MinVolume,
    ] {
        // Priced at the entries' own geometric-mean σ, as a node split is.
        let cost = SplitCost::from_items(strategy, CombineMode::Convolution, &entries);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{strategy:?}")),
            &cost,
            |bench, cost| {
                bench.iter_batched(
                    || entries.clone(),
                    |es| split_items(cost, es),
                    BatchSize::SmallInput,
                )
            },
        );
    }
    // One node's hull-integral cost at d27, at a query spread: what every
    // candidate side of a d27 split pays.
    let rect = ParamRect::from_dims(
        (0..27)
            .map(|i| DimBounds::new(i as f64, i as f64 + 1.0, 0.01, 0.5))
            .collect(),
    );
    let folded = SplitCost::at_spread(
        SplitStrategy::HullIntegral,
        CombineMode::Convolution,
        &[0.1; 27],
    );
    group.bench_function("node_cost_d27", |bench| {
        bench.iter(|| folded.node(black_box(&rect)))
    });
    group.finish();
}

fn bench_insert(c: &mut Criterion) {
    c.bench_function("tree/insert_1000_x_5d", |bench| {
        bench.iter_batched(
            || {
                let pool = SharedBufferPool::new(
                    MemStore::new(DEFAULT_PAGE_SIZE),
                    4096,
                    AccessStats::new_shared(),
                );
                GaussTree::create(pool, TreeConfig::new(5)).unwrap()
            },
            |mut tree| {
                for i in 0..1000u64 {
                    let means: Vec<f64> = (0..5)
                        .map(|d| ((i + d) as f64 * 0.61).sin() * 10.0)
                        .collect();
                    let sigmas: Vec<f64> =
                        (0..5).map(|d| 0.05 + ((i + d) % 5) as f64 * 0.1).collect();
                    tree.insert(i, &Pfv::new(means, sigmas).unwrap()).unwrap();
                }
                tree.len()
            },
            BatchSize::LargeInput,
        )
    });
}

/// ns per leaf page of the two ways to a query-ready leaf: the reference
/// `Node::read_from(..).into_cached(..)` and the read path's
/// `CachedNode::read_from(..)`, over the leaves of a bulk-loaded tree; and
/// the read path's decode of that tree's inner pages at d27.
fn bench_decode(c: &mut Criterion) {
    for (dims, name) in [(10usize, "d10"), (27, "d27")] {
        let dataset = uniform_dataset(12_000, dims, SigmaSpec::uniform(0.02, 0.25), 7);
        for format in [LeafFormat::Exact, LeafFormat::Quantised] {
            let pool = SharedBufferPool::new(
                MemStore::new(DEFAULT_PAGE_SIZE),
                1 << 14,
                AccessStats::new_shared(),
            );
            let config = TreeConfig::new(dims).with_leaf_format(format);
            let tree = GaussTree::bulk_load(pool, config, dataset.items()).unwrap();
            let (mut leaves, mut inners) = (Vec::new(), Vec::new());
            let mut stack = vec![tree.root_page()];
            while let Some(page) = stack.pop() {
                let bytes = tree.pool().page(page).unwrap();
                match Node::read_from(dims, format, &bytes).unwrap() {
                    Node::Leaf(_) => leaves.push(bytes),
                    Node::Inner(es) => {
                        stack.extend(es.iter().map(|e| e.child));
                        inners.push(bytes);
                    }
                }
            }
            leaves.truncate(256);
            if dims == 27 && format == LeafFormat::Exact {
                let mut at = 0usize;
                c.bench_function("node/direct_inner_d27", |bench| {
                    bench.iter(|| {
                        at = (at + 1) % inners.len();
                        CachedNode::read_from(dims, format, black_box(&inners[at])).unwrap()
                    })
                });
            }
            let mut at = 0usize;
            let mut next = || {
                at = (at + 1) % leaves.len();
                &leaves[at]
            };
            c.bench_function(&format!("node/two_step_{name}_{format:?}"), |bench| {
                bench.iter(|| {
                    Node::read_from(dims, format, black_box(next()))
                        .unwrap()
                        .into_cached(dims)
                })
            });
            c.bench_function(&format!("node/direct_{name}_{format:?}"), |bench| {
                bench.iter(|| CachedNode::read_from(dims, format, black_box(next())).unwrap())
            });
        }
    }
}

fn bench_queries(c: &mut Criterion) {
    let dataset = uniform_dataset(10_000, 10, SigmaSpec::uniform(0.02, 0.25), 7);
    let queries = generate_queries(&dataset, 16, SigmaSpec::uniform(0.02, 0.25), 9);
    let pool = SharedBufferPool::new(
        MemStore::new(DEFAULT_PAGE_SIZE),
        1 << 14,
        AccessStats::new_shared(),
    );
    let tree = GaussTree::bulk_load(pool, TreeConfig::new(10), dataset.items()).unwrap();
    let pool = SharedBufferPool::new(
        MemStore::new(DEFAULT_PAGE_SIZE),
        1 << 14,
        AccessStats::new_shared(),
    );
    let mut file = PfvFile::build(pool, 10, dataset.items()).unwrap();

    let mut qi = 0usize;
    c.bench_function("query/gauss_tree_1mliq_10k", |bench| {
        bench.iter(|| {
            qi = (qi + 1) % queries.len();
            tree.k_mliq(&queries[qi].query, 1).unwrap()
        })
    });
    c.bench_function("query/gauss_tree_tiq02_10k", |bench| {
        bench.iter(|| {
            qi = (qi + 1) % queries.len();
            tree.tiq(&queries[qi].query, 0.2, 1e-3).unwrap()
        })
    });
    c.bench_function("query/seq_scan_1mliq_10k", |bench| {
        bench.iter(|| {
            qi = (qi + 1) % queries.len();
            file.k_mliq(&queries[qi].query, 1, CombineMode::Convolution)
                .unwrap()
        })
    });
}

criterion_group! {
    name = benches;
    // Trimmed sampling: the harness runs on a single core and the
    // operations are deterministic.
    config = Criterion::default()
        .sample_size(20)
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_hull, bench_combine, bench_split, bench_insert, bench_decode, bench_queries
}
criterion_main!(benches);
