//! Leaf-evaluation kernel tiers across a dimensionality sweep: ns/entry.
//!
//! For every swept dimensionality (default `2,10,27` — toy, data set 2,
//! data set 1) the bench builds fixed-seed leaves at realistic occupancy
//! and times four kernels over every (query, leaf) pair:
//!
//! * **scalar**: the pre-refactor per-entry path, `combine::log_joint`
//!   over each stored [`Pfv`] (two boxed slices per entry, σ·σ recomputed
//!   per evaluation);
//! * **batched**: [`pfv::batch::log_densities`] over the same leaves in
//!   [`ColumnarLeaf`] struct-of-arrays form with precomputed σ² columns —
//!   the exact refine tier, bit-identical to scalar;
//! * **fast**: [`pfv::batch::log_densities_upper`] — the screen tier over
//!   padded lane blocks with no threshold to abandon on, so its full
//!   price: one divide per dimension and one `ln` per entry, producing
//!   conservative upper bounds;
//! * **quantised**: the batched kernel over leaves whose parameters went
//!   through the `pfv::quant` ingest rounding (what a
//!   `LeafFormat::Quantised` tree evaluates after decode).
//!
//! Before any timing, every dimensionality is gated on bit-identity:
//! batched vs scalar on every entry, `log_density_one` vs the batched
//! sweep, the fast-tier bound never below the exact value — and all of it
//! again on *ragged* leaves whose length is not a lane multiple, so the
//! padded tail lanes are proven not to contribute. The inner-node side is
//! measured too: fused hull pricing (`ParamRect::log_bounds_for_query`)
//! versus the split upper+lower calls.
//!
//! A Figure-7-style datapoint closes the loop on the compressed tier: two
//! trees are bulk-loaded from the same pre-rounded data — one
//! `LeafFormat::Exact`, one `LeafFormat::Quantised` — k-MLIQ and TIQ
//! answers are asserted identical (same stored parameters, bit-identical
//! densities), and the physical page reads of both are reported under a
//! deliberately small buffer pool. The quantised tree's ~2x leaf fan-out
//! must show up as fewer physical reads.
//!
//! Run: `cargo run --release -p gauss_bench --bin kernel_bench`
//! Flags: `--dims D1,D2,…` (default `2,10,27`), `--entries E` (per leaf,
//! default 48 — the 8 KB-page capacity at d=10), `--leaves L` (default
//! 64), `--queries Q` (default 32), `--rounds R` (default 15, best-of),
//! `--json PATH` (write machine-readable results).

use gauss_bench::{arg_value, JsonObj};
use gauss_storage::{AccessStats, BufferPool, MemStore, DEFAULT_PAGE_SIZE};
use gauss_tree::{GaussTree, LeafFormat, ReadView, TreeConfig};
use pfv::batch::{
    log_densities, log_densities_upper, log_density_one, ColumnarLeaf, FastScratch, LANE_WIDTH,
};
use pfv::{combine, quant, CombineMode, ParamRect, Pfv};
use std::time::Instant;

/// Deterministic xorshift so the workload needs no external RNG.
struct Rng(u64);
impl Rng {
    fn next_f64(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn random_pfv(rng: &mut Rng, dims: usize) -> Pfv {
    let means: Vec<f64> = (0..dims).map(|_| rng.next_f64() * 10.0).collect();
    let sigmas: Vec<f64> = (0..dims).map(|_| 0.005 + rng.next_f64() * 0.3).collect();
    Pfv::new(means, sigmas).unwrap()
}

/// Rounds a pfv through the checked ingest quantisers — the stored
/// parameters of a `LeafFormat::Quantised` tree. The workload generator
/// stays far inside f32 range, so the helpers cannot reject.
fn quantised_pfv(v: &Pfv) -> Pfv {
    let means: Vec<f64> = v
        .means()
        .iter()
        .map(|&m| f64::from(quant::quantise_mu(m).expect("bench mean in f32 range")))
        .collect();
    let sigmas: Vec<f64> = v
        .sigmas()
        .iter()
        .map(|&s| f64::from(quant::quantise_sigma(s).expect("bench sigma in f32 range")))
        .collect();
    Pfv::new(means, sigmas).unwrap()
}

/// Best-of-`rounds` wall time of `f`, in seconds.
fn best_of(rounds: usize, mut f: impl FnMut() -> f64) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut sink = 0.0;
    for _ in 0..rounds {
        let t0 = Instant::now();
        sink += f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, sink)
}

/// ns/entry of the four leaf kernels at one dimensionality.
struct DimTimings {
    dims: usize,
    scalar_ns: f64,
    batched_ns: f64,
    fast_ns: f64,
    quantised_ns: f64,
}

/// Bit-identity and conservativeness gates for one set of leaves: the
/// batched kernel must reproduce the scalar path bit-for-bit on every
/// entry, `log_density_one` must match the batched sweep, and the fast
/// tier must never bound below the exact value (NaN allowed — it fails
/// every `<` screen, so such an entry is refined, never skipped).
fn assert_kernel_contracts(
    mode: CombineMode,
    qs: &[Pfv],
    scalar_leaves: &[Vec<Pfv>],
    columnar: &[ColumnarLeaf],
) {
    let mut fast = FastScratch::new();
    for q in qs {
        for (sl, cl) in scalar_leaves.iter().zip(columnar.iter()) {
            let mut out = vec![f64::NAN; cl.len()];
            log_densities(mode, q, cl, &mut out);
            log_densities_upper(mode, q, cl, &mut fast);
            for (e, (v, &got)) in sl.iter().zip(out.iter()).enumerate() {
                let want = combine::log_joint(mode, v, q);
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "batched kernel diverged from scalar path (d={})",
                    cl.dims()
                );
                let one = log_density_one(mode, q, cl, e);
                assert_eq!(
                    one.to_bits(),
                    want.to_bits(),
                    "refine-tier log_density_one diverged (d={})",
                    cl.dims()
                );
                let hi = fast.upper()[e];
                assert!(
                    hi.is_nan() || hi >= want,
                    "fast tier bounded below exact: {hi} < {want} (d={})",
                    cl.dims()
                );
            }
        }
    }
}

/// Gates and times the leaf kernels at one dimensionality.
fn sweep_dim(
    rng: &mut Rng,
    dims: usize,
    entries: usize,
    leaves: usize,
    queries: usize,
    rounds: usize,
    mode: CombineMode,
) -> DimTimings {
    let scalar_leaves: Vec<Vec<Pfv>> = (0..leaves)
        .map(|_| (0..entries).map(|_| random_pfv(rng, dims)).collect())
        .collect();
    let columnar: Vec<ColumnarLeaf> = scalar_leaves
        .iter()
        .map(|l| ColumnarLeaf::from_pfvs(dims, l.iter()))
        .collect();
    let quant_leaves: Vec<Vec<Pfv>> = scalar_leaves
        .iter()
        .map(|l| l.iter().map(quantised_pfv).collect())
        .collect();
    let quant_columnar: Vec<ColumnarLeaf> = quant_leaves
        .iter()
        .map(|l| ColumnarLeaf::from_pfvs(dims, l.iter()))
        .collect();
    let qs: Vec<Pfv> = (0..queries).map(|_| random_pfv(rng, dims)).collect();

    // Correctness gates before any timing, at this dimensionality.
    assert_kernel_contracts(mode, &qs, &scalar_leaves, &columnar);
    assert_kernel_contracts(mode, &qs, &quant_leaves, &quant_columnar);

    // The same gates over ragged leaves (len not a lane multiple): the
    // padded block layout must keep tail lanes from contributing — any
    // leakage into a real entry breaks bit-identity here.
    let ragged_n = (1..=entries)
        .rev()
        .find(|n| n % LANE_WIDTH != 0)
        .expect("some length below `entries` is not a lane multiple");
    let ragged_leaves: Vec<Vec<Pfv>> = scalar_leaves
        .iter()
        .map(|l| l[..ragged_n].to_vec())
        .collect();
    let ragged_columnar: Vec<ColumnarLeaf> = ragged_leaves
        .iter()
        .map(|l| ColumnarLeaf::from_pfvs(dims, l.iter()))
        .collect();
    for cl in &ragged_columnar {
        assert!(
            cl.padded_len() > cl.len(),
            "ragged leaf must actually have tail lanes"
        );
    }
    assert_kernel_contracts(mode, &qs, &ragged_leaves, &ragged_columnar);

    let evals = (queries * leaves * entries) as f64;
    let mut out = vec![0.0f64; entries];
    let mut fast = FastScratch::new();

    let (scalar_s, sink_a) = best_of(rounds, || {
        let mut acc = 0.0;
        for q in &qs {
            for leaf in &scalar_leaves {
                for v in leaf {
                    acc += combine::log_joint(mode, v, q);
                }
            }
        }
        acc
    });
    let (batched_s, sink_b) = best_of(rounds, || {
        let mut acc = 0.0;
        for q in &qs {
            for leaf in &columnar {
                log_densities(mode, q, leaf, &mut out);
                acc += out.iter().sum::<f64>();
            }
        }
        acc
    });
    let (fast_s, sink_c) = best_of(rounds, || {
        let mut acc = 0.0;
        for q in &qs {
            for leaf in &columnar {
                log_densities_upper(mode, q, leaf, &mut fast);
                acc += fast.upper().iter().sum::<f64>();
            }
        }
        acc
    });
    let (quant_s, sink_d) = best_of(rounds, || {
        let mut acc = 0.0;
        for q in &qs {
            for leaf in &quant_columnar {
                log_densities(mode, q, leaf, &mut out);
                acc += out.iter().sum::<f64>();
            }
        }
        acc
    });
    // Keep the accumulators alive so the measured loops cannot be elided.
    assert!((sink_a + sink_b + sink_c + sink_d).is_finite());

    let scalar_ns = scalar_s * 1e9 / evals;
    let batched_ns = batched_s * 1e9 / evals;
    let fast_ns = fast_s * 1e9 / evals;
    let quantised_ns = quant_s * 1e9 / evals;
    println!("  d={dims:<3} leaf densities");
    println!("    scalar   : {scalar_ns:>8.2} ns/entry");
    println!(
        "    batched  : {batched_ns:>8.2} ns/entry  ({:.2}x vs scalar)",
        scalar_ns / batched_ns
    );
    println!(
        "    fast     : {fast_ns:>8.2} ns/entry  ({:.2}x vs batched, screen tier)",
        batched_ns / fast_ns
    );
    println!("    quantised: {quantised_ns:>8.2} ns/entry  (batched kernel, rounded params)");
    DimTimings {
        dims,
        scalar_ns,
        batched_ns,
        fast_ns,
        quantised_ns,
    }
}

/// Physical page reads of the Figure-7 datapoint: exact vs quantised tree.
struct Fig7Reads {
    exact: u64,
    quantised: u64,
}

/// Pages the small datapoint pool may cache — far below either tree's
/// page count, so per-query leaf fetches hit the (simulated) disk and the
/// quantised tree's doubled fan-out shows up as fewer physical reads.
const FIG7_CACHE_PAGES: usize = 32;

/// Builds one exact and one quantised tree from identical **pre-rounded**
/// data, asserts k-MLIQ and TIQ answer identity (both trees store the
/// same parameters, so the exact refine tier returns bit-identical
/// densities), and measures the physical reads of the same workload on
/// each under a small cache.
fn fig7_datapoint(rng: &mut Rng) -> Fig7Reads {
    let dims = 10;
    let n = 4000u64;
    let n_queries = 32;
    let k = 3;
    let p_theta = 0.2;
    // Pre-rounding makes the comparison answer-identical by construction:
    // the quantised encode/decode is a lossless fixpoint on f32-exact
    // parameters, so both trees index the very same stored values and
    // differ only in leaf bytes.
    let items: Vec<(u64, Pfv)> = (0..n)
        .map(|id| (id, quantised_pfv(&random_pfv(rng, dims))))
        .collect();
    let qs: Vec<Pfv> = (0..n_queries).map(|_| random_pfv(rng, dims)).collect();

    let build = |format: LeafFormat| {
        let pool = BufferPool::new(
            MemStore::new(DEFAULT_PAGE_SIZE),
            FIG7_CACHE_PAGES,
            AccessStats::new_shared(),
        );
        let config = TreeConfig::new(dims).with_leaf_format(format);
        // lint: allow(no-panic) -- bench fixture setup; a broken build must abort the benchmark loudly
        GaussTree::bulk_load(pool, config, items.iter().cloned()).expect("fig7 tree build")
    };
    let exact = build(LeafFormat::Exact);
    let quantised = build(LeafFormat::Quantised);

    for q in &qs {
        let a = exact.k_mliq(q, k).expect("exact k-MLIQ");
        let b = quantised.k_mliq(q, k).expect("quantised k-MLIQ");
        assert_eq!(a.len(), b.len(), "k-MLIQ cardinality diverged");
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x.id, y.id, "k-MLIQ ids diverged between leaf formats");
            assert_eq!(
                x.log_density.to_bits(),
                y.log_density.to_bits(),
                "k-MLIQ densities diverged between leaf formats"
            );
        }
        let mut ta: Vec<u64> = exact
            .tiq_anytime(q, p_theta)
            .expect("exact TIQ")
            .iter()
            .map(|r| r.id)
            .collect();
        let mut tb: Vec<u64> = quantised
            .tiq_anytime(q, p_theta)
            .expect("quantised TIQ")
            .iter()
            .map(|r| r.id)
            .collect();
        ta.sort_unstable();
        tb.sort_unstable();
        assert_eq!(ta, tb, "TIQ id sets diverged between leaf formats");
    }

    let measure = |tree: &GaussTree<MemStore>| {
        tree.cold_start();
        let before = tree.stats().snapshot();
        for q in &qs {
            let _ = tree.k_mliq(q, k).expect("k-MLIQ");
            let _ = tree.tiq_anytime(q, p_theta).expect("TIQ");
        }
        tree.stats().snapshot().since(&before).physical_reads
    };
    let reads = Fig7Reads {
        exact: measure(&exact),
        quantised: measure(&quantised),
    };
    println!(
        "  fig7 datapoint — {n} objects, d={dims}, {n_queries} queries (k-MLIQ k={k} + TIQ Pθ={p_theta}), {FIG7_CACHE_PAGES}-page cache:"
    );
    println!("    exact leaves    : {:>6} physical reads", reads.exact);
    println!(
        "    quantised leaves: {:>6} physical reads  ({:.2}x fewer, identical answers)",
        reads.quantised,
        reads.exact as f64 / reads.quantised.max(1) as f64
    );
    reads
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().collect();
    let dims_list: Vec<usize> = arg_value(&args, "--dims")
        .unwrap_or_else(|| "2,10,27".to_string())
        .split(',')
        .map(|v| v.trim().parse().expect("--dims"))
        .collect();
    assert!(!dims_list.is_empty(), "--dims must name at least one value");
    let entries: usize = arg_value(&args, "--entries")
        .map(|v| v.parse().expect("--entries"))
        .unwrap_or(48);
    let leaves: usize = arg_value(&args, "--leaves")
        .map(|v| v.parse().expect("--leaves"))
        .unwrap_or(64);
    let queries: usize = arg_value(&args, "--queries")
        .map(|v| v.parse().expect("--queries"))
        .unwrap_or(32);
    let rounds: usize = arg_value(&args, "--rounds")
        .map(|v| v.parse().expect("--rounds"))
        .unwrap_or(15);
    let json_path = arg_value(&args, "--json");
    let mode = CombineMode::Convolution;

    let mut rng = Rng(0x1CDE_2006);
    println!(
        "kernel_bench — {leaves} leaves x {entries} entries, dims {dims_list:?}, {queries} queries, best of {rounds}"
    );

    let timings: Vec<DimTimings> = dims_list
        .iter()
        .map(|&dims| sweep_dim(&mut rng, dims, entries, leaves, queries, rounds, mode))
        .collect();
    // The top-level JSON keys (and the hull section) report the paper's
    // data-set-2 dimensionality when swept, else the first dimensionality.
    let lead = timings.iter().find(|t| t.dims == 10).unwrap_or(&timings[0]);

    // Inner-node hull pricing: split upper+lower vs the fused sweep.
    let hull_dims = lead.dims;
    let children_per_node = 32usize;
    let rects: Vec<Vec<ParamRect>> = (0..leaves)
        .map(|_| {
            (0..children_per_node)
                .map(|_| {
                    let a = random_pfv(&mut rng, hull_dims);
                    let b = random_pfv(&mut rng, hull_dims);
                    let mut r = ParamRect::from_pfv(&a);
                    r.extend_pfv(&b);
                    r
                })
                .collect()
        })
        .collect();
    let qs: Vec<Pfv> = (0..queries)
        .map(|_| random_pfv(&mut rng, hull_dims))
        .collect();
    for q in &qs {
        for node in &rects {
            for r in node {
                let (up, lo) = r.log_bounds_for_query(q, mode);
                assert_eq!(up.to_bits(), r.log_upper_for_query(q, mode).to_bits());
                assert_eq!(lo.to_bits(), r.log_lower_for_query(q, mode).to_bits());
            }
        }
    }
    let hull_evals = (queries * leaves * children_per_node) as f64;
    let (split_s, sink_a) = best_of(rounds, || {
        let mut acc = 0.0;
        for q in &qs {
            for node in &rects {
                for r in node {
                    acc += r.log_upper_for_query(q, mode) + r.log_lower_for_query(q, mode);
                }
            }
        }
        acc
    });
    let (fused_s, sink_b) = best_of(rounds, || {
        let mut acc = 0.0;
        for q in &qs {
            for node in &rects {
                for r in node {
                    let (up, lo) = r.log_bounds_for_query(q, mode);
                    acc += up + lo;
                }
            }
        }
        acc
    });
    assert!((sink_a + sink_b).is_finite());
    let split_ns = split_s * 1e9 / hull_evals;
    let fused_ns = fused_s * 1e9 / hull_evals;
    println!("  hull bounds (d={hull_dims})");
    println!("    split    : {split_ns:>8.2} ns/child");
    println!(
        "    fused    : {fused_ns:>8.2} ns/child  ({:.2}x)",
        split_ns / fused_ns
    );

    let reads = fig7_datapoint(&mut rng);

    let exact_bytes = TreeConfig::new(lead.dims).leaf_entry_bytes();
    let quant_bytes = TreeConfig::new(lead.dims)
        .with_leaf_format(LeafFormat::Quantised)
        .leaf_entry_bytes();
    println!(
        "  leaf bytes/entry (d={}): exact {exact_bytes}, quantised {quant_bytes}",
        lead.dims
    );
    println!();
    println!("(bit-identity verified per dimensionality — batched, refine-one and");
    println!(" ragged padded-tail leaves — plus fast-tier conservativeness and the");
    println!(" exact-vs-quantised tree answer identity on the fig7 workload)");

    if let Some(path) = json_path {
        let mut kb = JsonObj::new()
            .int("dims", lead.dims as u64)
            .int("entries_per_leaf", entries as u64)
            .int("leaves", leaves as u64)
            .int("queries", queries as u64)
            .num("scalar_ns_per_entry", lead.scalar_ns)
            .num("batched_ns_per_entry", lead.batched_ns)
            .num("batched_speedup", lead.scalar_ns / lead.batched_ns)
            .num("fast_ns_per_entry", lead.fast_ns)
            .num("fast_speedup_vs_batched", lead.batched_ns / lead.fast_ns)
            .num("quantised_ns_per_entry", lead.quantised_ns)
            .int("leaf_bytes_per_entry", quant_bytes as u64)
            .int("exact_leaf_bytes_per_entry", exact_bytes as u64)
            .int("exact_physical_reads", reads.exact)
            .int("quantised_physical_reads", reads.quantised)
            .num("hull_split_ns_per_child", split_ns)
            .num("hull_fused_ns_per_child", fused_ns)
            .num("hull_fused_speedup", split_ns / fused_ns);
        for t in &timings {
            kb = kb.obj(
                &format!("d{}", t.dims),
                JsonObj::new()
                    .num("scalar_ns_per_entry", t.scalar_ns)
                    .num("batched_ns_per_entry", t.batched_ns)
                    .num("fast_ns_per_entry", t.fast_ns)
                    .num("quantised_ns_per_entry", t.quantised_ns),
            );
        }
        let j = JsonObj::new().obj("kernel_bench", kb);
        j.write_to(&path).expect("write bench json");
        eprintln!("wrote {path}");
    }
}
