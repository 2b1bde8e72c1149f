//! Bit-level differential of the read engine: every field of every answer
//! of every [`ReadView`] entry point, printed as raw bits for fixed seeds.
//!
//! A read-path change that claims "same answers" proves it by building this
//! binary in two checkouts and comparing the outputs byte for byte:
//!
//! ```sh
//! cargo run --release -q -p gauss_bench --bin answer_bits > /tmp/change.bits
//! (cd ../parent && cargo run --release -q -p gauss_bench --bin answer_bits) > /tmp/parent.bits
//! cmp /tmp/parent.bits /tmp/change.bits && sha256sum /tmp/change.bits
//! ```
//!
//! Coverage: data sets d2–d27 with tight and wide σ (plus leaf-root and
//! height-1 trees) × both [`CombineMode`]s × both [`LeafFormat`]s × page-
//! sized and tiny node capacities (height ≥ 3) × {bulk-loaded tree, the same
//! tree shared as an `Arc` and read on another thread, multi-component
//! forest with live memtable, upserts and
//! tombstones, the tree again through a 16-frame pool and a 16-node cache
//! cold-started before every query} × `k_mliq`, `k_mliq_refined` (3
//! accuracies), `tiq` (θ down to 1e-40, 2 accuracies), `tiq_anytime`, a box
//! query and 20 cursor hits. The cold view is what drives page read →
//! decode → evict → decode again; the large-cache views decode each node
//! once. The binary uses public API only, so the same source builds in an
//! older checkout. `--quick` shrinks data and query counts for CI (a few
//! seconds).
//!
//! # `--oracle`
//!
//! A change that moves probability bits (a split objective, a bound, a page
//! format) cannot be judged by `cmp`. `--oracle` runs the same views and
//! queries and, instead of printing rows, checks every refined, TIQ and
//! anytime row against the brute-force Bayes posterior over that view's
//! live set (the data set; for the forest, less its deletes and with its
//! upserts; quantised as a quantised tree stores it):
//!
//! * the row's interval `[prob_lo, prob_hi]` contains the posterior;
//! * on the strict paths (`k_mliq_refined`, `tiq`) its width is at most
//!   the accuracy asked for;
//! * no strict or anytime TIQ left out an object whose posterior reaches
//!   the threshold.
//!
//! Comparisons allow a relative `1e-9` for rounding. It prints the counts,
//! lists the violations and exits non-zero if there is one.
//!
//! Run: `cargo run --release -p gauss_bench --bin answer_bits [-- --quick] [--oracle]`

use gauss_bench::has_flag;
use gauss_storage::{
    AccessStats, MemComponentStores, MemStore, PageStore, SharedBufferPool, DEFAULT_PAGE_SIZE,
};
use gauss_tree::{
    ForestOptions, GaussForest, GaussTree, LeafFormat, ReadView, TreeConfig, TreeOptions,
};
use gauss_workloads::{generate_queries, histogram_dataset, uniform_dataset, Dataset, SigmaSpec};
use pfv::combine::log_joint;
use pfv::{log_sum_exp, posterior, quant, CombineMode, Pfv};
use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::process::ExitCode;
use std::sync::Arc;

/// One fixed-seed data set with its query σ.
struct Case {
    name: &'static str,
    data: Dataset,
    query_sigma: SigmaSpec,
    queries: usize,
}

fn cases(quick: bool) -> Vec<Case> {
    let n = |full: usize, small: usize| if quick { small } else { full };
    let tight = SigmaSpec::uniform(0.005, 0.05);
    let wide = SigmaSpec::uniform(0.1, 0.4);
    let drift = SigmaSpec::uniform(0.05, 0.4);
    let u10 = SigmaSpec::log_uniform(0.005, 0.3).with_object_scale(0.5, 3.0);
    let h27 = SigmaSpec::log_uniform(0.05, 0.9)
        .with_object_scale(0.5, 2.0)
        .relative_to_value(0.01);
    let mut cases = vec![
        Case {
            name: "u2_leafroot",
            data: uniform_dataset(4, 2, tight, 11),
            query_sigma: tight,
            queries: 2,
        },
        Case {
            name: "u2_height1",
            data: uniform_dataset(16, 2, wide, 12),
            query_sigma: wide,
            queries: 2,
        },
        Case {
            name: "u2_tight",
            data: uniform_dataset(n(4000, 600), 2, tight, 13),
            query_sigma: tight,
            queries: n(5, 2),
        },
        Case {
            name: "h27",
            data: histogram_dataset(n(3000, 500), 27, h27, 14),
            query_sigma: h27,
            queries: n(5, 2),
        },
    ];
    if !quick {
        cases.push(Case {
            name: "u2_wide",
            data: uniform_dataset(4000, 2, wide, 15),
            query_sigma: wide,
            queries: 5,
        });
        cases.push(Case {
            name: "u8_drift",
            data: uniform_dataset(6000, 8, drift, 16),
            query_sigma: drift,
            queries: 5,
        });
        cases.push(Case {
            name: "u10",
            data: uniform_dataset(12_000, 10, u10, 17),
            query_sigma: SigmaSpec::log_uniform(0.005, 0.3).with_object_scale(0.5, 1.5),
            queries: 5,
        });
    }
    cases
}

/// What `--oracle` counted: rows checked (refined, strict TIQ, anytime)
/// and every violation found.
#[derive(Debug, Default)]
struct Tally {
    rows: [u64; 3],
    violations: Vec<String>,
}

impl Tally {
    fn add(&mut self, other: Tally) {
        for (a, b) in self.rows.iter_mut().zip(other.rows) {
            *a += b;
        }
        self.violations.extend(other.violations);
    }
}

/// Slack of the oracle's comparisons, relative: the brute-force sum and the
/// index's bounds round differently.
const SLACK: f64 = 1e-9;

/// The `--oracle` check of one view: its combine mode, its live set, the
/// posterior of every live object for the query at hand and what it found.
struct Oracle<'a> {
    mode: CombineMode,
    live: &'a [(u64, Pfv)],
    truth: HashMap<u64, f64>,
    tally: Tally,
}

impl Oracle<'_> {
    /// Takes `P(v|q)` of every object of the live set for the next rows.
    fn query(&mut self, q: &Pfv) {
        let lds: Vec<f64> = self
            .live
            .iter()
            .map(|(_, v)| log_joint(self.mode, v, q))
            .collect();
        let denominator = log_sum_exp(&lds);
        self.truth = (self.live.iter().zip(lds))
            .map(|((id, _), ld)| (*id, posterior(ld, denominator)))
            .collect();
    }

    /// One row of kind `kind` (0 refined, 1 strict TIQ, 2 anytime): its
    /// interval `[lo, hi]` holds the posterior, and is at most `accuracy`
    /// wide.
    fn row(
        &mut self,
        what: &str,
        kind: usize,
        id: u64,
        (lo, hi): (f64, f64),
        accuracy: Option<f64>,
    ) {
        self.tally.rows[kind] += 1;
        let Some(&p) = self.truth.get(&id) else {
            self.tally
                .violations
                .push(format!("{what}: id {id} is not live"));
            return;
        };
        let tiny = f64::MIN_POSITIVE;
        if !(lo <= p * (1.0 + SLACK) + tiny && p <= hi * (1.0 + SLACK) + tiny) {
            self.tally.violations.push(format!(
                "{what}: id {id} posterior {p:e} outside [{lo:e}, {hi:e}]"
            ));
        }
        if let Some(accuracy) = accuracy {
            if hi - lo > accuracy * (1.0 + SLACK) {
                self.tally.violations.push(format!(
                    "{what}: id {id} interval [{lo:e}, {hi:e}] wider than {accuracy:e}"
                ));
            }
        }
    }

    /// A TIQ answer left out no object whose posterior reaches `theta`.
    fn no_dismissal(&mut self, what: &str, theta: f64, ids: &[u64]) {
        for (&id, &p) in &self.truth {
            if p >= theta * (1.0 + SLACK) && !ids.contains(&id) {
                self.tally
                    .violations
                    .push(format!("{what}: id {id} of posterior {p:e} dismissed"));
            }
        }
    }
}

/// A view's live set as its leaves store it: `items` quantised for a
/// quantised tree.
fn stored(format: LeafFormat, items: Vec<(u64, Pfv)>) -> Vec<(u64, Pfv)> {
    if format == LeafFormat::Exact {
        return items;
    }
    let widen = |x: Option<f32>| f64::from(x.expect("data fits f32"));
    (items.into_iter())
        .map(|(id, v)| {
            let means: Vec<f64> = v
                .means()
                .iter()
                .map(|&m| widen(quant::quantise_mu(m)))
                .collect();
            let sigmas: Vec<f64> = (v.sigmas().iter())
                .map(|&s| widen(quant::quantise_sigma(s)))
                .collect();
            (id, Pfv::new(means, sigmas).expect("valid pfv"))
        })
        .collect()
}

fn pool() -> SharedBufferPool<MemStore> {
    SharedBufferPool::new(
        MemStore::new(DEFAULT_PAGE_SIZE),
        8192,
        AccessStats::new_shared(),
    )
}

/// A forest over the same objects as the tree, cut into about five
/// components, with every 7th id deleted and every 11th upserted (wider σ)
/// afterwards — so components carry shadowed ids and tombstones, and the
/// tail of the stream is still in the memtable.
fn build_forest(data: &Dataset, config: TreeConfig) -> GaussForest<MemComponentStores> {
    let items = data.items();
    let capacity = (items.len() / 5).max(3);
    let opts = ForestOptions::new()
        .memtable_capacity(capacity)
        .merge_factor(64);
    let mut forest = GaussForest::create(MemComponentStores::new(DEFAULT_PAGE_SIZE), config, opts)
        .expect("create forest");
    for (id, v) in &items {
        forest.insert(*id, v).expect("forest insert");
    }
    for (id, v) in &items {
        if id % 7 == 3 {
            forest.delete(*id).expect("forest delete");
        } else if id % 11 == 5 {
            forest.insert(*id, &wider(v)).expect("forest upsert");
        }
    }
    forest
}

/// The pfv an upsert of [`build_forest`] replaces `v` with.
fn wider(v: &Pfv) -> Pfv {
    let sigmas: Vec<f64> = v.sigmas().iter().map(|s| s * 1.5).collect();
    Pfv::new(v.means().to_vec(), sigmas).expect("valid pfv")
}

/// The live set of [`build_forest`]'s forest.
fn forest_live(data: &Dataset) -> Vec<(u64, Pfv)> {
    (data.items().into_iter())
        .filter(|(id, _)| id % 7 != 3)
        .map(|(id, v)| {
            if id % 11 == 5 {
                (id, wider(&v))
            } else {
                (id, v)
            }
        })
        .collect()
}

/// Frames of the cold view's buffer pool and nodes of its decoded-node
/// cache: one frame per pool shard, far below any tree here that has inner
/// nodes, so a query evicts and re-decodes what it read a moment ago.
const COLD_FRAMES: usize = 16;

/// The tree's committed pages behind a [`COLD_FRAMES`]-frame pool and node
/// cache.
fn reopen_cold(tree: GaussTree<MemStore>) -> GaussTree<MemStore> {
    let pool = SharedBufferPool::new(tree.into_store(), COLD_FRAMES, AccessStats::new_shared());
    let opts = TreeOptions::new().node_cache_capacity(COLD_FRAMES);
    GaussTree::open_with(pool, &opts).expect("reopen on a small pool")
}

/// Every entry point for every query, one line per answer row; `before`
/// runs ahead of each query. An `oracle` checks the probability rows.
fn dump<S: PageStore>(
    out: &mut impl Write,
    tag: &str,
    view: &impl ReadView<S>,
    queries: &[Pfv],
    before: impl Fn(),
    mut oracle: Option<&mut Oracle<'_>>,
) -> std::io::Result<()> {
    for (qi, q) in queries.iter().enumerate() {
        if let Some(o) = oracle.as_deref_mut() {
            o.query(q);
        }
        for k in [1usize, 5, 40] {
            before();
            for r in view.k_mliq(q, k).expect("k_mliq") {
                writeln!(
                    out,
                    "{tag} q{qi} mliq k{k} {} {:016x}",
                    r.id,
                    r.log_density.to_bits()
                )?;
            }
            for acc in [1e-2, 1e-6, 1e-10] {
                before();
                for r in view.k_mliq_refined(q, k, acc).expect("refined") {
                    if let Some(o) = oracle.as_deref_mut() {
                        let what = format!("{tag} q{qi} refined k{k} a{acc:e}");
                        o.row(&what, 0, r.id, (r.prob_lo, r.prob_hi), Some(acc));
                    }
                    writeln!(
                        out,
                        "{tag} q{qi} refined k{k} a{acc:e} {} {:016x} {:016x} {:016x} {:016x}",
                        r.id,
                        r.log_density.to_bits(),
                        r.probability.to_bits(),
                        r.prob_lo.to_bits(),
                        r.prob_hi.to_bits()
                    )?;
                }
            }
        }
        for theta in [0.7, 0.2, 0.05, 1e-12, 1e-20, 1e-40] {
            for acc in [Some(1e-3), Some(1e-9), None] {
                before();
                let (label, rows) = match acc {
                    Some(a) => (format!("tiq a{a:e}"), view.tiq(q, theta, a).expect("tiq")),
                    None => (
                        "anytime".to_string(),
                        view.tiq_anytime(q, theta).expect("anytime"),
                    ),
                };
                writeln!(out, "{tag} q{qi} {label} t{theta:e} n{}", rows.len())?;
                if let Some(o) = oracle.as_deref_mut() {
                    let what = format!("{tag} q{qi} {label} t{theta:e}");
                    let kind = if acc.is_some() { 1 } else { 2 };
                    for r in &rows {
                        o.row(&what, kind, r.id, (r.prob_lo, r.prob_hi), acc);
                    }
                    let ids: Vec<u64> = rows.iter().map(|r| r.id).collect();
                    o.no_dismissal(&what, theta, &ids);
                }
                for r in rows {
                    writeln!(
                        out,
                        "{tag} q{qi} {label} t{theta:e} {} {:016x} {:016x} {:016x} {:016x}",
                        r.id,
                        r.log_density.to_bits(),
                        r.probability.to_bits(),
                        r.prob_lo.to_bits(),
                        r.prob_hi.to_bits()
                    )?;
                }
            }
        }
        let corner = |k: f64| -> Vec<f64> {
            (q.means().iter().zip(q.sigmas()))
                .map(|(m, s)| m + k * s)
                .collect()
        };
        let (lo, hi) = (corner(-3.0), corner(3.0));
        before();
        for r in view.probabilistic_box_query(&lo, &hi, 0.05).expect("box") {
            writeln!(
                out,
                "{tag} q{qi} box {} {:016x}",
                r.id,
                r.probability.to_bits()
            )?;
        }
        before();
        let mut cursor = view.ranking_cursor(q).expect("cursor");
        for _ in 0..20 {
            let Some(hit) = cursor.next_hit().expect("cursor hit") else {
                break;
            };
            writeln!(
                out,
                "{tag} q{qi} cursor {} {:016x}",
                hit.id,
                hit.log_density.to_bits()
            )?;
        }
    }
    Ok(())
}

fn main() -> std::io::Result<ExitCode> {
    let args: Vec<String> = std::env::args().collect();
    let quick = has_flag(&args, "--quick");
    let check = has_flag(&args, "--oracle");
    let stdout = std::io::stdout();
    let mut out: Box<dyn Write> = if check {
        Box::new(std::io::sink())
    } else {
        Box::new(BufWriter::new(stdout.lock()))
    };
    let mut tally = Tally::default();

    for case in cases(quick) {
        let dims = case.data.dims();
        let queries: Vec<Pfv> = generate_queries(&case.data, case.queries, case.query_sigma, 99)
            .into_iter()
            .map(|q| q.query)
            .collect();
        for mode in [CombineMode::Convolution, CombineMode::AdditiveSigma] {
            for format in [LeafFormat::Exact, LeafFormat::Quantised] {
                let tree_live = stored(format, case.data.items());
                let forest_live = stored(format, forest_live(&case.data));
                let oracle = |live| {
                    check.then(|| Oracle {
                        mode,
                        live,
                        truth: HashMap::new(),
                        tally: Tally::default(),
                    })
                };
                for tiny in [false, true] {
                    let mut config = TreeConfig::new(dims)
                        .with_combine(mode)
                        .with_leaf_format(format);
                    if tiny {
                        config = config.with_capacities(6, 4);
                    }
                    let tag = format!(
                        "{} {mode:?} {format:?} {}",
                        case.name,
                        if tiny { "cap6x4" } else { "page" }
                    );
                    let tree =
                        GaussTree::bulk_load(pool(), config, case.data.items()).expect("bulk load");
                    writeln!(out, "{tag} tree n{} height{}", tree.len(), tree.height())?;
                    let mut o = oracle(&tree_live);
                    dump(
                        &mut out,
                        &format!("{tag} tree"),
                        &tree,
                        &queries,
                        || (),
                        o.as_mut(),
                    )?;
                    // An owning view for another thread is an `Arc` of the tree.
                    let shared = Arc::new(tree);
                    let (rows, snap) = std::thread::scope(|s| {
                        let (reader, queries) = (Arc::clone(&shared), &queries);
                        let tag = format!("{tag} snap");
                        let mut o = oracle(&tree_live);
                        s.spawn(move || {
                            let mut rows = Vec::new();
                            dump(&mut rows, &tag, &*reader, queries, || (), o.as_mut())
                                .map(|()| (rows, o))
                        })
                        .join()
                        .expect("reader thread")
                    })?;
                    out.write_all(&rows)?;
                    let tree = Arc::try_unwrap(shared).expect("the reader has joined");
                    let cold = reopen_cold(tree);
                    let mut c = oracle(&tree_live);
                    let before = || cold.cold_start();
                    dump(
                        &mut out,
                        &format!("{tag} cold"),
                        &cold,
                        &queries,
                        before,
                        c.as_mut(),
                    )?;

                    let forest = build_forest(&case.data, config);
                    let view = forest.snapshot().expect("forest snapshot");
                    writeln!(
                        out,
                        "{tag} forest n{} comps{} mem{}",
                        view.len(),
                        forest.component_stats().len(),
                        forest.memtable_len()
                    )?;
                    let mut f = oracle(&forest_live);
                    dump(
                        &mut out,
                        &format!("{tag} forest"),
                        &view,
                        &queries,
                        || (),
                        f.as_mut(),
                    )?;
                    for o in [o, snap, c, f].into_iter().flatten() {
                        tally.add(o.tally);
                    }
                }
            }
        }
    }
    out.flush()?;
    if !check {
        return Ok(ExitCode::SUCCESS);
    }
    let [refined, tiq, anytime] = tally.rows;
    println!(
        "oracle: {refined} refined, {tiq} tiq and {anytime} anytime rows checked, {} violations",
        tally.violations.len()
    );
    for v in &tally.violations {
        println!("violation: {v}");
    }
    Ok(if tally.violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
