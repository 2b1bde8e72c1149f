//! Reproduces Figure 7: page accesses, CPU time, and overall time of
//! 1-MLIQ, TIQ(Pθ=0.8) and TIQ(Pθ=0.2) for the sequential scan, the X-tree
//! over 95 %-quantile boxes, and the Gauss-tree — all normalised to the
//! sequential scan (=100 %).
//!
//! Run: `cargo run --release -p gauss_bench --bin fig7_efficiency -- --dataset 1`
//! Flags: `--dataset 1|2` (default 1), `--quick`.

use gauss_bench::{
    arg_value, build_gauss_tree, build_pfv_file, build_xtree, fmt_row, has_flag, measure_queries,
    ExperimentSpec, Measurement,
};
use gauss_storage::{DiskModel, DEFAULT_PAGE_SIZE};
use gauss_tree::ReadView;
use gauss_tree::TreeConfig;
use pfv::CombineMode;

#[derive(Clone, Copy)]
enum QueryKind {
    Mliq1,
    Tiq(f64),
}

impl QueryKind {
    fn label(self) -> String {
        match self {
            QueryKind::Mliq1 => "1-MLIQ".into(),
            QueryKind::Tiq(t) => format!("TIQ (P={t})"),
        }
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let quick = has_flag(&args, "--quick");
    let which = arg_value(&args, "--dataset").unwrap_or_else(|| "1".into());
    let spec = match which.as_str() {
        "2" => ExperimentSpec::dataset2(quick),
        _ => ExperimentSpec::dataset1(quick),
    };
    let mode = CombineMode::Convolution;

    println!(
        "Figure 7 ({}) — data set {}: {} objects, {} dims, {} queries, 50 MB cache cold-started per experiment",
        if quick { "quick" } else { "full" },
        spec.id,
        spec.n,
        spec.dims,
        spec.queries
    );

    let dataset = spec.dataset();
    let queries = spec.queries(&dataset);

    eprintln!("building sequential file…");
    let mut file = build_pfv_file(&dataset);
    eprintln!("building Gauss-tree (bulk load)…");
    let gtree = build_gauss_tree(&dataset, TreeConfig::new(dataset.dims()));
    eprintln!("building X-tree…");
    let mut xtree = build_xtree(&dataset, &mut file);
    eprintln!(
        "built: file {} pages, gauss-tree h={}, xtree h={}",
        file.num_pages(),
        gtree.height(),
        xtree.height()
    );

    let kinds = [QueryKind::Mliq1, QueryKind::Tiq(0.8), QueryKind::Tiq(0.2)];
    let mut seq = Vec::new();
    let mut xt = Vec::new();
    let mut gt = Vec::new();

    for kind in kinds {
        eprintln!("measuring seq scan {}…", kind.label());
        let m = {
            file.pool_mut().clear_cache_and_stats();
            let stats = file.stats().clone();
            measure_queries(
                &queries,
                true,
                || stats.snapshot(),
                |q| {
                    let t0 = std::time::Instant::now();
                    match kind {
                        QueryKind::Mliq1 => {
                            let _ = file.k_mliq(&q.query, 1, mode).expect("scan mliq");
                        }
                        QueryKind::Tiq(t) => {
                            let _ = file.tiq(&q.query, t, mode).expect("scan tiq");
                        }
                    }
                    t0.elapsed().as_secs_f64()
                },
            )
        };
        // Byte-accurate sequential billing: whole-file passes cost their
        // exact payload, so the padding of a partial last page is free.
        let m = m.with_scan_bytes(gauss_bench::scan_bytes_for_faults(
            m.faults,
            file.num_pages() as u64,
            file.data_bytes(),
            gauss_storage::DEFAULT_PAGE_SIZE,
        ));
        seq.push(m);

        eprintln!("measuring X-tree {}…", kind.label());
        let m = {
            xtree.pool_mut().clear_cache_and_stats();
            file.pool_mut().clear_cache_and_stats();
            let xstats = xtree.stats().clone();
            let fstats = file.stats().clone();
            // Sum both pools: index pages + refinement fetches.
            measure_queries(
                &queries,
                false,
                || {
                    let a = xstats.snapshot();
                    let b = fstats.snapshot();
                    gauss_storage::StatsSnapshot {
                        logical_reads: a.logical_reads + b.logical_reads,
                        physical_reads: a.physical_reads + b.physical_reads,
                        physical_writes: a.physical_writes + b.physical_writes,
                        write_calls: a.write_calls + b.write_calls,
                        syncs: a.syncs + b.syncs,
                        evictions: a.evictions + b.evictions,
                    }
                },
                |q| {
                    let t0 = std::time::Instant::now();
                    match kind {
                        QueryKind::Mliq1 => {
                            let _ = xtree.k_mliq(&mut file, &q.query, 1, mode).expect("x mliq");
                        }
                        QueryKind::Tiq(t) => {
                            let _ = xtree.tiq(&mut file, &q.query, t, mode).expect("x tiq");
                        }
                    }
                    t0.elapsed().as_secs_f64()
                },
            )
        };
        xt.push(m);

        eprintln!("measuring Gauss-tree {}…", kind.label());
        let m = {
            gtree.cold_start();
            let stats = gtree.stats().clone();
            measure_queries(
                &queries,
                false,
                || stats.snapshot(),
                |q| {
                    let t0 = std::time::Instant::now();
                    match kind {
                        QueryKind::Mliq1 => {
                            let _ = gtree.k_mliq(&q.query, 1).expect("g mliq");
                        }
                        QueryKind::Tiq(t) => {
                            let _ = gtree.tiq_anytime(&q.query, t).expect("g tiq");
                        }
                    }
                    t0.elapsed().as_secs_f64()
                },
            )
        };
        gt.push(m);
    }

    print_tables(&kinds, &seq, &xt, &gt, spec.queries);
}

fn overall_table(
    title: &str,
    disk: &DiskModel,
    kinds: &[QueryKind],
    seq: &[Measurement],
    xt: &[Measurement],
    gt: &[Measurement],
) {
    println!();
    println!("Overall time, % of seq scan ({title}):");
    println!(
        "{:<28} {:>9} {:>9} {:>9}",
        "", "Seq.File", "X-Tree", "G-Tree"
    );
    for (i, kind) in kinds.iter().enumerate() {
        let base = seq[i].overall_s(disk);
        println!(
            "{}",
            fmt_row(
                &kind.label(),
                &[
                    100.0,
                    100.0 * xt[i].overall_s(disk) / base,
                    100.0 * gt[i].overall_s(disk) / base,
                ]
            )
        );
    }
}

fn print_tables(
    kinds: &[QueryKind],
    seq: &[Measurement],
    xt: &[Measurement],
    gt: &[Measurement],
    n_queries: usize,
) {
    println!();
    println!("Absolute per-query numbers:");
    println!(
        "{:<28} {:>12} {:>12} {:>12}",
        "", "Seq.File", "X-Tree", "G-Tree"
    );
    for (i, kind) in kinds.iter().enumerate() {
        println!(
            "{:<28} {:>12.1} {:>12.1} {:>12.1}",
            format!("{} pages/query", kind.label()),
            seq[i].pages as f64 / n_queries as f64,
            xt[i].pages as f64 / n_queries as f64,
            gt[i].pages as f64 / n_queries as f64,
        );
        println!(
            "{:<28} {:>12.3} {:>12.3} {:>12.3}",
            format!("{} cpu ms/query", kind.label()),
            1e3 * seq[i].cpu_s / n_queries as f64,
            1e3 * xt[i].cpu_s / n_queries as f64,
            1e3 * gt[i].cpu_s / n_queries as f64,
        );
    }

    println!();
    println!("Page accesses, % of seq scan:");
    println!(
        "{:<28} {:>9} {:>9} {:>9}",
        "", "Seq.File", "X-Tree", "G-Tree"
    );
    for (i, kind) in kinds.iter().enumerate() {
        let base = seq[i].pages.max(1) as f64;
        println!(
            "{}",
            fmt_row(
                &kind.label(),
                &[
                    100.0,
                    100.0 * xt[i].pages as f64 / base,
                    100.0 * gt[i].pages as f64 / base,
                ]
            )
        );
    }

    println!();
    println!("CPU time, % of seq scan:");
    println!(
        "{:<28} {:>9} {:>9} {:>9}",
        "", "Seq.File", "X-Tree", "G-Tree"
    );
    for (i, kind) in kinds.iter().enumerate() {
        let base = seq[i].cpu_s.max(1e-12);
        println!(
            "{}",
            fmt_row(
                &kind.label(),
                &[
                    100.0,
                    100.0 * xt[i].cpu_s / base,
                    100.0 * gt[i].cpu_s / base,
                ]
            )
        );
    }

    overall_table(
        "NVMe-class device, preserves the paper's CPU:I/O balance",
        &DiskModel::nvme(DEFAULT_PAGE_SIZE),
        kinds,
        seq,
        xt,
        gt,
    );
    overall_table(
        "2006 HDD, 8 ms seeks — shows why random access hurt in 2006",
        &DiskModel::hdd_2006(DEFAULT_PAGE_SIZE),
        kinds,
        seq,
        xt,
        gt,
    );
    println!();
    println!("Paper shapes to compare against (Fig 7):");
    println!("  - G-tree ≈ 4x fewer page accesses than scan for MLIQ (both sets)");
    println!("  - G-tree TIQ on data set 2: pages better by >30x, CPU by >10x");
    println!("    (those magnitudes need the peaked/diffuse posterior regimes —");
    println!("     see `ablation_tiq_regime`, which reproduces 37x-140x)");
    println!("  - X-tree: no MLIQ speedup; modest TIQ overall-time gains (~17-23%)");
    println!("  - Overall-time gains < page-access gains (random seeks vs streaming)");
}
