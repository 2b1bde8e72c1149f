//! `--repeat n`: the repeatability check. Runs every workload on seeds
//! `1..=n` as set A and again as set B, and prints — as the Markdown kept in
//! `REPEATABILITY.md` — both medians of every end-to-end metric, their gap,
//! the spread across seeds the driver computes, and the bound.

use crate::harness::{iqr_over_median, median, Contract, Declared};
use crate::Args;
use std::collections::BTreeMap;
use std::process::Command;

/// A run whose calibration loop's median sat this far above its minimum ran
/// on a machine too busy to trust.
const BUSY_CALIB_SPREAD: f64 = 0.10;

/// Counts that must repeat exactly between two runs of one seed.
const EXACT: [&str; 3] = ["pages_per_query", "space_bytes_per_obj", "write_amp"];

type RunMetrics = BTreeMap<String, f64>;

/// Parses the `metric <name> <value> [unit]` lines of one run's report.
pub fn parse_report(stdout: &str) -> RunMetrics {
    stdout
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            (words.next() == Some("metric")).then_some(())?;
            Some((words.next()?.to_string(), words.next()?.parse().ok()?))
        })
        .collect()
}

fn run_once(args: &Args, workload: &str, seed: u64) -> Result<RunMetrics, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .arg("--out")
        .arg(&args.out)
        .args(args.quick.then_some("--quick"))
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let summary = stdout.lines().last().unwrap_or("");
    if !output.status.success() || !summary.starts_with("{\"correct\": true") {
        return Err(format!(
            "{workload} seed {seed} did not end correct: {summary}\n{}",
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    Ok(parse_report(&stdout))
}

/// The judgement on one metric of one workload.
struct Row {
    median_a: f64,
    median_b: f64,
    /// How much worse B's median is than A's, as a share of A's; negative
    /// when B is better.
    gap: f64,
    spread_a: f64,
    spread_b: f64,
}

fn judge(d: &Declared, a: &[f64], b: &[f64]) -> Row {
    let (median_a, median_b) = (median(a), median(b));
    let worse = if d.higher_is_better {
        median_a - median_b
    } else {
        median_b - median_a
    };
    Row {
        median_a,
        median_b,
        gap: worse / median_a.abs(),
        spread_a: iqr_over_median(a),
        spread_b: iqr_over_median(b),
    }
}

pub fn run(n: usize, args: &Args, contract: &Contract) -> Result<(), String> {
    // runs[set][workload][seed - 1]
    let mut runs: [BTreeMap<&str, Vec<RunMetrics>>; 2] = [BTreeMap::new(), BTreeMap::new()];
    for (set, label) in ["A", "B"].into_iter().enumerate() {
        for seed in 1..=n as u64 {
            for (workload, _) in &contract.workloads {
                eprintln!("set {label}, seed {seed}, {workload} ...");
                let metrics = run_once(args, workload, seed)?;
                runs[set].entry(workload).or_default().push(metrics);
            }
        }
    }

    println!("# Repeatability\n");
    println!(
        "`gauss_benchmark --repeat {n} --seconds {}`: every workload on seeds 1..={n} as set A, \
         then again as set B, same binary, same machine ({} cpus).\n",
        args.seconds,
        std::thread::available_parallelism().map_or(1, usize::from)
    );
    println!(
        "`gap` is how much worse B's median is than A's (negative: better). `spread` is the \
         interquartile range over the median across the seeds of one set, as the driver \
         computes it. Both must stay within `bound`; `setup_s` is exempt from the spread rule.\n"
    );
    let mut failures: Vec<String> = Vec::new();
    for (workload, _) in &contract.workloads {
        println!("## {workload}\n");
        println!("| metric | unit | median A | median B | gap | spread A | spread B | bound | |");
        println!("|---|---|---:|---:|---:|---:|---:|---:|---|");
        let (a_runs, b_runs) = (&runs[0][workload.as_str()], &runs[1][workload.as_str()]);
        for d in &contract.end_to_end {
            let column = |runs: &[RunMetrics]| -> Vec<f64> {
                runs.iter()
                    .map(|r| r.get(&d.name).copied().unwrap_or(f64::NAN))
                    .collect()
            };
            let (a, b) = (column(a_runs), column(b_runs));
            let row = judge(d, &a, &b);
            let bound = d.bound.unwrap_or(0.0);
            let mut verdict = Vec::new();
            if row.gap > bound {
                verdict.push("GAP");
            }
            if d.name != "setup_s" && row.spread_a.max(row.spread_b) > bound {
                verdict.push("SPREAD");
            }
            if EXACT.contains(&d.name.as_str()) && a != b {
                verdict.push("NOT EXACT");
            }
            if !verdict.is_empty() {
                failures.push(format!("{workload} {}: {}", d.name, verdict.join(", ")));
            }
            println!(
                "| {} | {} | {:.4} | {:.4} | {:+.2} % | {:.2} % | {:.2} % | {:.0} % | {} |",
                d.name,
                d.unit,
                row.median_a,
                row.median_b,
                100.0 * row.gap,
                100.0 * row.spread_a,
                100.0 * row.spread_b,
                100.0 * bound,
                if verdict.is_empty() {
                    "ok".to_string()
                } else {
                    verdict.join(", ")
                }
            );
        }
        println!();
        for (label, set) in [("A", a_runs), ("B", b_runs)] {
            for (i, r) in set.iter().enumerate() {
                let spread = r.get("harness.calib_spread").copied().unwrap_or(0.0);
                if spread > BUSY_CALIB_SPREAD {
                    println!(
                        "- busy machine: set {label}, seed {}: `harness.calib_spread` = {spread:.3}",
                        i + 1
                    );
                }
            }
        }
        println!();
    }
    if failures.is_empty() {
        println!("All gaps and spreads are within their bounds; exact counts repeat exactly.");
        Ok(())
    } else {
        println!("Out of bounds:\n");
        for f in &failures {
            println!("- {f}");
        }
        Err(format!("{} metric(s) out of bounds", failures.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_lines_parse() {
        let m = parse_report(
            "why x: y\nmetric setup_s 1.25 s\nmetric harness.rounds 4 \nnot a metric\n",
        );
        assert_eq!(m.len(), 2);
        assert_eq!(m["setup_s"], 1.25);
        assert_eq!(m["harness.rounds"], 4.0);
    }

    #[test]
    fn gap_sign_follows_direction() {
        let lower = Declared {
            name: "t".into(),
            unit: "us".into(),
            higher_is_better: false,
            bound: Some(0.1),
        };
        let higher = Declared {
            higher_is_better: true,
            ..lower.clone()
        };
        let (a, b) = ([100.0, 100.0, 100.0], [110.0, 110.0, 110.0]);
        assert!(
            (judge(&lower, &a, &b).gap - 0.10).abs() < 1e-12,
            "slower is worse"
        );
        assert!(
            (judge(&higher, &a, &b).gap + 0.10).abs() < 1e-12,
            "more throughput is better"
        );
        assert_eq!(judge(&lower, &a, &b).spread_a, 0.0);
    }
}
