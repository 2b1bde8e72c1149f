//! `gauss_benchmark` — the repo benchmark. Drives the library only through
//! its public API, checks every answer against a brute-force oracle, prints
//! every metric by name with its unit, and ends with a one-line JSON summary.
//!
//! ```text
//! gauss_benchmark --workload <name> [--seed n] [--seconds s] [--trace 0|1] [--quick] [--out dir]
//! gauss_benchmark --repeat n [--seconds s]
//! ```
//!
//! See `README.md` beside this package for the workloads, the metrics and
//! the timing rule.

mod forest_workload;
mod harness;
mod layers;
mod measure;
mod oracle;
mod repeat;
mod tree_workload;

use harness::{Calibration, Contract, Metrics, Tracer};
use measure::Ctx;
use std::path::PathBuf;
use std::process::ExitCode;

/// Parsed command line of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub out: PathBuf,
    pub repeat: Option<usize>,
}

/// A traced run spends this share of the window on rounds and the rest of
/// its time on the layer probes.
const TRACED_WINDOW_SHARE: f64 = 0.4;

/// `default_seconds` is the window `BENCHMARK.json` passes as `--seconds`.
pub fn parse_args(argv: &[String], default_seconds: f64) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: default_seconds,
        trace: false,
        quick: false,
        out: PathBuf::from("benchmark/out"),
        repeat: None,
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must lie in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not '{other}'")),
                }
            }
            "--quick" => args.quick = true,
            "--out" => args.out = PathBuf::from(value()?),
            "--repeat" => {
                let n: usize = value()?.parse().map_err(|e| format!("--repeat: {e}"))?;
                if n < 3 {
                    return Err("--repeat needs at least 3 runs per set".into());
                }
                args.repeat = Some(n);
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// Runs one workload and returns what to print: the report and the summary
/// line. `Err` means the run could not produce a valid result at all.
pub fn run_workload(args: &Args, contract: &Contract) -> Result<(String, String), String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let (_, why) = contract
        .workloads
        .iter()
        .find(|(n, _)| n == name)
        .ok_or_else(|| {
            let known: Vec<&str> = contract.workloads.iter().map(|(n, _)| n.as_str()).collect();
            format!("unknown workload '{name}'; BENCHMARK.json declares {known:?}")
        })?;
    println!("why {name}: {why}");
    let started = std::time::Instant::now();

    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let scratch = args.out.join(format!("tmp-{}", std::process::id()));
    let mut ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds * if args.trace { TRACED_WINDOW_SHARE } else { 1.0 },
        trace: args.trace,
        quick: args.quick,
        out_dir: scratch.clone(),
        threads: nproc.min(2),
        tracer: Tracer::new(args.trace),
        metrics: Metrics::default(),
        attempted: 0,
        failed: 0,
        calib: Calibration::new(),
    };
    println!(
        "run: seed {}, window {:.1} s, trace {}, {} load threads of {nproc} cpus",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.threads
    );
    let result = match tree_workload::spec(name, args.quick) {
        Some(spec) => tree_workload::run(&mut ctx, &spec),
        None => forest_workload::run(&mut ctx),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    result?;

    // The noise sentinel: a per-layer metric of a traced run; on an untraced
    // one it rides along so `--repeat` can flag a busy box.
    ctx.metrics.put("harness.calib_ns", ctx.calib.min_ns());
    ctx.metrics.put("harness.calib_spread", ctx.calib.spread());
    let mut report = String::new();
    if ctx.trace {
        std::fs::create_dir_all(&args.out).map_err(|e| e.to_string())?;
        let path = args.out.join(format!("trace-{name}.json"));
        std::fs::write(&path, ctx.tracer.to_json(name)).map_err(|e| e.to_string())?;
        report.push_str(&format!(
            "trace: {} spans written to {}\n",
            ctx.tracer.spans().len(),
            path.display()
        ));
        report.push_str("span                          count     total_ms      self_ms\n");
        for (span, t) in ctx.tracer.totals() {
            report.push_str(&format!(
                "{span:<26} {:>8} {:>12.3} {:>12.3}\n",
                t.count,
                t.total_ns as f64 / 1e6,
                t.self_ns as f64 / 1e6
            ));
        }
    }
    report.push_str(&ctx.metrics.human(contract));
    report.push_str(&format!(
        "elapsed: {:.1} s\n",
        started.elapsed().as_secs_f64()
    ));
    let declared = contract.declared(ctx.trace);
    ctx.metrics.check(declared)?;
    Ok((
        report,
        ctx.metrics.summary(declared, ctx.attempted, ctx.failed),
    ))
}

fn real_main() -> Result<(), String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let contract = Contract::committed();
    let args = parse_args(&argv, contract.run_seconds)?;
    if let Some(n) = args.repeat {
        return repeat::run(n, &args, &contract);
    }
    let (report, summary) = run_workload(&args, &contract)?;
    print!("{report}");
    println!("{summary}");
    Ok(())
}

fn main() -> ExitCode {
    match real_main() {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("gauss_benchmark: {msg}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use harness::Json;

    fn parse(s: &str) -> Result<Args, String> {
        let argv: Vec<String> = s.split_whitespace().map(str::to_string).collect();
        parse_args(&argv, 28.0)
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse("--workload hist27_warm --seed 7 --seconds 18 --trace 1").unwrap();
        assert_eq!(a.workload.as_deref(), Some("hist27_warm"));
        assert_eq!(
            (a.seed, a.seconds, a.trace, a.quick),
            (7, 18.0, true, false)
        );
        assert_eq!(parse("--workload hist27_warm").unwrap().seconds, 28.0);
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--seconds 0").is_err());
        assert!(parse("--repeat 2").is_err());
        assert!(parse("--bogus").is_err());
    }

    #[test]
    fn unknown_workload_is_refused() {
        let args = parse("--workload nope --quick").unwrap();
        let err = run_workload(&args, &Contract::committed()).unwrap_err();
        assert!(err.contains("unknown workload"), "{err}");
    }

    /// `--quick` smoke run of all four workloads, untraced and traced: every
    /// declared metric is emitted, every answer is correct, and the summary
    /// has the contract's shape. Tests share no directory: each gets its own.
    #[test]
    fn quick_smoke_run_of_all_four_workloads() {
        let contract = Contract::committed();
        let started = std::time::Instant::now();
        for (name, _) in &contract.workloads {
            for trace in [false, true] {
                let out = std::env::temp_dir().join(format!(
                    "gauss-benchmark-test-{}-{name}-{}",
                    std::process::id(),
                    u8::from(trace)
                ));
                let args = Args {
                    workload: Some(name.clone()),
                    seed: 2,
                    seconds: 0.05,
                    trace,
                    quick: true,
                    out: out.clone(),
                    repeat: None,
                };
                let (report, summary) = run_workload(&args, &contract)
                    .unwrap_or_else(|e| panic!("{name} trace={trace}: {e}"));
                let parsed = Json::parse(&summary).expect("summary is JSON");
                assert_eq!(
                    parsed.get("correct"),
                    Some(&Json::Bool(true)),
                    "{name}: {summary}"
                );
                assert_eq!(parsed.get("failed"), Some(&Json::Num(0.0)));
                assert!(parsed.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
                let Some(Json::Obj(metrics)) = parsed.get("metrics") else {
                    panic!("metrics is an object")
                };
                let declared = contract.declared(trace);
                assert_eq!(metrics.len(), declared.len(), "{name} trace={trace}");
                for d in declared {
                    assert!(
                        report.contains(&format!("metric {} ", d.name)),
                        "{}",
                        d.name
                    );
                }
                if trace {
                    let file = out.join(format!("trace-{name}.json"));
                    let spans = Json::parse(&std::fs::read_to_string(&file).unwrap()).unwrap();
                    assert!(!spans
                        .get("spans")
                        .and_then(Json::as_arr)
                        .unwrap()
                        .is_empty());
                }
                let _ = std::fs::remove_dir_all(&out);
            }
        }
        // The issue's budget is for the untraced release smoke; leave room
        // for the unoptimised test build and the traced runs.
        assert!(
            started.elapsed().as_secs() < 120,
            "quick runs took {:?}",
            started.elapsed()
        );
    }
}
