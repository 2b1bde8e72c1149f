//! CLI entry point: `cargo run -p gauss_lint [-- --root <dir>]`.
//!
//! Exits 0 when the workspace is clean, 1 when findings exist, 2 on usage
//! or I/O errors. The default `text` format prints findings as
//! `path:line: [rule] message` (plus an indented `chain:` line for
//! call-graph findings); `--format json` emits the machine-readable feed
//! CI turns into inline annotations. Every run is one full pass over the
//! workspace.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

enum Format {
    Text,
    Json,
}

fn usage() -> &'static str {
    "usage: gauss_lint [--root <dir>] [--format text|json] [--list-rules]\n\
     \n\
     Lints every .rs file in the workspace rooted at <dir> (default: the\n\
     nearest ancestor of the current directory whose Cargo.toml declares\n\
     [workspace]). Silence a finding with\n\
     `// lint: allow(<rule>) -- <reason>` on or directly above its line\n\
     (for call-graph rules: on the flagged call site)."
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1);
    let mut root: Option<PathBuf> = None;
    let mut format = Format::Text;
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(dir) => root = Some(PathBuf::from(dir)),
                None => {
                    eprintln!("--root needs a directory\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--format" => match args.next().as_deref() {
                Some("text") => format = Format::Text,
                Some("json") => format = Format::Json,
                _ => {
                    eprintln!("--format needs text|json\n{}", usage());
                    return ExitCode::from(2);
                }
            },
            "--list-rules" => {
                for (name, desc) in gauss_lint::rules::all_rules() {
                    println!("{name:20} {desc}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("unknown argument {other:?}\n{}", usage());
                return ExitCode::from(2);
            }
        }
    }
    let root = match root {
        Some(r) => r,
        None => {
            let cwd = match std::env::current_dir() {
                Ok(c) => c,
                Err(e) => {
                    eprintln!("gauss_lint: cannot read current dir: {e}");
                    return ExitCode::from(2);
                }
            };
            match gauss_lint::walk::find_root(&cwd) {
                Some(r) => r,
                None => {
                    eprintln!(
                        "gauss_lint: no [workspace] Cargo.toml above {}",
                        cwd.display()
                    );
                    return ExitCode::from(2);
                }
            }
        }
    };
    match gauss_lint::run(&root) {
        Ok(findings) => {
            match format {
                Format::Text => {
                    for f in &findings {
                        println!("{f}");
                    }
                    if findings.is_empty() {
                        println!("gauss_lint: clean ({})", root.display());
                    } else {
                        eprintln!("gauss_lint: {} finding(s)", findings.len());
                    }
                }
                Format::Json => print!("{}", gauss_lint::output::to_json(&findings)),
            }
            if findings.is_empty() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("gauss_lint: {e}");
            ExitCode::from(2)
        }
    }
}
