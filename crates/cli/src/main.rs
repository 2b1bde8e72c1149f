//! `gauss-cli` — build, inspect and query persistent Gauss-tree indexes.
//!
//! ```text
//! gauss-cli generate --out data.csv --kind histogram --n 5000 --dims 27
//! gauss-cli build    --data data.csv --index faces.gtree
//! gauss-cli info     --index faces.gtree
//! gauss-cli mliq     --index faces.gtree --query "1.0,2.0;0.1,0.2" -k 5
//! gauss-cli tiq      --index faces.gtree --query "1.0,2.0;0.1,0.2" --theta 0.1
//! gauss-cli boxq     --index faces.gtree --lo 0,0 --hi 1,1 --tau 0.5
//! gauss-cli delete   --index faces.gtree --id 7 --query "1.0,2.0;0.1,0.2"
//!
//! # write-optimized Gauss-forest (index is a directory)
//! gauss-cli build    --forest true --data data.csv --index sensors/
//! gauss-cli ingest   --index sensors/ --events 100000 --sensors 512
//! gauss-cli compact  --index sensors/
//! gauss-cli mliq     --index sensors/ --query "1.0,2.0;0.1,0.2" -k 5
//! ```
//!
//! Queries are written `means;sigmas` with comma-separated components.

#![forbid(unsafe_code)]
#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
#![deny(clippy::allow_attributes_without_reason)]
#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]

mod args;
mod commands;
mod csvio;

use std::process::ExitCode;

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match commands::dispatch(&argv) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!();
            eprintln!("{}", commands::USAGE);
            ExitCode::FAILURE
        }
    }
}
