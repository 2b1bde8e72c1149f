#!/bin/sh
# Regenerates REPEATABILITY.md: every workload on seeds 1..10, twice, about
# 40 minutes on two cores. Run it on an otherwise idle machine.
set -eu
cd "$(dirname "$0")/.."
cargo build --release --quiet --manifest-path benchmark/Cargo.toml
target="${CARGO_TARGET_DIR:-benchmark/target}"
"$target/release/gauss_benchmark" --repeat "${1:-10}" > benchmark/REPEATABILITY.md
