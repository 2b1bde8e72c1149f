#!/usr/bin/env bash
# One-shot pre-push gate: formatting, clippy, and gauss-lint.
#
# Usage: scripts/lint.sh [--fix]
#   --fix    run `cargo fmt` (write mode) instead of --check
#
# Mirrors what CI gates on, so a clean run here means the lint and format
# jobs will pass.

set -euo pipefail
cd "$(dirname "$0")/.."

fix=0
if [[ "${1:-}" == "--fix" ]]; then
  fix=1
fi

echo "==> rustfmt"
if [[ "$fix" == 1 ]]; then
  cargo fmt
else
  cargo fmt --check
fi

echo "==> clippy (workspace, all targets, -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> gauss-lint (self-hosted static analysis)"
cargo run -q -p gauss_lint

echo "==> gauss-lint fixture self-test (must fail on the fixture)"
if cargo run -q -p gauss_lint -- --root crates/lint/fixtures/ws >/dev/null 2>&1; then
  echo "error: gauss-lint reported a clean fixture workspace (dead linter?)" >&2
  exit 1
fi

echo "lint.sh: all gates green"
