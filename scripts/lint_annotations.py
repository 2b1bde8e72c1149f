#!/usr/bin/env python3
"""Turn gauss-lint JSON output into GitHub inline annotations.

Usage:
    python3 scripts/lint_annotations.py lint.json

Reads the ``--format json`` feed produced by gauss-lint and prints one
``::error file=...,line=...::...`` workflow command per finding so they
show up inline on the PR diff.

Exits 0 in all cases where the inputs are well-formed (the lint job's
gating exit code is the linter's own); exits 2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys


def fail(msg: str) -> "NoReturn":  # noqa: F821 - py3.8-friendly annotation
    print(f"lint_annotations: {msg}", file=sys.stderr)
    sys.exit(2)


def emit_annotations(path: str) -> int:
    try:
        with open(path, encoding="utf-8") as fh:
            feed = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read JSON feed {path!r}: {exc}")
    if feed.get("version") != 1:
        fail(f"unexpected feed version {feed.get('version')!r} in {path!r}")
    findings = feed.get("findings")
    if not isinstance(findings, list):
        fail(f"{path!r} has no findings list")
    for f in findings:
        rule = f.get("rule", "?")
        rel = f.get("path", "?")
        line = f.get("line", 1)
        message = f.get("message", "")
        chain = f.get("chain") or []
        if chain:
            message += f" [chain: {' -> '.join(chain)}]"
        # Workflow-command syntax: newlines and percent signs must be
        # URL-style escaped, properties must not contain commas/colons
        # unescaped.
        message = (
            message.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")
        )
        print(f"::error file={rel},line={line},title=gauss-lint {rule}::{message}")
    return len(findings)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("feed", help="gauss-lint --format json output file")
    args = ap.parse_args()
    count = emit_annotations(args.feed)
    print(f"lint_annotations: {count} annotation(s) emitted", file=sys.stderr)


if __name__ == "__main__":
    main()
