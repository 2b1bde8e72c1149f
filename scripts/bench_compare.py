#!/usr/bin/env python3
"""Merge bench JSON fragments and gate PRs on perf regressions.

Stdlib-only companion to the `bench-smoke` CI job:

    # combine per-binary outputs into the PR artifact
    bench_compare.py merge BENCH_throughput.json BENCH_kernel.json -o BENCH_pr.json

    # fail (exit 1) on regressions against the committed baseline
    bench_compare.py compare BENCH_pr.json BENCH_baseline.json

Gating rules (see README "Performance tracking"):

* keys whose name contains ``qps`` or ``objs_per_s`` are throughput: the
  PR value must not fall more than ``--threshold`` percent (default 15,
  env override ``BENCH_REGRESSION_PCT``) below the baseline;
* keys containing ``_ns_per_`` are latencies: the PR value must not rise
  more than the threshold above the baseline;
* within the PR file alone, the batched kernel must beat the scalar one
  (``kernel_bench.batched_ns_per_entry < kernel_bench.scalar_ns_per_entry``)
  — the whole point of the columnar path — and the fast screen tier, at
  its full no-threshold price, must cost at most half the batched kernel
  at the paper's two dimensionalities
  (``kernel_bench.d10.fast_ns_per_entry <= 0.5 x …d10.batched_ns_per_entry``,
  same at ``d27``; a same-machine ratio, so it gates robustly);
* within the PR file alone, the quantised leaf format must earn its keep:
  fewer physical page reads than the exact format on the fig7-style
  datapoint (``kernel_bench.quantised_physical_reads <
  kernel_bench.exact_physical_reads``; deterministic for the fixed seed)
  and a smaller per-entry leaf encoding
  (``kernel_bench.leaf_bytes_per_entry <
  kernel_bench.exact_leaf_bytes_per_entry``);
* within the PR file alone, the Gauss-forest's sustained mixed ingest
  must run at least 5x the single-tree read-modify-write baseline with
  bit-identical snapshot k-MLIQ answers
  (``sustained_ingest.forest_speedup >= 5`` and
  ``sustained_ingest.bit_identical == 1``; the speedup is a same-machine
  ratio, so it gates robustly across runner classes);
* within the PR file alone, batched page writes must cut physical write
  calls at least 4x against per-node writes
  (``build_bench.write_call_reduction >= 4``; deterministic for the fixed
  seed), and on a multi-core runner the parallel bulk load must not lose
  to the serial one (``parallel_objs_per_s >= serial_objs_per_s`` whenever
  the PR reports ``cores >= 2`` and ``threads_max >= 2``; skipped — not
  failed — on a 1-core runner);
* every other shared numeric key (page reads, hit counts) is reported as
  informational only: those are deterministic given a fixed seed, so a
  drift is worth eyeballing but hardware-independent gating on them would
  mask intentional algorithm changes.

Absolute qps/ns numbers are hardware-bound: refresh BENCH_baseline.json
(see README) whenever the CI runner class changes.
"""

import argparse
import json
import os
import sys


# The fast screen tier may cost at most this share of the batched exact
# kernel (kernel_bench, d10 and d27).
FAST_TIER_MAX_SHARE = 0.5


def flatten(obj, prefix=""):
    """Yields (dotted_key, value) for every numeric leaf."""
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from flatten(v, f"{prefix}.{k}" if prefix else k)
    elif isinstance(obj, (int, float)) and not isinstance(obj, bool):
        yield prefix, obj


def flat(obj):
    out = {}
    for key, val in flatten(obj):
        out[key] = val
    return out


def load(path):
    try:
        with open(path, "r", encoding="utf-8") as f:
            return json.load(f)
    except FileNotFoundError:
        sys.exit(f"error: bench file {path!r} does not exist")
    except json.JSONDecodeError as exc:
        sys.exit(f"error: {path} is not valid JSON: {exc}")


def cmd_merge(args):
    merged = {}
    for path in args.inputs:
        doc = load(path)
        if not isinstance(doc, dict):
            sys.exit(f"error: {path} is not a JSON object")
        merged.update(doc)
    with open(args.output, "w", encoding="utf-8") as f:
        json.dump(merged, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"merged {len(args.inputs)} file(s) -> {args.output}")
    return 0


def classify(key):
    leaf = key.rsplit(".", 1)[-1]
    if "qps" in leaf or "objs_per_s" in leaf:
        return "higher"
    if "_ns_per_" in leaf:
        return "lower"
    return "info"


def cmd_compare(args):
    pr = flat(load(args.pr))
    base = flat(load(args.baseline))
    threshold = args.threshold
    failures = []

    def require(doc, key, which):
        """Fetches a required flattened key; records one clear per-key
        failure (instead of a KeyError traceback) when it is absent."""
        if key not in doc:
            failures.append(
                f"required key {key!r} is missing from {which} — "
                f"was the emitting bench binary changed without updating "
                f"this gate (or vice versa)?"
            )
            return None
        return doc[key]

    print(f"comparing {args.pr} against {args.baseline} (threshold {threshold}%)")
    print(f"{'key':<44} {'baseline':>14} {'pr':>14} {'delta':>9}")
    for key in sorted(set(pr) & set(base)):
        b, p = base[key], pr[key]
        if b == 0:
            delta_pct = 0.0 if p == 0 else float("inf")
        else:
            delta_pct = (p - b) / b * 100.0
        kind = classify(key)
        verdict = ""
        if kind == "higher" and delta_pct < -threshold:
            verdict = "REGRESSION"
            failures.append(
                f"{key}: throughput fell {-delta_pct:.1f}% ({b:.1f} -> {p:.1f})"
            )
        elif kind == "lower" and delta_pct > threshold:
            verdict = "REGRESSION"
            failures.append(
                f"{key}: latency rose {delta_pct:.1f}% ({b:.2f} -> {p:.2f})"
            )
        elif kind == "info" and p != b:
            verdict = "changed (informational)"
        print(f"{key:<44} {b:>14.2f} {p:>14.2f} {delta_pct:>+8.1f}% {verdict}")

    only_pr = sorted(set(pr) - set(base))
    if only_pr:
        print(f"new keys (not in baseline, not gated): {', '.join(only_pr)}")
    for key in sorted(set(base) - set(pr)):
        failures.append(
            f"required key {key!r} is present in the baseline "
            f"({args.baseline}) but missing from the PR results ({args.pr})"
        )

    # The columnar kernel must actually win, independent of any baseline.
    scalar = require(pr, "kernel_bench.scalar_ns_per_entry", args.pr)
    batched = require(pr, "kernel_bench.batched_ns_per_entry", args.pr)
    if scalar is None or batched is None:
        pass  # per-key failures already recorded by require()
    elif not batched < scalar:
        failures.append(
            f"batched kernel does not beat the scalar path: "
            f"{batched:.2f} ns/entry vs {scalar:.2f} ns/entry"
        )
    else:
        print(
            f"kernel invariant ok: batched {batched:.2f} ns/entry beats "
            f"scalar {scalar:.2f} ns/entry ({scalar / batched:.2f}x)"
        )

    # The fast screen tier — one divide per dimension, one ln per entry —
    # must cost at most half the exact batched kernel at both of the
    # paper's dimensionalities (data set 2: d=10, data set 1: d=27), even
    # with no threshold to abandon on. A same-machine ratio.
    for d in ("d10", "d27"):
        fast = require(pr, f"kernel_bench.{d}.fast_ns_per_entry", args.pr)
        batched_d = require(pr, f"kernel_bench.{d}.batched_ns_per_entry", args.pr)
        if fast is None or batched_d is None:
            pass
        elif not fast <= FAST_TIER_MAX_SHARE * batched_d:
            failures.append(
                f"fast screen tier costs more than {FAST_TIER_MAX_SHARE:.0%} of "
                f"the batched kernel at {d}: "
                f"{fast:.2f} ns/entry vs {batched_d:.2f} ns/entry"
            )
        else:
            print(
                f"kernel invariant ok ({d}): fast tier {fast:.2f} ns/entry "
                f"is {fast / batched_d:.0%} of batched {batched_d:.2f}"
            )

    # The quantised leaf format must pay off in the paper's fig7 metric:
    # fewer physical page reads for the identical answer set, from a
    # smaller per-entry encoding. Both are deterministic for the fixed
    # bench seed (MemStore, fixed cache), so equality means the datapoint
    # degenerated, not that the runner was slow.
    q_ns = require(pr, "kernel_bench.quantised_ns_per_entry", args.pr)
    q_bytes = require(pr, "kernel_bench.leaf_bytes_per_entry", args.pr)
    e_bytes = require(pr, "kernel_bench.exact_leaf_bytes_per_entry", args.pr)
    e_reads = require(pr, "kernel_bench.exact_physical_reads", args.pr)
    q_reads = require(pr, "kernel_bench.quantised_physical_reads", args.pr)
    if None in (q_ns, q_bytes, e_bytes, e_reads, q_reads):
        pass  # per-key failures already recorded by require()
    else:
        if not q_bytes < e_bytes:
            failures.append(
                f"quantised leaf entries are not smaller than exact ones: "
                f"{q_bytes:.0f} vs {e_bytes:.0f} bytes/entry"
            )
        if not q_reads < e_reads:
            failures.append(
                f"quantised tree did not reduce physical reads on the fig7 "
                f"datapoint: {q_reads:.0f} vs {e_reads:.0f}"
            )
        if q_bytes < e_bytes and q_reads < e_reads:
            print(
                f"quantised-leaf invariant ok: {q_bytes:.0f} vs {e_bytes:.0f} "
                f"bytes/entry, fig7 physical reads {q_reads:.0f} vs "
                f"{e_reads:.0f} ({e_reads / max(q_reads, 1):.2f}x fewer), "
                f"kernel {q_ns:.2f} ns/entry"
            )

    # Batched page writes must actually coalesce (deterministic: write-call
    # counts depend only on the fixed-seed tree shape, not the hardware).
    reduction = require(pr, "build_bench.write_call_reduction", args.pr)
    if reduction is None:
        pass
    elif reduction < 4.0:
        failures.append(
            f"batched page writes coalesce only {reduction:.2f}x "
            f"(< 4x) against per-node writes"
        )
    else:
        print(f"build invariant ok: batched writes cut write calls {reduction:.1f}x")

    # The durability datapoint must be present: the fsync'd commit path
    # has to keep being measured (its absolute cost is hardware-bound and
    # not gated, but losing the measurement would hide regressions), and
    # the fsync path must actually issue barriers. The committed-baseline
    # objs_per_s gate above covers the Durability::None fast path, since
    # the default build options are durability-free.
    dur_none = require(pr, "build_bench.durability_none_objs_per_s", args.pr)
    dur_fsync = require(pr, "build_bench.durability_fsync_objs_per_s", args.pr)
    fsync_calls = require(pr, "build_bench.fsync_calls", args.pr)
    if dur_none is None or dur_fsync is None or fsync_calls is None:
        pass
    elif dur_none <= 0 or dur_fsync <= 0:
        failures.append(
            f"durability datapoint degenerate: none {dur_none}, fsync {dur_fsync} objs/s"
        )
    elif fsync_calls < 1:
        failures.append("Durability::Fsync build issued no fsyncs")
    else:
        print(
            f"durability datapoint ok: fsync path {dur_fsync:.0f} objs/s vs "
            f"none {dur_none:.0f} ({fsync_calls:.0f} fsyncs, "
            f"{dur_none / dur_fsync:.2f}x overhead)"
        )

    # The MVCC datapoint must be present: k-MLIQ throughput over a pinned
    # snapshot while a writer commits new epochs. Its absolute value is
    # gated by the generic qps rule above (the leaf key contains "qps");
    # this check only refuses a bench build that stopped measuring it or
    # one where the snapshot read path produced no work at all.
    qps_ingest = require(pr, "throughput.qps_during_ingest", args.pr)
    if qps_ingest is None:
        pass
    elif qps_ingest <= 0:
        failures.append(
            f"snapshot-during-ingest datapoint degenerate: "
            f"{qps_ingest} queries/s"
        )
    else:
        print(
            f"mvcc datapoint ok: {qps_ingest:.0f} snapshot queries/s "
            f"during concurrent ingest"
        )

    # Bench numbers are only meaningful with the lock-order detector
    # compiled out: a release bench build must report lock_tracking == 0.
    # (The field is emitted by the throughput binary from the
    # gauss_storage::LOCK_TRACKING const; a debug build or one built with
    # `--features lock-tracking` reports 1 and pays a per-lock probe.)
    lock_tracking = require(pr, "throughput.lock_tracking", args.pr)
    if lock_tracking is None:
        pass
    elif lock_tracking != 0:
        failures.append(
            "bench binary was built with lock-order tracking enabled "
            "(throughput.lock_tracking != 0); rebuild with --release and "
            "without the lock-tracking feature"
        )
    else:
        print("lock-tracking invariant ok: detector compiled out of the bench build")

    # Parallel bulk load must not lose to serial — but only where the
    # hardware can express parallelism at all; a 1-core runner skips.
    cores = pr.get("build_bench.cores", 0)
    threads_max = pr.get("build_bench.threads_max", 0)
    serial = pr.get("build_bench.serial_objs_per_s")
    parallel = pr.get("build_bench.parallel_objs_per_s")
    if cores >= 2 and threads_max >= 2:
        if serial is None or parallel is None:
            for key in (
                "build_bench.serial_objs_per_s",
                "build_bench.parallel_objs_per_s",
            ):
                require(pr, key, args.pr)
        elif parallel < serial:
            failures.append(
                f"parallel bulk load is slower than serial on a {cores:.0f}-core "
                f"runner: {parallel:.0f} vs {serial:.0f} objects/s"
            )
        else:
            print(
                f"build invariant ok: parallel {parallel:.0f} objects/s >= "
                f"serial {serial:.0f} on {cores:.0f} cores"
            )
    else:
        print(
            f"build parallel>=serial invariant skipped "
            f"(cores={cores:.0f}, threads_max={threads_max:.0f})"
        )

    # The Gauss-forest write path must earn its keep: sustained mixed
    # ingest (drift-stream upserts + deletes, file-backed both sides) at
    # least 5x the single-tree read-modify-write baseline, with snapshot
    # k-MLIQ answers bit-identical to a fresh reference tree over the
    # same live set. The speedup is a same-machine ratio (both sides run
    # in one process), so unlike raw objs/s it gates robustly across
    # runner classes; bit_identical is exact and deterministic.
    f_ops = require(pr, "sustained_ingest.forest_objs_per_s", args.pr)
    s_ops = require(pr, "sustained_ingest.single_objs_per_s", args.pr)
    speedup = require(pr, "sustained_ingest.forest_speedup", args.pr)
    bit_identical = require(pr, "sustained_ingest.bit_identical", args.pr)
    p99_us = require(pr, "sustained_ingest.p99_query_us", args.pr)
    if None in (f_ops, s_ops, speedup, bit_identical, p99_us):
        pass  # per-key failures already recorded by require()
    else:
        if speedup < 5.0:
            failures.append(
                f"forest sustained ingest is only {speedup:.2f}x the "
                f"single-tree baseline (< 5x): {f_ops:.0f} vs {s_ops:.0f} objs/s"
            )
        if bit_identical != 1:
            failures.append(
                "forest snapshot k-MLIQ answers diverged from the quiesced "
                "reference tree (sustained_ingest.bit_identical != 1)"
            )
        if p99_us <= 0:
            failures.append(
                f"mid-ingest query probe degenerate: p99 {p99_us} us"
            )
        if speedup >= 5.0 and bit_identical == 1 and p99_us > 0:
            print(
                f"forest invariant ok: ingest {f_ops:.0f} objs/s, "
                f"{speedup:.2f}x single tree, mid-ingest k-MLIQ p99 "
                f"{p99_us:.0f} us, answers bit-identical"
            )

    if failures:
        print("\nFAIL:", file=sys.stderr)
        for f in failures:
            print(f"  - {f}", file=sys.stderr)
        return 1
    print("\nOK: no perf regressions beyond threshold")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_merge = sub.add_parser("merge", help="merge JSON fragments into one object")
    p_merge.add_argument("inputs", nargs="+", help="input JSON files")
    p_merge.add_argument("-o", "--output", required=True, help="output path")
    p_merge.set_defaults(func=cmd_merge)

    p_cmp = sub.add_parser("compare", help="gate a PR result against a baseline")
    p_cmp.add_argument("pr", help="PR bench JSON (BENCH_pr.json)")
    p_cmp.add_argument("baseline", help="committed baseline (BENCH_baseline.json)")
    p_cmp.add_argument(
        "--threshold",
        type=float,
        default=float(os.environ.get("BENCH_REGRESSION_PCT", "15")),
        help="allowed regression in percent (default 15, env BENCH_REGRESSION_PCT)",
    )
    p_cmp.set_defaults(func=cmd_compare)

    args = parser.parse_args()
    sys.exit(args.func(args))


if __name__ == "__main__":
    main()
