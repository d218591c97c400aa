#!/usr/bin/env python3
"""Compare two BENCH_resolver.json files and print a markdown delta table.

Usage: bench_delta.py [--gate] <committed.json> <fresh.json>

Walks both documents, pairs up every numeric leaf present in both (dotted paths;
list elements are matched by index), and prints one row per metric with the
relative change.  Throughput-like metrics (queries_per_second, speedup, hit_rate,
*_per_second) regress when they go DOWN; latency-like metrics (*_ms, *_us, *_ns,
*_bytes — the daemon_latency percentiles among them) regress when they go UP.
Peak-RSS metrics (*_rss_kb) are deliberately report-only: they appear in the
table but never earn a warning and never trip --gate — ru_maxrss is a monotone
process-wide high-water mark, and map/workload growth moves it legitimately.
Regressions beyond the threshold get a warning marker so they stand out in the CI
job summary — the job does not fail on them (runner hardware varies); the table is
the reviewable artifact.  `--gate` flips that: exit 1 when any metric regressed,
for local before/after runs on the SAME machine where the numbers are comparable.

A benchmark section present in only one of the two files is normal, not an error:
a newly landed benchmark has no committed baseline on its first CI run, and a
retired one lingers in the baseline until re-recorded.  One-sided sections are
reported as such (and their leaves kept out of the metric noise); the diff only
covers ground both files share.

Exit status: 0 always, unless an input file is missing or unparsable.
"""

import json
import sys

THRESHOLD = 0.10  # relative change that earns a warning marker

LOWER_IS_BETTER = ("_ms", "_us", "_ns", "_bytes")
HIGHER_IS_BETTER = ("_per_second", "speedup", "hit_rate", "resolved", "queries")
REPORT_ONLY = ("_rss_kb",)  # peak RSS: recorded for the reviewer, never gated


def numeric_leaves(node, prefix=""):
    """Yields (dotted_path, value) for every int/float leaf."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from numeric_leaves(value, f"{prefix}{key}.")
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from numeric_leaves(value, f"{prefix}{index}.")
    elif isinstance(node, bool):
        return  # bools are ints in Python; not metrics
    elif isinstance(node, (int, float)):
        yield prefix.rstrip("."), node


def direction(path):
    leaf = path.rsplit(".", 1)[-1]
    if any(leaf.endswith(suffix) for suffix in REPORT_ONLY):
        return 0
    if any(leaf.endswith(suffix) for suffix in LOWER_IS_BETTER):
        return -1  # an increase is a regression
    if any(leaf.endswith(suffix) or leaf == suffix.strip("_") for suffix in HIGHER_IS_BETTER):
        return +1  # a decrease is a regression
    return 0  # counts and configuration: report, never flag


def fmt(value):
    if isinstance(value, float) and value != int(value):
        return f"{value:,.3f}"
    return f"{int(value):,}"


def main():
    argv = sys.argv[1:]
    gate = "--gate" in argv
    argv = [arg for arg in argv if arg != "--gate"]
    if len(argv) != 2:
        sys.stderr.write(__doc__)
        return 2
    try:
        with open(argv[0]) as committed_file:
            committed = json.load(committed_file)
        with open(argv[1]) as fresh_file:
            fresh = json.load(fresh_file)
    except (OSError, json.JSONDecodeError) as error:
        sys.stderr.write(f"bench_delta: {error}\n")
        return 2

    committed_leaves = dict(numeric_leaves(committed))
    fresh_leaves = dict(numeric_leaves(fresh))
    shared = [path for path in committed_leaves if path in fresh_leaves]

    committed_sections = set(committed) if isinstance(committed, dict) else set()
    fresh_sections = set(fresh) if isinstance(fresh, dict) else set()
    new_sections = sorted(fresh_sections - committed_sections)
    retired_sections = sorted(committed_sections - fresh_sections)

    print("### BENCH_resolver.json: committed vs this build\n")
    if new_sections:
        print("> ℹ️ new benchmark section(s) with no committed baseline yet "
              "(recorded, not diffed): "
              + ", ".join(f"`{name}`" for name in new_sections) + "\n")
    if retired_sections:
        print("> ℹ️ section(s) only in the committed baseline (not produced by "
              "this build): "
              + ", ".join(f"`{name}`" for name in retired_sections) + "\n")
    hw_path = "parallel_batch.hardware_threads"
    if committed_leaves.get(hw_path) != fresh_leaves.get(hw_path):
        print(f"> ⚠️ **hardware mismatch**: committed numbers came from a "
              f"{committed_leaves.get(hw_path)}-thread machine, this run has "
              f"{fresh_leaves.get(hw_path)} — scaling and throughput rows are not "
              f"comparable; treat this table as a re-baseline, not a regression check.\n")
    print("| metric | committed | fresh | delta |")
    print("|---|---:|---:|---:|")
    warnings = 0
    for path in shared:
        old, new = committed_leaves[path], fresh_leaves[path]
        if old == 0:
            delta_text = "n/a" if new != 0 else "0%"
            marker = ""
        else:
            delta = (new - old) / old
            sign = direction(path)
            regressed = sign != 0 and sign * delta < -THRESHOLD
            warnings += regressed
            marker = " ⚠️" if regressed else ""
            delta_text = f"{delta:+.1%}"
        print(f"| `{path}` | {fmt(old)} | {fmt(new)} | {delta_text}{marker} |")

    # New individual metrics inside SHARED sections; whole new sections were
    # already announced above and would only add noise here.
    only_fresh = sorted(path for path in set(fresh_leaves) - set(committed_leaves)
                        if path.split(".", 1)[0] not in new_sections)
    if only_fresh:
        print(f"\n{len(only_fresh)} new metric(s) not in the committed file: "
              + ", ".join(f"`{path}`" for path in only_fresh[:10])
              + ("…" if len(only_fresh) > 10 else ""))
    # ... and metrics a shared section no longer produces.
    only_committed = sorted(path for path in set(committed_leaves) - set(fresh_leaves)
                            if path.split(".", 1)[0] not in retired_sections)
    if only_committed:
        print(f"\n{len(only_committed)} retired metric(s) only in the committed file: "
              + ", ".join(f"`{path}`" for path in only_committed[:10])
              + ("…" if len(only_committed) > 10 else ""))
    if warnings:
        print(f"\n⚠️ {warnings} metric(s) regressed by more than {THRESHOLD:.0%}.")
    else:
        print("\nNo metric regressed by more than "
              f"{THRESHOLD:.0%} (runner-to-runner noise notwithstanding).")
    return 1 if gate and warnings else 0


if __name__ == "__main__":
    sys.exit(main())
