"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py base.jsonl change.jsonl

Each file holds the JSON lines ``perfbench/run.py --out FILE`` appends,
typically ten runs per workload with different seeds.  For every
workload and end-to-end metric of ``BENCHMARK.json`` the command prints
both medians, both quartile ranges (as a share of their median) and the
ratio of the medians, then a verdict:

``unresolved``
    either side's quartile range exceeds the metric's bound, so the
    runs cannot tell a change of that size from noise;
``worse``
    the change's median is worse than the base's by more than the bound;
``ok``
    neither of the above.

The exit code is 1 when any pair is ``worse``.  Traced runs (``--trace
1``) are skipped: per-layer metrics have no bounds.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load(path: str) -> dict:
    """``{workload: {metric: [values]}}`` plus the revisions seen."""
    runs: dict = {}
    revisions = set()
    with open(path) as handle:
        for line in handle:
            if not line.strip():
                continue
            record = json.loads(line)
            if record.get("trace"):
                continue
            stamp = record["stamp"]
            revisions.add(stamp.get("git_rev") or stamp.get("src_sha256"))
            metrics = runs.setdefault(stamp["workload"], {})
            for name, metric in record["result"]["metrics"].items():
                metrics.setdefault(name, []).append(metric["value"])
    return {"runs": runs, "revisions": sorted(map(str, revisions))}


def summary(values: list[float]) -> tuple[float, float]:
    """Median and quartile range as a share of the median."""
    median = statistics.median(values)
    if len(values) < 2 or not median:
        return median, 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return median, (third - first) / abs(median)


def verdict(metric: dict, base: list[float], change: list[float]) -> tuple:
    base_median, base_spread = summary(base)
    change_median, change_spread = summary(change)
    ratio = change_median / base_median if base_median else float("inf")
    bound = metric["bound"]
    if max(base_spread, change_spread) > bound:
        status = "unresolved"
    elif metric["better"] == "lower":
        status = "worse" if ratio > 1 + bound else "ok"
    else:
        status = "worse" if ratio < 1 - bound else "ok"
    return base_median, base_spread, change_median, change_spread, ratio, status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change")
    args = parser.parse_args(argv)
    with open(BENCHMARK) as handle:
        metrics = json.load(handle)["end_to_end"]
    base, change = load(args.base), load(args.change)
    print(f"base:   {args.base} ({', '.join(base['revisions'])})")
    print(f"change: {args.change} ({', '.join(change['revisions'])})")
    print(
        f"{'workload':10} {'metric':16} {'base':>12} {'iqr':>6} "
        f"{'change':>12} {'iqr':>6} {'ratio':>7}  verdict (bound)"
    )
    worse = False
    for workload in sorted(set(base["runs"]) | set(change["runs"])):
        for metric in metrics:
            name = metric["name"]
            left = base["runs"].get(workload, {}).get(name)
            right = change["runs"].get(workload, {}).get(name)
            if not left or not right:
                print(f"{workload:10} {name:16} missing on one side")
                continue
            b, b_iqr, c, c_iqr, ratio, status = verdict(metric, left, right)
            worse |= status == "worse"
            print(
                f"{workload:10} {name:16} {b:12.5g} {b_iqr:6.3f} "
                f"{c:12.5g} {c_iqr:6.3f} {ratio:7.3f}  {status} "
                f"({metric['bound']}, n={len(left)}/{len(right)})"
            )
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
