#!/usr/bin/env python3
"""Compare two sets of perfbench results, workload by workload.

    python3 perfbench/compare.py BASE NEW

BASE and NEW are report files or directories of them (the JSON files
run.py writes under --results). For each workload and metric present in
both sets the tool prints the median and quartiles of each side and a
verdict:

  worse       the new median is worse than the base median by more than
              the metric's bound in BENCHMARK.json (per-layer metrics,
              which have no bound: by more than the base spread)
  better      the new median is better by more than the base's own
              spread (third minus first quartile, as a share of median),
              or every new run beats every base run
  same        neither
  unresolved  the base spread is wider than the metric's bound, so the
              runs cannot show a regression of that size

Exit status is 1 when any end-to-end metric is worse, 0 otherwise.
Standard-library Python only.
"""
import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
DEFAULT_SPEC = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")


def load_reports(path):
    """Yields every report object under `path`."""
    if os.path.isdir(path):
        for root, _, files in os.walk(path):
            for name in sorted(files):
                if name.endswith(".json"):
                    yield from load_reports(os.path.join(root, name))
        return
    with open(path) as handle:
        report = json.load(handle)
    if isinstance(report, dict) and "workload" in report and "metrics" in report:
        yield report


def collect(path):
    """{(workload, metric): [values]} over every report under `path`."""
    values = {}
    for report in load_reports(path):
        for name, metric in report["metrics"].items():
            values.setdefault((report["workload"], name), []).append(
                float(metric["value"]))
    return values


def summary(values):
    """(median, first quartile, third quartile)."""
    mid = statistics.median(values)
    if len(values) < 2:
        return mid, mid, mid
    q1, _, q3 = statistics.quantiles(values, n=4)
    return mid, q1, q3


def verdict(base, new, lower_is_better, bound):
    base_mid, base_q1, base_q3 = summary(base)
    new_mid = statistics.median(new)
    sign = 1.0 if lower_is_better else -1.0
    if base_mid == 0.0:
        change = 0.0 if new_mid == 0.0 else sign * float("inf")
        spread = 0.0
    else:
        change = sign * (new_mid - base_mid) / abs(base_mid)
        spread = (base_q3 - base_q1) / abs(base_mid)
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if bound is None:
        if -change > spread:
            return change, "better"
        return change, "worse" if change > spread else "same"
    if spread > bound:
        return change, "better" if all_better else "unresolved"
    if change > bound:
        return change, "worse"
    if -change > spread or all_better:
        return change, "better"
    return change, "same"


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("base", help="report file or directory (the parent)")
    parser.add_argument("new", help="report file or directory (the change)")
    parser.add_argument("--benchmark", default=DEFAULT_SPEC,
                        help="BENCHMARK.json with the metrics and bounds")
    args = parser.parse_args()

    with open(args.benchmark) as handle:
        spec = json.load(handle)
    specs = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    order = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    base = collect(args.base)
    new = collect(args.new)
    workloads = [w["name"] for w in spec["workloads"]]

    header = "%-14s %-22s %12s %12s %12s %12s %8s  %s" % (
        "workload", "metric", "base median", "base IQR", "new median",
        "new IQR", "change", "verdict")
    print(header)
    print("-" * len(header))
    worse = 0
    for workload in workloads:
        for name in order:
            key = (workload, name)
            if key not in base or key not in new:
                continue
            metric = specs[name]
            bound = metric.get("bound")
            change, result = verdict(base[key], new[key],
                                     metric["better"] == "lower", bound)
            b_mid, b_q1, b_q3 = summary(base[key])
            n_mid, n_q1, n_q3 = summary(new[key])
            print("%-14s %-22s %12.6g %12.6g %12.6g %12.6g %+7.1f%%  %s (n=%d/%d)"
                  % (workload, name, b_mid, b_q3 - b_q1, n_mid, n_q3 - n_q1,
                     100.0 * change if abs(change) != float("inf") else 0.0,
                     result, len(base[key]), len(new[key])))
            if bound is not None and result == "worse":
                worse += 1
    if not base or not new:
        print("no reports found in %s" % (args.base if not base else args.new),
              file=sys.stderr)
        return 2
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
