#!/usr/bin/env python3
"""Self-check of the benchmark at smoke size, for every workload.

    python3 perfbench/selfcheck.py

Runs each workload twice with --smoke --trace 1 on one seed and checks:

  * every learn matched the fastbns-seq reference (correct, failed == 0);
  * the tracing wrappers left the result unchanged: the traced learns'
    digest and CI-test count equal the untraced learns';
  * the layer split covers the skeleton: work-list + run_depth + commit
    spans, timed at the engine seams, sum to the driver's own skeleton
    seconds within 2%;
  * count metrics repeat exactly between the two runs;
  * the process engine made no recoveries;
  * the result line carries exactly the per-layer metrics BENCHMARK.json
    declares.

Exit status is 0 when every check passes. Standard-library Python only.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SPEC = os.path.join(ROOT, "BENCHMARK.json")
OUT = os.path.join(ROOT, ".bench_build", "selfcheck")
WORKLOADS = ("munin1-g2", "wide-g2", "sem-fisherz", "munin1-ranks")
SEED = 11
LAYER_SUM_TOLERANCE = 0.02
COUNTS = ("pc.ci_tests", "pc.edges", "pc.max_depth", "pc.d0.tests",
          "pc.d1.tests", "pc.d2.tests", "pc.d3.tests", "stats.tests",
          "stats.calls_single", "stats.calls_batch", "stats.oversized",
          "stats.degenerate", "ipc.recoveries")


def run_once(workload, tag):
    results = os.path.join(OUT, tag)
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1", "--smoke",
         "--results", results],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError("%s run %s exited %d:\n%s"
                           % (workload, tag, proc.returncode, proc.stderr))
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(os.path.join(results, "%s-seed%d-trace1.json"
                           % (workload, SEED))) as handle:
        return line, json.load(handle)


def check_workload(workload):
    """Returns a list of failure messages (empty when it passes)."""
    failures = []
    first, report = run_once(workload, "a")
    second, _ = run_once(workload, "b")
    for name, line in (("a", first), ("b", second)):
        if not line["correct"] or line["failed"] != 0:
            failures.append("run %s: correct=%s failed=%d"
                            % (name, line["correct"], line["failed"]))
    checks = report["checks"]
    if not checks["traced_digest_matches"]:
        failures.append("traced learn changed the result digest")
    if not checks["traced_ci_tests_match"]:
        failures.append("traced learn changed the CI-test count")
    if checks["layer_sum_rel_err"] > LAYER_SUM_TOLERANCE:
        failures.append("worklist + run + commit is %.2f%% off the skeleton time"
                        % (100.0 * checks["layer_sum_rel_err"]))
    for name in COUNTS:
        a = first["metrics"][name]["value"]
        b = second["metrics"][name]["value"]
        if a != b:
            failures.append("%s differs between runs: %r vs %r" % (name, a, b))
    if first["metrics"]["ipc.recoveries"]["value"] != 0:
        failures.append("process engine recovered from a fault")
    with open(SPEC) as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)["per_layer"]}
    printed = {k: v["unit"] for k, v in first["metrics"].items()}
    if printed != declared:
        failures.append("per-layer metrics differ from BENCHMARK.json: %s"
                        % sorted(set(printed.items()) ^ set(declared.items())))
    return failures


def main():
    failed = 0
    for workload in WORKLOADS:
        try:
            failures = check_workload(workload)
        except (RuntimeError, OSError, ValueError, KeyError,
                subprocess.SubprocessError) as error:
            failures = [str(error)]
        print("%-14s %s" % (workload, "PASS" if not failures else "FAIL"))
        for failure in failures:
            print("    " + failure)
        failed += bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
