#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload, briefly, both modes.

    python3 convbench/tests/smoke.py [--seconds 2]

Runs all three workloads (the two of BENCHMARK.json and tenant_churn, run
by hand, see README.md) for a short untraced and a short traced run through
convbench/run.py, and asserts that:
  * every end-to-end (untraced) or per-layer (traced) metric of
    BENCHMARK.json is printed in the report with its unit and is in the
    result JSON, with the same unit;
  * fail_ratio is 0 and the run says correct with nothing failed;
  * the output checks actually ran: the workload's own checks, the
    container exit check, the end-of-run daemon and device checks, and the
    virtual-time experiment's check.
"""
import argparse
import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

WORKLOAD_CHECKS = {
    "alloc_fanin": ["alloc_fanin.memgetinfo_exact", "alloc_fanin.malloc_granted"],
    "alloc_shared_link": ["alloc_shared_link.memgetinfo_bounds",
                          "alloc_shared_link.malloc_granted"],
    "tenant_churn": ["sample.memgetinfo_whole_limit", "sample.full_limit_malloc"],
}
COMMON_CHECKS = ["container.exit_zero", "end.zero_containers", "end.free_pool_is_capacity",
                 "end.no_kicked_connections", "end.device_all_free",
                 "des.all_containers_finished"]


def run(workload, trace, seconds):
    command = [sys.executable, os.path.join(ROOT, "convbench", "run.py"), "--workload",
               workload, "--seed", "7", "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    return proc.returncode, proc.stdout.strip().splitlines()


def verify(workload, trace, expected, seconds):
    code, lines = run(workload, trace, seconds)
    problems = []
    if code != 0:
        problems.append("exit code %d" % code)
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append("result not correct: %s" % lines[-1][:200])
    prefix = "layer" if trace else "metric"
    printed = {}
    for line in lines:
        match = re.match(r"^%s (\S+)\s+(\S+) (\S+)$" % prefix, line)
        if match:
            printed[match.group(1)] = (float(match.group(2)), match.group(3))
    for metric in expected:
        name, unit = metric["name"], metric["unit"]
        if printed.get(name, (None, None))[1] != unit:
            problems.append("%s not printed with unit %s" % (name, unit))
        if result["metrics"].get(name, {}).get("unit") != unit:
            problems.append("%s missing from the JSON or wrong unit" % name)
    fail_ratio = [l for l in lines if l.startswith("metric fail_ratio")]
    if not fail_ratio or float(fail_ratio[0].split()[2]) != 0.0:
        problems.append("fail_ratio is not 0: %s" % fail_ratio)
    ran = {}
    for line in lines:
        match = re.match(r"^check (\S+)\s+ran=(\d+) failed=(\d+)$", line)
        if match:
            ran[match.group(1)] = (int(match.group(2)), int(match.group(3)))
    for check in WORKLOAD_CHECKS[workload] + COMMON_CHECKS:
        if ran.get(check, (0, 0))[0] == 0:
            problems.append("check %s never ran" % check)
        elif ran[check][1] != 0:
            problems.append("check %s failed %d times" % (check, ran[check][1]))
    return problems


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seconds", type=int, default=2)
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    failures = 0
    for workload in WORKLOAD_CHECKS:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            problems = verify(workload, trace, expected, args.seconds)
            status = "ok" if not problems else "FAIL"
            print("%-18s trace=%d %s" % (workload, trace, status))
            for problem in problems:
                print("    " + problem)
            failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
