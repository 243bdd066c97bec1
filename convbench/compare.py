#!/usr/bin/env python3
"""Compare convbench result files, refusing mismatched environments.

    python3 convbench/compare.py BASE CHANGE

BASE and CHANGE are result files written by convbench
(.bench_run/results/<workload>-s<seed>-t<trace>.json) or directories of
them. Results are grouped by workload and trace mode. For every metric the
script prints each side's median over its runs and the relative change.
It exits 2 without comparing when the two sides' environments differ in
anything other than the seed: build type, ledger audit, nproc, policy,
capacity, run length, trace mode or negotiated codecs. A metric that only
one side reports is listed as missing, and the exit status is 2.
"""
import json
import os
import statistics
import sys

IGNORED_ENV = {"seed", "codecs"}


def load(path):
    files = [path]
    if os.path.isdir(path):
        files = sorted(os.path.join(path, f) for f in os.listdir(path) if f.endswith(".json"))
    groups = {}
    for name in files:
        with open(name) as handle:
            result = json.load(handle)
        env = result["env"]
        groups.setdefault((env["workload"], env["trace"]), []).append(result)
    return groups


def environment(results):
    envs = {tuple(sorted((k, v) for k, v in r["env"].items() if k not in IGNORED_ENV))
            for r in results}
    codecs = {r["env"]["codecs"].startswith("binary=") and r["env"]["codecs"].endswith(" json=0")
              for r in results}
    return envs, codecs


def main(argv):
    if len(argv) != 3:
        sys.stderr.write(__doc__)
        return 2
    base, change = load(argv[1]), load(argv[2])
    status = 0
    for key in sorted(set(base) & set(change)):
        (base_env, base_codec), (change_env, change_codec) = (
            environment(base[key]), environment(change[key]))
        if len(base_env | change_env) != 1 or base_codec != change_codec:
            sys.stderr.write("refusing to compare %s/trace=%s: environments differ:\n  %s\n  %s\n"
                             % (key[0], key[1], sorted(base_env), sorted(change_env)))
            status = 2
            continue
        section = "per_layer" if key[1] == "1" else "end_to_end"
        print("== %s (trace=%s): %d vs %d runs" % (key[0], key[1], len(base[key]), len(change[key])))
        names = {m for r in base[key] + change[key] for m in r[section]}
        for metric in sorted(names):
            a = [r[section][metric]["value"] for r in base[key] if metric in r[section]]
            b = [r[section][metric]["value"] for r in change[key] if metric in r[section]]
            if not a or not b:
                print("  %-44s missing on one side" % metric)
                status = 2
                continue
            a, b = statistics.median(a), statistics.median(b)
            unit = next(r[section][metric]["unit"] for r in base[key] if metric in r[section])
            delta = (b - a) / a * 100 if a else float("nan")
            print("  %-44s %14.4f %14.4f %8.2f%% %s" % (metric, a, b, delta, unit))
    for key in sorted(set(base) ^ set(change)):
        sys.stderr.write("only on one side: %s/trace=%s\n" % key)
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
