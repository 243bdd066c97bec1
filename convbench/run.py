#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 convbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Configures and builds convbench/ (the
middleware sources, the scheduler daemon and the load generator) into
$CARGO_TARGET_DIR, default .bench_build, with build output on stderr, then
runs the load generator. Its last stdout line is the result JSON. Scratch
state goes to .bench_run/.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(build_dir):
    if not os.path.isdir(os.path.join(ROOT, "src")) or not os.path.isfile(
        os.path.join(ROOT, "tools", "convgpu_scheduler_main.cc")
    ):
        sys.stderr.write("convbench: no src/ and tools/ beside convbench/; nothing to build\n")
        return False
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", build_dir, "-j", "4"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.stderr.write("convbench: build step failed: %s\n" % " ".join(step))
            return False
    return True


def main():
    build_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, build_dir) if not os.path.isabs(build_dir) else build_dir
    if not build(build_dir):
        return 2
    binary = os.path.join(build_dir, "convbench")
    os.chdir(ROOT)
    # Relative run directory: keeps every UNIX socket path short.
    proc = subprocess.run([binary, "--run-dir", ".bench_run"] + sys.argv[1:])
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
