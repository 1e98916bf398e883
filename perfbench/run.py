#!/usr/bin/env python3
"""Build and run the benchmark from the root of a source checkout.

Usage:
  python3 perfbench/run.py --workload grid|fuzz|all
                           [--seed N] [--seconds S] [--trace 0|1]
  python3 perfbench/run.py --self-test

The first call configures and builds perfbench/CMakeLists.txt (the
library from src/ plus bench_main.cpp) into $CARGO_TARGET_DIR, or
.bench_build when that is unset; later calls rebuild incrementally.
Each workload runs in its own process of the benchmark program, which
prints the metric tables and, as its last line, the JSON result; this
script forwards its output and exit status. `--workload all` runs every
workload of BENCHMARK.json one after another and exits non-zero if any failed.
"""
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path) if not os.path.isabs(path) else path


def build():
    """Configure (once) and build the benchmark program; returns its path or None."""
    out = os.path.join(build_dir(), "perfbench")
    log = sys.stderr
    # Keep the compiler's temporary files inside the build tree too.
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cfg = subprocess.run(
            ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
            stdout=log, stderr=log, env=env)
        if cfg.returncode != 0:
            return None
    jobs = str(min(4, os.cpu_count() or 1))
    made = subprocess.run(["cmake", "--build", out, "-j", jobs],
                          stdout=log, stderr=log, env=env)
    if made.returncode != 0:
        return None
    program = os.path.join(out, "perfbench_bench")
    return program if os.path.exists(program) else None


def run_program(program, args):
    try:
        proc = subprocess.run([program] + args, cwd=ROOT, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: benchmark program exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return proc.returncode


def main(argv):
    args = list(argv[1:])
    if "-h" in args or "--help" in args:
        print(__doc__.strip())
        return 0
    workload = None
    if "--workload" in args:
        i = args.index("--workload")
        if i + 1 >= len(args):
            print("perfbench: missing value for --workload", file=sys.stderr)
            return 2
        workload = args[i + 1]
    if workload is None and "--self-test" not in args:
        print("perfbench: --workload is required (try --help)", file=sys.stderr)
        return 2

    program = build()
    if program is None:
        print("perfbench: build failed", file=sys.stderr)
        return 1

    extra = ["--pins", os.path.join(HERE, "digests.txt"),
             "--out-dir", os.path.join(build_dir(), "perfbench-traces")]
    if "--self-test" in args:
        return run_program(program, ["--self-test"])
    if workload != "all":
        return run_program(program, args + extra)
    i = args.index("--workload")
    rest = args[:i] + args[i + 2:]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    status = 0
    for name in workloads:
        code = run_program(program, ["--workload", name] + rest + extra)
        status = status or code
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv))
