#!/usr/bin/env python3
"""Steadiness check: two interleaved sets of benchmark runs of one build.

Usage:
  python3 perfbench/steady.py [--workloads grid,fuzz] [--runs N]
                              [--seed-base S] [--seconds T]
  python3 perfbench/steady.py --self-test

For each workload it runs the BENCHMARK.json command N times per set with
seeds S, S+1, ..., alternating which set goes first, so both sets see the
same machine drift. Both sets use the same seeds, so their pinned or
per-run digests must agree seed by seed. For every end-to-end metric it
prints each set's median and quartiles (statistics.quantiles, n=4) and
its spread, the interquartile distance as a share of the median, and
judges it against BENCHMARK.json:

  PASS  spread <= bound in both sets, and set B's median is not worse
        than set A's by more than the bound;
  (a `*` marks a spread above a third of the bound: steady enough to
  pass, not enough to be comfortable).

Exit status: 0 when every run was correct and every metric passed, 1
otherwise, 2 on a usage error. Run it from the root of the checkout.
"""
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spread(values):
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / med if med else float("inf")


def worse_by(first, second, better):
    """How much worse `second` is than `first`, as a share of `first`."""
    if first == 0:
        return 0.0
    change = (second - first) / first
    return change if better == "lower" else -change


def verdict(metric, set_a, set_b):
    """(ok, spread_a, spread_b, worse) for one metric's two sets."""
    bound = metric["bound"]
    sa, sb = spread(set_a), spread(set_b)
    worse = worse_by(statistics.median(set_a), statistics.median(set_b),
                     metric["better"])
    ok = worse <= bound and sa <= bound and sb <= bound
    return ok, sa, sb, worse


def run_once(bench, workload, seed, seconds):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    lines = proc.stdout.strip().splitlines()
    digest = next((ln.split()[1] for ln in lines if ln.startswith("digest ")),
                  None)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    return proc.returncode, result, digest


def self_test():
    checks = [
        (spread([1, 2, 3, 4, 5]) == (4.5 - 1.5) / 3, "spread of 1..5"),
        (spread([7]) == 0.0, "spread of one value"),
        (abs(worse_by(100, 110, "lower") - 0.10) < 1e-12, "lower-better worsening"),
        (abs(worse_by(100, 90, "higher") - 0.10) < 1e-12, "higher-better worsening"),
        (worse_by(100, 90, "lower") < 0, "improvement is negative"),
        (verdict({"name": "x", "bound": 0.1, "better": "lower"},
                 [10, 10, 10, 10], [10.5, 10.5, 10.5, 10.5])[0], "within bound"),
        (not verdict({"name": "x", "bound": 0.1, "better": "lower"},
                     [10, 10, 10, 10], [12, 12, 12, 12])[0], "median worse than bound"),
        (not verdict({"name": "x", "bound": 0.1, "better": "lower"},
                     [5, 10, 15, 20], [10, 10, 10, 10])[0], "spread above bound"),
        (not verdict({"name": "setup_s", "bound": 0.1, "better": "lower"},
                     [5, 10, 15, 20], [10, 10, 10, 10])[0], "setup_s spread is judged too"),
    ]
    bad = [what for ok, what in checks if not ok]
    for what in bad:
        print(f"self-test FAIL: {what}")
    print("self-test ok" if not bad else "self-test FAILED")
    return 0 if not bad else 1


def main(argv):
    args = argv[1:]
    if "--self-test" in args:
        return self_test()
    opts = {"--workloads": None, "--runs": "10", "--seed-base": "1000",
            "--seconds": None}
    it = iter(args)
    for a in it:
        if a in ("-h", "--help"):
            print(__doc__.strip())
            return 0
        if a not in opts:
            print(f"unknown argument: {a} (try --help)", file=sys.stderr)
            return 2
        opts[a] = next(it, None)
        if opts[a] is None:
            print(f"missing value for {a}", file=sys.stderr)
            return 2

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    workloads = (opts["--workloads"].split(",") if opts["--workloads"]
                 else [w["name"] for w in bench["workloads"]])
    runs = int(opts["--runs"])
    seed_base = int(opts["--seed-base"])
    seconds = opts["--seconds"] or str(bench["run_seconds"])
    metrics = bench["end_to_end"]

    all_ok = True
    for wl in workloads:
        values = {"A": {}, "B": {}}
        digests = {"A": {}, "B": {}}
        for i in range(runs):
            seed = seed_base + i
            for s in (("A", "B") if i % 2 == 0 else ("B", "A")):
                code, result, digest = run_once(bench, wl, seed, seconds)
                if code != 0 or result is None or not result.get("correct"):
                    print(f"{wl} set {s} seed {seed}: exit {code}, result {result}")
                    all_ok = False
                    continue
                digests[s][seed] = digest
                for name, m in result["metrics"].items():
                    values[s].setdefault(name, []).append(m["value"])
        mismatched = [sd for sd in digests["A"]
                      if sd in digests["B"] and digests["A"][sd] != digests["B"][sd]]
        if mismatched:
            print(f"{wl}: digests differ between sets for seeds {mismatched}")
            all_ok = False

        print(f"\n{wl}: {runs} runs per set, seeds {seed_base}..{seed_base + runs - 1}, "
              f"{seconds} s each")
        print(f"  {'metric':30} {'set':3} {'median':>14} {'q1':>14} {'q3':>14} "
              f"{'spread':>8} {'bound':>6}")
        for m in metrics:
            a = values["A"].get(m["name"])
            b = values["B"].get(m["name"])
            if not a or not b:
                print(f"  {m['name']:30} missing")
                all_ok = False
                continue
            ok, sa, sb, worse = verdict(m, a, b)
            for s, vals, sp in (("A", a, sa), ("B", b, sb)):
                q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
                mark = "*" if sp > m["bound"] / 3 else " "
                print(f"  {m['name']:30} {s:3} {statistics.median(vals):14.6g} "
                      f"{q1:14.6g} {q3:14.6g} {sp:7.2%}{mark} {m['bound']:6}")
            print(f"  {'':30} {'':3} B vs A median: {worse:+.2%} worse -> "
                  f"{'PASS' if ok else 'FAIL'}")
            all_ok = all_ok and ok
    print("\nsteady: " + ("PASS" if all_ok else "FAIL"))
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
