"""Repeat one workload and print each metric's median and quartile spread.

Usage (from the root of a checkout)::

    python3 wbbench/selfcheck.py --workload txn-mix --runs 10

Runs ``wbbench/run.py`` once per seed (``--first-seed``, then one more
per run, or the same seed every time with ``--seed-step 0``), each in
its own process and one after another.  For every metric it prints the
median, the first and third quartiles as ``statistics.quantiles(values,
n=4)`` gives them, and the spread ``(q3 - q1) / median``.  For the
end-to-end metrics it also prints the bound from ``BENCHMARK.json`` and
whether the spread stays below a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seed-step", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {}
    units = {}
    for run in range(args.runs):
        seed = args.first_seed + run * args.seed_step
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            print("seed %d failed (exit %d)\n%s%s"
                  % (seed, done.returncode, done.stdout, done.stderr))
            return 1
        result = json.loads(lines[-1])
        print("seed %d: %d ops, %d failed" % (
            seed, result["attempted"], result["failed"]), flush=True)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]

    print("%-36s %12s %12s %12s %8s %6s" % (
        "metric", "median", "q1", "q3", "spread", "bound"))
    within = True
    for name, series in values.items():
        median = statistics.median(series)
        q1, _q2, q3 = statistics.quantiles(series, n=4)
        spread = (q3 - q1) / median if median else 0.0
        bound = bounds.get(name)
        mark = ""
        if bound is not None and name != "setup_s":
            steady = spread < bound / 3
            within = within and spread <= bound
            mark = "ok" if steady else "WIDE"
        print("%-36s %12.6g %12.6g %12.6g %8.4f %6s %s %s" % (
            name, median, q1, q3, spread,
            "" if bound is None else bound, mark, units[name]))
    return 0 if within else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
