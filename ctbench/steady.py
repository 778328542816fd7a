#!/usr/bin/env python3
"""Steadiness check: run each workload K times, one seed each, and print
every metric's median, quartiles and spread against its bound.

    python3 ctbench/steady.py [--runs 10] [--trace]

Run from the root of a checkout; the seeds are 1..K.  The spread is
(Q3 - Q1) / median with the quartiles of statistics.quantiles(values,
n=4); a metric is steady when its spread is within its bound in
BENCHMARK.json.  Use it to re-derive the bounds on another host.
"""

import argparse
import json
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, "ctbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, text=True)
    if out.returncode != 0:
        sys.exit("%s seed %d failed with code %d" % (workload, seed, out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", action="store_true", help="per-layer metrics instead")
    args = ap.parse_args()
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    seeds = range(1, args.runs + 1)
    steady = True
    for w in [x["name"] for x in bench["workloads"]]:
        results = [run(w, s, bench["run_seconds"], int(args.trace)) for s in seeds]
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        print("%s: %d runs, seeds %d..%d, %d attempted, %d failed (share %.6g), correct %s"
              % (w, args.runs, seeds[0], seeds[-1], attempted, failed, failed / attempted,
                 all(r["correct"] for r in results)))
        for name in results[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in results]
            unit = results[0]["metrics"][name]["unit"]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            spread = (q3 - q1) / abs(med) if med else float("inf")
            bound = bounds.get(name)
            verdict = ""
            if bound is not None:
                ok = spread <= bound
                steady = steady and ok
                verdict = "ok" if ok else "TOO WIDE"
                if ok and spread > bound / 3:
                    verdict = "ok (above a third of the bound)"
            print("  %-36s %14.6g %-12s q1 %12.6g q3 %12.6g spread %7.2f%%  bound %s  %s"
                  % (name, med, unit, q1, q3, 100 * spread,
                     "-" if bound is None else "%g%%" % (100 * bound), verdict))
    sys.exit(0 if steady else 1)


if __name__ == "__main__":
    main()
