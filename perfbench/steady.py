#!/usr/bin/env python3
"""Steadiness report: run one workload several times, each with another
seed, and print every metric's median and quartile spread.

    python3 perfbench/steady.py --workload serve-cold --runs 10
    python3 perfbench/steady.py --workload repro-matrix --runs 3 --trace 1

Run it from the repository root. The spread is (Q3 - Q1) / median, with the
quartiles as Python's statistics.quantiles(values, n=4) gives them. For an
end-to-end metric the report compares the spread with a third of the bound
BENCHMARK.json fixes for it. In a traced run it marks the simulated work
counts, which must be exactly equal from run to run.
"""

import argparse
import json
import statistics
import subprocess
import sys

# Simulated work counts: any speed-only change must leave them exactly equal.
EXACT = {"sim.cycles", "sim.launches", "sim.instructions", "cache.accesses",
         "dram.accesses", "noc.bytes"}


def run_once(workload, seed, seconds, trace):
    cmd = ["sh", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"run with seed {seed} exited {proc.returncode}")
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}

    values = {}
    for i in range(args.runs):
        seed = args.seed_base + i
        res = run_once(args.workload, seed, seconds, args.trace)
        shown = " ".join(f"{n}={m['value']:.4g}" for n, m in sorted(res["metrics"].items())
                         if args.trace == 0)
        print(f"seed {seed}: correct={res['correct']} attempted={res['attempted']} "
              f"failed={res['failed']} {shown}", flush=True)
        for name, m in res["metrics"].items():
            values.setdefault(name, []).append(m["value"])

    print(f"\n{args.workload}: {args.runs} runs, seeds {args.seed_base}.."
          f"{args.seed_base + args.runs - 1}, {seconds} s each")
    print(f"{'metric':30} {'median':>14} {'q1':>14} {'q3':>14} {'spread':>8}  verdict")
    steady = True
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        spread = (q3 - q1) / med if med else 0.0
        verdict = ""
        if args.trace == 0 and bounds.get(name) is not None:
            target = bounds[name] / 3
            verdict = f"{'ok' if spread < target else 'WIDE'} (target < {target:.3f})"
            steady = steady and spread < target
        elif name in EXACT:
            exact = len(set(vals)) == 1
            verdict = "exact" if exact else "DIFFERS"
            steady = steady and exact
        print(f"{name:30} {med:14.6g} {q1:14.6g} {q3:14.6g} {spread:8.4f}  {verdict}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
