#!/usr/bin/env python3
"""Steadiness check of the benchmark: two sets of runs, compared.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads rollup-aggregate --runs 5 --sets 1

Runs perfbench/run.py --runs times per workload in each set, every run
with its own seed (set s, run i uses seed 1000*s + i + 1), and prints
for every metric each set's median and quartiles and the spread
(q3 - q1) / median. With --trace 0 it then checks, per workload:

  * every end-to-end metric spreads no more than its BENCHMARK.json
    bound in each set (and flags spreads above a third of the bound,
    the margin the benchmark is tuned to);
  * the last set's median differs from the first set's by no more than
    the bound, in either direction;
  * failed / attempted is exactly the same in every run.

With --trace 1 it checks instead that the per-layer counts repeat
exactly from run to run. Exits 0 iff every check holds; --out writes
all raw results as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Work counts that depend only on the fixed proof statements.
EXACT_COUNTS = ("ntt.points", "merkle.leaves", "merkle.permutations",
                "hash.pow_permutations", "fri.pow_iterations",
                "challenger.permutations", "fri.queries",
                "ntt.transforms", "merkle.trees", "sim.cycles")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(spec, workload, seed, seconds, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(seconds),
                             "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit("run failed: %s (exit %d)"
                         % (" ".join(cmd), done.returncode))
    return json.loads(lines[-1])


def summary(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("inf")


def worse_by(better, first, last):
    """Relative worsening of last against first (negative = better)."""
    delta = (last - first) / abs(first)
    return -delta if better == "higher" else delta


def main():
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads", default=",".join(names))
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    args = ap.parse_args()

    metrics = {m["name"]: m for m in
               spec["per_layer" if args.trace else "end_to_end"]}
    raw = {}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for s in range(args.sets):
            runs = []
            for i in range(args.runs):
                seed = 1000 * (s + 1) + i + 1
                start = time.monotonic()
                r = run_once(spec, workload, seed, args.seconds,
                             args.trace)
                print("%s set %d seed %d: correct=%s attempted=%d "
                      "failed=%d (%.1f s)"
                      % (workload, s + 1, seed, r["correct"],
                         r["attempted"], r["failed"],
                         time.monotonic() - start), flush=True)
                ok &= bool(r["correct"])
                runs.append(r)
            sets.append(runs)
        raw[workload] = sets

        print("\n== %s" % workload)
        print("%-34s %5s %14s %14s %14s %8s" % (
            "metric", "set", "median", "q1", "q3", "spread"))
        for name, m in sorted(metrics.items()):
            meds = []
            for s, runs in enumerate(sets):
                values = [r["metrics"][name]["value"] for r in runs]
                med, q1, q3, spread = summary(values)
                meds.append(med)
                note = ""
                if not args.trace:
                    if spread > m["bound"]:
                        note, ok = "  OVER BOUND %.3f" % m["bound"], False
                    elif spread > m["bound"] / 3:
                        note = "  above bound/3"
                if args.trace and name in EXACT_COUNTS and \
                        len(set(values)) != 1:
                    note, ok = "  COUNT NOT EXACT", False
                print("%-34s %5d %14.6g %14.6g %14.6g %8.4f%s" % (
                    name, s + 1, med, q1, q3, spread, note))
            if not args.trace and len(meds) > 1:
                w = worse_by(m["better"], meds[0], meds[-1])
                agree = abs(w) <= m["bound"]
                verdict = "agree" if agree else "DISAGREE"
                ok &= agree
                print("%-34s       last vs first: %+.4f (bound %.3f) %s"
                      % ("", w, m["bound"], verdict))
        shares = {r["failed"] / r["attempted"] for runs in sets
                  for r in runs}
        if len(shares) != 1:
            ok = False
            print("failed share differs between runs: %s" % sorted(shares))
        else:
            print("failed share: %s in every run" % shares.pop())

    if args.out:
        with open(args.out, "w") as f:
            json.dump(raw, f, indent=1)
    print("\nsteady: %s" % ("yes" if ok else "NO"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
