#!/usr/bin/env python3
"""Steadiness command: run the workloads repeatedly, alternating between
them with a new seed each pass, and print each metric's median, quartiles
and spread (interquartile range as a share of the median), plus the
share of failed operations. `--save` keeps the set; `--against` compares
this set's medians with a saved one.

    python3 perfbench/steady.py --runs 10 --seconds 20 --save set-a.json
    python3 perfbench/steady.py --runs 10 --seconds 20 --against set-a.json
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import ROOT, quartiles  # noqa: E402


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--save")
    ap.add_argument("--against")
    args = ap.parse_args()

    results = {w: [] for w in names}
    for i in range(args.runs):
        for w in names:
            seed = args.seed_base + i
            cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w, "--seed",
                   str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            lines = out.stdout.decode().strip().splitlines()
            if out.returncode != 0 or not lines:
                print(f"{w} seed {seed}: exit {out.returncode}", flush=True)
                continue
            res = json.loads(lines[-1])
            results[w].append(res)
            print(f"{w} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)

    against = None
    if args.against:
        with open(args.against) as f:
            against = json.load(f)
    for w, runs in results.items():
        if not runs:
            continue
        shares = {r["failed"] / r["attempted"] for r in runs}
        print(f"\n{w}: {len(runs)} runs, failed share {sorted(shares)}")
        print(f"  {'metric':<22} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}"
              + ("  vs saved median" if against else ""))
        for name in runs[0]["metrics"]:
            vals = [r["metrics"][name]["value"] for r in runs]
            q1, med, q3 = quartiles(vals)
            spread = (q3 - q1) / med if med else float("inf")
            bound = bounds.get(name)
            line = (f"  {name:<22} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.2%} "
                    f"{bound if bound is not None else '-':>6}")
            if against and against.get(w):
                old = [r["metrics"][name]["value"] for r in against[w]]
                old_med = quartiles(old)[1]
                line += f"  {(med - old_med) / old_med:+.2%}"
            print(line)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f)


if __name__ == "__main__":
    main()
