"""The two command-line workloads. A round is a fixed list of `mpstream`
invocations, each a fresh process (the kernel-cost memo is process-wide,
so a repeat inside one process would be answered from it):

* sweep-irregular: CPU and GPU sweeps over column-major, strided and
  GUPS access, validation off, two unroll factors, arrays past the
  simulator's 1.5M-access sample cap;
* dse-fpga: on AOCL and SDAccel, the exhaustive grid of a small-array
  space with validation on (the CLI default), then the model, genetic
  and anneal searches of the same space, plus a DGEMM-lite grid.

Before each invocation a probe on the same target measures set-up as
the CPU time of a process that does nothing else: a sweep whose only
configuration is invalid (unroll 3 does not divide the 1024 vectors of a
4 KiB array), so the process parses its arguments, builds the engine and
the device and renders an empty report, but never dispatches a point.
A real first point would add its own simulation set-up (a CPU point
allocates the modelled cache hierarchy), which belongs to the point."""

import json
import os
import random

import checks
from common import BenchError

SEARCHES = ("model", "genetic", "anneal")


class Invocation:
    def __init__(self, target, argv, points, kind="sweep", strategy=None):
        self.target = target
        self.argv = argv
        self.points = points  # the benchmark's own count of the points
        self.kind = kind
        self.strategy = strategy


def probe_argv(target):
    return ["sweep", "--target", target, "--kernel", "copy", "--vectors", "1",
            "--unrolls", "3", "--size", "4K", "--ntimes", "1", "--no-validate",
            "--jobs", "1"]


def sweep_irregular(seed):
    """Seeded inputs: which of copy/scale and add/triad each sweep runs, and
    the order of the invocations. Arrays are past the sample cap, so every
    point simulates the same number of accesses whichever ops are drawn."""
    rng = random.Random(seed)
    common = ["--size", "32M", "--no-validate", "--jobs", "1"]
    invs = []
    for target in ("cpu", "gpu"):
        for pattern in ("colmajor", "stride16"):
            ops = f"{rng.choice(['copy', 'scale'])},{rng.choice(['add', 'triad'])}"
            argv = ["sweep", "--target", target, "--pattern", pattern, "--ops", ops,
                    "--vectors", "4", "--unrolls", "1,2"] + common
            invs.append(Invocation(target, argv, 2 * 1 * 2))
        argv = ["sweep", "--target", target, "--kernel", "gups", "--vectors", "1",
                "--unrolls", "1,2"] + common
        invs.append(Invocation(target, argv, 2))
    rng.shuffle(invs)
    return invs


def dse_fpga(seed):
    """Seeded inputs: the seed of the three searches and the order of the
    targets. The searched space holds the STREAM ops only, whose points
    cost alike, so what a search visits does not change the work much;
    the HPCC ops run as a separate grid."""
    rng = random.Random(seed)
    dse_seed = str(rng.randrange(1, 1 << 31))
    targets = ["aocl", "sdaccel"]
    rng.shuffle(targets)
    # Three loop modes in every DSE space; the HPCC ops are pinned to
    # vector width 1.
    grid_points = 4 * 5 * 2 * 3
    budget = 16
    invs = []
    for target in targets:
        base = ["dse", "--target", target, "--ops", "copy,scale,add,triad",
                "--vectors", "1,2,4,8,16", "--unrolls", "1,2", "--size", "1M", "--jobs", "1"]
        invs.append(Invocation(target, base + ["--strategy", "grid"], grid_points, "grid"))
        for s in SEARCHES:
            argv = base + ["--strategy", s, "--budget", str(budget), "--dse-seed", dse_seed]
            invs.append(Invocation(target, argv, budget, "search", s))
        argv = ["dse", "--target", target, "--strategy", "grid", "--ops", "gups,ptrans",
                "--vectors", "1", "--unrolls", "1,2", "--size", "1M", "--jobs", "1"]
        invs.append(Invocation(target, argv, 2 * 1 * 2 * 3, "hpcc"))
        argv = ["dse", "--target", target, "--strategy", "grid", "--kernel", "dgemm",
                "--vectors", "1", "--unrolls", "1,2", "--size", "64K", "--jobs", "1"]
        invs.append(Invocation(target, argv, 1 * 1 * 2 * 3, "hpcc"))
    return invs


WORKLOADS = {"sweep-irregular": sweep_irregular, "dse-fpga": dse_fpga}


class Round:
    """What one round of invocations measured and found."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.points = 0
        self.cpu_s = 0.0
        self.walls = []
        self.ttfr = []
        self.setups = []
        self.rss_kb = 0
        self.digest = None
        self.layers = []  # per traced process: (invocation, layer dict, spans)

    def ttfr_s(self):
        """Mean CPU time to first record over the round's processes. A
        mean, not a median: the processes start from configurations of
        different cost, and a median would fall in the gap between them."""
        return sum(self.ttfr) / len(self.ttfr)


def run_round(tools, invs, peaks, traced=False):
    rnd = Round()
    by_target = {}
    all_records = []
    for inv in invs:
        if not traced:
            probe = tools.measure(probe_argv(inv.target))
            if probe["exit"] != 0:
                raise BenchError(f"probe failed: {probe['stderr']}")
            rnd.setups.append(probe["cpu_s"])
        ck = tools.unique("ckpt") + ".jsonl"
        if traced:
            rep = tools.measure(["trace-cli", "--out", ck, "--"] + inv.argv, program=tools.harness)
            if rep["exit"] != 0:
                raise BenchError(f"traced run failed: {rep['stderr']}")
            with open(ck) as f:
                out = json.load(f)
            records = [json.loads(line) for line in out["records"]]
            rnd.layers.append((inv, out["layers"], out["spans"]))
        else:
            rep = tools.measure(inv.argv + ["--checkpoint", ck], watch=ck)
            if rep["exit"] != 0:
                raise BenchError(f"mpstream {' '.join(inv.argv)} failed: {rep['stderr']}")
            with open(ck) as f:
                records = checks.parse_records(f.read())
            # A search's first point depends on its seed; the other
            # processes start from a fixed configuration.
            if inv.kind != "search" and rep["first_record_cpu_s"] is not None:
                rnd.ttfr.append(rep["first_record_cpu_s"])
        os.remove(ck)
        rnd.cpu_s += rep["cpu_s"]
        rnd.walls.append(rep["wall_s"])
        rnd.rss_kb = max(rnd.rss_kb, rep["maxrss_kb"])
        rnd.attempted += inv.points
        rnd.points += len(records)
        bad = sum(1 for r in records if checks.is_failure(r))
        rnd.failed += bad + max(0, inv.points - len(records))
        if len(records) != inv.points:
            rnd.problems.append(f"{' '.join(inv.argv)}: {len(records)} records, "
                                f"expected {inv.points}")
        for r in records:
            rnd.problems += checks.check_record(r, peaks)
        by_target.setdefault(inv.target, []).append((inv, records))
        all_records += records
    for target, runs in by_target.items():
        grid = [recs for inv, recs in runs if inv.kind == "grid"]
        for inv, recs in runs:
            if inv.kind == "search":
                rnd.problems += checks.check_search(recs, grid[0], f"{target} {inv.strategy}")
    rnd.digest = checks.digest(all_records)
    return rnd
