#!/usr/bin/env python3
"""The repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds `mpstream` and the harness from source (release), generates the
workload's inputs from the seed, runs them for about `--seconds` seconds
in whole rounds, checks every output and prints one JSON line last:
`{"correct", "attempted", "failed", "metrics"}`. `--trace 0` reports the
end-to-end metrics; `--trace 1` runs the workload once traced (and once
untraced, for the tracing overhead) and reports the per-layer metrics.
Exits 1 when a check fails, 2 when the benchmark cannot run. See
perfbench/README.md."""

import argparse
import json
import os
import random
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import cli_workloads  # noqa: E402
import layers  # noqa: E402
import serve_workload  # noqa: E402
from common import (WORK, BenchError, Tools, build, fresh_dir, log, median,  # noqa: E402
                    metric, print_result)

WORKLOADS = ["sweep-irregular", "dse-fpga", "serve-stream"]


def end_to_end(setups, rates, rss_kb, ttfr):
    return {
        "setup_s": metric(median(setups), "s"),
        "points_per_cpu_s": metric(median(rates), "1/s"),
        "peak_rss_mb": metric(rss_kb / 1024, "MiB"),
        "ttfr_p50_s": metric(median(ttfr), "s"),
    }


def trace_file(workload, seed):
    os.makedirs(os.path.join(WORK, "traces"), exist_ok=True)
    return os.path.join(WORK, "traces", f"{workload}-seed{seed}.json")


def run_cli(tools, args):
    peaks = tools.device_peaks()
    invs = cli_workloads.WORKLOADS[args.workload](args.seed)
    problems = []
    if args.workload == "dse-fpga":
        ic = tools.harness_json(["interp-check", "--seed", str(args.seed)])
        problems += [f"interpreter differs from the scalar loop: {m}" for m in ic["mismatched"]]

    if args.trace:
        traced = cli_workloads.run_round(tools, invs, peaks, traced=True)
        plain = cli_workloads.run_round(tools, invs, peaks)
        rounds = [traced, plain]
        values, total = layers.sum_processes([lay for _, lay, _ in traced.layers])
        for inv, lay, _ in traced.layers:
            problems += layers.check_residuals(" ".join(inv.argv[:3]), lay)
        coverage = layers.reconcile(total, traced.cpu_s)
        if abs(coverage - 1) > 0.05:
            problems.append(f"layer self-times cover {coverage:.1%} of the traced CPU time")
        # Cross-check against a separate process: the traced run's CPU
        # time without the tracer's replays against the untraced round's.
        program = traced.cpu_s - total["trace.replay_s"]
        problems += layers.cross_check("traced CPU less replays", program,
                                       "the untraced CPU", plain.cpu_s)
        path = trace_file(args.workload, args.seed)
        layers.write_chrome_trace(path, [(" ".join(inv.argv[:3]), spans)
                                         for inv, _, spans in traced.layers])
        log(layers.table(values, [
            ("traced CPU s", f"{traced.cpu_s:.4f}"),
            ("untraced CPU s", f"{plain.cpu_s:.4f}"),
            ("tracing overhead s", f"{traced.cpu_s - plain.cpu_s:.4f} "
                                   f"({(traced.cpu_s - plain.cpu_s) / plain.cpu_s:.1%})"),
            ("tracer replay s", f"{total.get('trace.replay_s', 0):.4f}"),
            ("self-times / traced CPU", f"{coverage:.2%}"),
            ("traced less replays / untraced", f"{program / plain.cpu_s:.2%}"),
            ("chrome trace", path)]))
        metrics = {name: metric(values[name], unit) for name, unit, _ in layers.PER_LAYER}
    else:
        rounds = []
        start = time.monotonic()
        while not rounds or time.monotonic() - start < args.seconds:
            rounds.append(cli_workloads.run_round(tools, invs, peaks))
        metrics = end_to_end(
            [s for r in rounds for s in r.setups], [r.points / r.cpu_s for r in rounds],
            max(r.rss_kb for r in rounds), [r.ttfr_s() for r in rounds])
        # Wall-clock figures: reference only (hypervisor steal moves them).
        log(f"{len(rounds)} rounds, {sum(r.points for r in rounds)} points, "
            f"{sum(r.cpu_s for r in rounds):.3f} CPU s, "
            f"{sum(r.points for r in rounds) / sum(sum(r.walls) for r in rounds):.2f} "
            f"points per wall-clock second, round wall-clock p50 "
            f"{median([sum(r.walls) for r in rounds]):.3f} s")

    for r in rounds:
        problems += r.problems
    digests = {r.digest for r in rounds}
    if len(digests) != 1:
        problems.append(f"simulated statistics differ between identical rounds: {digests}")
    log(f"simulated-statistics digest {' '.join(sorted(digests))}")
    return (problems, sum(r.attempted for r in rounds), sum(r.failed for r in rounds), metrics)


def run_serve(tools, args):
    history = tools.path("history")
    tools.harness_json(["make-history", "--dir", history, "--seed", str(args.seed)])
    jobs = serve_workload.make_jobs(args.seed)
    peaks = tools.device_peaks()
    problems = []

    if args.trace:
        streamed = serve_workload.run_round(tools, history, jobs, peaks, keep_store=True)
        polled = serve_workload.run_round(tools, history, jobs, peaks, poll=True)
        rounds = [streamed]
        if polled.records != streamed.records:
            problems.append(f"polling client saw {polled.records} records, "
                            f"streaming client {streamed.records}")
        fresh = tools.unique("store")
        shutil.copytree(history, fresh)
        opened = tools.harness_json(["store-layers", "--store", fresh])
        read = tools.harness_json(["store-layers", "--store", streamed.store, "--ids",
                                   ",".join(str(j["id"]) for j in streamed.jobs)])
        offline, offline_cpu_s = [], 0.0
        for job in jobs:
            out = tools.unique("trace") + ".json"
            rep = tools.measure(["trace-cli", "--out", out, "--"] + job.argv,
                                program=tools.harness)
            if rep["exit"] != 0:
                raise BenchError(f"traced offline job failed: {rep['stderr']}")
            with open(out) as f:
                offline.append(json.load(f)["layers"])
            offline_cpu_s += rep["cpu_s"]
        values, offline_total = layers.sum_processes(offline)
        for job, lay in zip(jobs, offline):
            problems += layers.check_residuals(" ".join(job.argv[:3]), lay)
        coverage = layers.reconcile(offline_total, offline_cpu_s)
        if abs(coverage - 1) > 0.05:
            problems.append(f"layer self-times cover {coverage:.1%} of the offline traced CPU")
        # Cross-check between processes: the daemon's runner thread ran
        # the same jobs as the offline traced processes, less replays.
        program = offline_cpu_s - offline_total["trace.replay_s"]
        problems += layers.cross_check("daemon runner-thread CPU", streamed.runner_cpu_s,
                                       "the offline traced CPU less replays", program)
        other = streamed.loop_cpu_s - streamed.runner_cpu_s
        values.update({
            "serve.open_s": opened["open_s"],
            "serve.runner_cpu_s": streamed.runner_cpu_s,
            "serve.other_cpu_s": other,
            "serve.stream_cpu_s": streamed.loop_cpu_s - polled.loop_cpu_s,
            "serve.result_lines_s": read["result_lines_s"],
            "serve.submit_p50_s": median([j["submit"] for j in streamed.jobs]),
            "serve.fetch_p50_s": median([j["fetch"] for j in streamed.jobs]),
        })
        log(layers.table(values, [
            ("daemon loop CPU s", f"{streamed.loop_cpu_s:.4f} streaming, "
                                  f"{polled.loop_cpu_s:.4f} polling"),
            ("self-times / offline CPU", f"{coverage:.2%}"),
            ("runner thread / offline CPU",
             f"{streamed.runner_cpu_s / program:.2%} (offline, less replays: "
             f"{program:.4f} s)"),
            ("records per daemon CPU s", f"{streamed.records / streamed.loop_cpu_s:.1f}"),
            ("offline layers", "kernelgen/memsim/targets/core rows: the same jobs "
                               "traced offline, one process per job")]))
        metrics = {name: metric(values[name], unit) for name, unit, _ in layers.PER_LAYER}
    else:
        rounds = []
        start = time.monotonic()
        while not rounds or time.monotonic() - start < args.seconds:
            rounds.append(serve_workload.run_round(tools, history, jobs, peaks))
        all_jobs = [j for r in rounds for j in r.jobs]
        metrics = end_to_end(
            [r.setup_s for r in rounds], [r.records / r.loop_cpu_s for r in rounds],
            max(r.rss_kb for r in rounds), [j["ttfr"] for j in all_jobs])
        # A seeded sample of two jobs: fetched report == offline CLI report.
        sample = sorted(random.Random(args.seed).sample(range(len(jobs)), 2))
        problems += serve_workload.offline_reports(
            tools, jobs, [rounds[-1].jobs[i]["report"] for i in range(len(jobs))], sample)
        # Wall-clock figures: reference only (hypervisor steal moves them).
        log(f"set-up wall-clock s (spawn to first /healthz 200): "
            f"{median([r.setup_wall_s for r in rounds]):.4f}, job p50 (submit to "
            f"final status line) {median([j['job'] for j in all_jobs]):.4f} s")
        log(f"{len(rounds)} rounds, {len(all_jobs)} jobs, "
            f"{sum(r.records for r in rounds)} records")

    for r in rounds:
        problems += r.problems
    digests = {r.digest for r in rounds}
    if len(digests) != 1:
        problems.append(f"simulated statistics differ between identical rounds: {digests}")
    log(f"simulated-statistics digest {' '.join(sorted(digests))}")
    attempted = sum(len(jobs) for _ in rounds)
    failed = sum(1 for r in rounds for j in r.jobs if not j["ok"])
    return problems, attempted, failed, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    work = os.path.join(WORK, f"run-{os.getpid()}")
    try:
        mpstream, harness = build()
        tools = Tools(mpstream, harness, fresh_dir(work))
        run = run_serve if args.workload == "serve-stream" else run_cli
        problems, attempted, failed, metrics = run(tools, args)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    finally:
        serve_workload.stop_all()
        shutil.rmtree(work, ignore_errors=True)
    for p in problems[:20]:
        log(f"CHECK FAILED: {p}")
    print_result(not problems, attempted, failed, metrics)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
