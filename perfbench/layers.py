"""Per-layer metrics of the traced run: aggregation over the traced
processes, the Chrome `trace_event` file and the printed table."""

import json

# (name, unit, better) — every traced run prints all of them; a layer a
# workload does not exercise reads 0.
PER_LAYER = [
    ("kernelgen.access_s", "s", "lower"),
    ("kernelgen.accesses", "count", "lower"),
    ("kernelgen.interp_s", "s", "lower"),
    ("kernelgen.interp_launches", "count", "lower"),
    ("memsim.sim_s", "s", "lower"),
    ("memsim.ns_per_access", "ns", "lower"),
    ("targets.kernel_cost_s", "s", "lower"),
    ("targets.kernel_cost_misses", "count", "lower"),
    ("targets.memo_hit_ratio", "ratio", "higher"),
    ("targets.repeat_results", "count", "lower"),
    ("targets.build_s", "s", "lower"),
    ("mpcl.build_cache_misses", "count", "lower"),
    ("core.runner_self_s", "s", "lower"),
    ("core.engine_self_s", "s", "lower"),
    ("core.dse_s", "s", "lower"),
    ("core.report_s", "s", "lower"),
    ("serve.open_s", "s", "lower"),
    ("serve.runner_cpu_s", "s", "lower"),
    ("serve.other_cpu_s", "s", "lower"),
    ("serve.stream_cpu_s", "s", "lower"),
    ("serve.result_lines_s", "s", "lower"),
    ("serve.submit_p50_s", "s", "lower"),
    ("serve.fetch_p50_s", "s", "lower"),
]

# The in-process layers whose self-times partition a traced process's
# CPU time (`trace.replay_s` is the tracer's own cost).
SELF_TIMES = ("targets.kernel_cost_s", "targets.build_s", "kernelgen.interp_s",
              "core.runner_self_s", "core.engine_self_s", "core.dse_s", "core.report_s",
              "core.cli_s", "trace.replay_s")


# The largest share of point time the runner's own work (buffer set-up,
# transfers, validation compares) may take before the interpretation
# estimate it is the residual of is suspect.
RUNNER_SHARE = 0.75
# How far below zero the runner's residual may read. The interpretation
# estimate is a replayed sample charged on every launch; on the HPCC
# grids, where the runner keeps only 5-8% of the point, its noise has
# pushed the residual to -0.2%. Charging the fresh-memory time on every
# launch read -17%.
RUNNER_NOISE = 0.05
# How far CPU time measured in another process may stray from the
# traced layers. The same work measured a minute apart differs by up to
# ~12% in CPU time on a shared two-vCPU host, so this only catches gross
# misattribution (work the traced layers miss or count twice).
CROSS_CHECK = 0.25


def sum_processes(procs):
    """Sum the layer dicts of several traced processes and derive the
    ratios."""
    total = {}
    for layer in procs:
        for k, v in layer.items():
            total[k] = total.get(k, 0.0) + v
    values = {name: 0.0 for name, _, _ in PER_LAYER}
    for k in values:
        if k in total:
            values[k] = total[k]
    calls = total.get("targets.kernel_cost_calls", 0.0)
    if calls:
        values["targets.memo_hit_ratio"] = 1.0 - total["targets.kernel_cost_misses"] / calls
    simulated = total.get("memsim.simulated_accesses", 0.0)
    if simulated:
        values["memsim.ns_per_access"] = total["memsim.sim_s"] / simulated * 1e9
    return values, total


def check_residuals(label, layer):
    """The runner's and the engine's self-times are residuals (a span
    minus the layers timed inside it, and minus the interpretation
    estimate). The engine's may not go negative; the runner's, which
    carries the estimate's noise, may not fall below -RUNNER_NOISE nor
    rise above RUNNER_SHARE of the point time."""
    point = layer["core.point_s"]
    runner, engine = layer["core.runner_self_s"], layer["core.engine_self_s"]
    problems = []
    if engine < 0:
        problems.append(f"{label}: engine self-time is negative ({engine:.4f} s)")
    if not -RUNNER_NOISE * point <= runner <= RUNNER_SHARE * point:
        problems.append(f"{label}: runner self-time {runner:.4f} s is outside "
                        f"[-{RUNNER_NOISE:.0%}, {RUNNER_SHARE:.0%}] of the {point:.4f} s "
                        "of point time")
    return problems


def cross_check(what, value, against, reference):
    ratio = value / reference if reference else float("inf")
    if abs(ratio - 1) > CROSS_CHECK:
        return [f"{what} is {ratio:.1%} of {against}"]
    return []


def reconcile(total, cpu_s):
    """Share of the traced processes' CPU time the layer self-times
    account for."""
    return sum(total.get(k, 0.0) for k in SELF_TIMES) / cpu_s if cpu_s else 0.0


def write_chrome_trace(path, processes):
    """processes: list of (label, spans) with spans as
    [name, start_us, end_us, parent]. One pid per process."""
    events = []
    for pid, (label, spans) in enumerate(processes, start=1):
        events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                       "args": {"name": label}})
        for name, start, end, parent in spans:
            events.append({"name": name, "ph": "X", "ts": start, "dur": end - start,
                           "pid": pid, "tid": 0, "args": {"parent": parent}})
    with open(path, "w") as f:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, f)


def table(values, notes):
    lines = [f"{'layer':<28} {'value':>14}  unit"]
    for name, unit, _ in PER_LAYER:
        lines.append(f"{name:<28} {values[name]:>14.6g}  {unit}")
    for k, v in notes:
        lines.append(f"{k:<28} {v}")
    return "\n".join(lines)
