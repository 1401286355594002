"""Plumbing shared by the benchmark's workloads: building the program,
launching measured processes, statistics and the result line."""

import json
import os
import re
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".bench_work")


class BenchError(Exception):
    """The benchmark could not run (build failure, bad usage, a process
    that would not start). Reported without a result line."""


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def clean_env():
    """The environment every measured process gets: the caller's, minus
    every `MPSTREAM_*` variable (CI exports `MPSTREAM_JOBS` and fault
    injection settings that would change what is measured)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("MPSTREAM_")}


def target_dir():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build():
    """Build the `mpstream` binary and the harness from source (release),
    returning their paths."""
    env = dict(clean_env(), CARGO_TARGET_DIR=target_dir())
    steps = [
        ["cargo", "build", "--release", "--offline", "-q", "--bin", "mpstream"],
        ["cargo", "build", "--release", "--offline", "-q", "--manifest-path",
         os.path.join(HERE, "harness", "Cargo.toml")],
    ]
    for cmd in steps:
        try:
            out = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, timeout=850)
        except (OSError, subprocess.TimeoutExpired) as e:
            raise BenchError(f"build failed to run: {e}")
        if out.returncode != 0:
            log(out.stdout.decode(errors="replace")[-4000:])
            raise BenchError(f"build failed: {' '.join(cmd)}")
    rel = os.path.join(target_dir(), "release")
    return os.path.join(rel, "mpstream"), os.path.join(rel, "perfbench-harness")


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path


class Tools:
    """The two built binaries plus a work directory for one run."""

    def __init__(self, mpstream, harness, work):
        self.mpstream = mpstream
        self.harness = harness
        self.work = work
        self._n = 0

    def path(self, name):
        return os.path.join(self.work, name)

    def unique(self, stem):
        self._n += 1
        return self.path(f"{stem}-{self._n}")

    def measure(self, argv, watch=None, program=None):
        """Run `program argv` (default: mpstream) to completion through the
        rusage launcher; return its report (wall_s, cpu_s, maxrss_kb, exit,
        first_record_s)."""
        report = self.unique("report") + ".json"
        cmd = [self.harness, "exec", "--report", report]
        if watch:
            cmd += ["--watch", watch]
        cmd += ["--", program or self.mpstream] + list(argv)
        proc = subprocess.run(cmd, env=clean_env(), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=170)
        if proc.returncode != 0:
            raise BenchError(f"launcher failed: {proc.stderr.decode(errors='replace')}")
        with open(report) as f:
            rep = json.load(f)
        os.remove(report)
        rep["stderr"] = proc.stderr.decode(errors="replace")
        return rep

    def harness_json(self, args):
        """Run a harness subcommand that prints one JSON line."""
        proc = subprocess.run([self.harness] + list(args), env=clean_env(),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170)
        if proc.returncode != 0:
            raise BenchError(f"harness {args[0]} failed: {proc.stderr.decode(errors='replace')}")
        out = proc.stdout.decode().strip().splitlines()
        return json.loads(out[-1]) if out else {}

    def device_peaks(self):
        """Device name -> peak GB/s as `mpstream --list-devices` states it."""
        out = subprocess.run([self.mpstream, "--list-devices"], env=clean_env(),
                             stdout=subprocess.PIPE, check=True, timeout=60).stdout.decode()
        peaks = {}
        for line in out.splitlines():
            cols = re.split(r"\s{2,}", line.strip())
            if len(cols) == 5:
                try:
                    peaks[cols[1]] = float(cols[3])
                except ValueError:
                    pass
        return peaks


def median(xs):
    return statistics.median(xs)


def quartiles(xs):
    """(q1, median, q3) as `statistics.quantiles(n=4)` gives them."""
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def metric(value, unit):
    return {"value": value, "unit": unit}


def print_result(correct, attempted, failed, metrics):
    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}), flush=True)
