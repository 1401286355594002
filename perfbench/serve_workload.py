"""The serve-stream workload: `mpstream serve` restarted on a fresh copy
of a seeded store history, then one client thread submitting a seeded
mix of sweep and DSE-grid jobs, streaming each over
`GET /jobs/N/stream` to its final status line and fetching its report
and results. A round is one restart plus the job list; every round runs
the same jobs on a fresh daemon, so the process-wide kernel-cost memo
starts empty each time."""

import json
import os
import random
import re
import shutil
import signal
import socket
import subprocess
import time

import checks
from common import BenchError, clean_env

# The job array holds 20160 vectors at the widest width: a multiple of
# the NDRange work-group size (64) and of every unroll below, so every
# (width, loop, unroll) triple is valid and a job's point count is the
# plain product of its lists.
JOB_WORDS = 20160 * 8
UNROLLS = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 14, 15, 16, 18, 20, 21, 24, 28, 30]
WIDTHS = [1, 2, 4, 8]
OPS = ["copy", "scale", "add", "triad"]
# (kind, unroll count): 112-336 points each, 1376 per round.
SHAPES = [("sweep", 7), ("sweep", 14), ("sweep", 20), ("dse", 3), ("dse", 5), ("dse", 7)]


class Job:
    def __init__(self, kind, target, unrolls):
        loops = 3 if kind == "dse" else 1
        self.points = len(OPS) * len(WIDTHS) * len(unrolls) * loops
        size = JOB_WORDS * 4
        u = ",".join(map(str, unrolls))
        w = ",".join(map(str, WIDTHS))
        self.argv = [kind, "--target", target, "--ops", ",".join(OPS), "--vectors", w,
                     "--unrolls", u, "--size", str(size), "--jobs", "1"]
        spec = {"target": target, "kernels": ",".join(OPS), "size_bytes": size,
                "vectors": w, "unrolls": u, "jobs": 1}
        if kind == "dse":
            self.argv += ["--strategy", "grid"]
            spec["strategy"] = "grid"
        self.spec = json.dumps(spec, separators=(",", ":")).encode()


def make_jobs(seed):
    """The round's job list: a fixed multiset of jobs (so every seed asks
    the same work) in a seeded order. Each job's unrolls are a fixed
    spread over UNROLLS; the two FPGA targets alternate."""
    jobs = []
    for i, (kind, n) in enumerate(SHAPES):
        step = len(UNROLLS) / n
        unrolls = [UNROLLS[int(k * step)] for k in range(n)]
        jobs.append(Job(kind, ["aocl", "sdaccel"][i % 2], unrolls))
    random.Random(seed).shuffle(jobs)
    return jobs


class Conn:
    """A minimal HTTP/1.1 client over one keep-alive connection."""

    def __init__(self, port):
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def close(self):
        self.sock.close()

    def _fill(self):
        data = self.sock.recv(65536)
        if not data:
            raise BenchError("server closed the connection")
        self.buf += data

    def _line(self):
        while b"\r\n" not in self.buf:
            self._fill()
        line, self.buf = self.buf.split(b"\r\n", 1)
        return line

    def _exact(self, n):
        while len(self.buf) < n:
            self._fill()
        out, self.buf = self.buf[:n], self.buf[n:]
        return out

    def send(self, method, path, body=b""):
        head = f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Length: {len(body)}\r\n\r\n"
        self.sock.sendall(head.encode() + body)

    def head(self):
        status = int(self._line().split()[1])
        headers = {}
        while True:
            line = self._line()
            if not line:
                return status, headers
            k, v = line.split(b":", 1)
            headers[k.strip().lower().decode()] = v.strip().decode()

    def chunks(self):
        while True:
            size = int(self._line().split(b";")[0], 16)
            if size == 0:
                self._line()
                return
            data = self._exact(size)
            self._exact(2)
            yield data

    def request(self, method, path, body=b""):
        self.send(method, path, body)
        status, headers = self.head()
        if headers.get("transfer-encoding") == "chunked":
            data = b"".join(self.chunks())
        else:
            data = self._exact(int(headers.get("content-length", "0")))
        return status, data


def task_cpu_ns(pid, comm=None):
    """CPU time of the live threads of `pid` (of the one named `comm`),
    from /proc/<pid>/task/*/schedstat, nanoseconds."""
    total = 0
    base = f"/proc/{pid}/task"
    for tid in os.listdir(base):
        try:
            if comm is not None:
                with open(f"{base}/{tid}/comm") as f:
                    if f.read().strip() != comm:
                        continue
            with open(f"{base}/{tid}/schedstat") as f:
                total += int(f.read().split()[0])
        except OSError:
            pass  # the thread ended meanwhile
    return total


RUNNER_COMM = "mpstream-job-runner"[:15]


class Daemon:
    """One `mpstream serve` process, launched through the rusage launcher.
    Every daemon started is listed in `LIVE` until it has been reaped, so
    an aborted run can still stop it."""

    LIVE = []

    def __init__(self, tools, store):
        self.pid = None
        self.report = tools.unique("daemon") + ".json"
        pid_file = self.report[:-5] + ".pid"
        self.err = open(tools.unique("daemon") + ".err", "w+")
        workers = str(min(2, os.cpu_count() or 1))
        self.proc = subprocess.Popen(
            [tools.harness, "exec", "--report", self.report, "--pid-file", pid_file, "--",
             tools.mpstream, "serve", "--addr", "127.0.0.1:0", "--store", store,
             "--jobs", workers],
            env=clean_env(), stdout=subprocess.PIPE, stderr=self.err)
        Daemon.LIVE.append(self)
        banner = self.proc.stdout.readline().decode()
        m = re.search(r"listening on 127\.0\.0\.1:(\d+)", banner)
        if not m:
            raise BenchError(f"daemon did not start: {banner!r}")
        self.port = int(m.group(1))
        with open(pid_file) as f:
            pid, spawned_ns = f.read().split()
        self.pid = int(pid)
        c = Conn(self.port)
        status, _ = c.request("GET", "/healthz")
        ready_ns = time.monotonic_ns()
        c.close()
        if status != 200:
            raise BenchError(f"/healthz answered {status}")
        self.setup_wall_s = (ready_ns - int(spawned_ns)) / 1e9
        self.cpu_ready_ns = task_cpu_ns(self.pid)
        self.runner_ready_ns = task_cpu_ns(self.pid, RUNNER_COMM)

    def runner_cpu_s(self):
        return (task_cpu_ns(self.pid, RUNNER_COMM) - self.runner_ready_ns) / 1e9

    def stop(self):
        """SIGTERM, wait, and return the launcher's report."""
        os.kill(self.pid, signal.SIGTERM)
        self.proc.stdout.read()
        self.proc.wait(timeout=60)
        Daemon.LIVE.remove(self)
        with open(self.report) as f:
            rep = json.load(f)
        self.err.seek(0)
        rep["stderr"] = self.err.read()
        self.err.close()
        return rep

    def kill(self):
        """Stop an abandoned daemon and its launcher, and reap them."""
        if self.pid is None:
            try:
                with open(self.report[:-5] + ".pid") as f:
                    self.pid = int(f.read().split()[0])
            except (OSError, ValueError, IndexError):
                pass
        for pid in (self.pid, self.proc.pid):
            if pid is not None:
                try:
                    os.kill(pid, signal.SIGKILL)
                except OSError:
                    pass
        self.proc.wait(timeout=60)


def stop_all():
    for d in list(Daemon.LIVE):
        d.kill()
        Daemon.LIVE.remove(d)


def stream_job(c1, port, job):
    """Submit, stream to the final status line, fetch report and results."""
    t0 = time.monotonic()
    status, body = c1.request("POST", "/jobs", job.spec)
    t_submit = time.monotonic() - t0
    if status != 202:
        raise BenchError(f"submit answered {status}: {body[:200]!r}")
    reply = json.loads(body)
    jid = reply["id"]
    c2 = Conn(port)
    c2.send("GET", f"/jobs/{jid}/stream")
    status, _ = c2.head()
    if status != 200:
        raise BenchError(f"stream answered {status}")
    streamed, pending, first, final, done_at = [], b"", None, None, None
    for chunk in c2.chunks():
        pending += chunk
        while b"\n" in pending:
            line, pending = pending.split(b"\n", 1)
            if line.startswith(b'{"key"'):
                if first is None:
                    first = time.monotonic()
                streamed.append(line + b"\n")
            elif line.startswith(b"{"):
                final = json.loads(line)
                done_at = time.monotonic()
    c2.close()
    t1 = time.monotonic()
    report_status, report = c1.request("GET", f"/jobs/{jid}/report")
    results_status, results = c1.request("GET", f"/jobs/{jid}/results?limit=4096")
    t_fetch = time.monotonic() - t1
    problems = checks.check_stream(b"".join(streamed), results, job.points, final)
    if (report_status, results_status) != (200, 200):
        problems.append(f"job {jid}: report answered {report_status}, "
                        f"results {results_status}")
    if reply.get("total") != job.points:
        problems.append(f"job {jid}: daemon counts {reply.get('total')} points, "
                        f"the benchmark {job.points}")
    done_at = done_at or time.monotonic()
    records = checks.parse_records(b"".join(streamed).decode())
    return {"id": jid, "ttfr": (first or done_at) - t0, "job": done_at - t0,
            "submit": t_submit, "fetch": t_fetch, "records": records,
            "report": report, "problems": problems,
            "ok": not checks.job_failed(final, records)}


def poll_job(c1, job):
    """The same exchange with a client that polls status every 25 ms
    instead of streaming (the traced run's reference for stream cost)."""
    _, body = c1.request("POST", "/jobs", job.spec)
    jid = json.loads(body)["id"]
    while True:
        _, body = c1.request("GET", f"/jobs/{jid}")
        if json.loads(body)["state"] not in ("queued", "running"):
            break
        time.sleep(0.025)
    c1.request("GET", f"/jobs/{jid}/report")
    _, results = c1.request("GET", f"/jobs/{jid}/results?limit=4096")
    return results.count(b"\n")


class Round:
    def __init__(self):
        self.jobs = []
        self.setup_s = 0.0
        self.setup_wall_s = 0.0
        self.loop_cpu_s = 0.0
        self.runner_cpu_s = 0.0
        self.rss_kb = 0
        self.records = 0
        self.problems = []
        self.store = None
        self.digest = None


def run_round(tools, history, jobs, peaks, poll=False, keep_store=False):
    rnd = Round()
    store = tools.unique("store")
    shutil.copytree(history, store)
    d = Daemon(tools, store)
    rnd.setup_s = d.cpu_ready_ns / 1e9
    rnd.setup_wall_s = d.setup_wall_s
    try:
        c1 = Conn(d.port)
        for job in jobs:
            if poll:
                rnd.records += poll_job(c1, job)
            else:
                r = stream_job(c1, d.port, job)
                rnd.jobs.append(r)
                rnd.records += len(r["records"])
                rnd.problems += r["problems"]
        c1.close()
        rnd.runner_cpu_s = d.runner_cpu_s()
    finally:
        rep = d.stop()
    if rep["exit"] != 0:
        rnd.problems.append(f"daemon exited {rep['exit']} on SIGTERM: {rep['stderr'][-300:]}")
    rnd.loop_cpu_s = rep["cpu_s"] - d.cpu_ready_ns / 1e9
    rnd.rss_kb = rep["maxrss_kb"]
    records = [r for j in rnd.jobs for r in j.pop("records")]
    for r in records:
        rnd.problems += checks.check_record(r, peaks)
    rnd.digest = checks.digest(records)
    if keep_store:
        rnd.store = store
    else:
        shutil.rmtree(store, ignore_errors=True)
    return rnd


def offline_reports(tools, jobs, fetched, sample):
    """Compare fetched reports of the sampled jobs with the report the
    offline CLI renders for the same spec."""
    problems = []
    for i in sample:
        out = subprocess.run([tools.mpstream] + jobs[i].argv, env=clean_env(),
                             stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=170)
        if out.returncode != 0 or out.stdout != fetched[i]:
            problems.append(f"job {i} ({' '.join(jobs[i].argv)}): fetched report differs "
                            "from the offline CLI report")
    return problems
