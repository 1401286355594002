"""Output checks. Each compares the program's output with a computation
made apart from the program, or with a property the method must have.
Every check returns a list of problems; an empty list passes."""

import hashlib
import json
import re

# STREAM's counting rule: array accesses counted per element (GUPS
# counts its read-modify-write of the table plus the read of `b`).
COUNTED_ACCESSES = {"Copy": 2, "Scale": 2, "Ptrans": 2, "Add": 3, "Triad": 3,
                    "DgemmLite": 3, "RandomAccess": 3}
WORD_BYTES = {"I32": 4, "F64": 8}

# An FPGA configuration that does not fit the device is a DSE result
# (the search learns from it), not a failed operation.
DOES_NOT_FIT = "BuildProgramFailure"

KEY_RE = re.compile(r"op: (\w+), dtype: (\w+), n_words: (\d+)")


def parse_records(text):
    """Checkpoint JSONL text -> list of dicts (one per record line)."""
    return [json.loads(line) for line in text.splitlines() if line.strip()]


def is_failure(rec):
    """Did this point fail as an operation (not merely "does not fit")?"""
    return rec.get("status") != "ok" and rec.get("code") != DOES_NOT_FIT


def job_failed(final, records):
    """Did a served job fail as an operation? Its stream did not end in
    `done`, or one of its points failed: the daemon marks a job done
    even when its points fail."""
    return (final is None or final.get("state") != "done"
            or any(is_failure(r) for r in records))


def check_record(rec, peaks):
    """Byte count, bandwidth bound and validation verdict of one ok record."""
    if rec.get("status") != "ok":
        return []
    m = KEY_RE.search(rec["key"])
    if not m:
        return [f"unparseable key {rec['key'][:80]}"]
    op, dtype, n_words = m.group(1), m.group(2), int(m.group(3))
    problems = []
    expected = COUNTED_ACCESSES[op] * n_words * WORD_BYTES[dtype]
    if rec["bytes_moved"] != expected:
        problems.append(f"{op} n={n_words}: bytes_moved {rec['bytes_moved']} != {expected}")
    peak = peaks.get(rec["device"])
    if peak is None:
        problems.append(f"unknown device {rec['device']}")
    else:
        # The wall-clock rate includes the fixed launch overhead, which on
        # small arrays keeps it below peak whatever the memory model
        # returns; the kernel-only rates bound the model itself. Every
        # point's arrays outgrow the modelled caches (or the device has
        # none), so useful bytes per kernel second obey the DRAM peak too.
        rates = [("GB/s", rec["bytes_moved"], rec["best_wall_ns"]),
                 ("kernel GB/s", rec["bytes_moved"], rec["best_kernel_ns"]),
                 ("kernel DRAM GB/s", rec["dram_bytes"], rec["best_kernel_ns"])]
        for what, nbytes, ns in rates:
            rate = nbytes / ns if ns > 0 else float("inf")
            # The listing rounds peaks to 0.1 GB/s.
            if not 0 < rate <= peak + 0.05:
                problems.append(f"{op} on {rec['device']}: {rate:.3f} {what} "
                                f"outside (0, {peak}]")
    if rec.get("validated") is False:
        problems.append(f"{op} n={n_words}: validation failed")
    return problems


def gbps(rec):
    return rec["bytes_moved"] / rec["best_wall_ns"]


def measurement(rec):
    """A record without its scheduling facts (build-cache hit or miss)."""
    return {k: v for k, v in rec.items() if k != "cache"}


def check_search(search, grid, strategy):
    """A search over the grid's space may not beat the grid's best, and
    every point it evaluated must measure exactly as the grid's point."""
    problems = []
    by_key = {r["key"]: r for r in grid}
    ok = [r for r in grid if r.get("status") == "ok"]
    best = max((gbps(r) for r in ok), default=0.0)
    for r in search:
        g = by_key.get(r["key"])
        if g is None:
            problems.append(f"{strategy}: point outside the grid: {r['key'][:80]}")
        elif measurement(r) != measurement(g):
            problems.append(f"{strategy}: point measures differently from the grid: {r['key'][:80]}")
        if r.get("status") == "ok" and gbps(r) > best:
            problems.append(f"{strategy}: found {gbps(r):.4f} GB/s above the grid best {best:.4f}")
    return problems


def digest(records):
    """Digest of the per-point simulated statistics (DRAM bytes; row hits,
    misses and empties), independent of completion order."""
    rows = sorted(f"{r['key']}|{r.get('device')}|{r.get('dram_bytes')}|{r.get('row_hits')}|"
                  f"{r.get('row_misses')}|{r.get('row_empty')}" for r in records)
    return hashlib.sha256("\n".join(rows).encode()).hexdigest()[:16]


def check_stream(streamed, results, expected_points, final):
    """A live stream against the job's stored results: it ends in `done`
    with done == total, its records are byte-identical to
    `GET /jobs/N/results`, and their count is the spec's point count."""
    problems = []
    if final is None or final.get("state") != "done":
        problems.append(f"stream ended in {final!r}, not done")
    elif final.get("done") != final.get("total"):
        problems.append(f"stream ended with done {final.get('done')} != total {final.get('total')}")
    if streamed != results:
        problems.append("streamed records differ from GET results")
    n = streamed.count(b"\n")
    if n != expected_points:
        problems.append(f"streamed {n} records, the spec has {expected_points} points")
    return problems
