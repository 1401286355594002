#!/usr/bin/env python3
"""Self-tests of the output checks: every kind of corrupted output must
make its checker fail, and clean output must pass.

    python3 perfbench/selftest.py
"""

import copy
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import checks  # noqa: E402
import layers  # noqa: E402

PEAKS = {"Nallatech PCIe-385N (Stratix V GS D5), AOCL 15.1": 25.6}


def record(key_n=262144, op="Copy", wall=2.0e5, bytes_moved=None, kernel=None, dram=None):
    return {
        "key": f"KernelConfig {{ op: {op}, dtype: I32, n_words: {key_n}, vector_width: "
               "VectorWidth(4), pattern: Contiguous, loop_mode: SingleWorkItemFlat }",
        "retries": 0, "status": "ok",
        "device": "Nallatech PCIe-385N (Stratix V GS D5), AOCL 15.1",
        "bytes_moved": bytes_moved if bytes_moved is not None else 2 * key_n * 4,
        "best_wall_ns": wall, "best_kernel_ns": kernel if kernel is not None else wall - 5.0e4,
        "validated": True, "dram_bytes": dram if dram is not None else 2 * key_n * 4,
        "row_hits": 1000, "row_misses": 10, "row_empty": 2, "cache": "miss",
    }


class RecordChecks(unittest.TestCase):
    def test_clean_record_passes(self):
        self.assertEqual(checks.check_record(record(), PEAKS), [])

    def test_wrong_byte_count_fails(self):
        self.assertTrue(checks.check_record(record(bytes_moved=2 * 262144 * 4 + 4), PEAKS))

    def test_bandwidth_above_peak_fails(self):
        # 2 MiB in 50 us is ~42 GB/s, above the 25.6 GB/s peak.
        self.assertTrue(checks.check_record(record(wall=5.0e4), PEAKS))

    def test_kernel_bandwidth_above_peak_fails(self):
        # 2 MiB: 17.5 GB/s over the wall clock, but ~30 GB/s in the kernel
        # once the 50 us launch overhead is taken out.
        self.assertTrue(checks.check_record(record(wall=1.2e5), PEAKS))

    def test_dram_bandwidth_above_peak_fails(self):
        # 8 MiB of DRAM traffic in a 150 us kernel is ~56 GB/s.
        self.assertTrue(checks.check_record(record(dram=4 * 2 * 262144 * 4), PEAKS))

    def test_failed_validation_fails(self):
        r = record()
        r["validated"] = False
        self.assertTrue(checks.check_record(r, PEAKS))

    def test_does_not_fit_is_a_result(self):
        r = {"key": "k", "retries": 0, "status": "err", "code": checks.DOES_NOT_FIT, "msg": ""}
        self.assertFalse(checks.is_failure(r))
        r["code"] = "HostPanic"
        self.assertTrue(checks.is_failure(r))


class SearchChecks(unittest.TestCase):
    def setUp(self):
        self.grid = [record(key_n=n, wall=3.0e5 + n) for n in (262144, 262160, 262176)]

    def test_search_within_grid_passes(self):
        search = [copy.deepcopy(self.grid[1])]
        search[0]["cache"] = "hit"  # a scheduling fact, not a measurement
        self.assertEqual(checks.check_search(search, self.grid, "model"), [])

    def test_search_beating_grid_fails(self):
        better = record(key_n=262144, wall=1.0e5)
        self.assertTrue(checks.check_search([better], self.grid, "model"))

    def test_search_point_measuring_differently_fails(self):
        other = copy.deepcopy(self.grid[2])
        other["row_hits"] += 1
        self.assertTrue(checks.check_search([other], self.grid, "genetic"))


class StreamChecks(unittest.TestCase):
    lines = b'{"key":"a","x":1}\n{"key":"b","x":2}\n'
    done = {"state": "done", "done": 2, "total": 2}

    def test_identical_stream_passes(self):
        self.assertEqual(checks.check_stream(self.lines, self.lines, 2, self.done), [])

    def test_flipped_byte_fails(self):
        flipped = bytearray(self.lines)
        flipped[12] ^= 0x01
        self.assertTrue(checks.check_stream(bytes(flipped), self.lines, 2, self.done))

    def test_unfinished_stream_fails(self):
        running = {"state": "running", "done": 1, "total": 2}
        self.assertTrue(checks.check_stream(self.lines, self.lines, 2, running))

    def test_wrong_record_count_fails(self):
        self.assertTrue(checks.check_stream(self.lines, self.lines, 3, self.done))


class JobChecks(unittest.TestCase):
    done = {"state": "done", "done": 2, "total": 2}

    def test_done_job_with_ok_points_passes(self):
        self.assertFalse(checks.job_failed(self.done, [record(), record(key_n=262160)]))

    def test_done_job_with_a_failed_point_fails(self):
        panic = {"key": "k", "retries": 0, "status": "err", "code": "HostPanic", "msg": ""}
        self.assertTrue(checks.job_failed(self.done, [record(), panic]))

    def test_unfinished_job_fails(self):
        self.assertTrue(checks.job_failed({"state": "failed"}, [record()]))
        self.assertTrue(checks.job_failed(None, []))


class TraceChecks(unittest.TestCase):
    layer = {"core.point_s": 1.0, "core.runner_self_s": 0.5, "core.engine_self_s": 0.01}

    def test_sane_residuals_pass(self):
        self.assertEqual(layers.check_residuals("p", self.layer), [])

    def with_value(self, name, value):
        return layers.check_residuals("p", dict(self.layer, **{name: value}))

    def test_negative_residual_fails(self):
        # An interpretation estimate larger than the time left in the point.
        self.assertTrue(self.with_value("core.runner_self_s", -0.1))
        self.assertTrue(self.with_value("core.engine_self_s", -0.01))

    def test_runner_swallowing_the_point_fails(self):
        self.assertTrue(self.with_value("core.runner_self_s", 0.9))

    def test_cross_check(self):
        self.assertEqual(layers.cross_check("a", 1.1, "b", 1.0), [])
        self.assertTrue(layers.cross_check("a", 1.4, "b", 1.0))
        self.assertTrue(layers.cross_check("a", 0.6, "b", 1.0))


class DigestChecks(unittest.TestCase):
    def test_digest_ignores_order_but_not_statistics(self):
        a, b = record(key_n=262144), record(key_n=262160)
        self.assertEqual(checks.digest([a, b]), checks.digest([b, a]))
        b2 = dict(b, row_misses=b["row_misses"] + 1)
        self.assertNotEqual(checks.digest([a, b]), checks.digest([a, b2]))


if __name__ == "__main__":
    unittest.main()
