#!/usr/bin/env python3
"""Tests of the benchmark harness itself.

    python3 perfbench/test_harness.py

Covers the statistics run.py reports, the scaling of wall metrics to
reference host speed, how it counts failed operations (a digest mismatch
between repetitions of one seed fails the repetition), and, through the
C++ self-test, the span self-time arithmetic.
"""

import statistics
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def rep(sim_ns=100, digest="00ab", attempted=10, ops=10, traced=False,
        layer=None, failures=()):
    return {"sim_ns": sim_ns, "digest": digest, "attempted": attempted,
            "ops": ops, "traced": traced, "layer": layer or {},
            "failures": list(failures), "body_s": 1.0, "setup_s": 0.1,
            "peak_rss_mb": 10.0}


class Statistics(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0]
        self.assertEqual(run.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))
        self.assertEqual(run.quartiles(values)[1], statistics.median(values))

    def test_single_value(self):
        self.assertEqual(run.quartiles([2.5]), (2.5, 2.5, 2.5))

    def test_summary(self):
        s = run.summarize([1.0, 2.0, 3.0, 4.0])
        self.assertEqual((s["median"], s["min"], s["max"], s["n"]),
                         (2.5, 1.0, 4.0, 4))
        self.assertEqual((s["q1"], s["q3"]), (1.25, 3.75))


class HostScaling(unittest.TestCase):
    def test_slow_host_scales_wall_metrics_to_reference_speed(self):
        # The reference took twice REF_S: the host ran at half speed.
        refs = [2 * run.REF_S, 2 * run.REF_S, 9 * run.REF_S]
        series = run.end_to_end([rep(ops=10), rep(ops=10)], refs)
        self.assertEqual(series["ops_per_s"], [20.0, 20.0])
        self.assertEqual(series["setup_s"], [0.05, 0.05])
        self.assertEqual(series["peak_rss_mb"], [10.0, 10.0])

    def test_reference_host_leaves_wall_metrics_unchanged(self):
        series = run.end_to_end([rep(ops=10)], [run.REF_S])
        self.assertEqual((series["ops_per_s"], series["setup_s"]),
                         ([10.0], [0.1]))


class FailureCounting(unittest.TestCase):
    def test_agreeing_repetitions_pass(self):
        self.assertEqual(run.check([rep(), rep(), rep()])[:2], (30, 0))

    def test_digest_mismatch_fails_the_repetition(self):
        attempted, failed, notes = run.check(
            [rep(), rep(digest="ffff"), rep()])
        self.assertEqual((attempted, failed), (30, 10))
        self.assertIn("rep 1", notes[0])

    def test_virtual_time_mismatch_fails_the_repetition(self):
        self.assertEqual(run.check([rep(), rep(), rep(sim_ns=101)])[1], 10)

    def test_failed_checks_count_against_attempted(self):
        attempted, failed, notes = run.check(
            [rep(ops=7, failures=["3 tasks missing"]), rep()])
        self.assertEqual((attempted, failed), (20, 3))
        self.assertEqual(notes, ["rep 0: 3 tasks missing"])

    def test_crashed_repetition_fails_whole(self):
        self.assertEqual(run.check([rep(), None])[:2], (20, 10))

    def test_traced_counts_must_repeat(self):
        same = {"sim.events": 5.0, "sim.events_per_s": 1.0}
        timing_differs = {"sim.events": 5.0, "sim.events_per_s": 2.0}
        count_differs = {"sim.events": 6.0, "sim.events_per_s": 1.0}
        ok = run.check([rep(traced=True, layer=same),
                        rep(traced=True, layer=timing_differs)])
        self.assertEqual(ok[1], 0)
        bad = run.check([rep(traced=True, layer=same),
                         rep(traced=True, layer=same),
                         rep(traced=True, layer=count_differs)])
        self.assertEqual(bad[1], 10)

    def test_timed_metric_names(self):
        for name in ("mpi.wait_s", "sctp.decode_ns", "shard.parks",
                     "sim.events_per_s", "shard.cpu_per_wall"):
            self.assertTrue(run.is_timed(name), name)
        for name in ("app.sim_s", "sim.events", "rpi.blocks_per_msg"):
            self.assertFalse(run.is_timed(name), name)


class SpanSelfTime(unittest.TestCase):
    def test_cpp_self_test(self):
        self.assertTrue(run.build())
        proc = subprocess.run([str(run.BUILD / "perfbench_span_test")],
                              capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stderr)


if __name__ == "__main__":
    unittest.main()
