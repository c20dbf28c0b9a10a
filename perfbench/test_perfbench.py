#!/usr/bin/env python3
"""Self-tests of the benchmark's own statistics and load generator.

    python3 perfbench/test_perfbench.py

Covers the percentile rule, quartiles and IQR, open-loop latency timed
from the scheduled send time (a synthetic server stall must inflate the
samples due during it), the generator-lateness report and compare.py's
refusal to compare different builds.  Needs no build: the serve tests
drive a stand-in server written in Python.
"""

import os
import sys
import time
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import compare  # noqa: E402
import serve_workload  # noqa: E402
import stats  # noqa: E402

# Answers every job line with an ok record; sleeps STALL_S before
# answering job STALL_AT, so every job queued behind it waits too.
FAKE_SERVER = r"""
import json, sys, time
stall_at, stall_s = int(sys.argv[1]), float(sys.argv[2])
print(json.dumps({"event": "ready"}), flush=True)
job = 0
for line in sys.stdin:
    job += 1
    if job == stall_at:
        time.sleep(stall_s)
    print(json.dumps({"job": job, "status": "ok", "wall_ms": 0.1}),
          flush=True)
print(json.dumps({"event": "shutdown", "ok": job}), flush=True)
"""


class PercentileRule(unittest.TestCase):
    def test_p99_needs_a_thousand_samples(self):
        tail = stats.tail_percentile(range(1, 1001))
        self.assertEqual(tail, {"percentile": 99.0, "value": 990,
                                "samples": 1000})

    def test_falls_back_to_the_highest_supported_percentile(self):
        tail = stats.tail_percentile(range(1, 501))
        self.assertAlmostEqual(tail["percentile"], 98.0)
        self.assertEqual(tail["value"], 490)
        # exactly ten samples lie beyond the reported value
        self.assertEqual(sum(1 for v in range(1, 501) if v > tail["value"]),
                         10)
        self.assertEqual(tail["samples"], 500)

    def test_never_below_the_median(self):
        tail = stats.tail_percentile([5, 1, 3, 2, 4])
        self.assertEqual(tail["percentile"], 50.0)
        self.assertEqual(tail["value"], 3)

    def test_order_of_samples_does_not_matter(self):
        values = list(range(2000))
        self.assertEqual(stats.tail_percentile(values),
                         stats.tail_percentile(values[::-1]))

    def test_rejects_empty_series(self):
        with self.assertRaises(ValueError):
            stats.tail_percentile([])


class Quartiles(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        self.assertEqual(stats.quartiles(range(1, 10)), (2.5, 5.0, 7.5))

    def test_iqr_share_is_relative_to_the_median(self):
        self.assertAlmostEqual(stats.iqr_share(range(1, 10)), 1.0)
        self.assertEqual(stats.iqr_share([4.0] * 10), 0.0)

    def test_summary_reports_sample_count(self):
        summary = stats.summary([3.0, 1.0, 2.0])
        self.assertEqual(summary["samples"], 3)
        self.assertEqual(summary["median"], 2.0)
        self.assertEqual(summary["iqr_share"], stats.iqr_share([1, 2, 3]))


class CompareRefusesOtherBuilds(unittest.TestCase):
    RECORD = {"workload": "spectral_sweep", "trace": 0, "seconds": 20,
              "build": {"build_type": "Release", "flags": "-O3 -DNDEBUG",
                        "simd": "scalar", "git_hash": "abc"}}

    def other(self, **build):
        record = dict(self.RECORD, build=dict(self.RECORD["build"], **build))
        return compare.identity_problems(self.RECORD, record)

    def test_same_build_other_commit_compares(self):
        self.assertEqual(self.other(git_hash="def"), [])

    def test_build_type_flags_or_isa_differ(self):
        self.assertTrue(self.other(build_type="Debug"))
        self.assertTrue(self.other(flags="-O2"))
        self.assertTrue(self.other(simd="avx2"))


class OpenLoop(unittest.TestCase):
    RATE = 200.0
    JOBS = 120
    STALL_AT = 20
    STALL_S = 0.3

    def run_session(self):
        session = serve_workload.ServeSession(
            [sys.executable, "-c", FAKE_SERVER, str(self.STALL_AT),
             str(self.STALL_S)], os.getcwd())
        try:
            session.wait_ready()
            jobs = [serve_workload.Job("job", "ok") for _ in range(self.JOBS)]
            by_id, due, sent = serve_workload.open_loop(session, jobs,
                                                        self.RATE)
        finally:
            session.close()
        received = {job_id: got[0][0]
                    for job_id, got in session.records.items()}
        return due, sent, received

    def test_a_stall_inflates_every_later_sample(self):
        due, sent, received = self.run_session()
        latency = stats.open_loop_latencies(due, received)
        self.assertEqual(len(latency), self.JOBS)
        # before the stall: answered promptly
        self.assertLess(max(latency[j] for j in range(1, self.STALL_AT)),
                        0.1)
        # the stalled job and the jobs due while it stalled all carry
        # the stall: each waits until the server resumes
        resume = due[self.STALL_AT] + self.STALL_S
        for job_id in range(self.STALL_AT, self.JOBS + 1):
            if due[job_id] < resume - 0.05:
                self.assertGreater(latency[job_id],
                                   resume - due[job_id] - 0.05)
        # the stall shows in the tail, not only in one sample
        delayed = int(self.STALL_S * self.RATE * 0.8)
        self.assertGreaterEqual(
            sum(1 for v in latency.values() if v > 0.05), delayed)
        # the generator itself kept to its schedule: the stall is the
        # server's, and timing from the send time would hide nothing
        # here only because the loop is open
        self.assertLess(stats.generator_lag(due, sent)["max"], 0.05)

    def test_generator_lateness_is_reported(self):
        class SlowSender:
            """A session whose send blocks once, as a stalled pipe would."""
            next_id = 0

            def send(self, line):
                self.next_id += 1
                if self.next_id == 5:
                    time.sleep(0.1)
                return self.next_id, time.perf_counter()

            def wait_answered(self, count):
                return True

        _, due, sent = serve_workload.open_loop(
            SlowSender(), [serve_workload.Job("job", "ok")] * 20, 100.0)
        lag = stats.generator_lag(due, sent)
        self.assertEqual(lag["samples"], 20)
        self.assertGreaterEqual(lag["max"], 0.09)
        # every job after the blocked one was sent late too
        self.assertGreater(sent[6] - due[6], 0.05)

    def test_lag_of_an_empty_schedule(self):
        self.assertEqual(stats.generator_lag({}, {})["samples"], 0)


class JobStream(unittest.TestCase):
    def test_same_seed_same_lines(self):
        a = serve_workload.JobStream(7, "out")
        b = serve_workload.JobStream(7, "out")
        self.assertEqual([a.next().line for _ in range(200)],
                         [b.next().line for _ in range(200)])

    def test_mix(self):
        stream = serve_workload.JobStream(3, "out")
        jobs = [stream.next() for _ in range(4000)]
        invalid = sum(1 for j in jobs if j.expected == "error")
        thm22 = sum(1 for j in jobs
                    if j.kv and j.kv["scenario"] == "thm22_convergence")
        json_lines = sum(1 for j in jobs if j.line.startswith("{"))
        self.assertTrue(10 < invalid < 80, invalid)
        self.assertTrue(120 < thm22 < 280, thm22)
        self.assertTrue(1700 < json_lines < 2300, json_lines)
        keys = {(j.kv["n"], j.kv["graph-seed"]) for j in jobs
                if j.kv and j.kv["scenario"] != "thm22_convergence"}
        self.assertGreater(len(keys), 64)


if __name__ == "__main__":
    unittest.main()
