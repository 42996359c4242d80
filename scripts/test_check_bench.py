#!/usr/bin/env python3
"""Tests for check_bench.py, the CI perf gate over BENCH_eventcore.json.

Usage: python3 scripts/test_check_bench.py   (ctest runs it as
check_bench_gates)

Each case writes a committed/candidate pair to a temp dir and runs
check_bench.py as a subprocess, exactly as CI's bench-smoke job does.  A
minimal passing pair must exit 0; each single mutation that breaks one gate
must exit 1 and report the failure (a crash would also exit 1, so the
FAILED summary line is required too).
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECK_BENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "check_bench.py")


def passing_doc():
    """The smallest bench document every gate accepts; used as both the
    committed baseline and the candidate."""
    return {
        "scheduler_microbench": {
            "timer_churn": {"new_ops_per_sec": 30e6},
            "tick_dispatch": {"new_events_per_sec": 10e6},
        },
        "flow_churn": {
            "recycling": {"flows_per_sec": 21000, "peak_rss_bytes": 5000000},
            "baseline": {"flows_per_sec": 23000, "peak_rss_bytes": 14000000},
            "peak_rss_lower": True,
        },
        "figures": [
            {"name": "permutation_ndp_k32", "wall_seconds": 6.0,
             "events_per_sec": 2.5e6},
        ],
        "flat_dispatch": {"flat_events_per_sec": 3.6e6, "speedup": 1.4,
                          "identical_events": True},
        "telemetry": {"off_events_per_sec": 3.6e6, "overhead": 1.05,
                      "identical_events": True},
        "campaign": {"jobs_per_sec": 450, "rss_stream_bytes": 5500000,
                     "rss_keepall_bytes": 19000000, "rss_flat": True,
                     "resume_identical": True},
    }


def set_key(doc, path, value):
    """Set doc[a][b]... = value for a dotted path."""
    *parents, leaf = path.split(".")
    for key in parents:
        doc = doc[key]
    doc[leaf] = value


class CheckBenchGates(unittest.TestCase):
    def run_check(self, committed, candidate):
        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for name, doc in (("committed", committed),
                              ("candidate", candidate)):
                path = os.path.join(tmp, name + ".json")
                with open(path, "w") as f:
                    json.dump(doc, f)
                paths.append(path)
            return subprocess.run([sys.executable, CHECK_BENCH, *paths],
                                  capture_output=True, text=True)

    def assert_exit(self, proc, code):
        self.assertEqual(proc.returncode, code,
                         proc.stdout + proc.stderr)
        if code == 1:
            self.assertIn("FAILED", proc.stdout, proc.stdout + proc.stderr)

    def test_passing_pair_exits_0(self):
        self.assert_exit(self.run_check(passing_doc(), passing_doc()), 0)

    def test_each_candidate_gate_fails_alone(self):
        mutations = [
            ("flat_dispatch.identical_events", False),
            ("flat_dispatch.speedup", 1.1),
            ("telemetry.identical_events", False),
            ("telemetry.overhead", 1.2),
            # 0.85x the flat rate: below the 0.9x bar, but within the 20%
            # rate tolerance, so only the structural gate can fire.
            ("telemetry.off_events_per_sec", 0.85 * 3.6e6),
            ("campaign.resume_identical", False),
            ("campaign.rss_stream_bytes", 19000000),
            ("campaign.rss_flat", False),
            ("flow_churn.peak_rss_lower", False),
        ]
        for path, value in mutations:
            with self.subTest(candidate=path, value=value):
                candidate = passing_doc()
                set_key(candidate, path, value)
                self.assert_exit(self.run_check(passing_doc(), candidate), 1)

    def test_committed_k32_floor(self):
        missing = passing_doc()
        missing["figures"] = []
        below = passing_doc()
        below["figures"][0]["events_per_sec"] = 2.2e6
        for name, committed in (("missing", missing), ("below", below)):
            with self.subTest(committed_k32=name):
                self.assert_exit(self.run_check(committed, passing_doc()), 1)

    def test_rate_tolerance(self):
        for drop, code in ((0.25, 1), (0.15, 0)):
            with self.subTest(drop=drop):
                candidate = passing_doc()
                set_key(candidate,
                        "scheduler_microbench.timer_churn.new_ops_per_sec",
                        30e6 * (1.0 - drop))
                self.assert_exit(self.run_check(passing_doc(), candidate),
                                 code)


if __name__ == "__main__":
    unittest.main()
