"""Tests of run.py: the result-line validator, and that a reduced run of
every workload prints exactly the metrics BENCHMARK.json lists.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

The second test builds the benchmark (into $CARGO_TARGET_DIR, default
.bench_build) and runs each workload at reduced size, traced and untraced.
"""

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

GOOD = ('{"correct": true, "attempted": 4, "failed": 0, "metrics": '
        '{"replay_wall_s": {"value": 1.25, "unit": "s"}}}')


class ParseResult(unittest.TestCase):
    def test_accepts_a_result_line(self):
        result = run.parse_result(GOOD)
        self.assertTrue(result["correct"])
        self.assertEqual(result["metrics"]["replay_wall_s"]["value"], 1.25)

    def test_accepts_a_failed_check_without_metrics(self):
        line = '{"correct": false, "attempted": 4, "failed": 4, "metrics": {}}'
        self.assertFalse(run.parse_result(line)["correct"])

    def test_rejects_malformed_lines(self):
        bad = [
            "not json",
            '{"correct": true, "attempted": 4, "failed": 0}',
            GOOD[:-1] + ', "extra": 1}',
            GOOD.replace('"attempted": 4', '"attempted": 0'),
            GOOD.replace('"attempted": 4', '"attempted": 4.5'),
            GOOD.replace('"failed": 0', '"failed": true'),
            GOOD.replace('"correct": true', '"correct": 1'),
            GOOD.replace('"unit": "s"', '"units": "s"'),
            GOOD.replace('1.25', '"1.25"'),
            '{"correct": true, "attempted": 4, "failed": 0, "metrics": {}}',
        ]
        for line in bad:
            with self.assertRaises(run.BenchError, msg=line):
                run.parse_result(line)


class ReducedRuns(unittest.TestCase):
    def test_metrics_match_benchmark_json(self):
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        expected = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        for workload in (w["name"] for w in spec["workloads"]):
            for trace in (0, 1):
                done = subprocess.run(
                    [sys.executable, os.path.join(HERE, "run.py"),
                     "--workload", workload, "--seed", "7", "--seconds", "0",
                     "--trace", str(trace), "--reduced"],
                    cwd=run.ROOT, capture_output=True, text=True, timeout=600,
                    check=False)
                self.assertEqual(done.returncode, 0, done.stderr + done.stdout)
                result = run.parse_result(done.stdout.splitlines()[-1])
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, expected[trace], (workload, trace))


if __name__ == "__main__":
    unittest.main()
