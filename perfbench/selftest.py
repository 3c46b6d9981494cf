#!/usr/bin/env python3
"""Fast self-test of the benchmark's check-failure path.

Run from the root of a specdag checkout:

    python3 perfbench/selftest.py

Feeds runs that break each correctness and determinism check to run.py's
check functions and runs the benchmark where there is nothing to build, where
it must exit non-zero without printing a result. When a benchmark build is
present it also runs the real CLI on a tiny scenario with an unreachable
accuracy floor. Scratch files go to .perfbench/selftest/.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

SCRATCH = run.OUT_DIR / "selftest"
WORKLOAD = run.WORKLOADS["clustered-90"]


def good_run(seed: int = 100) -> dict:
    return {"seed": seed, "exit": 0, "summary": {
        "dag_size": 11, "perf": {"commits": 10, "prepares": 12},
        "final_accuracy": 0.9, "pureness": 0.95, "base_pureness": 1 / 3}}


class CheckFailures(unittest.TestCase):
    def test_good_run_passes(self):
        self.assertEqual(run.check_run(good_run(), WORKLOAD), [])

    def test_nonzero_exit_fails(self):
        broken = good_run()
        broken["exit"] = 3
        self.assertTrue(run.check_run(broken, WORKLOAD))

    def test_missing_summary_fails(self):
        broken = good_run()
        broken["summary"] = None
        self.assertTrue(run.check_run(broken, WORKLOAD))

    def test_dag_size_mismatch_fails(self):
        broken = good_run()
        broken["summary"]["dag_size"] = 12
        self.assertTrue(run.check_run(broken, WORKLOAD))

    def test_accuracy_at_floor_fails(self):
        broken = good_run()
        broken["summary"]["final_accuracy"] = WORKLOAD.accuracy_floor
        self.assertTrue(run.check_run(broken, WORKLOAD))

    def test_pureness_at_base_fails(self):
        broken = good_run()
        broken["summary"]["pureness"] = broken["summary"]["base_pureness"]
        self.assertTrue(run.check_run(broken, WORKLOAD))

    def test_changed_series_for_same_seed_fails(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            saved = run.OUT_DIR
            run.OUT_DIR = Path(tmp)
            try:
                series = Path(tmp) / "series.jsonl"
                first = good_run()
                first["series"] = series
                series.write_text('{"round": 1, "mean_accuracy": 0.5, "mean_walk_seconds": 0.1}\n')
                self.assertEqual(run.check_series_repeats("w", first, "src"), [])
                # Wall-clock field differs only: still the same series.
                series.write_text('{"round": 1, "mean_accuracy": 0.5, "mean_walk_seconds": 0.2}\n')
                self.assertEqual(run.check_series_repeats("w", first, "src"), [])
                series.write_text('{"round": 1, "mean_accuracy": 0.6, "mean_walk_seconds": 0.1}\n')
                self.assertTrue(run.check_series_repeats("w", first, "src"))
            finally:
                run.OUT_DIR = saved


class BareDirectory(unittest.TestCase):
    def test_exits_nonzero_without_result(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            shutil.copytree(run.BENCH_DIR, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy("BENCHMARK.json", tmp)
            process = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "poets-lstm", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
            self.assertNotEqual(process.returncode, 0)
            self.assertNotIn('"correct"', process.stdout)


@unittest.skipUnless((run.build_dir() / "specdag" / "specdag").is_file(), "no benchmark build")
class RealRunFloor(unittest.TestCase):
    def test_unreachable_floor_fails(self):
        SCRATCH.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=SCRATCH) as tmp:
            spec = {"name": "selftest", "dataset": "fmnist-clustered", "rounds": 2,
                    "clients_per_round": 3, "num_clients": 6, "samples_per_client": 20,
                    "threads": 1}
            spec_path = Path(tmp) / "spec.json"
            spec_path.write_text(json.dumps(spec))
            result = run.run_cli(run.build_dir() / "specdag" / "specdag", spec_path.resolve(),
                                 spec, 7, Path(tmp))
            self.assertEqual(result["exit"], 0)
            self.assertEqual(run.check_run(result, run.Workload(1.0, 0.0, False)), [])
            failures = run.check_run(result, run.Workload(1.0, 0.999, False))
            self.assertTrue(any("learning floor" in failure for failure in failures))


if __name__ == "__main__":
    unittest.main()
