"""Smoke tests of the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

Every workload runs through ``run.py --tiny`` in both modes and must print
every metric of ``BENCHMARK.json`` with its unit, every timed per-layer
metric must be measured on some workload, and the output checks must reject
corrupted results.  Takes about two minutes.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
CHECK_FAILED = "output check failed"


def bench(workload: str, trace: int) -> tuple[dict, dict]:
    """Run one tiny benchmark; return the printed summary and the full record."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    if proc.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    summary = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads(
        (run.RESULTS / f"{workload}-seed1-trace{trace}-tiny.json").read_text()
    )
    return summary, record


class TinyWorkloads(unittest.TestCase):
    def test_every_workload_reports_every_metric(self):
        measured = set()
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            for workload in workloads.WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    summary, record = bench(workload, trace)
                    self.assertEqual(set(summary),
                                     {"correct", "attempted", "failed", "metrics"})
                    self.assertGreaterEqual(summary["attempted"], 1)
                    self.assertEqual(
                        {k: v["unit"] for k, v in summary["metrics"].items()},
                        {m["name"]: m["unit"] for m in declared},
                    )
                    for name, metric in summary["metrics"].items():
                        self.assertIsInstance(metric["value"], (int, float), name)
                        if metric["value"] != 0:
                            measured.add(name)
                    # Tiny records are too short for the statistical bounds,
                    # so only the exact oracle must pass; elsewhere the
                    # pipeline must at least run through to the check.
                    errors = [e["error"] for e in record["experiments"] if "error" in e]
                    if workload == "oracle-wide":
                        self.assertEqual(errors, [])
                    for error in errors:
                        self.assertTrue(error.startswith(CHECK_FAILED), error)
                    self.assertEqual(record["seed"], 1)
                    self.assertEqual(record["blas_threads"], str(run.BLAS_THREADS))
        # A timed layer that no workload reaches is a misnamed metric or span.
        timed = {m["name"] for m in SPEC["per_layer"] if m["unit"] == "s"}
        self.assertEqual(timed - measured, set())


class ChecksRejectCorruption(unittest.TestCase):
    def setUp(self):
        self.w = workloads
        self.out = ROOT / ".perfbench_work" / "smoke"
        shutil.rmtree(self.out, ignore_errors=True)

    def tearDown(self):
        shutil.rmtree(self.out, ignore_errors=True)

    def experiment(self, name: str):
        exp = self.w.make_experiment(name, ROOT, self.out, 1, tiny=True)
        self.w.WORKLOADS[name].run(exp)
        return exp

    def test_recovered_matrix_missing_an_edge(self):
        exp = self.experiment("oracle-wide")
        self.w.check_oracle(exp)
        path = exp.out / "recovered_weights.txt"
        lines = path.read_text().splitlines()
        n = int(lines[0])
        rows = [line.split() for line in lines[1:1 + n]]
        j, i = next((j, i) for j in range(n) for i in range(n)
                    if i != j and float(rows[j][i]) != 0.0)
        rows[j][i] = "0"
        path.write_text("\n".join([lines[0], *(" ".join(r) for r in rows),
                                   *lines[1 + n:]]) + "\n")
        for check in (self.w.check_oracle, self.w.check_empirical):
            with self.assertRaises(self.w.CheckFailed):
                check(exp)

    def test_grounded_cpsd_with_wrong_gain(self):
        exp = self.experiment("defective-ring")
        self.w.check_cpsd(exp)
        path = exp.out / "spectra" / "cpsd_grounded_1.txt"
        lines = path.read_text().splitlines()
        scaled = [" ".join(f"{10 * complex(tok)}" for tok in line.split())
                  for line in lines[4:]]
        path.write_text("\n".join(lines[:4] + scaled) + "\n")
        with self.assertRaises(self.w.CheckFailed):
            self.w.check_cpsd(exp)


if __name__ == "__main__":
    unittest.main(verbosity=2)
