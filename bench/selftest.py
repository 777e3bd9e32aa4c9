"""Self-tests of the benchmark (not of the program).

Usage, from the repository root:

    python3 bench/selftest.py

Checks that a corrupted result or a wrong exit code counts as a failure,
that inputs are a pure function of the seed, that traced and untraced
passes give identical outputs, and that the benchmark refuses to run, and
prints no result, outside a checkout.  Takes about a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

ROOT = os.getcwd()
BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(ROOT, "src"))

import workloads  # noqa: E402  (needs src on the path)
from schreier_lab.budget import BudgetExceededError  # noqa: E402


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def _worker(workload: str, seed: int, index: int, *extra: str) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
         "--seed", str(seed), "--pass", str(index), *extra],
        env=_env(), capture_output=True, text=True, check=True, timeout=170)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _op(ops, prefix: str):
    return next(op for op in ops if op.name.startswith(prefix))


class CorruptedResultsFail(unittest.TestCase):
    """A wrong value, wrong bytes or a wrong exit code is a failure."""

    goldens = workloads.load_goldens()

    def verdict(self, workload, op, value, exc=None):
        return workloads.verdict(op, value, exc, self.goldens[workload])

    def test_correct_results_pass(self):
        op = _op(workloads.averages_ops(0, 0), "avg --xi 1 --stream all --n 9")
        self.assertEqual(self.verdict("averages", op, op.call())[0], "ok")

    def test_corrupted_vector_fails_its_golden(self):
        op = _op(workloads.averages_ops(0, 0), "avg --xi 1 --stream all --n 9")
        vec = op.call()
        entries = vec.entries
        first, second = sorted(entries)[:2]
        # Move mass between two coordinates: still a probability vector of
        # the right size, so only the golden catches it.
        shift = entries[first] / 2
        entries[first] -= shift
        entries[second] += shift
        corrupted = type(vec)(entries)
        status, reason, _ = self.verdict("averages", op, corrupted)
        self.assertEqual((status, reason), ("failed", "output differs from the golden"))

    def test_corrupted_norm_value_fails_the_witness_check(self):
        op = _op(workloads.norms_ops(7, 0), "seed7/pass0/0 ")
        result = op.call()
        wrong = type(result)(result.spec, result.value + 1, (result.value + 1) ** 2,
                             result.approx, result.witness)
        status, reason, _ = self.verdict("norms", op, wrong)
        self.assertEqual(status, "failed")
        self.assertIn("witness", reason)

    def test_corrupted_norm_value_fails_the_oracle(self):
        op = _op(workloads.norms_ops(7, 0), "seed7/pass0/0 ")
        result = op.call()
        wrong = type(result)(result.spec, result.value, result.value_squared + 1,
                             result.approx, result.witness)
        status, reason, _ = workloads.verdict(op, wrong, None, {}, oracle=True)
        self.assertEqual(status, "failed")

    def test_failed_report_check_fails(self):
        op = _op(workloads.bundles_ops(0, 0), "example-schreier --xi 0 --N 6")
        report = op.call()
        report.check("injected", False)
        self.assertEqual(self.verdict("bundles", op, report)[0], "failed")

    def test_unexpected_exception_fails(self):
        op = _op(workloads.averages_ops(0, 0), "avg --xi 1 --stream all --n 9")
        status, reason, _ = self.verdict("averages", op, None, ValueError("boom"))
        self.assertEqual((status, reason), ("failed", "ValueError: boom"))

    def test_refusal_needs_a_needs_message(self):
        op = _op(workloads.averages_ops(0, 0), "refuse avg --xi 2 --stream evens")
        ok = BudgetExceededError("x", 10, needed=11)
        bare = BudgetExceededError("x", 10)
        self.assertEqual(self.verdict("averages", op, None, ok)[0:2],
                         ("failed", "output differs from the golden"))
        self.assertEqual(workloads.judge(op, None, ok)[0], "refused")
        self.assertEqual(workloads.judge(op, None, bare)[0], "failed")
        self.assertEqual(workloads.judge(op, "completed", None)[0], "failed")

    def test_cli_exit_codes_and_stdout(self):
        ops = workloads.cli_ops(0, 0, "", {})
        readme = _op(ops, "ord parse --text w^2*3+w+4 --format text")
        refusal = _op(ops, "refuse avg --xi w --stream all --n 5")
        golden_stdout = self._stdout_for(readme)
        result = workloads.CliResult
        self.assertEqual(self.verdict("cli", readme, result(0, golden_stdout, b""))[0], "ok")
        self.assertEqual(self.verdict("cli", readme, result(1, golden_stdout, b""))[0],
                         "failed")
        self.assertEqual(self.verdict("cli", readme, result(0, golden_stdout + b"x", b""))[1],
                         "output differs from the golden")
        traceback = b"Traceback (most recent call last):\n  ...\nTypeError: x\n"
        self.assertEqual(self.verdict("cli", readme,
                                      result(0, golden_stdout, traceback))[0], "failed")
        needs = b"budget exceeded: budget exceeded for x: limit 1 (needs >= 262136)\n"
        self.assertEqual(workloads.judge(refusal, result(2, b"", needs), None)[0], "refused")
        self.assertEqual(workloads.judge(refusal, result(2, b"", b"error: x\n"), None)[0],
                         "failed")
        self.assertEqual(workloads.judge(refusal, result(0, b"", needs), None)[0], "failed")

    def _stdout_for(self, op) -> bytes:
        proc = subprocess.run([sys.executable, "-m", "schreier_lab.cli",
                               *op.name.split()], env=_env(), capture_output=True,
                              check=True)
        return proc.stdout


class SeededInputs(unittest.TestCase):
    """The same seed gives byte-identical inputs; another seed, other inputs."""

    def digest(self, workload, seed, index=0):
        ops = workloads.build_ops(workload, seed, index, workdir="", env={})
        return workloads.inputs_digest(workload, ops, seed, index)

    def test_same_seed_same_inputs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertEqual(self.digest(workload, 3), self.digest(workload, 3))

    def test_other_seed_other_inputs(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                self.assertNotEqual(self.digest(workload, 3), self.digest(workload, 4))

    def test_norm_vectors_are_byte_identical(self):
        first = [x.to_json() for _, x in workloads.norm_inputs(5, 2)]
        again = [x.to_json() for _, x in workloads.norm_inputs(5, 2)]
        other = [x.to_json() for _, x in workloads.norm_inputs(6, 2)]
        self.assertEqual(first, again)
        self.assertNotEqual(first, other)


class TracingKeepsOutputs(unittest.TestCase):
    """Traced and untraced passes on the same inputs give identical outputs."""

    def test_traced_outputs_identical(self):
        for workload in ("norms", "averages"):
            with self.subTest(workload=workload):
                plain = _worker(workload, 11, 1)
                traced = _worker(workload, 11, 1, "--trace")
                self.assertEqual(plain["inputs_digest"], traced["inputs_digest"])
                self.assertEqual(plain["outputs_digest"], traced["outputs_digest"])
                self.assertTrue(traced["layers"]["spaces.calls"]
                                or traced["layers"]["averages.calls"])


class MetricsMatchTheContract(unittest.TestCase):
    """run.py prints exactly the metrics BENCHMARK.json names, with its units."""

    def test_names_and_units(self):
        import run
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            contract = json.load(fh)
        self.assertEqual({m["name"]: m["unit"] for m in contract["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in contract["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in contract["workloads"]),
                         workloads.WORKLOADS)


class RefusesOutsideACheckout(unittest.TestCase):
    """With only BENCHMARK.json and bench/, it exits non-zero with no result."""

    def test_no_program(self):
        results = os.path.join(BENCH, "results")
        os.makedirs(results, exist_ok=True)
        bare = tempfile.mkdtemp(prefix="bare-", dir=results)
        try:
            shutil.copytree(BENCH, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("results", "__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = subprocess.run(
                [sys.executable, "bench/run.py", "--workload", "norms", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, capture_output=True, text=True, timeout=170,
                env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"})
        finally:
            shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
