"""Tests of the benchmark itself: exact counters, tracing transparency, refusal.

    python3 -m pytest bench -q      (or: python3 -m unittest discover -s bench)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest
import dataclasses
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import spans  # noqa: E402
import workloads  # noqa: E402

# A short run of each workload: at least one full round, cold caches included.
SHORT_RUNS = {"interp_grid": 16, "three_way": 21, "lambda_tower": 22}


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=600)
    return proc


def truncated(x, abs_digits):
    """x known only modulo p^abs_digits (abs_digits above its valuation)."""
    return type(x)(x.prime, x.valuation, x.mantissa, abs_digits - x.valuation)


def parsed(proc):
    lines = proc.stdout.splitlines()
    return json.loads(lines[-2])["record"], json.loads(lines[-1])


class ShortRuns(unittest.TestCase):
    def test_counters_repeat_and_tracing_is_transparent(self):
        for workload, n_ops in SHORT_RUNS.items():
            with self.subTest(workload=workload):
                common = ["--workload", workload, "--seed", "7", "--ops", str(n_ops)]
                runs = [bench(*common, "--trace", t) for t in ("1", "1", "0")]
                for proc in runs:
                    self.assertEqual(proc.returncode, 0, proc.stderr)
                (rec_a, res_a), (rec_b, res_b), (rec_plain, res_plain) = map(parsed, runs)
                for name in spans.EXACT_COUNTERS:
                    self.assertEqual(res_a["metrics"][name], res_b["metrics"][name], name)
                self.assertEqual(rec_a["digests"], rec_plain["digests"])
                self.assertEqual(rec_b["digests"], rec_plain["digests"])
                self.assertEqual(res_plain["attempted"], n_ops)
                self.assertEqual(res_plain["failed"], 0)
                self.assertEqual(set(res_a["metrics"]), {name for name, _ in spans.PER_LAYER})


class Refusal(unittest.TestCase):
    def test_exits_nonzero_without_the_library(self):
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        bare = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_out"))
        try:
            shutil.copytree(HERE, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            proc = bench("--workload", "three_way", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)


class BenchmarkJson(unittest.TestCase):
    def test_per_layer_list_matches_the_tracer(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            declared = json.load(fh)
        self.assertEqual([(m["name"], m["unit"]) for m in declared["per_layer"]], spans.PER_LAYER)
        self.assertEqual({w["name"] for w in declared["workloads"]}, set(workloads.WORKLOADS))


class References(unittest.TestCase):
    def test_bernoulli_reference(self):
        known = {0: Fraction(1), 1: Fraction(1, 2), 2: Fraction(1, 6), 3: Fraction(0),
                 12: Fraction(-691, 2730), 16: Fraction(-3617, 510)}
        for n, value in known.items():
            self.assertEqual(workloads.bernoulli_ref(n), value)

    def test_agreement_respects_known_digits(self):
        from iwasawa.padic import PadicNumber

        x = PadicNumber.from_int(1 + 5**3, 5, 4)  # 1 + 5^3 known mod 5^4
        self.assertEqual(workloads.agreement(x, 1), 3)
        self.assertEqual(workloads.agreement(x, 1 + 5**3 + 5**4), 4)
        self.assertEqual(workloads.agreement(x, x), 4)
        self.assertEqual(workloads.agreement(truncated(x, 2), 1), 2)

    def test_checks_reject_outputs_with_too_few_digits(self):
        import random

        for op in next(workloads.interp_grid(random.Random(3))):
            if op.kind != "interp":
                continue
            rep = op.run()
            self.assertTrue(op.check(rep), op.size)
            # both sides equal, but known to one digit fewer than the threshold
            low = type(rep.lhs).one(rep.p, rep.r - 2)
            self.assertFalse(op.check(dataclasses.replace(rep, lhs=low, rhs=low)), op.size)
        for op in next(workloads.three_way(random.Random(3)))[:3]:
            out = op.run()
            self.assertTrue(op.check(out), op.size)
            # Stickelberger (threshold >= 2 here) to one digit, Coleman (3) to two
            for which, digits in ((0, 1), (1, 2)):
                bad = [list(vals) for vals in out]
                bad[0][which] = truncated(bad[0][which], digits)
                self.assertFalse(op.check(bad), (op.size, which))

    def test_checks_reject_wrong_outputs(self):
        import random

        ops = next(workloads.lambda_tower(random.Random(3)))
        for op in ops:
            out = op.run()
            self.assertTrue(op.check(out), op.size)
            if op.kind == "product":
                h, mlh, mlf, mlg = out
                bad = workloads.TruncatedSeries(h.prime, (h.coeffs[0] + 1,) + h.coeffs[1:], h.prec)
                self.assertFalse(op.check((bad, mlh, mlf, mlg)))
            elif op.kind == "irregular":
                self.assertFalse(op.check(out ^ {4}))
            elif op.kind == "divide":
                q, rem = out
                bad = workloads.TruncatedSeries(q.prime, (q.coeffs[0] + 1,) + q.coeffs[1:], q.prec)
                self.assertFalse(op.check((bad, rem)))


if __name__ == "__main__":
    unittest.main()
