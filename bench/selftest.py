#!/usr/bin/env python3
"""Self-test of the benchmark: every oracle must count a tampered output as
a failed op, so that the correctness gate is not vacuous.

    python3 bench/selftest.py
"""

from __future__ import annotations

import functools
import json
import re
import unittest

import run
from tracing import Tracer
from workloads import (
    ACCEPTANCE_MAPS,
    DENSITY_ROWS,
    TOWER_MAPS,
    WORKLOADS,
    X2P1,
    check_curve,
    check_density,
    check_tower,
)

cli = run.load_program()
MAPS = {m.name: m for m in ACCEPTANCE_MAPS + TOWER_MAPS}


@functools.cache
def certify(m):
    return run.run_op(cli, ("certify", *m.cli_args(), "--from", "1", "--to", "20"))


def curve(m, level, *extra):
    return run.run_op(cli, ("curve", *m.cli_args(), "--level", str(level), *extra, "--json"))


def bump_witness(out: str, status: str) -> str:
    """Add 2 to the witness of the highest-level certificate with this status."""
    *_, match = re.finditer(rf"^level \d+: {status} \(witness (\d+)\)$", out, re.M)
    return out[: match.start(1)] + str(int(match.group(1)) + 2) + out[match.end(1):]


class TowerOracle(unittest.TestCase):
    def test_genuine_output_passes(self):
        verdict = check_tower(MAPS["shifted-jones-small"], *certify(MAPS["shifted-jones-small"]))
        self.assertEqual((verdict.completed, verdict.verified, verdict.failed), (20, 20, 0))

    def test_known_level_one_defect_is_the_only_failure(self):
        verdict = check_tower(X2P1, *certify(X2P1))
        self.assertEqual((verdict.verified, verdict.failed), (19, 1))
        self.assertEqual(verdict.notes, ["level 1 FailedSquareOverQ: -c_a = -1 is not a square"])

    def test_tampered_witnesses_fail(self):
        m = MAPS["shifted-jones-small"]
        code, out = certify(m)
        for status in ("CertifiedMaximal", "FailedSquareOverQ"):
            with self.subTest(status=status):
                self.assertEqual(check_tower(m, code, bump_witness(out, status)).failed, 1)

    def test_flipped_level_one_status_fails(self):
        m = MAPS["shifted-jones-small"]
        code, out = certify(m)
        lines = out.splitlines()
        lines[0] = lines[0].replace("CertifiedMaximal", "FailedSquareOverQ")
        counts = dict(item.split("=") for item in lines[-1].removeprefix("counts: ").split(", "))
        counts["CertifiedMaximal"] = str(int(counts["CertifiedMaximal"]) - 1)
        counts["FailedSquareOverQ"] = str(int(counts["FailedSquareOverQ"]) + 1)
        lines[-1] = "counts: " + ", ".join(f"{k}={v}" for k, v in counts.items())
        self.assertEqual(check_tower(m, code, "\n".join(lines)).failed, 1)

    def test_error_exit_fails_every_certificate(self):
        self.assertEqual(check_tower(X2P1, 1, "").failed, 20)


class Correct(unittest.TestCase):
    """`correct` is false exactly when some failed op is not a known defect."""

    tower = WORKLOADS["tower-20"]

    def unexpected(self, out: str) -> list[str]:
        return run.unexpected_failures(self.tower, {X2P1.name: check_tower(X2P1, 0, out)})

    def test_known_defect_alone_is_correct(self):
        self.assertEqual(self.unexpected(certify(X2P1)[1]), [])

    def test_fixed_defect_is_correct(self):
        lines = certify(X2P1)[1].splitlines()
        lines[0] = "level 1: Unknown (witness 1)"
        counts = dict(item.split("=") for item in lines[-1].removeprefix("counts: ").split(", "))
        counts["FailedSquareOverQ"] = str(int(counts["FailedSquareOverQ"]) - 1)
        counts["Unknown"] = str(int(counts["Unknown"]) + 1)
        lines[-1] = "counts: " + ", ".join(f"{k}={v}" for k, v in counts.items())
        verdict = check_tower(X2P1, 0, "\n".join(lines))
        self.assertEqual(verdict.failed, 0)
        self.assertEqual(self.unexpected("\n".join(lines)), [])

    def test_new_wrong_answer_is_incorrect(self):
        tampered = bump_witness(certify(X2P1)[1], "CertifiedMaximal")
        self.assertEqual(len(self.unexpected(tampered)), 1)


class ForcedPointOracle(unittest.TestCase):
    m = MAPS["x2+2"]

    def test_genuine_output_passes(self):
        verdict = check_curve(self.m, 4, *curve(self.m, 4))
        self.assertEqual((verdict.completed, verdict.verified, verdict.failed), (1, 1, 0))

    def test_tampered_models_fail(self):
        code, out = curve(self.m, 4)
        doc = json.loads(out)
        tampers = {
            "flipped forced_point_verified": {"forced_point_verified": False},
            "rhs coefficient off by 2": {"rhs_coeffs": [str(int(doc["rhs_coeffs"][0]) + 2)] + doc["rhs_coeffs"][1:]},
            "d off by 2": {"d": str(int(doc["d"]) + 2)},
        }
        for what, change in tampers.items():
            with self.subTest(what):
                self.assertEqual(check_curve(self.m, 4, code, json.dumps({**doc, **change})).failed, 1)

    def test_budget_exit_is_incomplete_not_failed(self):
        code, out = curve(self.m, 9, "--trial-bound", "1000", "--rho-iters", "1000")
        self.assertEqual(code, 2)
        verdict = check_curve(self.m, 9, code, out)
        self.assertEqual((verdict.completed, verdict.failed), (0, 0))
        doc = json.loads(out)
        doc["partial"]["cofactor"] = str(int(doc["partial"]["cofactor"]) + 2)
        self.assertEqual(check_curve(self.m, 9, code, json.dumps(doc)).failed, 1)


class DensityOracle(unittest.TestCase):
    # The CSV layout the CLI prints, rebuilt from the recorded exact rows.
    csv = "X,primes_tested,members,proportion\n" + "".join(
        f"{x},{t},{k},{float(n / d)!r}\n" for x, t, k, n, d in DENSITY_ROWS)

    def test_recorded_rows_pass(self):
        self.assertEqual(check_density(0, self.csv).verified, 78498)

    def test_small_run_prints_the_same_rows(self):
        code, out = run.run_op(cli, ("density", *X2P1.cli_args(), "--b", "0", "--X", "1000",
                                     "--format", "csv"))
        self.assertEqual(out.splitlines()[:4], self.csv.splitlines()[:4])

    def test_one_changed_row_fails_the_call(self):
        tampered = self.csv.replace("\n1000,168,17,", "\n1000,168,18,")
        self.assertEqual(check_density(0, tampered).failed, 78498)
        tampered = self.csv.replace(repr(16 / 5607), repr(16 / 5607 + 1e-12))
        self.assertEqual(check_density(0, tampered).failed, 78498)


class Harness(unittest.TestCase):
    def test_usage_error_is_a_failed_op(self):
        code, out = run.run_op(cli, ("certify", "--bogus"))
        self.assertEqual(code, 1)
        self.assertEqual(check_tower(X2P1, code, out).failed, 20)

    def test_self_time_excludes_children(self):
        tracer = Tracer()
        inner = tracer.wrap("inner", lambda: sum(range(10 ** 5)))
        outer = tracer.wrap("outer", lambda: inner() + inner())
        outer()
        totals = tracer.totals()
        self.assertEqual(totals["inner"][0], 2)
        outer_span = tracer.spans[0]
        self.assertAlmostEqual(totals["outer"][1] + totals["inner"][1], outer_span.duration, places=9)


if __name__ == "__main__":
    unittest.main()
