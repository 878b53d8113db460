"""Tests of the independent checker against hand values.

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import sys
import unittest
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import checker as ck
from workloads import _check_cokernel_report, _check_surjectivity_report

SRC = Path(__file__).resolve().parent.parent / "src"

P2 = [(1, 0), (0, 1), (-1, -1)]
F2 = [(1, 0), (0, 1), (-1, 2), (0, -1)]
BLBLP2 = [(1, 0), (1, 1), (0, 1), (-1, -1), (0, -1)]

HEADER = ("fan_id,L_coeffs,E_coeffs,h0_L,h0_E,h0_sum,sumset_size,coker_dim,"
          "surjective,structured_fallbacks,seed")


def brute_witnesses(rays, l, e):
    s_l, s_e = ck.points(rays, l), ck.points(rays, e)
    found = {}
    for q1 in s_l:
        for q2 in s_e:
            found.setdefault((q1[0] + q2[0], q1[1] + q2[1]), (q1, q2))
    return [(p, q1, q2) for p, (q1, q2) in sorted(found.items())]


def csv_row(rays, l, e, seed, coker_shift=0):
    c = ck.cokernel(rays, l, e)
    coker = len(c.missing) + coker_shift
    return ",".join([
        ck.fan_label(rays), "|".join(map(str, l)), "|".join(map(str, e)),
        str(c.h0_l), str(c.h0_e), str(c.h0_sum), str(c.h0_sum - coker), str(coker),
        "true" if coker == 0 else "false", "0", str(seed),
    ])


class CountTest(unittest.TestCase):
    def test_p2_multiples(self):
        for k in range(0, 13):
            want = (3 * k + 1) * (3 * k + 2) // 2
            coeffs = ck.translate(P2, (k, k, k), (5, -3))
            self.assertTrue(ck.is_globally_generated(P2, coeffs))
            self.assertEqual(ck.is_ample(P2, coeffs), k > 0)
            self.assertEqual(ck.h0(P2, coeffs), want)
            self.assertEqual(ck.row_count(P2, coeffs), want)
            self.assertEqual(len(set(ck.points(P2, coeffs))), want)

    def test_f2_readme_example(self):
        l, e = (1, 0, 1, 1), (0, 1, 0, 0)
        self.assertTrue(ck.is_ample(F2, l))
        self.assertFalse(ck.is_globally_generated(F2, e))
        c = ck.cokernel(F2, l, e)
        self.assertEqual((c.h0_l, c.h0_e, c.h0_sum), (8, 1, 9))
        self.assertEqual(c.missing, ((-1, -1),))
        self.assertEqual(ck.reduced(F2, e), (0, 0, 0, 0))

    def test_empty_and_degenerate(self):
        self.assertEqual(ck.h0(P2, (-1, 0, 0)), 0)
        self.assertEqual(ck.h0(P2, (0, 0, 0)), 1)
        p1xp1 = [(1, 0), (0, 1), (-1, 0), (0, -1)]
        self.assertEqual(ck.h0(p1xp1, (0, 0, 0, 3)), 4)  # the segment from (0,0) to (0,3)
        self.assertEqual(ck.h0(F2, (0, 0, 0, 3)), 16)  # rows of 1, 3, 5 and 7 points

    def test_first_ample_divisors(self):
        self.assertTrue(ck.is_ample(F2, (0, 0, 1, 1)))
        self.assertTrue(ck.is_ample(BLBLP2, (0, 0, 1, 2, 1)))
        self.assertFalse(ck.is_ample(BLBLP2, (0, 0, 1, 1, 1)))


class WitnessTest(unittest.TestCase):
    L, E = (1, 0, 1, 1), (1, 1, 1, 1)

    def setUp(self):
        self.assertTrue(ck.is_globally_generated(F2, self.E))
        self.target = ck.points(F2, ck.add(self.L, self.E))
        self.witnesses = brute_witnesses(F2, self.L, self.E)

    def check(self, witnesses):
        return ck.check_witnesses(F2, self.L, self.E, witnesses, self.target)

    def test_accepts_a_complete_report(self):
        self.assertEqual(self.check(self.witnesses), len(self.target))

    def test_rejects_one_altered_witness(self):
        p, q1, q2 = self.witnesses[3]
        for bad in [
            (p, q1, (q2[0] + 1, q2[1])),  # no longer sums to p
            (p, (q1[0] - 9, q1[1]), (q2[0] + 9, q2[1])),  # sums to p, factors outside
        ]:
            altered = list(self.witnesses)
            altered[3] = bad
            with self.assertRaises(ck.CheckFailure):
                self.check(altered)

    def test_rejects_missing_or_repeated_points(self):
        with self.assertRaises(ck.CheckFailure):
            self.check(self.witnesses[1:])
        with self.assertRaises(ck.CheckFailure):
            self.check(self.witnesses + self.witnesses[:1])


class SweepCsvTest(unittest.TestCase):
    L = (0, 0, 1, 1)
    ES = [(0, 1, 0, 0), (0, 3, 0, 0), (1, 1, 1, 1)]

    def text(self, shift_row=None):
        rows = [csv_row(F2, self.L, e, 7, 1 if i == shift_row else 0) for i, e in enumerate(self.ES)]
        return "\n".join([HEADER] + rows) + "\n"

    def check(self, text):
        return ck.check_sweep_csv(text, F2, self.L, 30, 7, {})

    def test_accepts_correct_rows(self):
        self.assertEqual(self.check(self.text()), self.ES)

    def test_rejects_coker_off_by_one(self):
        for i in range(len(self.ES)):
            with self.assertRaises(ck.CheckFailure):
                self.check(self.text(shift_row=i))

    def test_rejects_rows_out_of_order(self):
        lines = self.text().splitlines()
        with self.assertRaises(ck.CheckFailure):
            self.check("\n".join([lines[0], lines[2], lines[1], lines[3]]) + "\n")


@unittest.skipUnless((SRC / "toricmult").is_dir(), "needs the package source")
class PackageAnswerTest(unittest.TestCase):
    """The workload checks reject a corrupted answer of the real package."""

    L, E = (1, 0, 1, 1), (1, 1, 1, 1)

    @classmethod
    def setUpClass(cls):
        sys.path.insert(0, str(SRC))
        import toricmult as tm

        cls.tm = tm
        cls.fan = tm.hirzebruch(2)
        cls.target = ck.points(F2, ck.add(cls.L, cls.E))

    def report(self):
        tm = self.tm
        return tm.check_surjectivity(self.fan, tm.TorusDivisor(self.L), tm.TorusDivisor(self.E))

    def check(self, report):
        return _check_surjectivity_report(report, F2, self.L, self.E, self.target, Counter())

    def test_surjectivity_report(self):
        report = self.report()
        self.assertEqual(self.check(report), len(self.target))
        w = report.witnesses[5]
        bad = SimpleNamespace(p=w.p, q1=w.q1 + w.q1, q2=w.q2 - w.q1, path=w.path)
        altered = SimpleNamespace(**{**vars(report), "witnesses": report.witnesses[:5] + (bad,) + report.witnesses[6:]})
        with self.assertRaises(ck.CheckFailure):
            self.check(altered)

    def test_cokernel_report(self):
        tm = self.tm
        r = tm.cokernel_dim(self.fan, tm.TorusDivisor(self.L), tm.TorusDivisor((0, 1, 0, 0)))
        want = ck.cokernel(F2, self.L, (0, 1, 0, 0))
        self.assertEqual(_check_cokernel_report(r, want), 9)
        for field in ("coker_dim", "h0_sum"):
            altered = SimpleNamespace(**{**vars(r), field: getattr(r, field) + 1})
            with self.assertRaises(ck.CheckFailure):
                _check_cokernel_report(altered, want)


if __name__ == "__main__":
    unittest.main()
