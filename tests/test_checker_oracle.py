"""The package's witnesses and cokernels against bench/checker.py.

The checker imports nothing from toricmult: it enumerates each polygon's
points by rows from the half-planes and checks every witness point by point.
So a fault in the column tables, the cover of a column or the bisection that
picks a column's keys cannot also corrupt the expected answer.  The route
checks no span on a valid instance (a span is valid once its key is), so
these properties are what would see a span leave a factor.
"""

import importlib.util
import sys
from math import gcd
from pathlib import Path
from unittest.mock import patch

import hypothesis.strategies as st
from hypothesis import example, given, settings

from toricmult.multiplication import _StructuredContext, check_surjectivity, cokernel_dim
from toricmult.surface import TorusDivisor, blowup, generate_family

_spec = importlib.util.spec_from_file_location(
    "bench_checker", Path(__file__).resolve().parents[1] / "bench" / "checker.py"
)
checker = sys.modules[_spec.name] = importlib.util.module_from_spec(_spec)  # dataclasses look it up
_spec.loader.exec_module(checker)


def _edge_lengths(rays, coeffs):
    """The lattice length of the edge on each ray, between the corners of its two cones."""
    us = checker.corners(rays, coeffs)
    return [gcd(us[i][0] - us[i - 1][0], us[i][1] - us[i - 1][1]) for i in range(len(rays))]


@st.composite
def blowups_with_ample(draw):
    """P2 or P1xP1 blown up at random corners, up to 12 rays, with an ample L
    built along: a blowup at the corner of rays i and i+1 pulls L back (the new
    ray's coefficient is a_i + a_{i+1}) and cuts the corner by 1, which keeps L
    ample when both edges at the corner have length >= 2.  A corner with such
    edges is drawn where there is one; else L is doubled first."""
    name = draw(st.sampled_from(["p2", "p1xp1"]))
    fan = generate_family(name)
    coeffs = [1] * fan.n
    for _ in range(draw(st.integers(0, 12 - fan.n))):
        lengths = _edge_lengths(fan.xy, coeffs)
        good = [i for i in range(fan.n) if min(lengths[i], lengths[(i + 1) % fan.n]) >= 2]
        if not good:
            coeffs, good = [2 * a for a in coeffs], list(range(fan.n))
        i = draw(st.sampled_from(good))
        coeffs.insert(i + 1, coeffs[i] + coeffs[(i + 1) % fan.n] - 1)
        fan = blowup(fan, i + 1)
    assert checker.is_ample(fan.xy, coeffs)
    return fan, tuple(coeffs)


@st.composite
def instances(draw):
    """(fan, L, E, E_gg): L ample, E with coefficients in 0..3 (so 0 is a section),
    and E_gg the checker's rounding of E, globally generated."""
    fan, l_coeffs = draw(blowups_with_ample())
    e = tuple(draw(st.integers(0, 3)) for _ in range(fan.n))
    e_gg = checker.reduced(fan.xy, e)
    assert checker.is_globally_generated(fan.xy, e_gg)
    return fan, l_coeffs, e, e_gg


def _witnesses(report):
    return [(w.p.as_tuple(), w.q1.as_tuple(), w.q2.as_tuple()) for w in report.witnesses]


def _without_steps_a_and_b():
    """Every new _StructuredContext finds nothing in steps (a) and (b), so steps (c)
    and (d) answer every point."""
    init = _StructuredContext.__init__

    def bare(self, *args):
        init(self, *args)
        self.d_vertices, self.boundary = [], []

    return patch.object(_StructuredContext, "__init__", bare)


F2_CASES = [  # steps (c) and (d) on F2 when steps (a) and (b) are emptied
    (generate_family("f2"), (1, 0, 1, 1), (2, 2, 2, 2), (2, 2, 2, 2)),
    (generate_family("f2"), (1, 0, 1, 1), (0, 0, 2, 0), (0, 0, 2, 0)),
]


@given(instances(), st.sampled_from(["structured", "both"]), st.booleans())
@settings(max_examples=100, deadline=None)
@example(F2_CASES[0], "structured", True)
@example(F2_CASES[1], "structured", True)
def test_every_witness_passes_the_independent_checker(instance, mode, only_c_and_d):
    # L ample and E globally generated: every point of P_{L+E} has a witness whose
    # factors lie in P_L and P_E by the checker's own half-plane test
    fan, l_coeffs, _, e = instance
    if only_c_and_d:
        with _without_steps_a_and_b():
            report = check_surjectivity(fan, TorusDivisor(l_coeffs), TorusDivisor(e), mode=mode)
    else:
        report = check_surjectivity(fan, TorusDivisor(l_coeffs), TorusDivisor(e), mode=mode)
    target = checker.points(fan.xy, checker.add(l_coeffs, e))
    assert report.surjective
    assert checker.check_witnesses(fan.xy, l_coeffs, e, _witnesses(report), target) == len(target)


@given(instances())
@settings(max_examples=100, deadline=None)
def test_brute_witnesses_cover_the_independent_sumset(instance):
    # E need not be globally generated: the oracle's witnesses cover exactly the
    # points of P_{L+E} that the checker's sumset reaches
    fan, l_coeffs, e, _ = instance
    report = check_surjectivity(fan, TorusDivisor(l_coeffs), TorusDivisor(e), mode="brute")
    missing = set(checker.cokernel(fan.xy, l_coeffs, e).missing)
    target = [p for p in checker.points(fan.xy, checker.add(l_coeffs, e)) if p not in missing]
    assert checker.check_witnesses(fan.xy, l_coeffs, e, _witnesses(report), target) == len(target)
    assert report.surjective == (not missing)


@given(instances())
@settings(max_examples=100, deadline=None)
def test_cokernel_matches_the_independent_sumset(instance):
    fan, l_coeffs, e, _ = instance
    report = cokernel_dim(fan, TorusDivisor(l_coeffs), TorusDivisor(e))
    want = checker.cokernel(fan.xy, l_coeffs, e)
    assert (report.h0_D, report.h0_E, report.h0_sum) == (want.h0_l, want.h0_e, want.h0_sum)
    assert tuple(p.as_tuple() for p in report.missing_points) == want.missing
    assert report.coker_dim == len(want.missing)
