"""The three workloads: inputs from a seed, timed operations and their checks.

A workload's ``setup`` uses the package to build and validate its inputs and
is timed as set-up.  ``prepare`` then computes the expected answers with the
independent checker, untimed, and returns the units of a round: lists of
operations that start from cleared caches.  Every round runs the same units.
An operation's ``check`` raises :class:`checker.CheckFailure` on a wrong
answer and returns the number of lattice points the operation answered for,
as the checker counts them.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from collections import Counter
from dataclasses import dataclass
from itertools import product
from pathlib import Path
from typing import Callable

import checker as ck

#: Rays of the fans used, in the order the package normalizes them to.
FANS = {
    "P2": [(1, 0), (0, 1), (-1, -1)],
    "P1xP1": [(1, 0), (0, 1), (-1, 0), (0, -1)],
    "F1": [(1, 0), (0, 1), (-1, 1), (0, -1)],
    "F2": [(1, 0), (0, 1), (-1, 2), (0, -1)],
    "F3": [(1, 0), (0, 1), (-1, 3), (0, -1)],
    "BlP2": [(1, 0), (1, 1), (0, 1), (-1, -1)],
    "BlBlP2": [(1, 0), (1, 1), (0, 1), (-1, -1), (0, -1)],
}

#: certify: coefficient bound of the criterion-1 grid, and pairs per pass.
CERTIFY_MAX_COEFF = 4
CERTIFY_SAMPLE = 300

#: sweep: coefficient bound, and the sampling budget of each fan's CLI sweep,
#: chosen so that the two sweeps cost about the same and the median operation
#: does not sit between two groups of different cost.
SWEEP_MAX_COEFF = 30
SWEEP_BUDGET = {"F2": 120, "BlBlP2": 200}
SWEEP_FANS = tuple(SWEEP_BUDGET)
SWEEP_SAMPLING_SEED = 2024

#: Seeded translations of L (sweep) and of every input (bigpoly) are drawn
#: from [-SHIFT, SHIFT]^2; a translation keeps every count, and the cost nearly.
SWEEP_SHIFT = 20
BIGPOLY_SHIFT = 40


@dataclass
class Op:
    verb: str
    call: Callable[[], object]
    check: Callable[[object], int]
    #: (fan, L, E, points) for a surjectivity check, timed again per route
    #: in the traced run.
    probe: tuple | None = None


def _fan(tm, name: str):
    fan = tm.validate_fan(FANS[name])
    if [(v.x, v.y) for v in fan.rays] != FANS[name]:
        raise ck.CheckFailure(f"{name}: package reordered the rays to {fan}")
    return fan


def _shift(rng: random.Random, bound: int) -> tuple[int, int]:
    return rng.randint(-bound, bound), rng.randint(-bound, bound)


def _graded(n: int, bound: int) -> list[tuple[int, ...]]:
    return sorted(product(range(bound + 1), repeat=n), key=lambda c: (sum(c), c))


def _first_ample(tm, fan) -> tuple[int, ...]:
    """Criterion 6's fixed divisor: first ample vector in graded order."""
    return next(
        c for c in _graded(fan.n, CERTIFY_MAX_COEFF)
        if tm.classify(fan, tm.TorusDivisor(c)) is tm.PositivityClass.AMPLE
    )


def _witness_tuples(report):
    return (((w.p.x, w.p.y), (w.q1.x, w.q1.y), (w.q2.x, w.q2.y)) for w in report.witnesses)


def _check_surjectivity_report(report, rays, l, e, target, paths: Counter) -> int:
    """Check a surjectivity report and count its witnesses by path into ``paths``."""
    if not report.surjective or report.total_points != len(target) or report.decomposed != len(target):
        raise ck.CheckFailure(
            f"L={l} E={e}: report says surjective={report.surjective}, "
            f"{report.decomposed}/{report.total_points} points; P_L+E has {len(target)}"
        )
    fallbacks = sum(1 for w in report.witnesses if w.path.value == "fallback_search")
    if report.structured_fallbacks != fallbacks:
        raise ck.CheckFailure(f"L={l} E={e}: {report.structured_fallbacks} fallbacks reported, {fallbacks} seen")
    ck.check_witnesses(rays, l, e, _witness_tuples(report), target)
    paths.update(w.path.value for w in report.witnesses)
    return len(target)


def _check_cokernel_report(report, want: ck.Cokernel) -> int:
    got = (report.h0_D, report.h0_E, report.h0_sum, report.sumset_size, report.coker_dim,
           tuple((p.x, p.y) for p in report.missing_points))
    exp = (want.h0_l, want.h0_e, want.h0_sum, want.h0_sum - len(want.missing),
           len(want.missing), want.missing)
    if got != exp:
        raise ck.CheckFailure(
            f"h0_D, h0_E, h0_sum, sumset_size, coker_dim = {got[:5]}, expected {exp[:5]}"
        )
    return want.h0_sum


# -- certify ---------------------------------------------------------------------


class Certify:
    """check_surjectivity(mode="both") over a seeded sample of criterion-1 pairs."""

    def setup(self, tm, seed: int, out: Path):
        fans, classes = {}, {}
        for name in FANS:
            fan = fans[name] = _fan(tm, name)
            ample: dict = {}
            gg: dict = {}
            for coeffs in _graded(fan.n, CERTIFY_MAX_COEFF):
                d = tm.TorusDivisor(coeffs)
                cls = tm.classify(fan, d)
                if not cls.is_globally_generated():
                    continue
                vrep = tm.polygon_of(fan, d).vrep
                key = tuple((p.x - vrep[0].x, p.y - vrep[0].y) for p in vrep)
                if cls is tm.PositivityClass.AMPLE:
                    ample.setdefault(key, coeffs)
                gg.setdefault(key, coeffs)
            classes[name] = (list(ample.values()), list(gg.values()))
        return {"tm": tm, "fans": fans, "classes": classes, "seed": seed}

    def prepare(self, state, paths: Counter) -> list[list[Op]]:
        tm, seed = state["tm"], state["seed"]
        pairs = []
        for name, (ample, gg) in state["classes"].items():
            rays = FANS[name]
            corners = {c: ck.corners(rays, c) for c in set(ample) | set(gg)}
            for l in ample:
                if not ck.is_ample(rays, l):
                    raise ck.CheckFailure(f"{name}: class {l} is not ample")
                for e in gg:
                    summed = [(a[0] + b[0], a[1] + b[1]) for a, b in zip(corners[l], corners[e])]
                    pairs.append((name, ck.pick_count(summed), l, e))
        # Systematic sample over the pairs sorted by fan, then size: every
        # seed draws one pair from each of CERTIFY_SAMPLE equal strata, so the
        # fan and size mix of a pass hardly depends on the seed.
        pairs.sort(key=lambda p: (list(FANS).index(p[0]), p[1:]))
        step = len(pairs) / CERTIFY_SAMPLE
        offset = random.Random(seed).random() * step
        sample = sorted(
            (pairs[int(offset + k * step)] for k in range(CERTIFY_SAMPLE)),
            key=lambda p: (list(FANS).index(p[0]), p[2], p[3]),
        )
        state["pairs_total"] = len(pairs)
        ops = []
        for name, _, l, e in sample:
            rays, fan = FANS[name], state["fans"][name]
            target = ck.points(rays, ck.add(l, e))
            d_l, d_e = tm.TorusDivisor(l), tm.TorusDivisor(e)
            ops.append(Op(
                "verify",
                lambda fan=fan, d_l=d_l, d_e=d_e: tm.check_surjectivity(fan, d_l, d_e, mode="both"),
                lambda r, rays=rays, l=l, e=e, target=target: _check_surjectivity_report(
                    r, rays, l, e, target, paths),
                probe=(fan, d_l, d_e, len(target)),
            ))
        return [ops]

    def describe(self, state) -> str:
        return f"{CERTIFY_SAMPLE} of {state['pairs_total']} criterion-1 pairs per pass"


# -- sweep -----------------------------------------------------------------------


class Sweep:
    """toricmult sweep --out rows.csv on F2 and BlBlP2, in-process through run_cli.

    The seed translates L.  The sampled grid comes from a fixed sampling
    seed: one sweep samples a few instances per coefficient stratum, and its
    cost moves by about 14% with the sample, so a seeded sample would make
    the figures depend on the seed rather than on the program.
    """

    def setup(self, tm, seed: int, out: Path):
        rng = random.Random(seed)
        jobs = []
        for name in SWEEP_FANS:
            fan = _fan(tm, name)
            l = ck.translate(FANS[name], _first_ample(tm, fan), _shift(rng, SWEEP_SHIFT))
            fan_path, l_path = out / f"sweep-{name}-fan.json", out / f"sweep-{name}-L.json"
            fan_path.write_text(json.dumps({"rays": [list(v) for v in FANS[name]]}))
            l_path.write_text(json.dumps({"coeffs": list(l), "label": "L"}))
            csv_path = out / f"sweep-{name}-rows.csv"
            argv = [
                "sweep", str(fan_path), str(l_path), "--max-coeff", str(SWEEP_MAX_COEFF),
                "--seed", str(SWEEP_SAMPLING_SEED), "--budget", str(SWEEP_BUDGET[name]),
                "--out", str(csv_path),
            ]
            jobs.append((name, l, argv, csv_path))
        return {"tm": tm, "jobs": jobs}

    def prepare(self, state, paths: Counter) -> list[list[Op]]:
        tm = state["tm"]
        units = []
        for name, l, argv, csv_path in state["jobs"]:
            expected: dict = {}
            first: list[bytes] = []

            def call(argv=argv):
                stdout = io.StringIO()
                with contextlib.redirect_stdout(stdout):
                    code = tm.run_cli(argv)
                return code, stdout.getvalue()

            def check(result, name=name, l=l, expected=expected, first=first, csv_path=csv_path):
                code, stdout = result
                if code != 0:
                    raise ck.CheckFailure(f"sweep on {name} exited with {code}")
                data = csv_path.read_bytes()
                if first and data != first[0]:
                    raise ck.CheckFailure(f"sweep on {name}: CSV differs between two runs of one seed")
                first[:1] = [data]
                es = ck.check_sweep_csv(
                    data.decode(), FANS[name], l, SWEEP_MAX_COEFF, SWEEP_SAMPLING_SEED, expected)
                summary = {
                    "instances": len(es),
                    "max coker_dim": max(len(expected[e].missing) for e in es),
                    "sampled": "true",
                }
                for key, value in summary.items():
                    if f"{key}: {value}\n" not in stdout:
                        raise ck.CheckFailure(f"sweep on {name}: stdout lacks '{key}: {value}'")
                return sum(expected[e].h0_sum for e in es)

            units.append([Op("sweep", call, check)])
        return units

    def describe(self, state) -> str:
        return "CLI sweeps, budget " + ", ".join(f"{n} {b}" for n, b in SWEEP_BUDGET.items())


# -- bigpoly ---------------------------------------------------------------------


class BigPoly:
    """Single cold queries on large divisors, each translated by a seeded vector."""

    #: (verb, fan, first divisor, second divisor or None)
    QUERIES = (
        ("h0", "P2", (180, 180, 180), None),
        ("h0", "BlBlP2", (250, 500, 130, 400, 70), None),
        ("reduce", "F2", (70, 210, 70, 70), None),
        ("cokernel", "F2", (36, 18, 36, 36), (12, 66, 12, 12)),
        ("verify", "BlP2", (20, 20, 20, 20), (14, 8, 14, 8)),
    )

    def setup(self, tm, seed: int, out: Path):
        rng = random.Random(seed)
        fans = {name: _fan(tm, name) for name in {q[1] for q in self.QUERIES}}

        def shifted(name, coeffs):
            return ck.translate(FANS[name], coeffs, _shift(rng, BIGPOLY_SHIFT))

        queries = []
        for verb, name, a, b in self.QUERIES:
            a = shifted(name, a)
            b = shifted(name, b) if b is not None else None
            queries.append((verb, name, a, b, tm.TorusDivisor(a), b and tm.TorusDivisor(b)))
        return {"tm": tm, "fans": fans, "queries": queries}

    def prepare(self, state, paths: Counter) -> list[list[Op]]:
        tm = state["tm"]
        units = []
        for verb, name, a, b, d_a, d_b in state["queries"]:
            rays, fan = FANS[name], state["fans"][name]
            if verb == "h0":
                want = ck.h0(rays, a)

                def check(r, want=want, a=a):
                    if r != want:
                        raise ck.CheckFailure(f"h0 of {a} is {r}, expected {want}")
                    return want

                units.append([Op(verb, lambda fan=fan, d=d_a: tm.h0(fan, d), check)])
            elif verb == "reduce":
                if ck.is_globally_generated(rays, a):
                    raise ck.CheckFailure(f"reduce input {a} is already globally generated")
                red = ck.reduced(rays, a)
                sections = ck.row_count(rays, a)
                if not ck.is_globally_generated(rays, red) or ck.h0(rays, red) != sections:
                    raise ck.CheckFailure(f"independent reduction of {a} lost sections")
                moved = frozenset(i + 1 for i, (x, y) in enumerate(zip(a, red)) if y < x)
                vertices = set(ck.corners(rays, red))

                def check(r, a=a, red=red, moved=moved, vertices=vertices, sections=sections):
                    got_vertices = {(v.x, v.y) for v in r.hull_polygon.vrep}
                    if r.reduced.coeffs != red or r.J != moved or got_vertices != vertices:
                        raise ck.CheckFailure(
                            f"reduce {a}: got {r.reduced.coeffs} J={sorted(r.J)}, "
                            f"expected {red} J={sorted(moved)}"
                        )
                    return sections

                units.append([Op(verb, lambda fan=fan, d=d_a: tm.reduce_to_globally_generated(fan, d), check)])
            elif verb == "cokernel":
                want = ck.cokernel(rays, a, b)
                units.append([Op(
                    verb,
                    lambda fan=fan, d=d_a, e=d_b: tm.cokernel_dim(fan, d, e),
                    lambda r, want=want: _check_cokernel_report(r, want),
                )])
            else:
                if not (ck.is_ample(rays, a) and ck.is_globally_generated(rays, b)):
                    raise ck.CheckFailure(f"verify inputs {a}, {b} are not ample x globally generated")
                target = ck.points(rays, ck.add(a, b))
                units.append([Op(
                    verb,
                    lambda fan=fan, d=d_a, e=d_b: tm.check_surjectivity(fan, d, e, mode="both"),
                    lambda r, rays=rays, a=a, b=b, target=target: _check_surjectivity_report(
                        r, rays, a, b, target, paths),
                    probe=(fan, d_a, d_b, len(target)),
                )])
        return units

    def describe(self, state) -> str:
        return "verbs " + ", ".join(f"{q[0]} on {q[1]}" for q in self.QUERIES)


WORKLOADS = {"certify": Certify, "sweep": Sweep, "bigpoly": BigPoly}
