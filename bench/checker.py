"""Expected answers computed without the package under test.

Everything here works on plain integer tuples: a fan is a list of rays
``(x, y)`` in counter-clockwise order with consecutive determinants 1, and a
divisor is one integer coefficient per ray.  The section polygon of a divisor
``a`` is ``{u : <u, v_i> >= -a_i}``.  Nothing is imported from ``toricmult``,
so a fault in the package cannot hide itself by also corrupting the expected
answer.

- positivity by the cone criterion: the corner of each pair of consecutive
  rays solves the two equalities; the divisor is globally generated when
  every corner lies in its polygon, and ample when consecutive corners are
  also distinct;
- h0 by Pick's theorem on the corners of a globally generated divisor, and
  by an integer row count otherwise;
- cokernels by the sumset of the two factor point sets;
- validation of surjectivity witnesses and of sweep CSV files.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor, gcd
from typing import Iterable, Sequence

Point = tuple[int, int]


class CheckFailure(Exception):
    """An output of the package disagrees with the independent answer."""


def _det(a: Point, b: Point) -> int:
    return a[0] * b[1] - a[1] * b[0]


def corners(rays: Sequence[Point], coeffs: Sequence[int]) -> list[Point]:
    """Corner of each cone (v_i, v_{i+1}): <u, v_i> = -a_i and <u, v_{i+1}> = -a_{i+1}."""
    n = len(rays)
    if len(coeffs) != n:
        raise CheckFailure(f"{len(coeffs)} coefficients for {n} rays")
    out = []
    for i in range(n):
        (ax, ay), (bx, by) = rays[i], rays[(i + 1) % n]
        if ax * by - ay * bx != 1:
            raise CheckFailure(f"rays {rays[i]} and {rays[(i + 1) % n]} do not form a smooth cone")
        a, b = coeffs[i], coeffs[(i + 1) % n]
        out.append((-a * by + b * ay, -b * ax + a * bx))
    return out


def in_polygon(rays: Sequence[Point], coeffs: Sequence[int], q: Point) -> bool:
    return all(vx * q[0] + vy * q[1] >= -a for (vx, vy), a in zip(rays, coeffs))


def is_globally_generated(rays: Sequence[Point], coeffs: Sequence[int]) -> bool:
    return all(in_polygon(rays, coeffs, u) for u in corners(rays, coeffs))


def is_ample(rays: Sequence[Point], coeffs: Sequence[int]) -> bool:
    us = corners(rays, coeffs)
    n = len(us)
    return all(in_polygon(rays, coeffs, u) for u in us) and all(
        us[i] != us[(i + 1) % n] for i in range(n)
    )


def pick_count(vertices: Sequence[Point]) -> int:
    """Lattice points of the lattice polygon with these vertices in CCW order.

    Repeated vertices are allowed; a segment or a point comes out right too,
    since its closed walk has zero area and covers each edge twice.
    """
    n = len(vertices)
    twice_area = 0
    boundary = 0
    for i in range(n):
        (x0, y0), (x1, y1) = vertices[i], vertices[(i + 1) % n]
        twice_area += x0 * y1 - x1 * y0
        boundary += gcd(x1 - x0, y1 - y0)
    return (twice_area + boundary) // 2 + 1


def _y_range(rays: Sequence[Point], coeffs: Sequence[int]) -> tuple[int, int] | None:
    """Integer y range of the polygon, from its vertices among line crossings."""
    n = len(rays)
    ys: list[Fraction] = []
    for i in range(n):
        for j in range(i + 1, n):
            d = _det(rays[i], rays[j])
            if d == 0:
                continue
            (ax, ay), (bx, by) = rays[i], rays[j]
            a, b = coeffs[i], coeffs[j]
            x = Fraction(-a * by + b * ay, d)
            y = Fraction(-b * ax + a * bx, d)
            if all(vx * x + vy * y >= -c for (vx, vy), c in zip(rays, coeffs)):
                ys.append(y)
    if not ys:
        return None
    return ceil(min(ys)), floor(max(ys))


def _rows(rays: Sequence[Point], coeffs: Sequence[int]) -> Iterable[tuple[int, int, int]]:
    """(y, xlo, xhi) for every nonempty row of lattice points."""
    span = _y_range(rays, coeffs)
    if span is None:
        return
    for y in range(span[0], span[1] + 1):
        lows, highs, ok = [], [], True
        for (vx, vy), a in zip(rays, coeffs):
            rhs = -a - vy * y  # the constraint reads vx * x >= rhs
            if vx > 0:
                lows.append(-(-rhs // vx))
            elif vx < 0:
                highs.append(rhs // vx)
            elif rhs > 0:
                ok = False
        if not lows or not highs:
            raise CheckFailure("unbounded row: the rays do not make a complete fan")
        if ok and max(lows) <= min(highs):
            yield y, max(lows), min(highs)


def row_count(rays: Sequence[Point], coeffs: Sequence[int]) -> int:
    return sum(xhi - xlo + 1 for _, xlo, xhi in _rows(rays, coeffs))


def points(rays: Sequence[Point], coeffs: Sequence[int]) -> list[Point]:
    return [(x, y) for y, xlo, xhi in _rows(rays, coeffs) for x in range(xlo, xhi + 1)]


def h0(rays: Sequence[Point], coeffs: Sequence[int]) -> int:
    if is_globally_generated(rays, coeffs):
        return pick_count(corners(rays, coeffs))
    return row_count(rays, coeffs)


def add(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    return tuple(x + y for x, y in zip(a, b))


def translate(rays: Sequence[Point], coeffs: Sequence[int], m: Point) -> tuple[int, ...]:
    """Coefficients whose polygon is the polygon of ``coeffs`` moved by m."""
    return tuple(a - (vx * m[0] + vy * m[1]) for (vx, vy), a in zip(rays, coeffs))


@dataclass(frozen=True)
class Cokernel:
    h0_l: int
    h0_e: int
    h0_sum: int
    missing: tuple[Point, ...]


def cokernel(rays: Sequence[Point], l: Sequence[int], e: Sequence[int]) -> Cokernel:
    """Points of P_{L+E} that are no sum of a point of P_L and one of P_E."""
    s_l, s_e = points(rays, l), points(rays, e)
    sums = {(x1 + x2, y1 + y2) for x1, y1 in s_l for x2, y2 in s_e}
    target = points(rays, add(l, e))
    missing = tuple(sorted(p for p in target if p not in sums))
    return Cokernel(len(s_l), len(s_e), len(target), missing)


def reduced(rays: Sequence[Point], coeffs: Sequence[int]) -> tuple[int, ...]:
    """Smallest coefficients with the same sections: max over sections of -<s, v>."""
    rows = list(_rows(rays, coeffs))
    if not rows:
        raise CheckFailure("reduction of a divisor without sections")
    return tuple(
        max(-(vx * x + vy * y) for y, xlo, xhi in rows for x in (xlo, xhi)) for vx, vy in rays
    )


def check_witnesses(
    rays: Sequence[Point],
    l: Sequence[int],
    e: Sequence[int],
    witnesses: Iterable[tuple[Point, Point, Point]],
    target: Sequence[Point],
) -> int:
    """Each (p, q1, q2) must have q1 + q2 = p, q1 in P_L, q2 in P_E, and the
    p's must cover every point of ``target`` (the points of P_{L+E}) exactly once."""
    seen: set[Point] = set()
    for p, q1, q2 in witnesses:
        if (q1[0] + q2[0], q1[1] + q2[1]) != p:
            raise CheckFailure(f"witness {q1} + {q2} does not sum to {p}")
        if not in_polygon(rays, l, q1):
            raise CheckFailure(f"witness factor {q1} of {p} lies outside P_L")
        if not in_polygon(rays, e, q2):
            raise CheckFailure(f"witness factor {q2} of {p} lies outside P_E")
        if p in seen:
            raise CheckFailure(f"point {p} certified twice")
        seen.add(p)
    if len(seen) != len(target) or not seen.issuperset(target):
        raise CheckFailure(f"witnesses cover {len(seen)} points, P_L+E has {len(target)}")
    return len(seen)


SWEEP_COLUMNS = ("fan_id", "L_coeffs", "E_coeffs", "h0_L", "h0_E", "h0_sum", "sumset_size",
                 "coker_dim", "surjective", "seed")


def fan_label(rays: Sequence[Point]) -> str:
    return ";".join(f"{x} {y}" for x, y in rays)


def check_sweep_csv(
    text: str,
    rays: Sequence[Point],
    l: Sequence[int],
    e_max: int,
    seed: int,
    expected: dict[tuple[int, ...], Cokernel],
) -> list[tuple[int, ...]]:
    """Check every row of a sweep CSV; returns the E coefficient vectors.

    ``expected`` caches cokernels by E and is filled on first sight.  A row
    whose E is globally generated must have a zero cokernel, which is the
    theorem itself.
    """
    reader = csv.DictReader(io.StringIO(text))
    absent = [c for c in SWEEP_COLUMNS if c not in (reader.fieldnames or [])]
    if absent:
        raise CheckFailure(f"sweep CSV lacks columns {absent}")
    label = fan_label(rays)
    es: list[tuple[int, ...]] = []
    for row in reader:
        e = tuple(int(c) for c in row["E_coeffs"].split("|"))
        if row["fan_id"] != label or tuple(int(c) for c in row["L_coeffs"].split("|")) != tuple(l):
            raise CheckFailure(f"row for E={e} names another fan or L")
        if len(e) != len(rays) or min(e) < 0 or max(e) > e_max:
            raise CheckFailure(f"E={e} lies outside the grid [0, {e_max}]^{len(rays)}")
        if row["seed"] != str(seed):
            raise CheckFailure(f"row for E={e} records seed {row['seed']!r}, not {seed}")
        if e not in expected:
            expected[e] = cokernel(rays, l, e)
        want = expected[e]
        coker = len(want.missing)
        if coker and is_globally_generated(rays, e):
            raise CheckFailure(f"independent cokernel of globally generated E={e} is {coker}")
        got = tuple(int(row[c]) for c in ("h0_L", "h0_E", "h0_sum", "sumset_size", "coker_dim"))
        if got != (want.h0_l, want.h0_e, want.h0_sum, want.h0_sum - coker, coker):
            raise CheckFailure(
                f"E={e}: h0_L, h0_E, h0_sum, sumset_size, coker_dim = {got}, expected "
                f"{(want.h0_l, want.h0_e, want.h0_sum, want.h0_sum - coker, coker)}"
            )
        if row["surjective"] != ("true" if coker == 0 else "false"):
            raise CheckFailure(f"E={e}: surjective column {row['surjective']!r} with cokernel {coker}")
        es.append(e)
    if not es:
        raise CheckFailure("sweep CSV has no rows")
    keys = [(sum(e), e) for e in es]
    if keys != sorted(set(keys)):
        raise CheckFailure("sweep rows are not distinct and in graded lexicographic order")
    return es
