"""Rounding a divisor with sections down to a globally generated one, and
the empirical boundedness machinery built on top of it.

The reduction keeps exactly the sections of the input: it removes the fixed
components of |E| on the corner ring's integers, and P_E' is the convex hull
of P_E's lattice points.  The sweep harness measures cokernel dimensions of
a fixed ample divisor L against divisor families, checks each one against
the reduction (the missing points of L x E are the lattice points of P_{L+E}
outside P_{L+E'}, compared as column intervals; E' = E leaves no collar and
builds no P_{L+E'}), and records whether the maximum stabilizes.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from itertools import product
from typing import Iterable

from .errors import BudgetExceededError, PreconditionError
from .lattice import ConvexLatticePolygon, check_input_coord, parse_input_coord
from .multiplication import (
    CokernelReport,
    _cokernel_gaps,
    _cokernel_report,
    _moving_sum,
    _refuse_over_pair_budget,
    _violation,
)
from .surface import (
    Fan, PositivityClass, TorusDivisor, _corner_ring, _DivisorRecord, _record, classify,
    polygon_of,
)

#: Full sweeps cap out here; larger grids switch to seeded stratified sampling.
SWEEP_BUDGET = 10**6


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of rounding: the reduced divisor, the rays it moved on (J,
    1-based), and the hull of the section lattice points."""

    original: TorusDivisor
    reduced: TorusDivisor
    J: frozenset[int]
    hull_polygon: ConvexLatticePolygon


@dataclass(frozen=True)
class SweepResult:
    """Cokernel dimensions of one ample divisor against a divisor family.

    instances are sorted by (coefficient sum, coefficients); max_coker is
    their maximum and stabilization_coeff the smallest bound on the entries
    that reaches it (above e_max when a filter fixes a larger entry).
    sampled marks runs that used seeded stratified sampling instead of the
    full grid.  reports holds each instance's cokernel report, in the order
    of instances.
    """

    fixed_L: TorusDivisor
    instances: tuple[tuple[TorusDivisor, int], ...]
    max_coker: int
    stabilization_coeff: int
    sampled: bool
    seed: int | None
    reports: tuple[CokernelReport, ...]


def reduce_to_globally_generated(fan: Fan, d: TorusDivisor) -> ReductionResult:
    """Round d down to E', the globally generated divisor with the same sections.

    d's record (see :func:`surface._moving_part`) has removed the fixed
    components on the corner ring's integers and decided whether d has
    sections, with no column read; a globally generated d comes back as it is.
    P_E' is the hull of P_d's lattice points, read off its corners.
    """
    moving = _record(fan, d).moving
    if moving is None:
        raise PreconditionError("reduction requires a divisor with sections")
    reduced = TorusDivisor._derived(moving)
    moved = frozenset(i + 1 for i, (a, b) in enumerate(zip(d.coeffs, moving)) if b < a)
    return ReductionResult(d, reduced, moved, polygon_of(fan, reduced))


def edge_lattice_report(fan: Fan, result: ReductionResult) -> list[tuple[int, int]]:
    """(1-based ray index, lattice-point count) of the reduced polygon's face on
    each moved ray j: E' is globally generated, so the face is the corner ring's
    edge of lattice length l = E'.C_j >= 0, which holds l + 1 points."""
    lengths = _corner_ring(fan.xy, result.reduced.coeffs)[1]  # lengths[j - 2] = reduced.C_j
    return [(j, lengths[j - 2] + 1) for j in sorted(result.J)]


def _graded_key(coeffs: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    return (sum(coeffs), coeffs)


def _stratified_sample(
    n: int, e_max: int, budget: int, seed: int
) -> list[tuple[int, ...]]:
    """Deterministic sample of coefficient vectors, stratified by max entry.

    Small strata (all vectors with a given maximum entry) are enumerated
    exhaustively while they fit in half the budget; the rest of the budget is
    spread evenly over the remaining strata by rejection sampling.  A stratum
    that 50 rejection draws per vector leave short (the maximum of n entries
    in 0..m is m with chance about n/m) is filled by direct draws, one seeded
    entry set to m and duplicates skipped, within as many attempts.  When more
    strata remain than budget, a seeded draw picks the strata that get one
    vector each, so the sample never exceeds the budget.
    """
    rng = random.Random(seed)
    chosen: set[tuple[int, ...]] = set()
    exhausted_up_to = -1
    spent = 0
    for m in range(e_max + 1):
        size = (m + 1) ** n - m**n
        if spent + size > budget // 2:
            break
        for vec in product(range(m + 1), repeat=n):
            if max(vec) == m:
                chosen.add(vec)
        spent += size
        exhausted_up_to = m
    remaining_strata = range(exhausted_up_to + 1, e_max + 1)
    left = max(0, budget - spent)
    if len(remaining_strata) > left:
        remaining_strata = sorted(rng.sample(remaining_strata, left))
    if remaining_strata:
        quota = left // len(remaining_strata)
        for m in remaining_strata:
            got = attempts = 0
            while got < quota and attempts < 100 * quota:
                attempts += 1
                vec = [rng.randint(0, m) for _ in range(n)]
                if attempts > 50 * quota:  # rejection ran out: draw directly
                    vec[rng.randrange(n)] = m
                if max(vec) != m or (vec := tuple(vec)) in chosen:
                    continue
                chosen.add(vec)
                got += 1
    return sorted(chosen, key=_graded_key)


def _family_instances(
    filter_pattern: str, n: int, e_max: int, budget: int
) -> list[tuple[int, ...]]:
    """Instances for a pattern like "0,k,0,0": k runs over [1, e_max]; more
    than budget are refused before any is built."""
    parts = [p.strip() for p in filter_pattern.split(",")]
    if len(parts) != n:
        raise PreconditionError(
            f"filter pattern has {len(parts)} entries for a fan with {n} rays"
        )
    if sum(1 for p in parts if p == "k") != 1:
        raise PreconditionError("filter pattern must contain exactly one 'k'")
    fixed = [None if p == "k" else parse_input_coord(p, "filter entry") for p in parts]
    if e_max > budget:
        raise BudgetExceededError(f"{e_max} family instances exceed {budget}")
    return [tuple(k if f is None else f for f in fixed) for k in range(1, e_max + 1)]


_WORKER: dict[str, object] = {}


def _sweep_worker_init(fan: Fan, fixed_l: TorusDivisor) -> None:
    """Sweep the fixed P_L and count h0(L) once per process, for every instance."""
    rec_l = _record(fan, fixed_l)
    _WORKER["args"] = (fan, fixed_l, rec_l, rec_l.table(), rec_l.h0())


def _collar(
    cols_sum: Iterable[tuple[int, int, int]], inner: dict[int, tuple[int, int]]
) -> list[tuple[int, int, int]]:
    """The lattice points of the columns (x, lo, hi) outside the column table inner,
    as maximal intervals (x, c0, c1) in (x, y) order: per column, the part below
    inner's column and the part above it, or the whole column where inner has none."""
    collar = []
    for x, lo, hi in cols_sum:
        ilo, ihi = inner.get(x, (hi + 1, hi))
        if lo < ilo:
            collar.append((x, lo, min(hi, ilo - 1)))
        if ihi < hi:
            collar.append((x, max(lo, ihi + 1), hi))
    return collar


def _points(intervals: Iterable[tuple[int, int, int]]) -> list[tuple[int, int]]:
    return [(x, y) for x, y0, y1 in intervals for y in range(y0, y1 + 1)]


def _sweep_instance(coeffs: tuple[int, ...]) -> CokernelReport | None:
    """cokernel_dim(L, E), or None when E has no sections, checked against the
    reduction pipeline behind the boundedness statement.

    With E' the moving part that E's record keeps, the missing points must be
    exactly the collar: the lattice points of P_{L+E} outside P_{L+E'}.  P_E
    and P_{L+E} are read off the rings of E' and (L+E)', which have the same
    lattice points (the tests pin this), so the check shows that L x E' is
    surjective and that every missing point lies in the collar the reduction
    shaved off.  Both sides are compared as column intervals: the sumset's
    gaps, and per column of P_{L+E} the parts below and above P_{L+E'}; both
    lists are maximal, disjoint and in (x, y) order, so they are equal exactly
    when their point sets are, and only a mismatch is listed point by point.
    E' = E has an empty collar, so P_{L+E'} is not built then; a collar of
    more than POINT_BUDGET points is refused first (see _moving_sum).  P_E and
    P_{L+E} are swept once each, P_L and h0(L) once per process.  No instance
    reads another's polygons, so they are built outside the polygon cache.
    """
    fan, fixed_l, rec_l, table_l, h0_l = _WORKER["args"]  # type: ignore[misc]
    e = TorusDivisor(coeffs)
    rec_e = _DivisorRecord(fan.xy, coeffs)
    _refuse_over_pair_budget(rec_l, rec_e)
    if rec_e.moving is None:
        return None
    rec_sum = _DivisorRecord(fan.xy, (fixed_l + e).coeffs)
    rec_reduced = _moving_sum(fan.xy, rec_l, rec_e, rec_sum)
    table_e = rec_e.table()
    cols_sum = list(rec_sum.columns())
    h0_sum, gaps = _cokernel_gaps(table_l, table_e, cols_sum)
    collar = [] if rec_reduced is rec_sum else _collar(cols_sum, rec_reduced.table())
    if gaps != collar and (missing := _points(gaps)) != (points := _points(collar)):
        extra, lost = sorted(set(missing) - set(points)), sorted(set(points) - set(missing))
        raise _violation(
            f"cokernel of {fixed_l} x {e} is not the collar outside the reduced "
            f"sum polygon of {TorusDivisor._derived(rec_e.moving)}: missing points "
            f"{extra} lie inside it, collar points {lost} were decomposed",
            "cokernel FAN L E", fan, fixed_l, e,
        )
    return _cokernel_report(h0_l, rec_e.h0(), h0_sum, gaps)


def sweep_cokernel(
    fan: Fan,
    fixed_l: TorusDivisor,
    e_max: int,
    filter_pattern: str | None = None,
    budget: int = SWEEP_BUDGET,
    seed: int | None = None,
    jobs: int = 1,
) -> SweepResult:
    """Cokernel dimensions of fixed_l against divisors with coefficients <= e_max.

    Enumerates the full grid in graded lexicographic order when it fits in
    the budget; otherwise falls back to seeded stratified sampling (a seed is
    then required).  A budget or jobs below 1, an e_max above
    INPUT_COORD_BOUND, or a family of more than budget instances, is refused
    before any instance is built.  Every instance's missing points are
    checked against the collar of the reduction (see _sweep_instance), under
    cokernel_dim's budgets.  stabilization_coeff is not clamped to e_max.
    jobs > 1 fans instances out to worker processes, never more than the
    instances or the CPUs; the result is assembled in canonical order either
    way, so output does not depend on scheduling.
    """
    if classify(fan, fixed_l) is not PositivityClass.AMPLE:
        raise PreconditionError("sweep requires an ample fixed divisor")
    if e_max < 1:
        raise PreconditionError("e_max must be >= 1")
    check_input_coord(e_max, "maximum coefficient")
    if jobs < 1:
        raise PreconditionError(f"jobs must be >= 1, got {jobs}")
    if budget < 1:
        raise PreconditionError(f"budget must be >= 1, got {budget}")
    n = fan.n
    sampled = False
    if filter_pattern is not None:
        vectors = _family_instances(filter_pattern, n, e_max, budget)
    elif (e_max + 1) ** n <= budget:
        vectors = sorted(product(range(e_max + 1), repeat=n), key=_graded_key)
    else:
        if seed is None:
            raise PreconditionError(
                f"grid of {(e_max + 1) ** n} instances exceeds the budget of "
                f"{budget}; sampling requires a seed"
            )
        sampled = True
        vectors = _stratified_sample(n, e_max, budget, seed)
    workers = min(jobs, len(vectors), os.cpu_count() or 1)
    if workers > 1:
        import multiprocessing

        with multiprocessing.Pool(
            workers, initializer=_sweep_worker_init, initargs=(fan, fixed_l)
        ) as pool:
            chunk = max(1, len(vectors) // (8 * workers))
            results = pool.map(_sweep_instance, vectors, chunksize=chunk)
    else:
        _sweep_worker_init(fan, fixed_l)
        results = [_sweep_instance(v) for v in vectors]
    instances: list[tuple[TorusDivisor, int]] = []
    reports: list[CokernelReport] = []
    for coeffs, report in zip(vectors, results):
        if report is None:
            continue
        instances.append((TorusDivisor(coeffs), report.coker_dim))
        reports.append(report)
    if not instances:
        raise PreconditionError("sweep produced no instances with sections")
    max_coker = max(c for _, c in instances)
    return SweepResult(
        fixed_L=fixed_l,
        instances=tuple(instances),
        max_coker=max_coker,
        stabilization_coeff=min(max(e.coeffs) for e, c in instances if c == max_coker),
        sampled=sampled,
        seed=seed,
        reports=tuple(reports),
    )
