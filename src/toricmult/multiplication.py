"""Surjectivity of the section multiplication map, with certificates.

A lattice point p of the sum polygon is certified by a witness q1 + q2 = p
with q1, q2 lattice points of the two factor polygons.  Witnesses come from
two independent routes: an exhaustive search (the oracle) and a structured
route whose steps are the cases of the constructive proof on the fiber
P_E intersect (p - P_D):

(a) vertex: a fiber vertex interior to P_E is p - u for a vertex u of P_D;
(b) edge: otherwise the fiber meets the boundary of P_E, so look for a
    lattice point m + k t of an edge of P_E in p - P_D;
(c) triangle regions: cut an edge of P_E down to its corner triangle, read
    off the corner ring of the edge's minimal offsets, and split p in the
    triangle's frame, by the integer row or column of P_D through p or by
    homothetic triangles;
(d) fallback: the exhaustive search, recorded in the witness's path.

Steps (a), (b) and the oracle are one column cover (_cover), run per column x
of the sum polygon, and differ only by their keys: the vertices u of P_D as
one-point columns, the boundary points q2 of P_E, or the columns of P_D by
increasing x1 that can meet a column of P_E.  A key at x' plus column x - x'
of the other factor fills a y-interval of column x, and each point goes to the
first key, in the proof's order, whose interval holds it.  Only the points (a)
and (b) leave reach (c) and (d).  A single point takes the same route on its
one-point range.

Each route's witnesses are spans (x, c0, c1, x1, lo1, hi2, path): (x, y) for
c0 <= y <= c1 splits as q1 = (x1, max(lo1, y - hi2)) plus q2 = (x, y) - q1.
The cover reads x1 and lo1 off the column of P_D and hi2 off that of P_E:
step (a)'s vertex u gives (u.x, u.y, hi of column x - u.x of P_E), step (b)'s
q2 gives (x - q2.x, lo of column x - q2.x of P_D, q2.y), and steps (c) and (d)
one-point spans.  Every span is checked against both factors' column tables.
Along an (a) or (b) span one summand is fixed, u in P_D or q2 in P_E: it is
checked once, when the context lists it, and the moving summand stays in the
column it was clipped from.  A step-(c) witness is checked where it is found.
Spans of (d) and the oracle are checked by the oracle at their two ends,
between which q1.y and q2.y never decrease.  A failing span is scanned, so the
error names the first point, in (x, y) order, whose witness leaves a factor.

A one-sided cut shows where (a) and (b) suffice (cf. Haase, Nill, Paffenholz
and Santos, "Lattice points in Minkowski sums", 2008).  Let F = P_E
intersect (p - P_D).  A vertex of F inside P_E is p - u for a vertex u of
P_D, so if (a) fails, F meets the boundary of P_E.  On an edge m + k t of P_E
with inward normal v_j, each ray v_a with <t, v_a> != 0 bounds k from one
side, by an integer when |det(v_j, v_a)| = 1, and the edge's ends are
integers.  So (b) fails only if both ends of every piece of F on the
boundary are set by cuts with |det| >= 2, one on each side of the line
R v_j: never on a fan where every ray has only unimodular rays on some side
of its line, such as P2, P1 x P1, every F_a, BlP2 and BlBlP2.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from itertools import accumulate
from typing import Iterable, Iterator

from .errors import (
    BudgetExceededError,
    DecompositionRangeError,
    EmptyInputError,
    PreconditionError,
    TheoremViolationError,
)
from .lattice import (
    ConvexLatticePolygon,
    LatticeVector,
    PolygonDim,
    RationalPoint,
    _column_table,
    _lattice_ring,
    _ring_columns,
    hull,
    minkowski_sum,
)
from .surface import Fan, TorusDivisor, _corner_ring, _DivisorRecord, _record

#: The exhaustive search, cokernel_dim and the sweep refuse more pairs of
#: lattice columns w_D x w_E of the two factors than this.
PAIR_BUDGET = 10**7
#: The most points one report answers for: the points of the sum polygon, kept
#: as spans, a few per column, or a vector per missing point.  Reading a report's
#: witnesses builds 340-410 bytes per point (CPython 3.11: about 0.4 GB).
POINT_BUDGET = 10**6

#: A polygon's lattice points as {x: (lo, hi)}, from lattice._column_table.
_Table = dict[int, tuple[int, int]]
#: A column (x, (lo, hi)) of a factor, or a point (x, (y, y)) of it: a key of _cover.
_Key = tuple[int, tuple[int, int]]


class DecompositionPath(Enum):
    INTERIOR_VERTEX = "interior_vertex"
    BOUNDARY_LATTICE = "boundary_lattice"
    TRIANGLE_REGION_A = "triangle_region_A"
    TRIANGLE_REGION_B = "triangle_region_B"
    TRIANGLE_REGION_C = "triangle_region_C"
    FALLBACK_SEARCH = "fallback_search"

    __hash__ = object.__hash__  # members are singletons: hashed in C, for path_counts


@dataclass(frozen=True)
class DecompositionWitness:
    """Certificate that p splits as q1 + q2 with q1, q2 in the factor polygons."""

    p: LatticeVector
    q1: LatticeVector
    q2: LatticeVector
    path: DecompositionPath

    def __post_init__(self) -> None:
        q1, q2, p = self.q1, self.q2, self.p
        if q1.x + q2.x != p.x or q1.y + q2.y != p.y:
            raise TheoremViolationError(f"witness does not sum: {q1} + {q2} != {p}")


#: (x, c0, c1, x1, lo1, hi2, path), as in the module docstring.
Span = tuple[int, int, int, int, int, int, DecompositionPath]


@dataclass(frozen=True)
class SurjectivityReport:
    """The lattice points of P_{D+E} that split, as checked spans in (x, y) order,
    and their count per path; witnesses expands the spans anew on each read."""

    total_points: int
    decomposed: int
    surjective: bool
    structured_fallbacks: int
    path_counts: Counter[DecompositionPath] = field(compare=False)  # read off the spans
    spans: tuple[Span, ...]

    @property
    def witnesses(self) -> tuple[DecompositionWitness, ...]:
        return tuple(_span_witnesses(self.spans))


@dataclass(frozen=True)
class CokernelReport:
    h0_D: int
    h0_E: int
    h0_sum: int
    sumset_size: int
    coker_dim: int
    missing_points: tuple[LatticeVector, ...]


@dataclass(frozen=True)
class TriangleReduction:
    """Corner triangle (or the edge itself) spanned by an edge's endpoints.

    c holds the minimal integer offsets supporting both endpoints; the
    triangle they cut out sits inside the original polygon with the endpoints
    among its vertices.  For a two-dimensional reduction, corner_ray_index is
    the 1-based ray k such that rays k and k+1 support the two legs, and legs
    are the leg lengths in the basis dual to those rays.
    """

    sigma_endpoints: tuple[LatticeVector, LatticeVector]
    c: tuple[int, ...]
    triangle: ConvexLatticePolygon
    legs: tuple[int, int] | None
    corner_ray_index: int | None


def _inside(table: _Table, x: int, y: int) -> bool:
    """Lattice-point membership in a polygon given by its column table."""
    col = table.get(x)
    return col is not None and col[0] <= y <= col[1]


def _span_witnesses(spans: Iterable[Span]) -> Iterator[DecompositionWitness]:
    """One witness per point of the spans, in their order; each point of a factor
    polygon is built once."""
    factor_points: dict[tuple[int, int], LatticeVector] = {}

    def point(x: int, y: int) -> LatticeVector:
        q = factor_points.get((x, y))
        if q is None:
            q = factor_points[x, y] = LatticeVector(x, y)
        return q

    for x, c0, c1, x1, lo1, hi2, path in spans:
        for y in range(c0, c1 + 1):
            y1 = max(lo1, y - hi2)
            q1, q2 = point(x1, y1), point(x - x1, y - y1)
            yield DecompositionWitness(LatticeVector(x, y), q1, q2, path)


def _check_span(table_d: _Table, table_e: _Table, span: Span) -> None:
    """Raise at the first point of span whose witness leaves a factor.  q1.y and
    q2.y never decrease along a span, so its ends decide; a failing span is scanned."""
    x, c0, c1, x1, lo1, hi2, _ = span
    (dlo, dhi), (elo, ehi) = table_d.get(x1, (1, 0)), table_e.get(x - x1, (1, 0))
    y1_first, y1_last = max(lo1, c0 - hi2), max(lo1, c1 - hi2)
    if dlo <= y1_first and y1_last <= dhi and elo <= c0 - y1_first and c1 - y1_last <= ehi:
        return
    for y in range(c0, c1 + 1):
        y1 = max(lo1, y - hi2)
        if not (dlo <= y1 <= dhi and elo <= y - y1 <= ehi):
            raise TheoremViolationError(f"witness check failed at ({x}, {y})")


def _cover(
    x: int, gaps: list[tuple[int, int]], keys: Iterable[_Key], partner: _Table,
    path: DecompositionPath, spans: list[Span], counts: Counter[DecompositionPath],
    *, keys_in_e: bool = False,
) -> list[tuple[int, int]]:
    """Give each y of gaps (disjoint ranges, by increasing y) in column x to the
    first key column (kx, (klo, khi)) of one factor, in the order of keys, whose
    sum with column x - kx of the other factor's table partner holds it: a span
    per piece appended to spans, the points covered added to counts[path], the
    gaps left returned.  Keys are columns of P_D and partner is P_E's table, or
    the other way round when keys_in_e; either way the span takes x1 and lo1
    from the P_D column and hi2 from the P_E column, so each witness has the
    smallest q1 its key allows.  keys is read only until no gap is left."""
    get, covered = partner.get, 0
    for kx, (klo, khi) in keys:
        if (col := get(x - kx)) is None:
            continue
        olo, ohi = col
        a, b, rest = klo + olo, khi + ohi, []
        for gap in gaps:
            g0, g1 = gap
            if b < g0 or a > g1:
                rest.append(gap)
                continue
            c0, c1 = a if a > g0 else g0, b if b < g1 else g1
            spans.append((x, c0, c1, x - kx, olo, khi, path) if keys_in_e
                         else (x, c0, c1, kx, klo, ohi, path))
            covered += c1 - c0 + 1
            if g0 < a:
                rest.append((g0, a - 1))
            if b < g1:
                rest.append((b + 1, g1))
        if not (gaps := rest):
            break
    counts[path] += covered
    return gaps


def _oracle_column(
    table_d: _Table, table_e: _Table, x: int, lo: int, hi: int, counts: Counter[DecompositionPath]
) -> list[Span]:
    """The exhaustive search's checked spans on the points (x, lo..hi), by increasing
    y, their points added to counts: the keys are P_D's columns by increasing x1,
    cut to the x1 whose column x - x1 of P_E can exist."""
    spans: list[Span] = []
    if table_d and table_e:
        first = max(next(iter(table_d)), x - next(reversed(table_e)))
        last = min(next(reversed(table_d)), x - next(iter(table_e)))
        get = table_d.get
        keys = ((x1, col) for x1 in range(first, last + 1) if (col := get(x1)) is not None)
        _cover(x, [(lo, hi)], keys, table_e, DecompositionPath.FALLBACK_SEARCH, spans, counts)
    spans.sort()  # by c0: the spans of a column share x and are disjoint
    for span in spans:
        _check_span(table_d, table_e, span)
    return spans


def _fallback_witness(
    table_d: _Table, table_e: _Table, p: LatticeVector
) -> DecompositionWitness | None:
    """The exhaustive search's witness for p, on the one-point range [p.y, p.y]."""
    return next(_span_witnesses(_oracle_column(table_d, table_e, p.x, p.y, p.y, Counter())), None)


def decompose_bruteforce(
    p_d: ConvexLatticePolygon,
    p_e: ConvexLatticePolygon,
    p: LatticeVector,
) -> DecompositionWitness | None:
    """Exhaustive witness search: lexicographically smallest q1 that works.

    Returns None when no lattice decomposition exists, whether p narrowly
    misses the sumset or lies outside the sum region entirely.
    """
    if p_d.is_empty() or p_e.is_empty():
        raise EmptyInputError("decompose_bruteforce requires nonempty polygons")
    return _fallback_witness(_column_table(p_d), _column_table(p_e), p)


# -- triangle reduction ---------------------------------------------------------


def triangle_reduce(
    fan: Fan, e: TorusDivisor, q: RationalPoint, edge_index: int
) -> TriangleReduction:
    """Cut the polygon of a globally generated divisor down to an edge's corner.

    q must lie strictly inside edge sigma_{edge_index} (1-based, by ray).  The
    minimal offsets c supporting the edge's ends m1, m2 carve out either the
    edge itself or a triangle inside the polygon whose other two edges sit on
    consecutive rays.  All of it is read in integers off corner rings (see
    surface.polygon_of): the ends are the corners of e's ring on the edge's
    line, and c_i = max(-<m1, v_i>, -<m2, v_i>) is globally generated (its
    support function interpolates the concave one of [m1, m2]), so P_c is the
    polygon of c's ring, with m1 and m2 among its corners and P_c in P_e as
    c <= e.  The frame is the one corner m_k of c's ring that is the third
    vertex with both neighbouring edge lengths l_{k-1}, l_k > 0: its edges lie
    on rays k and k+1, and in the basis dual to (v_k, v_{k+1}) the legs are
    (l_k, l_{k-1}).
    """
    rec = _record(fan, e)
    if rec.least < 0:
        raise PreconditionError("triangle_reduce requires a globally generated divisor")
    if not (1 <= edge_index <= fan.n):
        raise PreconditionError(f"edge index must be in [1, {fan.n}]")
    (vx, vy), a = fan.xy[edge_index - 1], e.coeffs[edge_index - 1]
    ends = sorted(m for m in rec.ring if vx * m[0] + vy * m[1] == -a)
    if len(ends) != 2:
        raise PreconditionError(f"sigma_{edge_index} is not a nondegenerate edge")
    (ax, ay), (bx, by) = ends
    qx, qy, w = q.x_num, q.y_num, q.den  # on the line and strictly between the ends
    if vx * qx + vy * qy != -a * w or not (ax * w, ay * w) < (qx, qy) < (bx * w, by * w):
        raise PreconditionError(f"{q} is not interior to edge sigma_{edge_index}")
    c = tuple(max(-ux * ax - uy * ay, -ux * bx - uy * by) for ux, uy in fan.xy)
    corners, lengths = _corner_ring(fan.xy, c)
    if min(lengths) < 0:
        raise TheoremViolationError("the reduction of an edge is not globally generated")
    ring = _lattice_ring(corners)
    legs: tuple[int, int] | None = None
    corner: int | None = None
    if len(ring) == 3:
        k = next((k for k, m in enumerate(corners)
                  if m not in ends and lengths[k - 1] > 0 < lengths[k]), None)
        if k is None:
            raise TheoremViolationError("triangle legs are not supported by consecutive fan rays")
        legs, corner = (lengths[k], lengths[k - 1]), k + 1
    return TriangleReduction(
        sigma_endpoints=(LatticeVector(ax, ay), LatticeVector(bx, by)),
        c=c,
        triangle=ConvexLatticePolygon._from_lattice_ring(ring),
        legs=legs,
        corner_ray_index=corner,
    )


# -- homothetic triangles -------------------------------------------------------


def _primitive_shape(poly: ConvexLatticePolygon) -> ConvexLatticePolygon:
    """The primitive triangle that poly is a translated multiple of."""
    verts = poly.lattice_vertices()
    w0 = verts[0]
    deltas = [w - w0 for w in verts[1:]]
    k = 0
    for d in deltas:
        k = math.gcd(k, math.gcd(abs(d.x), abs(d.y)))
    return hull([LatticeVector(0, 0)] + [LatticeVector(d.x // k, d.y // k) for d in deltas])


def decompose_homothetic_triangles(
    t1: ConvexLatticePolygon, t2: ConvexLatticePolygon, p: LatticeVector
) -> tuple[LatticeVector, LatticeVector]:
    """Split p across two translates of multiples of one lattice triangle.

    Either triangle may degenerate to a point (the zero multiple).  Tie-break
    is the lexicographically smallest q1.  Existence is guaranteed for
    homothetic lattice triangles, so a failed scan for an in-range p is a bug.
    """
    for t in (t1, t2):
        if t.is_empty():
            raise EmptyInputError("homothetic decomposition requires nonempty inputs")
        if not t.has_lattice_vertices():
            raise PreconditionError("homothetic decomposition requires lattice triangles")
        if t.dim is PolygonDim.SEGMENT:
            raise PreconditionError("a segment is not a multiple of a triangle")
    if t1.dim is PolygonDim.POLYGON and t2.dim is PolygonDim.POLYGON:
        if len(t1.vrep) != 3 or len(t2.vrep) != 3:
            raise PreconditionError("inputs must be triangles")
        if _primitive_shape(t1) != _primitive_shape(t2):
            raise PreconditionError("triangles are not translates of multiples of one triangle")
    if not minkowski_sum(t1, t2).contains(p):
        raise DecompositionRangeError(f"{p} lies outside the sum of the triangles")
    witness = _fallback_witness(_column_table(t1), _column_table(t2), p)
    if witness is None:
        raise TheoremViolationError("no lattice split of homothetic triangles; this is a bug")
    return witness.q1, witness.q2


# -- the structured algorithm ---------------------------------------------------


class _StructuredContext:
    """Precomputed data shared by all points of one (fan, D, E) instance: the
    column tables of both factors and the fixed summands of steps (a) and (b),
    in the order the proof tries them.  All of it is read off the records of D
    and E in integers: positivity from the least edge length, as classify
    decides it, the tables as the records keep them (shared, never mutated),
    and every vertex from the rings.  Step (c) reads the same way: each edge's
    reduction off the corner ring of its minimal offsets c, and its frame's
    chords as integer columns of P_D's mapped ring."""

    def __init__(self, fan: Fan, rec_d: _DivisorRecord, rec_e: _DivisorRecord):
        if rec_d.least <= 0:
            raise PreconditionError("structured decomposition requires an ample first divisor")
        if rec_e.least < 0:
            raise PreconditionError(
                "structured decomposition requires a globally generated second divisor"
            )
        self.fan, self.rec_d, self.rec_e = fan, rec_d, rec_e
        self.table_d, self.table_e = rec_d.table(), rec_e.table()
        self._reductions: dict[int, TriangleReduction | None] = {}
        # (a) q1 = u, the vertices of P_D in sorted order, as one-point columns (ux, (uy, uy))
        self.d_vertices: list[_Key] = [(ux, (uy, uy)) for ux, uy in sorted(rec_d.ring)]
        # (b) q2 on the boundary of P_E, listed when step (a) first leaves a gap
        self.boundary: list[_Key] | None = None
        # whether a fixed summand, checked once as listed, leaves its factor's table
        self.outside = not all(_inside(self.table_d, ux, uy) for ux, uy in rec_d.ring)

    def boundary_points(self) -> list[_Key]:
        """Step (b)'s q2 = m + k t on the edges of P_E, edge by edge and k ascending, as
        one-point columns; k stops short of the next edge's start (a segment runs there
        and back, a point is one edge)."""
        if self.boundary is None:
            verts, boundary = list(self.rec_e.ring), []
            for (mx, my), (nx, ny) in zip(verts, verts[1:] + verts[:1]):
                dx, dy = nx - mx, ny - my
                g = math.gcd(dx, dy) or 1
                boundary += [(mx + k * dx // g, my + k * dy // g) for k in range(g)]
            self.boundary = [(qx, (qy, qy)) for qx, qy in boundary]
            self.outside |= not all(_inside(self.table_e, qx, qy) for qx, qy in boundary)
        return self.boundary

    def reduction_for_edge(self, j0: int) -> TriangleReduction | None:
        """Triangle reduction for edge sigma_{j0+1} at its midpoint, cached per
        instance (it depends on the edge alone), or None when sigma_{j0+1} is a
        vertex.  The edge's ends are the corners of P_E's ring on its line."""
        if j0 not in self._reductions:
            (vx, vy), a = self.fan.xy[j0], self.rec_e.coeffs[j0]
            ends = [m for m in self.rec_e.ring if vx * m[0] + vy * m[1] == -a]
            red: TriangleReduction | None = None
            if len(ends) == 2:
                (ax, ay), (bx, by) = ends
                e = TorusDivisor._derived(self.rec_e.coeffs)
                red = triangle_reduce(self.fan, e, RationalPoint(ax + bx, ay + by, 2), j0 + 1)
            self._reductions[j0] = red
        return self._reductions[j0]


def _try_regions(
    ctx: _StructuredContext, red: TriangleReduction, p: LatticeVector
) -> DecompositionWitness | None:
    """Step (c): decompose p against P_D plus the reduced corner triangle.

    Works in the frame of the triangle's corner k, the det-1 lattice map u ->
    (<v_k, u>, <v_{k+1}, u>) shifted by D's offsets (a_k, a_{k+1}) for P_D and
    by c's for the triangle: the triangle becomes conv{(0,0),(a,0),(0,b)} for
    its legs (a, b), P_D sits in the first quadrant with its corner m_k (a
    vertex, D being ample) at the origin, and p goes to (px, py).  The frame's
    lattice points are integer ranges read off P_D's mapped ring: column px,
    and row py as a column of the ring with its coordinates swapped.  Region A
    puts q2 on the base leg: with lo..hi on row py, q1 = (max(lo, px - a), py)
    whenever lo <= px <= hi + a.  Region B does the same on column px and the
    upright leg.  Region C splits p across the largest multiple of the triangle
    at a vertex of the frame that the frame holds, plus the triangle
    (decompose_homothetic_triangles).
    """
    if red.legs is None or red.corner_ray_index is None:
        return None
    n, k = ctx.fan.n, red.corner_ray_index - 1
    (v0x, v0y), (v1x, v1y) = ctx.fan.xy[k], ctx.fan.xy[(k + 1) % n]
    a_leg, b_leg = red.legs
    ad, bd = ctx.rec_d.coeffs[k], ctx.rec_d.coeffs[(k + 1) % n]
    cp, cp1 = red.c[k], red.c[(k + 1) % n]
    ring = _lattice_ring(
        [(v0x * x + v0y * y + ad, v1x * x + v1y * y + bd) for x, y in ctx.rec_d.ring]
    )
    cols = {x: (lo, hi) for x, lo, hi in _ring_columns(ring)}
    swapped = _lattice_ring([(y, x) for x, y in reversed(ring)])  # reversed: CCW again
    rows = {y: (lo, hi) for y, lo, hi in _ring_columns(swapped)}
    px = v0x * p.x + v0y * p.y + ad + cp
    py = v1x * p.x + v1y * p.y + bd + cp1

    def emit(q2x: int, q2y: int, path: DecompositionPath) -> DecompositionWitness:
        r0, r1 = q2x - cp, q2y - cp1  # q2 back from the triangle's frame
        q2 = LatticeVector(v1y * r0 - v0y * r1, -v1x * r0 + v0x * r1)
        if not (_inside(ctx.table_d, p.x - q2.x, p.y - q2.y) and _inside(ctx.table_e, q2.x, q2.y)):
            raise TheoremViolationError(f"witness check failed at {p}")
        return DecompositionWitness(p, p - q2, q2, path)

    if (row := rows.get(py)) is not None and row[0] <= px <= row[1] + a_leg:
        return emit(px - max(row[0], px - a_leg), 0, DecompositionPath.TRIANGLE_REGION_A)
    if (col := cols.get(px)) is not None and col[0] <= py <= col[1] + b_leg:
        return emit(0, py - max(col[0], py - b_leg), DecompositionPath.TRIANGLE_REGION_B)
    delta = hull([LatticeVector(0, 0), LatticeVector(a_leg, 0), LatticeVector(0, b_leg)])
    xmax, ymax = max(x for x, _ in ring), max(y for _, y in ring)
    for wx, wy in sorted(ring):
        c_hi = min((xmax - wx) // a_leg, (ymax - wy) // b_leg)
        c_best = next((cc for cc in range(c_hi, 0, -1) if _inside(cols, wx + cc * a_leg, wy)
                       and _inside(cols, wx, wy + cc * b_leg)), 0)
        rx, ry = px - wx, py - wy
        if rx < 0 or ry < 0 or b_leg * rx + a_leg * ry > (c_best + 1) * a_leg * b_leg:
            continue
        t1 = hull([LatticeVector(wx, wy), LatticeVector(wx + c_best * a_leg, wy),
                   LatticeVector(wx, wy + c_best * b_leg)])
        try:
            _, q2f = decompose_homothetic_triangles(t1, delta, LatticeVector(px, py))
        except (PreconditionError, DecompositionRangeError):
            continue
        return emit(q2f.x, q2f.y, DecompositionPath.TRIANGLE_REGION_C)
    return None


def _structured_column(
    ctx: _StructuredContext, x: int, lo: int, hi: int, counts: Counter[DecompositionPath]
) -> list[Span]:
    """Steps (a)-(d) on the points (x, lo..hi) of the sum polygon, as checked
    spans by increasing y, their points added to counts by path: (a) covers
    with the vertices of P_D as keys, (b) what is left with the boundary points
    of P_E, and (c) and (d) take each point left on its own."""
    spans: list[Span] = []
    vertex, edge = DecompositionPath.INTERIOR_VERTEX, DecompositionPath.BOUNDARY_LATTICE
    gaps = _cover(x, [(lo, hi)], ctx.d_vertices, ctx.table_e, vertex, spans, counts)
    if gaps:
        keys = ctx.boundary_points()
        gaps = _cover(x, gaps, keys, ctx.table_d, edge, spans, counts, keys_in_e=True)
    for g0, g1 in gaps:  # step (c)'s witnesses and step (d)'s spans come checked
        for y in range(g0, g1 + 1):
            spans.append(span := _regions_or_fallback(ctx, x, y))
            counts[span[6]] += 1
    spans.sort()  # by c0: the spans of a column share x and are disjoint
    if ctx.outside:  # raises at the first failing point, as a check of every span would
        for span in spans:
            _check_span(ctx.table_d, ctx.table_e, span)
    return spans


def _regions_or_fallback(ctx: _StructuredContext, x: int, y: int) -> Span:
    """Steps (c) and (d) for the point (x, y) of the sum polygon, as a span."""
    if len(ctx.rec_e.ring) > 2:  # P_E is two-dimensional
        for j0 in range(ctx.fan.n):
            red = ctx.reduction_for_edge(j0)
            if red is None or red.triangle.dim is not PolygonDim.POLYGON:
                continue  # a segment reduction adds nothing beyond step (b)
            w = _try_regions(ctx, red, LatticeVector(x, y))
            if w is not None:
                return (x, y, y, w.q1.x, w.q1.y, w.q2.y, w.path)
    spans = _oracle_column(ctx.table_d, ctx.table_e, x, y, y, Counter())
    if not spans:
        raise TheoremViolationError(
            f"no decomposition for ({x}, {y}) under ample x globally generated hypotheses"
        )
    return spans[0]


def _decompose_structured_in_context(
    ctx: _StructuredContext, p: LatticeVector
) -> DecompositionWitness:
    """Steps (a)-(d) on the one-point range [p.y, p.y] of column p.x."""
    d, e = ctx.rec_d.coeffs, ctx.rec_e.coeffs
    if any(v.dot(p) < -(a + b) for v, a, b in zip(ctx.fan.rays, d, e)):
        raise DecompositionRangeError(f"{p} lies outside the sum polygon")
    return next(_span_witnesses(_structured_column(ctx, p.x, p.y, p.y, Counter())))


def decompose_structured(
    fan: Fan, d: TorusDivisor, e: TorusDivisor, p: LatticeVector
) -> DecompositionWitness:
    """Certified decomposition of p following the constructive proof.

    Requires d ample and e globally generated; p must be a lattice point of
    the sum polygon.  Always returns a verified witness (or raises
    TheoremViolationError, which would indicate an implementation bug).
    """
    ctx = _StructuredContext(fan, _record(fan, d), _record(fan, e))
    return _decompose_structured_in_context(ctx, p)


# -- reports ----------------------------------------------------------------------


def _violation(
    message: str, command: str, fan: Fan, d: TorusDivisor, e: TorusDivisor
) -> TheoremViolationError:
    """A failed check's error, naming (fan, D, E) as the JSON files of a toricmult line."""
    return TheoremViolationError(
        f"{message}; reproduce with `toricmult {command}` on FAN {json.dumps({'rays': fan.xy})}, "
        f"L {json.dumps({'coeffs': d.coeffs})}, E {json.dumps({'coeffs': e.coeffs})}"
    )


def check_surjectivity(
    fan: Fan, d: TorusDivisor, e: TorusDivisor, mode: str = "both"
) -> SurjectivityReport:
    """Decide surjectivity over every lattice point of the sum polygon.

    mode "brute" accepts any divisors with sections; "structured" and "both"
    require d ample and e globally generated.  In mode "both" the two routes
    must agree on existence for every point: no column of the sumset may have
    a gap.  Modes "brute" and "both" refuse more than PAIR_BUDGET column pairs,
    every mode a sum polygon with more than POINT_BUDGET lattice points.
    """
    if mode not in ("structured", "brute", "both"):
        raise PreconditionError(f"unknown mode {mode!r}")
    rec_sum = _record(fan, d + e)
    _refuse_over_point_budget(rec_sum)  # before any table or point is built
    rec_d, rec_e = _record(fan, d), _record(fan, e)
    if mode != "structured":  # before the context checks the hypotheses
        _refuse_over_pair_budget(rec_d, rec_e)
    if mode == "brute":
        table_d, table_e = rec_d.table(), rec_e.table()
        if not (table_d and table_e):
            raise PreconditionError("brute mode requires sections on both factors")
        column = partial(_oracle_column, table_d, table_e)
    else:
        ctx = _StructuredContext(fan, rec_d, rec_e)
        table_d, table_e = ctx.table_d, ctx.table_e
        column = partial(_structured_column, ctx)
    total = 0
    spans: list[Span] = []
    path_counts: Counter[DecompositionPath] = Counter()
    try:
        for x, lo, hi in rec_sum.columns():
            total += hi - lo + 1
            spans += column(x, lo, hi, path_counts)
            if mode == "both" and (gaps := _sumset_gaps(table_d, table_e, x, lo, hi)):
                raise TheoremViolationError(
                    f"structured route decomposed {LatticeVector(x, gaps[0][0])} "
                    "but the exhaustive oracle did not"
                )
    except TheoremViolationError as exc:
        raise _violation(str(exc), f"verify FAN L E --mode {mode}", fan, d, e) from exc
    path_counts = +path_counts  # no zero counts
    decomposed = path_counts.total()
    return SurjectivityReport(
        total_points=total,
        decomposed=decomposed,
        surjective=decomposed == total,
        structured_fallbacks=path_counts[DecompositionPath.FALLBACK_SEARCH],
        path_counts=path_counts,
        spans=tuple(spans),
    )


def _refuse_over_point_budget(rec_sum: _DivisorRecord) -> None:
    """Refuse a sum polygon with more than POINT_BUDGET lattice points, counted
    by columns, only up to the budget and only when its corner box exceeds it."""
    x0, y0, x1, y1 = rec_sum.box
    if (x1 - x0 + 1) * (y1 - y0 + 1) > POINT_BUDGET and any(
        n > POINT_BUDGET for n in accumulate(hi - lo + 1 for _, lo, hi in rec_sum.columns())
    ):
        raise BudgetExceededError(f"the sum polygon has over {POINT_BUDGET} lattice points")


def _refuse_over_pair_budget(rec_d: _DivisorRecord, rec_e: _DivisorRecord) -> None:
    """Refuse more than PAIR_BUDGET pairs of lattice columns w_D x w_E, counted
    exactly (a sweep listing no point) only when the corner boxes exceed it."""
    if (rec_d.box[2] - rec_d.box[0] + 1) * (rec_e.box[2] - rec_e.box[0] + 1) > PAIR_BUDGET:
        w_d, w_e = (sum(1 for _ in rec.columns()) for rec in (rec_d, rec_e))
        if w_d * w_e > PAIR_BUDGET:
            raise BudgetExceededError(
                f"{w_d} x {w_e} column pairs exceed the budget of {PAIR_BUDGET}"
            )


def _sumset_gaps(
    table_a: _Table, table_b: _Table, x: int, lo: int, hi: int
) -> list[tuple[int, int]]:
    """The y-ranges of lo..hi, column x of a region holding the sumset of A and B,
    that no column x1 of A plus column x - x1 of B covers, in increasing y.  One
    pass over the narrower table, the partner column looked up, keeps the union
    m..M of the intervals while each new one touches it; the first that does not
    sends them all, m..M for those so far, to a sort-and-merge."""
    if len(table_b) < len(table_a):
        table_a, table_b = table_b, table_a
    partner = table_b.get
    m = M = None
    items = iter(table_a.items())
    for x1, (lo1, hi1) in items:
        col = partner(x - x1)
        if col is None:
            continue
        a, b = lo1 + col[0], hi1 + col[1]
        if m is None:
            m, M = a, b
        elif a <= M + 1 and b >= m - 1:
            m, M = a if a < m else m, b if b > M else M
        else:
            spans = [(m, M), (a, b)]
            for x1, (lo1, hi1) in items:
                if (col := partner(x - x1)) is not None:
                    spans.append((lo1 + col[0], hi1 + col[1]))
            spans.sort()
            break
    else:
        spans = [] if m is None else [(m, M)]
    gaps = []
    y = lo  # the lowest y that no span so far covers
    for a, b in spans:
        if a > y:
            gaps.append((y, a - 1))
        if b >= y:
            y = b + 1
    return gaps + [(y, hi)] if y <= hi else gaps


def _cokernel_gaps(
    table_d: _Table, table_e: _Table, cols_sum: Iterable[tuple[int, int, int]]
) -> tuple[int, list[tuple[int, int, int]]]:
    """h0 of P_{D+E} and the gaps (x, g0, g1) of the sumset in its columns (x, lo, hi),
    in (x, y) order; over POINT_BUDGET missing points are refused before any is listed."""
    h0_sum = n_missing = 0
    gaps: list[tuple[int, int, int]] = []
    for x, lo, hi in cols_sum:
        h0_sum += hi - lo + 1
        for g0, g1 in _sumset_gaps(table_d, table_e, x, lo, hi):
            gaps.append((x, g0, g1))
            n_missing += g1 - g0 + 1
        if n_missing > POINT_BUDGET:
            raise BudgetExceededError(f"over {POINT_BUDGET} missing points")
    return h0_sum, gaps


def _cokernel_report(
    h0_d: int, h0_e: int, h0_sum: int, gaps: Iterable[tuple[int, int, int]]
) -> CokernelReport:
    """cokernel_dim's report, the gaps listed as missing points."""
    missing = tuple(LatticeVector(x, y) for x, g0, g1 in gaps for y in range(g0, g1 + 1))
    n_missing = len(missing)
    return CokernelReport(h0_d, h0_e, h0_sum, h0_sum - n_missing, n_missing, missing)


def cokernel_dim(fan: Fan, d: TorusDivisor, e: TorusDivisor) -> CokernelReport:
    """Count the lattice points of the sum polygon missed by the sumset.

    Exact, from column intervals: the lattice points (x1, lo1..hi1) of a
    column of P_D plus those (x2, lo2..hi2) of a column of P_E fill the
    interval [lo1+lo2, hi1+hi2] of column x1 + x2, so the missing points are
    the gaps these intervals leave in the columns of P_{D+E}, merged one
    column at a time in O(w_D w_E) time and O(min(w_D, w_E)) memory for
    column counts w_D, w_E.  Both divisors must have sections; more than
    PAIR_BUDGET column pairs or POINT_BUDGET missing points are refused.
    """
    rec_d, rec_e = _record(fan, d), _record(fan, e)
    _refuse_over_pair_budget(rec_d, rec_e)
    table_d, table_e = rec_d.table(), rec_e.table()
    if not table_d or not table_e:
        raise PreconditionError("cokernel requires sections on both factors")
    h0_sum, gaps = _cokernel_gaps(table_d, table_e, _record(fan, d + e).columns())
    h0_d, h0_e = (sum(hi - lo + 1 for lo, hi in t.values()) for t in (table_d, table_e))
    return _cokernel_report(h0_d, h0_e, h0_sum, gaps)
