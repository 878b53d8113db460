"""Surjectivity of the section multiplication map, with certificates.

A lattice point p of the sum polygon is certified by a witness q1 + q2 = p
with q1, q2 lattice points of the two factor polygons.  Witnesses come from
two independent routes: an exhaustive search (the oracle) and a structured
route whose steps are the cases of the constructive proof on the fiber
P_E intersect (p - P_D):

(a) vertex: a fiber vertex interior to P_E is p - u for a vertex u of P_D;
(b) edge: otherwise the fiber meets the boundary of P_E, so look for a
    vertex of P_E in p - P_D, then a lattice point m + k t inside an edge;
(c) triangle regions: cut an edge of P_E down to its corner triangle T, read
    off the corner ring of the edge's minimal offsets, and look for q2 in T:
    on its legs, (A) then (B), from the edge's end to the corner (interval
    splits), then (C) anywhere in T (the homothetic-triangle split);
(d) fallback: the exhaustive search, recorded in the witness's path.

Every step is one column cover (_cover) of the gaps the steps before it leave
in a column x of the sum polygon, with its own keys: the vertices u of P_D as
one-point columns (a), the vertices q2 of P_E and then its edges' interior
points (b), each triangle's leg points and then its columns (c), or the
columns x1 of P_D, cut by bisection to those whose partner x - x1 lies in
P_E's x-range (_meeting), for (d) and the oracle.  A key at x' plus column
x - x' of the other factor fills a y-interval of column x, and each point
goes to the first key, in the proof's order, whose interval holds it.  A
single point takes the same route on its one-point range.  Where only gaps are
asked for (mode "both", cokernel_dim, the sweep), _sumset_gaps first tries a
covered column against the pair that covered the column before it, in O(1)
lookups, and otherwise walks _meeting's columns.

Each route's witnesses are spans (x, c0, c1, x1, lo1, hi2, path): (x, y) for
c0 <= y <= c1 splits as q1 = (x1, max(lo1, y - hi2)) plus q2 = (x, y) - q1.
The cover reads x1 and lo1 off the column of P_D and hi2 off that of P_E:
step (a)'s vertex u gives (u.x, u.y, hi of column x - u.x of P_E), step (b)'s
or a leg's q2 gives (x - q2.x, lo of column x - q2.x of P_D, q2.y), and a
column x2 of T gives (x - x2, lo of column x - x2 of P_D, hi of column x2 of
T).  A span is valid once its key is: it is cut to the sum of the key's column
and its partner's, and each summand stays in the column it was read from.  So
each key is checked once against its factor's table, when the context lists it:
the vertices of P_D (a), the boundary points of P_E (b), the legs and columns of
T (c); step (d)'s and the oracle's keys and partners are the tables' own.  Only
after a listed key fails are a column's spans checked, in (x, y) order, so the
error names the first point whose witness leaves a factor.

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
from bisect import bisect_left, bisect_right
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, Iterable, Iterator

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
    hull,
    minkowski_sum,
)
from .surface import Fan, TorusDivisor, _corner_ring, _DivisorRecord, _record

#: The exhaustive search, cokernel_dim and the sweep refuse more pairs of
#: lattice columns w_D x w_E of the two factors than this.
PAIR_BUDGET = 10**7
#: The most points one report answers for: the points of the sum polygon, or the
#: missing ones, kept as intervals, a few per column.  Reading a report's
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
    and their count per path, counted once off the spans; witnesses expands the
    spans anew on each read."""

    total_points: int
    decomposed: int
    surjective: bool
    structured_fallbacks: int
    path_counts: Counter[DecompositionPath] = field(compare=False)  # read off the spans
    spans: tuple[Span, ...]

    @property
    def witnesses(self) -> tuple[DecompositionWitness, ...]:
        return tuple(_span_witnesses(self.spans))


class _GapPoints(Sequence[LatticeVector]):
    """The lattice points of gaps (x, g0, g1), in their order, built anew on each
    read; equal to any sequence of the same points, as a tuple of them would be."""

    def __init__(self, gaps: tuple[tuple[int, int, int], ...]) -> None:
        self.gaps = gaps

    def __len__(self) -> int:
        return sum(g1 - g0 + 1 for _, g0, g1 in self.gaps)

    def __iter__(self) -> Iterator[LatticeVector]:
        return (LatticeVector(x, y) for x, g0, g1 in self.gaps for y in range(g0, g1 + 1))

    def __getitem__(self, index: int | slice):  # as of the tuple of the points
        return tuple(self)[index]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Sequence) and tuple(self) == tuple(other)

    def __repr__(self) -> str:
        return repr(tuple(self))


@dataclass(frozen=True)
class CokernelReport:
    """h0 of both factors and of their sum, and the gaps (x, g0, g1) the sumset leaves
    in the columns of P_{D+E}, maximal and in (x, y) order.  missing_points lists the
    gaps' points anew on each read, and coker_dim and sumset_size are counted off them
    once.  The three sit in the instance dict beside the fields, so equality and repr
    stay on the gaps and vars() of a report still holds every attribute callers read."""

    h0_D: int
    h0_E: int
    h0_sum: int
    gaps: tuple[tuple[int, int, int], ...]

    def __post_init__(self) -> None:
        n = len(points := _GapPoints(self.gaps))
        self.__dict__.update(missing_points=points, coker_dim=n, sumset_size=self.h0_sum - n)


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
    """Raise at the first point of span whose witness leaves a factor's table: q1.y
    and q2.y never decrease along it, so its ends decide, and a failing span is scanned."""
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
    path: DecompositionPath, spans: list[Span], *, keys_in_e: bool = False,
) -> list[tuple[int, int]]:
    """Give each y of gaps (disjoint ranges, by increasing y) in column x to the
    first key column (kx, (klo, khi)) of one factor, in the order of keys, whose
    sum with column x - kx of the other factor's table partner holds it: a span
    per piece appended to spans, the gaps left returned.  Keys are columns of P_D
    and partner is P_E's table, or the other way round when keys_in_e; either way
    the span takes x1 and lo1 from the P_D column and hi2 from the P_E column, so
    each witness has the smallest q1 its key allows.  keys is read only until no
    gap is left; the spans alone record what was covered, and by which path."""
    get = partner.get
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
            if g0 < a:
                rest.append((g0, a - 1))
            if b < g1:
                rest.append((b + 1, g1))
        if not (gaps := rest):
            break
    return gaps


def _meeting(table_a: _Table, table_b: _Table) -> Callable[[int], list[_Key]]:
    """Per column x, table_a's items by increasing x1, cut by bisection to the x1 whose
    partner x - x1 lies in table_b's x-range."""
    items, xs = list(table_a.items()), list(table_a)
    b0, b1 = next(iter(table_b), 0), next(reversed(table_b), -1)  # an empty range meets nothing

    def meeting(x: int) -> list[_Key]:
        return items[bisect_left(xs, x - b1):bisect_right(xs, x - b0)]

    return meeting


def _oracle(table_d: _Table, table_e: _Table) -> Callable[..., list[Span]]:
    """The exhaustive search of one pair, as column(x, lo, hi): spans on (x, lo..hi)
    by increasing y, keyed by _meeting's columns of P_D (valid spans)."""
    meeting, path = _meeting(table_d, table_e), DecompositionPath.FALLBACK_SEARCH

    def column(x: int, lo: int, hi: int) -> list[Span]:
        spans: list[Span] = []
        _cover(x, [(lo, hi)], meeting(x), table_e, path, spans)
        spans.sort()  # by c0: the spans of a column share x and are disjoint
        return spans

    return column


def _fallback_witness(
    table_d: _Table, table_e: _Table, p: LatticeVector
) -> DecompositionWitness | None:
    """The exhaustive search's witness for p, on the one-point range [p.y, p.y]."""
    return next(_span_witnesses(_oracle(table_d, table_e)(p.x, p.y, p.y)), None)


def decompose_bruteforce(
    p_d: ConvexLatticePolygon, p_e: ConvexLatticePolygon, p: LatticeVector
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
    column tables of both factors and the keys of steps (a)-(c), in the order
    the proof tries them.  All of it is read off the records of D and E in
    integers: positivity from the least edge length, as classify decides it,
    the tables as the records keep them (shared, never mutated), every vertex
    from the rings, and step (c)'s triangles by triangle_reduce off the corner
    rings of the edges' minimal offsets."""

    def __init__(self, fan: Fan, rec_d: _DivisorRecord, rec_e: _DivisorRecord):
        if rec_d.least <= 0:
            raise PreconditionError("structured decomposition requires an ample first divisor")
        if rec_e.least < 0:
            raise PreconditionError(
                "structured decomposition requires a globally generated second divisor"
            )
        self.fan, self.rec_d, self.rec_e = fan, rec_d, rec_e
        self.table_d, self.table_e = rec_d.table(), rec_e.table()
        self.outside = False  # whether a listed key leaves its factor's table
        # (a) q1 = u, the vertices of P_D in sorted order, as one-point columns (ux, (uy, uy))
        vertices = [(ux, (uy, uy)) for ux, uy in sorted(rec_d.ring)]
        self.d_vertices = self._listed(self.table_d, vertices)
        # (b) q2 on the boundary of P_E, listed when step (a) first leaves a gap
        self.boundary: list[_Key] | None = None
        # (c) q2 in the corner triangles, listed when step (b) first leaves a gap
        self.triangles: list[tuple[DecompositionPath, list[_Key]]] | None = None
        self.search: Callable[[int], list[_Key]] | None = None  # (d)'s keys, bound on first use

    def _listed(self, table: _Table, keys: list[_Key]) -> list[_Key]:
        """keys, each checked once against its factor's table: a key column
        (kx, (klo, khi)) that leaves column kx of table sets self.outside."""
        for kx, (klo, khi) in keys:
            lo, hi = table.get(kx, (1, 0))  # (1, 0): an empty column
            self.outside |= not lo <= klo <= khi <= hi
        return keys

    def boundary_points(self) -> list[_Key]:
        """Step (b)'s q2 on the boundary of P_E as one-point columns: the vertices of
        P_E in ring order, then the interior points m + k t (0 < k < g) of each edge,
        edge by edge and k ascending (a segment is one edge, a point has none).  On a
        large fiber a vertex covers most of a column at once, where each next edge
        point, tried from the edge's start, adds about a row."""
        if self.boundary is None:
            ring = self.rec_e.ring
            edges = zip(ring, ring[1:] + ring[:1]) if len(ring) > 2 else zip(ring, ring[1:])
            boundary = list(ring)
            for (mx, my), (nx, ny) in edges:
                dx, dy = nx - mx, ny - my
                g = math.gcd(dx, dy)
                boundary += [(mx + k * dx // g, my + k * dy // g) for k in range(1, g)]
            self.boundary = self._listed(self.table_e, [(qx, (qy, qy)) for qx, qy in boundary])
        return self.boundary

    def triangle_keys(self) -> list[tuple[DecompositionPath, list[_Key]]]:
        """Step (c)'s keys in P_E, region by region, for each edge sigma_j of P_E in fan
        order whose triangle_reduce at its midpoint is a triangle T with legs on rays k
        and k+1: (A) the lattice points of the leg on ray k+1's line and (B) those of the
        leg on ray k's line, each from sigma_j's end to the corner, as one-point columns,
        then (C) the columns of T.  The edge's ends are the corners of P_E's ring on its
        line; a segment P_E, or a reduction to the edge itself, adds nothing to step (b)."""
        if self.triangles is None:
            self.triangles = []
            xy, ring, n = self.fan.xy, self.rec_e.ring, self.fan.n
            e = TorusDivisor._derived(self.rec_e.coeffs)
            for j, ((vx, vy), a) in enumerate(zip(xy, e.coeffs) if len(ring) > 2 else ()):
                ends = [m for m in ring if vx * m[0] + vy * m[1] == -a]
                if len(ends) != 2:
                    continue
                (ax, ay), (bx, by) = ends
                red = triangle_reduce(self.fan, e, RationalPoint(ax + bx, ay + by, 2), j + 1)
                if red.corner_ray_index is None:
                    continue
                k = red.corner_ray_index - 1
                ((cx, cy),) = {m.as_tuple() for m in red.triangle.lattice_vertices()} - set(ends)
                for path, (ux, uy), c in (
                    (DecompositionPath.TRIANGLE_REGION_A, xy[(k + 1) % n], red.c[(k + 1) % n]),
                    (DecompositionPath.TRIANGLE_REGION_B, xy[k], red.c[k]),
                ):
                    mx, my = next(m for m in ends if ux * m[0] + uy * m[1] == -c)
                    g = math.gcd(cx - mx, cy - my)
                    dx, dy = (cx - mx) // g, (cy - my) // g
                    leg = [(mx + i * dx, (my + i * dy,) * 2) for i in range(g + 1)]
                    self.triangles.append((path, self._listed(self.table_e, leg)))
                columns = self._listed(self.table_e, list(_column_table(red.triangle).items()))
                self.triangles.append((DecompositionPath.TRIANGLE_REGION_C, columns))
        return self.triangles


def _structured_column(ctx: _StructuredContext, x: int, lo: int, hi: int) -> list[Span]:
    """Steps (a)-(d) on the points (x, lo..hi) of the sum polygon, as spans by
    increasing y.  Each step covers the gaps the steps before it leave: (a) with
    the vertices of P_D as keys, (b) with the boundary points of P_E, (c) with each
    corner triangle's legs and columns, and (d) with the exhaustive search.  A gap
    that (d) leaves raises, naming its first point, and so does, once a listed key
    failed, a witness that leaves a factor."""
    spans: list[Span] = []
    vertex, edge = DecompositionPath.INTERIOR_VERTEX, DecompositionPath.BOUNDARY_LATTICE
    gaps = _cover(x, [(lo, hi)], ctx.d_vertices, ctx.table_e, vertex, spans)
    if gaps:
        gaps = _cover(x, gaps, ctx.boundary_points(), ctx.table_d, edge, spans, keys_in_e=True)
    for path, keys in ctx.triangle_keys() if gaps else ():
        if not (gaps := _cover(x, gaps, keys, ctx.table_d, path, spans, keys_in_e=True)):
            break
    if gaps:  # one exhaustive search per context serves all its points
        if ctx.search is None:
            ctx.search = _meeting(ctx.table_d, ctx.table_e)
        keys, path = ctx.search(x), DecompositionPath.FALLBACK_SEARCH
        gaps = _cover(x, gaps, keys, ctx.table_e, path, spans)
    if gaps:
        raise TheoremViolationError(
            f"no decomposition for ({x}, {gaps[0][0]}) under ample x globally generated hypotheses"
        )
    spans.sort()  # by c0: the spans of a column share x and are disjoint
    if ctx.outside:  # a key failed as listed: raise at the first failing point
        for span in spans:
            _check_span(ctx.table_d, ctx.table_e, span)
    return spans


def _decompose_structured_in_context(
    ctx: _StructuredContext, p: LatticeVector
) -> DecompositionWitness:
    """Steps (a)-(d) on the one-point range [p.y, p.y] of column p.x."""
    d, e = ctx.rec_d.coeffs, ctx.rec_e.coeffs
    if any(v.dot(p) < -(a + b) for v, a, b in zip(ctx.fan.rays, d, e)):
        raise DecompositionRangeError(f"{p} lies outside the sum polygon")
    return next(_span_witnesses(_structured_column(ctx, p.x, p.y, p.y)))


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
        if rec_d.moving is None or rec_e.moving is None:
            raise PreconditionError("brute mode requires sections on both factors")
        column = _oracle(rec_d.table(), rec_e.table())
    else:
        ctx = _StructuredContext(fan, rec_d, rec_e)
        column = partial(_structured_column, ctx)
        gaps_of = _sumset_gaps(ctx.table_d, ctx.table_e) if mode == "both" else None
    total = 0
    spans: list[Span] = []
    try:
        for x, lo, hi in rec_sum.columns():
            total += hi - lo + 1
            spans += column(x, lo, hi)
            if mode == "both" and (gaps := gaps_of(x, lo, hi)):
                raise TheoremViolationError(
                    f"structured route decomposed {LatticeVector(x, gaps[0][0])} "
                    "but the exhaustive oracle did not"
                )
    except TheoremViolationError as exc:
        raise _violation(str(exc), f"verify FAN L E --mode {mode}", fan, d, e) from exc
    path_counts: Counter[DecompositionPath] = Counter()
    for _, c0, c1, _, _, _, path in spans:
        path_counts[path] += c1 - c0 + 1
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
    exactly by Pick's theorem on its record's ring."""
    if rec_sum.h0() > POINT_BUDGET:
        raise BudgetExceededError(f"the sum polygon has over {POINT_BUDGET} lattice points")


def _moving_sum(
    rays: tuple[tuple[int, int], ...], rec_d: _DivisorRecord, rec_e: _DivisorRecord,
    rec_sum: _DivisorRecord,
) -> _DivisorRecord:
    """The record of D' + E' for the moving parts D' and E' of two divisors with
    sections, rec_sum when that is D + E.  Every sum of lattice points of P_D and
    P_E lies in P_D' + P_E' = P_{D'+E'} (Fulton, 3.4: polygons of globally
    generated divisors add), so the collar of P_{D+E} outside it is missed: more
    than POINT_BUDGET collar points, counted by Pick's theorem, are refused as
    the walk of the columns would refuse them, before any column is walked."""
    coeffs = tuple(a + b for a, b in zip(rec_d.moving, rec_e.moving))
    if coeffs == rec_sum.coeffs:
        return rec_sum
    rec = _DivisorRecord(rays, coeffs)
    if rec_sum.h0() - rec.h0() > POINT_BUDGET:
        raise BudgetExceededError(f"over {POINT_BUDGET} missing points")
    return rec


def _refuse_over_pair_budget(rec_d: _DivisorRecord, rec_e: _DivisorRecord) -> None:
    """Refuse more than PAIR_BUDGET pairs of lattice columns w_D x w_E.  The
    x-ranges of the moving parts' rings (each starts at its least x) bound the
    widths, and only while their product exceeds the budget are the columns
    counted exactly (a sweep listing no point)."""
    w_d, w_e = (0 if r.ring is None else max(r.ring)[0] - r.ring[0][0] + 1 for r in (rec_d, rec_e))
    if w_d * w_e > PAIR_BUDGET:
        w_d, w_e = (sum(1 for _ in rec.columns()) for rec in (rec_d, rec_e))
        if w_d * w_e > PAIR_BUDGET:
            raise BudgetExceededError(
                f"{w_d} x {w_e} column pairs exceed the budget of {PAIR_BUDGET}"
            )


def _sumset_gaps(table_a: _Table, table_b: _Table) -> Callable[..., list[tuple[int, int]]]:
    """The oracle of one pair, as gaps(x, lo, hi): the y-ranges of lo..hi, column x of
    a region holding the sumset of A and B, that no column x1 of A plus column x - x1
    of B covers, in increasing y.  A covered column is first tried against the pair
    that closed the last covered one, and against its next x1, in O(1) lookups: []
    once one real pair alone holds lo..hi.  Otherwise a walk of the narrower table's
    _meeting columns keeps the union m..M of the intervals while each touches it, and
    returns [] once m..M holds lo..hi; the first that does not sends all to a
    sort-and-merge.  The pair kept only orders the reads, so any call order is exact."""
    if len(table_b) < len(table_a):
        table_a, table_b = table_b, table_a
    meeting, own, partner = _meeting(table_a, table_b), table_a.get, table_b.get
    last = next(iter(table_a), 0)  # x1 of the pair that closed the last covered column

    def gaps_of(x: int, lo: int, hi: int) -> list[tuple[int, int]]:
        nonlocal last
        for x1 in last, last + 1:
            if ((col1 := own(x1)) is not None and (col := partner(x - x1)) is not None
                    and col1[0] + col[0] <= lo and hi <= col1[1] + col[1]):
                last = x1
                return []
        m = M = None
        items = iter(meeting(x))
        for x1, (lo1, hi1) in items:
            if (col := partner(x - x1)) is None:
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
            if m <= lo and hi <= M:
                last = x1
                return []
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

    return gaps_of


def _cokernel_gaps(
    table_d: _Table, table_e: _Table, cols_sum: Iterable[tuple[int, int, int]]
) -> tuple[int, list[tuple[int, int, int]]]:
    """h0 of P_{D+E} and the gaps (x, g0, g1) of the sumset in its columns (x, lo, hi),
    in (x, y) order; over POINT_BUDGET missing points are refused before any is listed."""
    h0_sum = n_missing = 0
    gaps: list[tuple[int, int, int]] = []
    gaps_of = _sumset_gaps(table_d, table_e)
    for x, lo, hi in cols_sum:
        h0_sum += hi - lo + 1
        for g0, g1 in gaps_of(x, lo, hi):
            gaps.append((x, g0, g1))
            n_missing += g1 - g0 + 1
        if n_missing > POINT_BUDGET:
            raise BudgetExceededError(f"over {POINT_BUDGET} missing points")
    return h0_sum, gaps


def cokernel_dim(fan: Fan, d: TorusDivisor, e: TorusDivisor) -> CokernelReport:
    """Count the lattice points of the sum polygon missed by the sumset.

    Exact, from column intervals: the lattice points (x1, lo1..hi1) of a column of
    P_D plus those (x2, lo2..hi2) of a column of P_E fill the interval
    [lo1+lo2, hi1+hi2] of column x1 + x2, so the missing points are the gaps these
    intervals leave in the columns of P_{D+E}, merged one column at a time.  A
    covered column is first tried against the pair that covered the column before
    it, in O(1) lookups, and is otherwise walked, stopping once covered: O(w_D w_E)
    time at worst and O(w_D + w_E) memory, both tables, for column counts w_D,
    w_E.  The report keeps these gaps, at most a few per column, and lists the
    missing points only when they are read.  Both divisors must have sections;
    more than PAIR_BUDGET column pairs or POINT_BUDGET missing points are refused,
    the latter first by the collar the moving parts leave (see _moving_sum).
    """
    rec_d, rec_e = _record(fan, d), _record(fan, e)
    _refuse_over_pair_budget(rec_d, rec_e)
    if rec_d.moving is None or rec_e.moving is None:
        raise PreconditionError("cokernel requires sections on both factors")
    rec_sum = _record(fan, d + e)
    _moving_sum(fan.xy, rec_d, rec_e, rec_sum)
    h0_sum, gaps = _cokernel_gaps(rec_d.table(), rec_e.table(), rec_sum.columns())
    return CokernelReport(rec_d.h0(), rec_e.h0(), h0_sum, tuple(gaps))
