"""Exact integer/rational convex geometry in the plane.

Everything here is computed with integer or rational arithmetic only: vertex
coordinates are rationals with a shared denominator, all comparisons go
through cross-multiplication, and lattice-point enumeration walks the edges
of a region's vertex list with exact ceilings and floors.  Degenerate regions
(empty, point, segment) are ordinary values, not errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import chain, repeat
from operator import floordiv
from typing import Iterable, Iterator, Sequence

from .errors import (
    CoordinateOverflowError,
    DecompositionRangeError,
    EmptyInputError,
    NoIntegerInIntervalError,
    PreconditionError,
    TheoremViolationError,
    UnboundedRegionError,
)

#: Input coordinates (points, rays, divisor coefficients) must stay within
#: this bound; it keeps instances desk-scale and fails loudly on absurd data.
INPUT_COORD_BOUND = 10**6

#: Guard for derived integer quantities.  Python integers cannot overflow,
#: so this only catches runaway arithmetic, mirroring a checked 128-bit bound.
_INTERMEDIATE_BOUND = 2**127 - 1


def check_input_coord(value: int, what: str = "coordinate") -> int:
    if abs(value) > INPUT_COORD_BOUND:
        raise CoordinateOverflowError(f"{what} {value} exceeds |value| <= {INPUT_COORD_BOUND}")
    return value


def ascii_int(text: str) -> int | None:
    """text as an int if it is ASCII digits after at most one '-', else None.
    int alone also reads digits such as '٣' and spaces or a '+'; str.isdigit
    admits digits such as '²' that int rejects; int rejects over 4,300 digits."""
    digits = text.removeprefix("-")
    if digits.isascii() and digits.isdigit():
        try:
            return int(text)
        except ValueError:  # over int's limit of 4,300 digits
            pass
    return None


def parse_input_coord(text: str, what: str) -> int:
    """An input integer (see ascii_int) within INPUT_COORD_BOUND; other text is refused."""
    if (value := ascii_int(text)) is not None and abs(value) <= INPUT_COORD_BOUND:
        return value
    raise PreconditionError(
        f"bad {what} {text!r}, not an integer in [-{INPUT_COORD_BOUND}, {INPUT_COORD_BOUND}]"
    )


def ceil_div(a: int, b: int) -> int:
    """Exact ceiling of a/b for integers, b > 0."""
    return -((-a) // b)


@dataclass(frozen=True, order=True)
class LatticeVector:
    """An integer point of the rank-2 lattice (character or ray data)."""

    x: int
    y: int

    def __post_init__(self) -> None:
        if not isinstance(self.x, int) or not isinstance(self.y, int):
            raise TypeError("lattice coordinates must be int")
        if abs(self.x) > _INTERMEDIATE_BOUND or abs(self.y) > _INTERMEDIATE_BOUND:
            raise CoordinateOverflowError("coordinate exceeds the 128-bit intermediate bound")

    def __add__(self, other: "LatticeVector") -> "LatticeVector":
        return LatticeVector(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "LatticeVector") -> "LatticeVector":
        return LatticeVector(self.x - other.x, self.y - other.y)

    def dot(self, other: "LatticeVector") -> int:
        return self.x * other.x + self.y * other.y

    def cross(self, other: "LatticeVector") -> int:
        return self.x * other.y - self.y * other.x

    def is_primitive(self) -> bool:
        return math.gcd(self.x, self.y) == 1

    def as_tuple(self) -> tuple[int, int]:
        return (self.x, self.y)

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


@dataclass(frozen=True)
class RationalPoint:
    """A rational point stored as (x_num/den, y_num/den) in lowest form.

    den >= 1 and gcd(x_num, y_num, den) = 1 after normalization, so equal
    points always have equal field values.
    """

    x_num: int
    y_num: int
    den: int = 1

    def __post_init__(self) -> None:
        if self.den == 0:
            raise ZeroDivisionError("denominator must be nonzero")
        self._set(*_hom_normalize((self.x_num, self.y_num, self.den)))

    @classmethod
    def _from_normalized(cls, x_num: int, y_num: int, den: int) -> "RationalPoint":
        """The point of numbers already in lowest form, as _hom_normalize gives them."""
        return object.__new__(cls)._set(x_num, y_num, den)

    def _set(self, x_num: int, y_num: int, den: int) -> "RationalPoint":
        object.__setattr__(self, "x_num", x_num)
        object.__setattr__(self, "y_num", y_num)
        object.__setattr__(self, "den", den)
        return self

    @classmethod
    def from_lattice(cls, v: LatticeVector) -> "RationalPoint":
        return cls(v.x, v.y, 1)

    @property
    def x(self) -> Fraction:
        return Fraction(self.x_num, self.den)

    @property
    def y(self) -> Fraction:
        return Fraction(self.y_num, self.den)

    def to_lattice(self) -> LatticeVector:
        if self.den != 1:
            raise PreconditionError(f"{self} is not a lattice point")
        return LatticeVector(self.x_num, self.y_num)

    def __str__(self) -> str:
        return f"({self.x}, {self.y})"


@dataclass(frozen=True)
class HalfPlane:
    """The closed region { u : <u, normal> >= -offset } with primitive normal."""

    normal: LatticeVector
    offset: int

    def __post_init__(self) -> None:
        if self.normal.x == 0 and self.normal.y == 0:
            raise PreconditionError("half-plane normal must be nonzero")
        if not self.normal.is_primitive():
            raise PreconditionError(f"half-plane normal {self.normal.as_tuple()} is not primitive")
        if abs(self.offset) > _INTERMEDIATE_BOUND:
            raise CoordinateOverflowError("offset exceeds the 128-bit intermediate bound")


class PolygonDim(Enum):
    EMPTY = "empty"
    POINT = "point"
    SEGMENT = "segment"
    POLYGON = "polygon"


_DIMS = tuple(PolygonDim)  # indexed by the vertex count, capped at 3


# -- homogeneous-coordinate helpers (x, y, w) with w > 0, used internally ----


def _hom_lex_key(p: tuple[int, int, int]) -> tuple[Fraction, Fraction]:
    return (Fraction(p[0], p[2]), Fraction(p[1], p[2]))


def _hom_lex_lt(a: tuple[int, int, int], b: tuple[int, int, int]) -> bool:
    d = a[0] * b[2] - b[0] * a[2]
    if d != 0:
        return d < 0
    return a[1] * b[2] - b[1] * a[2] < 0


def _hom_cross_sign(o: tuple[int, int, int], a: tuple[int, int, int], b: tuple[int, int, int]) -> int:
    # sign of (a - o) x (b - o); denominators are positive so they only scale.
    ax, ay = a[0] * o[2] - o[0] * a[2], a[1] * o[2] - o[1] * a[2]
    bx, by = b[0] * o[2] - o[0] * b[2], b[1] * o[2] - o[1] * b[2]
    v = ax * by - ay * bx
    return (v > 0) - (v < 0)


def _hom_normalize(p: tuple[int, int, int]) -> tuple[int, int, int]:
    x, y, w = p
    if w < 0:
        x, y, w = -x, -y, -w
    g = math.gcd(x, y, w)
    if g > 1:
        x, y, w = x // g, y // g, w // g
    return (x, y, w)


def _hull_hom(points: Sequence[tuple[int, int, int]]) -> list[tuple[int, int, int]]:
    """Monotone-chain convex hull on normalized homogeneous points.

    Returns the hull CCW starting at the lexicographically smallest point;
    collinear non-extreme points are dropped.  Degenerate outputs have one or
    two entries.  Lattice-only input (every w == 1) sorts on the raw integer
    tuples, which order it lexicographically; rational input needs the exact
    Fraction key.
    """
    uniq = set(points)
    if all(p[2] == 1 for p in uniq):
        pts = sorted(uniq)
    else:
        pts = sorted(uniq, key=_hom_lex_key)
    if len(pts) <= 1:
        return pts
    lower: list[tuple[int, int, int]] = []
    for p in pts:
        while len(lower) >= 2 and _hom_cross_sign(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[int, int, int]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _hom_cross_sign(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    if len(lower) == 2 and len(upper) == 2:
        return [pts[0], pts[-1]]  # collinear: keep the two extremes
    return lower[:-1] + upper[:-1]


def _lattice_ring(points: Sequence[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """The vertices, as vrep lists them, of the polygon whose vertices are points'
    integer pairs, listed once around CCW, repeats allowed: each point equal to
    the next dropped, starting at the lexicographic minimum."""
    verts = [p for p, q in zip(points, points[1:] + points[:1]) if p != q] or [points[0]]
    start = verts.index(min(verts))
    return tuple(verts[start:] + verts[:start])


@dataclass(frozen=True)
class ConvexLatticePolygon:
    """Canonical convex region: vrep CCW from the lexicographic minimum.

    A region is its vertices: two polygons describe the same region iff
    their vrep tuples are equal, and dim follows from how many there are.
    Use :func:`hull` or :func:`intersect_halfplanes` to build one.
    """

    vrep: tuple[RationalPoint, ...]

    @property
    def dim(self) -> PolygonDim:
        return _DIMS[min(len(self.vrep), 3)]

    # -- constructors --------------------------------------------------------

    @staticmethod
    def _from_hom_vertices(hom: Sequence[tuple[int, int, int]]) -> "ConvexLatticePolygon":
        hull_pts = _hull_hom([_hom_normalize(p) for p in hom])
        return ConvexLatticePolygon(tuple(RationalPoint._from_normalized(*p) for p in hull_pts))

    @staticmethod
    def _from_lattice_ring(ring: Sequence[tuple[int, int]]) -> "ConvexLatticePolygon":
        """The polygon of a vertex ring as :func:`_lattice_ring` gives it."""
        return ConvexLatticePolygon(tuple(RationalPoint._from_normalized(x, y, 1) for x, y in ring))

    @classmethod
    def empty(cls) -> "ConvexLatticePolygon":
        return cls(())

    # -- basic queries -------------------------------------------------------

    def is_empty(self) -> bool:
        return not self.vrep

    def has_lattice_vertices(self) -> bool:
        return all(v.den == 1 for v in self.vrep)

    def lattice_vertices(self) -> list[LatticeVector]:
        return [v.to_lattice() for v in self.vrep]

    def contains(self, p: RationalPoint | LatticeVector) -> bool:
        """Whether p lies in the region: on the inner side of, or on, every edge
        from one vertex to the next, and lexicographically between the least
        vertex and the greatest.  Below dimension 2 the edges run there and back,
        so only the ends bound p; an empty vrep contains nothing."""
        hp = (p.x, p.y, 1) if isinstance(p, LatticeVector) else (p.x_num, p.y_num, p.den)
        hom = [(v.x_num, v.y_num, v.den) for v in self.vrep]
        edges = zip(hom, hom[1:] + hom[:1])
        return bool(hom) and all(_hom_cross_sign(a, b, hp) >= 0 for a, b in edges) and not (
            _hom_lex_lt(hp, hom[0]) or _hom_lex_lt(max(hom, key=_hom_lex_key), hp)
        )

    def bounding_box(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        if self.is_empty():
            raise EmptyInputError("empty region has no bounding box")
        xs = [p.x for p in self.vrep]
        ys = [p.y for p in self.vrep]
        return (min(xs), min(ys), max(xs), max(ys))

    def __str__(self) -> str:
        return f"{self.dim.value}[{', '.join(str(v) for v in self.vrep)}]"


# -- construction ------------------------------------------------------------


def hull(points: Iterable[LatticeVector]) -> ConvexLatticePolygon:
    """Convex hull of lattice points within the input bound, as a canonical
    polygon: its vertices are the extreme points, CCW."""
    pts = list(points)
    for p in pts:
        check_input_coord(p.x)
        check_input_coord(p.y)
    return ConvexLatticePolygon._from_hom_vertices([(p.x, p.y, 1) for p in pts])


def intersect_halfplanes(planes: Sequence[HalfPlane]) -> ConvexLatticePolygon:
    """Intersection of closed half-planes as a canonical polygon.

    Its vertices are the crossings of two planes that satisfy every plane,
    so a redundant plane changes nothing.  An empty intersection yields the
    empty polygon; an unbounded one raises :class:`UnboundedRegionError`.  A
    region is unbounded iff some normal n_i has det(n_i, n_j) >= 0 for every
    normal n_j, that is, iff u = rot90(n_i), along n_i's line, has <u, n_j> >= 0
    for every j: a nonzero cone of recession directions is a half-plane, a line,
    or has its counterclockwise edge ray u on such a line.
    """
    planes = list(planes)
    if not planes:
        raise PreconditionError("need at least one half-plane")
    data = [(h.normal.x, h.normal.y, h.offset) for h in planes]
    n = len(planes)
    candidates: list[tuple[int, int, int]] = []
    for i in range(n):
        nix, niy, ci = data[i]
        for j in range(i + 1, n):
            njx, njy, cj = data[j]
            det = nix * njy - niy * njx
            if det == 0:
                continue
            x = -ci * njy + cj * niy
            y = -cj * nix + ci * njx
            w = det
            if w < 0:
                x, y, w = -x, -y, -w
            ok = True
            for nkx, nky, ck in data:
                if nkx * x + nky * y < -ck * w:
                    ok = False
                    break
            if ok:
                candidates.append((x, y, w))
    if not candidates:
        # a nonempty region with two independent normals would have a vertex;
        # with every (primitive) normal +-n it is the strip lo <= <u, n> <= hi
        n0 = data[0][:2]
        if all(nx * n0[1] == ny * n0[0] for nx, ny, _ in data):
            lo = max(-c for nx, ny, c in data if (nx, ny) == n0)
            hi = min((c for nx, ny, c in data if (nx, ny) != n0), default=None)
            if hi is None or lo <= hi:
                raise UnboundedRegionError("intersection is nonempty but has no vertex")
        return ConvexLatticePolygon.empty()
    if any(all(ix * jy - iy * jx >= 0 for jx, jy, _ in data) for ix, iy, _ in data):
        raise UnboundedRegionError("half-plane normals do not positively span the plane")
    return ConvexLatticePolygon._from_hom_vertices(candidates)


# -- lattice-point machinery ---------------------------------------------------


def lattice_points(poly: ConvexLatticePolygon) -> list[LatticeVector]:
    """All lattice points of a bounded region, sorted lexicographically.

    Column sweep: for each integer x between the horizontal extremes, the y
    range is pinned down by exact ceilings/floors of the boundary edges, so
    the points come out already in (x, y) order.
    """
    return [LatticeVector(x, y) for x, ylo, yhi in _columns(poly) for y in range(ylo, yhi + 1)]


def _columns(poly: ConvexLatticePolygon) -> Iterator[tuple[int, int, int]]:
    """(x, ylo, yhi) with ylo <= yhi for every integer x whose column of the
    region holds a lattice point, in increasing x."""
    return _hom_columns([(v.x_num, v.y_num, v.den) for v in poly.vrep])


def _ring_columns(ring: Sequence[tuple[int, int]]) -> Iterator[tuple[int, int, int]]:
    """:func:`_columns` of the polygon of a vertex ring from :func:`_lattice_ring`,
    walked on its int pairs without building the polygon."""
    return _hom_columns([(x, y, 1) for x, y in ring])


def _hom_columns(hom: list[tuple[int, int, int]]) -> Iterator[tuple[int, int, int]]:
    """The columns of the region whose vertices hom lists as vrep does.

    An edge walk CCW from the lexicographic minimum to the maximum r and
    back: ylo is the ceiling of the lower chain at x and yhi the floor of the
    upper one, each exact from the one edge that covers x, and a lattice edge
    of integer slope is a range.  Lazy, in O(vertices) memory.
    """
    r = 0
    for i in range(1, len(hom)):
        if _hom_lex_lt(hom[r], hom[i]):
            r = i
    if not hom or (xmin := ceil_div(hom[0][0], hom[0][2])) > (xmax := hom[r][0] // hom[r][2]):
        return iter(())
    if hom[0][0] * hom[r][2] == hom[r][0] * hom[0][2]:  # a point or an upright segment
        cols = iter([(xmin, ceil_div(hom[0][1], hom[0][2]), hom[r][1] // hom[r][2])])
    else:
        lower, upper = hom[: r + 1], [hom[0], *reversed(hom[r:])]
        ylo, yhi = (chain.from_iterable(_edge_ys(c, xmin, c is lower)) for c in (lower, upper))
        cols = zip(range(xmin, xmax + 1), ylo, yhi)
    return (c for c in cols if c[1] <= c[2])


def _edge_ys(verts: list[tuple[int, int, int]], x: int, ceil: bool) -> Iterator[Iterable[int]]:
    """Per edge, the ceilings (or floors) of the chain's y at x, x + 1, ... to its
    last vertex; verts are homogeneous, by increasing x, and an upright edge is
    skipped."""
    for (px, py, pd), (qx, qy, qd) in zip(verts, verts[1:]):
        den, last = qx * pd - px * qd, qx // qd
        if den == 0 or last < x:
            continue
        a, b = py * qx - px * qy, qy * pd - py * qd  # y = (a + b t) / den on this edge
        if a % den == 0 and b % den == 0:  # an integer slope from a lattice point
            a, b, den = a // den, b // den, 1
        elif ceil:
            a += den - 1  # the ceiling of n / den is the floor of (n + den - 1) / den
        ys = range(a + b * x, a + b * (last + 1), b) if b else repeat(a, last + 1 - x)
        yield ys if den == 1 else map(floordiv, ys, repeat(den))
        x = last + 1


def _column_table(poly: ConvexLatticePolygon) -> dict[int, tuple[int, int]]:
    """{x: (ylo, yhi)} from :func:`_columns`, in increasing x: (x, y) is a
    lattice point of the region iff ylo <= y <= yhi in column x."""
    return {x: (ylo, yhi) for x, ylo, yhi in _columns(poly)}


def lattice_point_count(poly: ConvexLatticePolygon) -> int:
    """Number of lattice points of a bounded region, counted column by column
    without materializing them."""
    return sum(yhi - ylo + 1 for _, ylo, yhi in _columns(poly))


def pick_count(poly: ConvexLatticePolygon) -> int:
    """Lattice-point count via Pick's theorem: Area + B/2 + 1.

    Independent of the column sweep; requires lattice vertices.
    """
    if poly.is_empty():
        raise PreconditionError("pick_count requires a nonempty polygon")
    if not poly.has_lattice_vertices():
        raise PreconditionError("pick_count requires lattice vertices")
    return _ring_count([(v.x_num, v.y_num) for v in poly.vrep])


def _ring_count(ring: Sequence[tuple[int, int]]) -> int:
    """The lattice points of the polygon of a vertex ring from :func:`_lattice_ring`,
    by Pick's theorem: (2A + B) / 2 + 1 for twice the area 2A, the shoelace sum
    of the ring, and the boundary count B, the sum of its edges' lattice
    lengths.  A segment's ring runs there and back (2A = 0, B twice its length)
    and a point's is one vertex (2A = B = 0), so both count right too."""
    twice_area = boundary = 0
    for (px, py), (qx, qy) in zip(ring, ring[1:] + ring[:1]):
        twice_area += px * qy - py * qx
        boundary += math.gcd(qx - px, qy - py)
    if twice_area < 0 or (twice_area + boundary) % 2 != 0:
        raise TheoremViolationError(
            f"Pick data inconsistent: twice area {twice_area}, boundary {boundary}"
        )
    return (twice_area + boundary) // 2 + 1


def face_in_direction(
    poly: ConvexLatticePolygon, v: LatticeVector, c: int
) -> ConvexLatticePolygon:
    """The region P intersect { u : <u, v> = -c }, exactly.

    Empty when the line misses P; a single (possibly rational) point when it
    touches a vertex or crosses at one point; otherwise the chord segment.
    """
    if not v.is_primitive():
        raise PreconditionError("direction must be primitive")

    # each vertex with its level: the sign of <p, v> + c, scaled by the positive denominator
    ends = [(p, v.x * p.x_num + v.y * p.y_num + c * p.den) for p in poly.vrep]
    pts = [(p.x_num, p.y_num, p.den) for p, level in ends if level == 0]
    # cyclic vertex pairs: a segment's edge comes twice, a point pairs with itself
    for (a, la), (b, lb) in zip(ends, ends[1:] + ends[:1]):
        if la * lb < 0:  # level is linear in (x_num, y_num, den): lb a - la b is on the line
            pts.append(
                (lb * a.x_num - la * b.x_num, lb * a.y_num - la * b.y_num, lb * a.den - la * b.den)
            )
    return ConvexLatticePolygon._from_hom_vertices(pts)


# -- Minkowski sums ------------------------------------------------------------


def _edge_vectors(
    poly: ConvexLatticePolygon, w: int
) -> tuple[tuple[int, int], list[tuple[int, int]]]:
    """Start vertex (lowest, then leftmost) and CCW edge vectors from it, of
    the region scaled by w, a multiple of every vertex denominator."""
    verts = [(p.x_num * (w // p.den), p.y_num * (w // p.den)) for p in poly.vrep]
    start = min(range(len(verts)), key=lambda i: (verts[i][1], verts[i][0]))
    order = verts[start:] + verts[:start]
    if len(order) == 1:
        return order[0], []
    # a segment runs there and back: d and -d
    return order[0], [(q[0] - p[0], q[1] - p[1]) for p, q in zip(order, order[1:] + order[:1])]


def _angle_lt(a: Sequence[int], b: Sequence[int]) -> bool:
    """Exact order of nonzero directions by angle from the positive x-axis."""
    upper_a = a[1] > 0 or (a[1] == 0 and a[0] > 0)  # angle in [0, pi)
    upper_b = b[1] > 0 or (b[1] == 0 and b[0] > 0)
    if upper_a != upper_b:
        return upper_a
    return a[0] * b[1] - a[1] * b[0] > 0


def minkowski_sum(a: ConvexLatticePolygon, b: ConvexLatticePolygon) -> ConvexLatticePolygon:
    """A + B by merging integer edge vectors in angular order.

    Both summands are scaled by the lcm w of their vertex denominators, so
    rational regions of any dimension add in integers.  Always equals the
    hull of pairwise vertex sums; that identity is checked in tests, not here.
    """
    if a.is_empty() or b.is_empty():
        raise EmptyInputError("minkowski_sum requires nonempty polygons")
    w = math.lcm(*(p.den for p in a.vrep + b.vrep))
    sa, ea = _edge_vectors(a, w)
    sb, eb = _edge_vectors(b, w)
    merged: list[tuple[int, int]] = []
    i = j = 0
    while i < len(ea) and j < len(eb):
        if _angle_lt(ea[i], eb[j]):
            merged.append(ea[i])
            i += 1
        elif _angle_lt(eb[j], ea[i]):
            merged.append(eb[j])
            j += 1
        else:  # parallel, same direction: fuse into one edge
            merged.append((ea[i][0] + eb[j][0], ea[i][1] + eb[j][1]))
            i += 1
            j += 1
    merged.extend(ea[i:])
    merged.extend(eb[j:])
    x, y = sa[0] + sb[0], sa[1] + sb[1]
    hom = [(x, y, w)]
    for dx, dy in merged[:-1]:
        x, y = x + dx, y + dy
        hom.append((x, y, w))
    return ConvexLatticePolygon._from_hom_vertices(hom)


# -- the elementary interval decomposition --------------------------------------


def decompose_interval(
    i1: tuple[Fraction | int, Fraction | int],
    i2: tuple[int, int],
    z: int,
) -> tuple[int, int]:
    """Split an integer z in I1 + I2 as c1 + c2 with c1 in I1, c2 in I2.

    I1 is a closed rational interval that must contain an integer; I2 has
    integer endpoints.  Deterministic tie-break: smallest feasible c1.
    """
    a1, b1 = Fraction(i1[0]), Fraction(i1[1])
    a2, b2 = i2
    if not (isinstance(a2, int) and isinstance(b2, int)):
        raise PreconditionError("I2 must have integer endpoints")
    if a1 > b1 or a2 > b2:
        raise PreconditionError("intervals must be nonempty")
    lo1, hi1 = math.ceil(a1), math.floor(b1)
    if lo1 > hi1:
        raise NoIntegerInIntervalError(f"[{a1}, {b1}] contains no integer")
    if not (a1 + a2 <= z <= b1 + b2):
        raise DecompositionRangeError(f"{z} outside [{a1 + a2}, {b1 + b2}]")
    c1 = max(lo1, z - b2)
    if c1 > min(hi1, z - a2):
        raise TheoremViolationError(f"no split of {z} in [{a1}, {b1}] + [{a2}, {b2}]")
    return c1, z - c1
