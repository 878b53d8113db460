"""Fans of smooth projective toric surfaces and torus-invariant divisors.

A fan is a cyclically ordered list of primitive rays going once CCW around
the origin with det(v_i, v_{i+1}) = 1 throughout; a divisor is an integer
coefficient per ray.  The polygon of a divisor collects the sections, and
positivity (globally generated / ample) is read off its ring of corners.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import (
    CoordinateOverflowError,
    DuplicateRayError,
    FanSizeError,
    NonCompleteFanError,
    NonPrimitiveRayError,
    NonSmoothFanError,
    PreconditionError,
    SamplingBudgetError,
)
from .lattice import (
    ConvexLatticePolygon,
    HalfPlane,
    LatticeVector,
    _INTERMEDIATE_BOUND,
    _angle_lt,
    _lattice_ring,
    _ring_columns,
    _ring_count,
    check_input_coord,
    intersect_halfplanes,
    parse_input_coord,
)

#: A fan has at most this many rays; validate_fan refuses more before any other check.
MAX_GENERATED_RAYS = 12

#: random_divisor gives up after this many rejected draws.
SAMPLING_BUDGET = 10**5


@dataclass(frozen=True)
class Fan:
    """A validated complete smooth fan; rays are CCW, indices cyclic.

    Build through :func:`validate_fan` (or the family generators), which
    normalizes the rotation so rays[0] has the smallest angle from the
    positive x-axis.
    """

    rays: tuple[LatticeVector, ...]
    #: The rays as (x, y) int pairs, a key that hashes and compares in C.
    xy: tuple[tuple[int, int], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "xy", tuple((v.x, v.y) for v in self.rays))

    @property
    def n(self) -> int:
        return len(self.rays)

    def ray(self, i: int) -> LatticeVector:
        """Ray by cyclic 0-based index."""
        return self.rays[i % len(self.rays)]

    def canonical_label(self) -> str:
        return ";".join(f"{v.x} {v.y}" for v in self.rays)

    def __str__(self) -> str:
        return f"Fan[{', '.join(str(v) for v in self.rays)}]"


@dataclass(frozen=True)
class TorusDivisor:
    """Integer coefficients a_1..a_n aligned with the rays of a fan."""

    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coeffs", tuple(self.coeffs))
        for a in self.coeffs:
            if not isinstance(a, int):
                raise TypeError("divisor coefficients must be int")
            check_input_coord(a, "divisor coefficient")

    @classmethod
    def _derived(cls, coeffs: Sequence[int]) -> "TorusDivisor":
        """A sum or rounding of admitted divisors: only the intermediate bound applies."""
        if any(abs(a) > _INTERMEDIATE_BOUND for a in coeffs):
            raise CoordinateOverflowError("derived coefficient exceeds the 128-bit bound")
        d = object.__new__(cls)
        object.__setattr__(d, "coeffs", tuple(coeffs))
        return d

    def __add__(self, other: "TorusDivisor") -> "TorusDivisor":
        if len(self.coeffs) != len(other.coeffs):
            raise PreconditionError("divisors live on fans with different ray counts")
        return TorusDivisor._derived([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __str__(self) -> str:
        return "(" + ", ".join(str(a) for a in self.coeffs) + ")"


class PositivityClass(Enum):
    AMPLE = "ample"
    GLOBALLY_GENERATED_NOT_AMPLE = "globally_generated_not_ample"
    EFFECTIVE_SECTIONS_ONLY = "effective_sections_only"
    NO_SECTIONS = "no_sections"

    def is_globally_generated(self) -> bool:
        return self in (PositivityClass.AMPLE, PositivityClass.GLOBALLY_GENERATED_NOT_AMPLE)


def validate_fan(rays: Sequence[LatticeVector | tuple[int, int]]) -> Fan:
    """Check smoothness, completeness and CCW order; normalize the rotation.

    Diagnoses the first violated condition: a non-primitive ray, a
    consecutive determinant different from 1, a duplicate ray, or a ray
    sequence that does not make exactly one CCW turn.  More than
    MAX_GENERATED_RAYS rays are refused first.
    """
    if len(rays) > MAX_GENERATED_RAYS:
        raise FanSizeError(f"{len(rays)} rays exceed the bound of {MAX_GENERATED_RAYS}")
    vs = [v if isinstance(v, LatticeVector) else LatticeVector(*v) for v in rays]
    for v in vs:
        check_input_coord(v.x, "ray coordinate")
        check_input_coord(v.y, "ray coordinate")
    if len(vs) < 3:
        raise NonCompleteFanError(f"{len(vs)} rays cannot go around the origin")
    for i, v in enumerate(vs):
        if (v.x, v.y) == (0, 0) or not v.is_primitive():
            raise NonPrimitiveRayError(i, v.as_tuple())
    n = len(vs)
    seen: set[tuple[int, int]] = set()
    for i, v in enumerate(vs):
        if v.as_tuple() in seen:
            raise DuplicateRayError(i, v.as_tuple())
        seen.add(v.as_tuple())
    for i in range(n):
        a, b = vs[i], vs[(i + 1) % n]
        det = a.cross(b)
        if det != 1:
            raise NonSmoothFanError(i, det)
    ts = [v.as_tuple() for v in vs]
    wraps = [i for i in range(n) if not _angle_lt(ts[i], ts[(i + 1) % n])]
    if len(wraps) != 1:
        raise NonCompleteFanError(f"ray angles wrap {len(wraps)} times instead of once")
    start = (wraps[0] + 1) % n  # the ray after the wrap has the least angle
    return Fan(tuple(vs[start:] + vs[:start]))


def polygon_of(fan: Fan, d: TorusDivisor) -> ConvexLatticePolygon:
    """The section polygon { u : <u, v_i> >= -a_i }; bounded by completeness.

    Each 2-cone (v_i, v_{i+1}) has the corner m_i with <m_i, v_i> = -a_i and
    <m_i, v_{i+1}> = -a_{i+1}, an integer point since det(v_i, v_{i+1}) = 1.
    m_{i+1} - m_i is l_i times v_{i+1} turned by -90 degrees, with l_i =
    <m_i, v_{i+2}> + a_{i+2}.  When every l_i >= 0 the ring of corners turns
    once CCW, and along it each <m, v_k> + a_k first grows from 0, then falls
    back to 0: every corner satisfies every half-plane, so d is globally
    generated and the polygon is conv(m_i) (Fulton, Introduction to Toric
    Varieties, 3.4), its vertices the corners in cyclic order, repeats dropped.
    Such a polygon is built anew on each call from the vertex ring of d's entry
    of the polygon cache (:class:`_DivisorRecord`).  Any other polygon may have
    rational vertices: :func:`intersect_halfplanes` builds it on the first call
    and the entry keeps it.  Only this function and the plot read it; every
    count, column and test for sections reads the ring of d's moving part.
    """
    return _record(fan, d).polygon


def _record(fan: Fan, d: TorusDivisor) -> "_DivisorRecord":
    """d's entry of the package's one cache."""
    if len(d.coeffs) != fan.n:
        raise PreconditionError(
            f"divisor has {len(d.coeffs)} coefficients for a fan with {fan.n} rays"
        )
    return _polygon_of_cached(fan.xy, d.coeffs)


#: A cache entry keeps its column table only up to this many columns, which
#: covers every factor of `certify` and acceptance criterion 1 (the widest has
#: 21); a wider table is built again on each read.
TABLE_CAP = 32


class _DivisorRecord:
    """A divisor's polygon data, read in integers off its corner ring (see
    :func:`polygon_of`).

    least is the least edge length l_i, so the divisor is globally generated
    iff least >= 0 and ample iff least > 0, the rule of :func:`classify`.  box
    is (xmin, ymin, xmax, ymax) of the corners m_i, and it holds the polygon of
    every divisor: <u, w> >= <m_i, w> on the polygon for each w in cone(v_i,
    v_{i+1}), since <u, v_i> >= -a_i = <m_i, v_i> and likewise for v_{i+1}, so
    the corner whose cone holds (1, 0) bounds x from below, and so on.  moving
    is the coefficients of the moving part E' (see :func:`_moving_part`, whose
    "no sections" stop reads the box), the divisor's own when it is globally
    generated and None when it has no sections; ring is the vertices of P_E'
    as int pairs, CCW from the lexicographic minimum, or None without
    sections.  P_E and P_E' have the same lattice points, so columns, table
    and h0 read the ring alone.  polygon is P_E itself: a globally generated
    divisor's is built from the ring on each read (it is larger than the
    ring), any other's by :func:`intersect_halfplanes` on the first and kept.
    The column table {x: (lo, hi)} is built on first read and kept up to
    TABLE_CAP columns.  Readers share a kept table and never mutate it.
    """

    __slots__ = ("rays", "coeffs", "least", "box", "moving", "ring", "_polygon", "_table")

    def __init__(self, rays: tuple[tuple[int, int], ...], coeffs: tuple[int, ...]):
        corners, lengths = _corner_ring(rays, coeffs)
        xs, ys = zip(*corners)
        self.rays, self.coeffs, self.least = rays, coeffs, min(lengths)
        self.box = min(xs), min(ys), max(xs), max(ys)
        self.moving = coeffs if self.least >= 0 else _moving_part(rays, coeffs, lengths, self.box)
        if self.moving is not None and self.moving is not coeffs:
            corners = _corner_ring(rays, self.moving)[0]
        self.ring = None if self.moving is None else _lattice_ring(corners)
        self._polygon: ConvexLatticePolygon | None = None
        self._table: dict[int, tuple[int, int]] | None = None

    @property
    def polygon(self) -> ConvexLatticePolygon:
        if self.least >= 0:
            return ConvexLatticePolygon._from_lattice_ring(self.ring)
        if self._polygon is None:
            self._polygon = intersect_halfplanes(
                [HalfPlane(LatticeVector(*v), a) for v, a in zip(self.rays, self.coeffs)]
            )
        return self._polygon

    def columns(self) -> Iterator[tuple[int, int, int]]:
        """The polygon's lattice columns (x, lo, hi), as lattice._columns gives them."""
        return iter(()) if self.ring is None else _ring_columns(self.ring)

    def table(self) -> dict[int, tuple[int, int]]:
        """The columns as {x: (lo, hi)}, in increasing x."""
        if self._table is not None:
            return self._table
        table = {x: (lo, hi) for x, lo, hi in self.columns()}
        if len(table) <= TABLE_CAP:
            self._table = table
        return table

    def h0(self) -> int:
        """The number of lattice points, by Pick's theorem on the ring."""
        return 0 if self.ring is None else _ring_count(self.ring)


#: The package's one cache, sized by measured reuse: a round of the benchmark's
#: `certify` touches 634 distinct divisors (at most 900) and acceptance
#: criterion 1 up to 530 between two uses of one divisor; the sweep builds its
#: per-instance records uncached.  An entry is a _DivisorRecord: the least edge
#: length, the corner box, the moving part's coefficients and vertex ring, the
#: polygon once read when it is not the ring's, and the column table once read,
#: up to TABLE_CAP columns.  Full, the cache holds at most about 30 MB
#: (tracemalloc, CPython 3.11: 4096 entries on 12 rays, 24-32 columns kept,
#: coordinates near 10^6: 5.9 KB each when globally generated, 6.4 KB otherwise
#: and 7.4 KB once polygon_of has read its rational polygon); at `certify`'s
#: scale an entry takes 1.2 KB, 5 MB full.
@lru_cache(maxsize=4096)
def _polygon_of_cached(
    rays: tuple[tuple[int, int], ...], coeffs: tuple[int, ...]
) -> _DivisorRecord:
    return _DivisorRecord(rays, coeffs)


def _corner_ring(
    rays: tuple[tuple[int, int], ...], coeffs: tuple[int, ...]
) -> tuple[list[tuple[int, int]], list[int]]:
    """The corners m_i of the cones (v_i, v_{i+1}) of the rays (x, y) and the edge
    lengths l_i = <m_i, v_{i+2}> + a_{i+2}, as in :func:`polygon_of`."""
    cones = zip(rays, coeffs, rays[1:] + rays[:1], coeffs[1:] + coeffs[:1])
    corners = [(b * vy - a * wy, a * wx - b * vx) for (vx, vy), a, (wx, wy), b in cones]
    after_next = zip(corners, rays[2:] + rays[:2], coeffs[2:] + coeffs[:2])
    return corners, [vx * x + vy * y + a for (x, y), (vx, vy), a in after_next]


def _moving_part(
    xy: tuple[tuple[int, int], ...], coeffs: tuple[int, ...], lengths: list[int], box: tuple
) -> tuple[int, ...] | None:
    """The coefficients of E' for the divisor d with coefficients coeffs on the
    rays xy, its corner ring's edge lengths and its corner box: d less the
    fixed components of |d| (Zariski's argument; Fulton, 3.4), the globally
    generated divisor whose polygon has d's lattice points; or None when d has
    no sections.

    With c_j = det(v_{j-1}, v_{j+1}) = -C_j^2 and l = d.C_j off the corner
    ring: if l < 0 and c_j > 0, C_j is fixed in |d| at least ceil(-l / c_j)
    times, so a_j drops by that much, never below E''s a'_j.  Rounds repeat,
    updating l in place, until every l >= 0.  Two stops decide that d has no
    sections, each because sections would contradict it: l < 0 with c_j <= 0,
    since an effective divisor meets the nef curve C_j nonnegatively; and
    a_j < -M_j, with M_j the largest <u, v_j> over the corners of the box,
    since every lattice point s of P_d lies in the box, so a'_j = max of
    -<s, v_j> >= -M_j.  Each round lowers some a_j, so without sections the
    rounds stop after at most sum_j (a_j + M_j + 1) drops.  The slowest seen,
    P_d a point on 12 rays with coefficients of 10^6, took 23,159 rounds
    (0.13 s); without sections, the slowest of 7,600 draws on 12 rays
    (coefficients up to 10^6, and 1,600 perturbations of that case) took 17 ms.
    """
    n, a = len(xy), list(coeffs)
    l = lengths[-1:] + lengths[:-1]  # l[j] = d.C_j
    c = [ux * wy - uy * wx for (ux, uy), (wx, wy) in zip(xy[-1:] + xy[:-1], xy[1:] + xy[:1])]
    x0, y0, x1, y1 = box
    floor = [-max(vx * x0, vx * x1) - max(vy * y0, vy * y1) for vx, vy in xy]
    while min(l) < 0:
        for j in range(n):
            if l[j] < 0:
                if c[j] <= 0:
                    return None
                k = -(l[j] // c[j])  # ceil(-l / c_j)
                a[j] -= k
                if a[j] < floor[j]:
                    return None
                l[j] += k * c[j]
                l[j - 1] -= k
                l[(j + 1) % n] -= k
    return tuple(a)


def h0(fan: Fan, d: TorusDivisor) -> int:
    """Number of sections = number of lattice points of P_d, which are those of
    P_d' for the moving part d': Pick's theorem on d''s vertex ring counts them
    in O(rays), a point as 1 and a segment as its lattice length plus 1."""
    return _record(fan, d).h0()


def classify(fan: Fan, d: TorusDivisor) -> PositivityClass:
    """Positivity of a divisor from the least edge length of its corner ring (see
    :func:`polygon_of`): l_i is d's intersection number with the curve of ray
    v_{i+1}, so on a smooth complete surface d is globally generated iff every
    l_i >= 0 and ample iff every l_i > 0 (Fulton, 3.4).  Any other divisor has
    sections iff the rounding of its record ends at a moving part, decided in
    integers (see :func:`_moving_part`); no column is read."""
    return _class_of(_record(fan, d))


def _class_of(rec: _DivisorRecord) -> PositivityClass:
    """The positivity class of a record, by the rule of :func:`classify`."""
    if rec.least > 0:
        return PositivityClass.AMPLE
    if rec.least == 0:
        return PositivityClass.GLOBALLY_GENERATED_NOT_AMPLE
    if rec.moving is not None:
        return PositivityClass.EFFECTIVE_SECTIONS_ONLY
    return PositivityClass.NO_SECTIONS


# -- families ------------------------------------------------------------------


def projective_plane() -> Fan:
    return validate_fan([(1, 0), (0, 1), (-1, -1)])


def product_p1_p1() -> Fan:
    return validate_fan([(1, 0), (0, 1), (-1, 0), (0, -1)])


def hirzebruch(a: int) -> Fan:
    """The fan with rays (1,0), (0,1), (-1,a), (0,-1); a >= 0."""
    if a < 0:
        raise PreconditionError("hirzebruch parameter must be >= 0")
    return validate_fan([(1, 0), (0, 1), (-1, a), (0, -1)])


def blowup(fan: Fan, corner: int) -> Fan:
    """Insert v_i + v_{i+1} between rays i and i+1 (1-based corner index)."""
    if not (1 <= corner <= fan.n):
        raise PreconditionError(f"corner index must be in [1, {fan.n}]")
    i = corner - 1
    new_ray = fan.rays[i] + fan.ray(i + 1)
    rays = list(fan.rays)
    rays.insert(i + 1, new_ray)
    return validate_fan(rays)


_FAMILY_NAMES = {
    "p2": projective_plane,
    "projective_plane": projective_plane,
    "p1xp1": product_p1_p1,
    "product_p1_p1": product_p1_p1,
}


def generate_family(descriptor: str) -> Fan:
    """Build a fan from a textual descriptor.

    Grammar: ``p2``, ``p1xp1``, ``f<a>`` or ``hirzebruch(<a>)`` for the
    ruled surfaces, and ``blowup(<descriptor>, <corner>)`` with a 1-based
    corner index, nested freely, e.g. ``blowup(blowup(p2, 1), 4)``.
    """
    text = descriptor.strip().lower()
    if text in _FAMILY_NAMES:
        return _FAMILY_NAMES[text]()
    if text.startswith("f") and text[1:].isdigit():
        return hirzebruch(parse_input_coord(text[1:], "hirzebruch parameter"))
    if text.startswith("hirzebruch(") and text.endswith(")"):
        inner = text[len("hirzebruch(") : -1].strip()
        return hirzebruch(parse_input_coord(inner, "hirzebruch parameter"))
    if text.startswith("blowup(") and text.endswith(")"):
        # the corner index is the last argument: the last comma ends the base
        inner, comma, corner_text = text[len("blowup(") : -1].rpartition(",")
        if not comma:
            raise PreconditionError(f"blowup descriptor needs a corner index: {descriptor!r}")
        base = generate_family(inner)
        return blowup(base, parse_input_coord(corner_text.strip(), "corner index"))
    raise PreconditionError(f"unknown family descriptor {descriptor!r}")


def random_divisor(
    fan: Fan, positivity: PositivityClass, max_coeff: int, seed: int
) -> TorusDivisor:
    """Rejection-sample a divisor of the requested class, coefficients in [0, max_coeff].

    Deterministic in the seed; raises :class:`SamplingBudgetError` when the
    class is not hit within SAMPLING_BUDGET draws, each classified uncached.
    """
    if max_coeff < 1:
        raise PreconditionError("max_coeff must be >= 1")
    check_input_coord(max_coeff, "maximum coefficient")  # as any coefficient drawn would be
    rng = random.Random(seed)
    for _ in range(SAMPLING_BUDGET):
        d = TorusDivisor(tuple(rng.randint(0, max_coeff) for _ in range(fan.n)))
        if _class_of(_DivisorRecord(fan.xy, d.coeffs)) is positivity:
            return d
    raise SamplingBudgetError(
        f"no {positivity.value} divisor with coefficients <= {max_coeff} found in {SAMPLING_BUDGET} draws"
    )
