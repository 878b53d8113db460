"""Property-based invariants across the geometry and surface layers."""

import math
import random
from collections import Counter
from fractions import Fraction
from unittest.mock import patch

import hypothesis.strategies as st
import pytest
from hypothesis import assume, example, given, settings

from toricmult.lattice import (
    ConvexLatticePolygon,
    HalfPlane,
    LatticeVector,
    PolygonDim,
    RationalPoint,
    decompose_interval,
    face_in_direction,
    hull,
    intersect_halfplanes,
    lattice_point_count,
    lattice_points,
    minkowski_sum,
    pick_count,
)
from toricmult.lattice import _column_table, _columns
from toricmult.multiplication import (
    DecompositionPath,
    _StructuredContext,
    _sumset_gaps,
    check_surjectivity,
    cokernel_dim,
    decompose_bruteforce,
    decompose_structured,
    triangle_reduce,
)
from toricmult.errors import PreconditionError, TheoremViolationError
from toricmult.reduction import (
    _collar,
    _sweep_instance,
    _sweep_worker_init,
    edge_lattice_report,
    reduce_to_globally_generated,
    sweep_cokernel,
)
from toricmult.surface import (
    PositivityClass,
    TorusDivisor,
    blowup,
    classify,
    generate_family,
    h0,
    _polygon_of_cached,
    _record,
    polygon_of,
    validate_fan,
)

V = LatticeVector

coords = st.integers(min_value=-9, max_value=9)
point_lists = st.lists(st.tuples(coords, coords), min_size=1, max_size=7)
lattice_polys = point_lists.map(lambda ps: hull([V(x, y) for x, y in ps]))


@st.composite
def fans(draw, blowups=2):
    fan = generate_family(draw(st.sampled_from(["p2", "p1xp1", "f1", "f2", "f3"])))
    for _ in range(draw(st.integers(min_value=0, max_value=min(blowups, 12 - fan.n)))):
        fan = blowup(fan, draw(st.integers(min_value=1, max_value=fan.n)))
    return fan


@st.composite
def fan_with_divisor(draw, lo=0, hi=4):
    fan = draw(fans())
    coeffs = tuple(draw(st.integers(min_value=lo, max_value=hi)) for _ in range(fan.n))
    return fan, TorusDivisor(coeffs)


@given(lattice_polys)
@settings(max_examples=300, deadline=None)
def test_pick_matches_enumeration(poly):
    assert pick_count(poly) == len(lattice_points(poly))


@given(lattice_polys)
@settings(max_examples=200, deadline=None)
def test_hull_of_lattice_points_contained(poly):
    pts = lattice_points(poly)
    if not pts:
        return
    inner = hull(pts)
    assert all(poly.contains(v) for v in inner.vrep)


@given(point_lists)
@settings(max_examples=200, deadline=None)
def test_hull_of_lattice_points_matches_rational_path(ps):
    # lattice-only input sorts on integer tuples; one non-lattice point
    # strictly between two input points sends the same hull through the
    # exact Fraction-key sort without changing it
    distinct = sorted(set(ps))
    assume(len(distinct) >= 2)
    (x1, y1), (x2, y2) = distinct[0], distinct[-1]
    dx, dy = x2 - x1, y2 - y1
    k = abs(dx) + abs(dy) + 1  # exceeds |dx| and |dy|, so the point is not a lattice point
    hom = [(x, y, 1) for x, y in ps] + [(k * x1 + dx, k * y1 + dy, k)]
    rational = ConvexLatticePolygon._from_hom_vertices(hom)
    assert rational.vrep == hull([V(x, y) for x, y in ps]).vrep


def assert_column_sweep(poly):
    pts = lattice_points(poly)
    assert all(a.as_tuple() < b.as_tuple() for a, b in zip(pts, pts[1:]))
    assert lattice_point_count(poly) == len(pts)
    if poly.is_empty():
        assert pts == []
        return
    xmin, ymin, xmax, ymax = poly.bounding_box()
    box = [
        V(x, y)
        for x in range(math.ceil(xmin), math.floor(xmax) + 1)
        for y in range(math.ceil(ymin), math.floor(ymax) + 1)
    ]
    assert pts == [p for p in box if poly.contains(p)]


@given(fan_with_divisor(lo=-3, hi=4))
@settings(max_examples=200, deadline=None)
@example((generate_family("p2"), TorusDivisor((-2, -1, 3))))  # lattice point
@example((blowup(generate_family("p2"), 1), TorusDivisor((-2, -2, 1, 2))))  # segment
@example((generate_family("f2"), TorusDivisor((-2, -1, -1, 2))))  # rational vertex
def test_lattice_points_of_divisor_polygons(fan_divisor):
    fan, d = fan_divisor
    assert_column_sweep(polygon_of(fan, d))


rational_coords = st.tuples(
    st.integers(-12, 12), st.integers(-12, 12), st.integers(1, 4)
)


@given(st.lists(rational_coords, min_size=1, max_size=5))
@settings(max_examples=200, deadline=None)
def test_lattice_points_of_rational_regions(hom):
    # rational points, segments and polygons, so the sweep walks edges
    # between rational vertices
    assert_column_sweep(ConvexLatticePolygon._from_hom_vertices(hom))


rational_regions = st.lists(rational_coords, min_size=1, max_size=5).map(
    ConvexLatticePolygon._from_hom_vertices
)


@given(st.one_of(lattice_polys, rational_regions), st.one_of(lattice_polys, rational_regions))
@settings(max_examples=200, deadline=None)
def test_minkowski_equals_hull_of_vertex_sums(a, b):
    # rational points, segments and polygons take the lcm-scaled integer merge
    merged = minkowski_sum(a, b)
    sums = [
        (p.x_num * q.den + q.x_num * p.den, p.y_num * q.den + q.y_num * p.den, p.den * q.den)
        for p in a.vrep
        for q in b.vrep
    ]
    assert merged == ConvexLatticePolygon._from_hom_vertices(sums)


@given(lattice_polys, lattice_polys)
@settings(max_examples=100, deadline=None)
def test_minkowski_commutative_with_identity(a, b):
    assert minkowski_sum(a, b) == minkowski_sum(b, a)
    origin = hull([V(0, 0)])
    assert minkowski_sum(a, origin) == a


@given(lattice_polys, lattice_polys, lattice_polys)
@settings(max_examples=60, deadline=None)
def test_minkowski_associative(a, b, c):
    assert minkowski_sum(minkowski_sum(a, b), c) == minkowski_sum(a, minkowski_sum(b, c))


@given(lattice_polys, lattice_polys)
@settings(max_examples=80, deadline=None)
def test_sumset_contained_in_sum_polygon(a, b):
    sum_points = set(lattice_points(minkowski_sum(a, b)))
    for p in lattice_points(a):
        for q in lattice_points(b):
            assert p + q in sum_points


def _support_min(poly, v):
    """min of <u, v> over a nonempty region, at its vertices."""
    return min(Fraction(v.x * p.x_num + v.y * p.y_num, p.den) for p in poly.vrep)


@given(lattice_polys, lattice_polys, st.sampled_from([(1, 0), (0, 1), (-1, -1), (1, 2), (-2, 1), (0, -1)]))
@settings(max_examples=150, deadline=None)
def test_face_additivity_at_minimal_offsets(a, b, direction):
    v = V(*direction)
    ca = -_support_min(a, v)
    cb = -_support_min(b, v)
    assert ca.denominator == 1 and cb.denominator == 1
    fa = face_in_direction(a, v, int(ca))
    fb = face_in_direction(b, v, int(cb))
    fsum = face_in_direction(minkowski_sum(a, b), v, int(ca + cb))
    assert fsum == minkowski_sum(fa, fb)


@given(fan_with_divisor(lo=-3, hi=4))
@settings(max_examples=150, deadline=None)
@example((generate_family("f2"), TorusDivisor((-2, -1, -1, 2))))  # rational vertex
@example((blowup(generate_family("p2"), 1), TorusDivisor((-2, -2, 1, 2))))  # segment
def test_face_in_direction_is_the_polygon_on_the_line(fan_divisor):
    fan, d = fan_divisor
    poly = polygon_of(fan, d)
    pts = lattice_points(poly)
    for v, a in zip(fan.rays, d.coeffs):
        tight = a if poly.is_empty() else math.floor(-_support_min(poly, v))
        for c in range(tight - 2, tight + 3):
            face = face_in_direction(poly, v, c)
            assert face.dim is not PolygonDim.POLYGON
            assert lattice_points(face) == [p for p in pts if p.dot(v) == -c]
            for q in face.vrep:
                assert v.x * q.x_num + v.y * q.y_num == -c * q.den
                assert poly.contains(q)


@given(
    st.integers(-40, 40), st.integers(1, 6), st.integers(0, 30),
    st.integers(-20, 20), st.integers(0, 15), st.data(),
)
@settings(max_examples=200, deadline=None)
def test_decompose_interval_contract(num, den, width, a2, w2, data):
    a1 = Fraction(num, den)
    b1 = a1 + Fraction(width, den)
    assume(math.ceil(a1) <= math.floor(b1))
    b2 = a2 + w2
    z = data.draw(st.integers(math.ceil(a1 + a2), math.floor(b1 + b2)))
    c1, c2 = decompose_interval((a1, b1), (a2, b2), z)
    assert c1 + c2 == z
    assert a1 <= c1 <= b1 and a2 <= c2 <= b2
    assert c1 == min(c for c in range(math.ceil(a1), math.floor(b1) + 1) if a2 <= z - c <= b2)


@given(fans())
@settings(max_examples=60, deadline=None)
def test_generated_fans_are_smooth_and_complete(fan):
    n = fan.n
    assert n >= 3
    for i in range(n):
        assert fan.rays[i].cross(fan.rays[(i + 1) % n]) == 1


@given(fan_with_divisor())
@settings(max_examples=80, deadline=None)
def test_h0_invariant_under_linear_equivalence(fan_divisor):
    fan, d = fan_divisor
    for m in (V(1, 0), V(-1, 2)):
        shifted = TorusDivisor(tuple(a + m.dot(v) for a, v in zip(d.coeffs, fan.rays)))
        assert h0(fan, shifted) == h0(fan, d)


@st.composite
def fan_with_corner_divisor(draw):
    # P2, P1xP1, F_a and their random blowups up to 12 rays, sheared so that
    # (1, 0) need not be a ray; coefficients in [-8, 12], or the rounding of
    # such a divisor, which takes the corner route
    fan = generate_family(draw(st.sampled_from(["p2", "p1xp1", "f0", "f1", "f2", "f3", "f5"])))
    for _ in range(draw(st.integers(min_value=0, max_value=12 - fan.n))):
        fan = blowup(fan, draw(st.integers(min_value=1, max_value=fan.n)))
    k = draw(st.integers(min_value=-2, max_value=2))
    fan = validate_fan([(v.x, v.y + k * v.x) for v in fan.rays])
    d = TorusDivisor(tuple(draw(st.integers(-8, 12)) for _ in range(fan.n)))
    if draw(st.booleans()) and h0(fan, d) > 0:
        d = reduce_to_globally_generated(fan, d).reduced
    return fan, d


@given(fan_with_corner_divisor())
@settings(max_examples=300, deadline=None)
@example((generate_family("p2"), TorusDivisor((0, 0, 0))))  # a point
@example((generate_family("p1xp1"), TorusDivisor((1, 0, 0, 0))))  # a segment
@example((validate_fan([(1, 1), (-1, 0), (0, -1)]), TorusDivisor((0, 0, 1))))  # starts at m_2
def test_polygon_of_matches_halfplane_intersection(fan_divisor):
    fan, d = fan_divisor
    _polygon_of_cached.cache_clear()
    with patch("toricmult.surface.intersect_halfplanes", wraps=intersect_halfplanes) as general:
        poly = polygon_of(fan, d)
    # the corner route takes exactly the globally generated divisors
    assert (general.call_count == 0) == classify(fan, d).is_globally_generated()
    planes = [HalfPlane(v, a) for v, a in zip(fan.rays, d.coeffs)]
    reference = intersect_halfplanes(planes)
    assert (poly.vrep, poly.dim) == (reference.vrep, reference.dim)


@given(fan_with_corner_divisor())
@settings(max_examples=300, deadline=None)
@example((generate_family("f2"), TorusDivisor((0, 1, 0, 0))))  # effective only
@example((generate_family("f2"), TorusDivisor((-1, 0, 0, 0))))  # no sections
def test_corner_box_holds_the_polygon_of_every_divisor(fan_divisor):
    # <u, w> >= <m_i, w> on P_d for each w in cone(v_i, v_{i+1}), so the box of the
    # corners holds P_d, globally generated or not, and is P_d's own box when the
    # corners are its vertices
    fan, d = fan_divisor
    rec = _record(fan, d)
    x0, y0, x1, y1 = rec.box
    assert all(x0 <= v.x <= x1 and y0 <= v.y <= y1 for v in polygon_of(fan, d).vrep)
    assert all(x0 <= x <= x1 and y0 <= lo <= hi <= y1 for x, lo, hi in rec.columns())
    if rec.least >= 0:  # the ring is P_d's own, not only its moving part's
        xs, ys = zip(*rec.ring)
        assert rec.box == (min(xs), min(ys), max(xs), max(ys))


@st.composite
def fan_with_gg_divisor(draw):
    # fan_with_corner_divisor's fans, the divisor rounded: every kind of edge of
    # a globally generated polygon, whose reductions are triangles or segments
    fan, d = draw(fan_with_corner_divisor())
    assume(h0(fan, d) > 0)
    return fan, reduce_to_globally_generated(fan, d).reduced


def _triangle_reduce_reference(fan, e, j):
    """triangle_reduce's answer on sigma_{j+1} by the rational route, or None when
    that edge is a point: the ends by face_in_direction, the triangle by
    intersect_halfplanes on (rays, c), and the legs in the basis dual to the rays
    whose lines hold the triangle's two edges at its third vertex."""
    face = face_in_direction(polygon_of(fan, e), fan.rays[j], e.coeffs[j])
    if face.dim is not PolygonDim.SEGMENT:
        return None
    m1, m2 = face.lattice_vertices()
    c = tuple(max(-m1.dot(v), -m2.dot(v)) for v in fan.rays)
    triangle = intersect_halfplanes([HalfPlane(v, ci) for v, ci in zip(fan.rays, c)])
    legs = corner = None
    if triangle.dim is PolygonDim.POLYGON:
        verts = triangle.lattice_vertices()
        (t,) = [w for w in verts if w not in (m1, m2)]
        i = verts.index(t)
        before, after = verts[i - 1], verts[(i + 1) % 3]

        def ray_of(d):  # the inward normal of the CCW edge d, a ray of the fan
            g = math.gcd(d.x, d.y)
            return fan.rays.index(V(-d.y // g, d.x // g))

        k = ray_of(t - before)
        assert ray_of(after - t) == (k + 1) % fan.n
        legs, corner = (fan.rays[k].dot(after - t), fan.ray(k + 1).dot(before - t)), k + 1
    return (m1, m2), c, triangle, legs, corner


@given(fan_with_gg_divisor())
@settings(max_examples=300, deadline=None)
@example((generate_family("f2"), TorusDivisor((1, 1, 1, 1))))  # a triangle and a segment
@example((generate_family("p1xp1"), TorusDivisor((1, 0, 0, 0))))  # P_e a segment
@example((generate_family("p2"), TorusDivisor((0, 0, 0))))  # P_e a point
def test_triangle_reduce_matches_the_rational_route(fan_divisor):
    fan, e = fan_divisor
    for j in range(fan.n):
        reference = _triangle_reduce_reference(fan, e, j)
        if reference is None:
            with pytest.raises(PreconditionError, match=f"sigma_{j + 1} is not a nondegenerate"):
                triangle_reduce(fan, e, RationalPoint(0, 0), j + 1)
            continue
        (m1, m2), *_ = reference
        red = triangle_reduce(fan, e, RationalPoint(m1.x + m2.x, m1.y + m2.y, 2), j + 1)
        got = red.sigma_endpoints, red.c, red.triangle, red.legs, red.corner_ray_index
        assert got == reference
        off_line = RationalPoint(m1.x + m2.x + fan.rays[j].x, m1.y + m2.y + fan.rays[j].y, 2)
        for q in (RationalPoint.from_lattice(m1), RationalPoint.from_lattice(m2), off_line):
            with pytest.raises(PreconditionError, match="is not interior to edge"):
                triangle_reduce(fan, e, q, j + 1)


@st.composite
def fan_with_two_gg(draw, blowups=2):
    # rounding any effective divisor yields a globally generated one, so gg
    # instances can be built constructively instead of by filtering
    fan = draw(fans(blowups))

    def gg_divisor():
        coeffs = tuple(draw(st.integers(0, 4)) for _ in range(fan.n))
        return reduce_to_globally_generated(fan, TorusDivisor(coeffs)).reduced

    return fan, gg_divisor(), gg_divisor()


@given(fan_with_two_gg())
@settings(max_examples=60, deadline=None)
def test_polygon_of_sum_is_minkowski_for_gg(fde):
    fan, d, e = fde
    assert classify(fan, d).is_globally_generated()
    assert classify(fan, e).is_globally_generated()
    assert polygon_of(fan, d + e) == minkowski_sum(polygon_of(fan, d), polygon_of(fan, e))


@given(fan_with_two_gg(blowups=9))
@settings(max_examples=60, deadline=None)
def test_cached_records_give_the_answers_of_fresh_ones(fde):
    # fans of up to 12 rays; the structured route when D is ample, else the oracle
    fan, d, e = fde
    mode = "both" if classify(fan, d) is PositivityClass.AMPLE else "brute"

    def answers():
        report = check_surjectivity(fan, d, e, mode=mode)
        return report.spans, report.path_counts

    _polygon_of_cached.cache_clear()
    cold = answers()
    _polygon_of_cached.cache_clear()
    cold_cokernel = cokernel_dim(fan, d, e)
    assert answers() == cold and cokernel_dim(fan, d, e) == cold_cokernel  # warm
    for x in (d, e, d + e):
        table = _record(fan, x)._table  # the entry as the runs left it
        assert table is None or table == _column_table(polygon_of(fan, x))


@given(fan_with_divisor())
@settings(max_examples=100, deadline=None)
def test_reduction_contract(fan_divisor):
    fan, d = fan_divisor
    pts = lattice_points(polygon_of(fan, d))
    assume(pts)
    res = reduce_to_globally_generated(fan, d)
    assert all(0 <= b <= a for a, b in zip(d.coeffs, res.reduced.coeffs))
    assert classify(fan, res.reduced).is_globally_generated()
    assert lattice_points(polygon_of(fan, res.reduced)) == pts
    assert polygon_of(fan, res.reduced) == res.hull_polygon
    assert reduce_to_globally_generated(fan, res.reduced).reduced == res.reduced


def _rounded(fan, cols):
    """The reference rounding by a column sweep: each coefficient to max -<s, v>
    over the sections s of the polygon with the columns (x, lo, hi); along a
    column -<s, v> is linear in y, so its maximum sits at one end."""
    return tuple(
        max(-(vx * x + vy * (lo if vy > 0 else hi)) for x, lo, hi in cols) for vx, vy in fan.xy
    )


@st.composite
def fan_with_effective_divisor(draw):
    # P2, P1xP1, F_a and their random blowups up to 12 rays, sheared; an effective
    # divisor with coefficients in 0..9, moved by a character m in [-3, 3]^2 to a
    # linearly equivalent one, so it has sections and may have negative entries
    fan = generate_family(draw(st.sampled_from(["p2", "p1xp1", "f1", "f2", "f3", "f5"])))
    for _ in range(draw(st.integers(min_value=0, max_value=12 - fan.n))):
        fan = blowup(fan, draw(st.integers(min_value=1, max_value=fan.n)))
    k = draw(st.integers(min_value=-2, max_value=2))
    fan = validate_fan([(v.x, v.y + k * v.x) for v in fan.rays])
    m = V(draw(st.integers(-3, 3)), draw(st.integers(-3, 3)))
    return fan, TorusDivisor(tuple(draw(st.integers(0, 9)) + m.dot(v) for v in fan.rays))


@given(fan_with_effective_divisor())
@settings(max_examples=300, deadline=None)
@example((generate_family("f2"), TorusDivisor((0, 1, 0, 0))))
@example(  # P_d is one point; the rule takes its most rounds seen here
    (
        validate_fan(
            [(1, 0), (0, 1), (-1, 1), (-3, 2), (-8, 5), (-21, 13), (-34, 21), (-13, 8),
             (-5, 3), (-2, 1), (-1, 0), (-1, -1)]
        ),
        TorusDivisor((10**6, -(10**6)) + (0,) * 10),
    )
)
def test_rounding_by_fixed_components_matches_the_column_sweep(fan_divisor):
    fan, d = fan_divisor
    cols = list(_columns(polygon_of(fan, d)))
    assert cols
    res = reduce_to_globally_generated(fan, d)
    assert res.reduced.coeffs == _rounded(fan, cols)
    # P_d and P_d' have the same lattice points: d's record reads its columns off
    # the ring of d', and they are those of the rational polygon
    assert list(_record(fan, d).columns()) == cols
    assert edge_lattice_report(fan, res) == [
        (j, pick_count(face_in_direction(res.hull_polygon, fan.rays[j - 1], b)))
        for j, b in enumerate(res.reduced.coeffs, start=1)
        if j in res.J
    ]


@st.composite
def fan_with_divisor_near_its_sections(draw):
    # fan_with_effective_divisor's divisors lowered by 0..4 on each ray: some keep
    # their sections and some lose them, to either stop of the rounding (a nef
    # curve met negatively, or a coefficient below the corner box)
    fan, d = draw(fan_with_effective_divisor())
    return fan, TorusDivisor(tuple(a - draw(st.integers(0, 4)) for a in d.coeffs))


def _walked_h0(fan, d):
    """The reference count: the columns of the rational polygon, walked one by one."""
    return sum(hi - lo + 1 for _, lo, hi in _columns(polygon_of(fan, d)))


@given(st.one_of(fan_with_corner_divisor(), fan_with_divisor_near_its_sections()))
@settings(max_examples=300, deadline=None)
@example((generate_family("f2"), TorusDivisor((0, 1, 0, 0))))  # a point, not nef
@example((generate_family("p1xp1"), TorusDivisor((1, 0, 0, 0))))  # a segment
@example((generate_family("f2"), TorusDivisor((-1, 0, 0, 0))))  # no sections
def test_h0_by_pick_matches_the_column_walk(fan_divisor):
    fan, d = fan_divisor
    assert h0(fan, d) == _walked_h0(fan, d)


@given(st.one_of(fan_with_corner_divisor(), fan_with_divisor_near_its_sections()))
@settings(max_examples=300, deadline=None)
@example((generate_family("f2"), TorusDivisor((-1, 0, 0, 0))))  # C_1 is nef on F2
@example((generate_family("p2"), TorusDivisor((0, 0, -1))))
def test_no_sections_decided_in_integers_matches_the_rational_polygon(fan_divisor):
    fan, d = fan_divisor
    none = next(_columns(polygon_of(fan, d)), None) is None
    assert (classify(fan, d) is PositivityClass.NO_SECTIONS) == none
    assert (_record(fan, d).moving is None) == none


@st.composite
def fan_with_two_divisors(draw, lo=0, hi=4, shift=0):
    # a_i = c_i - <m, v_i> translates the polygon of c by m; with c effective
    # this reaches every divisor with sections, negative coefficients included
    fan = draw(fans())
    shifts = st.integers(-shift, shift)

    def divisor():
        mx, my = draw(shifts), draw(shifts)
        return TorusDivisor(
            tuple(draw(st.integers(lo, hi)) - v.x * mx - v.y * my for v in fan.rays)
        )

    return fan, divisor(), divisor()


@given(fan_with_two_divisors(hi=3))
@settings(max_examples=50, deadline=None)
def test_cokernel_symmetric_and_matches_bruteforce(fde):
    fan, d, e = fde
    report = cokernel_dim(fan, d, e)
    flipped = cokernel_dim(fan, e, d)
    assert report.coker_dim == flipped.coker_dim
    assert report.missing_points == flipped.missing_points
    p_d, p_e = polygon_of(fan, d), polygon_of(fan, e)
    for p in report.missing_points[:5]:
        assert decompose_bruteforce(p_d, p_e, p) is None


def _sections(fan, d):
    # the lattice points of the bounding box on the right side of every ray's line
    vrep = polygon_of(fan, d).vrep
    if not vrep:
        return set()
    xs, ys = [v.x for v in vrep], [v.y for v in vrep]
    return {
        (x, y)
        for x in range(math.floor(min(xs)), math.ceil(max(xs)) + 1)
        for y in range(math.floor(min(ys)), math.ceil(max(ys)) + 1)
        if all(v.x * x + v.y * y >= -a for v, a in zip(fan.rays, d.coeffs))
    }


@given(fan_with_two_divisors(hi=6, shift=3))
@settings(max_examples=150, deadline=None)
def test_cokernel_matches_explicit_pairwise_sums(fde):
    # column intervals against the set of every pairwise sum, on divisors
    # with negative coefficients and rational vertices
    fan, d, e = fde
    s_d, s_e, total = _sections(fan, d), _sections(fan, e), _sections(fan, d + e)
    assert s_d and s_e
    sumset = {(x1 + x2, y1 + y2) for x1, y1 in s_d for x2, y2 in s_e}
    assert sumset <= total
    missing = tuple(LatticeVector(x, y) for x, y in sorted(total - sumset))
    for (a, b), (s_a, s_b) in (((d, e), (s_d, s_e)), ((e, d), (s_e, s_d))):
        report = cokernel_dim(fan, a, b)
        assert (report.h0_D, report.h0_E, report.h0_sum) == (len(s_a), len(s_b), len(total))
        assert report.sumset_size == len(sumset)
        assert report.coker_dim == len(missing)
        assert report.missing_points == missing


@st.composite
def ample_on(draw, fan):
    # built, not filtered: random coefficients are rarely ample on blown-up
    # fans, and filtering for them trips Hypothesis's filter health check.
    # D is ample iff its polygon has an edge of lattice length l_i >= 1 with
    # inner normal v_i for every ray, and such lengths close up iff
    # sum l_i v_i = 0.
    rays, n = fan.rays, fan.n
    lengths = [draw(st.integers(1, 3)) for _ in range(n)]
    sx = -sum(l * v.x for l, v in zip(lengths, rays))
    sy = -sum(l * v.y for l, v in zip(lengths, rays))
    for k in range(n):  # (sx, sy) lies in a cone of two consecutive rays, a lattice basis
        a, b = rays[k], fan.ray(k + 1)
        alpha, beta = sx * b.y - sy * b.x, a.x * sy - a.y * sx
        if alpha >= 0 and beta >= 0:
            lengths[k] += alpha
            lengths[(k + 1) % n] += beta
            break
    x = y = 0
    corners = []
    for l, v in zip(lengths, rays):  # the edge with inner normal v runs along (v.y, -v.x)
        x, y = x + l * v.y, y - l * v.x
        corners.append((x, y))
    return TorusDivisor(tuple(max(-(v.x * cx + v.y * cy) for cx, cy in corners) for v in rays))


def _classify_reference(fan, d):
    """Positivity by the support-value definition: every offset a_i is the
    minimum of <u, v_i> over the polygon, the vertices are lattice points,
    and for ample each ray's face is an edge."""
    poly = polygon_of(fan, d)
    if poly.is_empty():
        return PositivityClass.NO_SECTIONS
    tight = all(_support_min(poly, v) == -a for v, a in zip(fan.rays, d.coeffs))
    if tight and poly.has_lattice_vertices():
        faces = [face_in_direction(poly, v, a) for v, a in zip(fan.rays, d.coeffs)]
        if all(f.dim is PolygonDim.SEGMENT for f in faces):
            return PositivityClass.AMPLE
        return PositivityClass.GLOBALLY_GENERATED_NOT_AMPLE
    if lattice_points(poly):
        return PositivityClass.EFFECTIVE_SECTIONS_ONLY
    return PositivityClass.NO_SECTIONS


@st.composite
def translated_divisor(draw):
    # a random divisor (rational vertices, no sections), a reduced one
    # (globally generated) or an ample one, translated by m: a_i - <m, v_i>
    fan = draw(fans())
    kind = draw(st.sampled_from(["random", "reduced", "ample"]))
    if kind == "ample":
        coeffs = draw(ample_on(fan)).coeffs
    else:
        coeffs = tuple(draw(st.integers(-3, 5)) for _ in fan.rays)
        if kind == "reduced":
            coeffs = tuple(max(a, 0) for a in coeffs)
            coeffs = reduce_to_globally_generated(fan, TorusDivisor(coeffs)).reduced.coeffs
    mx, my = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
    return fan, TorusDivisor(tuple(a - v.x * mx - v.y * my for a, v in zip(coeffs, fan.rays)))


@given(translated_divisor())
@settings(max_examples=300, deadline=None)
def test_classify_by_vertex_incidence_matches_support_definition(fd):
    fan, d = fd
    assert classify(fan, d) is _classify_reference(fan, d)


@st.composite
def ample_with_gg(draw):
    fan = draw(fans())
    d = draw(ample_on(fan))
    effective = TorusDivisor(tuple(draw(st.integers(0, 4)) for _ in fan.rays))
    return fan, d, reduce_to_globally_generated(fan, effective).reduced


@given(ample_with_gg())
@settings(max_examples=60, deadline=None)
def test_ample_times_gg_surjective_with_valid_witnesses(fde):
    # the paper's theorem, with every structured witness checked against
    # both factor polygons and the exhaustive oracle (mode "both")
    fan, d, e = fde
    assert classify(fan, d) is PositivityClass.AMPLE
    assert classify(fan, e).is_globally_generated()
    report = check_surjectivity(fan, d, e, mode="both")
    assert report.surjective
    assert [w.p for w in report.witnesses] == lattice_points(polygon_of(fan, d + e))
    p_d, p_e = polygon_of(fan, d), polygon_of(fan, e)
    for w in report.witnesses:
        assert w.q1 + w.q2 == w.p
        assert p_d.contains(w.q1) and p_e.contains(w.q2)


@given(ample_with_gg())
@settings(max_examples=60, deadline=None)
def test_expanded_spans_are_the_single_point_routes(fde):
    # a report keeps spans; expanded, they give each point the witness of the
    # single-point route (decompose_structured for mode "structured",
    # decompose_bruteforce for mode "brute"), and path_counts counts their paths
    fan, d, e = fde
    p_d, p_e = polygon_of(fan, d), polygon_of(fan, e)
    routes = {
        "structured": lambda p: decompose_structured(fan, d, e, p),
        "brute": lambda p: decompose_bruteforce(p_d, p_e, p),
    }
    for mode, single in routes.items():
        report = check_surjectivity(fan, d, e, mode=mode)
        witnesses = report.witnesses
        assert report.decomposed == len(witnesses) == report.total_points
        assert list(witnesses) == [single(w.p) for w in witnesses]
        assert report.path_counts == Counter(w.path for w in witnesses)
        assert report.structured_fallbacks == report.path_counts[DecompositionPath.FALLBACK_SEARCH]


@st.composite
def ample_with_translated_effective(draw):
    # E = c - <m, .> with c effective translates P_c by m, so E has sections
    fan = draw(fans())
    mx, my = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    e = TorusDivisor(tuple(draw(st.integers(0, 4)) - v.x * mx - v.y * my for v in fan.rays))
    return fan, draw(ample_on(fan)), e


@given(ample_with_translated_effective())
@settings(max_examples=60, deadline=None)
def test_cokernel_is_the_collar_of_the_reduction(fle):
    # the generalization to any E with sections: L ample x E misses exactly
    # the lattice points of P_{L+E} outside P_{L+E'}, E' the reduction of E
    fan, l, e = fle
    reduced = reduce_to_globally_generated(fan, e).reduced
    total, inner = _sections(fan, l + e), _sections(fan, l + reduced)
    sumset = {(x1 + x2, y1 + y2) for x1, y1 in _sections(fan, l) for x2, y2 in _sections(fan, e)}
    assert total - inner == total - sumset


def _collar_points(cols_sum, inner):
    """The collar as the sweep checked it before it compared intervals: every
    lattice point of the columns (x, lo, hi) outside the column table inner."""
    collar = []
    for x, lo, hi in cols_sum:
        ilo, ihi = inner.get(x, (hi + 1, hi))
        collar += [(x, y) for y in range(lo, min(hi, ilo - 1) + 1)]
        collar += [(x, y) for y in range(max(lo, ihi + 1), hi + 1)]
    return collar


def _intervals(points):
    """Lattice points as maximal column intervals (x, y0, y1) in (x, y) order."""
    out = []
    for x, y in sorted(points):
        if out and out[-1][0] == x and out[-1][2] == y - 1:
            out[-1] = (x, out[-1][1], y)
        else:
            out.append((x, y, y))
    return out


@st.composite
def ample_with_any_effective(draw):
    # E: a globally generated divisor whose facets on negative curves (rays with
    # v_{i-1} + v_{i+1} = c v_i, c > 0) are pushed out by 0..3, then translated.
    # Such a facet gains few lattice points or none, so E is often not globally
    # generated, and a column of P_{L+E} can hold collar points both below and
    # above P_{L+E'}.  The last entry picks a lattice point of P_{L+E} (-1: none).
    fan = draw(fans())
    if fan.n < 6:  # a blowup adds a negative curve
        fan = blowup(fan, draw(st.integers(min_value=1, max_value=fan.n)))
    start = TorusDivisor(tuple(draw(st.integers(0, 4)) for _ in range(fan.n)))
    gg = reduce_to_globally_generated(fan, start).reduced.coeffs
    mx, my = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
    e = []
    for i, (v, a) in enumerate(zip(fan.rays, gg)):
        if (fan.ray(i - 1) + fan.ray(i + 1)).dot(v) > 0:
            a += draw(st.integers(0, 3))
        e.append(a - v.x * mx - v.y * my)
    return fan, draw(ample_on(fan)), TorusDivisor(tuple(e)), draw(st.integers(-1, 200))


#: P2 blown up twice, L = (1,0,1,2,2), E = (2,5,1,-2,1): column -3 of P_{L+E} has
#: collar points below P_{L+E'} (y = -2..-1) and above it (y = 3)
_TWO_INTERVALS = (
    validate_fan([(1, 0), (1, 1), (0, 1), (-1, -1), (0, -1)]),
    TorusDivisor((1, 0, 1, 2, 2)),
    TorusDivisor((2, 5, 1, -2, 1)),
)


@given(ample_with_any_effective())
@settings(max_examples=150, deadline=None)
@example((*_TWO_INTERVALS, -1))
@example((*_TWO_INTERVALS, 5))  # (-3, 3): the upper collar interval of column -3 drops
@example((*_TWO_INTERVALS, 3))  # (-3, 1): a point of P_{L+E'} goes missing
@example(  # column -3 holds collar points at y = -4 and y = 1
    (
        validate_fan([(1, 0), (0, 1), (-1, 3), (0, -1), (1, -1)]),
        TorusDivisor((0, 1, 5, 1, 0)),
        TorusDivisor((3, 3, 4, 0, 4)),
        -1,
    )
)
def test_interval_collar_check_accepts_as_the_per_point_check(flet):
    # toggle one lattice point of P_{L+E} in or out of the cokernel: the sweep's
    # interval check must reject exactly when the old per-point comparison does
    fan, l, e, toggle = flet
    reduced = reduce_to_globally_generated(fan, e).reduced
    cols_sum = list(_columns(polygon_of(fan, l + e)))
    inner = _column_table(polygon_of(fan, l + reduced))
    collar = _collar_points(cols_sum, inner)
    assert collar == [] or reduced != e  # E' = E: the skipped collar is empty
    assert _collar(cols_sum, inner) == _intervals(collar)
    missing = {p.as_tuple() for p in cokernel_dim(fan, l, e).missing_points}
    points = [(x, y) for x, lo, hi in cols_sum for y in range(lo, hi + 1)]
    if 0 <= toggle < len(points):
        missing ^= {points[toggle]}
    _sweep_worker_init(fan, l)
    with patch(
        "toricmult.reduction._cokernel_gaps", return_value=(len(points), _intervals(missing))
    ):
        try:
            _sweep_instance(e.coeffs)
            accepted = True
        except TheoremViolationError:
            accepted = False
    assert accepted == (sorted(missing) == collar)


@given(ample_with_any_effective())
@settings(max_examples=40, deadline=None)
@example((*_TWO_INTERVALS, -1))
def test_sweep_reports_are_cokernel_dim_reports(flet):
    # the family that runs E's smallest positive entry a_j over 1..a_j
    fan, l, e, _ = flet
    assume(max(e.coeffs) >= 1)
    j = min((a, i) for i, a in enumerate(e.coeffs) if a >= 1)[1]
    pattern = ",".join("k" if i == j else str(a) for i, a in enumerate(e.coeffs))
    sweep = sweep_cokernel(fan, l, e_max=e.coeffs[j], filter_pattern=pattern)
    assert sweep.instances[-1][0] == e and len(sweep.reports) == len(sweep.instances)
    for (e_k, coker), report in zip(sweep.instances, sweep.reports):
        assert report == cokernel_dim(fan, l, e_k)
        assert coker == report.coker_dim


@given(ample_with_gg())
@settings(max_examples=60, deadline=None)
def test_route_tie_breaks_match_literal_scans(fde):
    # mode "structured" against a reference written here: (a) the first vertex u
    # of P_D, sorted, with p - u in P_E; else (b) the first vertex w of P_E, in
    # ring order, with p - w in P_D, else the first edge of P_E and on it the
    # smallest interior k, scanning its lattice points; modes "brute" and "both"
    # against the smallest q1 of the literal pairwise scan
    fan, d, e = fde
    p_d, p_e = polygon_of(fan, d), polygon_of(fan, e)
    pts_d, pts_e = lattice_points(p_d), lattice_points(p_e)
    verts = p_e.lattice_vertices()  # a segment is one edge, a point none
    edges = zip(verts, verts[1:] + verts[:1]) if len(verts) > 2 else zip(verts, verts[1:])
    boundary = list(verts)
    for m, m_next in edges:
        t = m_next - m
        on_edge = [q for q in pts_e if (q - m).cross(t) == 0 and 0 < (q - m).dot(t) < t.dot(t)]
        boundary += sorted(on_edge, key=lambda q: (q - m).dot(t))
    report = check_surjectivity(fan, d, e, mode="structured")
    assert [w.p for w in report.witnesses] == lattice_points(polygon_of(fan, d + e))
    for w in report.witnesses:
        p = w.p
        u = next((u for u in sorted(p_d.lattice_vertices()) if p - u in pts_e), None)
        q2 = next((q for q in boundary if p - q in pts_d), None)
        if u is not None:
            assert (w.q1, w.q2, w.path.value) == (u, p - u, "interior_vertex")
        elif q2 is not None:
            assert (w.q1, w.q2, w.path.value) == (p - q2, q2, "boundary_lattice")
        else:
            assert w.path.value not in ("interior_vertex", "boundary_lattice")
    smallest = {}
    for q1 in pts_d:  # ascending
        for q2 in pts_e:
            smallest.setdefault(q1 + q2, q1)
    brute = check_surjectivity(fan, d, e, mode="brute")
    assert [(w.p, w.q1, w.q2) for w in brute.witnesses] == [
        (p, q1, p - q1) for p, q1 in sorted(smallest.items())
    ]
    assert check_surjectivity(fan, d, e, mode="both") == report



@given(ample_with_gg())
@settings(max_examples=60, deadline=None)
def test_step_c_tie_breaks_match_literal_scans(fde):
    # steps (a) and (b) finding nothing, mode "structured" against a reference
    # written here: per point, the corner triangles T of the edges of P_E in fan
    # order, each with legs on rays k+1 (A) and k (B): the first lattice point q2
    # of leg A, from the edge's end to the corner, with p - q2 in P_D; else the
    # same on leg B; else any q2 in T (C); after the last T, the smallest q1 of the
    # literal pairwise scan (d)
    fan, d, e = fde
    p_d, p_e = polygon_of(fan, d), polygon_of(fan, e)
    pts_d, pts_e = lattice_points(p_d), lattice_points(p_e)
    in_d = set(pts_d)
    verts = p_e.lattice_vertices()
    triangles = []
    for j, (v, a) in enumerate(zip(fan.rays, e.coeffs)):
        ends = [m for m in verts if v.dot(m) == -a]
        if len(verts) < 3 or len(ends) != 2:
            continue
        mid = RationalPoint(ends[0].x + ends[1].x, ends[0].y + ends[1].y, 2)
        red = triangle_reduce(fan, e, mid, j + 1)
        if red.legs is None:
            continue
        k, tri = red.corner_ray_index - 1, lattice_points(red.triangle)
        legs = []
        for i in ((k + 1) % fan.n, k):
            w, c = fan.rays[i], red.c[i]
            (end,) = [m for m in ends if w.dot(m) == -c]
            on_leg = [q for q in tri if w.dot(q) == -c]
            legs.append(sorted(on_leg, key=lambda q: (q - end).dot(q - end)))
        triangles.append((legs, tri))
    smallest = {}
    for q1 in pts_d:  # ascending
        for q2 in pts_e:
            smallest.setdefault(q1 + q2, q1)
    init = _StructuredContext.__init__

    def bare(self, *args):
        init(self, *args)
        self.d_vertices, self.boundary = [], []

    with patch.object(_StructuredContext, "__init__", bare):
        report = check_surjectivity(fan, d, e, mode="structured")
    assert [w.p for w in report.witnesses] == lattice_points(polygon_of(fan, d + e))
    for w in report.witnesses:
        p, expected = w.p, None
        for (leg_a, leg_b), tri in triangles:
            for path, leg in (("triangle_region_A", leg_a), ("triangle_region_B", leg_b)):
                q2 = next((q for q in leg if p - q in in_d), None)
                if q2 is not None:
                    expected = (p - q2, q2, path)
                    break
            else:
                if any(p - q in in_d for q in tri):
                    assert w.path.value == "triangle_region_C"
                    expected = (w.q1, w.q2, w.path.value)
                    assert w.q2 in tri and w.q1 in in_d
            if expected is not None:
                break
        else:
            expected = (smallest[p], p - smallest[p], "fallback_search")
        assert (w.q1, w.q2, w.path.value) == expected


# -- kernels against their references -------------------------------------------


def _per_constraint_columns(poly, planes=None):
    """The column sweep that evaluates every constraint a x + b y >= num at each x:
    the (normal, offset) planes that cut the region out when given, else the
    edges of vrep (a segment adds its two ends, a point four axis bounds)."""
    if poly.is_empty():
        return []
    hom = [(p.x_num, p.y_num, p.den) for p in poly.vrep]
    if planes is not None:
        cons = [(n.x, -offset, n.y) for n, offset in planes]
    elif len(hom) == 1:
        (x, y, w), = hom
        cons = [(w, x, 0), (-w, -x, 0), (0, y, w), (0, -y, -w)]
    else:
        cons = []
        for (px, py, pw), (qx, qy, qw) in zip(hom, hom[1:] + hom[: len(hom) > 2]):
            dx, dy = qx * pw - px * qw, qy * pw - py * qw
            cons.append((-dy * pw, dx * py - dy * px, dx * pw))
            if len(hom) == 2:
                cons.append((dy * pw, dy * px - dx * py, -dx * pw))
                cons.append((dx * pw, dx * px + dy * py, dy * pw))
                cons.append((-dx * qw, -dx * qx - dy * qy, -dy * qw))
    xmin = min(math.ceil(Fraction(x, w)) for x, _, w in hom)
    xmax = max(math.floor(Fraction(x, w)) for x, _, w in hom)
    out = []
    for x in range(xmin, xmax + 1):
        ylo, yhi, inside = -math.inf, math.inf, True
        for a, num, b in cons:
            rhs = num - a * x  # b y >= rhs
            if b == 0:
                inside = inside and rhs <= 0
            elif b > 0:
                ylo = max(ylo, -(-rhs // b))
            else:
                yhi = min(yhi, rhs // b)
        if inside and ylo <= yhi:
            out.append((x, ylo, yhi))
    return out


@st.composite
def halfplane_regions(draw):
    # rational vertices, redundant planes, empty regions too; with the drawn
    # planes as (normal, offset) pairs
    planes = [HalfPlane(V(*n), 12) for n in ((1, 0), (0, 1), (-1, 0), (0, -1))]
    for _ in range(draw(st.integers(0, 5))):
        nx, ny = draw(st.integers(-5, 5)), draw(st.integers(-5, 5))
        assume(math.gcd(nx, ny) == 1)
        planes.append(HalfPlane(V(nx, ny), draw(st.integers(-10, 30))))
    return intersect_halfplanes(planes), [(h.normal, h.offset) for h in planes]


@st.composite
def thin_polygons(draw):
    # conv{a, a + d, a + d + (0, k)}: steep thin triangles with empty columns
    ax, ay = draw(coords), draw(coords)
    dx, dy, k = draw(st.integers(1, 9)), draw(st.integers(-9, 9)), draw(st.integers(0, 2))
    return hull([V(ax, ay), V(ax + dx, ay + dy), V(ax + dx, ay + dy + k)])


def _no_planes(poly):
    return poly, None


def _divisor_planes(fan_divisor):
    fan, d = fan_divisor
    return polygon_of(fan, d), list(zip(fan.rays, d.coeffs))


column_regions = st.one_of(
    st.one_of(lattice_polys, rational_regions, thin_polygons()).map(_no_planes),
    halfplane_regions(),
    fan_with_divisor(lo=-3, hi=4).map(_divisor_planes),
)


@given(column_regions)
@settings(max_examples=500, deadline=None)
@example(_no_planes(hull([V(0, 0), V(3, 1), V(3, 2)])))  # column 1 holds no lattice point
@example(_no_planes(hull([V(2, -1), V(2, 3)])))  # an upright segment
@example(_no_planes(ConvexLatticePolygon._from_hom_vertices([(3, -1, 2)])))  # a rational point
@example(_no_planes(ConvexLatticePolygon._from_hom_vertices([(1, 1, 3), (11, 5, 3)])))  # a segment
def test_columns_match_the_per_constraint_sweep(poly_planes):
    poly, planes = poly_planes
    assert list(_columns(poly)) == _per_constraint_columns(poly, planes)


def _classify_by_vertex_incidence(fan, d):
    """Globally generated iff every ray's line holds a lattice vertex of the
    polygon, ample iff each holds two; otherwise sections iff a lattice point."""
    poly = polygon_of(fan, d)
    verts = [(p.x_num, p.y_num) for p in poly.vrep if p.den == 1]
    least = min(sum(v.x * x + v.y * y == -a for x, y in verts) for v, a in zip(fan.rays, d.coeffs))
    if least >= 1:
        return PositivityClass.AMPLE if least == 2 else PositivityClass.GLOBALLY_GENERATED_NOT_AMPLE
    if lattice_points(poly):
        return PositivityClass.EFFECTIVE_SECTIONS_ONLY
    return PositivityClass.NO_SECTIONS


@given(fan_with_corner_divisor())
@settings(max_examples=400, deadline=None)
@example((generate_family("p2"), TorusDivisor((0, 0, 0))))
@example((generate_family("f2"), TorusDivisor((0, 1, 0, 0))))
@example((generate_family("f2"), TorusDivisor((-1, 0, 0, 0))))
def test_classify_by_edge_lengths_matches_vertex_incidence(fan_divisor):
    fan, d = fan_divisor
    assert classify(fan, d) is _classify_by_vertex_incidence(fan, d)


column_tables = st.dictionaries(
    st.integers(-4, 4), st.tuples(st.integers(-6, 6), st.integers(0, 3)), min_size=1, max_size=6
).map(lambda t: {x: (lo, lo + n) for x, (lo, n) in sorted(t.items())})


def _brute_sumset_column(table_a, table_b, x, below, above):
    """(lo, hi, gaps) of column x: the range the pairwise sums span, widened by
    below and above, and the maximal y-ranges in it that no pair covers."""
    sums = [
        (lo1 + table_b[x - x1][0], hi1 + table_b[x - x1][1])
        for x1, (lo1, hi1) in table_a.items()
        if x - x1 in table_b
    ]
    lo = min((a for a, _ in sums), default=0) - below
    hi = max((b for _, b in sums), default=0) + above
    covered = {y for a, b in sums for y in range(a, b + 1)}
    gaps = []
    for y in range(lo, hi + 1):
        if y in covered:
            continue
        if gaps and gaps[-1][1] == y - 1:
            gaps[-1] = (gaps[-1][0], y)
        else:
            gaps.append((y, y))
    return lo, hi, gaps


@given(column_tables, column_tables, st.integers(-8, 8), st.integers(0, 2), st.integers(0, 2))
@settings(max_examples=500, deadline=None)
@example({0: (0, 0), 1: (4, 4), 2: (1, 3)}, {0: (0, 0), 1: (0, 0), 2: (0, 0)}, 2, 0, 0)
# at x = 2 the keys fill 0..1 and 3..5, then 1..2 ends on the one gap's first y
@example({0: (0, 1), 1: (3, 5), 2: (1, 2)}, {0: (0, 0), 1: (0, 0), 2: (0, 0)}, 2, 0, 0)
# at x = 2 the keys fill 4..5 and 0..2, then 3..4 starts on the one gap's last y
@example({0: (4, 5), 1: (0, 2), 2: (3, 4)}, {0: (0, 0), 1: (0, 0), 2: (0, 0)}, 2, 0, 0)
def test_sumset_gaps_match_a_brute_union(table_a, table_b, x, below, above):
    # tables with holes and far-apart columns give intervals that leave gaps, so no
    # one pair holds the column and _cover walks it; a key whose interval only
    # touches the lowest or the highest gap must still cover that end
    lo, hi, gaps = _brute_sumset_column(table_a, table_b, x, below, above)
    assert _sumset_gaps(table_a, table_b)(x, lo, hi) == gaps
    assert _sumset_gaps(table_b, table_a)(x, lo, hi) == gaps


@given(column_tables, column_tables, st.integers(0, 2), st.integers(0, 2), st.randoms())
@settings(max_examples=300, deadline=None)
# conv{(0,0),(2,1),(3,2)} has no lattice point at x = 1
@example(_column_table(hull([V(0, 0), V(2, 1), V(3, 2)])), {0: (0, 1), 1: (0, 0)}, 0, 1,
         random.Random(0))
# the narrower table's columns 0 and 3 both meet only the sum's columns x = 3 and 4:
# column 3 is cut from x = 0..2 and column 0 from x = 5..7
@example({0: (0, 0), 3: (0, 2)}, {0: (0, 1), 1: (5, 5), 2: (0, 0), 3: (0, 0), 4: (1, 1)}, 1, 0,
         random.Random(1))
# the pair (0, 0) covers x = 0, and column 1 of the partner is missing at x = 1
@example({0: (0, 0)}, {0: (0, 0), 2: (0, 0)}, 0, 0, random.Random(2))
# the pair (0, 0) covers x = 0; at x = 1 the pair (0, 1) reaches only y = 0 and
# (1, 0) only y = 5, so 1..4 is a gap that the walk must report
@example({0: (0, 0), 1: (5, 5)}, {0: (0, 0), 1: (0, 0)}, 0, 0, random.Random(3))
def test_one_sumset_closure_serves_every_column(table_a, table_b, below, above, rng):
    # one closure per pair answers every column of the sum, in x order and shuffled,
    # so nothing a column leaves behind (the pair that covered it, which the next
    # column tries first) may change the next column's answer
    first, last = min(table_a) + min(table_b), max(table_a) + max(table_b)
    columns = [(x, *_brute_sumset_column(table_a, table_b, x, below, above))
               for x in range(first - 1, last + 2)]
    for gaps_of in (_sumset_gaps(table_a, table_b), _sumset_gaps(table_b, table_a)):
        assert [gaps_of(x, lo, hi) for x, lo, hi, _ in columns] == [g for *_, g in columns]
        shuffled = columns[:]
        rng.shuffle(shuffled)
        assert [gaps_of(x, lo, hi) for x, lo, hi, _ in shuffled] == [g for *_, g in shuffled]
