"""Core geometry: hulls, half-plane intersections, sums, counting, faces."""

from collections import Counter
from fractions import Fraction

import pytest

from toricmult.errors import (
    CoordinateOverflowError,
    DecompositionRangeError,
    EmptyInputError,
    NoIntegerInIntervalError,
    PreconditionError,
    UnboundedRegionError,
)
from toricmult.lattice import (
    ConvexLatticePolygon,
    HalfPlane,
    LatticeVector,
    PolygonDim,
    RationalPoint,
    _columns,
    decompose_interval,
    face_in_direction,
    hull,
    intersect_halfplanes,
    lattice_point_count,
    lattice_points,
    minkowski_sum,
    pick_count,
)

V = LatticeVector
RP = RationalPoint


def hp(nx, ny, c):
    return HalfPlane(V(nx, ny), c)


def box_scan(planes, lo=-50, hi=50):
    """Independent oracle: direct constraint evaluation over an integer box."""
    pts = []
    for x in range(lo, hi + 1):
        for y in range(lo, hi + 1):
            if all(h.normal.x * x + h.normal.y * y >= -h.offset for h in planes):
                pts.append((x, y))
    return pts


def vrep_ints(poly):
    return [(p.x_num, p.y_num) for p in poly.vrep]


UNIT_TRIANGLE_PLANES = [hp(1, 0, 0), hp(0, 1, 0), hp(-1, -1, 1)]


class TestRationalPoint:
    def test_normalization(self):
        p = RP(2, 4, 6)
        assert (p.x_num, p.y_num, p.den) == (1, 2, 3)
        q = RP(1, -2, -3)
        assert (q.x_num, q.y_num, q.den) == (-1, 2, 3)

    def test_lattice_round_trip(self):
        assert RP.from_lattice(V(3, -4)).to_lattice() == V(3, -4)
        with pytest.raises(PreconditionError):
            RP(1, 1, 2).to_lattice()


class TestHull:
    def test_empty(self):
        assert hull([]).dim is PolygonDim.EMPTY

    def test_single_point(self):
        p = hull([V(0, 0)])
        assert p.dim is PolygonDim.POINT
        assert vrep_ints(p) == [(0, 0)]

    def test_unit_triangle_with_duplicates(self):
        p = hull([V(0, 0), V(1, 0), V(0, 1), V(0, 0)])
        assert p.dim is PolygonDim.POLYGON
        assert vrep_ints(p) == [(0, 0), (1, 0), (0, 1)]

    def test_collinear_becomes_segment(self):
        p = hull([V(0, 0), V(2, 2), V(1, 1), V(3, 3)])
        assert p.dim is PolygonDim.SEGMENT
        assert vrep_ints(p) == [(0, 0), (3, 3)]

    def test_interior_points_dropped(self):
        p = hull([V(0, 0), V(4, 0), V(0, 4), V(1, 1), V(2, 0)])
        assert vrep_ints(p) == [(0, 0), (4, 0), (0, 4)]

    def test_canonical_start_and_orientation(self):
        square = hull([V(5, 5), V(0, 0), V(5, 0), V(0, 5)])
        assert vrep_ints(square) == [(0, 0), (5, 0), (5, 5), (0, 5)]

    def test_str_names_the_dimension_and_lists_the_vertices(self):
        assert str(hull([V(0, 2), V(0, 0), V(2, 0)])) == "polygon[(0, 0), (2, 0), (0, 2)]"
        assert str(hull([V(3, 3), V(1, 1)])) == "segment[(1, 1), (3, 3)]"
        assert str(hull([V(1, -1)])) == "point[(1, -1)]"
        assert str(hull([])) == "empty[]"
        # a rational vertex prints its numerators over the shared denominator
        tri = intersect_halfplanes([hp(1, 0, 0), hp(0, 1, 0), hp(-2, -3, 1)])
        assert str(tri) == "polygon[(0, 0), (1/2, 0/2), (0/3, 1/3)]"

    def test_hull_points_match_a_box_scan_of_its_edges(self):
        p = hull([V(0, 0), V(2, 0), V(0, 3)])
        # x >= 0, y >= 0 and 3x + 2y <= 6, written out by hand
        oracle = box_scan([hp(1, 0, 0), hp(0, 1, 0), hp(-3, -2, 6)], -5, 5)
        assert oracle == [(q.x, q.y) for q in lattice_points(p)]


class TestHalfPlane:
    def test_non_primitive_normal_still_raises(self):
        with pytest.raises(PreconditionError, match=r"^half-plane normal \(2, 0\) is not primitive$"):
            HalfPlane(V(2, 0), 1)
        with pytest.raises(PreconditionError, match="^half-plane normal must be nonzero$"):
            HalfPlane(V(0, 0), 1)


class TestRefusals:
    """Each input refusal of the lattice layer, with its type and message."""

    @pytest.mark.parametrize("build, error, message", [
        (lambda: V(1.0, 2), TypeError, "lattice coordinates must be int"),
        (lambda: V(2**200, 0), CoordinateOverflowError,
         "coordinate exceeds the 128-bit intermediate bound"),
        (lambda: RP(1, 2, 0), ZeroDivisionError, "denominator must be nonzero"),
        (lambda: HalfPlane(V(1, 0), 2**200), CoordinateOverflowError,
         "offset exceeds the 128-bit intermediate bound"),
        (lambda: ConvexLatticePolygon.empty().bounding_box(), EmptyInputError,
         "empty region has no bounding box"),
        (lambda: intersect_halfplanes([]), PreconditionError, "need at least one half-plane"),
        (lambda: face_in_direction(hull([V(0, 0), V(1, 0), V(0, 1)]), V(2, 0), 0),
         PreconditionError, "direction must be primitive"),
    ])
    def test_refusal(self, build, error, message):
        with pytest.raises(error) as exc:
            build()
        assert type(exc.value) is error and str(exc.value) == message


class TestIntersectHalfplanes:
    def test_unit_simplex(self):
        p = intersect_halfplanes(UNIT_TRIANGLE_PLANES)
        assert p.dim is PolygonDim.POLYGON
        assert vrep_ints(p) == [(0, 0), (1, 0), (0, 1)]

    def test_forced_segment(self):
        # y >= 0 and -y >= 0 force y = 0; brute-force scan agrees.
        planes = [hp(1, 0, 0), hp(0, 1, 0), hp(-1, 2, 1), hp(0, -1, 0)]
        p = intersect_halfplanes(planes)
        assert p.dim is PolygonDim.SEGMENT
        assert vrep_ints(p) == [(0, 0), (1, 0)]
        assert box_scan(planes) == [(0, 0), (1, 0)]

    def test_contradictory_bounds_empty(self):
        for planes in (
            [hp(1, 0, 0), hp(-1, 0, -1)],  # parallel: x >= 0 and x <= -1
            [hp(1, 0, 0), hp(0, 1, 0), hp(-1, -1, -1)],  # independent normals, no vertex
        ):
            p = intersect_halfplanes(planes)
            assert p.dim is PolygonDim.EMPTY
            assert lattice_points(p) == []

    def test_unbounded_raises(self):
        for planes in (
            [hp(1, 0, 0), hp(0, 1, 0)],  # a quadrant
            [hp(1, 0, 0), hp(-1, 0, 1)],  # nonempty slab without vertices
            [hp(1, 0, 0), hp(-1, 0, 0)],  # the line x = 0
            [hp(1, -1, 4)],  # a single half-plane
        ):
            with pytest.raises(UnboundedRegionError):
                intersect_halfplanes(planes)

    def test_boundedness_cases(self):
        unbounded = (
            [hp(1, 0, 0), hp(0, 1, 0), hp(1, 1, -1)],  # x >= 0, y >= 0, x + y >= 1
            [hp(1, 0, 0), hp(0, 1, 0), hp(0, -1, 1)],  # the half-strip x >= 0, 0 <= y <= 1
            [hp(1, 0, 0), hp(1, 0, -2), hp(0, 1, 0), hp(1, -1, 3)],  # a repeated normal
            [hp(1, 0, 0), hp(-1, 0, 3), hp(0, 1, 0)],  # opposite normals, open upwards
        )
        for planes in unbounded:
            with pytest.raises(UnboundedRegionError, match="do not positively span"):
                intersect_halfplanes(planes)
        bounded = (
            ([hp(1, 0, 0), hp(1, 0, -1), hp(0, 1, 0), hp(-1, -1, 5)],  # a repeated normal
             [(1, 0), (5, 0), (1, 4)]),
            ([hp(1, 0, 0), hp(-1, 0, 3), hp(0, 1, 0), hp(0, -1, 2)],  # opposite normals
             [(0, 0), (3, 0), (3, 2), (0, 2)]),
            ([hp(1, 0, 0), hp(-1, 0, 0), hp(0, 1, 0), hp(0, -1, 2)], [(0, 0), (0, 2)]),
        )
        for planes, vertices in bounded:
            assert vrep_ints(intersect_halfplanes(planes + planes)) == vertices

    def test_boundedness_matches_a_far_box(self):
        # a region is bounded iff the four half-planes of a box beyond every crossing
        # of two planes leave its vertices unchanged: else the boxed region has a
        # vertex on the box
        import random

        rng = random.Random(3)
        normals = [(1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 2), (2, -3), (-1, -1), (3, 1)]
        far = 2 * 5 * 3 + 1  # a crossing's coordinates are at most |c_i n_j| + |c_j n_i|
        box = [hp(1, 0, far), hp(-1, 0, far), hp(0, 1, far), hp(0, -1, far)]
        outcomes = Counter()
        for _ in range(2000):
            planes = [hp(*rng.choice(normals), rng.randint(-5, 5)) for _ in range(rng.randint(1, 5))]
            boxed = intersect_halfplanes(planes + box)
            if any(far in (abs(v.x), abs(v.y)) for v in boxed.vrep):
                with pytest.raises(UnboundedRegionError):
                    intersect_halfplanes(planes)
                outcomes["unbounded"] += 1
            else:
                assert intersect_halfplanes(planes) == boxed
                outcomes[boxed.dim] += 1
        assert outcomes["unbounded"] > 100 and set(PolygonDim) <= set(outcomes)

    def test_point_region(self):
        planes = [hp(1, 0, 0), hp(-1, 0, 0), hp(0, 1, 0), hp(0, -1, 0)]
        p = intersect_halfplanes(planes)
        assert p.dim is PolygonDim.POINT
        assert vrep_ints(p) == [(0, 0)]

    def test_rational_vertex(self):
        # x >= 0, y >= 0, -2x - y... use primitive normals only: (-1,-2)
        planes = [hp(1, 0, 0), hp(0, 1, 0), hp(-1, -2, 1)]
        p = intersect_halfplanes(planes)
        assert p.vrep == (RP(0, 0), RP(1, 0), RP(0, 1, 2))

    def test_redundant_plane_leaves_vrep_unchanged(self):
        p = intersect_halfplanes(UNIT_TRIANGLE_PLANES + [hp(1, 0, 5)])
        assert p == intersect_halfplanes(UNIT_TRIANGLE_PLANES)
        assert vrep_ints(p) == [(0, 0), (1, 0), (0, 1)]


class TestLatticePoints:
    def test_unit_triangle(self):
        p = intersect_halfplanes(UNIT_TRIANGLE_PLANES)
        assert [(q.x, q.y) for q in lattice_points(p)] == [(0, 0), (0, 1), (1, 0)]

    def test_dilated_triangle_count(self):
        p = hull([V(0, 0), V(2, 0), V(0, 2)])
        assert len(lattice_points(p)) == 6  # (d+1)(d+2)/2 at d=2

    def test_quadrilateral_rows(self):
        p = hull([V(-1, 0), V(1, 0), V(3, 1), V(-1, 1)])
        pts = [(q.x, q.y) for q in lattice_points(p)]
        assert len(pts) == 8
        assert sum(1 for q in pts if q[1] == 0) == 3
        assert sum(1 for q in pts if q[1] == 1) == 5
        # independent box-scan oracle: 0 <= y <= 1, x >= -1 and 2y - x >= -1
        planes = [hp(0, 1, 0), hp(0, -1, 1), hp(1, 0, 1), hp(-1, 2, 1)]
        assert sorted(pts) == box_scan(planes, -5, 5)

    def test_rational_polygon_points(self):
        planes = [hp(1, 0, 0), hp(0, 1, 0), hp(-1, -2, 1)]
        p = intersect_halfplanes(planes)
        assert [(q.x, q.y) for q in lattice_points(p)] == [(0, 0), (1, 0)]

    def test_non_lattice_point_region(self):
        planes = [hp(2, -1, 0), hp(-2, 1, 1), hp(0, 1, 0), hp(0, -1, 0)]
        # y = 0, 0 <= 2x <= 1: only x = 0 integral
        p = intersect_halfplanes(planes)
        assert [(q.x, q.y) for q in lattice_points(p)] == [(0, 0)]


class TestColumnCovers:
    def test_columns_of_a_thin_polygon_skip_empty_ones(self):
        # column 1 of conv{(0,0), (3,1), (3,2)} runs from y = 1/3 to 2/3
        thin = hull([V(0, 0), V(3, 1), V(3, 2)])
        assert list(_columns(thin)) == [(0, 0, 0), (2, 1, 1), (3, 1, 2)]
        assert list(_columns(hull([V(2, -1), V(2, 3)]))) == [(2, -1, 3)]
        assert list(_columns(ConvexLatticePolygon.empty())) == []
        upright = ConvexLatticePolygon._from_hom_vertices([(3, -1, 2), (3, 7, 2)])
        assert list(_columns(upright)) == []  # x = 3/2 holds no lattice column


class TestPickCount:
    def test_unit_triangle(self):
        assert pick_count(hull([V(0, 0), V(1, 0), V(0, 1)])) == 3

    def test_quadrilateral(self):
        # area 3, boundary 8, interior 0, hand-checked via shoelace + gcd
        p = hull([V(-1, 0), V(1, 0), V(3, 1), V(-1, 1)])
        assert pick_count(p) == 8
        assert pick_count(p) == len(lattice_points(p))

    def test_segment(self):
        assert pick_count(hull([V(0, 0), V(4, 0)])) == 5

    def test_point(self):
        assert pick_count(hull([V(7, -3)])) == 1

    def test_requires_lattice_vertices(self):
        planes = [hp(1, 0, 0), hp(0, 1, 0), hp(-1, -2, 1)]
        with pytest.raises(PreconditionError):
            pick_count(intersect_halfplanes(planes))

    def test_requires_nonempty(self):
        with pytest.raises(PreconditionError):
            pick_count(ConvexLatticePolygon.empty())


class TestFaceInDirection:
    def test_left_edge(self):
        p = intersect_halfplanes(UNIT_TRIANGLE_PLANES)
        f = face_in_direction(p, V(1, 0), 0)
        assert f.dim is PolygonDim.SEGMENT
        assert [(e.x_num, e.y_num) for e in f.vrep] == [(0, 0), (0, 1)]

    def test_hypotenuse(self):
        # the hypotenuse is <u, (-1,-1)> = -1, i.e. the offset of the third
        # plane of the unit simplex (c = +1)
        p = intersect_halfplanes(UNIT_TRIANGLE_PLANES)
        f = face_in_direction(p, V(-1, -1), 1)
        assert f.dim is PolygonDim.SEGMENT
        assert [(e.x_num, e.y_num) for e in f.vrep] == [(0, 1), (1, 0)]

    def test_line_misses(self):
        p = intersect_halfplanes(UNIT_TRIANGLE_PLANES)
        assert face_in_direction(p, V(1, 0), -2).is_empty()

    def test_vertex_face(self):
        p = intersect_halfplanes(UNIT_TRIANGLE_PLANES)
        f = face_in_direction(p, V(-1, 0), 1)  # max x = 1 attained at (1, 0)
        assert f.dim is PolygonDim.POINT
        assert f.vrep[0] == RP(1, 0)

    def test_interior_chord(self):
        p = hull([V(0, 0), V(2, 0), V(0, 2)])
        f = face_in_direction(p, V(1, 0), -1)  # the line x = 1
        assert f.dim is PolygonDim.SEGMENT
        assert [(e.x, e.y) for e in f.vrep] == [(1, 0), (1, 1)]

    def test_face_lattice_count(self):
        p = hull([V(0, 0), V(4, 0), V(0, 4)])
        assert lattice_point_count(face_in_direction(p, V(0, 1), 0)) == 5
        assert lattice_point_count(face_in_direction(p, V(-1, -1), 4)) == 5


class TestMinkowskiSum:
    def test_triangle_doubling(self):
        t = hull([V(0, 0), V(1, 0), V(0, 1)])
        s = minkowski_sum(t, t)
        assert vrep_ints(s) == [(0, 0), (2, 0), (0, 2)]

    def test_square_plus_segment(self):
        sq = hull([V(0, 0), V(1, 0), V(1, 1), V(0, 1)])
        seg = hull([V(0, 0), V(2, 0)])
        s = minkowski_sum(sq, seg)
        assert vrep_ints(s) == [(0, 0), (3, 0), (3, 1), (0, 1)]

    def test_point_translation(self):
        p = hull([V(0, 0), V(2, 0), V(0, 3)])
        s = minkowski_sum(hull([V(5, 7)]), p)
        assert vrep_ints(s) == [(5, 7), (7, 7), (5, 10)]

    def test_segment_plus_segment_parallel(self):
        a = hull([V(0, 0), V(1, 1)])
        b = hull([V(0, 0), V(2, 2)])
        s = minkowski_sum(a, b)
        assert s.dim is PolygonDim.SEGMENT
        assert vrep_ints(s) == [(0, 0), (3, 3)]

    def test_segment_plus_segment_skew(self):
        a = hull([V(0, 0), V(1, 0)])
        b = hull([V(0, 0), V(0, 1)])
        s = minkowski_sum(a, b)
        assert vrep_ints(s) == [(0, 0), (1, 0), (1, 1), (0, 1)]

    def test_empty_input_rejected(self):
        t = hull([V(0, 0)])
        with pytest.raises(EmptyInputError):
            minkowski_sum(t, ConvexLatticePolygon.empty())

    def test_matches_pairwise_vertex_sums(self):
        a = hull([V(0, 0), V(3, 1), V(1, 4), V(-2, 2)])
        b = hull([V(0, 0), V(2, -1), V(1, 2)])
        by_merge = minkowski_sum(a, b)
        sums = [
            V(p.x_num + q.x_num, p.y_num + q.y_num) for p in a.vrep for q in b.vrep
        ]
        assert by_merge == hull(sums)


class TestContainment:
    def test_polygon_contains(self):
        p = hull([V(0, 0), V(4, 0), V(0, 4)])
        assert p.contains(V(1, 1))
        assert p.contains(V(0, 4))
        assert not p.contains(V(3, 3))
        assert p.contains(RP(1, 1, 2))

    def test_segment_contains(self):
        s = hull([V(0, 0), V(4, 2)])
        assert s.contains(V(2, 1))
        assert not s.contains(V(1, 1))
        assert s.contains(RP(1, 1, 2).__class__(2, 1))  # exact lattice point
        assert not s.contains(V(6, 3))

    def test_low_dimensions(self):
        assert not ConvexLatticePolygon.empty().contains(V(0, 0))
        point = hull([V(1, 2)])
        assert point.contains(V(1, 2)) and point.contains(RP(2, 4, 2))
        assert not any(point.contains(q) for q in (V(1, 3), V(0, 2), RP(3, 4, 2)))
        s = hull([V(0, 0), V(4, 2)])
        assert s.contains(V(0, 0)) and s.contains(V(4, 2))  # its ends
        assert not any(s.contains(q) for q in (V(-2, -1), V(6, 3), RP(-1, -1, 2), RP(9, 5, 2)))
        assert not any(s.contains(q) for q in (RP(4, 3, 2), V(2, 0), RP(1, 0, 3)))  # off its line
        # a rational chord: x = 2 across the triangle (0,0), (3,0), (0,3/2)
        triangle = intersect_halfplanes([hp(1, 0, 0), hp(0, 1, 0), hp(-1, -2, 3)])
        chord = face_in_direction(triangle, V(1, 0), -2)
        assert chord.vrep == (RP(2, 0), RP(4, 1, 2))
        assert all(chord.contains(q) for q in (V(2, 0), RP(4, 1, 2), RP(8, 1, 4)))
        assert not any(chord.contains(q) for q in (RP(8, 3, 4), V(2, -1), RP(6, 1, 4), V(1, 0)))

    def test_matches_the_hull_of_the_region_and_the_point(self):
        # p lies in a region iff adding it to the vertices leaves the hull unchanged,
        # on regions of every dimension (lattice, rational, faces) and rational p
        import random

        rng = random.Random(5)
        normals = [(1, 2), (-2, 1), (1, -3), (-1, -1), (3, 1), (2, -1)]
        box = [hp(1, 0, 4), hp(-1, 0, 4), hp(0, 1, 4), hp(0, -1, 4)]
        regions = [ConvexLatticePolygon.empty()]
        for _ in range(300):
            pts = [V(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 5))]
            cuts = [hp(*rng.choice(normals), rng.randint(-2, 3)) for _ in range(rng.randint(0, 3))]
            region = intersect_halfplanes(box + cuts)
            v = V(*rng.choice([(1, 2), (2, -1), (1, 1)]))
            regions += [hull(pts), region, face_in_direction(region, v, rng.randint(-3, 3))]
        seen = set()
        for region in regions:
            seen.add(region.dim)
            hom = [(v.x_num, v.y_num, v.den) for v in region.vrep]
            for _ in range(20):
                den = rng.choice([1, 1, 2, 3])
                q = RP(rng.randint(-4 * den, 4 * den), rng.randint(-4 * den, 4 * den), den)
                added = ConvexLatticePolygon._from_hom_vertices(hom + [(q.x_num, q.y_num, q.den)])
                assert region.contains(q) == (added == region), (region, q)
                if q.den == 1:
                    assert region.contains(q.to_lattice()) == (added == region)
        assert seen == set(PolygonDim)


class TestDecomposeInterval:
    def test_forced(self):
        assert decompose_interval((1, 1), (0, 2), 2) == (1, 1)

    def test_rational_interval(self):
        got = decompose_interval((Fraction(1, 2), Fraction(5, 2)), (0, 3), 5)
        assert got == (2, 3)
        # exhaustive oracle over all feasible integer pairs
        feas = [
            (c1, 5 - c1)
            for c1 in range(-10, 11)
            if Fraction(1, 2) <= c1 <= Fraction(5, 2) and 0 <= 5 - c1 <= 3
        ]
        assert got == min(feas)

    def test_no_integer_in_i1(self):
        with pytest.raises(NoIntegerInIntervalError):
            decompose_interval((Fraction(1, 3), Fraction(2, 3)), (0, 1), 1)

    def test_out_of_range(self):
        with pytest.raises(DecompositionRangeError):
            decompose_interval((0, 1), (0, 1), 3)

    def test_rejects_a_non_integer_second_interval(self):
        with pytest.raises(PreconditionError, match="I2 must have integer endpoints"):
            decompose_interval((0, 1), (Fraction(1, 2), 1), 1)

    def test_rejects_an_empty_interval(self):
        with pytest.raises(PreconditionError, match="intervals must be nonempty"):
            decompose_interval((2, 1), (0, 1), 1)

    def test_exhaustive_small_intervals(self):
        # contract check against exhaustive search for all small instances
        for a1 in range(-3, 4):
            for b1 in range(a1, 4):
                for a2 in range(-3, 4):
                    for b2 in range(a2, 4):
                        for z in range(a1 + a2, b1 + b2 + 1):
                            c1, c2 = decompose_interval((a1, b1), (a2, b2), z)
                            assert c1 + c2 == z
                            assert a1 <= c1 <= b1 and a2 <= c2 <= b2
                            assert c1 == min(
                                c
                                for c in range(a1, b1 + 1)
                                if a2 <= z - c <= b2
                            )
