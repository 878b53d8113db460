"""Witness search, triangle reduction, structured decomposition, cokernels."""

import re
import time
import tracemalloc
from collections import Counter
from itertools import product

import pytest

from toricmult.cli import run_cli
from toricmult.errors import (
    BudgetExceededError,
    DecompositionRangeError,
    EmptyInputError,
    PreconditionError,
    TheoremViolationError,
)
from toricmult.lattice import (
    ConvexLatticePolygon,
    HalfPlane,
    LatticeVector,
    PolygonDim,
    RationalPoint,
    _column_table,
    hull,
    intersect_halfplanes,
    lattice_points,
)
from toricmult.multiplication import (
    DecompositionPath,
    DecompositionWitness,
    _cover,
    _oracle,
    _span_witnesses,
    _sumset_gaps,
    check_surjectivity,
    cokernel_dim,
    decompose_bruteforce,
    decompose_homothetic_triangles,
    decompose_structured,
    triangle_reduce,
)
from toricmult.serialization import load_divisor, load_fan
from toricmult.surface import (
    PositivityClass,
    TorusDivisor,
    _record,
    blowup,
    classify,
    generate_family,
    hirzebruch,
    polygon_of,
    product_p1_p1,
    projective_plane,
    validate_fan,
)

V = LatticeVector
D = TorusDivisor

P2 = projective_plane()
F2 = hirzebruch(2)
P1xP1 = product_p1_p1()
#: a smooth fan whose ray (1, 0) has a ray with |det| = 2 on each side of its line
STEEP8 = validate_fan([(1, 0), (0, 1), (-1, 2), (-1, 1), (-1, 0), (-1, -1), (-1, -2), (0, -1)])
UNIT = hull([V(0, 0), V(1, 0), V(0, 1)])


class CountingTable(dict):
    """A column table that counts its lookups."""

    def __init__(self, columns):
        super().__init__(columns)
        self.lookups = 0

    def get(self, *args):
        self.lookups += 1
        return super().get(*args)


def assert_valid(witness, p_d, p_e):
    assert witness.q1 + witness.q2 == witness.p
    assert p_d.contains(witness.q1)
    assert p_e.contains(witness.q2)


def without_steps_a_and_b(monkeypatch):
    """Make every new _StructuredContext find nothing in steps (a) and (b); the
    contexts made are appended to the list returned."""
    import toricmult.multiplication as mult

    contexts, init = [], mult._StructuredContext.__init__

    def bare(self, *args):
        init(self, *args)
        self.d_vertices, self.boundary = [], []
        contexts.append(self)

    monkeypatch.setattr(mult._StructuredContext, "__init__", bare)
    return contexts


def corner_triangles(fan, e):
    """triangle_reduce at the midpoint of each edge of P_E, in fan order, whose
    reduction is a triangle, the edge's ends read off the public polygon."""
    verts = polygon_of(fan, e).lattice_vertices()
    reductions = []
    for j, (v, a) in enumerate(zip(fan.rays, e.coeffs)):
        ends = [m for m in verts if v.dot(m) == -a]
        if len(verts) > 2 and len(ends) == 2:
            (m1, m2) = ends
            red = triangle_reduce(fan, e, RationalPoint(m1.x + m2.x, m1.y + m2.y, 2), j + 1)
            if red.legs is not None:
                reductions.append(red)
    return reductions


def span_counts(spans):
    """The points of spans per path: the lengths c1 - c0 + 1 summed by path."""
    counts = Counter()
    for _, c0, c1, _, _, _, path in spans:
        counts[path] += c1 - c0 + 1
    return counts


class TestCover:
    """The one column cover behind steps (a), (b) and the exhaustive search."""

    FALLBACK = DecompositionPath.FALLBACK_SEARCH

    def test_gives_each_y_its_first_key(self):
        # keys (kx, (klo, khi)) of P_D against the one-point columns of P_E at x - kx
        def keys():
            yield 0, (2, 4)
            yield 1, (0, 9)
            raise AssertionError("read past the key that covered the rest")

        spans = []
        partner = {5: (0, 0), 4: (0, 0)}
        assert _cover(5, [(0, 3), (5, 7)], keys(), partner, self.FALLBACK, spans) == []
        assert span_counts(spans) == {self.FALLBACK: 7}
        assert [span[:6] for span in spans] == [
            (5, 2, 3, 0, 2, 0), (5, 0, 1, 1, 0, 0), (5, 5, 7, 1, 0, 0)
        ]

    def test_leaves_uncovered_ranges_in_order(self):
        keys, partner = [(0, (3, 3)), (1, (9, 12))], {5: (0, 0), 4: (0, 0)}
        spans = []
        gaps = _cover(5, [(0, 5), (8, 10)], keys, partner, self.FALLBACK, spans)
        assert gaps == [(0, 2), (4, 5), (8, 8)] and span_counts(spans) == {self.FALLBACK: 3}
        assert [span[1:3] for span in spans] == [(3, 3), (9, 10)]

    def test_step_b_keys_are_points_of_the_second_factor(self):
        # q2 = (2, 1) in P_E against column 3 of P_D: q1 = (3, y - 1) for y in 0..5
        spans = []
        path, keys, partner = DecompositionPath.BOUNDARY_LATTICE, [(2, (1, 1))], {3: (-1, 4)}
        assert _cover(5, [(-9, 9)], keys, partner, path, spans, keys_in_e=True) == [
            (-9, -1), (6, 9)
        ]
        assert spans == [(5, 0, 5, 3, -1, 1, path)] and span_counts(spans) == {path: 6}
        assert [(w.q1, w.q2) for w in _span_witnesses(spans)] == [
            (V(3, y - 1), V(2, 1)) for y in range(0, 6)
        ]

    def test_columns_of_p_d_cover_the_sumset_with_the_smallest_q1(self):
        # against every pairwise sum of two polygons' lattice points
        a = hull([V(0, 0), V(3, 1), V(1, 3)])
        b = hull([V(-1, 0), V(1, -1), V(0, 2)])
        table_a, table_b = _column_table(a), _column_table(b)
        splits = {}
        for q1 in lattice_points(a):
            for q2 in lattice_points(b):
                splits.setdefault(q1 + q2, []).append(q1)
        for x in range(-3, 7):
            spans = []
            gaps = _cover(x, [(-9, 9)], table_a.items(), table_b, self.FALLBACK, spans)
            witnesses = list(_span_witnesses(spans))
            assert {w.p for w in witnesses} == {p for p in splits if p.x == x}
            assert span_counts(spans)[self.FALLBACK] == len(witnesses)
            assert {(x, y) for g0, g1 in gaps for y in range(g0, g1 + 1)} == {
                (x, y) for y in range(-9, 10) if V(x, y) not in splits
            }
            assert all(w.q1 == min(splits[w.p], key=V.as_tuple) for w in witnesses)

    def test_oracle_reads_only_the_columns_that_can_meet(self):
        # a segment of n + 1 points against a single point: one column of P_D can
        # reach each sum column, so the search costs O(1) lookups per column, not O(n)
        n = 2000
        table_d = CountingTable({x: (0, 0) for x in range(n + 1)})
        table_e = CountingTable({0: (0, 0)})
        counts, column = Counter(), _oracle(table_d, table_e)
        for x in range(-1, n + 2):
            spans = column(x, 0, 0)
            assert spans == ([(x, 0, 0, x, 0, 0, self.FALLBACK)] if 0 <= x <= n else [])
            counts += span_counts(spans)
        assert counts == {self.FALLBACK: n + 1}
        assert table_d.lookups + table_e.lookups <= 4 * (n + 3)

    def test_sumset_walk_stops_once_a_column_is_covered(self):
        # three columns of one point against ten columns 0..9: in the sum's columns
        # x = 2..9 each of the three meets, and the first alone covers lo..hi = 0..9
        wide = CountingTable({x: (0, 9) for x in range(10)})
        gaps_of = _sumset_gaps({0: (0, 0), 1: (0, 0), 2: (0, 0)}, wide)
        assert [gaps_of(x, 0, 9) for x in range(2, 10)] == [[]] * 8
        assert wide.lookups == 8
        assert gaps_of(1, -1, 9) == [(-1, -1)]  # the walk still reports what is left

    def test_covered_column_reads_the_pair_that_covered_the_one_before(self):
        # n one-point columns against n columns whose column 0 alone reaches y = 9:
        # column x = 0..n-1 of the sum is covered only by x1 = x, the right end of its
        # meeting range, so a walk from the left reads x + 1 partners per column
        n = 40
        narrow = CountingTable({x: (0, 0) for x in range(n)})
        wide = CountingTable({0: (0, 9), **{x: (0, 0) for x in range(1, n)}})
        gaps_of = _sumset_gaps(narrow, wide)
        assert gaps_of(0, 0, 9) == []
        for x in range(1, n):
            wide.lookups = narrow.lookups = 0
            assert gaps_of(x, 0, 9) == []
            assert max(narrow.lookups, wide.lookups) <= 2, x


class TestDecomposeBruteforce:
    def test_unit_triangles_corner(self):
        w = decompose_bruteforce(UNIT, UNIT, V(1, 1))
        assert (w.q1, w.q2) == (V(0, 1), V(1, 0))  # smallest q1 wins

    def test_point_factor_identity(self):
        p_e = hull([V(0, 0)])
        p_d = hull([V(0, 0), V(3, 0), V(0, 3)])
        for p in lattice_points(p_d):
            w = decompose_bruteforce(p_d, p_e, p)
            assert (w.q1, w.q2) == (p, V(0, 0))

    def test_undecomposable_point(self):
        # quadrilateral of the ample class plus the point polygon of the
        # rigid class on the second ruled surface: (-1,-1) has no witness
        p_d = polygon_of(F2, D((1, 0, 1, 1)))
        p_e = polygon_of(F2, D((0, 1, 0, 0)))
        assert decompose_bruteforce(p_d, p_e, V(-1, -1)) is None

    def test_far_away_point_gives_none(self):
        assert decompose_bruteforce(UNIT, UNIT, V(5, 5)) is None

    def test_a_lattice_free_factor_gives_none(self):
        # the point (1/2, 1/2) is a nonempty region without lattice points, so its
        # column table is empty
        half = intersect_halfplanes(
            [HalfPlane(V(1, 1), -1), HalfPlane(V(-1, -1), 1), HalfPlane(V(1, -1), 0),
             HalfPlane(V(-1, 1), 0)]
        )
        assert half.vrep == (RationalPoint(1, 1, 2),)
        for p_d, p_e in ((UNIT, half), (half, UNIT)):
            assert decompose_bruteforce(p_d, p_e, V(0, 0)) is None

    def test_rejects_an_empty_polygon(self):
        empty = ConvexLatticePolygon.empty()
        for p_d, p_e in ((empty, UNIT), (UNIT, empty)):
            with pytest.raises(EmptyInputError, match="requires nonempty polygons"):
                decompose_bruteforce(p_d, p_e, V(0, 0))


class TestTriangleReduce:
    def test_p2_bottom_edge_gives_whole_triangle(self):
        red = triangle_reduce(P2, D((0, 0, 2)), RationalPoint(1, 0, 2), edge_index=2)
        assert red.c == (0, 0, 2)
        assert red.triangle == polygon_of(P2, D((0, 0, 2)))
        assert set(red.sigma_endpoints) == {V(0, 0), V(2, 0)}

    def test_p2_hypotenuse_of_unit(self):
        red = triangle_reduce(P2, D((0, 0, 1)), RationalPoint(1, 1, 2), edge_index=3)
        assert red.c == (0, 0, 1)
        assert red.triangle == polygon_of(P2, D((0, 0, 1)))

    def test_f2_sigma4_edge_degenerates_to_segment(self):
        # endpoints (-1,1) and (3,1): the minimal offsets pin y = 1
        red = triangle_reduce(F2, D((1, 1, 1, 1)), RationalPoint(0, 1), edge_index=4)
        assert red.c == (1, -1, 1, 1)
        assert red.triangle.dim is PolygonDim.SEGMENT
        assert red.legs is None
        p_e = polygon_of(F2, D((1, 1, 1, 1)))
        assert all(p_e.contains(w) for w in red.triangle.vrep)

    def test_f2_sigma1_edge_full_triangle_frame(self):
        red = triangle_reduce(F2, D((1, 1, 1, 1)), RationalPoint(-1, 0), edge_index=1)
        assert red.c == (1, 1, 1, 1)
        assert red.triangle == polygon_of(F2, D((1, 1, 1, 1)))
        assert red.corner_ray_index == 3
        assert red.legs == (4, 2)

    def test_rejects_non_gg(self):
        with pytest.raises(PreconditionError):
            triangle_reduce(F2, D((0, 1, 0, 0)), RationalPoint(0, 0), edge_index=1)

    def test_rejects_non_interior_point(self):
        with pytest.raises(PreconditionError):
            triangle_reduce(P2, D((0, 0, 2)), RationalPoint(0, 0), edge_index=2)

    def test_reduction_divisor_is_globally_generated(self):
        red = triangle_reduce(F2, D((1, 1, 1, 1)), RationalPoint(-1, 0), edge_index=1)
        assert classify(F2, D(red.c)).is_globally_generated()

    def test_rejects_an_edge_index_beyond_the_rays(self):
        with pytest.raises(PreconditionError, match=re.escape("edge index must be in [1, 4]")):
            triangle_reduce(F2, D((1, 1, 1, 1)), RationalPoint(0, 0), edge_index=9)

    def test_rejects_an_edge_that_is_a_point(self):
        # P_{(1,0,0,0)} on F2 is the segment from (-1, 0) to (0, 0); sigma_1 is its end (-1, 0)
        with pytest.raises(PreconditionError, match="sigma_1 is not a nondegenerate edge"):
            triangle_reduce(F2, D((1, 0, 0, 0)), RationalPoint(0, 0), edge_index=1)


class TestDecomposeHomothetic:
    def test_unit_pair(self):
        assert decompose_homothetic_triangles(UNIT, UNIT, V(1, 1)) == (V(0, 1), V(1, 0))

    def test_zero_multiple(self):
        t1 = hull([V(0, 0), V(2, 0), V(0, 2)])
        apex = hull([V(4, 4)])
        for p in lattice_points(t1):
            q1, q2 = decompose_homothetic_triangles(t1, apex, p + V(4, 4))
            assert q1 == p and q2 == V(4, 4)

    def test_translated_copy(self):
        t2 = hull([V(5, 5), V(6, 5), V(5, 6)])
        q1, q2 = decompose_homothetic_triangles(UNIT, t2, V(5, 6))
        # smallest q1 = (0,0) already works: (5,6) lies in the translate
        assert (q1, q2) == (V(0, 0), V(5, 6))
        assert t2.contains(q2)

    def test_exhaustive_validity_scaled(self):
        t1 = hull([V(0, 0), V(4, 0), V(0, 2)])  # 2 * conv{(0,0),(2,0),(0,1)}
        t2 = hull([V(1, 1), V(7, 1), V(1, 4)])  # 3 * it, translated
        s = hull([V(1, 1), V(11, 1), V(1, 6)])
        for p in lattice_points(s):
            q1, q2 = decompose_homothetic_triangles(t1, t2, p)
            assert q1 + q2 == p and t1.contains(q1) and t2.contains(q2)

    def test_rejects_non_homothetic(self):
        other = hull([V(0, 0), V(2, 0), V(0, 1)])
        with pytest.raises(PreconditionError):
            decompose_homothetic_triangles(UNIT, other, V(1, 0))

    def test_rejects_segment(self):
        with pytest.raises(PreconditionError):
            decompose_homothetic_triangles(UNIT, hull([V(0, 0), V(1, 0)]), V(1, 0))

    def test_rejects_an_empty_triangle(self):
        with pytest.raises(EmptyInputError, match="requires nonempty inputs"):
            decompose_homothetic_triangles(ConvexLatticePolygon.empty(), UNIT, V(0, 0))

    def test_rejects_a_non_lattice_triangle(self):
        # conv{(0, 0), (1/2, 0), (0, 1)}
        half = intersect_halfplanes(
            [HalfPlane(V(1, 0), 0), HalfPlane(V(0, 1), 0), HalfPlane(V(-2, -1), 1)]
        )
        with pytest.raises(PreconditionError, match="requires lattice triangles"):
            decompose_homothetic_triangles(half, UNIT, V(0, 0))

    def test_rejects_a_square(self):
        square = hull([V(0, 0), V(1, 0), V(1, 1), V(0, 1)])
        with pytest.raises(PreconditionError, match="inputs must be triangles"):
            decompose_homothetic_triangles(square, square, V(0, 0))

    def test_rejects_a_point_outside_the_sum(self):
        outside = re.escape("(9, 9) lies outside the sum")
        with pytest.raises(DecompositionRangeError, match=outside):
            decompose_homothetic_triangles(UNIT, UNIT, V(9, 9))


class TestDecomposeStructured:
    def test_p2_corner_point(self):
        w = decompose_structured(P2, D((0, 0, 1)), D((0, 0, 1)), V(2, 0))
        assert (w.q1, w.q2) == (V(1, 0), V(1, 0))

    def test_p2_o2_times_o1(self):
        d, e = D((0, 0, 2)), D((0, 0, 1))
        w = decompose_structured(P2, d, e, V(1, 1))
        assert_valid(w, polygon_of(P2, d), polygon_of(P2, e))

    def test_interior_vertex_path(self):
        # small ample factor deep inside a large one: the fiber polygon sits
        # in the interior, so its vertex forces a vertex of the first polygon
        d, e = D((0, 0, 1)), D((0, 0, 5))
        w = decompose_structured(P2, d, e, V(2, 2))
        assert w.path is DecompositionPath.INTERIOR_VERTEX
        assert_valid(w, polygon_of(P2, d), polygon_of(P2, e))

    def test_every_point_of_f2_instance(self):
        d, e = D((1, 0, 1, 1)), D((1, 1, 1, 1))
        p_d, p_e = polygon_of(F2, d), polygon_of(F2, e)
        for p in lattice_points(polygon_of(F2, d + e)):
            w = decompose_structured(F2, d, e, p)
            assert_valid(w, p_d, p_e)

    def test_segment_second_factor(self):
        d, e = D((1, 0, 1, 1)), D((0, 0, 2, 0))  # second polygon is a segment
        assert polygon_of(F2, e).dim is PolygonDim.SEGMENT
        p_d, p_e = polygon_of(F2, d), polygon_of(F2, e)
        for p in lattice_points(polygon_of(F2, d + e)):
            w = decompose_structured(F2, d, e, p)
            assert_valid(w, p_d, p_e)

    def test_point_second_factor(self):
        d, e = D((1, 0, 1, 1)), D((0, 0, 0, 0))
        for p in lattice_points(polygon_of(F2, d)):
            w = decompose_structured(F2, d, e, p)
            assert w.q2 == V(0, 0) and w.q1 == p

    def test_rejects_non_ample_first(self):
        with pytest.raises(PreconditionError):
            decompose_structured(F2, D((1, 1, 1, 1)), D((1, 1, 1, 1)), V(0, 0))

    def test_rejects_non_gg_second(self):
        with pytest.raises(PreconditionError):
            decompose_structured(F2, D((1, 0, 1, 1)), D((0, 1, 0, 0)), V(0, 0))

    def test_out_of_range_point(self):
        with pytest.raises(DecompositionRangeError):
            decompose_structured(P2, D((0, 0, 1)), D((0, 0, 1)), V(9, 9))

    def test_agrees_with_bruteforce_on_existence(self):
        d, e = D((2, 0, 1, 1)), D((1, 1, 1, 1))
        assert classify(F2, d).value == "ample"
        p_d, p_e = polygon_of(F2, d), polygon_of(F2, e)
        for p in lattice_points(polygon_of(F2, d + e)):
            w = decompose_structured(F2, d, e, p)
            assert_valid(w, p_d, p_e)
            assert decompose_bruteforce(p_d, p_e, p) is not None


class TestStructuredSteps:
    """Golden points where step (a) finds no vertex and step (b) fires: the
    vertices of P_E in ring order first, then each edge's interior points."""

    @pytest.mark.parametrize(
        "d, e, p, q2",
        [
            # triangle P_E: its first vertex (-1,-1) already works
            (D((1, 0, 1, 1)), D((1, 1, 1, 1)), V(-1, -1), V(-1, -1)),
            # quadrilateral P_E: the vertices (0,0) and (1,0) fail, (3,1) works
            (D((0, 0, 1, 2)), D((0, 0, 1, 1)), V(4, 3), V(3, 1)),
            # segment P_E from (0,0) to (2,0): its first vertex fails, the second works
            (D((0, 0, 1, 2)), D((0, 0, 2, 0)), V(5, 1), V(2, 0)),
            # P_E = conv{(0,0), (1,0), (5,2), (0,2)}: every vertex fails, and on
            # the second edge k = 1 works
            (D((0, 0, 1, 2)), D((0, 0, 1, 2)), V(4, 3), V(3, 1)),
        ],
    )
    def test_edge_step_takes_smallest_k(self, d, e, p, q2):
        p_d, p_e = polygon_of(F2, d), polygon_of(F2, e)
        assert not any(p_e.contains(p - u) for u in p_d.lattice_vertices())
        w = decompose_structured(F2, d, e, p)
        assert w.path is DecompositionPath.BOUNDARY_LATTICE
        assert w.q2 == q2
        assert_valid(w, p_d, p_e)

    def test_vertex_of_p_e_wins_over_a_smaller_k(self):
        # P_E = conv{(0,0), (2,0), (0,2)} on P2 and p = (2,1): the first edge's
        # k = 1, (1,0), works, but its far end (2,0) is a vertex and is tried first
        d, e, p = D((0, 1, 2)), D((0, 0, 2)), V(2, 1)
        p_d, p_e = polygon_of(P2, d), polygon_of(P2, e)
        assert p_e.lattice_vertices() == [V(0, 0), V(2, 0), V(0, 2)]
        assert not any(p_e.contains(p - u) for u in p_d.lattice_vertices())
        assert p_d.contains(p - V(1, 0)) and not p_d.contains(p - V(0, 0))
        w = decompose_structured(P2, d, e, p)
        assert (w.q1, w.q2, w.path) == (V(0, 1), V(2, 0), DecompositionPath.BOUNDARY_LATTICE)

    @pytest.mark.parametrize(
        "fan, d, e, counts, edge_spans",
        [
            # large fibers: each vertex of P_E covers most of a column in one span
            (validate_fan([(1, 0), (1, 1), (0, 1), (-1, -1)]), (20, 20, 20, 20),
             (14, 8, 14, 8), (1_819, 2_114), 140),
            # the central points' fibers hold no vertex of P_E: one span per point
            (P2, (100, 100, 100), (100, 100, 100), (136_350, 44_551), 44_551),
        ],
    )
    def test_path_counts_and_edge_spans_on_large_factors(self, fan, d, e, counts, edge_spans):
        report = check_surjectivity(fan, D(d), D(e), mode="structured")
        vertex, edge = DecompositionPath.INTERIOR_VERTEX, DecompositionPath.BOUNDARY_LATTICE
        assert report.surjective and report.path_counts == dict(zip((vertex, edge), counts))
        assert sum(span[-1] is edge for span in report.spans) <= edge_spans


def _one_sided(fan):
    """Every ray v_j has only rays v_a with |det(v_j, v_a)| = 1 on at least
    one side of its line: the one-sided-cut condition of the module docstring."""
    for vj in fan.rays:
        dets = [vj.cross(va) for va in fan.rays]
        if any(d > 1 for d in dets) and any(d < -1 for d in dets):
            return False
    return True


class TestOneSidedCut:
    """Where every ray has only unimodular rays on one side, a piece of the
    fiber on an edge of P_E has an integer end, so steps (a) and (b) suffice."""

    def test_condition_holds_on_criterion_fans_and_every_hirzebruch(self):
        bl = blowup(P2, 1)
        fans = [P2, P1xP1, bl, blowup(bl, 4)] + [hirzebruch(a) for a in range(11)]
        assert all(_one_sided(fan) for fan in fans)

    def test_condition_fails_on_a_steep_fan(self):
        assert not _one_sided(STEEP8)

    @pytest.mark.parametrize("a", range(4, 9))
    def test_hirzebruch_needs_only_vertex_and_edge_steps(self, a):
        fan = hirzebruch(a)
        grid = [D(c) for c in product(range(3), repeat=4)]
        ample = [d for d in grid if classify(fan, d) is PositivityClass.AMPLE]
        gg = [e for e in grid if classify(fan, e).is_globally_generated()]
        assert ample and gg
        paths = set()
        for d in ample:
            for e in gg:
                report = check_surjectivity(fan, d, e, mode="structured")
                assert report.surjective
                paths |= {w.path.value for w in report.witnesses}
        assert paths == {"interior_vertex", "boundary_lattice"}


class TestTriangleRegions:
    """Step (c)'s covers, keyed by each corner triangle's legs and columns.

    Under the theorem hypotheses the vertex and edge steps (a) and (b) have
    certified every point searched so far, so step (c) is exercised here on
    real reductions with those steps emptied.
    """

    def test_regions_cover_whole_sum_polygon(self, monkeypatch):
        # with steps (a) and (b) finding nothing, the covers of sigma_1's corner
        # triangle T answer every point of P_{D+E}, through all three regions
        without_steps_a_and_b(monkeypatch)
        d, e = D((1, 0, 1, 1)), D((2, 2, 2, 2))
        red = corner_triangles(F2, e)[0]
        assert red.legs == (8, 4) and -2 in {m.x for m in red.sigma_endpoints}  # sigma_1: x = -2
        report = check_surjectivity(F2, d, e, mode="structured")
        assert report.surjective and report.decomposed == 48
        p_d, p_e = polygon_of(F2, d), polygon_of(F2, e)
        for w in report.witnesses:
            assert_valid(w, p_d, p_e)
            assert red.triangle.contains(w.q2)
        assert set(report.path_counts) == {
            DecompositionPath.TRIANGLE_REGION_A,
            DecompositionPath.TRIANGLE_REGION_B,
            DecompositionPath.TRIANGLE_REGION_C,
        }

    def test_route_falls_through_to_regions_and_fallback(self):
        from toricmult.multiplication import (
            _decompose_structured_in_context,
            _StructuredContext,
        )

        d = D((1, 0, 1, 1))
        cases = [
            (
                D((2, 2, 2, 2)),
                {"triangle_region_A": 24, "triangle_region_B": 18, "triangle_region_C": 6},
            ),
            (D((0, 0, 2, 0)), {"fallback_search": 12}),  # a segment has no corner triangle
        ]
        for e, expected in cases:
            ctx = _StructuredContext(F2, _record(F2, d), _record(F2, e))
            ctx.d_vertices, ctx.boundary = [], []  # steps (a) and (b) find nothing
            seen = {}
            for p in lattice_points(polygon_of(F2, d + e)):
                w = _decompose_structured_in_context(ctx, p)
                assert_valid(w, polygon_of(F2, d), polygon_of(F2, e))
                seen[w.path.value] = seen.get(w.path.value, 0) + 1
            assert seen == expected

    def test_step_c_keys_are_checked_once_as_listed(self, monkeypatch):
        # a span is valid once its key is: triangle_keys checks each leg point and
        # each column of T once, against P_E's table, as it lists them, and no span
        # of step (c) or (d) is checked (ctx.outside is False here)
        import toricmult.multiplication as mult

        contexts = without_steps_a_and_b(monkeypatch)
        listed, checked = [], []
        listed_of = mult._StructuredContext._listed
        monkeypatch.setattr(
            mult._StructuredContext, "_listed",
            lambda ctx, table, keys: listed.append((table, keys)) or listed_of(ctx, table, keys),
        )
        monkeypatch.setattr(mult, "_check_span", lambda *a: checked.append(a[2]))
        d = D((1, 0, 1, 1))
        cases = [
            (D((0, 0, 2, 0)), {"fallback_search"}),
            (D((2, 2, 2, 2)), {"triangle_region_A", "triangle_region_B", "triangle_region_C"}),
        ]
        for e, paths in cases:
            listed.clear()
            report = check_surjectivity(F2, d, e, mode="structured")
            ctx = contexts[-1]
            assert not ctx.outside and {p.value for p in report.path_counts} == paths
            assert listed[0][0] is ctx.table_d  # step (a)'s vertices, listed by __init__
            assert [(table is ctx.table_e, keys) for table, keys in listed[1:]] == [
                (True, keys) for _, keys in ctx.triangles
            ]
        assert len(ctx.triangles) == 6 and checked == []

    def test_step_d_binds_its_oracle_once_per_context(self, monkeypatch):
        # the 12 points of E = (0,0,2,0) all reach step (d); one _meeting serves them
        import toricmult.multiplication as mult

        built = []
        meeting = mult._meeting
        monkeypatch.setattr(mult, "_meeting", lambda *a: built.append(1) or meeting(*a))
        ctx = mult._StructuredContext(F2, _record(F2, D((1, 0, 1, 1))), _record(F2, D((0, 0, 2, 0))))
        ctx.d_vertices, ctx.boundary = [], []  # steps (a) and (b) find nothing
        assert not built  # a context that never reaches step (d) binds nothing
        for p in lattice_points(polygon_of(F2, D((1, 0, 3, 1)))):
            assert mult._decompose_structured_in_context(ctx, p).path.value == "fallback_search"
        assert len(built) == 1

    def test_a_gap_step_d_leaves_raises_at_its_first_point(self):
        # under the theorem step (d)'s search covers every gap left to it; a point
        # it leaves open is a fault, named by the error
        import toricmult.multiplication as mult

        d, e = D((1, 0, 1, 1)), D((2, 2, 2, 2))
        ctx = mult._StructuredContext(F2, _record(F2, d), _record(F2, e))
        ctx.d_vertices, ctx.boundary, ctx.triangles = [], [], []  # only step (d) is left
        first, second = spans = mult._structured_column(ctx, -2, -2, 3)  # y = -2, then -1..3
        assert (first[1:4], second[1:4], span_counts(spans)[DecompositionPath.FALLBACK_SEARCH]) == (
            (-2, -2, 0), (-1, 3, -1), 6
        )
        # y = 4, 5 lie above the sum polygon's column: no key reaches them
        with pytest.raises(TheoremViolationError, match=r"no decomposition for \(-2, 4\)"):
            mult._structured_column(ctx, -2, -2, 5)
        # the key at x1 = 0 alone covers y = -2 (the one at x1 = -1 takes -1..3 first)
        meeting = ctx.search
        ctx.search = lambda x: [key for key in meeting(x) if key[0] != 0]
        with pytest.raises(TheoremViolationError, match=r"no decomposition for \(-2, -2\)"):
            mult._structured_column(ctx, -2, -2, 5)

    def test_regions_on_random_blowups(self):
        # each corner triangle's covers on their own, steps (a) and (b) finding
        # nothing, on 40 random contexts of up to 12 rays: every point they answer
        # splits into a point of P_D plus a point of P_E in that triangle
        import random

        import toricmult.multiplication as mult
        from toricmult.reduction import reduce_to_globally_generated

        rng = random.Random(1)

        def gg(fan):
            while True:
                d = D(tuple(rng.randint(0, 3) for _ in range(fan.n)))
                if lattice_points(polygon_of(fan, d)):
                    return reduce_to_globally_generated(fan, d).reduced

        seen, contexts = Counter(), 0
        while contexts < 40:
            fan = generate_family(rng.choice(["p2", "p1xp1", "f1", "f2", "f3", "f5"]))
            for _ in range(rng.randint(0, 12 - fan.n)):
                fan = blowup(fan, rng.randint(1, fan.n))
            e = gg(fan)
            d = next((s for s in (gg(fan) + gg(fan) for _ in range(20))
                      if classify(fan, s) is PositivityClass.AMPLE), None)
            if d is None or polygon_of(fan, e).dim is not PolygonDim.POLYGON:
                continue
            contexts += 1
            ctx = mult._StructuredContext(fan, _record(fan, d), _record(fan, e))
            keys, reductions = ctx.triangle_keys(), corner_triangles(fan, e)
            assert len(keys) == 3 * len(reductions)
            p_d, p_e = polygon_of(fan, d), polygon_of(fan, e)
            for i, red in enumerate(reductions):
                ctx.d_vertices, ctx.boundary, ctx.triangles = [], [], keys[3 * i:3 * i + 3]
                for x, lo, hi in _record(fan, d + e).columns():
                    spans = mult._structured_column(ctx, x, lo, hi)
                    for w in _span_witnesses(spans):
                        if w.path is not DecompositionPath.FALLBACK_SEARCH:
                            assert_valid(w, p_d, p_e)
                            assert red.triangle.contains(w.q2)
                            seen[w.path] += 1
        assert set(seen) == {
            DecompositionPath.TRIANGLE_REGION_A,
            DecompositionPath.TRIANGLE_REGION_B,
            DecompositionPath.TRIANGLE_REGION_C,
        }

    @pytest.mark.parametrize("error", [PreconditionError, TheoremViolationError])
    def test_step_c_errors_reach_the_caller(self, monkeypatch, error):
        # sigma_j's corners meet triangle_reduce's preconditions by construction,
        # so an error from it is a fault, not "no reduction"
        import toricmult.multiplication as mult

        def broken(*args):
            raise error("reduced region escapes the original polygon")

        monkeypatch.setattr(mult, "triangle_reduce", broken)
        d, e = D((1, 0, 1, 1)), D((2, 2, 2, 2))
        ctx = mult._StructuredContext(F2, _record(F2, d), _record(F2, e))
        ctx.d_vertices, ctx.boundary = [], []  # steps (a) and (b) find nothing
        p = lattice_points(polygon_of(F2, d + e))[0]
        with pytest.raises(error, match="escapes the original polygon"):
            mult._decompose_structured_in_context(ctx, p)

    def test_legs_run_from_the_edge_to_the_corner(self, monkeypatch):
        # step (c)'s keys per corner triangle T of P_E: A and B list the lattice
        # points of T's legs on rays k+1 and k, from sigma_j's end to the corner, as
        # one-point columns; C lists T's columns
        import toricmult.multiplication as mult

        d, e = D((1, 0, 1, 1)), D((1, 1, 1, 1))
        ctx = mult._StructuredContext(F2, _record(F2, d), _record(F2, e))
        keys, reductions = ctx.triangle_keys(), corner_triangles(F2, e)
        assert reductions and [path.value[-1] for path, _ in keys] == ["A", "B", "C"] * len(reductions)
        for i, red in enumerate(reductions):
            (_, leg_a), (_, leg_b), (_, columns) = keys[3 * i:3 * i + 3]
            k = red.corner_ray_index - 1
            (corner,) = set(red.triangle.lattice_vertices()) - set(red.sigma_endpoints)
            for leg, j in ((leg_a, (k + 1) % F2.n), (leg_b, k)):
                v, c = F2.rays[j], red.c[j]
                assert all(lo == hi for _, (lo, hi) in leg)
                points = [V(x, y) for x, (y, _) in leg]
                assert points[0] in red.sigma_endpoints and points[-1] == corner
                assert len({q - p for p, q in zip(points, points[1:])}) == 1  # one unit step
                on_line = [q for q in lattice_points(red.triangle) if v.dot(q) == -c]
                assert sorted(points) == on_line
            assert columns == list(_column_table(red.triangle).items())
        # with steps (a) and (b) finding nothing, the legs alone answer every point
        without_steps_a_and_b(monkeypatch)
        report = check_surjectivity(F2, d, e, mode="structured")
        for w in report.witnesses:
            assert_valid(w, polygon_of(F2, d), polygon_of(F2, e))
        assert {p.value: n for p, n in report.path_counts.items()} == {
            "triangle_region_A": 16, "triangle_region_B": 8
        }


class TestCheckSurjectivity:
    @pytest.mark.parametrize("mode", ["structured", "brute", "both"])
    def test_one_cache_lookup_per_divisor(self, mode):
        # the sum, D and E: the budgets, the context and the tables read the same records
        from toricmult.surface import _polygon_of_cached

        def lookups():
            info = _polygon_of_cached.cache_info()
            return info.hits + info.misses

        _polygon_of_cached.cache_clear()
        for _ in range(2):  # cold, then warm
            before = lookups()
            check_surjectivity(F2, D((1, 0, 1, 1)), D((2, 2, 2, 2)), mode=mode)
            assert lookups() - before == 3

    def test_p2_o1_o1(self):
        report = check_surjectivity(P2, D((0, 0, 1)), D((0, 0, 1)), mode="both")
        assert report.surjective
        assert report.total_points == 6
        assert report.decomposed == 6

    def test_f2_ample_gg(self):
        report = check_surjectivity(F2, D((1, 0, 1, 1)), D((1, 1, 1, 1)), mode="both")
        assert report.surjective

    def test_f2_cokernel_instance_brute(self):
        report = check_surjectivity(F2, D((1, 0, 1, 1)), D((0, 1, 0, 0)), mode="brute")
        assert not report.surjective
        assert report.total_points == 9
        assert report.decomposed == 8
        decomposed_points = {w.p for w in report.witnesses}
        assert V(-1, -1) not in decomposed_points

    def test_brute_witnesses_take_smallest_q1(self):
        # against a literal scan over every pair, independent of the column search;
        # on P1xP1 a horizontal times a vertical segment pairs one column per point
        for fan, d, e in (
            (F2, D((1, 0, 1, 1)), D((0, 2, 1, 0))),
            (product_p1_p1(), D((0, 0, 4, 0)), D((0, 0, 0, 3))),
        ):
            smallest = {}
            for q1 in lattice_points(polygon_of(fan, d)):  # ascending
                for q2 in lattice_points(polygon_of(fan, e)):
                    smallest.setdefault(q1 + q2, q1)
            report = check_surjectivity(fan, d, e, mode="brute")
            assert report.witnesses
            assert {w.p: w.q1 for w in report.witnesses} == smallest
            assert all(w.path is DecompositionPath.FALLBACK_SEARCH for w in report.witnesses)

    def test_both_mode_raises_when_oracle_lacks_a_point(self, monkeypatch):
        import toricmult.multiplication as mult

        gaps = mult._sumset_gaps
        first = lattice_points(polygon_of(P2, D((0, 0, 2))))[0]

        def gaps_without_first_column(table_a, table_b):
            # the exhaustive check with the first column of the second factor cut out
            return gaps(table_a, dict(list(table_b.items())[1:]))

        monkeypatch.setattr(mult, "_sumset_gaps", gaps_without_first_column)
        with pytest.raises(TheoremViolationError, match=rf"decomposed \({first.x}, {first.y}\)"):
            check_surjectivity(P2, D((0, 0, 1)), D((0, 0, 1)), mode="both")

    def test_violation_names_its_instance(self, monkeypatch, tmp_path, capsys):
        # the message spells out the fan, L and E as the JSON of the three files
        # of a `toricmult verify` line, and that line reproduces the failure: here
        # no key covers any point, so step (d) leaves the whole first column
        import toricmult.multiplication as mult

        monkeypatch.setattr(mult, "_cover", lambda x, gaps, *args, **kwargs: gaps)
        d, e = D((1, 0, 1, 1)), D((1, 1, 1, 1))
        with pytest.raises(TheoremViolationError) as err:
            check_surjectivity(F2, d, e, mode="structured")
        message = str(err.value)
        files = re.fullmatch(
            r"no decomposition for \(-?\d+, -?\d+\) under ample x globally generated hypotheses; "
            r"reproduce with `toricmult verify FAN L E --mode structured` on "
            r"FAN (\{[^}]*\}), L (\{[^}]*\}), E (\{[^}]*\})",
            message,
        )
        assert files is not None, message
        paths = [tmp_path / f"{name}.json" for name in ("fan", "L", "E")]
        for path, text in zip(paths, files.groups()):
            path.write_text(text)
        assert (load_fan(paths[0]), load_divisor(paths[1]), load_divisor(paths[2])) == (F2, d, e)
        capsys.readouterr()
        assert run_cli(["verify", *map(str, paths), "--mode", "structured"]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_sum_beyond_the_input_bound_admitted(self):
        # L + E = (10^6 + 1, -999999, 0) is derived, so only the intermediate bound applies
        l_div, e = D((10**6, -999999, 0)), D((1, 0, 0))
        report = cokernel_dim(P2, l_div, e)
        assert (report.h0_D, report.h0_E, report.h0_sum, report.coker_dim) == (3, 3, 6, 0)
        for mode in ("structured", "brute", "both"):
            assert check_surjectivity(P2, l_div, e, mode=mode).surjective

    @pytest.mark.parametrize("mode", ["both", "brute"])
    def test_over_budget_refused_before_enumeration(self, no_point_lists, mode):
        # two segments of 5001 columns each; their sum has only 10,001 points
        d = D((0, 0, 5000, 0))
        with pytest.raises(BudgetExceededError, match=r"^5001 x 5001 column pairs"):
            check_surjectivity(P1xP1, d, d, mode=mode)

    def test_brute_budget_counts_exactly_when_boxes_exceed_it(self, monkeypatch):
        import toricmult.multiplication as mult

        # 2 x 3 column pairs
        d, e = D((0, 0, 1)), D((0, 0, 2))
        monkeypatch.setattr(mult, "PAIR_BUDGET", 6)
        assert check_surjectivity(P2, d, e, mode="brute").surjective
        monkeypatch.setattr(mult, "PAIR_BUDGET", 5)
        with pytest.raises(BudgetExceededError, match=r"^2 x 3 column pairs exceed the budget of 5$"):
            check_surjectivity(P2, d, e, mode="brute")
        # a column of the bounding box without a lattice point is not walked:
        # this triangle's box spans x = 0..2, its lattice points only x = 0, 1
        h = D((0, 6, 5, 4, 2, 1, -1, 5))
        monkeypatch.setattr(mult, "PAIR_BUDGET", 4)
        report = check_surjectivity(STEEP8, h, h, mode="brute")
        assert report.total_points == len(lattice_points(polygon_of(STEEP8, h + h)))
        monkeypatch.setattr(mult, "PAIR_BUDGET", 3)
        with pytest.raises(BudgetExceededError, match=r"^2 x 2 column pairs exceed the budget of 3$"):
            check_surjectivity(STEEP8, h, h, mode="brute")

    def test_pair_budget_admits_what_the_search_can_walk(self):
        # 11,476 x 11,476 sections, but only 151 x 151 column pairs
        d = D((50, 50, 50))
        report = check_surjectivity(P2, d, d, mode="both")
        assert report.surjective and report.total_points == 45_451

    @pytest.mark.parametrize("mode", ["structured", "brute", "both"])
    def test_lists_no_lattice_point(self, no_point_lists, mode):
        # every mode walks the columns of the sum polygon, never a list of its points
        report = check_surjectivity(F2, D((1, 0, 1, 1)), D((1, 1, 1, 1)), mode=mode)
        assert report.surjective and report.total_points == report.decomposed == 24
        paths = {w.path for w in report.witnesses}
        if mode == "brute":
            assert paths == {DecompositionPath.FALLBACK_SEARCH}
            short = check_surjectivity(F2, D((1, 0, 1, 1)), D((0, 1, 0, 0)), mode=mode)
            assert (short.total_points, short.decomposed) == (9, 8)
        else:
            assert {p.value for p in paths} == {"interior_vertex", "boundary_lattice"}

    def test_witness_budget_refuses_before_any_point(self, no_point_lists):
        # P2 (10^4,10^4,10^4)^2 has about 1.8e9 points; counting stops at the budget
        d = D((10**4,) * 3)
        for mode in ("structured", "brute", "both"):
            start = time.perf_counter()
            with pytest.raises(BudgetExceededError, match=r"over 1000000 lattice points"):
                check_surjectivity(P2, d, d, mode=mode)
            assert time.perf_counter() - start < 0.1

    def test_point_budget_refuses_before_any_table(self, monkeypatch):
        # the sum's box and columns decide it from the corner ring; no factor's
        # column table is built, cached or not
        from toricmult.surface import _DivisorRecord, _polygon_of_cached

        def no_table(rec):
            raise AssertionError(f"the table of {rec.coeffs} was built")

        _polygon_of_cached.cache_clear()
        monkeypatch.setattr(_DivisorRecord, "table", no_table)
        d = D((1000, 1000, 1000))  # the sum has about 18 million points
        for mode in ("structured", "brute", "both"):
            with pytest.raises(BudgetExceededError, match=r"over 1000000 lattice points"):
                check_surjectivity(P2, d, d, mode=mode)

    def test_witness_budget_counts_exactly_when_the_box_exceeds_it(self, monkeypatch):
        import toricmult.multiplication as mult

        # P2 (0,0,1) + (0,0,2) has 10 lattice points; its bounding box has 16
        d, e = D((0, 0, 1)), D((0, 0, 2))
        monkeypatch.setattr(mult, "POINT_BUDGET", 10)
        assert check_surjectivity(P2, d, e, mode="structured").total_points == 10
        monkeypatch.setattr(mult, "POINT_BUDGET", 9)
        for mode in ("structured", "brute", "both"):
            with pytest.raises(BudgetExceededError, match=r"over 9 lattice points"):
                check_surjectivity(P2, d, e, mode=mode)

    def test_large_instance_within_witness_budget(self):
        d = D((100, 100, 100))
        report = check_surjectivity(P2, d, d, mode="structured")
        assert report.surjective and report.total_points == 180_901

    def test_brute_mode_requires_sections(self, no_point_lists):
        with pytest.raises(PreconditionError, match="sections"):
            check_surjectivity(P2, D((0, 0, 1)), D((0, 0, -1)), mode="brute")

    def test_witnesses_sorted_by_point(self):
        report = check_surjectivity(P2, D((0, 0, 2)), D((0, 0, 1)), mode="structured")
        pts = [w.p for w in report.witnesses]
        assert pts == sorted(pts)

    def test_structured_mode_rejects_bad_hypotheses(self):
        with pytest.raises(PreconditionError):
            check_surjectivity(F2, D((1, 0, 1, 1)), D((0, 1, 0, 0)), mode="structured")

    def test_unknown_mode(self):
        with pytest.raises(PreconditionError):
            check_surjectivity(P2, D((0, 0, 1)), D((0, 0, 1)), mode="fast")


class TestSpans:
    """check_surjectivity keeps checked spans and builds witnesses only when read."""

    @pytest.mark.parametrize("mode", ["structured", "brute", "both"])
    def test_builds_no_witness_until_read(self, monkeypatch, mode):
        import toricmult.multiplication as mult

        built = []

        class CountingWitness(mult.DecompositionWitness):
            def __post_init__(self):
                built.append(self.p)
                super().__post_init__()

        monkeypatch.setattr(mult, "DecompositionWitness", CountingWitness)
        report = check_surjectivity(F2, D((1, 0, 1, 1)), D((1, 1, 1, 1)), mode=mode)
        assert built == [] and report.decomposed == 24
        witnesses = report.witnesses
        assert len(built) == len(witnesses) == report.decomposed
        assert built == [w.p for w in witnesses]
        assert built == lattice_points(polygon_of(F2, D((2, 1, 2, 2))))

    def test_reports_compare_and_hash_by_their_spans(self):
        args = (F2, D((1, 0, 1, 1)), D((1, 1, 1, 1)))
        a, b = check_surjectivity(*args), check_surjectivity(*args)
        assert a == b and hash(a) == hash(b) and a.spans == b.spans

    def test_span_check_names_the_first_failing_point(self):
        # narrow one column of a factor's table by 1 or 2 at either end: the end
        # check of each span, with a scan where it fails, must name the point that
        # the per-point check of the expanded witnesses, in order, names first
        from toricmult.multiplication import _check_span

        def inside(table, q):
            col = table.get(q.x)
            return col is not None and col[0] <= q.y <= col[1]

        d, e = D((1, 0, 1, 1)), D((2, 2, 2, 2))
        tables = (_column_table(polygon_of(F2, d)), _column_table(polygon_of(F2, e)))
        inside_spans = 0
        for mode in ("structured", "brute"):
            report = check_surjectivity(F2, d, e, mode=mode)
            for which, table in enumerate(tables):
                for x1, (lo, hi) in table.items():
                    for col in ((lo + 1, hi), (lo + 2, hi), (lo, hi - 1), (lo, hi - 2)):
                        bad = [dict(t) for t in tables]
                        bad[which][x1] = col
                        first = next((w.p for w in report.witnesses if not (
                            inside(bad[0], w.q1) and inside(bad[1], w.q2)
                        )), None)
                        try:
                            for span in report.spans:
                                _check_span(bad[0], bad[1], span)
                        except TheoremViolationError as exc:
                            assert str(exc) == f"witness check failed at {first}"
                            inside_spans += any(
                                x == first.x and c0 < first.y < c1
                                for x, c0, c1, *_ in report.spans
                            )
                        else:
                            assert first is None
        assert inside_spans > 0  # some spans fail between their ends, found by the scan

    @pytest.mark.parametrize(
        "x1, col, first",
        [
            (-2, (-2, 0), (-3, 1)), (-2, None, (-3, -2)), (0, (-1, 0), (1, 2)),
            (2, (0, 1), (3, 2)), (3, None, (4, 2)),
        ],
    )
    @pytest.mark.parametrize("mode", ["structured", "both"])
    def test_shrunk_column_of_p_e_under_t_raises_at_the_first_failing_point(
        self, monkeypatch, mode, x1, col, first
    ):
        # steps (a) and (b) find nothing, so steps (c) and (d) cover F2's sum
        # polygon, and P_E's table loses points under a column of T: triangle_keys
        # finds a key outside it as it lists them, and the first failing point in
        # (x, y) order is named, also where a span of the same column found earlier
        # fails higher up (the first two cases: a check in the order found named (-3, 2))
        from toricmult.surface import _DivisorRecord, _polygon_of_cached

        without_steps_a_and_b(monkeypatch)
        d, e = D((1, 0, 1, 1)), D((2, 2, 2, 2))
        table = _DivisorRecord.table

        def shrunk(rec):
            t = table(rec)
            if rec.coeffs == e.coeffs:
                t = dict(t)  # a record's table is shared: change a copy
                t.pop(x1) if col is None else t.update({x1: col})
            return t

        _polygon_of_cached.cache_clear()
        monkeypatch.setattr(_DivisorRecord, "table", shrunk)
        try:
            with pytest.raises(TheoremViolationError) as raised:
                check_surjectivity(F2, d, e, mode=mode)
        finally:
            _polygon_of_cached.cache_clear()
        assert str(raised.value).startswith(f"witness check failed at {V(*first)}; ")

    @pytest.mark.parametrize(
        "x1, col, first",
        [
            (0, (0, 0), (-1, -1)), (0, (-1, -1), (-1, 1)), (0, None, (-1, -1)),
            (1, (-1, 0), (2, -4)), (1, (-2, -1), (1, 1)), (1, None, (1, 1)),
            (1, (-1, -1), (1, 1)), (1, (-2, -2), (1, 1)), (1, (0, 0), (2, -4)),
            (3, (-1, -2), (3, -1)), (3, (-2, -3), (3, -1)), (3, None, (3, -1)),
        ],
    )
    @pytest.mark.parametrize("mode", ["structured", "both"])
    def test_shrunk_column_of_p_e_raises_at_the_first_failing_point(
        self, monkeypatch, mode, x1, col, first
    ):
        # P_E's table loses a point, or the column x1, for every reader, while
        # step (b) lists its q2 from the ring; each expected point is the one
        # that checking every span at its ends, in (x, y) order, names first.
        # Column 2 holds no vertex of P_E, and step (b) tries the vertices
        # before the edge points, so no witness reads its points and losing
        # them raises nothing; column 1 loses each pair of its three points.
        # The cache is cleared around it, so no table built before or during
        # the run is read by another test.
        from toricmult.surface import _DivisorRecord, _polygon_of_cached

        blbl = validate_fan([(1, 0), (1, 1), (0, 1), (-1, -1), (0, -1)])
        d, e = D((1, 1, 2, 1, 1)), D((0, 1, 2, 1, 0))
        table = _DivisorRecord.table

        def shrunk(rec):
            t = table(rec)
            if rec.coeffs == e.coeffs:
                t = dict(t)  # a record's table is shared: change a copy
                t.pop(x1) if col is None else t.update({x1: col})
            return t

        _polygon_of_cached.cache_clear()
        monkeypatch.setattr(_DivisorRecord, "table", shrunk)
        try:
            with pytest.raises(TheoremViolationError) as raised:
                check_surjectivity(blbl, d, e, mode=mode)
        finally:
            _polygon_of_cached.cache_clear()
        assert str(raised.value).startswith(
            f"witness check failed at {V(*first)}; "
            f"reproduce with `toricmult verify FAN L E --mode {mode}` on FAN "
        )

    def test_a_factor_wider_than_the_cap_keeps_no_table(self):
        # P2 (40,0,0) has 41 columns: its table is built for each pair that reads
        # it and dropped, while the narrow factor's stays in its cache entry
        from toricmult.surface import TABLE_CAP, _polygon_of_cached, _record

        _polygon_of_cached.cache_clear()
        d, e = D((1, 1, 1)), D((40, 0, 0))
        first = check_surjectivity(P2, d, e, mode="both")
        narrow, wide = _record(P2, d), _record(P2, e)
        assert narrow._table == _column_table(polygon_of(P2, d))
        assert len(_column_table(polygon_of(P2, e))) == 41 > TABLE_CAP
        assert wide._table is None
        assert check_surjectivity(P2, d, e, mode="both") == first and wide._table is None

    @pytest.mark.parametrize("mode", ["structured", "brute", "both"])
    def test_a_valid_instance_checks_no_span(self, monkeypatch, mode):
        # every key is checked as listed and every span clipped to a key and its
        # partner, so _check_span runs only after a key failed: never on a valid
        # instance, in any mode, by any step, the oracle's included
        import toricmult.multiplication as mult

        calls = []
        check = mult._check_span
        monkeypatch.setattr(mult, "_check_span", lambda *args: calls.append(args) or check(*args))
        d = D((1, 0, 1, 1))
        report = check_surjectivity(F2, d, D((2, 2, 2, 2)), mode=mode)
        assert report.surjective and calls == []
        without_steps_a_and_b(monkeypatch)  # steps (c) and (d) fire; the oracle is unchanged
        paths = set()
        for e in (D((2, 2, 2, 2)), D((0, 0, 2, 0))):
            report = check_surjectivity(F2, d, e, mode=mode)
            assert report.surjective
            paths |= {p.value for p in report.path_counts}
        assert calls == []
        assert paths == ({"fallback_search"} if mode == "brute" else {
            "triangle_region_A", "triangle_region_B", "triangle_region_C", "fallback_search"
        })

    def test_steps_c_and_d_spans_expand_to_single_point_witnesses(self, monkeypatch):
        # with steps (a) and (b) finding nothing, steps (c) and (d) cover whole gaps:
        # spans of several points, expanded to the witness of the single-point route
        import toricmult.multiplication as mult

        contexts = without_steps_a_and_b(monkeypatch)
        d = D((1, 0, 1, 1))
        cases = [
            (D((2, 2, 2, 2)), {"triangle_region_A": 24, "triangle_region_B": 18,
                               "triangle_region_C": 6}),
            (D((0, 0, 2, 0)), {"fallback_search": 12}),
        ]
        for e, counts in cases:
            report = check_surjectivity(F2, d, e, mode="structured")
            assert len(report.spans) < report.decomposed == sum(counts.values())
            ctx = contexts[-1]
            singles = [mult._decompose_structured_in_context(ctx, w.p) for w in report.witnesses]
            assert singles == list(report.witnesses)
            assert {p.value: n for p, n in report.path_counts.items()} == counts

    def test_boundary_listed_only_after_a_gap(self, monkeypatch):
        # step (b)'s boundary points of P_E are built on the first column that
        # step (a) leaves a gap in, and not at all when step (a) covers every point
        import toricmult.multiplication as mult

        contexts = []
        init = mult._StructuredContext.__init__

        def keep(self, *args):
            init(self, *args)
            contexts.append(self)

        monkeypatch.setattr(mult._StructuredContext, "__init__", keep)
        report = check_surjectivity(P2, D((0, 0, 1)), D((0, 0, 2)), mode="both")
        assert report.path_counts == {DecompositionPath.INTERIOR_VERTEX: 10}
        assert contexts[-1].boundary is None
        report = check_surjectivity(F2, D((1, 0, 1, 1)), D((1, 1, 1, 1)), mode="both")
        assert report.path_counts[DecompositionPath.BOUNDARY_LATTICE] == 1
        assert contexts[-1].boundary  # listed once step (a) left a gap

    def test_memory_follows_the_spans(self):
        # 180,901 points in about 45,000 spans; a witness per point took about 63 MB
        d = D((100, 100, 100))
        polygon_of(P2, d), polygon_of(P2, d + d)  # warm the polygon cache
        tracemalloc.start()
        try:
            report = check_surjectivity(P2, d, d, mode="both")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.surjective and report.decomposed == 180_901
        assert peak < 16 * 10**6


class TestCokernelDim:
    def test_p2_surjective_case(self):
        report = cokernel_dim(P2, D((0, 0, 1)), D((0, 0, 2)))
        assert report.coker_dim == 0
        assert report.missing_points == ()
        assert report.h0_sum == report.sumset_size == 10

    def test_f2_golden_instance(self):
        report = cokernel_dim(F2, D((1, 0, 1, 1)), D((0, 1, 0, 0)))
        assert report.h0_D == 8
        assert report.h0_E == 1
        assert report.h0_sum == 9
        assert report.sumset_size == 8
        assert report.coker_dim == 1
        assert report.missing_points == (V(-1, -1),)

    def test_f2_family_stabilizes(self):
        # the sum polygon gains no lattice points as k grows
        for k in range(1, 31):
            report = cokernel_dim(F2, D((1, 0, 1, 1)), D((0, k, 0, 0)))
            assert report.coker_dim == 1
            assert report.missing_points == (V(-1, -1),)

    def test_symmetry(self):
        d, e = D((1, 0, 1, 1)), D((0, 2, 1, 0))
        a = cokernel_dim(F2, d, e)
        b = cokernel_dim(F2, e, d)
        assert a.coker_dim == b.coker_dim
        assert a.missing_points == b.missing_points

    def test_matches_pairwise_sumset_oracle(self):
        # dual route: explicit hash-set of pairwise sums
        for d, e in [
            (D((1, 0, 1, 1)), D((0, 1, 0, 0))),
            (D((1, 0, 1, 1)), D((2, 1, 0, 1))),
            (D((0, 0, 1, 1)), D((1, 1, 1, 1))),
        ]:
            report = cokernel_dim(F2, d, e)
            s_d = lattice_points(polygon_of(F2, d))
            s_e = lattice_points(polygon_of(F2, e))
            sumset = {(a.x + b.x, a.y + b.y) for a in s_d for b in s_e}
            total = lattice_points(polygon_of(F2, d + e))
            assert report.sumset_size == len(sumset)
            assert report.coker_dim == len(total) - len(sumset)
            assert all(p.as_tuple() not in sumset for p in report.missing_points)

    def test_collared_instance_matches_the_pairwise_sums(self):
        # E is not globally generated: its moving part E' = (12, 12, 12, 12), and the
        # 324 missing points are the collar of P_{L+E} outside P_{L+E'}.  Columns of
        # L are cut to those that meet E's x-range, covered columns stop early, and
        # the collar's columns have gaps.
        d, e = D((36, 18, 36, 36)), D((12, 66, 12, 12))
        report = cokernel_dim(F2, d, e)
        assert (report.h0_D, report.h0_E, report.h0_sum) == (5005, 625, 9409)
        assert (report.sumset_size, report.coker_dim) == (9085, 324)
        def code(p):  # (x, y) as x * 2^20 + y, so that the code of a sum is the sum of codes
            return (p.x << 20) + p.y

        s_d = [code(p) for p in lattice_points(polygon_of(F2, d))]
        s_e = [code(p) for p in lattice_points(polygon_of(F2, e))]
        sumset = {a + b for a in s_d for b in s_e}
        missing = [p for p in lattice_points(polygon_of(F2, d + e)) if code(p) not in sumset]
        assert report.missing_points == tuple(missing)

    def test_requires_sections(self):
        with pytest.raises(PreconditionError):
            cokernel_dim(P2, D((0, 0, 1)), D((0, 0, -1)))

    def test_report_holds_the_gaps_not_the_points(self):
        # 250,000 missing points in 999 gaps: the report keeps the gaps, about 0.3 MB,
        # where a vector per missing point held 32 MB
        d, e = D((1000, 500, 1000, 1000)), D((300, 2000, 300, 300))
        tracemalloc.start()
        try:
            report = cokernel_dim(F2, d, e)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < 2 * 10**6
        assert (report.coker_dim, len(report.gaps)) == (250_000, 999)
        assert report.sumset_size == report.h0_sum - 250_000
        missing = report.missing_points  # expanded on read, in (x, y) order
        x, g0, _ = report.gaps[0]
        assert len(missing) == 250_000 and missing[:2] == (V(x, g0), V(x, g0 + 1))

    def test_report_fields_are_the_gaps_and_vars_lists_every_count(self):
        import dataclasses
        from types import SimpleNamespace

        report = cokernel_dim(F2, D((1, 0, 1, 1)), D((0, 1, 0, 0)))
        assert [f.name for f in dataclasses.fields(report)] == ["h0_D", "h0_E", "h0_sum", "gaps"]
        assert report.gaps == ((-1, -1, -1),)
        copy = SimpleNamespace(**vars(report))
        for name in ("h0_D", "h0_E", "h0_sum", "sumset_size", "coker_dim", "missing_points"):
            assert getattr(copy, name) == getattr(report, name)
        missing = report.missing_points
        assert missing == (V(-1, -1),) and missing == [V(-1, -1)] and (V(-1, -1),) == missing
        assert missing != (V(-1, 0),) and missing != "x"
        assert (list(missing), missing[0], missing[-1:], repr(missing)) == (
            [V(-1, -1)], V(-1, -1), (V(-1, -1),), repr((V(-1, -1),)))
        assert report == dataclasses.replace(report) and report != dataclasses.replace(report, gaps=())

    def test_budget_counts_exactly_when_boxes_exceed_it(self, monkeypatch):
        import toricmult.multiplication as mult

        # this triangle's box spans x = 0..2, its lattice points only x = 0, 1
        h = D((0, 6, 5, 4, 2, 1, -1, 5))
        monkeypatch.setattr(mult, "PAIR_BUDGET", 4)
        report = cokernel_dim(STEEP8, h, h)
        assert report.h0_sum == len(lattice_points(polygon_of(STEEP8, h + h)))
        monkeypatch.setattr(mult, "PAIR_BUDGET", 3)
        with pytest.raises(BudgetExceededError, match=r"^2 x 2 column pairs exceed the budget of 3$"):
            cokernel_dim(STEEP8, h, h)

    def test_over_budget_refused_before_enumeration(self, no_point_lists):
        # two segments of 5001 columns each; their sum has only 10,001 points
        d = D((0, 0, 5000, 0))
        with pytest.raises(BudgetExceededError, match=r"^5001 x 5001 column pairs"):
            cokernel_dim(P1xP1, d, d)

    def test_huge_instance_refused_quickly(self, no_point_lists):
        # P2 (10^4,10^4,10^4)^2: 30,001 x 30,001 column pairs
        d = D((10**4,) * 3)
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match=r"^30001 x 30001 column pairs"):
            cokernel_dim(P2, d, d)
        assert time.perf_counter() - start < 0.5

    def test_collar_over_the_budget_refused_before_any_column(self, monkeypatch):
        # on this 12-ray fan, D = (10^6, ..., 10^6) x E = (1, ..., 1) misses at least
        # the 1,600,000 points of the collar of P_{D+E} outside P_{D'+E'}, counted by
        # Pick's theorem; a walk of the columns took 3.6 s to refuse the same
        import toricmult.surface

        def no_walk(ring):
            raise AssertionError("a column was walked")

        fan = validate_fan(
            [(1, 0), (1, 1), (0, 1), (-1, 2), (-2, 3), (-1, 1), (-1, 0), (-1, -1), (0, -1),
             (1, -1), (3, -2), (2, -1)]
        )
        monkeypatch.setattr(toricmult.surface, "_ring_columns", no_walk)
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match=r"^over 1000000 missing points$"):
            cokernel_dim(fan, D((10**6,) * 12), D((1,) * 12))
        assert time.perf_counter() - start < 0.1

    def test_pair_budget_admits_what_the_merge_can_walk(self, no_point_lists):
        # 406,351 x 101,926 sections, but only 451 x 451 column pairs
        d = D((150, 150, 150))
        report = cokernel_dim(P2, d, d)
        assert (report.coker_dim, report.h0_sum) == (0, 406_351)

    def test_point_budget_bounds_the_missing_points(self, monkeypatch):
        import toricmult.multiplication as mult

        d, e = D((1, 0, 1, 1)), D((0, 1, 0, 0))  # one missing point
        monkeypatch.setattr(mult, "POINT_BUDGET", 1)
        assert cokernel_dim(F2, d, e).missing_points == (V(-1, -1),)
        monkeypatch.setattr(mult, "POINT_BUDGET", 0)
        with pytest.raises(BudgetExceededError, match=r"^over 0 missing points$"):
            cokernel_dim(F2, d, e)

    def test_column_walk_refuses_what_the_collar_bound_misses(self, monkeypatch):
        # D is the segment (0,0)-(1,1) and E the segment (0,1)-(1,0), both globally
        # generated, so the collar of P_{D+E} outside P_{D'+E'} is empty: the collar
        # bound is only a lower bound when D is not ample, and the walk of the columns
        # finds the missing (1, 1) and refuses it itself
        import toricmult.multiplication as mult

        fan = validate_fan([(1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1), (0, -1), (1, -1)])
        d, e = D((0, 0, 0, 0, 1, 2, 1, 0)), D((0, -1, 0, 1, 1, 1, 1, 1))
        rec_sum = _record(fan, d + e)
        assert mult._moving_sum(fan.xy, _record(fan, d), _record(fan, e), rec_sum) is rec_sum
        report = cokernel_dim(fan, d, e)
        assert (report.coker_dim, report.missing_points) == (1, (V(1, 1),))
        walked = []
        gaps = mult._cokernel_gaps
        monkeypatch.setattr(mult, "_cokernel_gaps", lambda *a: walked.append(1) or gaps(*a))
        monkeypatch.setattr(mult, "POINT_BUDGET", 0)
        with pytest.raises(BudgetExceededError, match=r"^over 0 missing points$"):
            cokernel_dim(fan, d, e)
        assert walked

    def test_merge_memory_follows_the_columns(self):
        # 300 x 300 column pairs, merged one column of the sum at a time
        d = D((0, 0, 299, 0))
        polygon_of(P1xP1, d), polygon_of(P1xP1, d + d)  # warm the polygon cache
        tracemalloc.start()
        try:
            report = cokernel_dim(P1xP1, d, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.coker_dim == 0 and report.h0_sum == 599
        assert peak < 10**6

    def test_lists_no_lattice_point(self, no_point_lists):
        report = cokernel_dim(F2, D((1, 0, 1, 1)), D((0, 1, 0, 0)))
        assert (report.h0_D, report.h0_E, report.h0_sum, report.sumset_size) == (8, 1, 9, 8)
        assert report.missing_points == (V(-1, -1),)

    def test_coker_zero_iff_brute_surjective(self):
        for d, e in [
            (D((1, 0, 1, 1)), D((0, 1, 0, 0))),
            (D((1, 0, 1, 1)), D((1, 1, 1, 1))),
            (D((0, 1, 1, 0)), D((0, 2, 0, 1))),
        ]:
            report = cokernel_dim(F2, d, e)
            surj = check_surjectivity(F2, d, e, mode="brute")
            assert (report.coker_dim == 0) == surj.surjective


class TestWitnessInvariants:
    def test_witness_must_sum(self):
        with pytest.raises(TheoremViolationError):
            DecompositionWitness(
                p=V(1, 1), q1=V(1, 0), q2=V(1, 0), path=DecompositionPath.FALLBACK_SEARCH
            )

    def test_translation_equivariance(self):
        # a_i -> a_i + <m, v_i> translates the polygon by -m
        d, e = D((1, 0, 1, 1)), D((1, 1, 1, 1))
        m = V(2, -1)
        d_shift = D(tuple(a + m.dot(v) for a, v in zip(d.coeffs, F2.rays)))
        shifted_vertices = [u - m for u in polygon_of(F2, d).lattice_vertices()]
        assert polygon_of(F2, d_shift).lattice_vertices() == shifted_vertices
        base = check_surjectivity(F2, d, e, mode="brute")
        shifted = check_surjectivity(F2, d_shift, e, mode="brute")
        assert shifted.surjective == base.surjective
        assert shifted.total_points == base.total_points
        for w0, w1 in zip(base.witnesses, shifted.witnesses):
            assert w1.p == w0.p - m
            assert w1.q1 == w0.q1 - m
            assert w1.q2 == w0.q2
