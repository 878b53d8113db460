"""Fans, divisors, polygons, positivity, families, sampling."""

import time

import pytest

from toricmult.errors import (
    DuplicateRayError,
    FanSizeError,
    NonCompleteFanError,
    NonPrimitiveRayError,
    NonSmoothFanError,
    PreconditionError,
    SamplingBudgetError,
)
from toricmult.lattice import LatticeVector, PolygonDim, lattice_points
from toricmult.surface import (
    PositivityClass,
    TorusDivisor,
    blowup,
    classify,
    generate_family,
    h0,
    hirzebruch,
    polygon_of,
    product_p1_p1,
    projective_plane,
    random_divisor,
    validate_fan,
)

V = LatticeVector
D = TorusDivisor


def vrep_ints(poly):
    return [(p.x_num, p.y_num) for p in poly.vrep]


class TestValidateFan:
    def test_projective_plane(self):
        fan = validate_fan([(1, 0), (0, 1), (-1, -1)])
        assert [r.as_tuple() for r in fan.rays] == [(1, 0), (0, 1), (-1, -1)]

    def test_hirzebruch_two(self):
        # four consecutive determinants equal 1, checked by hand
        fan = validate_fan([(1, 0), (0, 1), (-1, 2), (0, -1)])
        assert fan.n == 4

    def test_non_smooth(self):
        with pytest.raises(NonSmoothFanError) as exc:
            validate_fan([(1, 0), (0, 1), (-2, -1)])
        assert exc.value.index == 1 and exc.value.det == 2

    def test_non_primitive(self):
        with pytest.raises(NonPrimitiveRayError) as exc:
            validate_fan([(2, 0), (0, 1), (-1, -1)])
        assert exc.value.index == 0

    def test_clockwise_rejected(self):
        with pytest.raises(NonSmoothFanError):
            validate_fan([(1, 0), (0, -1), (-1, 1)])

    def test_too_few_rays(self):
        with pytest.raises(NonCompleteFanError):
            validate_fan([(1, 0), (-1, 0)])

    def test_duplicate_ray(self):
        with pytest.raises(DuplicateRayError):
            validate_fan([(1, 0), (0, 1), (1, 0), (0, -1)])

    def test_double_cover_rejected(self):
        rays = [(1, 0), (0, 1), (-1, -1)] * 2
        with pytest.raises((NonCompleteFanError, DuplicateRayError)):
            validate_fan(rays)

    @pytest.mark.parametrize("k", [10, 1200])
    def test_more_rays_than_the_bound_refused_first(self, k):
        # (1,0), (1,1), ..., (1,k), (0,1), (-1,-1) is smooth and complete with k + 3
        # rays; admitted at k = 1200, it would cost classify 25-114 s in
        # intersect_halfplanes
        rays = [(1, 0)] + [(1, i) for i in range(1, k + 1)] + [(0, 1), (-1, -1)]
        start = time.perf_counter()
        with pytest.raises(FanSizeError, match=f"{k + 3} rays exceed the bound of 12"):
            validate_fan(rays)
        assert time.perf_counter() - start < 0.1
        assert validate_fan([(1, 0)] + [(1, i) for i in range(1, 10)] + [(0, 1), (-1, -1)]).n == 12

    def test_rotation_normalized(self):
        a = validate_fan([(0, 1), (-1, -1), (1, 0)])
        b = validate_fan([(1, 0), (0, 1), (-1, -1)])
        assert a == b


class TestPolygonOf:
    def test_p2_o1(self):
        fan = projective_plane()
        p = polygon_of(fan, D((0, 0, 1)))
        assert vrep_ints(p) == [(0, 0), (1, 0), (0, 1)]

    def test_f2_point_class(self):
        fan = hirzebruch(2)
        p = polygon_of(fan, D((0, 1, 0, 0)))
        assert p.dim is PolygonDim.POINT
        assert vrep_ints(p) == [(0, 0)]

    def test_f2_ample_quadrilateral(self):
        fan = hirzebruch(2)
        p = polygon_of(fan, D((1, 0, 1, 1)))
        assert vrep_ints(p) == [(-1, 0), (1, 0), (3, 1), (-1, 1)]

    def test_length_mismatch(self):
        with pytest.raises(PreconditionError):
            polygon_of(projective_plane(), D((1, 2)))

    def test_globally_generated_polygons_come_from_the_corners(self, monkeypatch):
        import toricmult.surface
        from toricmult.surface import _polygon_of_cached

        calls = []
        intersect = toricmult.surface.intersect_halfplanes

        def counted(planes):
            calls.append(planes)
            return intersect(planes)

        monkeypatch.setattr(toricmult.surface, "intersect_halfplanes", counted)
        f2 = hirzebruch(2)
        _polygon_of_cached.cache_clear()
        # ample, two segments, a point, and a point and a segment on P2 and P1xP1
        for fan, d in [
            (f2, D((1, 0, 1, 1))), (f2, D((0, 0, 1, 0))), (f2, D((3, -2, 1, 2))),
            (f2, D((0, 0, 0, 0))),
            (projective_plane(), D((0, 0, 0))), (product_p1_p1(), D((1, 0, 0, 0))),
        ]:
            assert classify(fan, d).is_globally_generated()
            polygon_of(fan, d)
        assert calls == []
        # not nef: effective only, and no sections
        for d in (D((0, 1, 0, 0)), D((-1, 0, 0, 0))):
            assert not classify(f2, d).is_globally_generated()
        assert len(calls) == 2


class TestH0:
    def test_p2_o1(self):
        assert h0(projective_plane(), D((0, 0, 1))) == 3

    def test_f2_point(self):
        assert h0(hirzebruch(2), D((0, 1, 0, 0))) == 1

    def test_f2_quadrilateral(self):
        assert h0(hirzebruch(2), D((1, 0, 1, 1))) == 8

    def test_counts_without_listing(self, no_point_lists):
        # (541 * 542) / 2 sections of O(540) on P2
        assert h0(projective_plane(), D((180, 180, 180))) == 146611
        assert h0(projective_plane(), D((0, 0, -1))) == 0

    def test_translation_invariance(self):
        fan = hirzebruch(3)
        d = D((2, 1, 0, 2))
        for m in [V(1, 0), V(0, 1), V(-2, 3)]:
            shifted = D(tuple(a + m.dot(v) for a, v in zip(d.coeffs, fan.rays)))
            assert h0(fan, shifted) == h0(fan, d)


class TestClassify:
    def test_p2_o1_ample(self):
        assert classify(projective_plane(), D((0, 0, 1))) is PositivityClass.AMPLE

    def test_f2_gg_not_ample(self):
        # three support lines pass through (-1,-1), so one face degenerates
        assert (
            classify(hirzebruch(2), D((1, 1, 1, 1)))
            is PositivityClass.GLOBALLY_GENERATED_NOT_AMPLE
        )

    def test_f2_effective_only(self):
        assert (
            classify(hirzebruch(2), D((0, 1, 0, 0)))
            is PositivityClass.EFFECTIVE_SECTIONS_ONLY
        )

    def test_effective_only_lists_no_lattice_point(self, no_point_lists):
        assert (
            classify(hirzebruch(2), D((0, 7, 0, 0)))
            is PositivityClass.EFFECTIVE_SECTIONS_ONLY
        )

    def test_no_sections(self):
        assert classify(projective_plane(), D((0, 0, -1))) is PositivityClass.NO_SECTIONS

    def test_zero_divisor_globally_generated(self):
        fan = product_p1_p1()
        assert (
            classify(fan, D((0, 0, 0, 0)))
            is PositivityClass.GLOBALLY_GENERATED_NOT_AMPLE
        )

    def test_ample_is_globally_generated(self):
        fan = hirzebruch(2)
        d = D((1, 0, 1, 1))
        assert classify(fan, d) is PositivityClass.AMPLE
        assert classify(fan, d).is_globally_generated()

    def test_segment_class_is_gg(self):
        assert (
            classify(hirzebruch(2), D((0, 0, 1, 0)))
            is PositivityClass.GLOBALLY_GENERATED_NOT_AMPLE
        )

    def test_decided_by_vertex_incidence_alone(self, monkeypatch):
        import toricmult.lattice
        import toricmult.surface

        def refuse(*args):
            raise RuntimeError("classify asked for a face or a support value")

        monkeypatch.setattr(toricmult.surface, "face_in_direction", refuse, raising=False)
        monkeypatch.setattr(toricmult.lattice, "face_in_direction", refuse)
        monkeypatch.setattr(toricmult.lattice.ConvexLatticePolygon, "has_lattice_vertices", refuse)
        f2 = hirzebruch(2)
        cases = {
            PositivityClass.AMPLE: D((1, 0, 1, 1)),
            PositivityClass.GLOBALLY_GENERATED_NOT_AMPLE: D((1, 1, 1, 1)),
            PositivityClass.EFFECTIVE_SECTIONS_ONLY: D((0, 1, 0, 0)),
            PositivityClass.NO_SECTIONS: D((-1, 0, 0, 0)),
        }
        for cls, d in cases.items():
            assert classify(f2, d) is cls


class TestFamilies:
    def test_hirzebruch_two_rays(self):
        fan = hirzebruch(2)
        assert [r.as_tuple() for r in fan.rays] == [(1, 0), (0, 1), (-1, 2), (0, -1)]

    def test_blowup_p2_corner_one(self):
        fan = blowup(projective_plane(), 1)
        assert [r.as_tuple() for r in fan.rays] == [(1, 0), (1, 1), (0, 1), (-1, -1)]

    def test_product(self):
        fan = product_p1_p1()
        assert [r.as_tuple() for r in fan.rays] == [(1, 0), (0, 1), (-1, 0), (0, -1)]
        assert fan == hirzebruch(0)

    def test_blowup_chain_valid_and_grows(self):
        fan = projective_plane()
        for _ in range(9):
            before = fan.n
            fan = blowup(fan, 1)
            assert fan.n == before + 1
        with pytest.raises(FanSizeError):
            blowup(fan, 1)

    def test_descriptor_parsing(self):
        assert generate_family("p2") == projective_plane()
        assert generate_family("P1xP1") == product_p1_p1()
        assert generate_family("f2") == hirzebruch(2)
        assert generate_family("hirzebruch(3)") == hirzebruch(3)
        assert generate_family("blowup(p2, 1)") == blowup(projective_plane(), 1)
        nested = generate_family("blowup(blowup(p2, 1), 4)")
        assert nested.n == 5
        with pytest.raises(PreconditionError):
            generate_family("p3")

    def test_all_small_blowups_validate(self):
        # every generated refinement must pass validation on its own
        fans = [projective_plane(), product_p1_p1()]
        frontier = list(fans)
        for _ in range(2):
            new = []
            for fan in frontier:
                for corner in range(1, fan.n + 1):
                    new.append(blowup(fan, corner))
            frontier = new
            fans.extend(new)
        for fan in fans:
            assert validate_fan(list(fan.rays)) == fan


class TestRandomDivisor:
    def test_deterministic_in_seed(self):
        fan = hirzebruch(2)
        a = random_divisor(fan, PositivityClass.AMPLE, 3, seed=11)
        b = random_divisor(fan, PositivityClass.AMPLE, 3, seed=11)
        assert a == b
        assert classify(fan, a) is PositivityClass.AMPLE

    def test_p2_ample(self):
        fan = projective_plane()
        d = random_divisor(fan, PositivityClass.AMPLE, 3, seed=5)
        assert classify(fan, d) is PositivityClass.AMPLE
        assert sum(d.coeffs) >= 1

    def test_f2_effective_only(self):
        fan = hirzebruch(2)
        d = random_divisor(fan, PositivityClass.EFFECTIVE_SECTIONS_ONLY, 5, seed=7)
        assert classify(fan, d) is PositivityClass.EFFECTIVE_SECTIONS_ONLY

    def test_budget_exhaustion(self, monkeypatch):
        import toricmult.surface

        # no_sections is unreachable with non-negative coefficients
        monkeypatch.setattr(toricmult.surface, "SAMPLING_BUDGET", 200)
        fan = projective_plane()
        with pytest.raises(SamplingBudgetError, match="in 200 draws"):
            random_divisor(fan, PositivityClass.NO_SECTIONS, 2, seed=1)

    def test_max_coeff_precondition(self):
        with pytest.raises(PreconditionError):
            random_divisor(projective_plane(), PositivityClass.AMPLE, 0, seed=1)


class TestLatticePointsOnPolygonOf:
    def test_f2_quadrilateral_points(self):
        fan = hirzebruch(2)
        pts = lattice_points(polygon_of(fan, D((1, 0, 1, 1))))
        assert len(pts) == 8
        assert all(-1 <= p.x <= 3 and 0 <= p.y <= 1 for p in pts)
