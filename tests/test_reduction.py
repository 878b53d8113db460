"""Divisor rounding (section-preserving) and cokernel sweeps."""

import hashlib
import multiprocessing
import os
import re
import time
import tracemalloc
from itertools import product

import pytest

import toricmult.lattice
import toricmult.multiplication
import toricmult.surface

from toricmult.cli import run_cli
from toricmult.errors import (
    BudgetExceededError,
    CoordinateOverflowError,
    PreconditionError,
    TheoremViolationError,
)
from toricmult.lattice import LatticeVector, PolygonDim, lattice_points
from toricmult.serialization import write_divisor, write_fan
from toricmult.reduction import (
    _stratified_sample,
    edge_lattice_report,
    reduce_to_globally_generated,
    sweep_cokernel,
)
from toricmult.surface import (
    TorusDivisor,
    _record,
    classify,
    hirzebruch,
    polygon_of,
    projective_plane,
    validate_fan,
)

V = LatticeVector
D = TorusDivisor

P2 = projective_plane()
F2 = hirzebruch(2)


class TestReduce:
    def test_f2_point_class(self):
        res = reduce_to_globally_generated(F2, D((0, 1, 0, 0)))
        assert res.reduced == D((0, 0, 0, 0))
        assert res.J == frozenset({2})
        assert res.hull_polygon.dim is PolygonDim.POINT
        assert res.hull_polygon.vrep[0].to_lattice() == V(0, 0)

    def test_idempotent_on_globally_generated(self):
        d = D((0, 0, 1))
        res = reduce_to_globally_generated(P2, d)
        assert res.reduced == d
        assert res.J == frozenset()

    def test_f2_segment_class_already_tight(self):
        d = D((0, 0, 1, 0))
        res = reduce_to_globally_generated(F2, d)
        assert res.reduced == d
        assert [(p.x_num, p.y_num) for p in res.hull_polygon.vrep] == [(0, 0), (1, 0)]

    def test_reduction_contract_small_boxes(self):
        # sections preserved, 0 <= b <= a, reduced gg, hull equality,
        # idempotence: exhaustive over small coefficient boxes
        for fan in (P2, F2):
            for coeffs in product(range(3), repeat=fan.n):
                d = D(coeffs)
                pts = lattice_points(polygon_of(fan, d))
                if not pts:
                    continue
                res = reduce_to_globally_generated(fan, d)
                assert all(0 <= b <= a for a, b in zip(coeffs, res.reduced.coeffs))
                assert classify(fan, res.reduced).is_globally_generated()
                assert lattice_points(polygon_of(fan, res.reduced)) == pts
                assert polygon_of(fan, res.reduced) == res.hull_polygon
                again = reduce_to_globally_generated(fan, res.reduced)
                assert again.reduced == res.reduced and again.J == frozenset()

    def test_requires_sections(self):
        with pytest.raises(PreconditionError):
            reduce_to_globally_generated(P2, D((0, 0, -1)))

    def test_large_divisor_from_column_ends(self, no_point_lists):
        # 641,601 sections; the rounding and the hull read only the column ends
        res = reduce_to_globally_generated(F2, D((400, 1200, 400, 400)))
        assert res.reduced == D((400, 400, 400, 400))
        assert res.J == frozenset({2})
        assert res.hull_polygon == polygon_of(F2, res.reduced)

    def test_admitted_divisor_with_vertices_beyond_the_input_bound(self):
        # P2 (0,1,10^6) is admitted; its polygon has the vertex (10^6 + 1, -1).
        # It is globally generated, so it comes back at once, read off its corners.
        start = time.perf_counter()
        res = reduce_to_globally_generated(P2, D((0, 1, 10**6)))
        assert time.perf_counter() - start < 1
        assert res.reduced == D((0, 1, 10**6)) and res.J == frozenset()
        assert V(10**6 + 1, -1) in [v.to_lattice() for v in res.hull_polygon.vrep]

    def test_rounding_reads_no_column(self, monkeypatch):
        # F2 (10^6, 10^6, 0, 10^6) has 2,000,001 columns; the corner-ring rule
        # lowers a_2 once and decides that d has sections, reading none of them
        import toricmult.reduction as reduction

        columns, drawn = reduction._DivisorRecord.columns, []

        def counted(rec):
            for col in columns(rec):
                drawn.append(col)
                yield col

        monkeypatch.setattr(reduction._DivisorRecord, "columns", counted)
        d = D((10**6, 10**6, 0, 10**6))
        start = time.perf_counter()
        res = reduce_to_globally_generated(F2, d)
        report = edge_lattice_report(F2, res)
        assert time.perf_counter() - start < 0.1
        assert drawn == []
        assert res.reduced == D((10**6, 5 * 10**5, 0, 10**6)) and res.J == frozenset({2})
        assert report == [(2, 1)]

    def test_slowest_rounding_seen_stays_within_its_bound(self):
        # P_d is a single point: the rule takes 23,159 rounds here, the most seen
        # on up to 12 rays, about 0.13 s on a 2-core host
        fan = validate_fan(
            [(1, 0), (0, 1), (-1, 1), (-3, 2), (-8, 5), (-21, 13), (-34, 21), (-13, 8),
             (-5, 3), (-2, 1), (-1, 0), (-1, -1)]
        )
        d = D((10**6, -(10**6)) + (0,) * 10)
        start = time.perf_counter()
        res = reduce_to_globally_generated(fan, d)
        assert time.perf_counter() - start < 2
        assert res.reduced.coeffs == (
            10**6, -(10**6), -2 * 10**6, -5 * 10**6, -13 * 10**6, -34 * 10**6, -55 * 10**6,
            -21 * 10**6, -8 * 10**6, -3 * 10**6, -(10**6), 0,
        )
        assert res.hull_polygon.dim is PolygonDim.POINT
        assert edge_lattice_report(fan, res) == [(j, 1) for j in range(3, 12)]

    def test_rounding_below_the_input_bound_is_admitted(self, capsys, tmp_path):
        # h0 = 1; E' has the coefficient -2 * 10^6, a derived divisor that only
        # the intermediate bound applies to
        fan = validate_fan([(1, 0), (2, 1), (1, 1), (0, 1), (-1, -1)])
        e = D((-(10**6), -(10**6), -(10**6), 0, 10**6))
        res = reduce_to_globally_generated(fan, e)
        assert res.reduced.coeffs == (-(10**6), -2 * 10**6, -(10**6), 0, 10**6)
        assert lattice_points(res.hull_polygon) == lattice_points(polygon_of(fan, e))
        write_fan(fan, tmp_path / "fan.json")
        write_divisor(e, tmp_path / "E.json")
        capsys.readouterr()
        assert run_cli(["reduce", str(tmp_path / "fan.json"), str(tmp_path / "E.json")]) == 0
        assert capsys.readouterr().out == (
            "reduced: (-1000000, -2000000, -1000000, 0, 1000000)\n"
            "changed rays (J): [2]\n"
            "  sigma_2: 1 lattice point(s)\n"
        )

    def test_globally_generated_input_returned_without_a_sweep(self, monkeypatch):
        # the corner ring's edge lengths decide it; the rounding would give d back
        cases = [(P2, D((0, 1, 10))), (F2, D((1, 1, 1, 1))), (F2, D((0, 0, 1, 0)))]
        assert all(_record(fan, d).moving == d.coeffs for fan, d in cases)

        def refuse(vertices):
            raise AssertionError("a globally generated divisor was swept")

        monkeypatch.setattr(toricmult.surface, "_ring_columns", refuse)  # the records' column walk
        d = D((10**6, 10**6, 10**6))
        start = time.perf_counter()
        res = reduce_to_globally_generated(P2, d)
        assert time.perf_counter() - start < 1
        assert (res.original, res.reduced, res.J) == (d, d, frozenset())
        assert res.hull_polygon == polygon_of(P2, d)
        for fan, d in cases:
            assert reduce_to_globally_generated(fan, d).reduced == d

    def test_rounding_of_a_divisor_not_globally_generated_holds_no_column(self):
        # F2 (0,1,0,20000) has 40,001 columns and rounds to (0,0,0,20000)
        d = D((0, 1, 0, 20000))
        assert not classify(F2, d).is_globally_generated()
        polygon_of(F2, d), polygon_of(F2, D((0, 0, 0, 20000)))  # warm the polygon cache
        tracemalloc.start()
        try:
            res = reduce_to_globally_generated(F2, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.reduced == D((0, 0, 0, 20000)) and res.J == frozenset({2})
        assert peak < 50_000

    def test_negative_coefficients_allowed_with_sections(self):
        # a translate of an effective divisor still reduces cleanly
        d = D((2, -1, 1))
        if lattice_points(polygon_of(P2, d)):
            res = reduce_to_globally_generated(P2, d)
            assert classify(P2, res.reduced).is_globally_generated()
            assert lattice_points(polygon_of(P2, res.reduced)) == lattice_points(
                polygon_of(P2, d)
            )


class TestEdgeLatticeReport:
    def test_point_face(self):
        res = reduce_to_globally_generated(F2, D((0, 1, 0, 0)))
        assert edge_lattice_report(F2, res) == [(2, 1)]

    def test_empty_when_nothing_moved(self):
        res = reduce_to_globally_generated(P2, D((0, 0, 2)))
        assert edge_lattice_report(P2, res) == []

    def test_max_count_stabilizes_across_sweep_bounds(self):
        # the largest face count over moved rays is already attained at a
        # small coefficient bound and does not grow with it
        def max_count(bound):
            best = 0
            for coeffs in product(range(bound + 1), repeat=F2.n):
                res = reduce_to_globally_generated(F2, D(coeffs))
                for _, count in edge_lattice_report(F2, res):
                    best = max(best, count)
            return best

        assert max_count(4) == max_count(6)

    def test_counts_match_enumeration(self):
        res = reduce_to_globally_generated(F2, D((0, 3, 1, 0)))
        report = edge_lattice_report(F2, res)
        assert [j for j, _ in report] == sorted(res.J)
        for j, count in report:
            v = F2.rays[j - 1]
            b = res.reduced.coeffs[j - 1]
            on_face = [
                z
                for z in lattice_points(res.hull_polygon)
                if v.dot(z) == -b
            ]
            assert count == len(on_face)


class TestSweep:
    def test_p2_everything_surjective(self):
        sweep = sweep_cokernel(P2, D((0, 0, 1)), e_max=5)
        assert sweep.max_coker == 0
        assert not sweep.sampled
        assert len(sweep.instances) == 6**3

    def test_f2_filtered_family(self):
        sweep = sweep_cokernel(F2, D((1, 0, 1, 1)), e_max=30, filter_pattern="0,k,0,0")
        assert len(sweep.instances) == 30
        assert all(c == 1 for _, c in sweep.instances)
        assert sweep.max_coker == 1
        assert sweep.stabilization_coeff == 1

    def test_f2_full_small_sweep_golden(self):
        sweep = sweep_cokernel(F2, D((1, 0, 1, 1)), e_max=2)
        # golden values pinned by the pairwise-sumset oracle on first run:
        # E=(0,1,1,0) misses (-1,-1) and (0,-1)
        assert sweep.max_coker == 2
        assert sweep.stabilization_coeff == 1
        assert not sweep.sampled
        worst = D((0, 1, 1, 0))
        s_l = lattice_points(polygon_of(F2, D((1, 0, 1, 1))))
        s_e = lattice_points(polygon_of(F2, worst))
        sumset = {(a.x + b.x, a.y + b.y) for a in s_l for b in s_e}
        total = lattice_points(polygon_of(F2, D((1, 0, 1, 1)) + worst))
        missing = [p.as_tuple() for p in total if p.as_tuple() not in sumset]
        assert missing == [(-1, -1), (0, -1)]

    def test_instances_in_graded_lex_order(self):
        sweep = sweep_cokernel(F2, D((1, 0, 1, 1)), e_max=2)
        keys = [(sum(e.coeffs), e.coeffs) for e, _ in sweep.instances]
        assert keys == sorted(keys)

    def test_sampling_requires_seed(self):
        with pytest.raises(PreconditionError):
            sweep_cokernel(F2, D((1, 0, 1, 1)), e_max=30, budget=1000)

    def test_sampled_sweep_deterministic(self):
        a = sweep_cokernel(F2, D((1, 0, 1, 1)), e_max=8, budget=200, seed=42)
        b = sweep_cokernel(F2, D((1, 0, 1, 1)), e_max=8, budget=200, seed=42)
        assert a == b
        assert a.sampled and a.seed == 42
        assert a.max_coker >= 1  # the rigid family already shows a cokernel

    def test_sampled_sweep_never_exceeds_its_budget(self):
        # more strata than budget left: a seeded draw picks the strata that get
        # a vector, so the size follows the budget, not e_max
        for n, e_max, budget in ((3, 2000, 10), (3, 2000, 100), (3, 20000, 10), (3, 30, 20)):
            start = time.perf_counter()
            sample = _stratified_sample(n, e_max, budget, 1)
            assert time.perf_counter() - start < 1
            assert 1 <= len(sample) <= budget
            assert len(set(sample)) == len(sample)
            assert all(len(v) == n and 0 <= min(v) and max(v) <= e_max for v in sample)
            assert sample == _stratified_sample(n, e_max, budget, 1)

    def test_sample_with_fewer_strata_than_budget_unchanged(self):
        # strata 0 and 1 in full, then two draws in each of strata 2..6
        assert _stratified_sample(3, 6, 20, 7) == [
            (0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (0, 1, 1), (1, 0, 1), (1, 1, 0),
            (2, 0, 0), (1, 1, 1), (2, 0, 1), (3, 0, 0), (1, 4, 0), (0, 3, 3), (5, 1, 2),
            (2, 1, 6), (4, 5, 1), (4, 4, 3), (6, 2, 3),
        ]

    def test_deep_strata_are_filled(self, capsys, tmp_path):
        # a vector of 0..m has maximum m with chance about 3/m, so rejection leaves
        # deep strata short; direct draws give one vector to each of the 9 strata
        # drawn, beside stratum 0 in full
        import random

        strata = sorted(random.Random(1).sample(range(1, 20001), 9))
        sample = _stratified_sample(3, 20000, 10, 1)
        assert len(set(sample)) == 10
        assert sorted(max(v) for v in sample) == [0] + strata
        write_fan(P2, tmp_path / "fan.json")
        write_divisor(D((1, 1, 1)), tmp_path / "L.json")
        capsys.readouterr()
        args = ["--max-coeff", "20000", "--budget", "10", "--seed", "1"]
        assert run_cli(["sweep", str(tmp_path / "fan.json"), str(tmp_path / "L.json"), *args]) == 0
        assert "instances: 10" in capsys.readouterr().out.splitlines()

    def test_filled_samples_keep_their_draws(self):
        # rejection fills every stratum of the benchmark's two sweeps, so no direct
        # draw runs and their samples are those of rejection alone
        for n, budget, size, digest in (
            (4, 120, 103, "bb29deb2ae65d1a7"),  # F2
            (5, 200, 177, "bd66f93d95d246a4"),  # BlBlP2
        ):
            sample = _stratified_sample(n, 30, budget, 2024)
            assert len(sample) == size
            assert hashlib.sha256(repr(sample).encode()).hexdigest()[:16] == digest

    def test_rejects_non_ample(self):
        with pytest.raises(PreconditionError):
            sweep_cokernel(F2, D((1, 1, 1, 1)), e_max=3)

    def test_pipeline_check_builds_no_hull(self, monkeypatch):
        def no_hull(points):
            raise RuntimeError("the pipeline check built a hull")

        for module in (toricmult.lattice, toricmult.multiplication):
            monkeypatch.setattr(module, "hull", no_hull)
        sweep = sweep_cokernel(F2, D((1, 0, 1, 1)), e_max=2)
        assert sweep.max_coker == 2

    def test_pipeline_check_builds_no_reduced_polygon_for_globally_generated_e(
        self, monkeypatch
    ):
        import toricmult.reduction as reduction

        tables, table = [], reduction._DivisorRecord.table

        def read(rec):
            tables.append(rec.coeffs)
            return table(rec)

        monkeypatch.setattr(reduction._DivisorRecord, "table", read)
        l_div = D((1, 0, 1, 1))
        # globally generated, not ample, then ample: E' = E, an empty collar
        for pattern in ("k,0,1,0", "1,0,k,1"):
            tables.clear()
            sweep = sweep_cokernel(F2, l_div, e_max=4, filter_pattern=pattern)
            assert sweep.max_coker == 0
            assert all(_record(F2, e).moving == e.coeffs for e, _ in sweep.instances)
            # only the tables of P_L and of each P_E are read, none of a P_{L+E'}
            assert tables == [l_div.coeffs] + [e.coeffs for e, _ in sweep.instances]
        tables.clear()
        sweep_cokernel(F2, l_div, e_max=1, filter_pattern="0,k,0,0")
        assert tables == [l_div.coeffs, (0, 1, 0, 0), l_div.coeffs]  # E' = 0: P_{L+E'} = P_L

    def test_pipeline_check_rejects_a_dropped_missing_point(self, monkeypatch):
        import toricmult.reduction as reduction

        gaps_of = reduction._cokernel_gaps

        def drop_first(table_l, table_e, cols_sum):
            h0_sum, gaps = gaps_of(table_l, table_e, cols_sum)
            (x, g0, g1), *rest = gaps
            return h0_sum, [(x, g0 + 1, g1)] * (g0 < g1) + rest

        monkeypatch.setattr(reduction, "_cokernel_gaps", drop_first)
        # F2 (1,0,1,1) x (0,1,0,0) misses (-1,-1), in the collar of E' = 0
        with pytest.raises(TheoremViolationError, match=r"collar points \[\(-1, -1\)\] were"):
            sweep_cokernel(F2, D((1, 0, 1, 1)), e_max=1, filter_pattern="0,k,0,0")

    def test_pipeline_check_rejects_an_extra_missing_point(self, monkeypatch):
        import toricmult.reduction as reduction

        gaps_of = reduction._cokernel_gaps

        def add_a_sum(table_l, table_e, cols_sum):
            h0_sum, gaps = gaps_of(table_l, table_e, cols_sum)
            (x1, (y1, _)), (x2, (y2, _)) = next(iter(table_l.items())), next(iter(table_e.items()))
            return h0_sum, sorted(gaps + [(x1 + x2, y1 + y2, y1 + y2)])

        monkeypatch.setattr(reduction, "_cokernel_gaps", add_a_sum)
        with pytest.raises(TheoremViolationError, match=r"missing points \[\(-1, 0\)\] lie"):
            sweep_cokernel(F2, D((1, 0, 1, 1)), e_max=1, filter_pattern="0,k,0,0")

    def test_pipeline_check_rejects_a_point_dropped_above_the_reduced_polygon(
        self, monkeypatch, tmp_path, capsys
    ):
        import toricmult.reduction as reduction

        gaps_of = reduction._cokernel_gaps

        def drop_upper(table_l, table_e, cols_sum):
            h0_sum, gaps = gaps_of(table_l, table_e, cols_sum)
            i = next(i for i in range(1, len(gaps)) if gaps[i][0] == gaps[i - 1][0])
            x, g0, g1 = gaps[i]
            return h0_sum, gaps[:i] + [(x, g0, g1 - 1)] * (g0 < g1) + gaps[i + 1 :]

        monkeypatch.setattr(reduction, "_cokernel_gaps", drop_upper)
        # on P2 blown up twice, L = (1,0,1,2,2), E = (2,5,1,-2,1) rounds to
        # E' = (2,3,1,-2,0): column -3 of P_{L+E} has collar points below P_{L+E'}
        # (y = -2..-1) and above it (y = 3)
        blblp2 = validate_fan([(1, 0), (1, 1), (0, 1), (-1, -1), (0, -1)])
        l_div = D((1, 0, 1, 2, 2))
        assert reduce_to_globally_generated(blblp2, D((2, 5, 1, -2, 1))).reduced == D(
            (2, 3, 1, -2, 0)
        )
        with pytest.raises(TheoremViolationError, match=r"collar points \[\(-3, 3\)\] were") as err:
            sweep_cokernel(blblp2, l_div, e_max=1, filter_pattern="2,5,1,-2,k")
        # the message names the instance: the three files it spells out reproduce
        # the instance through the CLI
        files = re.search(r"on FAN (\{[^}]*\}), L (\{[^}]*\}), E (\{[^}]*\})$", str(err.value))
        paths = [tmp_path / f"{name}.json" for name in ("fan", "L", "E")]
        for path, text in zip(paths, files.groups()):
            path.write_text(text)
        capsys.readouterr()
        assert run_cli(["cokernel", *map(str, paths)]) == 0
        assert "missing: (-3, 3)" in capsys.readouterr().out

    def test_sweep_reads_each_polygon_once(self, monkeypatch):
        import toricmult.reduction as reduction

        swept = []
        columns = reduction._DivisorRecord.columns

        def counted(rec):
            swept.append(rec.coeffs)
            return columns(rec)

        monkeypatch.setattr(reduction._DivisorRecord, "columns", counted)
        toricmult.surface._polygon_of_cached.cache_clear()  # so that no table of P_L is kept
        l_div = D((1, 0, 1, 1))
        sweep = sweep_cokernel(F2, l_div, e_max=3, filter_pattern="0,k,1,0")
        # P_L once for the whole sweep, then P_E and P_{L+E} once per instance,
        # and P_{L+E'} for the collar's table when E' != E
        expected = [l_div.coeffs]
        for e, _ in sweep.instances:
            expected += [e.coeffs, (l_div + e).coeffs]
            if (reduced := reduce_to_globally_generated(F2, e).reduced) != e:
                expected.append((l_div + reduced).coeffs)
        assert len(sweep.instances) == 3 and swept == expected

    def test_stabilization_beyond_e_max_is_reported_unclamped(self):
        # every instance has the fixed entry 9 > e_max, so the least bound reaching
        # max_coker is 9, not a value that reads like a stable grid
        sweep = sweep_cokernel(F2, D((1, 0, 1, 1)), e_max=3, filter_pattern="9,k,0,0")
        assert len(sweep.instances) == 3
        assert sweep.stabilization_coeff == 9

    def test_instances_without_sections_are_skipped(self):
        # E = (k, -3, 0) on P2 has sections only from k = 3: P_E is x >= -k, y >= 3, x + y <= 0
        sweep = sweep_cokernel(P2, D((1, 1, 1)), e_max=4, filter_pattern="k,-3,0")
        assert sweep.instances == ((D((3, -3, 0)), 0), (D((4, -3, 0)), 0))
        assert (sweep.max_coker, sweep.stabilization_coeff) == (0, 3)

    def test_a_family_without_sections_is_refused(self):
        with pytest.raises(PreconditionError, match="sweep produced no instances with sections"):
            sweep_cokernel(P2, D((1, 1, 1)), e_max=2, filter_pattern="k,-3,0")

    def test_pipeline_check_lists_no_lattice_point(self, no_point_lists):
        l_div = D((1, 0, 1, 1))
        args = dict(e_max=8, budget=200, seed=5)
        sweep = sweep_cokernel(F2, l_div, **args)
        no_point_lists.undo()
        assert sweep == sweep_cokernel(F2, l_div, **args)
        assert sweep.max_coker >= 1

    def test_jobs_below_one_rejected(self):
        for jobs in (0, -3):
            with pytest.raises(PreconditionError, match="jobs"):
                sweep_cokernel(F2, D((1, 0, 1, 1)), e_max=2, jobs=jobs)

    def test_pool_never_exceeds_instances_or_cpus(self, monkeypatch):
        sizes = []

        class SerialPool:
            def __init__(self, processes, initializer, initargs):
                sizes.append(processes)
                initializer(*initargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize):
                return [fn(item) for item in items]

        monkeypatch.setattr(multiprocessing, "Pool", SerialPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        l_div = D((1, 0, 1, 1))
        serial = sweep_cokernel(F2, l_div, e_max=2)
        assert sweep_cokernel(F2, l_div, e_max=2, jobs=10**9) == serial
        assert sizes == [3]  # capped by the CPUs
        family = sweep_cokernel(F2, l_div, e_max=2, filter_pattern="0,k,0,0", jobs=10**9)
        assert sizes == [3, 2]  # capped by the two instances
        assert family == sweep_cokernel(F2, l_div, e_max=2, filter_pattern="0,k,0,0")
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert sweep_cokernel(F2, l_div, e_max=2, jobs=8) == serial
        assert sizes == [3, 2]  # an unknown CPU count runs serially

    def test_family_over_budget_refused_before_listing(self):
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match=r"^1000000 family instances exceed 10$"):
                sweep_cokernel(
                    F2, D((1, 0, 1, 1)), e_max=10**6, filter_pattern="0,k,0,0", budget=10
                )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # a list of the 10^6 instances would take about 100 MB

    def test_max_coeff_above_the_input_bound_refused(self):
        with pytest.raises(CoordinateOverflowError, match=r"^maximum coefficient 1000001 exceeds"):
            sweep_cokernel(F2, D((1, 0, 1, 1)), e_max=10**6 + 1, filter_pattern="0,k,0,0")
        with pytest.raises(CoordinateOverflowError):
            sweep_cokernel(F2, D((1, 0, 1, 1)), e_max=10**6 + 1, seed=1)

    def test_bad_filter_patterns(self):
        with pytest.raises(PreconditionError):
            sweep_cokernel(F2, D((1, 0, 1, 1)), e_max=3, filter_pattern="0,k")
        with pytest.raises(PreconditionError):
            sweep_cokernel(F2, D((1, 0, 1, 1)), e_max=3, filter_pattern="0,k,k,0")

    @pytest.mark.parametrize(
        "entry", ["²", "٣", "--1", "1000001", "-1000001", "9" * 5000, "1.0", ""]
    )
    def test_a_bad_fixed_filter_entry_is_refused_before_any_instance(self, monkeypatch, entry):
        # one ASCII integer rule, bounded as every input coefficient is
        import toricmult.reduction as red

        monkeypatch.setattr(red, "_sweep_worker_init", lambda *args: pytest.fail("instance built"))
        with pytest.raises(PreconditionError, match=r"^bad filter entry '"):
            sweep_cokernel(F2, D((1, 0, 1, 1)), e_max=3, filter_pattern=f"0,k,{entry},0")
