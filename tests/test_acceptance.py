"""Acceptance suite: one pass/fail line per criterion (run with -s to see them).

The heavy criteria enumerate divisor classes up to lattice translation
(witnesses and counts are translation-equivariant, so each class stands for
all its coefficient representatives) and fan the work out to worker
processes.  All randomness is seeded.
"""

import random
import subprocess
import sys
import time
from contextlib import contextmanager
from itertools import product
from multiprocessing import get_context

import pytest

from toricmult.lattice import (
    LatticeVector,
    face_in_direction,
    hull,
    lattice_points,
    minkowski_sum,
    pick_count,
)
from toricmult.multiplication import (
    DecompositionPath,
    _StructuredContext,
    _decompose_structured_in_context,
    _fallback_witness,
    check_surjectivity,
    cokernel_dim,
)
from toricmult.reduction import reduce_to_globally_generated, sweep_cokernel
from toricmult.serialization import write_divisor, write_fan
from toricmult.surface import (
    PositivityClass,
    TorusDivisor,
    _record,
    blowup,
    classify,
    hirzebruch,
    polygon_of,
    product_p1_p1,
    projective_plane,
)

V = LatticeVector

FANS = {
    "P2": projective_plane(),
    "P1xP1": product_p1_p1(),
    "F1": hirzebruch(1),
    "F2": hirzebruch(2),
    "F3": hirzebruch(3),
    "BlP2": blowup(projective_plane(), 1),
    "BlBlP2": blowup(blowup(projective_plane(), 1), 4),
}
MAX_COEFF = 4
JOBS = 2


@contextmanager
def criterion(num, label):
    info = {}
    try:
        yield info
    except BaseException:
        print(f"criterion {num} ({label}): FAIL", flush=True)
        raise
    detail = f" -- {info['detail']}" if "detail" in info else ""
    print(f"criterion {num} ({label}): PASS{detail}", flush=True)


def _translation_key(poly):
    v0 = poly.vrep[0]
    return tuple((p.x_num - v0.x_num, p.y_num - v0.y_num) for p in poly.vrep)


def _dedup_classes(fan, max_coeff):
    """Graded-lex representatives of ample/gg divisors up to translation."""
    ample, gg = {}, {}
    grid = sorted(product(range(max_coeff + 1), repeat=fan.n), key=lambda c: (sum(c), c))
    for coeffs in grid:
        d = TorusDivisor(coeffs)
        cls = classify(fan, d)
        if not cls.is_globally_generated():
            continue
        key = _translation_key(polygon_of(fan, d))
        if cls is PositivityClass.AMPLE and key not in ample:
            ample[key] = d
        if key not in gg:
            gg[key] = d
    return list(ample.values()), list(gg.values())


def _verify_pair(job):
    """Worker for criteria 1 and 4: mode=both check plus face additivity."""
    name, d_coeffs, e_coeffs = job
    fan = FANS[name]
    d, e = TorusDivisor(d_coeffs), TorusDivisor(e_coeffs)
    report = check_surjectivity(fan, d, e, mode="both")
    p_d, p_e, p_sum = polygon_of(fan, d), polygon_of(fan, e), polygon_of(fan, d + e)
    faces_ok = all(
        face_in_direction(p_sum, v, a + b)
        == minkowski_sum(face_in_direction(p_d, v, a), face_in_direction(p_e, v, b))
        for v, a, b in zip(fan.rays, d.coeffs, e.coeffs)
    )
    return report.surjective, report.total_points, report.structured_fallbacks, faces_ok


def _reduction_case(job):
    """Worker for criterion 5: the full reduction contract on one divisor."""
    name, coeffs = job
    fan = FANS[name]
    d = TorusDivisor(coeffs)
    pts = lattice_points(polygon_of(fan, d))
    if not pts:
        return False  # unreachable: nonnegative coefficients keep the origin
    res = reduce_to_globally_generated(fan, d)
    return (
        res.hull_polygon == hull(pts)
        and polygon_of(fan, res.reduced) == res.hull_polygon
        and lattice_points(polygon_of(fan, res.reduced)) == pts
        and all(0 <= b <= a for a, b in zip(coeffs, res.reduced.coeffs))
        and classify(fan, res.reduced).is_globally_generated()
        and reduce_to_globally_generated(fan, res.reduced).reduced == res.reduced
    )


@pytest.fixture(scope="module")
def divisor_classes():
    return {name: _dedup_classes(fan, MAX_COEFF) for name, fan in FANS.items()}


@pytest.fixture(scope="module")
def surjectivity_results(divisor_classes):
    jobs = [
        (name, d.coeffs, e.coeffs)
        for name, (ample, gg) in divisor_classes.items()
        for d in ample
        for e in gg
    ]
    start = time.time()
    with get_context("fork").Pool(JOBS) as pool:
        results = pool.map(_verify_pair, jobs, chunksize=256)
    elapsed = time.time() - start
    return {"jobs": jobs, "results": results, "elapsed": elapsed}


def test_criterion_1_surjectivity_exhaustive(surjectivity_results):
    with criterion(1, "ample x globally generated surjectivity, exhaustive") as info:
        results = surjectivity_results["results"]
        n = len(results)
        assert n >= 5000, f"only {n} instances"
        failures = [job for job, r in zip(surjectivity_results["jobs"], results) if not r[0]]
        assert not failures, f"non-surjective instances: {failures[:5]}"
        elapsed = surjectivity_results["elapsed"]
        assert elapsed < 300, f"runtime {elapsed:.0f}s exceeds 5 minutes"
        info["detail"] = f"{n} instances, 100% surjective, {elapsed:.0f}s on {JOBS} workers"


def test_criterion_2_oracle_equivalence(divisor_classes):
    with criterion(2, "structured vs brute oracle on random instances") as info:
        rng = random.Random(74)
        names = list(FANS)
        contexts = {}
        paths = {p: 0 for p in DecompositionPath}
        total = 10_000
        for _ in range(total):
            name = rng.choice(names)
            fan = FANS[name]
            ample, gg = divisor_classes[name]
            d = rng.choice(ample)
            e = rng.choice(gg)
            key = (name, d.coeffs, e.coeffs)
            if key not in contexts:
                ctx = _StructuredContext(fan, _record(fan, d), _record(fan, e))
                polygons = polygon_of(fan, d), polygon_of(fan, e)
                contexts[key] = (ctx, polygons, lattice_points(polygon_of(fan, d + e)))
            ctx, (p_d, p_e), points = contexts[key]
            p = points[rng.randrange(len(points))]
            witness = _decompose_structured_in_context(ctx, p)
            assert witness.q1 + witness.q2 == p
            assert p_d.contains(witness.q1) and p_e.contains(witness.q2)
            # the exhaustive search on the context's column tables, built once per pair
            assert _fallback_witness(ctx.table_d, ctx.table_e, p) is not None
            paths[witness.path] += 1
        fallback_rate = paths[DecompositionPath.FALLBACK_SEARCH] / total
        assert fallback_rate < 1.0
        histogram = {p.value: c for p, c in paths.items() if c}
        info["detail"] = f"fallback rate {fallback_rate:.1%}, paths {histogram}"


def test_criterion_3_golden_f2_instance():
    with criterion(3, "golden F2 cokernel instance and family") as info:
        fan = FANS["F2"]
        l_div = TorusDivisor((1, 0, 1, 1))
        report = cokernel_dim(fan, l_div, TorusDivisor((0, 1, 0, 0)))
        assert report.h0_D == 8
        assert report.h0_E == 1
        assert report.h0_sum == 9
        assert report.coker_dim == 1
        assert report.missing_points == (V(-1, -1),)
        for k in range(1, 31):
            rk = cokernel_dim(fan, l_div, TorusDivisor((0, k, 0, 0)))
            assert rk.coker_dim == 1, f"k={k} gave {rk.coker_dim}"
        info["detail"] = "h0 = 8/1/9, coker 1 at (-1,-1), stable for k in [1,30]"


def test_criterion_4_face_additivity(surjectivity_results):
    with criterion(4, "face additivity on every criterion-1 instance") as info:
        bad = [
            job
            for job, r in zip(surjectivity_results["jobs"], surjectivity_results["results"])
            if not r[3]
        ]
        assert not bad, f"face additivity failed on {bad[:5]}"
        info["detail"] = f"exact equality on {len(surjectivity_results['results'])} instances"


def test_criterion_5_reduction_suite():
    with criterion(5, "reduction suite over all divisors with coeff <= 5") as info:
        jobs = [
            (name, coeffs)
            for name, fan in FANS.items()
            for coeffs in product(range(6), repeat=fan.n)
        ]
        with get_context("fork").Pool(JOBS) as pool:
            results = pool.map(_reduction_case, jobs, chunksize=512)
        bad = [job for job, ok in zip(jobs, results) if not ok]
        assert not bad, f"reduction contract failed on {bad[:5]}"
        info["detail"] = f"{len(jobs)} divisors, 100% pass"


def test_criterion_6_cokernel_stabilization():
    with criterion(6, "cokernel stabilization between e_max 15 and 30") as info:
        expected_max = {
            "P2": 0, "P1xP1": 0, "F1": 1, "F2": 1, "F3": 1, "BlP2": 1, "BlBlP2": 2,
        }
        summary = {}
        for name, fan in FANS.items():
            fixed_l = next(
                TorusDivisor(c)
                for c in sorted(
                    product(range(MAX_COEFF + 1), repeat=fan.n), key=lambda c: (sum(c), c)
                )
                if classify(fan, TorusDivisor(c)) is PositivityClass.AMPLE
            )
            s15 = sweep_cokernel(fan, fixed_l, e_max=15, budget=1600, seed=2024, jobs=JOBS)
            s30 = sweep_cokernel(fan, fixed_l, e_max=30, budget=1600, seed=2024, jobs=JOBS)
            # every instance's missing points were checked against the collar
            # of its reduction inside the sweeps
            assert s15.max_coker == s30.max_coker, name
            assert s30.max_coker == expected_max[name], name
            summary[name] = s30.max_coker
        info["detail"] = f"max coker per fan {summary}, e_max 15 vs 30 identical"


def test_criterion_7_geometry_self_consistency():
    with criterion(7, "pick vs enumeration and minkowski dual route") as info:
        rng = random.Random(7)
        for _ in range(10_000):
            pts = [
                V(rng.randint(-9, 9), rng.randint(-9, 9))
                for _ in range(rng.randint(1, 7))
            ]
            poly = hull(pts)
            assert pick_count(poly) == len(lattice_points(poly))
        for _ in range(10_000):
            a = hull([V(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rng.randint(1, 6))])
            b = hull([V(rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(rng.randint(1, 6))])
            sums = [
                V(p.x_num + q.x_num, p.y_num + q.y_num) for p in a.vrep for q in b.vrep
            ]
            assert minkowski_sum(a, b) == hull(sums)
        info["detail"] = "10^4 pick checks and 10^4 sum checks, exact equality"


def test_criterion_8_sweep_determinism(tmp_path):
    with criterion(8, "byte-identical sweep CSV, including parallel") as info:
        fan_path = tmp_path / "f2.json"
        l_path = tmp_path / "L.json"
        write_fan(FANS["F2"], fan_path)
        write_divisor(TorusDivisor((1, 0, 1, 1)), l_path)
        outputs = []
        for run, jobs in (("a", 1), ("b", 1), ("c", 2)):
            out = tmp_path / f"{run}.csv"
            cmd = [
                sys.executable, "-m", "toricmult.cli", "sweep",
                str(fan_path), str(l_path),
                "--max-coeff", "8", "--budget", "250", "--seed", "77",
                "--jobs", str(jobs), "--out", str(out),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]
        info["detail"] = "3 runs (one with --jobs 2) byte-identical"
