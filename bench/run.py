"""Benchmark of toricmult: one workload per run, one JSON line of results.

    python3 bench/run.py --workload certify|sweep|bigpoly --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  Set-up is repeated SETUP_REPEATS times, each time from a
fresh import, and timed.  Then whole rounds of the workload's operations run
until ``--seconds`` have passed, each unit of operations starting from
cleared caches, and every answer is checked against the independent checker.
Times are scaled to a reference host speed measured by a calibration loop
between operations.  With ``--trace 0`` the last line holds the end-to-end
metrics; with ``--trace 1`` the operations run inside spans and the last
line holds the per-layer metrics.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPEATS = 5

#: Duration of the calibration loop at the reference host speed, and the
#: longest stretch of operations between two calibrations.
CALIBRATION_NS = 2_000_000
CALIBRATE_EVERY_S = 0.3

sys.path.insert(0, str(HERE))

import checker as ck  # noqa: E402
from spans import PACKAGE, CacheStats, Tracer, package_modules  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

PATHS = ("interior_vertex", "boundary_lattice", "triangle_region", "fallback_search")

#: metric -> span names whose self time it sums; a trailing dot takes a whole layer
SELF_MS = {
    "multiplication.check_surjectivity.ms": ("multiplication.check_surjectivity",),
    "multiplication.cokernel_dim.ms": ("multiplication.cokernel_dim",),
    "reduction.reduce_to_globally_generated.ms": ("reduction.reduce_to_globally_generated",),
    "reduction.sweep_cokernel.ms": ("reduction.sweep_cokernel",),
    "lattice.hull.ms": ("lattice.hull",),
    "lattice.lattice_points.ms": ("lattice.lattice_points",),
    "lattice.intersect_halfplanes.ms": ("lattice.intersect_halfplanes",),
    "lattice.face_in_direction.ms": ("lattice.face_in_direction",),
    "surface.polygon_of.ms": ("surface.polygon_of",),
    "surface.classify.ms": ("surface.classify",),
    "surface.h0.ms": ("surface.h0",),
    "serialization.ms": ("serialization.",),
    "cli.run_cli.ms": ("cli.run_cli",),
}


def fresh_import():
    """Import the package anew from SRC, dropping any earlier copy."""
    for module in package_modules():
        del sys.modules[module.__name__]
    tm = importlib.import_module(PACKAGE)
    if Path(tm.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} came from {tm.__file__}, not from {SRC}")
    return tm


def calibrate() -> int:
    """Median duration of three runs of a fixed pure-Python loop that, like
    the package, allocates tuples, hashes them and does integer arithmetic.

    The host's speed drifts by up to a factor of two over tens of seconds;
    the loop measures it at the moment, independently of the package.
    """
    runs = []
    gc.disable()  # keep the package's live objects out of the loop's time
    try:
        for _ in range(3):
            start = time.perf_counter_ns()
            acc, seen = 0, {}
            for i in range(3000):
                p = (i * 7919 % 1009, i % 31)
                seen[p] = seen.get(p, 0) + 1
                acc += p[0] * p[1]
            sorted(seen)
            runs.append(time.perf_counter_ns() - start)
    finally:
        gc.enable()
    return statistics.median(runs)


def host_scale(before: int, after: int) -> float:
    """Factor that takes a time measured between two calibrations to the
    reference host speed."""
    return CALIBRATION_NS / ((before + after) / 2)


def metric(value, unit):
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"error: no package source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]()
    tracer = Tracer() if args.trace else None

    setup_s = []
    for rep in range(SETUP_REPEATS):
        before = calibrate()
        start = time.perf_counter_ns()
        tm = fresh_import()
        if tracer is not None and rep == SETUP_REPEATS - 1:
            tracer.install()
        state = workload.setup(tm, args.seed, OUT)
        elapsed = time.perf_counter_ns() - start
        setup_s.append(elapsed * host_scale(before, calibrate()) / 1e9)

    paths: Counter = Counter()  # surjectivity witnesses by path
    units = workload.prepare(state, paths)
    CacheStats().clear()
    caches = CacheStats()  # counts only what the timed operations do

    op_ns: list[int] = []  # wall time of each operation
    op_scaled: list[float] = []  # the same, scaled to the reference host speed
    segment: list[int] = []  # wall times of the operations since the last calibration
    cal = calibrate()
    cal_at = time.perf_counter()

    def recalibrate() -> None:
        nonlocal cal, cal_at
        after = calibrate()
        scale = host_scale(cal, after)
        op_ns.extend(segment)
        op_scaled.extend(ns * scale for ns in segment)
        segment.clear()
        cal, cal_at = after, time.perf_counter()

    points = 0
    attempted = failed = rounds = 0
    errors: list[str] = []
    wrong: list[str] = []
    start = time.perf_counter()
    while True:
        for unit in units:
            caches.clear()
            for op in unit:
                if time.perf_counter() - cal_at >= CALIBRATE_EVERY_S:
                    recalibrate()
                attempted += 1
                if tracer is not None:
                    tracer.begin(attempted, op.verb)
                t0 = time.perf_counter_ns()
                try:
                    result = op.call()
                except Exception:
                    failed += 1
                    errors.append(traceback.format_exc())
                    continue
                finally:
                    t1 = time.perf_counter_ns()
                    if tracer is not None:
                        tracer.end()
                try:
                    points += op.check(result)
                except Exception:
                    wrong.append(traceback.format_exc())
                    continue
                segment.append(t1 - t0)
        caches.clear()
        rounds += 1
        if time.perf_counter() - start >= args.seconds:
            break
    recalibrate()
    for text in (wrong + errors)[:3]:
        print(text, file=sys.stderr)
    done = len(op_ns)
    if done == 0:
        print("error: no operation succeeded", file=sys.stderr)
        return 1
    print(
        f"{args.workload} seed {args.seed}: {workload.describe(state)}; "
        f"{rounds} rounds, {attempted} operations, {failed} failed; "
        f"op p50 {statistics.median(op_scaled) / 1e6:.3f} ms, {points / (sum(op_scaled) / 1e9):.0f} points/s; "
        f"unscaled {statistics.median(op_ns) / 1e6:.3f} ms, {points / (sum(op_ns) / 1e9):.0f} points/s"
    )

    if tracer is None:
        metrics = {
            "points_per_s": metric(points / (sum(op_scaled) / 1e9), "1/s"),
            "op_p50_ms": metric(statistics.median(op_scaled) / 1e6, "ms"),
            "setup_s": metric(statistics.median(setup_s), "s"),
            "max_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    else:
        tracer.active = False
        metrics = layer_metrics(tracer, caches, paths, units, done)
        tracer.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
        tracer.uninstall()
        own, _ = tracer.self_ns(setup=True)
        print("set-up self ms: " + ", ".join(
            f"{name} {ns / 1e6:.1f}" for name, ns in own.most_common()))
    print(json.dumps({"correct": not wrong, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def layer_metrics(tracer: Tracer, caches: CacheStats, paths: Counter, units, done: int) -> dict:
    own, calls = tracer.self_ns()
    out = {}
    for name, prefixes in SELF_MS.items():
        ns = sum(v for k, v in own.items() if any(k == p or (p.endswith(".") and k.startswith(p)) for p in prefixes))
        out[name] = metric(ns / 1e6 / done, "ms")
    out["lattice.lattice_points.calls"] = metric(calls["lattice.lattice_points"] / done, "count")
    out["lattice.points_enumerated"] = metric(tracer.points_enumerated / done, "count")
    for layer in ("lattice", "surface"):
        lookups = caches.hits[layer] + caches.misses[layer]
        out[f"{layer}.cache_hit_ratio"] = metric(caches.hits[layer] / lookups if lookups else 0.0, "ratio")
        out[f"{layer}.cache_lookups"] = metric(lookups / done, "count")
    for path in PATHS:
        n = sum(v for k, v in paths.items() if k.startswith(path))
        out[f"multiplication.path.{path}"] = metric(n / done, "count")
    out.update(route_probes(units))
    return out


def route_probes(units) -> dict:
    """Time mode="structured" and mode="brute" apart on the surjectivity
    inputs, with spans off, each unit from cleared caches."""
    out = {}
    for mode in ("structured", "brute"):
        ns = pts = 0
        for unit in units:
            probes = [op.probe for op in unit if op.probe is not None]
            if not probes:
                continue
            CacheStats().clear()
            tm = sys.modules[PACKAGE]
            for fan, d, e, n in probes:
                t0 = time.perf_counter_ns()
                report = tm.check_surjectivity(fan, d, e, mode=mode)
                ns += time.perf_counter_ns() - t0
                if report.decomposed != n:
                    raise ck.CheckFailure(f"mode={mode} decomposed {report.decomposed} of {n} points")
                pts += n
        out[f"multiplication.{mode}_us_per_point"] = metric(ns / 1e3 / pts if pts else 0.0, "us")
    return out


if __name__ == "__main__":
    sys.exit(main())
