"""Command-line interface: one verb per concept.

Exit codes: 0 success, 1 domain error (diagnostics on stderr), 2 usage.
Randomized commands require --seed and are bit-reproducible given it.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .errors import ToricError
from .lattice import ascii_int
from .multiplication import (
    DecompositionPath,
    _refuse_over_point_budget,
    check_surjectivity,
    cokernel_dim,
)
from .reduction import SWEEP_BUDGET, edge_lattice_report, reduce_to_globally_generated, sweep_cokernel
from .serialization import (
    fan_json,
    load_divisor,
    load_fan,
    sweep_rows,
    write_csv,
    write_divisor,
    write_fan,
)
from .surface import _record, classify, generate_family, h0
from .svg import emit_svg


def _integer(text: str) -> int:
    """An integer option, read by lattice.ascii_int: argparse's int would also
    read digits such as '٣' as 3."""
    if (value := ascii_int(text)) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toricmult",
        description="Lattice-polygon computations for section multiplication on toric surfaces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("fan-check", help="validate a fan file")
    p.add_argument("fan")

    p = sub.add_parser("h0", help="number of sections of a divisor")
    p.add_argument("fan")
    p.add_argument("divisor")

    p = sub.add_parser("classify", help="positivity class of a divisor")
    p.add_argument("fan")
    p.add_argument("divisor")

    p = sub.add_parser("reduce", help="round a divisor down to a globally generated one")
    p.add_argument("fan")
    p.add_argument("divisor")
    p.add_argument("--out", help="write the reduced divisor to this file")

    p = sub.add_parser("verify", help="check surjectivity of the multiplication map")
    p.add_argument("fan")
    p.add_argument("L")
    p.add_argument("E")
    p.add_argument("--mode", choices=["structured", "brute", "both"], default="both")

    p = sub.add_parser("cokernel", help="cokernel dimension and missing points")
    p.add_argument("fan")
    p.add_argument("L")
    p.add_argument("E")

    p = sub.add_parser("sweep", help="cokernel sweep over a divisor family")
    p.add_argument("fan")
    p.add_argument("L")
    p.add_argument("--max-coeff", type=_integer, required=True)
    p.add_argument("--seed", type=_integer, required=True)
    p.add_argument("--filter", dest="filter_pattern", help="family pattern like 0,k,0,0")
    p.add_argument("--budget", type=_integer, default=SWEEP_BUDGET)
    p.add_argument("--jobs", type=_integer, default=1)
    p.add_argument("--out", help="write per-instance rows to this CSV file")

    p = sub.add_parser("gen", help="generate a family fan (p2, p1xp1, f<a>, blowup(...))")
    p.add_argument("descriptor")
    p.add_argument("--out", help="write the fan to this file")

    p = sub.add_parser("plot", help="render polygons and lattice points as SVG")
    p.add_argument("fan")
    p.add_argument("L")
    p.add_argument("E")
    p.add_argument("--out", required=True)
    return parser


def _cmd_fan_check(args: argparse.Namespace) -> int:
    fan = load_fan(args.fan)
    print(f"valid: smooth complete, {fan.n} rays")
    return 0


def _cmd_h0(args: argparse.Namespace) -> int:
    print(h0(load_fan(args.fan), load_divisor(args.divisor)))
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    print(classify(load_fan(args.fan), load_divisor(args.divisor)).value)
    return 0


def _cmd_reduce(args: argparse.Namespace) -> int:
    fan = load_fan(args.fan)
    result = reduce_to_globally_generated(fan, load_divisor(args.divisor))
    if args.out:  # first, so that a divisor it refuses prints nothing
        write_divisor(result.reduced, args.out)
    print(f"reduced: {result.reduced}")
    print(f"changed rays (J): {sorted(result.J) if result.J else '[]'}")
    for j, count in edge_lattice_report(fan, result):
        print(f"  sigma_{j}: {count} lattice point(s)")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    fan = load_fan(args.fan)
    report = check_surjectivity(fan, load_divisor(args.L), load_divisor(args.E), mode=args.mode)
    print(f"surjective: {'true' if report.surjective else 'false'}")
    print(f"total points: {report.total_points}")
    print(f"decomposed: {report.decomposed}")
    print(f"structured fallbacks: {report.structured_fallbacks}")
    for path in DecompositionPath:
        print(f"path {path.value}: {report.path_counts[path]}")
    return 0


def _cmd_cokernel(args: argparse.Namespace) -> int:
    fan = load_fan(args.fan)
    report = cokernel_dim(fan, load_divisor(args.L), load_divisor(args.E))
    print(f"h0(L): {report.h0_D}")
    print(f"h0(E): {report.h0_E}")
    print(f"h0(L+E): {report.h0_sum}")
    print(f"sumset size: {report.sumset_size}")
    print(f"coker_dim: {report.coker_dim}")
    for p in report.missing_points:
        print(f"missing: {p}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    fan = load_fan(args.fan)
    sweep = sweep_cokernel(
        fan,
        load_divisor(args.L),
        e_max=args.max_coeff,
        filter_pattern=args.filter_pattern,
        budget=args.budget,
        seed=args.seed,
        jobs=args.jobs,
    )
    if args.out:  # first, so that a file it cannot write prints nothing
        write_csv(sweep_rows(fan, sweep), args.out)
    print(f"instances: {len(sweep.instances)}")
    print(f"max coker_dim: {sweep.max_coker}")
    print(f"stabilization coefficient: {sweep.stabilization_coeff}")
    print(f"sampled: {'true' if sweep.sampled else 'false'}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def _cmd_gen(args: argparse.Namespace) -> int:
    fan = generate_family(args.descriptor)
    if args.out:
        write_fan(fan, args.out)
        print(f"wrote {args.out}")
    else:
        print(fan_json(fan))
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    fan = load_fan(args.fan)
    l_div, e_div = load_divisor(args.L), load_divisor(args.E)
    _refuse_over_point_budget(_record(fan, l_div + e_div))  # before the cokernel's sweep
    report = cokernel_dim(fan, l_div, e_div)
    emit_svg(fan, (l_div, e_div), report, args.out)
    print(f"wrote {args.out}")
    return 0


_COMMANDS = {
    "fan-check": _cmd_fan_check,
    "h0": _cmd_h0,
    "classify": _cmd_classify,
    "reduce": _cmd_reduce,
    "verify": _cmd_verify,
    "cokernel": _cmd_cokernel,
    "sweep": _cmd_sweep,
    "gen": _cmd_gen,
    "plot": _cmd_plot,
}


_PARSER: argparse.ArgumentParser | None = None  # built by the first run_cli, not at import


def run_cli(argv: Sequence[str]) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = _build_parser()
    try:
        args = _PARSER.parse_args(list(argv))
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    try:
        return _COMMANDS[args.command](args)
    except ToricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
