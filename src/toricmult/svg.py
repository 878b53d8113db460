"""Standalone SVG rendering of divisor polygons and their lattice points.

The figure shows the sum polygon, the first factor's polygon, all lattice
points of the sum, and any undecomposable points with a distinct marker.
Layout is fixed (32 px per lattice unit, one unit of margin, y axis up), so
identical inputs produce byte-identical files.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path
from typing import Sequence

from .errors import EmptyInputError
from .lattice import ConvexLatticePolygon, lattice_points
from .multiplication import CokernelReport, _refuse_over_point_budget
from .surface import Fan, TorusDivisor, _record, polygon_of

SCALE = 32
MARGIN = 1


def _fmt(value: Fraction | int) -> str:
    return f"{float(value):.2f}"


class _Canvas:
    def __init__(self, xmin: Fraction, ymin: Fraction, xmax: Fraction, ymax: Fraction):
        self.xmin = xmin - MARGIN
        self.ymax = ymax + MARGIN
        self.width = (xmax - xmin + 2 * MARGIN) * SCALE
        self.height = (ymax - ymin + 2 * MARGIN) * SCALE

    def x(self, v: Fraction | int) -> str:
        return _fmt((v - self.xmin) * SCALE)

    def y(self, v: Fraction | int) -> str:
        return _fmt((self.ymax - v) * SCALE)


def _polygon_element(canvas: _Canvas, poly: ConvexLatticePolygon, style: str) -> str:
    pts = " ".join(f"{canvas.x(p.x)},{canvas.y(p.y)}" for p in poly.vrep)
    if len(poly.vrep) >= 3:
        return f'<polygon points="{pts}" {style}/>'
    if len(poly.vrep) == 2:
        a, b = poly.vrep
        return (
            f'<line x1="{canvas.x(a.x)}" y1="{canvas.y(a.y)}" '
            f'x2="{canvas.x(b.x)}" y2="{canvas.y(b.y)}" {style}/>'
        )
    p = poly.vrep[0]
    return f'<circle cx="{canvas.x(p.x)}" cy="{canvas.y(p.y)}" r="5" {style}/>'


def emit_svg(
    fan: Fan,
    divisors: Sequence[TorusDivisor],
    report: CokernelReport | None,
    path: str | Path,
) -> None:
    """Render the polygons of (D, E) with the sum's lattice points.

    Missing points from the report are drawn as crossed markers.  Refuses
    empty polygons, and a sum polygon with more than POINT_BUDGET lattice
    points before any is listed.
    """
    if len(divisors) != 2:
        raise EmptyInputError("plotting expects exactly two divisors")
    d, e = divisors
    p_d = polygon_of(fan, d)
    p_sum = polygon_of(fan, d + e)
    if p_d.is_empty() or p_sum.is_empty():
        raise EmptyInputError("cannot plot an empty polygon")
    _refuse_over_point_budget(_record(fan, d + e))
    xs_min, ys_min, xs_max, ys_max = p_sum.bounding_box()
    xd_min, yd_min, xd_max, yd_max = p_d.bounding_box()
    canvas = _Canvas(
        min(xs_min, xd_min), min(ys_min, yd_min), max(xs_max, xd_max), max(ys_max, yd_max)
    )
    missing = set()
    if report is not None:
        missing = {p.as_tuple() for p in report.missing_points}
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(canvas.width)}" '
        f'height="{_fmt(canvas.height)}" viewBox="0 0 {_fmt(canvas.width)} {_fmt(canvas.height)}">',
        f'<rect width="{_fmt(canvas.width)}" height="{_fmt(canvas.height)}" fill="white"/>',
        _polygon_element(
            canvas, p_sum, 'fill="#dce9f5" stroke="#35567a" stroke-width="2"'
        ),
        _polygon_element(
            canvas, p_d, 'fill="none" stroke="#202020" stroke-width="2" stroke-dasharray="6 3"'
        ),
    ]
    for q in lattice_points(p_sum):
        if q.as_tuple() in missing:
            continue
        parts.append(
            f'<circle cx="{canvas.x(q.x)}" cy="{canvas.y(q.y)}" r="3" fill="black"/>'
        )
    for qx, qy in sorted(missing):
        cx, cy = canvas.x(qx), canvas.y(qy)
        parts.append(
            f'<circle cx="{cx}" cy="{cy}" r="6" fill="none" stroke="#c0392b" stroke-width="2"/>'
        )
        parts.append(
            f'<circle cx="{cx}" cy="{cy}" r="2.5" fill="#c0392b"/>'
        )
    parts.append("</svg>")
    Path(path).write_text("\n".join(parts) + "\n", encoding="utf-8", newline="\n")
