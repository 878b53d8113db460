"""File formats: fan/divisor JSON, result CSV.

Fan file: {"rays": [[x, y], ...]}.  Divisor file: {"coeffs": [a1, ..., an],
"label": "..."} with the label optional.  Bulk results go to a flat CSV with
a fixed header and ``|``-joined coefficient vectors so runs diff cleanly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .errors import ParseError
from .lattice import check_input_coord
from .reduction import SweepResult
from .surface import Fan, TorusDivisor, validate_fan

CSV_HEADER = (
    "fan_id,L_coeffs,E_coeffs,h0_L,h0_E,h0_sum,sumset_size,"
    "coker_dim,surjective,structured_fallbacks,seed"
)


def _load_json(path: str | Path) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(str(path), f"cannot read file: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(str(path), f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc


def _int_pairs(value: object, path: str, field: str) -> list[tuple[int, int]]:
    if not isinstance(value, list) or not value:
        raise ParseError(path, f"'{field}' must be a nonempty array")
    out = []
    for i, item in enumerate(value):
        if (
            not isinstance(item, list)
            or len(item) != 2
            or not all(isinstance(c, int) and not isinstance(c, bool) for c in item)
        ):
            raise ParseError(path, f"'{field}[{i}]' must be a pair of integers")
        out.append((item[0], item[1]))
    return out


def load_fan(path: str | Path) -> Fan:
    """Read and validate a fan file; validation errors propagate as-is."""
    data = _load_json(path)
    if not isinstance(data, dict) or "rays" not in data:
        raise ParseError(str(path), "expected an object with a 'rays' field")
    return validate_fan(_int_pairs(data["rays"], str(path), "rays"))


def load_divisor(path: str | Path) -> TorusDivisor:
    """Read a divisor file; the length check happens at use, not load."""
    data = _load_json(path)
    if not isinstance(data, dict) or "coeffs" not in data:
        raise ParseError(str(path), "expected an object with a 'coeffs' field")
    coeffs = data["coeffs"]
    if not isinstance(coeffs, list) or not all(
        isinstance(c, int) and not isinstance(c, bool) for c in coeffs
    ):
        raise ParseError(str(path), "'coeffs' must be an array of integers")
    label = data.get("label")
    if label is not None and not isinstance(label, str):
        raise ParseError(str(path), "'label' must be a string when present")
    return TorusDivisor(tuple(coeffs))


def write_fan(fan: Fan, path: str | Path) -> None:
    payload = {"rays": [[v.x, v.y] for v in fan.rays]}
    Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def write_divisor(d: TorusDivisor, path: str | Path, label: str | None = None) -> None:
    """Write a divisor file that load_divisor reads back: a derived divisor
    beyond the input bound is refused before the file is opened."""
    for a in d.coeffs:
        check_input_coord(a, "divisor coefficient")
    payload: dict[str, object] = {"coeffs": list(d.coeffs)}
    if label is not None:
        payload["label"] = label
    Path(path).write_text(json.dumps(payload) + "\n", encoding="utf-8")


def fan_json(fan: Fan) -> str:
    return json.dumps({"rays": [[v.x, v.y] for v in fan.rays]})


@dataclass(frozen=True)
class ResultRow:
    """One CSV line of a verification or sweep run."""

    fan_id: str
    L_coeffs: tuple[int, ...]
    E_coeffs: tuple[int, ...]
    h0_L: int
    h0_E: int
    h0_sum: int
    sumset_size: int
    coker_dim: int
    surjective: bool
    structured_fallbacks: int
    seed: int | None

    def to_line(self) -> str:
        return ",".join(
            [
                self.fan_id,
                "|".join(str(c) for c in self.L_coeffs),
                "|".join(str(c) for c in self.E_coeffs),
                str(self.h0_L),
                str(self.h0_E),
                str(self.h0_sum),
                str(self.sumset_size),
                str(self.coker_dim),
                "true" if self.surjective else "false",
                str(self.structured_fallbacks),
                "" if self.seed is None else str(self.seed),
            ]
        )


def write_csv(rows: list[ResultRow], path: str | Path) -> None:
    """Write rows under the fixed header; callers supply canonical order."""
    lines = [CSV_HEADER]
    lines.extend(row.to_line() for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def sweep_rows(fan: Fan, sweep: SweepResult) -> list[ResultRow]:
    """CSV rows of a sweep run, one per instance with sections."""
    fan_id = fan.canonical_label()
    rows = []
    for (e, coker), report in zip(sweep.instances, sweep.reports):
        rows.append(
            ResultRow(
                fan_id=fan_id,
                L_coeffs=sweep.fixed_L.coeffs,
                E_coeffs=e.coeffs,
                h0_L=report.h0_D,
                h0_E=report.h0_E,
                h0_sum=report.h0_sum,
                sumset_size=report.sumset_size,
                coker_dim=coker,
                surjective=coker == 0,
                structured_fallbacks=0,
                seed=sweep.seed,
            )
        )
    return rows
