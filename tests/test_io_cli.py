"""File formats, CLI behavior, SVG output."""

import json
import subprocess
import sys
import time

import pytest

from toricmult.cli import run_cli
from toricmult.errors import BudgetExceededError, EmptyInputError, NonPrimitiveRayError, ParseError
from toricmult.multiplication import cokernel_dim
from toricmult.serialization import (
    CSV_HEADER,
    ResultRow,
    load_divisor,
    load_fan,
    sweep_rows,
    write_csv,
    write_divisor,
    write_fan,
)
from toricmult.reduction import sweep_cokernel
from toricmult.surface import (
    TorusDivisor,
    hirzebruch,
    product_p1_p1,
    projective_plane,
    validate_fan,
)
from toricmult.svg import emit_svg

F2 = hirzebruch(2)
D = TorusDivisor


@pytest.fixture
def f2_file(tmp_path):
    path = tmp_path / "f2.json"
    path.write_text(json.dumps({"rays": [[1, 0], [0, 1], [-1, 2], [0, -1]]}))
    return str(path)


@pytest.fixture
def l_file(tmp_path):
    path = tmp_path / "L.json"
    path.write_text(json.dumps({"coeffs": [1, 0, 1, 1], "label": "L"}))
    return str(path)


@pytest.fixture
def e_file(tmp_path):
    path = tmp_path / "E.json"
    path.write_text(json.dumps({"coeffs": [0, 1, 0, 0]}))
    return str(path)


class TestLoadres:
    def test_load_fan(self, f2_file):
        assert load_fan(f2_file) == F2

    def test_load_divisor(self, l_file):
        assert load_divisor(l_file) == D((1, 0, 1, 1))

    def test_round_trip(self, tmp_path):
        fan_path = tmp_path / "fan.json"
        div_path = tmp_path / "div.json"
        write_fan(F2, fan_path)
        write_divisor(D((1, 2, 3, 4)), div_path, label="x")
        assert load_fan(fan_path) == F2
        assert load_divisor(div_path) == D((1, 2, 3, 4))

    def test_non_primitive_ray_diagnosed(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rays": [[2, 0], [0, 1], [-1, -1]]}))
        with pytest.raises(NonPrimitiveRayError):
            load_fan(path)

    def test_parse_error_has_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"rays": [[1, 0], [0, 1],')
        with pytest.raises(ParseError) as exc:
            load_fan(path)
        assert "line" in str(exc.value)

    def test_schema_errors(self, tmp_path):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps({"rays": [[1, 0, 3]]}))
        with pytest.raises(ParseError):
            load_fan(path)
        path.write_text(json.dumps({"coeffs": ["a"]}))
        with pytest.raises(ParseError):
            load_divisor(path)

    @pytest.mark.parametrize(
        "load, data, message",
        [
            (load_fan, {"rays": []}, "'rays' must be a nonempty array"),
            (load_fan, {"rays": 5}, "'rays' must be a nonempty array"),
            (load_fan, [[1, 0], [0, 1], [-1, -1]], "expected an object with a 'rays' field"),
            (load_fan, {"ray": [[1, 0]]}, "expected an object with a 'rays' field"),
            (load_divisor, [1, 2, 3], "expected an object with a 'coeffs' field"),
            (load_divisor, {"coeffs": [1, 2], "label": 3}, "'label' must be a string when present"),
        ],
    )
    def test_schema_refusals_name_the_file_and_field(self, tmp_path, load, data, message):
        path = tmp_path / "odd.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ParseError) as exc:
            load(path)
        assert str(exc.value) == f"{path}: {message}"


class TestCsv:
    def row(self, **kw):
        base = dict(
            fan_id="1 0;0 1;-1 2;0 -1",
            L_coeffs=(1, 0, 1, 1),
            E_coeffs=(0, 1, 0, 0),
            h0_L=8,
            h0_E=1,
            h0_sum=9,
            sumset_size=8,
            coker_dim=1,
            surjective=False,
            structured_fallbacks=0,
            seed=7,
        )
        base.update(kw)
        return ResultRow(**base)

    def test_single_row(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv([self.row()], path)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == CSV_HEADER
        assert lines[1].startswith("1 0;0 1;-1 2;0 -1,1|0|1|1,0|1|0|0,8,1,9,8,1,false,0,7")

    def test_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        write_csv([], path)
        assert path.read_text() == CSV_HEADER + "\n"

    def test_filter_sweep_rows(self, tmp_path):
        sweep = sweep_cokernel(F2, D((1, 0, 1, 1)), e_max=30, filter_pattern="0,k,0,0", seed=1)
        rows = sweep_rows(F2, sweep)
        assert len(rows) == 30
        assert all(r.coker_dim == 1 and not r.surjective for r in rows)
        path = tmp_path / "sweep.csv"
        write_csv(rows, path)
        assert len(path.read_text().splitlines()) == 31


class TestSvg:
    def test_p2_no_missing(self, tmp_path):
        p2 = projective_plane()
        l_div, e_div = D((0, 0, 1)), D((0, 0, 1))
        report = cokernel_dim(p2, l_div, e_div)
        out = tmp_path / "fig.svg"
        emit_svg(p2, (l_div, e_div), report, out)
        text = out.read_text()
        assert text.startswith("<?xml")
        assert text.count("<circle") == 6  # all lattice dots, no highlights
        assert "polygon" in text

    def test_f2_missing_highlighted(self, tmp_path):
        l_div, e_div = D((1, 0, 1, 1)), D((0, 1, 0, 0))
        report = cokernel_dim(F2, l_div, e_div)
        out = tmp_path / "fig.svg"
        emit_svg(F2, (l_div, e_div), report, out)
        text = out.read_text()
        assert "#c0392b" in text  # the missing point marker

    def test_deterministic_bytes(self, tmp_path):
        l_div, e_div = D((1, 0, 1, 1)), D((0, 1, 0, 0))
        report = cokernel_dim(F2, l_div, e_div)
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg(F2, (l_div, e_div), report, a)
        emit_svg(F2, (l_div, e_div), report, b)
        assert a.read_bytes() == b.read_bytes()

    def test_empty_polygon_refused(self, tmp_path):
        p2 = projective_plane()
        with pytest.raises(EmptyInputError):
            emit_svg(p2, (D((0, 0, -1)), D((0, 0, 1))), None, tmp_path / "no.svg")

    def test_a_segment_factor_is_drawn_as_a_line(self, tmp_path):
        # P_L of (1,0,0,0) on P1xP1 is the segment from (-1, 0) to (0, 0); the canvas
        # starts a unit left of P_{L+E}, at x = -3, and ends a unit above it, at y = 2
        l_div, e_div = D((1, 0, 0, 0)), D((1, 1, 1, 1))
        out = tmp_path / "fig.svg"
        emit_svg(product_p1_p1(), (l_div, e_div), None, out)
        lines = [line for line in out.read_text().splitlines() if line.startswith("<line")]
        assert lines == [
            '<line x1="64.00" y1="64.00" x2="96.00" y2="64.00" '
            'fill="none" stroke="#202020" stroke-width="2" stroke-dasharray="6 3"/>'
        ]

    def test_a_point_factor_is_drawn_as_a_circle(self, tmp_path):
        # P_L of (0,0,0) on P2 is the origin, P_{L+E} conv{(-1, 0), (0, 0), (-1, 1)}
        out = tmp_path / "fig.svg"
        emit_svg(projective_plane(), (D((0, 0, 0)), D((1, 0, 0))), None, out)
        text = out.read_text()
        assert text.count('r="5"') == 1 and "<line" not in text
        assert '<circle cx="64.00" cy="64.00" r="5" fill="none" stroke="#202020"' in text

    def test_point_budget_refuses_before_listing(self, monkeypatch, tmp_path):
        # P2 (1000,1000,1000)^2: about 1.8 * 10^7 points of P_{L+E}
        def listed(poly):
            raise RuntimeError("the plot listed the lattice points")

        monkeypatch.setattr("toricmult.svg.lattice_points", listed)
        d = D((1000, 1000, 1000))
        start = time.perf_counter()
        with pytest.raises(BudgetExceededError, match=r"^the sum polygon has over 1000000 lattice"):
            emit_svg(projective_plane(), (d, d), None, tmp_path / "no.svg")
        assert time.perf_counter() - start < 1
        assert not (tmp_path / "no.svg").exists()


class TestCli:
    def test_fan_check(self, f2_file, capsys):
        assert run_cli(["fan-check", f2_file]) == 0
        assert capsys.readouterr().out.strip() == "valid: smooth complete, 4 rays"

    def test_fan_check_invalid(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rays": [[2, 0], [0, 1], [-1, -1]]}))
        assert run_cli(["fan-check", str(path)]) == 1
        assert "not primitive" in capsys.readouterr().err

    def test_fan_check_refuses_more_rays_than_the_bound(self, tmp_path, capsys):
        # a smooth complete fan of 13 rays, refused before any other check
        path = tmp_path / "fan13.json"
        rays = [[1, 0]] + [[1, i] for i in range(1, 11)] + [[0, 1], [-1, -1]]
        path.write_text(json.dumps({"rays": rays}))
        start = time.perf_counter()
        assert run_cli(["fan-check", str(path)]) == 1
        assert time.perf_counter() - start < 0.1
        assert "13 rays exceed the bound of 12" in capsys.readouterr().err

    def test_h0_and_classify(self, f2_file, l_file, capsys):
        assert run_cli(["h0", f2_file, l_file]) == 0
        assert capsys.readouterr().out.strip() == "8"
        assert run_cli(["classify", f2_file, l_file]) == 0
        assert capsys.readouterr().out.strip() == "ample"

    def test_cokernel_golden(self, f2_file, l_file, e_file, capsys):
        assert run_cli(["cokernel", f2_file, l_file, e_file]) == 0
        out = capsys.readouterr().out
        assert "coker_dim: 1" in out
        assert "missing: (-1, -1)" in out

    def test_verify_both(self, f2_file, l_file, tmp_path, capsys):
        gg = tmp_path / "gg.json"
        gg.write_text(json.dumps({"coeffs": [1, 1, 1, 1]}))
        assert run_cli(["verify", f2_file, l_file, str(gg), "--mode", "both"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "surjective: true"
        assert lines[1:4] == ["total points: 24", "decomposed: 24", "structured fallbacks: 0"]
        # one histogram line per certificate path, in declaration order
        assert lines[4:] == [
            "path interior_vertex: 23",
            "path boundary_lattice: 1",
            "path triangle_region_A: 0",
            "path triangle_region_B: 0",
            "path triangle_region_C: 0",
            "path fallback_search: 0",
        ]

    def test_verify_bad_hypotheses_is_domain_error(self, f2_file, l_file, e_file, capsys):
        code = run_cli(["verify", f2_file, l_file, e_file, "--mode", "structured"])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_reduce(self, f2_file, e_file, tmp_path, capsys):
        out_path = tmp_path / "reduced.json"
        assert run_cli(["reduce", f2_file, e_file, "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "reduced: (0, 0, 0, 0)" in out
        assert "[2]" in out
        assert load_divisor(out_path) == D((0, 0, 0, 0))

    def test_reduce_out_refuses_a_divisor_no_verb_could_read(self, tmp_path, capsys):
        # E' = (-10^6, -2 * 10^6, ...) is admitted as a derived divisor, but a file
        # holding it would fail load_divisor's input bound
        fan_path, e_path, out_path = (tmp_path / n for n in ("fan.json", "E.json", "E2.json"))
        write_fan(validate_fan([(1, 0), (2, 1), (1, 1), (0, 1), (-1, -1)]), fan_path)
        write_divisor(D((-(10**6), -(10**6), -(10**6), 0, 10**6)), e_path)
        assert run_cli(["reduce", str(fan_path), str(e_path), "--out", str(out_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: divisor coefficient -2000000 exceeds |value| <= 1000000\n"
        assert not out_path.exists()

    def test_gen_matches_library(self, capsys):
        assert run_cli(["gen", "f2"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"rays": [[1, 0], [0, 1], [-1, 2], [0, -1]]}

    def test_gen_out_writes_the_fan_file(self, tmp_path, capsys):
        path = tmp_path / "f2.json"
        assert run_cli(["gen", "f2", "--out", str(path)]) == 0
        assert capsys.readouterr().out == f"wrote {path}\n"
        assert load_fan(path) == F2

    @pytest.mark.parametrize(
        "descriptor, message",
        [
            ("f²", "bad hirzebruch parameter '²'"),
            ("hirzebruch(²)", "bad hirzebruch parameter '²'"),
            ("blowup(p2, ²)", "bad corner index '²'"),
            ("f٣", "bad hirzebruch parameter '٣'"),  # an Arabic-Indic 3, not F3
            ("f" + "9" * 5000, "bad hirzebruch parameter '999"),  # over int's 4,300 digits
        ],
    )
    def test_gen_refuses_non_ascii_and_oversized_integers(self, descriptor, message, capsys):
        assert run_cli(["gen", descriptor]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {message}")

    @pytest.mark.parametrize(
        "entry, message",
        [("²", "bad filter entry '²'"), ("1000001", "bad filter entry '1000001', not an integer")],
    )
    def test_sweep_refuses_a_bad_filter_entry(self, f2_file, l_file, entry, message, capsys):
        argv = ["sweep", str(f2_file), str(l_file), "--max-coeff", "4", "--seed", "1"]
        assert run_cli([*argv, "--filter", f"0,k,0,{entry}"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(f"error: {message}")

    def test_usage_error_exit_2(self):
        assert run_cli(["sweep"]) == 2
        assert run_cli(["frobnicate"]) == 2

    def test_missing_file_domain_error(self, capsys):
        assert run_cli(["fan-check", "/nonexistent/fan.json"]) == 1

    def test_sweep_writes_csv(self, f2_file, l_file, tmp_path, capsys):
        out_path = tmp_path / "rows.csv"
        code = run_cli(
            [
                "sweep", f2_file, l_file,
                "--max-coeff", "30", "--filter", "0,k,0,0",
                "--seed", "9", "--out", str(out_path),
            ]
        )
        assert code == 0
        lines = out_path.read_text().splitlines()
        assert len(lines) == 31
        assert lines[0] == CSV_HEADER
        assert all(line.split(",")[8] == "false" for line in lines[1:])

    def test_sweep_out_into_a_missing_directory_prints_nothing(
        self, f2_file, l_file, tmp_path, capsys
    ):
        out_path = tmp_path / "missing" / "rows.csv"
        argv = ["sweep", f2_file, l_file, "--max-coeff", "4", "--seed", "1", "--out", str(out_path)]
        assert run_cli(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: [Errno 2]")
        assert not out_path.exists()

    def test_sweep_rejects_jobs_below_one(self, f2_file, l_file, capsys):
        code = run_cli(
            ["sweep", f2_file, l_file, "--max-coeff", "2", "--seed", "1", "--jobs", "0"]
        )
        assert code == 1
        assert "error: jobs must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("budget", ["0", "-5"])
    def test_sweep_rejects_budget_below_one(self, f2_file, l_file, capsys, monkeypatch, budget):
        # refused before any instance runs, not as "no instances with sections"
        import toricmult.reduction as reduction

        monkeypatch.setattr(reduction, "_sweep_instance", lambda coeffs: pytest.fail("ran"))
        code = run_cli(
            ["sweep", f2_file, l_file, "--max-coeff", "2", "--seed", "1", "--budget", budget]
        )
        assert code == 1
        assert capsys.readouterr().err == f"error: budget must be >= 1, got {budget}\n"

    def test_sweep_refuses_a_family_before_listing_it(self, f2_file, l_file, capsys):
        # 3 * 10^7 instances would not fit in memory
        start = time.perf_counter()
        code = run_cli(
            [
                "sweep", f2_file, l_file, "--filter", "0,k,0,0",
                "--max-coeff", "30000000", "--seed", "1",
            ]
        )
        assert time.perf_counter() - start < 1
        assert code == 1
        assert capsys.readouterr().err == (
            "error: maximum coefficient 30000000 exceeds |value| <= 1000000\n"
        )

    def test_plot(self, f2_file, l_file, e_file, tmp_path):
        out_path = tmp_path / "fig.svg"
        assert run_cli(["plot", f2_file, l_file, e_file, "--out", str(out_path)]) == 0
        assert out_path.read_text().startswith("<?xml")

    def test_plot_into_a_missing_directory_fails(self, f2_file, l_file, e_file, tmp_path, capsys):
        out_path = tmp_path / "missing" / "fig.svg"
        assert run_cli(["plot", f2_file, l_file, e_file, "--out", str(out_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("error: [Errno 2]")
        assert not out_path.exists()

    def test_plot_refuses_over_the_point_budget(self, tmp_path, capsys):
        # P2 (1000,1000,1000)^2 passes the cokernel's pair budget (3,001 x 3,001
        # column pairs); it is refused before that sweep runs
        fan_path, d_path = tmp_path / "p2.json", tmp_path / "d.json"
        write_fan(projective_plane(), fan_path)
        write_divisor(D((1000, 1000, 1000)), d_path)
        out_path = tmp_path / "fig.svg"
        start = time.perf_counter()
        code = run_cli(["plot", str(fan_path), str(d_path), str(d_path), "--out", str(out_path)])
        assert time.perf_counter() - start < 1
        assert code == 1
        assert "over 1000000 lattice points" in capsys.readouterr().err
        assert not out_path.exists()

    def test_sampled_sweep_stays_within_its_budget(self, tmp_path, capsys):
        # 20,001 strata against a budget of 10: the strata that get an
        # instance are drawn, so the run stays small and quick
        fan_path, l_path = tmp_path / "p2.json", tmp_path / "L.json"
        write_fan(projective_plane(), fan_path)
        write_divisor(D((1, 1, 1)), l_path)
        args = ["--max-coeff", "20000", "--budget", "10", "--seed", "1"]
        start = time.perf_counter()
        code = run_cli(["sweep", str(fan_path), str(l_path), *args])
        assert time.perf_counter() - start < 5
        assert code == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert first.startswith("instances: ") and 1 <= int(first.split()[-1]) <= 10


class TestCliDeterminism:
    def test_sweep_byte_identical_and_parallel(self, tmp_path):
        fan_path = tmp_path / "f2.json"
        l_path = tmp_path / "L.json"
        write_fan(F2, fan_path)
        write_divisor(D((1, 0, 1, 1)), l_path)
        outs = []
        for name, jobs in [("a.csv", "1"), ("b.csv", "1"), ("c.csv", "2")]:
            out = tmp_path / name
            cmd = [
                sys.executable, "-m", "toricmult.cli",
                "sweep", str(fan_path), str(l_path),
                "--max-coeff", "6", "--budget", "120", "--seed", "31",
                "--jobs", jobs, "--out", str(out),
            ]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            assert proc.returncode == 0, proc.stderr
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_package_runs_as_a_module(self, f2_file, l_file):
        proc = subprocess.run(
            [sys.executable, "-m", "toricmult", "h0", f2_file, l_file],
            capture_output=True, text=True,
        )
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "8\n", "")
