"""Command-line interface: report shapes, exit codes, determinism."""

import json
import subprocess
import sys
from fractions import Fraction

import pytest

from bethearr.cli import main

F = Fraction


@pytest.fixture
def gen4_file(tmp_path, generic4):
    path = tmp_path / "gen4.json"
    path.write_text(json.dumps(generic4.to_json()))
    return str(path)


@pytest.fixture
def points3_file(tmp_path, points3):
    path = tmp_path / "points3.json"
    path.write_text(json.dumps(points3.to_json()))
    return str(path)


@pytest.fixture
def gaudin_file(tmp_path, gaudin_3x1):
    path = tmp_path / "g3.json"
    path.write_text(json.dumps(gaudin_3x1.to_json()))
    return str(path)


@pytest.fixture
def parallel_file(tmp_path):
    path = tmp_path / "parallel.json"
    path.write_text(json.dumps({
        "dim": 2,
        "hyperplanes": [
            {"b0": "0/1", "b": ["1/1", "0/1"]},
            {"b0": "1/1", "b": ["1/1", "0/1"]},
        ],
        "exponents": ["1/1", "1/1"],
    }))
    return str(path)


def run_main(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestAnalyze:
    def test_generic4(self, gen4_file, capsys):
        code, out, _ = run_main(["analyze", gen4_file], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["dims"] == [1, 4, 6]
        assert report["chi"] == 3
        assert report["schema_version"] == 1

    def test_points3(self, points3_file, capsys):
        code, out, _ = run_main(["analyze", points3_file], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["dims"] == [1, 3]
        assert report["chi"] == -2

    def test_no_vertex_exits_3(self, parallel_file, capsys):
        code, _, err = run_main(["analyze", parallel_file], capsys)
        assert code == 3
        assert "no vertex" in err

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run_main(["analyze", str(tmp_path / "nope.json")], capsys)
        assert code == 2

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"dim\": 2}")
        code, _, _ = run_main(["analyze", str(path)], capsys)
        assert code == 2

    def test_float_coefficients_are_read_exactly(self, tmp_path, capsys):
        """A generic k=2, n=7 arrangement spelled with JSON floats has the
        generic dims C(7, p) and chi = 15 (Orlik-Terao)."""
        lines = [(-8, 4, -8), (9, -3, -3), (6, 3, -8), (-6, -6, 1),
                 (-4, 7, -1), (-4, 8, -9), (4, -7, -9)]
        path = tmp_path / "float7.json"
        path.write_text(json.dumps({
            "dim": 2,
            "hyperplanes": [{"b0": float(b0), "b": [float(b1), float(b2)]}
                            for b0, b1, b2 in lines],
            "exponents": [1.0] * 7,
        }))
        code, out, _ = run_main(["analyze", str(path)], capsys)
        report = json.loads(out)
        assert code == 0
        assert report["dims"] == [1, 7, 21]
        assert report["chi"] == 15

    @pytest.mark.parametrize("field, value", [
        ("b0", [1.0, 0.5]),
        ("b0", float("nan")),
        ("b", [float("inf"), 1.0]),
        ("b0", "1/0"),
        ("exponent", float("nan")),
    ], ids=["complex-b0", "nan-b0", "inf-b", "zero-denominator-b0", "nan-exponent"])
    def test_non_rational_or_non_finite_input_exits_2(
            self, generic4, tmp_path, capsys, field, value):
        data = generic4.to_json()
        if field == "exponent":
            data["exponents"][0] = value
        else:
            data["hyperplanes"][0][field] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, _, err = run_main(["verify", str(path)], capsys)
        assert code == 2
        assert "input error" in err


class TestCritical:
    def test_finds_three_points(self, gen4_file, capsys):
        code, out, _ = run_main(
            ["critical", gen4_file, "--starts", "200"], capsys
        )
        report = json.loads(out)
        assert code == 0
        assert report["abs_chi"] == 3
        assert len(report["points"]) == 3
        assert all(p["nondegenerate"] for p in report["points"])

    def test_deterministic_reports(self, gen4_file, capsys):
        _, out1, _ = run_main(["critical", gen4_file, "--seed", "5"], capsys)
        _, out2, _ = run_main(["critical", gen4_file, "--seed", "5"], capsys)
        assert out1 == out2

    def test_out_flag_writes_file(self, gen4_file, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run_main(
            ["critical", gen4_file, "--out", str(target)], capsys
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["command"] == "critical"


class TestVerify:
    def test_all_checks_pass(self, gen4_file, capsys):
        code, out, _ = run_main(
            ["verify", gen4_file, "--starts", "200"], capsys
        )
        report = json.loads(out)
        assert code == 0
        assert report["pass"]
        assert all(c["pass"] for c in report["checks"])
        names = {c["name"] for c in report["checks"]}
        assert any(n.startswith("singular_at_critical") for n in names)
        assert any(n.startswith("norm_identity") for n in names)
        assert any(n.startswith("orthogonality") for n in names)
        assert any(n.startswith("control_point") for n in names)


class TestGaudin:
    def test_end_to_end(self, gaudin_file, capsys):
        code, out, _ = run_main(
            ["gaudin", gaudin_file, "--starts", "60"], capsys
        )
        report = json.loads(out)
        assert code == 0
        assert report["pass"]
        assert report["sing_dim"] == 2
        assert report["n_orbits"] == 2
        names = {c["name"] for c in report["checks"]}
        assert "gram_rank_vs_sing_dim" in names
        assert "shapovalov_correspondence" in names

    def test_non_sl2_exits_3(self, tmp_path, capsys):
        path = tmp_path / "rank2.json"
        path.write_text(json.dumps({
            "cartan": {"rank": 2, "A": [[2, -1], [-1, 2]], "d": ["1/1", "1/1"]},
            "weights": [[1, 0]],
            "k": [1, 0],
            "z": ["0/1"],
        }))
        code, _, err = run_main(["gaudin", str(path)], capsys)
        assert code == 3
        assert "sl2" in err

    def test_empty_weight_space_exits_3(self, tmp_path, capsys, gaudin_2x1):
        data = gaudin_2x1.to_json()
        data["k"] = [3]   # k > m_1 + m_2 = 2
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(data))
        code, out, err = run_main(["gaudin", str(path)], capsys)
        assert code == 3
        assert out == ""
        assert "weight space is zero" in err

    @pytest.mark.parametrize("z", [[1.0, 1.0], float("nan")], ids=["complex", "nan"])
    def test_non_rational_marked_point_exits_2(self, gaudin_file, capsys, z):
        with open(gaudin_file) as fh:
            data = json.load(fh)
        data["z"][1] = z
        with open(gaudin_file, "w") as fh:
            json.dump(data, fh)
        code, _, err = run_main(["gaudin", gaudin_file], capsys)
        assert code == 2
        assert "input error" in err


class TestFlags:
    def test_bad_tolerance_exits_2(self, gen4_file, capsys):
        code, _, _ = run_main(
            ["critical", gen4_file, "--tol-newton", "-1"], capsys
        )
        assert code == 2

    @pytest.mark.parametrize("flags", [
        ["--seed", "-1"],
        ["--starts", "-1"],
        ["--out", "missing-dir/report.json"],
    ], ids=["seed", "starts", "out"])
    def test_bad_flag_exits_2(self, gen4_file, tmp_path, capsys, flags):
        if flags[0] == "--out":
            flags = ["--out", str(tmp_path / flags[1])]
        code, out, err = run_main(["critical", gen4_file, "--starts", "5", *flags],
                                  capsys)
        assert code == 2
        assert out == ""
        assert "error" in err

    def test_float_switch_is_gone(self, gen4_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", gen4_file, "--float"])
        assert exc.value.code == 2

    def test_console_script_entry_point(self, gen4_file):
        result = subprocess.run(
            [sys.executable, "-m", "bethearr.cli", "analyze", gen4_file],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["chi"] == 3
