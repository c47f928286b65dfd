"""Command-line interface: report shapes, exit codes, determinism."""

import json
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from bethearr import gaudin as gd
from bethearr import linalg, osflag, shapovalov, special
from bethearr.arrangement import Hyperplane, WeightedArrangement
from bethearr.cli import _scalar, main
from bethearr.master import find_critical_points
from conftest import line

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

    def test_planes_through_a_line_exit_3(self, tmp_path, capsys):
        path = tmp_path / "pencil.json"
        path.write_text(json.dumps({
            "dim": 3,
            "hyperplanes": [{"b0": "0/1", "b": b} for b in
                            (["1/1", "0/1", "0/1"], ["0/1", "1/1", "0/1"],
                             ["1/1", "1/1", "0/1"])],
            "exponents": ["1/1", "1/1", "1/1"],
        }))
        code, _, err = run_main(["analyze", str(path)], capsys)
        assert code == 3
        assert "no vertex" in err

    @pytest.mark.parametrize("b0, dims", [(1, [1, 3, 3]), (0, [1, 2, 1])],
                             ids=["minors-divisible-by-the-prime", "coincide-modulo-the-prime"])
    def test_normals_of_determinant_prime(self, tmp_path, capsys, b0, dims):
        """Normals (46341, 2) and (2317, 46341) have determinant 2^31 - 1.
        With b0 = 1 the certificate holds modulo 2^31 - 1; with both lines
        through the origin the equations agree modulo that prime, and the
        second prime decides."""
        path = tmp_path / "det_prime.json"
        path.write_text(json.dumps({
            "dim": 2,
            "hyperplanes": [{"b0": "0/1", "b": ["46341/1", "2/1"]},
                            {"b0": f"{b0}/1", "b": ["2317/1", "46341/1"]},
                            {"b0": "-1/1", "b": ["1/1", "1/1"]}][:3 if b0 else 2],
            "exponents": ["1/1"] * (3 if b0 else 2),
        }))
        code, out, err = run_main(["analyze", str(path)], capsys)
        assert code == 0 and json.loads(out)["dims"] == dims
        prime = linalg.PRIMES[0] if b0 else linalg.PRIMES[1]
        assert f"1: certificate mod {prime}, 2: certificate mod " in err

    def test_the_summary_names_the_basis_path_of_each_degree(self, gen4_file, tmp_path,
                                                             capsys, gaudin_3x1):
        """The one-per-level basis of a discriminantal arrangement and the
        certificate of a generic one, on stderr only."""
        code, out, err = run_main(["analyze", gen4_file], capsys)
        assert err == ("analyze: dims=[1, 4, 6] chi=3 basis by degree: 0: certificate mod "
                       "2147483647, 1: certificate mod 2147483647, 2: certificate mod "
                       "2147483647\n")
        assert "certificate" not in out
        path = tmp_path / "disc.json"
        path.write_text(json.dumps(gaudin_3x1.arrangement.to_json()))
        code, out, err = run_main(["analyze", str(path)], capsys)
        assert code == 0 and json.loads(out)["dims"] == [1, 3]
        assert err.endswith("basis by degree: 0: levels, 1: levels\n")

    def test_a_certificate_short_at_both_primes_exits_3(self, gen4_file, capsys, monkeypatch):
        monkeypatch.setattr(linalg, "rank_mod_p", lambda rows, prime=linalg.PRIME: 0)
        code, out, err = run_main(["analyze", gen4_file], capsys)
        assert code == 3 and out == ""
        assert err == ("precondition violated: degree 0: the nbc rows fall short of "
                       "full rank modulo 2147483647 and 2147483629\n")

    def test_missing_file_exits_2(self, tmp_path, capsys):
        code, _, err = run_main(["analyze", str(tmp_path / "nope.json")], capsys)
        assert code == 2

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{\"dim\": 2}")
        code, _, _ = run_main(["analyze", str(path)], capsys)
        assert code == 2

    def test_undecodable_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"dim": "\xe9"}')
        code, out, err = run_main(["analyze", str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("input error: ")

    @pytest.mark.parametrize("command", ["analyze", "critical", "verify"])
    def test_malformed_field_reading_no_vertex_exits_2(self, command, generic4, tmp_path,
                                                       capsys):
        """The exit code follows the error's type, not its text."""
        data = generic4.to_json()
        data["hyperplanes"][0]["b0"] = "no vertex"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, out, err = run_main([command, str(path)], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("input error: malformed arrangement JSON: ")
        assert "no vertex" in err

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


@pytest.mark.parametrize("value", [np.bool_(True), object()])
def test_render_rejects_what_a_report_does_not_hold(value):
    with pytest.raises(TypeError):
        json.dumps({"x": [value]}, default=_scalar)


def test_render_passes_none_and_strings_through():
    text = json.dumps({"a": None, "b": "x", "c": (F(1, 2), 1j)}, default=_scalar)
    assert json.loads(text) == {"a": None, "b": "x", "c": ["1/2", [0.0, 1.0]]}


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


    @pytest.mark.parametrize("starts", ["0", "40"])
    def test_point_fields_are_json_bool_and_null(self, gen4_file, generic4, tmp_path,
                                                  capsys, starts):
        """Each point is its CriticalPoint record: nondegenerate a JSON
        boolean and orbit_id null, on the chamber and the multi-start path."""
        path = gen4_file
        if starts != "0":
            arr = WeightedArrangement(2, generic4.hyperplanes, [F(1), F(-1), F(1), F(1)])
            path = tmp_path / "arr.json"
            path.write_text(json.dumps(arr.to_json()))
        _, out, _ = run_main(["critical", str(path), "--starts", starts], capsys)
        points = json.loads(out)["points"]
        assert points
        for p in points:
            assert set(p) == {"t", "grad_residual", "hess_det", "nondegenerate", "orbit_id"}
            assert type(p["nondegenerate"]) is bool
            assert p["orbit_id"] is None

    def test_chamber_path_ignores_the_starts(self, gen4_file, capsys):
        """Unit exponents and simple vertices: one point per bounded chamber,
        with no multi-start search, so --starts 0 finds them all."""
        _, out, _ = run_main(["critical", gen4_file, "--starts", "0"], capsys)
        report = json.loads(out)
        assert len(report["points"]) == report["abs_chi"] == 3
        assert all(p["nondegenerate"] for p in report["points"])

    @pytest.mark.parametrize("case", ["concurrent-lines", "negative-exponent",
                                      "planes-through-a-line"])
    def test_multi_start_path_is_unchanged(self, case, generic4, tmp_path, capsys):
        """A vertex on three lines, a line on three planes (so a vertex on
        four), or an exponent that is not positive, leaves the search to
        find_critical_points, seed and starts included."""
        if case == "concurrent-lines":
            arr = WeightedArrangement(
                2, [line(0, 1, 0), line(0, 0, 1), line(0, 1, 1), line(-3, 1, 2)], [F(1)] * 4)
        elif case == "planes-through-a-line":
            rows = [(0, 1, 0, 0), (0, 0, 1, 0), (0, 1, -1, 0), (0, 0, 0, 1), (-1, 1, 1, 1),
                    (-5, 1, 2, 3)]
            arr = WeightedArrangement(
                3, [Hyperplane(F(r[0]), tuple(map(F, r[1:]))) for r in rows], [F(1)] * 6)
        else:
            arr = WeightedArrangement(2, generic4.hyperplanes, [F(1), F(-1), F(1), F(1)])
        path = tmp_path / "arr.json"
        path.write_text(json.dumps(arr.to_json()))
        _, out, _ = run_main(["critical", str(path), "--seed", "3", "--starts", "40"], capsys)
        expected = [[[z.real, z.imag] for z in cp.t]
                    for cp in find_critical_points(arr, seed=3, n_starts=40)]
        assert expected
        assert [p["t"] for p in json.loads(out)["points"]] == expected


class TestVerify:
    def test_all_checks_pass(self, gen4_file, capsys):
        code, out, _ = run_main(
            ["verify", gen4_file, "--starts", "200"], capsys
        )
        report = json.loads(out)
        assert code == 0
        assert report["pass"]
        assert all(c["pass"] for c in report["checks"])
        names = [c["name"] for c in report["checks"]]
        assert names == [
            "singular_at_critical_0", "norm_identity_0",
            "singular_at_critical_1", "norm_identity_1",
            "singular_at_critical_2", "norm_identity_2",
            *[f"control_point_{i}" for i in range(1, 21)],
            "orthogonality_0_1", "orthogonality_0_2", "orthogonality_1_2",
        ]

    def test_unconverged_points_fail_the_singularity_rows(self, gen4_file, capsys):
        """Points accepted at a loose Newton tolerance are not critical at
        the verify tolerance, so every singular_at_critical row fails, also
        where v(t) is not singular either."""
        code, out, _ = run_main(
            ["verify", gen4_file, "--tol-newton", "1e-4", "--starts", "30"], capsys
        )
        report = json.loads(out)
        assert code == 1
        rows = [c for c in report["checks"] if c["name"].startswith("singular_at_critical_")]
        assert rows
        assert not any(c["pass"] for c in rows)
        assert any(c["lhs"] > 1e-8 for c in rows)


    def test_one_evaluation_and_one_delta(self, gen4_file, capsys, monkeypatch):
        """Every row reads one top_forms evaluation over the critical and
        control points and one d_A_matrix."""
        calls = Counter()

        def counted(module, name):
            original = getattr(module, name)
            return lambda *args, **kwargs: calls.update([name]) or original(*args, **kwargs)

        for module, name in ((osflag, "d_A_matrix"), (shapovalov, "top_forms"),
                             (special, "top_forms")):
            monkeypatch.setattr(module, name, counted(module, name))
        code, out, _ = run_main(["verify", gen4_file], capsys)
        assert code == 0
        assert json.loads(out)["n_points"] == 3
        assert calls == {"d_A_matrix": 1, "top_forms": 1}

    def test_loose_newton_tolerance_reports_each_point_once(self, gen4_file, capsys):
        """Duplicates merge at a radius that grows with --tol-newton, so the
        three points are not reported again as their nearby copies."""
        _, out, _ = run_main(
            ["verify", gen4_file, "--tol-newton", "1e-4", "--starts", "30"], capsys
        )
        report = json.loads(out)
        assert report["n_points"] == 3
        rows = [c for c in report["checks"] if c["name"].startswith("orthogonality_")]
        assert len(rows) == 3


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
        names = [c["name"] for c in report["checks"]]
        assert names == [
            "bethe_singular_0", "bethe_norm_0", "bethe_eigenvector_0_K1",
            "bethe_eigenvector_0_K2", "bethe_eigenvector_0_K3", "bethe_orthogonality_0_0",
            "bethe_singular_1", "bethe_norm_1", "bethe_eigenvector_1_K1",
            "bethe_eigenvector_1_K2", "bethe_eigenvector_1_K3", "bethe_orthogonality_1_0",
            "gram_rank_vs_sing_dim", "shapovalov_correspondence",
            "canonical_element_0", "canonical_element_1", "canonical_element_2",
        ]

    @pytest.mark.parametrize("weights, k, sing_dim", [
        ((2, 2), 2, 1), ((2, 2, 2), 2, 3), ((1, 1, 1, 1), 2, 2), ((2, 2, 2), 3, 1)])
    def test_rows_in_order_and_passing(self, tmp_path, capsys, weights, k, sing_dim):
        """Per orbit idx: bethe_singular_idx, bethe_norm_idx, one
        bethe_eigenvector_idx_Ks per marked point and one
        bethe_orthogonality_idx_o per other orbit; then the Gram row, and at
        k <= 3 the correspondence row and one canonical_element row per pair
        of the first two orbits.  All pass, and the exit code is 0."""
        path = tmp_path / "problem.json"
        path.write_text(json.dumps({
            "cartan": {"rank": 1, "A": [[2]]},
            "weights": [[m] for m in weights],
            "k": [k],
            "z": [f"{z}/1" for z in (0, 1, 3, 7)[:len(weights)]],
        }))
        code, out, _ = run_main(["gaudin", str(path)], capsys)
        report = json.loads(out)
        orbits = report["n_orbits"]
        assert orbits == report["sing_dim"] == sing_dim
        names = []
        for idx in range(orbits):
            names += [f"bethe_singular_{idx}", f"bethe_norm_{idx}"]
            names += [f"bethe_eigenvector_{idx}_K{s + 1}" for s in range(len(weights))]
            names += [f"bethe_orthogonality_{idx}_{o}" for o in range(orbits - 1)]
        names += ["gram_rank_vs_sing_dim", "shapovalov_correspondence"]
        names += [f"canonical_element_{i}" for i in range(3 if orbits > 1 else 1)]
        assert [c["name"] for c in report["checks"]] == names
        assert all(c["pass"] for c in report["checks"]) and report["pass"]
        assert code == 0

    def test_one_arrangement_and_one_set_of_hamiltonians(self, gaudin_file, capsys,
                                                           monkeypatch):
        """A run builds the discriminantal arrangement once and each of the
        n = 3 Hamiltonians once, however many checks read them."""
        calls = Counter()

        def counted(name):
            original = getattr(gd, name)
            return lambda *args: calls.update([name]) or original(*args)

        for name in ("build_discriminantal", "gaudin_hamiltonian"):
            monkeypatch.setattr(gd, name, counted(name))
        code, _, _ = run_main(["gaudin", gaudin_file], capsys)
        assert code == 0
        assert calls == {"build_discriminantal": 1, "gaudin_hamiltonian": 3}

    def test_one_elimination_of_the_raising_matrix(self, gaudin_file, capsys, monkeypatch):
        """sing_dim, bethe_roots and the Gram row all read the problem's one
        exact kernel of the raising matrix."""
        calls = Counter()

        def counted(name):
            original = getattr(linalg, name)
            return lambda *args, **kwargs: calls.update([name]) or original(*args, **kwargs)

        for name in ("nullspace", "rank"):
            monkeypatch.setattr(linalg, name, counted(name))
        code, _, _ = run_main(["gaudin", gaudin_file], capsys)
        assert code == 0
        assert calls == {"nullspace": 1}

    def test_missing_bethe_vectors_exit_1(self, gaudin_file, capsys):
        """With no Newton starts no Bethe vector is found, so the Gram row
        compares rank 0 with dim Sing = 2 and fails."""
        code, out, _ = run_main(["gaudin", gaudin_file, "--starts", "0"], capsys)
        report = json.loads(out)
        assert code == 1
        assert not report["pass"]
        assert (report["n_orbits"], report["sing_dim"]) == (0, 2)
        gram = next(c for c in report["checks"] if c["name"] == "gram_rank_vs_sing_dim")
        assert (gram["lhs"], gram["rhs"], gram["pass"]) == (0, 2, False)

    def test_k3_orbit_from_the_spectrum(self, tmp_path, capsys):
        """m = (2, 2, 2), k = 3, z = (0, 1, 3), where multi-start Newton finds
        no critical point: the spectrum of the Hamiltonians gives the one
        orbit."""
        path = tmp_path / "m222k3.json"
        path.write_text(json.dumps({
            "cartan": {"rank": 1, "A": [[2]]},
            "weights": [[2], [2], [2]],
            "k": [3],
            "z": ["0/1", "1/1", "3/1"],
        }))
        start = time.process_time()
        code, out, _ = run_main(["gaudin", str(path)], capsys)
        assert time.process_time() - start < 5
        report = json.loads(out)
        assert code == 0
        assert report["n_orbits"] == report["sing_dim"] == 1
        assert len(report["checks"]) == 8
        assert all(c["pass"] for c in report["checks"])

    def test_repeated_eigenvalue_exits_1(self, gaudin_file, capsys, monkeypatch):
        """A repeated eigenvalue of the Hamiltonian combination mixes the two
        Bethe vectors; no root is read off and the Gram row fails."""
        eig = np.linalg.eig

        def repeated(a):
            w, v = eig(a)
            return np.full(2, w[0]), np.column_stack([v[:, 0] + v[:, 1], v[:, 0] - v[:, 1]])

        monkeypatch.setattr(np.linalg, "eig", repeated)
        code, out, _ = run_main(["gaudin", gaudin_file], capsys)
        report = json.loads(out)
        assert code == 1
        assert (report["n_orbits"], report["sing_dim"]) == (0, 2)
        gram = next(c for c in report["checks"] if c["name"] == "gram_rank_vs_sing_dim")
        assert (gram["lhs"], gram["rhs"], gram["pass"]) == (0, 2, False)

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

    def test_complex_weight_exits_3(self, tmp_path, capsys):
        path = tmp_path / "complex_weight.json"
        path.write_text(json.dumps({
            "cartan": {"rank": 1, "A": [[2]]},
            "weights": [[[1, 0]], ["1"]],
            "k": [1],
            "z": ["0/1", "1/1"],
        }))
        code, out, err = run_main(["gaudin", str(path)], capsys)
        assert code == 3
        assert out == ""
        assert "module-level checks require sl2 data" in err

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


@pytest.mark.parametrize("field", ["k", "cartan.rank", "cartan.A", "dim"])
def test_non_integral_integer_field_exits_2(field, gaudin_2x1, generic4, tmp_path, capsys):
    """Integer fields are not truncated: 1.5 is an input error, not 1."""
    if field == "dim":
        command, data = "analyze", generic4.to_json()
        data["dim"] = 2.9
    else:
        command, data = "gaudin", gaudin_2x1.to_json()
        if field == "k":
            data["k"] = [1.5]
        elif field == "cartan.rank":
            data["cartan"]["rank"] = 1.7
        else:
            data["cartan"]["A"] = [[2.5]]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))
    code, out, err = run_main([command, str(path)], capsys)
    assert code == 2
    assert out == ""
    assert "not an integer" in err


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
