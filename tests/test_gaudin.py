"""sl2 Gaudin model: discriminantal compilation, Bethe equations, canonical
weight function, tensor Shapovalov form, Hamiltonians, and the module/flag
correspondence."""

import itertools
import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bethearr import gaudin as gd
from bethearr.gaudin import (CartanDatum, GaudinProblem, bethe_eigenvalue,
                             bethe_roots, build_discriminantal,
                             canonical_weight_function, composition_flag,
                             composition_gram, gaudin_hamiltonian, module_shapovalov_value,
                             point_hyperplane_index, raising_matrix,
                             singular_dimension, tensor_shapovalov, verify_bethe,
                             verify_canonical_element,
                             verify_shap_correspondence, weight_basis)
from bethearr.arrangement import WeightedArrangement
from bethearr.master import (CriticalPoint, find_critical_points, group_orbits, log_grad,
                             newton_solve)
from bethearr.osflag import flag_vector
from bethearr.shapovalov import shapovalov_form
from bethearr.special import full_symmetric_action, specialize
from conftest import negated_diagonals
import os_oracle
from os_oracle import symmetric_group

F = Fraction


class TestCartanDatum:
    def test_sl2(self, sl2):
        assert sl2.bilinear(0, 0) == 2

    def test_rejects_bad_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            CartanDatum(1, ((3,),), (F(1),))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            CartanDatum(2, ((2, -1), (-2, 2)), (F(1), F(1)))

    def test_b2_datum_accepted(self):
        # rank 2 with d = (1, 1/2) symmetrizes A = [[2,-2],[-1,2]]
        datum = CartanDatum(2, ((2, -2), (-1, 2)), (F(1, 2), F(1)))
        assert datum.bilinear(0, 1) == datum.bilinear(1, 0) == -1


class TestGaudinProblem:
    def test_rejects_repeated_z(self, sl2):
        with pytest.raises(ValueError, match="distinct"):
            GaudinProblem(sl2, ((1,), (1,)), (1,), (F(0), F(0)))

    def test_level_function(self):
        datum = CartanDatum(2, ((2, -1), (-1, 2)), (F(1), F(1)))
        p = GaudinProblem(datum, ((1, 0),), (2, 1), (F(0),))
        assert [p.level(i) for i in range(3)] == [0, 0, 1]

    def test_integral_k_entries_are_stored_as_ints(self, sl2):
        """k = (2.0,) is accepted as (2,), so k_1!...k_r! is defined."""
        p = GaudinProblem(sl2, ((2,), (2,)), (2.0,), (F(0), F(1)))
        assert p.kvec == (2,) and type(p.kvec[0]) is int
        assert verify_shap_correspondence(p)["pass"]

    def test_json_round_trip(self, gaudin_3x1):
        again = GaudinProblem.from_json(
            json.loads(json.dumps(gaudin_3x1.to_json()))
        )
        assert again == gaudin_3x1

    def test_malformed_json(self):
        with pytest.raises(ValueError, match="malformed"):
            GaudinProblem.from_json({"weights": []})


class TestDiscriminantal:
    def test_exponents_k1(self, gaudin_2x1):
        arr = build_discriminantal(gaudin_2x1)
        assert arr.n == 2
        assert arr.exponents == (F(-1), F(-1))

    def test_exponents_k2(self, gaudin_2x2):
        arr = build_discriminantal(gaudin_2x2)
        # 4 point hyperplanes with exponent -2, one diagonal with exponent +2
        assert arr.n == 5
        assert arr.exponents == (F(-2),) * 4 + (F(2),)
        assert arr.hyperplanes[-1].b == (F(1), F(-1))

    def test_k0_rejected(self, sl2):
        p = GaudinProblem(sl2, ((1,),), (0,), (F(0),))
        with pytest.raises(ValueError):
            build_discriminantal(p)

    def test_point_index_layout(self, gaudin_2x2):
        arr = build_discriminantal(gaudin_2x2)
        for i in range(2):
            for s in range(2):
                h = arr.hyperplanes[point_hyperplane_index(gaudin_2x2, i, s)]
                assert h.label == f"t{i+1}-z{s+1}"


class TestBetheResidual:
    def test_symmetric_midpoint_root(self, gaudin_2x1):
        assert os_oracle.bethe_residual(gaudin_2x1, (F(1, 2),)) == [F(0)]
        assert log_grad(build_discriminantal(gaudin_2x1), (F(1, 2),)) == [F(0)]

    def test_collision_rejected(self, gaudin_2x1):
        with pytest.raises(ValueError, match="collides"):
            os_oracle.bethe_residual(gaudin_2x1, (F(0),))

    def test_k0_empty(self, sl2):
        p = GaudinProblem(sl2, ((1,),), (0,), (F(0),))
        assert os_oracle.bethe_residual(p, ()) == []

    @settings(max_examples=30, deadline=None)
    @given(st.fractions(min_value=F(-9), max_value=F(9), max_denominator=7),
           st.fractions(min_value=F(-9), max_value=F(9), max_denominator=7))
    def test_equals_discriminantal_log_grad(self, x, y):
        problem = GaudinProblem(
            CartanDatum.sl2(), ((2,), (2,)), (2,), (F(0), F(1))
        )
        t = (x + F(1, 101), y - F(1, 103))
        arr = build_discriminantal(problem)
        if arr.contains_point(t):
            return
        assert os_oracle.bethe_residual(problem, t) == log_grad(arr, t)


class TestModules:
    def test_shapovalov_diagonal(self, sl2):
        for m, diagonal in [(1, [1, 1]), (2, [1, 2, 4])]:
            p = GaudinProblem(sl2, ((m,),), (m,), (F(0),))
            assert [module_shapovalov_value(p, (j,)) for j in range(m + 1)] == diagonal

    def test_weight_basis_respects_bounds(self, gaudin_2x2):
        assert weight_basis(gaudin_2x2) == [(0, 2), (1, 1), (2, 0)]

    def test_weight_basis_truncated(self, sl2):
        p = GaudinProblem(sl2, ((1,), (3,)), (2,), (F(0), F(1)))
        assert weight_basis(p) == [(0, 2), (1, 1)]

    def test_raising_matrix_entries(self, gaudin_2x1):
        # e (Fv x v) = 1 * v x v, e (v x Fv) = 1 * v x v
        assert raising_matrix(gaudin_2x1) == [[F(1), F(1)]]

    def test_singular_dimensions(self, gaudin_2x1, gaudin_3x1, gaudin_2x2):
        assert singular_dimension(gaudin_2x1) == 1
        # V1 x V1 x V1 = V3 + 2 V1: Sing at weight 1 has dim 2
        assert singular_dimension(gaudin_3x1) == 2
        # V2 x V2 = V4 + V2 + V0: Sing at weight 0 has dim 1
        assert singular_dimension(gaudin_2x2) == 1


class TestCanonicalWeightFunction:
    def test_k1_two_slots(self, gaudin_2x1):
        t = (F(1, 3),)
        w = canonical_weight_function(gaudin_2x1, t)
        assert w.basis == ((0, 1), (1, 0))
        assert w.coords == (1 / (t[0] - F(1)), 1 / t[0])

    def test_single_slot_k1(self, sl2):
        p = GaudinProblem(sl2, ((2,),), (1,), (F(5),))
        w = canonical_weight_function(p, (F(2),))
        assert w.coords == (F(1) / (F(2) - F(5)),)

    def test_single_slot_k2_two_permutations(self, sl2):
        p = GaudinProblem(sl2, ((2,),), (2,), (F(0),))
        t = (F(1, 2), F(1, 5))
        w = canonical_weight_function(p, t)
        expected = 1 / ((t[0] - t[1]) * (t[1] - p.z[0])) + \
            1 / ((t[1] - t[0]) * (t[0] - p.z[0]))
        assert w.coords == (expected,)

    def test_symmetric_under_coordinate_swap(self, gaudin_2x2):
        t = (F(1, 3), F(5, 2))
        w1 = canonical_weight_function(gaudin_2x2, t)
        w2 = canonical_weight_function(gaudin_2x2, (t[1], t[0]))
        assert w1.coords == w2.coords

    def test_k0_trivial(self, sl2):
        p = GaudinProblem(sl2, ((1,), (2,)), (0,), (F(0), F(1)))
        w = canonical_weight_function(p, ())
        assert w.coords == (F(1),)

    @pytest.mark.parametrize("weights, k", [
        ((1, 1, 1), 1), ((2, 2), 2), ((2, 2, 2), 2), ((2, 2, 2), 3), ((1,) * 6, 3),
        ((2, 1, 2), 2), ((3, 1), 3), ((1,) * 8, 4), ((2, 2, 2, 2), 4),
    ])
    def test_matches_the_permutation_sum(self, weights, k):
        p = _sl2_problem(weights, k, [s * s - 2 for s in range(len(weights))])
        t = tuple(F(2 * i + 1, 7 + i) for i in range(k))
        assert canonical_weight_function(p, t) == os_oracle.canonical_weight_function(p, t)
        tc = tuple(complex(x, 1 / (i + 2)) for i, x in enumerate(t))
        new = np.array(canonical_weight_function(p, tc).coords, dtype=complex)
        old = np.array(os_oracle.canonical_weight_function(p, tc).coords, dtype=complex)
        assert np.linalg.norm(new - old) <= 1e-13 * np.linalg.norm(old)

    def test_collision_with_a_marked_point_raises(self, gaudin_2x2):
        with pytest.raises(ValueError, match="t_1 collides with z_1"):
            canonical_weight_function(gaudin_2x2, (F(0), F(1, 2)))
        with pytest.raises(ValueError, match="t_2 collides with z_2"):
            canonical_weight_function(gaudin_2x2, (0.5 + 0j, 1 + 1e-14j))

    def test_regular_on_the_diagonal(self, sl2):
        p = GaudinProblem(sl2, ((2,),), (2,), (F(5),))
        a = F(1, 3)
        assert canonical_weight_function(p, (a, a)).coords == (1 / (a - 5) ** 2,)


class TestTensorShapovalov:
    def test_diagonal_values(self, gaudin_2x2):
        for comp in weight_basis(gaudin_2x2):
            assert module_shapovalov_value(gaudin_2x2, comp) == 4

    @pytest.mark.parametrize("weights", [(m,) for m in range(7)] + [
        (1, 6), (6, 2), (3, 3), (0, 5), (2, 1, 2), (4, 0, 3), (1, 1, 1, 1)])
    def test_closed_form_matches_the_recursion(self, weights):
        p = _sl2_problem(weights, 0, range(len(weights)))
        diagonals = [os_oracle.sl2_shapovalov_diagonal(m) for m in weights]
        for comp in itertools.product(*(range(m + 1) for m in weights)):
            assert module_shapovalov_value(p, comp) == math.prod(
                d[j] for d, j in zip(diagonals, comp))

    def test_zero_past_the_top_of_a_string(self, sl2):
        # F^j v = 0 for j > m
        p = GaudinProblem(sl2, ((2,), (1,)), (1,), (F(0), F(1)))
        assert module_shapovalov_value(p, (3, 0)) == 0
        assert module_shapovalov_value(p, (1, 2)) == 0

    def test_composition_of_the_wrong_length_raises(self, gaudin_2x2):
        for comp in [(2,), (1, 1, 0)]:
            with pytest.raises(ValueError, match="slots"):
                module_shapovalov_value(gaudin_2x2, comp)

    def test_vectors_on_another_basis_raise(self, gaudin_2x1, gaudin_2x2):
        from bethearr.gaudin import TensorVector
        x = TensorVector(tuple(weight_basis(gaudin_2x1)), (F(1), F(2)))
        y = TensorVector(((1, 0), (0, 1)), (F(-3), F(5)))
        with pytest.raises(ValueError, match="basis mismatch"):
            tensor_shapovalov(gaudin_2x1, x, y)
        with pytest.raises(ValueError, match="basis mismatch"):
            tensor_shapovalov(gaudin_2x1, y, y)
        with pytest.raises(ValueError, match="basis mismatch"):
            tensor_shapovalov(gaudin_2x2, x, x)
        with pytest.raises(ValueError, match="shorter"):
            tensor_shapovalov(gaudin_2x1, x, TensorVector(x.basis, (F(1),)))

    def test_bilinear(self, gaudin_2x1):
        from bethearr.gaudin import TensorVector
        basis = tuple(weight_basis(gaudin_2x1))
        x = TensorVector(basis, (F(1), F(2)))
        y = TensorVector(basis, (F(-3), F(5)))
        # m = 1 modules have unit diagonal, so this is the dot product
        assert tensor_shapovalov(gaudin_2x1, x, y) == F(7)


class TestHamiltonians:
    def test_hand_computed_2x1(self, gaudin_2x1):
        # z = (0, 1): K1 = Omega / (z1 - z2) = -Omega on the weight basis
        assert gaudin_hamiltonian(gaudin_2x1, 0) == [
            [F(1, 2), F(-1)], [F(-1), F(1, 2)],
        ]

    def test_commute_exactly(self, sl2):
        p = GaudinProblem(sl2, ((2,), (1,), (2,)), (2,),
                          (F(0), F(1), F(3)))
        mats = [gaudin_hamiltonian(p, i) for i in range(3)]
        for a, b in itertools.combinations(mats, 2):
            ab = os_oracle.mat_mul(a, b)
            ba = os_oracle.mat_mul(b, a)
            assert ab == ba

    def test_commute_with_raising(self, gaudin_3x1):
        """e_total K_i = K'_i e_total with K'_i on the smaller weight space."""
        e = raising_matrix(gaudin_3x1)
        smaller = GaudinProblem(
            gaudin_3x1.cartan, gaudin_3x1.weights, (0,), gaudin_3x1.z
        )
        for i in range(3):
            k_big = gaudin_hamiltonian(gaudin_3x1, i)
            k_small = gaudin_hamiltonian(smaller, i)
            assert os_oracle.mat_mul(e, k_big) == os_oracle.mat_mul(k_small, e)

    @pytest.mark.parametrize("weights, k", [((2, 1, 2), 2), ((1,) * 6, 3), ((3, 1, 2), 3),
                                            ((2,) * 4, 4)])
    def test_self_adjoint_and_summing_to_zero(self, weights, k):
        """Each K_s is self-adjoint under S_V, which is diagonal on the weight
        basis, and sum_s K_s = 0, since sum_s Omega^(s,u)/(z_s - z_u) cancels
        pairwise; both exactly."""
        p = _sl2_problem(weights, k, (0, 1, 3, 7, -2, 5)[:len(weights)])
        w = list(p.shapovalov_weights.values())
        mats = [gaudin_hamiltonian(p, s) for s in range(p.n)]
        for mat in mats:
            assert all(w[r] * mat[r][c] == w[c] * mat[c][r]
                       for r, c in itertools.combinations(range(len(w)), 2))
        assert all(sum(entries) == 0 for row in zip(*mats) for entries in zip(*row))

    @pytest.mark.parametrize("weights, k", [((2, 2, 2), 2), ((1,) * 6, 3)])
    def test_complex_arrays_are_the_exact_matrices_converted(self, sl2, weights, k):
        """hamiltonians converts each exact K_s with one np.array call; it is
        bit for bit the complex() of each entry."""
        z = (F(0), F(1), F(3), F(7), F(-2), F(5))[:len(weights)]
        p = GaudinProblem(sl2, tuple((m,) for m in weights), (k,), z)
        for s, h in enumerate(p.hamiltonians):
            exact = gaudin_hamiltonian(p, s)
            expected = np.array([[complex(x) for x in row] for row in exact])
            assert h.dtype == complex and h.shape == expected.shape
            assert h.tobytes() == expected.tobytes()


def _rows(rows):
    return {r["name"]: r for r in rows}


def _eigenvector_rows(rows):
    return [r for r in rows if r["name"].startswith("bethe_eigenvector_")]


class TestVerifyBethe:
    def test_hand_solved_singlet(self, gaudin_2x1):
        rows = _rows(verify_bethe(gaudin_2x1, [(F(1, 2),)]))
        assert all(r["pass"] for r in rows.values())
        assert abs(rows["bethe_norm_0"]["lhs"] - 8) < 1e-12
        assert abs(rows["bethe_eigenvector_0_K1"]["lhs"] - 1.5) < 1e-12
        assert abs(rows["bethe_eigenvector_0_K2"]["lhs"] + 1.5) < 1e-12

    def test_closed_form_eigenvalues(self, gaudin_2x1):
        t = (F(1, 2),)
        assert bethe_eigenvalue(gaudin_2x1, t, 0) == F(3, 2)
        assert bethe_eigenvalue(gaudin_2x1, t, 1) == F(-3, 2)
        eigen = _eigenvector_rows(verify_bethe(gaudin_2x1, [t]))
        assert [e["rhs"] for e in eigen] == [F(3, 2), F(-3, 2)]
        assert all(e["abs_err"] <= 1e-12 for e in eigen)

    def test_eigenvalue_constants(self, sl2):
        """The constant terms lambda_s of bethe_eigenvalue, computed once per
        problem: sum lambda_s = 0 and sum z_s lambda_s = sum_{s<u} m_s m_u / 2."""
        p = _sl2_problem((2, 1, 3), 2, (0, 1, 3))
        lam = p.eigenvalue_constants
        assert lam is p.eigenvalue_constants
        assert lam == tuple(bethe_eigenvalue(p, (), s) for s in range(3))
        assert sum(lam) == 0
        assert sum(z * x for z, x in zip(p.z, lam)) == F(2 * 1 + 2 * 3 + 1 * 3, 2)

    def test_eigenvector_check_fails_off_critical_points(self, gaudin_2x1):
        eigen = _eigenvector_rows(verify_bethe(gaudin_2x1, [(F(1, 3),)]))
        assert eigen and not any(e["pass"] for e in eigen)

    def test_two_orbits_orthogonal(self, gaudin_3x1):
        arr = build_discriminantal(gaudin_3x1)
        points = find_critical_points(arr, seed=0, n_starts=60)
        assert len(points) == 2
        rows = _rows(verify_bethe(gaudin_3x1, [points[0].t, points[1].t]))
        assert all(r["pass"] for r in rows.values())
        scale = math.sqrt(abs(rows["bethe_norm_0"]["lhs"]) * abs(rows["bethe_norm_1"]["lhs"]))
        assert rows["bethe_orthogonality_0_0"]["abs_err"] / scale <= 1e-10

    def test_gram_determinant_is_product_of_hessians(self, gaudin_3x1):
        arr = build_discriminantal(gaudin_3x1)
        points = find_critical_points(arr, seed=0, n_starts=60)
        vectors = [canonical_weight_function(gaudin_3x1, cp.t) for cp in points]
        gram = np.array([
            [complex(tensor_shapovalov(gaudin_3x1, a, b)) for b in vectors]
            for a in vectors
        ])
        prod = complex(points[0].hess_det) * complex(points[1].hess_det)
        assert abs(np.linalg.det(gram) - prod) <= 1e-8 * abs(prod)

    @pytest.mark.parametrize("case", ["critical", "arbitrary"])
    def test_gram_is_pairwise_tensor_shapovalov(self, gaudin_3x1, gaudin_2x2, case):
        """The norm and orthogonality values are the pairwise
        tensor_shapovalov values of the omega(t), within 1e-13 relative to
        the geometric mean of the two norms: at the two critical points of
        m = (1, 1, 1), k = 1, and at three arbitrary points of m = (2, 2)."""
        if case == "critical":
            p = gaudin_3x1
            points = [cp.t for cp in find_critical_points(p.arrangement, seed=0, n_starts=60)]
        else:
            p = gaudin_2x2
            points = [(0.3 + 0.2j, 2.5 - 0.1j), (F(1, 3), F(5, 2)), (-1.5j, 0.7 + 0.4j)]
        omegas = [canonical_weight_function(p, t) for t in points]
        want = [[complex(tensor_shapovalov(p, a, b)) for b in omegas] for a in omegas]
        rows = _rows(verify_bethe(p, points))
        for i, j in itertools.product(range(len(points)), repeat=2):
            if i == j:
                got = rows[f"bethe_norm_{i}"]["lhs"]
            else:
                got = rows[f"bethe_orthogonality_{i}_{j - (j > i)}"]["lhs"]
            scale = math.sqrt(abs(want[i][i]) * abs(want[j][j]))
            assert type(got) is complex
            assert abs(got - want[i][j]) <= 1e-13 * scale

    def test_one_of_two_bethe_vectors_fails_the_gram_row(self, gaudin_3x1):
        arr = build_discriminantal(gaudin_3x1)
        points = find_critical_points(arr, seed=0, n_starts=60)
        rows = _rows(verify_bethe(gaudin_3x1, [points[0].t]))
        gram = rows.pop("gram_rank_vs_sing_dim")
        assert (gram["lhs"], gram["rhs"], gram["pass"]) == (1, 2, False)
        assert all(r["pass"] for r in rows.values())

    def test_a_vanishing_weight_function_raises(self):
        """At m = (1, 1), k = 2, z = (0, 1) the one coordinate of omega(t) is
        zero exactly at t = (2, 2/3)."""
        p = _sl2_problem((1, 1), 2, (0, 1))
        with pytest.raises(ValueError, match="weight function vanished at the given point"):
            verify_bethe(p, [(F(2), F(2, 3))])

    def test_no_points_fail_the_gram_row(self, gaudin_3x1):
        rows = verify_bethe(gaudin_3x1, [])
        assert [(r["name"], r["lhs"], r["rhs"], r["pass"]) for r in rows] == [
            ("gram_rank_vs_sing_dim", 0, 2, False)]

    def test_k0_trivial(self, sl2):
        p = GaudinProblem(sl2, ((1,), (2,)), (0,), (F(0), F(1)))
        rows = verify_bethe(p, [])
        assert [r["name"] for r in rows] == ["trivial_norm"]
        assert rows[0]["pass"]
        assert rows[0]["lhs"] == 1
        # omega = v is an eigenvector of every K_s with the closed-form eigenvalue
        omega = canonical_weight_function(p, ())
        for s in range(p.n):
            image = os_oracle.mat_vec(gaudin_hamiltonian(p, s), list(omega.coords))
            assert image == [bethe_eigenvalue(p, (), s) * x for x in omega.coords]


def _sl2_problem(weights, k, z):
    return GaudinProblem(CartanDatum.sl2(), tuple((m,) for m in weights), (k,),
                         tuple(map(F, z)))


def _same_orbit(t, u, tol):
    return any(max(abs(complex(a) - complex(b)) for a, b in zip(perm, u)) < tol
               for perm in itertools.permutations(t))


SPECTRAL_PROBLEMS = {
    "m111-k1": ((1, 1, 1), 1, (0, 1, 3)),
    "m1111-k1": ((1, 1, 1, 1), 1, (0, 1, 3, 7)),
    "m1111-k2": ((1, 1, 1, 1), 2, (0, 1, 3, 7)),
    "m22-k1": ((2, 2), 1, (0, 1)),
    "m222-k1": ((2, 2, 2), 1, (0, 1, 3)),
    "m222-k2": ((2, 2, 2), 2, (0, 1, 3)),
    # multi-start finds this orbit at these z, not at z = (0, 1, 3)
    "m222-k3": ((2, 2, 2), 3, (-1, 0, 2)),
}


class TestBetheRoots:
    @pytest.fixture(params=["gaudin_2x1", "gaudin_3x1", "gaudin_2x2", *SPECTRAL_PROBLEMS])
    def problem(self, request):
        if request.param in SPECTRAL_PROBLEMS:
            return _sl2_problem(*SPECTRAL_PROBLEMS[request.param])
        return request.getfixturevalue(request.param)

    def test_polished_roots_are_the_multistart_orbits(self, problem):
        """One polished spectral point per orbit of nondegenerate critical
        points, the orbits that multi-start Newton finds."""
        arr = build_discriminantal(problem)
        polished = [newton_solve(arr, t) for t in bethe_roots(problem)]
        assert all(isinstance(cp, CriticalPoint) and cp.nondegenerate for cp in polished)
        for cp in polished:
            residual = os_oracle.bethe_residual(problem, cp.t)
            assert max(abs(complex(r)) for r in residual) < 1e-10
        found = group_orbits(find_critical_points(arr, seed=0, n_starts=200),
                             symmetric_group(problem.k))
        orbits = {cp.orbit_id: cp.t for cp in found if cp.nondegenerate}
        assert len(polished) == len(orbits) == singular_dimension(problem)
        for t in orbits.values():
            assert sum(_same_orbit(cp.t, t, 1e-8) for cp in polished) == 1

    def test_seeds_are_deterministic_sorted_tuples(self, gaudin_2x2):
        seeds = bethe_roots(gaudin_2x2)
        assert seeds == bethe_roots(gaudin_2x2)
        assert all(list(t) == sorted(t, key=lambda x: (x.real, x.imag)) for t in seeds)

    def test_zero_singular_space_has_no_roots(self):
        p = _sl2_problem((4, 1, 1), 3, (0, 1, 2))
        assert singular_dimension(p) == 0
        assert bethe_roots(p) == []

    def test_k0_one_empty_root_tuple(self, sl2):
        assert bethe_roots(GaudinProblem(sl2, ((1,), (2,)), (0,), (F(0), F(1)))) == [()]


class TestShapCorrespondence:
    def test_k1_reduces_to_highest_weights(self, gaudin_2x1):
        r = verify_shap_correspondence(gaudin_2x1)
        assert r["pass"]
        assert r["lhs"] == 1

    def test_k2_exact_with_factor(self, gaudin_2x2):
        r = verify_shap_correspondence(gaudin_2x2)
        assert r["pass"]
        assert r["lhs"] == 2  # k_1! ... k_r! with k = (2)

    def test_k2_off_diagonal_flags_orthogonal(self, gaudin_2x2):
        arr = build_discriminantal(gaudin_2x2)
        basis = weight_basis(gaudin_2x2)
        flags = {c: composition_flag(gaudin_2x2, arr, c) for c in basis}
        for a, b in itertools.combinations(basis, 2):
            assert shapovalov_form(arr, flags[a], flags[b]) == 0

    def test_k3_composition_flags_are_fast(self, sl2):
        """The 7 composition flags of m = (2, 2, 2), k = 3 took about 130 s
        of CPU time when each flag searched every ordering of every basis
        monomial; flags by stratum level take well under a second."""
        p = GaudinProblem(sl2, ((2,), (2,), (2,)), (3,), (F(0), F(1), F(3)))
        start = time.process_time()
        arr = build_discriminantal(p)
        flags = [composition_flag(p, arr, c) for c in weight_basis(p)]
        assert time.process_time() - start < 5
        assert len(flags) == 7 and all(any(f.coords) for f in flags)

    @pytest.mark.parametrize("weights, k", [((2, 2), 2), ((2, 2, 2), 3)])
    def test_gram_matches_the_pairwise_oracle(self, sl2, weights, k):
        """composition_gram, one Gram over the top subsets, equals the dense
        oracle form of each pair of composition flags."""
        p = GaudinProblem(sl2, tuple((m,) for m in weights), (k,),
                          tuple(map(F, (0, 1, 3)[:len(weights)])))
        flags = [composition_flag(p, p.arrangement, c) for c in weight_basis(p)]
        assert composition_gram(p) == [[os_oracle.shapovalov_form(p.arrangement, f, g)
                                        for g in flags] for f in flags]

    def test_flags_make_no_circuits_pass(self, sl2, monkeypatch):
        """flag_vector and composition_flag of m = (1^8), k = 4 read the
        levels and the prefix closures only: circuits() is never called."""
        p = GaudinProblem(sl2, ((1,),) * 8, (4,), tuple(map(F, (0, 1, 3, 7, -2, 5, 11, -6))))
        monkeypatch.setattr(WeightedArrangement, "circuits", None)
        monkeypatch.setattr(WeightedArrangement, "evaluation_matrix", None)
        arr = p.arrangement
        flag = flag_vector(arr, [point_hyperplane_index(p, i, i) for i in range(4)])
        assert flag.coords.count(1) == 1 and flag.coords.count(0) == len(flag.coords) - 1
        assert any(composition_flag(p, arr, (1, 1, 1, 1, 0, 0, 0, 0)).coords)

    def test_correspondence_makes_no_circuits_pass_and_no_minors(self, sl2, monkeypatch):
        """The correspondence row numbers and weights the top subsets that
        the flags reach by the subsets themselves: neither circuits() nor
        top_minors() is called."""
        p = GaudinProblem(sl2, ((2,),) * 3, (3,), (F(0), F(1), F(3)))
        monkeypatch.setattr(WeightedArrangement, "circuits", None)
        monkeypatch.setattr(WeightedArrangement, "top_minors", None)
        r = verify_shap_correspondence(p)
        assert r["pass"] and r["lhs"] == 6

    @pytest.mark.parametrize("comp", [(1, 0), (1, 1, 0), (1,), (3, 0), (3, -1)])
    def test_rejects_what_is_not_a_composition_of_k(self, gaudin_2x2, comp):
        """At m = (2, 2), k = 2 a composition has 2 nonnegative entries
        summing to 2; anything else raises instead of giving another flag."""
        with pytest.raises(ValueError, match="composition"):
            composition_flag(gaudin_2x2, gaudin_2x2.arrangement, comp)

    def test_a_pair_nonzero_on_one_side_only_fails(self, gaudin_2x2, monkeypatch):
        """S_V(F_I v, F_J v) = 0 for I != J, so an arrangement-side value
        there breaks the correspondence."""
        def perturbed(p):
            g = composition_gram(p)
            g[0][1] += 1
            return g
        monkeypatch.setattr(gd, "composition_gram", perturbed)
        row = verify_shap_correspondence(gaudin_2x2)
        assert (row["pass"], row["abs_err"]) == (False, 1)

    def test_negated_diagonal_convention_fails(self, gaudin_2x2):
        """The correspondence pins the diagonal exponent sign: with the
        negated convention the flag-side values change."""
        arr = negated_diagonals(gaudin_2x2)
        basis = weight_basis(gaudin_2x2)
        flags = {c: composition_flag(gaudin_2x2, arr, c) for c in basis}
        values = [shapovalov_form(arr, flags[c], flags[c]) for c in basis]
        assert values != [F(2), F(2), F(2)]


class TestCanonicalElement:
    def test_trivial_group_k1(self, gaudin_2x1):
        rows = verify_canonical_element(gaudin_2x1, (F(1, 3),), (F(5, 2),))
        assert all(r["pass"] for r in rows)

    def test_skew_projection_k2(self, sl2):
        p = GaudinProblem(sl2, ((2,),), (2,), (F(0),))
        rows = verify_canonical_element(
            p, (F(1, 2), F(1, 5)), (F(7, 3), F(-1, 4))
        )
        assert all(r["pass"] for r in rows)

    def test_cross_module_norm_chain(self, gaudin_2x2):
        rows = verify_canonical_element(
            gaudin_2x2, (F(1, 3), F(5, 2)), (F(9, 4), F(-3, 7))
        )
        assert all(r["pass"] for r in rows)

    @pytest.mark.parametrize("weights, k", [((2, 2), 2), ((2, 2, 2), 3)])
    def test_both_sides_match_the_straightened_oracle(self, sl2, weights, k):
        """Row (a, b): lhs is tensor_shapovalov(omega(t_a), omega(t_b)) and
        rhs is (-1)^k k! S^(a)(v-(t_a), v-(t_b)), v- the oracle projector
        applied to v(t) and S^(a) the dense straightened oracle form.  Equal
        Fractions at rational points, within 1e-12 relative at complex
        ones."""
        p = GaudinProblem(sl2, tuple((m,) for m in weights), (k,),
                          tuple(map(F, (0, 1, 3)[:len(weights)])))
        arr = p.arrangement
        action = full_symmetric_action(arr, "sign")
        factor = (-1) ** k * math.factorial(k)
        exact = [tuple(F(2 * i + 1, 7 + i) for i in range(k)),
                 tuple(F(-3 * i - 2, 5 + 2 * i) for i in range(k))]
        inexact = [tuple(complex(x) + 0.3j * (i + 1) for i, x in enumerate(t)) for t in exact]
        for points in (exact, inexact):
            rows = verify_canonical_element(p, *points)
            omegas = [canonical_weight_function(p, t) for t in points]
            flags = [os_oracle.isotypic_project(arr, action, specialize(arr, t)) for t in points]
            pairs = itertools.combinations_with_replacement(range(2), 2)
            for row, (a, b) in zip(rows, pairs, strict=True):
                lhs = tensor_shapovalov(p, omegas[a], omegas[b])
                rhs = factor * os_oracle.shapovalov_form(arr, flags[a], flags[b])
                assert rhs != 0
                if points is exact:
                    assert isinstance(row["rhs"], F)
                    assert (row["lhs"], row["rhs"]) == (lhs, rhs)
                else:
                    assert abs(row["lhs"] - lhs) <= 1e-12 * abs(lhs)
                    assert abs(row["rhs"] - rhs) <= 1e-12 * abs(rhs)
