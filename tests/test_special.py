"""Specialization map, criticality/norm/orthogonality verifications, and
symmetry actions with isotypic projections."""

import itertools
from fractions import Fraction
from unittest import mock

import pytest

from bethearr import osflag
from bethearr.arrangement import Hyperplane, WeightedArrangement
from bethearr.gaudin import CartanDatum, GaudinProblem, build_discriminantal
from bethearr.master import find_critical_points, hess_det
from bethearr.osflag import FlagVector
from bethearr.shapovalov import shapovalov_form
from bethearr.special import (apply_permutation, build_action, full_symmetric_action,
                              isotypic_project, permutation_sign, specialize,
                              verify_isotypic_norm, verify_norm_identity,
                              verify_orthogonality, verify_singular)
import os_oracle

F = Fraction


@pytest.fixture
def symmetric2():
    """Symmetric arrangement in C^2: t1, t2, t1 - t2, t1 + t2 - 2; swapping
    coordinates permutes the hyperplanes and preserves the exponents."""
    return WeightedArrangement(
        2,
        [
            Hyperplane(F(0), (F(1), F(0))),
            Hyperplane(F(0), (F(0), F(1))),
            Hyperplane(F(0), (F(1), F(-1))),
            Hyperplane(F(-2), (F(1), F(1))),
        ],
        [F(1), F(1), F(2), F(3)],
    )


class TestSpecialize:
    def test_coords_are_form_values(self, generic3):
        t = generic3.sample_points(1)[0]
        v = specialize(generic3, t)
        assert v.coords == tuple(
            os_oracle.evaluate_form(generic3, s, t) for s in generic3.basis(2)
        )


class TestVerifiers:
    def test_norm_identity_exact_at_rational_points(self, generic3):
        for t in generic3.sample_points(5):
            r = verify_norm_identity(generic3, t)
            assert r["lhs"] == r["rhs"]

    def test_norm_identity_builds_no_delta(self, generic4, monkeypatch):
        calls = []
        original = osflag.d_A_matrix
        monkeypatch.setattr(osflag, "d_A_matrix",
                            lambda *args: calls.append(args) or original(*args))
        for t in generic4.sample_points(3):
            assert verify_norm_identity(generic4, t)["pass"]
        assert verify_singular(generic4, generic4.sample_points(1)[0])["pass"]
        assert len(calls) == 1   # from verify_singular only

    def test_singular_at_critical_and_not_at_random(self, generic4):
        points = find_critical_points(generic4, seed=0, n_starts=200)
        assert points
        for cp in points:
            r = verify_singular(generic4, cp.t)
            assert r["pass"] and r["rhs"] <= 1e-8   # rhs: |grad ln Phi|
            assert r["lhs"] <= 1e-8                 # lhs: |delta v| / max(1, |v|)
        r = verify_singular(generic4, (0.31 + 0.11j, 0.77 - 0.23j))
        assert r["pass"] and not r["rhs"] <= 1e-8
        assert r["lhs"] >= 1e-3

    def test_orthogonality_of_distinct_critical_points(self, generic4):
        points = find_critical_points(generic4, seed=0, n_starts=200)
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                assert verify_orthogonality(generic4, points[i].t, points[j].t)["pass"]

    def test_random_points_not_orthogonal(self, generic4):
        pts = generic4.sample_points(2)
        assert not verify_orthogonality(generic4, pts[0], pts[1])["pass"]


class TestPermutations:
    def test_sign_multiplicative(self):
        for a in itertools.permutations(range(3)):
            for b in itertools.permutations(range(3)):
                ab = tuple(a[b[i]] for i in range(3))
                assert permutation_sign(ab) == permutation_sign(a) * permutation_sign(b)

    def test_apply_permutation(self):
        # (sigma t)_{sigma(i)} = t_i with sigma = (1, 0)
        assert apply_permutation((1, 0), (10, 20)) == (20, 10)


class TestSymmetryAction:
    def test_rejects_non_preserving_permutation(self, generic4):
        with pytest.raises(ValueError, match="preserve"):
            build_action(generic4, [(1, 0)])

    def test_rejects_an_unknown_character(self, symmetric2):
        with pytest.raises(ValueError, match="character 'bogus' unsupported"):
            build_action(symmetric2, [(0, 1), (1, 0)], "bogus")

    @staticmethod
    def scaled_pair(exponents):
        """2 t1 - 2 and t2 - 1: the swap maps each onto a multiple of the other."""
        return WeightedArrangement(2, [Hyperplane(F(-2), (F(2), F(0))),
                                       Hyperplane(F(-1), (F(0), F(1)))], exponents)

    def test_matches_a_scaled_image(self):
        action = build_action(self.scaled_pair([F(1), F(1)]), [(0, 1), (1, 0)])
        assert action.hyperplane_perms == ((0, 1), (1, 0))

    def test_matches_images_by_the_cached_integer_rows(self):
        """The swap maps t1 - t2 = 0 to t2 - t1 = 0, whose integer row is
        re-signed, and recomputes no integer_row."""
        arr = WeightedArrangement(2, [Hyperplane(F(0), (F(1), F(0))),
                                      Hyperplane(F(0), (F(0), F(1))),
                                      Hyperplane(F(0), (F(1), F(-1)))], [F(1)] * 3)
        with mock.patch.object(Hyperplane, "integer_row", side_effect=AssertionError):
            action = build_action(arr, [(0, 1), (1, 0)])
        assert action.hyperplane_perms == ((0, 1, 2), (1, 0, 2))

    def test_rejects_permutation_moving_exponents(self):
        with pytest.raises(ValueError, match=r"does not preserve the exponents \(0 -> 1\)"):
            build_action(self.scaled_pair([F(1), F(2)]), [(1, 0)])

    def test_equivariance(self, symmetric2):
        action = full_symmetric_action(symmetric2)
        t = (F(1, 3), F(7, 5))
        for idx, sigma in enumerate(action.perms):
            lhs = specialize(symmetric2, apply_permutation(sigma, t))
            rho = permutation_sign(sigma)
            rhs = os_oracle.apply_flag_action(symmetric2, action, idx, specialize(symmetric2, t))
            assert lhs.coords == tuple(rho * x for x in rhs.coords)

    def test_form_invariance(self, symmetric2):
        action = full_symmetric_action(symmetric2)
        f1 = specialize(symmetric2, (F(1, 3), F(7, 5)))
        f2 = specialize(symmetric2, (F(9, 4), F(-2, 7)))
        for idx in range(len(action)):
            g1 = os_oracle.apply_flag_action(symmetric2, action, idx, f1)
            g2 = os_oracle.apply_flag_action(symmetric2, action, idx, f2)
            assert shapovalov_form(symmetric2, g1, g2) == \
                shapovalov_form(symmetric2, f1, f2)

    def test_action_is_representation(self, symmetric2):
        """R_g R_h = R_gh on every unit flag, and the identity acts trivially."""
        action = full_symmetric_action(symmetric2)
        n = len(symmetric2.basis(2))
        units = [FlagVector(2, tuple(F(int(i == j)) for j in range(n))) for i in range(n)]
        act = os_oracle.apply_flag_action
        for g, h in itertools.product(range(len(action)), repeat=2):
            gh = tuple(action.perms[g][i] for i in action.perms[h])
            for unit in units:
                assert act(symmetric2, action, g, act(symmetric2, action, h, unit)) == \
                    act(symmetric2, action, action.perms.index(gh), unit)
        identity = action.perms.index((0, 1))
        assert all(act(symmetric2, action, identity, u) == u for u in units)

    @pytest.mark.parametrize("case", ["symmetric2", "m222-k3"])
    def test_action_matches_the_matrix_oracle(self, case, request):
        if case == "symmetric2":
            arr = request.getfixturevalue(case)
        else:
            arr = build_discriminantal(GaudinProblem(
                CartanDatum.sl2(), ((2,), (2,), (2,)), (3,), (F(0), F(1), F(3))))
        action = full_symmetric_action(arr, "sign")
        flag = specialize(arr, tuple(F(2 * i + 1, 7 + i) for i in range(arr.ambient_dim)))
        for idx in range(len(action)):
            assert os_oracle.apply_flag_action(arr, action, idx, flag) == \
                os_oracle.flag_action(arr, action, idx, flag)

    def test_isotypic_projection_idempotent(self, symmetric2):
        """The oracle projector fixes the projection of a special vector."""
        for character in ("trivial", "sign"):
            action = full_symmetric_action(symmetric2, character)
            p1 = isotypic_project(symmetric2, action, (F(1, 3), F(7, 5)))
            p2 = os_oracle.isotypic_project(symmetric2, action, p1)
            assert p1.coords == p2.coords

    @pytest.mark.parametrize("character", ["trivial", "sign"])
    @pytest.mark.parametrize("case", ["symmetric2", "gaudin_2x2", "m222-k3"])
    def test_projection_matches_the_oracle_projector(self, case, character, request):
        """The weighted sum of special vectors along the orbit of t is the
        oracle projector applied to v(t): equal Fractions at a rational
        point, within 1e-12 relative at a complex one."""
        if case == "symmetric2":
            arr = request.getfixturevalue(case)
        elif case == "gaudin_2x2":
            arr = request.getfixturevalue(case).arrangement
        else:
            arr = build_discriminantal(GaudinProblem(
                CartanDatum.sl2(), ((2,), (2,), (2,)), (3,), (F(0), F(1), F(3))))
        k = arr.ambient_dim
        action = full_symmetric_action(arr, character)
        exact = tuple(F(2 * i + 1, 7 + i) for i in range(k))
        got = isotypic_project(arr, action, exact)
        assert all(isinstance(x, F) for x in got.coords)
        assert got == os_oracle.isotypic_project(arr, action, specialize(arr, exact))
        point = tuple(complex(x) + 0.3j * (i + 1) for i, x in enumerate(exact))
        got = isotypic_project(arr, action, point).coords
        want = os_oracle.isotypic_project(arr, action, specialize(arr, point)).coords
        scale = max(abs(complex(x)) for x in want)
        assert scale > 0
        assert all(abs(complex(x) - complex(y)) <= 1e-12 * scale for x, y in zip(got, want))

    def test_isotypic_norm_identity(self, symmetric2):
        points = find_critical_points(symmetric2, seed=3, n_starts=200)
        free = [
            cp for cp in points
            if abs(cp.t[0] - cp.t[1]) > 1e-6 and cp.nondegenerate
        ]
        assert free
        action = full_symmetric_action(symmetric2, "sign")
        r = verify_isotypic_norm(symmetric2, action, free[0].t)
        scale = max(abs(complex(r["rhs"])), 1.0)
        assert r["abs_err"] <= 1e-8 * scale
        assert r["pass"]

    @pytest.mark.parametrize("character", ["trivial", "sign"])
    @pytest.mark.parametrize("case", ["symmetric2", "gaudin_2x2"])
    def test_isotypic_norm_is_the_straightened_form(self, case, character, request):
        """lhs, the gram of isotypic_values, is S^(a) of the oracle projector
        applied to v(t), both flags straightened by the dense oracle form:
        equal Fractions at a rational point, within 1e-12 relative at a
        complex one."""
        arr = request.getfixturevalue(case)
        if case == "gaudin_2x2":
            arr = arr.arrangement
        action = full_symmetric_action(arr, character)
        exact = (F(1, 3), F(7, 5))
        point = (complex(exact[0], 0.3), complex(exact[1], -0.6))
        for t in (exact, point):
            flag = os_oracle.isotypic_project(arr, action, specialize(arr, t))
            want = os_oracle.shapovalov_form(arr, flag, flag)
            assert want != 0
            got = verify_isotypic_norm(arr, action, t)["lhs"]
            if t is exact:
                assert isinstance(got, F) and got == want
            else:
                assert abs(got - complex(want)) <= 1e-12 * abs(complex(want))
