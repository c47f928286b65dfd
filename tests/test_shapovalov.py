"""Shapovalov form and map, the closed-form pairing of special vectors, and
the generic-arrangement operator oracle."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bethearr import linalg
from bethearr.arrangement import with_exponents
from bethearr.osflag import FlagVector, pairing
from bethearr.shapovalov import (shapovalov_form, shapovalov_map,
                                 special_pairing)
from bethearr.special import specialize
from generic_ops import (dependency_constant, is_generic, k_operator,
                         l_operator, standard_basis)

F = Fraction

rational = st.fractions(
    min_value=F(-5), max_value=F(5), max_denominator=6
)


class TestShapovalovForm:
    def test_symmetric(self, generic4):
        f1 = FlagVector(2, (F(1), F(0), F(2), F(-1), F(0), F(3)))
        f2 = FlagVector(2, (F(0), F(1), F(-1), F(2), F(1), F(0)))
        assert shapovalov_form(generic4, f1, f2) == shapovalov_form(generic4, f2, f1)

    def test_degree_checked(self, generic4):
        with pytest.raises(ValueError):
            shapovalov_form(generic4, FlagVector(1, (F(1),) * 4),
                            FlagVector(2, (F(1),) * 6))

    def test_linear_in_exponents(self, generic3):
        f = FlagVector(2, (F(1), F(2), F(3)))
        doubled = with_exponents(generic3, [2 * a for a in generic3.exponents])
        # each k-subset term carries a product of k = 2 exponents
        assert shapovalov_form(doubled, f, f) == 4 * shapovalov_form(generic3, f, f)

    def test_map_reproduces_form(self, generic3):
        f1 = FlagVector(2, (F(1), F(-1), F(2)))
        f2 = FlagVector(2, (F(0), F(3), F(1)))
        eta = shapovalov_map(generic3, f1)
        assert pairing(generic3, eta, f2) == shapovalov_form(generic3, f1, f2)


class TestSpecialPairing:
    def test_matches_flag_path(self, generic4):
        pts = generic4.sample_points(2)
        t1, t2 = pts[0], pts[1]
        direct = special_pairing(generic4, t1, t2)
        via_flags = shapovalov_form(
            generic4, specialize(generic4, t1), specialize(generic4, t2)
        )
        assert direct == via_flags

    def test_rejects_points_on_arrangement(self, generic4):
        with pytest.raises(ValueError):
            special_pairing(generic4, (F(0), F(1)), (F(1), F(1)))

    @settings(max_examples=20, deadline=None)
    @given(rational, rational)
    def test_symmetric_property(self, x, y):
        from conftest import line
        from bethearr.arrangement import WeightedArrangement
        arr = WeightedArrangement(
            2, [line(0, 1, 0), line(0, 0, 1), line(-1, 1, 1)], [F(1)] * 3
        )
        t1, t2 = (x, x + 7), (y - 3, y + 11)
        if arr.contains_point(t1) or arr.contains_point(t2):
            return
        assert special_pairing(arr, t1, t2) == special_pairing(arr, t2, t1)


class TestGenericOperators:
    def test_is_generic(self, generic4, concurrent3):
        assert is_generic(generic4)
        assert not is_generic(concurrent3)

    def test_standard_basis(self, generic4):
        assert standard_basis(generic4) == list(itertools.combinations(range(4), 2))

    def test_dependency_constant_cancels_t(self, generic4):
        # sum_p (-1)^p D(J \ j_p) f_{j_p}(t) is constant: compare two points
        for jtuple in itertools.combinations(range(4), 3):
            c = dependency_constant(generic4, jtuple)
            for t in generic4.sample_points(2):
                total = F(0)
                for p, j in enumerate(jtuple):
                    minor = [x for x in jtuple if x != j]
                    d = linalg.det(
                        [list(generic4.hyperplanes[m].b) for m in minor]
                    )
                    total += (-1) ** p * d * generic4.hyperplanes[j].evaluate(t)
                assert total == c

    def test_k_operators_self_adjoint(self, generic4):
        """S^(a)(K_j x, y) = S^(a)(x, K_j y) on the standard basis."""
        basis = standard_basis(generic4)
        n = len(basis)
        gram = [
            [
                shapovalov_form(
                    generic4,
                    FlagVector(2, tuple(F(int(a == i)) for a in range(n))),
                    FlagVector(2, tuple(F(int(a == j)) for a in range(n))),
                )
                for j in range(n)
            ]
            for i in range(n)
        ]
        for j in range(4):
            km = k_operator(generic4, j)
            left = linalg.mat_mul(linalg.transpose(km), gram)
            right = linalg.mat_mul(gram, km)
            assert left == right

    def test_k_operator_eigenvector_at_critical_points(self, generic4):
        """K_j v(t) = (a_j / f_j(t)) v(t) at every critical point."""
        from bethearr.master import find_critical_points
        points = find_critical_points(generic4, seed=0, n_starts=200)
        assert points
        for cp in points:
            v = list(specialize(generic4, cp.t).coords)
            scale = max(abs(complex(x)) for x in v)
            for j in range(4):
                kv = linalg.mat_vec(k_operator(generic4, j), v)
                lam = complex(generic4.exponents[j]) / complex(
                    generic4.hyperplanes[j].evaluate(cp.t)
                )
                err = max(abs(complex(a) - lam * complex(b))
                          for a, b in zip(kv, v))
                assert err <= 1e-10 * abs(lam) * scale

    def test_l_operator_requires_full_tuple(self, generic4):
        with pytest.raises(ValueError):
            l_operator(generic4, (0, 1))
