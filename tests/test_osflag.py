"""Logarithmic-form algebra and flag spaces: straightening, differentials,
duality pairing, flag vectors, form evaluation, singular subspace."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bethearr import linalg
from bethearr.arrangement import with_exponents
from bethearr.osflag import (FlagVector, d_A_matrix, delta_F_matrix, flag_vector,
                             singular_basis, sparse_dot, straighten_coords)
from bethearr.special import specialize
import os_oracle

F = Fraction


class TestStraighten:
    def test_basis_monomial_is_unit_vector(self, generic3):
        basis = generic3.basis(2)
        for i, s in enumerate(basis):
            assert straighten_coords(generic3, s) == {i: F(1)}

    def test_repeated_index_vanishes(self, generic3):
        assert straighten_coords(generic3, (1, 1)) == {}

    def test_sign_rule(self, generic3):
        down = straighten_coords(generic3, (0, 1))
        up = straighten_coords(generic3, (1, 0))
        assert down and up == {i: -c for i, c in down.items()}

    def test_three_term_relation(self, concurrent3):
        # lines through one point: (1,2) = (0,2) - (0,1) over basis [(0,1),(0,2)]
        assert concurrent3.basis(2) == [(0, 1), (0, 2)]
        assert straighten_coords(concurrent3, (1, 2)) == {0: F(-1), 1: F(1)}

    def test_straighten_element(self, concurrent3):
        eta = os_oracle.straighten(concurrent3, (2, 1))
        assert eta == {(0, 1): F(1), (0, 2): F(-1)}

    def test_non_general_position_vanishes(self):
        from conftest import line
        from bethearr.arrangement import WeightedArrangement
        arr = WeightedArrangement(
            2, [line(0, 1, 0), line(1, 1, 0), line(0, 0, 1)], [F(1)] * 3
        )
        assert straighten_coords(arr, (0, 1)) == {}


class TestDifferential:
    def test_d_squared_is_zero(self, generic4, concurrent3):
        for arr in (generic4, concurrent3):
            d0 = d_A_matrix(arr, 0)  # A^0 -> A^1
            d1 = d_A_matrix(arr, 1)  # A^1 -> A^2
            prod = os_oracle.mat_mul(d1, d0)
            assert all(x == 0 for row in prod for x in row)

    def test_delta_is_transpose(self, generic3):
        assert delta_F_matrix(generic3, 2) == linalg.transpose(d_A_matrix(generic3, 1))

    def test_apply_delta_degree(self, generic3):
        v = FlagVector(2, (F(1), F(0), F(0)))
        assert os_oracle.apply_delta(generic3, v).degree == 1


class TestPairing:
    def test_basis_duality(self, generic3):
        basis = generic3.basis(2)
        for i, s in enumerate(basis):
            flag = FlagVector(2, tuple(F(int(j == i)) for j in range(len(basis))))
            for s2 in basis:
                expected = F(int(s2 == s))
                assert os_oracle.monomial_pairing(generic3, s2, flag) == expected

    def test_pairing_linear(self, generic3):
        """sparse_dot of the straightened coordinates of 2 e_01 + 3 e_12 is
        the same combination of the two monomial pairings."""
        flag = FlagVector(2, (F(1), F(-1), F(4)))
        coords = {}
        for monomial, c in [((0, 1), F(2)), ((1, 2), F(3))]:
            for i, x in straighten_coords(generic3, monomial).items():
                coords[i] = coords.get(i, 0) + c * x
        expected = F(2) * os_oracle.monomial_pairing(generic3, (0, 1), flag) + \
            F(3) * os_oracle.monomial_pairing(generic3, (1, 2), flag)
        assert sparse_dot(dict(sorted(coords.items())), flag.coords) == expected


class TestFlagVector:
    def test_identity_flag(self, generic3):
        fv = flag_vector(generic3, (0, 1))
        assert fv.coords == (F(1), F(0), F(0))

    def test_transposed_flag_changes_sign(self, generic3):
        fv = flag_vector(generic3, (1, 0))
        assert fv.coords == (F(-1), F(0), F(0))

    def test_non_generic_flag_sees_whole_stratum(self, concurrent3):
        # F(H2, H3) shares its chain with basis flags through the center
        fv = flag_vector(concurrent3, (1, 2))
        assert fv.coords == (F(-1), F(0))

    def test_rejects_dependent_tuple(self, concurrent3):
        with pytest.raises(ValueError):
            flag_vector(concurrent3, (0, 1, 2))

    def test_rejects_repeats_and_parallel_pairs(self):
        """A repeated member lies on the flat before it, and two parallel
        lines have empty intersection: neither tuple is in general position."""
        from conftest import line
        from bethearr.arrangement import WeightedArrangement
        arr = WeightedArrangement(
            2, [line(0, 1, 0), line(1, 1, 0), line(0, 0, 1)], [F(1)] * 3
        )
        with pytest.raises(ValueError, match="general position"):
            flag_vector(arr, (2, 2))
        with pytest.raises(ValueError, match="empty intersection"):
            flag_vector(arr, (0, 1))


class TestEvaluateForm:
    """The value of a top form, the coordinate of v(t) at its monomial."""

    def test_value(self, generic3):
        # d = 1 for (0,1); f = t1 * t2
        assert os_oracle.evaluate_form(generic3, (0, 1), (F(2), F(3))) == F(1, 6)
        assert generic3.basis(2)[0] == (0, 1)
        assert specialize(generic3, (F(2), F(3))).coords[0] == F(1, 6)

    def test_point_on_arrangement_rejected(self, generic3):
        with pytest.raises(ValueError, match="on arrangement"):
            os_oracle.evaluate_form(generic3, (0, 1), (F(0), F(3)))
        with pytest.raises(ValueError, match="on arrangement"):
            specialize(generic3, (F(0), F(3)))


class TestSingularBasis:
    def test_dimension_generic4(self, generic4):
        # delta: F^2 (dim 6) -> F^1 (dim 4) is surjective minus the constants
        assert len(singular_basis(generic4)) == 3

    def test_killed_by_delta(self, generic4):
        for v in singular_basis(generic4):
            assert all(x == 0 for x in os_oracle.apply_delta(generic4, v).coords)

    def test_complex_exponents_give_python_complex_coordinates(self, generic4):
        """At complex exponents the basis comes from the SVD of delta; its
        coordinates are Python complex numbers, whose repr does not depend
        on the numpy version, with the values of the conjugated right
        singular vectors of the kernel."""
        arr = with_exponents(generic4, [complex(a, i + 1) for i, a in
                                        enumerate(generic4.exponents)])
        basis = singular_basis(arr)
        assert len(basis) == 3
        assert all(type(x) is complex for v in basis for x in v.coords)
        delta = np.array(delta_F_matrix(arr, 2), dtype=complex)
        vh = np.linalg.svd(delta)[2]
        assert [v.coords for v in basis] == [tuple(row) for row in vh[-3:].conj()]


@settings(max_examples=30, deadline=None)
@given(st.permutations([0, 1, 2]))
def test_straighten_permutation_sign_property(perm):
    """Straightening a permuted generic triple gives +-1 on that basis
    monomial, matching the permutation parity."""
    from bethearr.arrangement import Hyperplane, WeightedArrangement
    from bethearr.special import permutation_sign
    coordinate_planes = [
        Hyperplane(F(0), tuple(F(int(i == j)) for j in range(3))) for i in range(3)
    ]
    arr = WeightedArrangement(
        3,
        coordinate_planes + [Hyperplane(F(-1), (F(1), F(1), F(1)))],
        [F(1)] * 4,
    )
    coords = straighten_coords(arr, tuple(perm))
    assert coords == {arr.basis(3).index((0, 1, 2)): permutation_sign(tuple(perm))}
