"""The input contract: hyperplane coefficients and marked points are exact
rationals; floats are read at their exact binary value, and complex or
non-finite values are rejected."""

from fractions import Fraction

import numpy as np
import pytest

from bethearr.arrangement import Hyperplane
from bethearr.gaudin import CartanDatum, GaudinProblem
from bethearr.scalars import ON_ARRANGEMENT_TOL, parse_scalar, to_rational, vanishes

F = Fraction


class TestToRational:
    @pytest.mark.parametrize("x", [3, F(2, 7)])
    def test_rationals_pass_through(self, x):
        assert to_rational(x) is x

    def test_float_is_its_exact_binary_value(self):
        assert to_rational(0.1) == F(3602879701896397, 36028797018963968)
        assert to_rational(complex(-2.5, 0.0)) == F(-5, 2)

    @pytest.mark.parametrize("x", [1j, complex(1, 1e-300), float("nan"),
                                   float("inf"), -float("inf"), "1/2", None])
    def test_rejects_non_real_or_non_finite(self, x):
        with pytest.raises(ValueError):
            to_rational(x)


class TestParseScalar:
    @pytest.mark.parametrize("obj", [float("nan"), float("inf"), -float("inf"),
                                     [0.0, float("nan")], ["inf", 0], "1/0"])
    def test_rejects_non_finite(self, obj):
        with pytest.raises(ValueError):
            parse_scalar(obj)

    def test_keeps_floats_and_pairs_for_exponents(self):
        assert parse_scalar(0.5) == 0.5
        assert parse_scalar([1, -2]) == complex(1, -2)


def test_hyperplane_coefficients_are_rational():
    h = Hyperplane(0.5, (complex(1.0, 0.0), 2), "h")
    assert (h.b0, h.b) == (F(1, 2), (F(1), 2))
    assert isinstance(h.b[0], Fraction)
    with pytest.raises(ValueError):
        Hyperplane(F(0), (F(1), 1j))


def test_marked_points_are_rational():
    sl2 = CartanDatum.sl2()
    p = GaudinProblem(sl2, ((1,), (1,)), (1,), (0.25, F(1)))
    assert p.z == (F(1, 4), F(1))
    with pytest.raises(ValueError, match="distinct"):
        GaudinProblem(sl2, ((1,), (1,)), (1,), (0.5, F(1, 2)))
    with pytest.raises(ValueError):
        GaudinProblem(sl2, ((1,), (1,)), (1,), (F(0), 1j))


class TestVanishes:
    def test_exact_values_vanish_only_at_zero(self):
        assert vanishes(0) and vanishes(F(0))
        assert not vanishes(F(1, 10 ** 30))

    def test_inexact_values_vanish_below_the_threshold(self):
        assert vanishes(0.5 * ON_ARRANGEMENT_TOL) and vanishes(1j * 0.5 * ON_ARRANGEMENT_TOL)
        assert not vanishes(complex(ON_ARRANGEMENT_TOL, 0))

    def test_arrays_elementwise(self):
        exact = np.array([F(0), F(1, 10 ** 30)], dtype=object)
        assert vanishes(exact).tolist() == [True, False]
        inexact = np.array([1e-13, 1e-3j])
        assert vanishes(inexact).tolist() == [True, False]
