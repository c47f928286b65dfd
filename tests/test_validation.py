"""Input validation: each check raises its own exception type and message,
and a memoized method that raises keeps nothing, so it raises again."""

import re
from fractions import Fraction

import pytest

from bethearr.arrangement import Hyperplane, WeightedArrangement
from bethearr.gaudin import CartanDatum, GaudinProblem, canonical_weight_function
from bethearr.osflag import d_A_matrix, delta_F_matrix
from bethearr.scalars import parse_scalar
from bethearr.special import full_symmetric_action, verify_isotypic_norm

F = Fraction
SL2 = CartanDatum.sl2()
SL3 = CartanDatum(rank=2, a=((2, -1), (-1, 2)), d=(1, 1))


def _generic4():
    return WeightedArrangement(2, [Hyperplane(0, (1, 0)), Hyperplane(0, (0, 1)),
                                   Hyperplane(-1, (1, 1)), Hyperplane(-3, (1, 2))], [1] * 4)


def _gaudin_2x2():
    return GaudinProblem(SL2, ((2,), (2,)), (2,), (F(0), F(1)))


def _isotypic_norm_on_the_diagonal():
    """t1, t2, t1 + t2 - 1 is symmetric under the swap, which fixes (1/3, 1/3)."""
    arr = WeightedArrangement(2, [Hyperplane(0, (1, 0)), Hyperplane(0, (0, 1)),
                                  Hyperplane(-1, (1, 1))], [1] * 3)
    verify_isotypic_norm(arr, full_symmetric_action(arr), (F(1, 3), F(1, 3)))


CASES = {
    "ambient-dim-below-1": (lambda: WeightedArrangement(0, [], []),
                            ValueError, "ambient dimension must be positive"),
    "hyperplane-of-wrong-dim": (
        lambda: WeightedArrangement(2, [Hyperplane(0, (1,), "H")], [1]),
        ValueError, "hyperplane 'H' has wrong dimension"),
    "nbc-degree-out-of-range": (lambda: _generic4().nbc_sets(3),
                                ValueError, "degree 3 out of range 0..2"),
    "d_A-at-degree-k": (lambda: d_A_matrix(_generic4(), 2),
                        ValueError, "degree 2 out of range 0..1"),
    "delta_F-at-degree-0": (lambda: delta_F_matrix(_generic4(), 0),
                            ValueError, "degree 0 out of range 1..2"),
    "cartan-shape": (lambda: CartanDatum(rank=2, a=((2,),), d=(1, 1)),
                     ValueError, "Cartan matrix shape does not match rank"),
    "cartan-symmetrizer-count": (lambda: CartanDatum(rank=1, a=((2,),), d=(1, 1)),
                                 ValueError, "need one symmetrizer per simple root"),
    "cartan-symmetrizer-nonpositive": (lambda: CartanDatum(rank=1, a=((2,),), d=(0,)),
                                       ValueError, "symmetrizers must be positive"),
    "gaudin-weight-length": (
        lambda: GaudinProblem(SL2, ((1, 0),), (1,), (F(0),)),
        ValueError, "each weight needs one coroot value per simple root"),
    "gaudin-k-vector-length": (lambda: GaudinProblem(SL2, ((1,),), (1, 1), (F(0),)),
                               ValueError, "k vector length must equal the rank"),
    "gaudin-negative-k": (lambda: GaudinProblem(SL2, ((1,),), (-1,), (F(0),)),
                          ValueError, "k entries must be nonnegative integers"),
    "gaudin-z-count": (lambda: GaudinProblem(SL2, ((1,), (1,)), (1,), (F(0),)),
                       ValueError, "need one marked point per weight"),
    "gaudin-level-of-variable-k": (lambda: _gaudin_2x2().level(2),
                                   IndexError, "variable index 2 out of range 0..1"),
    "sl2-weights-of-sl3-data": (
        lambda: GaudinProblem(SL3, ((1, 0), (0, 1)), (1, 1), (F(0), F(1))).sl2_highest_weights(),
        ValueError, "module-level operations require sl2 data"),
    "weight-function-coordinate-count": (
        lambda: canonical_weight_function(_gaudin_2x2(), (F(2),)),
        ValueError, "wrong number of coordinates"),
    "parse-bool": (lambda: parse_scalar(True), ValueError, "not a scalar: True"),
    "parse-dict": (lambda: parse_scalar({}), ValueError, "cannot parse scalar from {}"),
    "isotypic-norm-small-orbit": (_isotypic_norm_on_the_diagonal, ValueError,
                                  "orbit smaller than the group; identity not applicable"),
}


@pytest.mark.parametrize("name", CASES)
def test_validation_raises(name):
    call, error, message = CASES[name]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize("call", [lambda arr: arr.nbc_sets(-1),
                                  lambda arr: arr.basis_coords((1, 0)),
                                  lambda arr: arr.basis_path(3)])
def test_a_raise_is_not_memoized(call):
    arr = _generic4()
    for _ in range(2):
        with pytest.raises(ValueError, match="sorted|out of range"):
            call(arr)
