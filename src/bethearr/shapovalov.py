"""Shapovalov form of a weighted arrangement on flags, top-form values on
the general-position top subsets (top_forms), and `gram`: the Gram matrix
of vectors known by their values, on which S^(a) and S_V are diagonal."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .arrangement import WeightedArrangement
from .osflag import FlagVector, check_length, sparse_dot
from .scalars import Scalar


def shapovalov_form(arr: WeightedArrangement, f1: FlagVector, f2: FlagVector) -> Scalar:
    """S^(a)(F1, F2): sum over the terms of arr.weighted_top() of the
    exponent product times both pairings, each taken over the subset's
    nonzero straightened coordinates only."""
    if f1.degree != arr.ambient_dim or f2.degree != arr.ambient_dim:
        raise ValueError("Shapovalov form is defined on top-degree flags")
    for f in (f1, f2):
        check_length(f, arr.basis(arr.ambient_dim))
    total = Fraction(0)
    for prod, coords in arr.weighted_top():
        total = total + prod * sparse_dot(coords, f1.coords) * sparse_dot(coords, f2.coords)
    return total


def top_forms(arr: WeightedArrangement, points):
    """(u, c, (f, B, a)) over the subsets S of top_minors(), in its order:
    u_{S,i} = D_S / prod_{j in S} f_j(t_i), the top logarithmic form of S at
    t_i against dt_1^...^dt_k, c_S = prod_{j in S} a_j, and (f, B, a) =
    WeightedArrangement.at(points), which decides exact or complex."""
    f, B, a = arr.at(points)
    members, d = arr.top_arrays(f.dtype)
    return d[:, None] / np.prod(f[members], axis=1), np.prod(a[members], axis=1), (f, B, a)


def gram(x, c, y):
    """x^T diag(c) y: the Gram matrix of the columns of x against those of y
    under the form that is diagonal with weights c on their coordinates."""
    return x.T @ (c[:, None] * y)


def special_gram(arr: WeightedArrangement, points):
    """G_il = S^(a)(v(t_i), v(t_l)): the gram of the top_forms values u with
    the exponent products c."""
    u, c, _ = top_forms(arr, points)
    return gram(u, c, u)


def special_pairing(arr: WeightedArrangement, t1, t2) -> Scalar:
    """S^(a)(v(t1), v(t2)): the off-diagonal entry of special_gram."""
    return special_gram(arr, [t1, t2]).tolist()[0][1]
