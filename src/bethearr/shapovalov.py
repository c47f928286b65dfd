"""Shapovalov map and bilinear form of a weighted arrangement on flags, and
`gram`: the Gram matrix of vectors known by their values, on which both
S^(a) and the Gaudin S_V are diagonal."""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .arrangement import WeightedArrangement
from .osflag import FlagVector, OSElement, check_length, sparse_dot
from .scalars import Scalar


def _weighted_top(arr: WeightedArrangement):
    """(exponent product, nonzero straightened coordinates) of each
    general-position k-subset whose exponent product is nonzero.  On a
    generic arrangement every such subset is a basis monomial, so it has
    one coordinate."""
    for subset in arr.candidate_monomials(arr.ambient_dim):
        prod = Fraction(1)
        for j in subset:
            prod = prod * arr.exponents[j]
        if prod != 0:
            yield prod, arr.basis_coords(subset)


def _top_basis(arr: WeightedArrangement, flags, what: str) -> list:
    """The top-degree basis, once each flag is checked to be a top-degree
    flag with one coordinate per basis monomial."""
    k = arr.ambient_dim
    if any(f.degree != k for f in flags):
        raise ValueError(f"{what} is defined on top-degree flags")
    basis = arr.basis(k)
    for f in flags:
        check_length(f, basis)
    return basis


def shapovalov_form(arr: WeightedArrangement, f1: FlagVector, f2: FlagVector) -> Scalar:
    """S^(a)(F1, F2): sum over general-position k-subsets of the exponent
    product times both pairings, each taken over the subset's nonzero
    straightened coordinates only."""
    _top_basis(arr, (f1, f2), "Shapovalov form")
    total = Fraction(0)
    for prod, coords in _weighted_top(arr):
        total = total + prod * sparse_dot(coords, f1.coords) * sparse_dot(coords, f2.coords)
    return total


def shapovalov_map(arr: WeightedArrangement, flag: FlagVector) -> OSElement:
    """The Shapovalov image of a top-degree flag in A^k coordinates."""
    basis = _top_basis(arr, (flag,), "Shapovalov map")
    out = [Fraction(0)] * len(basis)
    for prod, coords in _weighted_top(arr):
        p = sparse_dot(coords, flag.coords)
        if p == 0:
            continue
        for i, c in coords.items():
            out[i] = out[i] + prod * p * c
    return OSElement(arr.ambient_dim, {s: c for s, c in zip(basis, out) if c != 0})


def top_forms(arr: WeightedArrangement, points):
    """(u, c, (f, B, a)) over the subsets S of top_minors(), in its order:
    u_{S,i} = D_S / prod_{j in S} f_j(t_i), the top logarithmic form of S at
    t_i against dt_1^...^dt_k, c_S = prod_{j in S} a_j, and (f, B, a) =
    WeightedArrangement.at(points), which decides exact or complex."""
    f, B, a = arr.at(points)
    minors = arr.top_minors()
    members = np.array(list(minors), dtype=int)
    d = np.array(list(minors.values()), dtype=f.dtype)
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
