"""Shapovalov map and bilinear form of a weighted arrangement, and the
closed-form pairing of special vectors."""

from __future__ import annotations

import itertools
from fractions import Fraction

import numpy as np

from .arrangement import WeightedArrangement
from .osflag import FlagVector, OSElement, check_length, sparse_dot
from .scalars import Scalar, is_exact


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


def special_gram(arr: WeightedArrangement, points):
    """G_il = S^(a)(v(t_i), v(t_l)) = (U^T diag(c) U)_il over the top_minors() D_S:
    U_{S,i} = prod_{j in S} 1 / f_j(t_i), c_S = D_S^2 prod_{j in S} a_j.  Exact
    (dtype object) at rational points and exponents, else complex (numeric view)."""
    if any(arr.contains_point(t) for t in points):
        raise ValueError("point on arrangement")
    minors = arr.top_minors()
    members = np.array(list(minors), dtype=int)
    if all(map(is_exact, itertools.chain(arr.exponents, *points))):
        f = np.array([arr.evaluate_all(t) for t in points], dtype=object).T
        a = np.array(arr.exponents, dtype=object)
    else:
        b0, B, a = arr.numeric()
        f = b0[:, None] + B @ np.array(points, dtype=complex).T
    d = np.array(list(minors.values()), dtype=f.dtype)
    u = 1 / np.prod(f[members], axis=1)
    c = d * d * np.prod(a[members], axis=1)
    return u.T @ (c[:, None] * u)


def special_pairing(arr: WeightedArrangement, t1, t2) -> Scalar:
    """S^(a)(v(t1), v(t2)): the off-diagonal entry of special_gram."""
    return special_gram(arr, [t1, t2]).tolist()[0][1]
