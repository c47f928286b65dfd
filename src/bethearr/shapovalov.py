"""Shapovalov map and bilinear form of a weighted arrangement, and the
closed-form pairing of special vectors."""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .arrangement import WeightedArrangement
from .osflag import FlagVector, OSElement
from .scalars import Scalar


def _weighted_top(arr: WeightedArrangement):
    """(exponent product, coordinates over the top basis) of each
    general-position k-subset whose exponent product is nonzero."""
    for subset in arr.candidate_monomials(arr.ambient_dim):
        prod = Fraction(1)
        for j in subset:
            prod = prod * arr.exponents[j]
        if prod != 0:
            yield prod, arr.basis_coords(subset)


def shapovalov_form(arr: WeightedArrangement, f1: FlagVector, f2: FlagVector) -> Scalar:
    """S^(a)(F1, F2): sum over general-position k-subsets of the exponent
    product times both pairings."""
    k = arr.ambient_dim
    if f1.degree != k or f2.degree != k:
        raise ValueError("Shapovalov form is defined on top-degree flags")
    total = Fraction(0)
    for prod, coords in _weighted_top(arr):
        total = total + prod * linalg.dot(coords, f1.coords) * linalg.dot(coords, f2.coords)
    return total


def shapovalov_map(arr: WeightedArrangement, flag: FlagVector) -> OSElement:
    """The Shapovalov image of a top-degree flag in A^k coordinates."""
    k = arr.ambient_dim
    if flag.degree != k:
        raise ValueError("Shapovalov map is implemented on top-degree flags")
    basis = arr.basis(k)
    out = [Fraction(0)] * len(basis)
    for prod, coords in _weighted_top(arr):
        p = linalg.dot(coords, flag.coords)
        if p == 0:
            continue
        for i, c in enumerate(coords):
            out[i] = out[i] + prod * p * c
    return OSElement(k, {s: c for s, c in zip(basis, out) if c != 0})


def special_pairing(arr: WeightedArrangement, t1, t2) -> Scalar:
    """S^(a)(v(t1), v(t2)) by the direct k-subset formula: sum over
    general-position k-subsets of D^2 * prod a(H) / (f(t1) f(t2)), where D is
    the (nonzero) determinant of their coefficient vectors."""
    if arr.contains_point(t1) or arr.contains_point(t2):
        raise ValueError("point on arrangement")
    values1 = arr.evaluate_all(t1)
    values2 = arr.evaluate_all(t2)
    total = Fraction(0)
    for subset, d in arr.top_minors().items():
        term = d * d
        for j in subset:
            term = term * arr.exponents[j] / (values1[j] * values2[j])
        total = total + term
    return total
