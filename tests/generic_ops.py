"""Operators on the top flag space of a generic arrangement.

A generic arrangement has every k-subset intersecting in a point and every
(k+1)-subset empty.  The standard basis of the top flag space is indexed by
sorted k-subsets, and these operators realize the orthogonality mechanism:
each K_j is self-adjoint for the Shapovalov form and has every special
vector at a critical point as an eigenvector with eigenvalue a(H_j)/f_j(t).
They are used as a small-instance test oracle only.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from bethearr import linalg
from bethearr.arrangement import Hyperplane, WeightedArrangement


def random_generic(rng, k: int, n: int) -> WeightedArrangement:
    """n hyperplanes in C^k with integer coefficients in [-9, 9] (normal
    entries nonzero) and unit exponents, redrawn until generic."""
    while True:
        rows = [(rng.randint(-9, 9), *(rng.choice((-1, 1)) * rng.randint(1, 9)
                                       for _ in range(k))) for _ in range(n)]
        try:
            arr = WeightedArrangement(
                k, [Hyperplane(Fraction(r[0]), tuple(map(Fraction, r[1:]))) for r in rows],
                [Fraction(1)] * n)
        except ValueError:  # proportional equations
            continue
        if is_generic(arr):
            return arr


def is_generic(arr: WeightedArrangement) -> bool:
    k = arr.ambient_dim
    for s in itertools.combinations(range(arr.n), k):
        if not arr.general_position(s):
            return False
    for s in itertools.combinations(range(arr.n), k + 1):
        if arr.rank_report(s).consistent:
            return False
    return True


def standard_basis(arr: WeightedArrangement) -> list[tuple]:
    """Sorted k-subsets; for a generic arrangement this is the validated basis."""
    basis = arr.basis(arr.ambient_dim)
    expected = list(itertools.combinations(range(arr.n), arr.ambient_dim))
    if basis != expected:
        raise ValueError("standard basis requires a generic arrangement")
    return basis


def _coeff_det(arr, subset):
    return linalg.det([list(arr.hyperplanes[j].b) for j in subset])


def dependency_constant(arr: WeightedArrangement, tuple_j) -> Fraction:
    """The constant sum_p (-1)^(p-1) D(J \\ j_p) f_{j_p}(t); the t-terms cancel
    by the cofactor identity, leaving sum_p (-1)^(p-1) D(J \\ j_p) b0_{j_p}."""
    total = Fraction(0)
    for p, j in enumerate(tuple_j):
        minor = [x for x in tuple_j if x != j]
        total = total + (-1) ** p * _coeff_det(arr, minor) * arr.hyperplanes[j].b0
    return total


def l_operator(arr: WeightedArrangement, tuple_j):
    """Matrix of L_{j1..j_{k+1}} on the standard basis (columns = images)."""
    basis = standard_basis(arr)
    pos = {s: i for i, s in enumerate(basis)}
    jset = tuple(sorted(tuple_j))
    if len(jset) != arr.ambient_dim + 1:
        raise ValueError("L operator needs a (k+1)-tuple")
    n = len(basis)
    mat = [[Fraction(0)] * n for _ in range(n)]
    for p in range(len(jset)):  # basis element J \ {j_{p+1}}
        src = tuple(x for q, x in enumerate(jset) if q != p)
        col = pos[src]
        for l in range(len(jset)):
            dst = tuple(x for q, x in enumerate(jset) if q != l)
            coeff = (-1) ** (p + 1) * (-1) ** (l + 1) * arr.exponents[jset[l]]
            mat[pos[dst]][col] = mat[pos[dst]][col] + coeff
    return mat


def k_operator(arr: WeightedArrangement, j: int):
    """Matrix of K_j on the standard basis.  Sign convention chosen so that
    at a critical point t the special vector is an eigenvector with
    eigenvalue a(H_j)/f_j(t)."""
    basis = standard_basis(arr)
    n = len(basis)
    out = [[Fraction(0)] * n for _ in range(n)]
    for jtuple in itertools.combinations(range(arr.n), arr.ambient_dim + 1):
        if j not in jtuple:
            continue
        p = jtuple.index(j)
        minor = tuple(x for x in jtuple if x != j)
        c = (-1) ** p * _coeff_det(arr, minor) / dependency_constant(arr, jtuple)
        lmat = l_operator(arr, jtuple)
        for r in range(n):
            for s in range(n):
                if lmat[r][s] != 0:
                    out[r][s] = out[r][s] + c * lmat[r][s]
    return out
