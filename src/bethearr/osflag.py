"""Orlik-Solomon algebra and the dual flag space.

Elements of A^p are stored as coordinates over the arrangement's nbc basis;
flag vectors live in the dual coordinates.  Straightening an ordered
monomial is a sort with its sign, then the arrangement's straightening of the
sorted monomial by the circuit relations (WeightedArrangement.basis_coords),
which keeps only the nonzero coordinates, keyed by basis index.  Flags pair
with general-position monomials through their chains of strata, unstraightened.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .arrangement import WeightedArrangement, sort_with_sign
from .scalars import Scalar


@dataclass(frozen=True)
class FlagVector:
    """Element of F^p as coordinates in the basis dual to A^p's basis."""

    degree: int
    coords: tuple


def straighten_coords(arr: WeightedArrangement, monomial) -> dict:
    """Nonzero coordinates {basis index: coefficient}, ascending keys, of an
    ordered monomial over the certified basis of A^p; ValueError if p
    exceeds the ambient dimension."""
    sorted_m, sign = sort_with_sign(monomial)
    return {i: sign * c for i, c in arr.basis_coords(sorted_m).items()}


def d_A_matrix(arr: WeightedArrangement, p: int):
    """Matrix of multiplication by omega(a) = sum a(H) * H, from A^p to A^{p+1},
    in certified bases (rows indexed by the degree p+1 basis)."""
    if not 0 <= p < arr.ambient_dim:
        raise ValueError(f"degree {p} out of range 0..{arr.ambient_dim - 1}")
    src = arr.basis(p)
    dst = arr.basis(p + 1)
    matrix = [[0] * len(src) for _ in dst]
    for col, s in enumerate(src):
        for j, a in enumerate(arr.exponents):
            if a == 0 or j in s:
                continue
            for row, c in straighten_coords(arr, (j, *s)).items():
                matrix[row][col] = matrix[row][col] + a * c
    return matrix


def delta_F_matrix(arr: WeightedArrangement, p: int):
    """Adjoint differential F^p -> F^{p-1} in dual coordinates: the transpose
    of d_A_matrix at degree p-1."""
    if not 1 <= p <= arr.ambient_dim:
        raise ValueError(f"degree {p} out of range 1..{arr.ambient_dim}")
    return linalg.transpose(d_A_matrix(arr, p - 1))


def check_length(flag: FlagVector, basis) -> None:
    """ValueError unless the flag has one coordinate per monomial of the
    basis of its degree."""
    if len(flag.coords) != len(basis):
        raise ValueError(f"degree {flag.degree} flag has {len(flag.coords)} "
                         f"coordinates, the basis has {len(basis)}")


def sparse_dot(coords: dict, flag_coords) -> Scalar:
    """Sum of c * flag_coords[i] over sparse coordinates {i: c}, in key order."""
    return sum((c * flag_coords[i] for i, c in coords.items()), start=Fraction(0))


def chain_pairing(arr: WeightedArrangement, indices) -> dict:
    """{S: +-1} over the sorted monomials S that pair to nonzero with the
    flag F(H_{i1},...,H_{ip}) of an ordered tuple.

    The tuple's flag is its chain of strata L_0 > ... > L_{p-1}, L_q the
    intersection of its first q+1 hyperplanes, and hyperplane j has level q
    for the least q with L_q in H_j.  The members of a general-position
    monomial at level <= q are independent equations through L_q, so at
    most q+1 of them.  Some ordering of the monomial traces the same chain
    exactly when its levels are 0..p-1; that ordering sorts it by level,
    and it pairs to the sign of that sort.  Every other general-position
    monomial pairs to 0.  So only the product of the level classes is
    enumerated, and each member of it is in general position: its members
    at levels <= q cut out L_q, of codimension q+1.  A member on the flat
    of the prefix before it, or a prefix with empty intersection (closure),
    is not in general position: ValueError.
    """
    indices = tuple(indices)
    classes, flat = [], frozenset()
    for q, j in enumerate(indices):
        if j in flat:
            raise ValueError(f"tuple {indices} is not in general position")
        closed = arr.closure(indices[: q + 1])
        classes.append(closed - flat)
        flat = closed
    return dict(map(sort_with_sign, itertools.product(*classes)))


def flag_vector(arr: WeightedArrangement, indices) -> FlagVector:
    """The flag F(H_{i1},...,H_{ip}) as a dual-coordinate vector: its
    chain_pairing over basis(p)."""
    indices = tuple(indices)
    pairs = chain_pairing(arr, indices)
    return FlagVector(len(indices), tuple(Fraction(pairs.get(s, 0))
                                          for s in arr.basis(len(indices))))


def singular_basis(arr: WeightedArrangement) -> list[FlagVector]:
    """Basis of the kernel of the adjoint differential on top-degree flags."""
    k = arr.ambient_dim
    m = delta_F_matrix(arr, k)
    kernel = linalg.nullspace(m, ncols=len(arr.basis(k)))
    return [FlagVector(k, tuple(v)) for v in kernel]
