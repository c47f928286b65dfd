"""Orlik-Solomon algebra in its logarithmic-form realization and the dual
flag space.

Elements of A^p are stored as coordinates over the validated monomial basis
of the arrangement; flag vectors live in the dual coordinates.  Straightening
an arbitrary monomial is one exact reduction of its evaluation row against the
arrangement's factored basis rows, so the sign rule, the general-position
vanishing rule and the three-term circuit relation all hold automatically.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .arrangement import WeightedArrangement
from .scalars import Scalar


def _sort_with_sign(indices):
    """Sort a tuple of distinct indices, returning (sorted_tuple, sign)."""
    idx = list(indices)
    sign = 1
    # insertion sort; tuples here have at most k entries
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    return tuple(idx), sign


@dataclass(frozen=True)
class OSElement:
    """Element of A^p in coordinates over the validated basis."""

    degree: int
    coeffs: dict

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        out = dict(self.coeffs)
        for s, c in other.coeffs.items():
            out[s] = out.get(s, 0) + c
        return OSElement(self.degree, {s: c for s, c in out.items() if c != 0})

    def scale(self, c):
        return OSElement(self.degree, {s: c * v for s, v in self.coeffs.items()})


@dataclass(frozen=True)
class FlagVector:
    """Element of F^p as coordinates in the basis dual to A^p's basis."""

    degree: int
    coords: tuple

    def __add__(self, other):
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return FlagVector(self.degree, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def scale(self, c):
        return FlagVector(self.degree, tuple(c * x for x in self.coords))


def straighten_coords(arr: WeightedArrangement, monomial) -> list:
    """Coordinates of an ordered monomial over the validated basis of A^p."""
    p = len(monomial)
    if p > arr.ambient_dim:
        raise ValueError("degree exceeds ambient dimension")
    if len(set(monomial)) != p:
        return [Fraction(0)] * len(arr.basis(p))
    sorted_m, sign = _sort_with_sign(monomial)
    coords = arr.basis_coords(sorted_m)
    if sign == 1:
        return list(coords)
    return [-c for c in coords]


def straighten(arr: WeightedArrangement, monomial) -> OSElement:
    p = len(monomial)
    coords = straighten_coords(arr, monomial)
    basis = arr.basis(p)
    return OSElement(p, {s: c for s, c in zip(basis, coords) if c != 0})


def d_A_matrix(arr: WeightedArrangement, p: int):
    """Matrix of multiplication by omega(a) = sum a(H) * H, from A^p to A^{p+1},
    in validated bases (rows indexed by the degree p+1 basis)."""
    if not 0 <= p < arr.ambient_dim:
        raise ValueError(f"degree {p} out of range 0..{arr.ambient_dim - 1}")
    src = arr.basis(p)
    dst = arr.basis(p + 1)
    matrix = [[Fraction(0)] * len(src) for _ in dst]
    for col, s in enumerate(src):
        for j, a in enumerate(arr.exponents):
            if a == 0 or j in s:
                continue
            coords = straighten_coords(arr, (j, *s))
            for row in range(len(dst)):
                if coords[row] != 0:
                    matrix[row][col] = matrix[row][col] + a * coords[row]
    return matrix


def delta_F_matrix(arr: WeightedArrangement, p: int):
    """Adjoint differential F^p -> F^{p-1} in dual coordinates: the transpose
    of d_A_matrix at degree p-1."""
    if not 1 <= p <= arr.ambient_dim:
        raise ValueError(f"degree {p} out of range 1..{arr.ambient_dim}")
    return linalg.transpose(d_A_matrix(arr, p - 1))


def apply_delta(arr: WeightedArrangement, flag: FlagVector) -> FlagVector:
    m = delta_F_matrix(arr, flag.degree)
    return FlagVector(flag.degree - 1, tuple(linalg.mat_vec(m, list(flag.coords))))


def pairing(arr: WeightedArrangement, eta: OSElement, flag: FlagVector) -> Scalar:
    if eta.degree != flag.degree:
        raise ValueError("degree mismatch in pairing")
    basis = arr.basis(eta.degree)
    pos = {s: i for i, s in enumerate(basis)}
    return sum(
        (c * flag.coords[pos[s]] for s, c in eta.coeffs.items()), start=Fraction(0)
    )


def monomial_pairing(arr: WeightedArrangement, monomial, flag: FlagVector) -> Scalar:
    """Pairing of an arbitrary (possibly non-basis) monomial with a flag
    vector, through straightening."""
    coords = straighten_coords(arr, monomial)
    return sum((c * x for c, x in zip(coords, flag.coords)), start=Fraction(0))


def _flag_chain(arr: WeightedArrangement, ordered):
    """The flag of an ordered general-position tuple as the chain of closures
    of its prefixes (each closure identifies the stratum)."""
    return tuple(arr.closure(ordered[: i + 1]) for i in range(len(ordered)))


def flag_vector(arr: WeightedArrangement, indices) -> FlagVector:
    """The flag F(H_{i1},...,H_{ip}) as a dual-coordinate vector.

    A basis monomial pairs to (-1)^|sigma| when some permutation sigma of it
    traces out the same chain of strata as the given tuple, and to 0
    otherwise.  Comparing chains of strata (not index tuples) is what makes
    this correct for non-generic arrangements.
    """
    indices = tuple(indices)
    if not arr.general_position(indices):
        raise ValueError(f"tuple {indices} is not in general position")
    p = len(indices)
    target = _flag_chain(arr, indices)
    coords = []
    for s in arr.basis(p):
        value = Fraction(0)
        for perm in itertools.permutations(range(p)):
            ordered = tuple(s[i] for i in perm)
            if _flag_chain(arr, ordered) == target:
                _, sign = _sort_with_sign(perm)
                value = Fraction(sign)
                break
        coords.append(value)
    return FlagVector(p, tuple(coords))


def evaluate_form(arr: WeightedArrangement, subset, t) -> Scalar:
    """u_S(t) = det(b-rows of S) / prod f_j(t): the coefficient of the top
    logarithmic form of a k-subset against dt_1^...^dt_k."""
    subset = tuple(subset)
    if len(subset) != arr.ambient_dim:
        raise ValueError("evaluate_form needs a top-degree subset")
    values = [arr.hyperplanes[j].evaluate(t) for j in subset]
    for v in values:
        if (v == 0) if isinstance(v, (int, Fraction)) else abs(complex(v)) < 1e-14:
            raise ValueError("point on arrangement")
    ordered, sign = _sort_with_sign(subset)
    d = sign * arr.top_minors().get(ordered, Fraction(0))
    return d / math.prod(values, start=Fraction(1))


def singular_basis(arr: WeightedArrangement) -> list[FlagVector]:
    """Basis of the kernel of the adjoint differential on top-degree flags."""
    k = arr.ambient_dim
    m = delta_F_matrix(arr, k)
    kernel = linalg.nullspace(m, ncols=len(arr.basis(k)))
    return [FlagVector(k, tuple(v)) for v in kernel]
