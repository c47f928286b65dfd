"""Special vectors: the specialization map into the top flag space, the
criticality/norm/orthogonality verifications, and symmetry actions with
one-dimensional isotypic projections."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .arrangement import Hyperplane, WeightedArrangement
from .master import hess_det, log_grad
from .osflag import FlagVector, apply_delta, evaluate_form, monomial_pairing
from .scalars import scalar_abs
from .shapovalov import shapovalov_form, special_pairing


def specialize(arr: WeightedArrangement, t) -> FlagVector:
    """v(t): dual coordinates are the evaluations of the basis top forms."""
    k = arr.ambient_dim
    coords = tuple(evaluate_form(arr, s, t) for s in arr.basis(k))
    return FlagVector(k, coords)


def _norm(coords) -> float:
    return math.sqrt(sum(scalar_abs(x) ** 2 for x in coords))


def check(name, lhs, rhs, abs_err, ok) -> dict:
    """One row of a verification report; every verify_* function returns
    such rows, and the CLI serializes them as they are."""
    return {"name": name, "lhs": lhs, "rhs": rhs, "abs_err": abs_err, "pass": ok}


def verify_singular(arr: WeightedArrangement, t, tol=1e-8, name="singular") -> dict:
    """Criticality of t vs singularity of v(t): lhs is |delta v(t)| / max(1,
    |v(t)|), rhs is |grad ln Phi(t)|.  Both within tol or both above it is a
    pass; a mixed outcome is a counterexample."""
    v = specialize(arr, t)
    delta_norm = _norm(apply_delta(arr, v).coords) / max(1.0, _norm(v.coords))
    grad_norm = _norm(log_grad(arr, t))
    return check(name, delta_norm, grad_norm, 0.0,
                 (grad_norm <= tol) == (delta_norm <= tol))


def verify_singular_at_critical(arr: WeightedArrangement, t, tol=1e-8,
                                name="singular_at_critical") -> dict:
    """v(t) is singular at a critical point t: a pass needs both
    |grad ln Phi(t)| and |delta v(t)| / max(1, |v(t)|) within tol."""
    row = verify_singular(arr, t, tol)
    delta_norm = row["lhs"]
    return check(name, delta_norm, 0.0, delta_norm,
                 row["rhs"] <= tol and delta_norm <= tol)


def verify_norm_identity(arr: WeightedArrangement, t, tol=1e-8,
                         name="norm_identity") -> dict:
    """S^(a)(v(t), v(t)) against (-1)^k Hess^(a)(t), within tol relative to
    |rhs|."""
    v = specialize(arr, t)
    lhs = shapovalov_form(arr, v, v)
    rhs = (-1) ** arr.ambient_dim * hess_det(arr, t)
    abs_err = scalar_abs(lhs - rhs)
    return check(name, lhs, rhs, abs_err,
                 abs_err <= tol * max(scalar_abs(rhs), 1e-300))


def verify_orthogonality(arr: WeightedArrangement, t1, t2, tol=1e-10,
                         name="orthogonality") -> dict:
    """S^(a)(v(t1), v(t2)) against 0, within tol relative to the geometric
    mean of the two self-pairings; the tolerance is scale-free in the
    exponents."""
    value = special_pairing(arr, t1, t2)
    n1 = scalar_abs(special_pairing(arr, t1, t1))
    n2 = scalar_abs(special_pairing(arr, t2, t2))
    abs_err = scalar_abs(value)
    return check(name, value, 0.0, abs_err,
                 abs_err <= tol * max(math.sqrt(n1 * n2), 1e-300))


# -- symmetry actions ------------------------------------------------------


def apply_permutation(sigma, t):
    """Coordinate permutation acting on a point: (sigma.t)_{sigma(i)} = t_i."""
    out = [None] * len(t)
    for src, dst in enumerate(sigma):
        out[dst] = t[src]
    return tuple(out)


def permutation_sign(sigma) -> int:
    sign = 1
    seen = [False] * len(sigma)
    for i in range(len(sigma)):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = sigma[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def _invert(sigma):
    inv = [0] * len(sigma)
    for i, j in enumerate(sigma):
        inv[j] = i
    return tuple(inv)


@dataclass(frozen=True)
class SymmetryAction:
    """A group of coordinate permutations preserving the arrangement and its
    exponents, with a one-dimensional character (trivial or sign)."""

    perms: tuple
    hyperplane_perms: tuple
    character: str = "trivial"

    def __len__(self):
        return len(self.perms)

    def chi(self, idx: int):
        if self.character == "trivial":
            return 1
        if self.character == "sign":
            return permutation_sign(self.perms[idx])
        raise ValueError(
            f"character {self.character!r} unsupported: only one-dimensional "
            "characters (trivial, sign) are in scope"
        )

    def rho(self, idx: int) -> int:
        # for coordinate permutations the volume-form factor is the sign
        return permutation_sign(self.perms[idx])


def _induced_hyperplane_perm(arr: WeightedArrangement, sigma) -> tuple:
    """Index permutation with H_{pi(m)} the image of H_m under the coordinate
    permutation; image equations may differ by a scalar factor."""
    inv = _invert(sigma)
    index = {h.integer_row(): m for m, h in enumerate(arr.hyperplanes)}
    pi = []
    for m, h in enumerate(arr.hyperplanes):
        image = Hyperplane(h.b0, tuple(h.b[inv[j]] for j in range(arr.ambient_dim)))
        match = index.get(image.integer_row())
        if match is None:
            raise ValueError(f"permutation {sigma} does not preserve the arrangement")
        if arr.exponents[match] != arr.exponents[m]:
            raise ValueError(
                f"permutation {sigma} does not preserve the exponents "
                f"({m} -> {match})"
            )
        pi.append(match)
    return tuple(pi)


def build_action(arr: WeightedArrangement, perms, character="trivial") -> SymmetryAction:
    perms = [tuple(p) for p in perms]
    hp = tuple(_induced_hyperplane_perm(arr, p) for p in perms)
    return SymmetryAction(perms=tuple(perms), hyperplane_perms=hp, character=character)


def apply_flag_action(arr, action, idx, flag: FlagVector) -> FlagVector:
    """R_g on dual coordinates: (R_g F)_S pairs F with e_{pi^-1(S)}, pi the
    hyperplane permutation of g, so the duality pairing is invariant."""
    inv = _invert(action.hyperplane_perms[idx])
    return FlagVector(flag.degree, tuple(monomial_pairing(arr, tuple(inv[j] for j in s), flag)
                                         for s in arr.basis(flag.degree)))


def isotypic_project(arr: WeightedArrangement, action: SymmetryAction,
                     flag: FlagVector) -> FlagVector:
    """Projection onto the isotypic component of the (one-dimensional)
    character: (1/|G|) sum_g conj(chi(g)) R_g."""
    n = len(arr.basis(arr.ambient_dim))
    acc = [Fraction(0)] * n
    for idx in range(len(action)):
        chi = action.chi(idx)  # real for trivial/sign; conjugation is a no-op
        img = apply_flag_action(arr, action, idx, flag)
        for i in range(n):
            acc[i] = acc[i] + chi * img.coords[i]
    inv = Fraction(1, len(action))
    return FlagVector(flag.degree, tuple(inv * x for x in acc))


def verify_isotypic_norm(arr: WeightedArrangement, action: SymmetryAction, t,
                         tol=1e-8) -> dict:
    """S^(a)(v_j(t), v_j(t)) against c (-1)^k Hess^(a)(t) with c = 1/|G| for
    a real one-dimensional character, within tol relative to |rhs|.
    Requires a free orbit."""
    orbit = {tuple(complex(x) for x in apply_permutation(p, t)) for p in action.perms}
    if len(orbit) != len(action):
        raise ValueError("orbit smaller than the group; identity not applicable")
    vj = isotypic_project(arr, action, specialize(arr, t))
    lhs = shapovalov_form(arr, vj, vj)
    rhs = Fraction(1, len(action)) * (-1) ** arr.ambient_dim * hess_det(arr, t)
    abs_err = scalar_abs(lhs - rhs)
    return check("isotypic_norm", lhs, rhs, abs_err,
                 abs_err <= tol * max(scalar_abs(rhs), 1e-300))


def full_symmetric_action(arr: WeightedArrangement, k: int, character="trivial"):
    return build_action(arr, list(itertools.permutations(range(k))), character)
