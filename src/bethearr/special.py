"""Special vectors: the specialization map into the top flag space, the
criticality/norm/orthogonality verifications, and symmetry actions with
one-dimensional isotypic projections of special vectors, read from the
special vectors along the orbit of the point, all paired by shapovalov.gram."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .arrangement import WeightedArrangement, apply_permutation, primitive_row, sort_with_sign
from .master import hess_det
from .osflag import FlagVector, delta_F_matrix
from .scalars import scalar_abs
from .shapovalov import gram, special_gram, top_forms


def _basis_rows(arr: WeightedArrangement) -> list[int]:
    """The position in top_minors() of each top-degree basis monomial."""
    index = arr.top_index()
    return [index[s] for s in arr.basis(arr.ambient_dim)]


def specialize(arr: WeightedArrangement, t) -> FlagVector:
    """v(t): dual coordinates are the values at t of the basis top forms, the
    basis rows of top_forms."""
    u = top_forms(arr, [t])[0]
    return FlagVector(arr.ambient_dim, tuple(u[_basis_rows(arr), 0].tolist()))


def _column_norms(x) -> list[float]:
    """Euclidean norm of each column, rounded once at exact input."""
    return np.sqrt(np.sum(x * np.conj(x), axis=0).real.astype(float)).tolist()


def check(name, lhs, rhs, abs_err, ok) -> dict:
    """One row of a verification report; every verify_* function returns
    such rows, and the CLI serializes them as they are."""
    return {"name": name, "lhs": lhs, "rhs": rhs, "abs_err": abs_err, "pass": ok}


def _singular_row(name, delta_norm, grad_norm, tol) -> dict:
    """Both within tol or both above it is a pass; a mixed outcome is a counterexample."""
    return check(name, delta_norm, grad_norm, 0.0, (grad_norm <= tol) == (delta_norm <= tol))


def norm_row(name, lhs, rhs, tol) -> dict:
    """A norm against its expected value, within tol relative to |rhs|."""
    abs_err = scalar_abs(lhs - rhs)
    return check(name, lhs, rhs, abs_err, abs_err <= tol * max(scalar_abs(rhs), 1e-300))


def orthogonality_row(name, g, i, l, tol) -> dict:
    """Gram entry G_il against 0, within tol relative to the geometric mean
    of |G_ii| and |G_ll| (scale-free in the exponents)."""
    abs_err = scalar_abs(g[i][l])
    scale = math.sqrt(scalar_abs(g[i][i]) * scalar_abs(g[l][l]))
    return check(name, g[i][l], 0.0, abs_err, abs_err <= tol * max(scale, 1e-300))


def _orthogonality_rows(g, tol) -> list[dict]:
    """orthogonality_row for each pair i < l."""
    return [orthogonality_row(f"orthogonality_{i}_{l}", g, i, l, tol)
            for i, l in itertools.combinations(range(len(g)), 2)]


def point_checks(arr: WeightedArrangement, points, controls, tol=1e-8) -> list[dict]:
    """Every row of `bethearr verify`, in order: per critical point t_i,
    singular_at_critical_i (|delta v(t_i)| / max(1, |v(t_i)|) and |grad ln
    Phi(t_i)| both within max(tol, 1e-8)) and norm_identity_i; per control
    point, control_point_j (verify_singular at 1e-8); then orthogonality_i_l
    at max(tol, 1e-10).  One top_forms evaluation gives every v(t), as the
    basis rows of u, and every gradient B^T (a/f); delta is built once, and
    the norm and orthogonality rows read one gram of u."""
    k, m = arr.ambient_dim, len(points)
    u, c, (f, B, a) = top_forms(arr, [*points, *controls])
    v = u[_basis_rows(arr)]
    delta = np.array(delta_F_matrix(arr, k), dtype=u.dtype)
    delta_norm = [d / max(1.0, n) for d, n in zip(_column_norms(delta @ v), _column_norms(v))]
    grad_norm = _column_norms(B.T @ (a[:, None] / f))
    g = gram(u[:, :m], c, u[:, :m]).tolist()
    rows, critical_tol = [], max(tol, 1e-8)
    for i, t in enumerate(points):
        ok = grad_norm[i] <= critical_tol and delta_norm[i] <= critical_tol
        rows.append(check(f"singular_at_critical_{i}", delta_norm[i], 0.0, delta_norm[i], ok))
        rows.append(norm_row(f"norm_identity_{i}", g[i][i], (-1) ** k * hess_det(arr, t), tol))
    for j in range(m, u.shape[1]):
        rows.append(_singular_row(f"control_point_{j - m + 1}", delta_norm[j], grad_norm[j], 1e-8))
    return rows + _orthogonality_rows(g, max(tol, 1e-10))


def verify_singular(arr: WeightedArrangement, t, tol=1e-8) -> dict:
    """Criticality of t vs singularity of v(t): the control row of
    point_checks at t, lhs |delta v(t)| / max(1, |v(t)|) and rhs |grad ln
    Phi(t)|, judged at tol."""
    row = point_checks(arr, [], [t])[0]
    return _singular_row("singular", row["lhs"], row["rhs"], tol)


def verify_norm_identity(arr: WeightedArrangement, t, tol=1e-8) -> dict:
    """S^(a)(v(t), v(t)), the one entry of special_gram(arr, [t]), against
    (-1)^k Hess^(a)(t), within tol relative to |rhs|."""
    lhs = special_gram(arr, [t]).tolist()[0][0]
    return norm_row("norm_identity", lhs, (-1) ** arr.ambient_dim * hess_det(arr, t), tol)


def orthogonality_checks(arr: WeightedArrangement, points, tol=1e-10) -> list[dict]:
    """The orthogonality rows of point_checks, judged at tol, from one special_gram."""
    return _orthogonality_rows(special_gram(arr, points).tolist(), tol)


def verify_orthogonality(arr: WeightedArrangement, t1, t2, tol=1e-10) -> dict:
    """The orthogonality_checks row of the two points."""
    return {**orthogonality_checks(arr, [t1, t2], tol)[0], "name": "orthogonality"}


# -- symmetry actions ------------------------------------------------------


def permutation_sign(sigma) -> int:
    return sort_with_sign(sigma)[1]


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
        return permutation_sign(self.perms[idx])


def _induced_hyperplane_perm(arr: WeightedArrangement, sigma) -> tuple:
    """Index permutation with H_{pi(m)} the image of H_m under the coordinate
    permutation; image equations may differ by a scalar factor."""
    inv = apply_permutation(sigma, range(len(sigma)))  # inv[sigma[i]] = i
    rows = arr.integer_rows()
    index = {row: m for m, row in enumerate(rows)}
    pi = []
    for m, row in enumerate(rows):
        image = (row[0], *(row[1 + inv[j]] for j in range(arr.ambient_dim)))
        match = index.get(primitive_row(image))
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
    """The action of perms with a one-dimensional character, trivial or
    sign; ValueError on any other character, or on a permutation that does
    not preserve the arrangement and its exponents."""
    if character not in ("trivial", "sign"):
        raise ValueError(f"character {character!r} unsupported: only one-dimensional "
                         "characters (trivial, sign) are in scope")
    perms = [tuple(p) for p in perms]
    hp = tuple(_induced_hyperplane_perm(arr, p) for p in perms)
    return SymmetryAction(perms=tuple(perms), hyperplane_perms=hp, character=character)


def isotypic_values(arr: WeightedArrangement, action: SymmetryAction, points):
    """(x, c): x_{S,i} is the value on the subset S of top_minors() of
    v_chi(t_i) = (1/|G|) sum_g chi(g) sign(g) v(g.t_i), the projection of
    v(t_i) onto the isotypic component of the (one-dimensional, real)
    character since R_g v(t) = sign(g) v(g.t), and c is that of top_forms,
    whose one evaluation of every orbit gives each v(g.t_i): exact at
    rational input, else complex."""
    points = list(points)
    orbits = [apply_permutation(p, t) for t in points for p in action.perms]
    u, c, _ = top_forms(arr, orbits)
    weights = np.array([Fraction(action.chi(i) * permutation_sign(p), len(action))
                        for i, p in enumerate(action.perms)], dtype=u.dtype)
    return u.reshape(len(u), len(points), len(action)) @ weights, c


def isotypic_project(arr: WeightedArrangement, action: SymmetryAction, t) -> FlagVector:
    """v_chi(t) as a flag: the basis rows of isotypic_values."""
    x, _ = isotypic_values(arr, action, [t])
    return FlagVector(arr.ambient_dim, tuple(x[_basis_rows(arr), 0].tolist()))


def verify_isotypic_norm(arr: WeightedArrangement, action: SymmetryAction, t,
                         tol=1e-8) -> dict:
    """S^(a)(v_j(t), v_j(t)), the gram of isotypic_values, against
    c (-1)^k Hess^(a)(t) with c = 1/|G| for a real one-dimensional
    character, within tol relative to |rhs|.  Requires a free orbit."""
    orbit = {tuple(complex(x) for x in apply_permutation(p, t)) for p in action.perms}
    if len(orbit) != len(action):
        raise ValueError("orbit smaller than the group; identity not applicable")
    x, c = isotypic_values(arr, action, [t])
    lhs = gram(x, c, x).tolist()[0][0]
    rhs = Fraction(1, len(action)) * (-1) ** arr.ambient_dim * hess_det(arr, t)
    return norm_row("isotypic_norm", lhs, rhs, tol)


def full_symmetric_action(arr: WeightedArrangement, character="trivial"):
    """Every permutation of the arrangement's coordinates."""
    return build_action(arr, list(itertools.permutations(range(arr.ambient_dim))), character)
