"""Master function of a weighted arrangement: logarithmic gradient and
Hessian, Newton search for critical points, non-degeneracy classification,
symmetry-orbit grouping.

Everything works with ln Phi only; the multivalued master function itself is
never exponentiated.  log_grad and log_hessian are B^T (a/f) and
-B^T diag(a/f^2) B read from WeightedArrangement.at: exact at rational
points and exponents, complex otherwise; hess_det serves the verifiers'
norm rows.  The Newton searches evaluate the same formulas once per iterate
on the arrangement's numeric view (WeightedArrangement.numeric) and call
none of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import linalg
from .arrangement import WeightedArrangement, apply_permutation
from .scalars import vanishes

MAX_ITER = 50  # Newton steps per start
CHAMBER_MAX_ITER = 500  # damped Newton steps per chamber


@dataclass
class CriticalPoint:
    t: tuple
    grad_residual: float
    hess_det: complex
    nondegenerate: bool
    orbit_id: Optional[int] = None


@dataclass
class DivergenceReport:
    t0: tuple
    cause: str
    iterations: int


def log_grad(arr: WeightedArrangement, t):
    """Gradient of ln Phi, B^T (a / f(t)): component i = sum_j a_j b^i_j / f_j(t)."""
    f, B, a = arr.at([t])
    return (B.T @ (a / f[:, 0])).tolist()


def log_hessian(arr: WeightedArrangement, t):
    """Hessian of ln Phi, -B^T diag(a / f(t)^2) B: entry (i,l) =
    -sum_j a_j b^i_j b^l_j / f_j(t)^2."""
    f, B, a = arr.at([t])
    return (-(B.T * (a / f[:, 0] ** 2)) @ B).tolist()


def hess_det(arr: WeightedArrangement, t):
    """Hess^(a)(t): determinant of the log-Hessian."""
    return linalg.det(log_hessian(arr, t))


def _log_residual(f, g) -> float:
    """log(|prod f| |g|): the cleared-denominator residual, in log scale to
    avoid overflow."""
    gn = np.linalg.norm(g)
    return -np.inf if gn == 0.0 else float(np.sum(np.log(np.abs(f))) + np.log(gn))


def _critical_point(t, f, g, h) -> CriticalPoint:
    """Degenerate when |det h| is tiny against the median |f|^-2 scale."""
    hd = complex(np.linalg.det(h))
    scale = np.sort(np.abs(f) ** -2)[len(f) // 2] ** len(t)
    return CriticalPoint(tuple(map(complex, t)), float(np.linalg.norm(g)), hd,
                         bool(abs(hd) > 1e-8 * scale))


def newton_solve(arr: WeightedArrangement, t0, tol=1e-12):
    """Newton iteration on the logarithmic gradient with the log-Hessian as
    Jacobian, at most MAX_ITER steps.  Returns a CriticalPoint or a
    DivergenceReport.  Each iterate and line-search candidate t is evaluated
    once, as f = b0 + B t and g = B^T (a/f).  Iterates escaping far outside
    the arrangement's data are rejected: the gradient also decays to zero at
    infinity, so a plain norm test would accept bogus points there.
    """
    start = tuple(map(complex, t0))
    escape = 1e6 * _start_box_radius(arr)
    b0, B, a = arr.numeric()
    t = np.array(start)
    f = b0 + B @ t
    if vanishes(f).any():
        raise ValueError("start point lies on the arrangement")
    g = B.T @ (a / f)
    merit = _log_residual(f, g)

    for it in range(MAX_ITER):
        if np.max(np.abs(t)) > escape:
            return DivergenceReport(start, "escaped to infinity", it)
        h = -(B.T * (a / f ** 2)) @ B
        if np.linalg.norm(g) <= tol:
            return _critical_point(t, f, g, h)
        # Newton step for the cleared-denominator system (prod f) * grad:
        # the Jacobian is (prod f) (H + g s^T) with s_m = sum_l b^m_l / f_l,
        # and the polynomial prefactor cancels in the step.  Unlike a raw
        # Newton step on the gradient this does not diverge to infinity,
        # where the gradient itself also vanishes.
        try:
            step = np.linalg.solve(h + np.outer(g, B.T @ (1.0 / f)), g)
        except np.linalg.LinAlgError:
            return DivergenceReport(start, "singular Jacobian", it)
        if not np.all(np.isfinite(step)):
            return DivergenceReport(start, "non-finite step", it)
        lam = 1.0
        for _ in range(20):
            cand = t - lam * step
            fc = b0 + B @ cand
            if not vanishes(fc).any():  # before a / fc can divide by zero
                gc = B.T @ (a / fc)
                mc = _log_residual(fc, gc)
                if mc < merit:
                    t, f, g, merit = cand, fc, gc, mc
                    break
            lam *= 0.5
        else:
            return DivergenceReport(start, "line search failed", it)
    return DivergenceReport(start, "max iterations exceeded", MAX_ITER)


def _start_box_radius(arr: WeightedArrangement) -> float:
    b0, B, _ = arr.numeric()
    return 2.0 * float(max(1.0, np.max(np.abs(b0)), np.max(np.abs(B))))


def find_critical_points(arr: WeightedArrangement, seed=0, n_starts=100,
                         tol=1e-12) -> list[CriticalPoint]:
    """Multi-start Newton search; deduplicated, deterministically ordered.

    May return fewer points than |chi(U)|; the caller compares counts.  The
    CLI takes chamber_critical_points instead wherever that applies.
    """
    radius = _start_box_radius(arr)
    rng = np.random.default_rng(seed)
    k = arr.ambient_dim
    found: list[CriticalPoint] = []
    for _ in range(n_starts):
        re = rng.uniform(-radius, radius, size=k)
        im = rng.uniform(0.05 * radius, radius, size=k) * rng.choice([-1.0, 1.0], size=k)
        t0 = re + 1j * im
        if arr.contains_point(tuple(t0)):
            continue
        result = newton_solve(arr, tuple(t0), tol=tol)
        if isinstance(result, CriticalPoint):
            found.append(result)
    merge = max(1e-6, tol ** 0.5)  # copies found at a loose tol lie further apart
    found.sort(key=lambda cp: point_key(cp.t))
    unique: list[CriticalPoint] = []
    for cp in found:
        if all(max(abs(a - b) for a, b in zip(cp.t, u.t)) >= merge for u in unique):
            unique.append(cp)
    return unique


def point_key(t) -> tuple:
    """The coordinates of t rounded to 9 places, real and imaginary parts
    apart: points are ordered by their keys, and the same point has one key."""
    return tuple((round(z.real, 9), round(z.imag, 9)) for z in t)


def chamber_critical_points(arr: WeightedArrangement, tol=1e-12) -> list[CriticalPoint]:
    """The critical point of each bounded chamber, the only ones for positive
    exponents and simple vertices (Varchenko 1995), ordered as by
    find_critical_points.  Seeds v + eps M_S^-1 s, s in {+-1}^k, fill the
    chambers at the vertex v of each general-position k-subset S (normals
    M_S).  A damped Newton ascent on the self-concordant -(1/min a) ln Phi
    (Nesterov-Nemirovski) accepts at decrement lambda < 1/4 and
    |g| <= tol max(1, | |B|^T |a/f| |), and gives up past the escape radius."""
    b0, B, a = arr.numeric()
    a, c = a.real, 1.0 / a.real.min()
    seeds = {}  # sign vector of a chamber -> its first seed
    for subset in map(list, arr.top_minors()):
        inv = np.linalg.inv(B[subset])
        v = -inv @ b0[subset]
        fv = b0 + B @ v
        eps = 0.25 * min(np.delete(np.abs(fv), subset), default=1.0) / np.abs(B @ inv).sum(1).max()
        for s in itertools.product((-1.0, 1.0), repeat=len(subset)):
            side = fv > 0
            side[subset] = np.array(s) > 0
            seeds.setdefault(side.tobytes(), v + eps * (inv @ s))
    escape, found = 1e6 * _start_box_radius(arr), []
    for x in seeds.values():
        for _ in range(CHAMBER_MAX_ITER):
            f = b0 + B @ x
            g, h = B.T @ (a / f), -(B.T * (a / f ** 2)) @ B
            d = np.linalg.solve(h, g)
            lam = np.sqrt(max(0.0, -c * (g @ d)))
            if lam < 0.25 and np.linalg.norm(g) <= tol * max(
                    1.0, np.linalg.norm(np.abs(B).T @ np.abs(a / f))):
                found.append(_critical_point(x, f, g, h))
                break
            x = x - (d if lam <= 0.25 else d / (1.0 + lam))
            if np.max(np.abs(x)) > escape:
                break
    return sorted(found, key=lambda cp: point_key(cp.t))


def group_orbits(points: list[CriticalPoint], group, tol=1e-6) -> list[CriticalPoint]:
    """Assign orbit ids under a coordinate-permutation group.

    group is an iterable of permutations sigma (tuples), acting by
    (sigma . t)_{sigma(i)} = t_i.  Points p, q share an orbit iff some group
    element maps p within tol of q.  Returns the same list with orbit_id set.
    """
    perms = [tuple(g) for g in group]
    n = len(points)
    orbit = [-1] * n
    next_id = 0
    for i in range(n):
        if orbit[i] != -1:
            continue
        orbit[i] = next_id
        for g in perms:
            gt = apply_permutation(g, points[i].t)
            for j in range(i + 1, n):
                if orbit[j] == -1 and max(
                    abs(a - b) for a, b in zip(gt, points[j].t)
                ) < tol:
                    orbit[j] = next_id
        next_id += 1
    for cp, oid in zip(points, orbit):
        cp.orbit_id = oid
    return points
