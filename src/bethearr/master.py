"""Master function of a weighted arrangement: logarithmic gradient and
Hessian, Newton search for critical points, non-degeneracy classification,
symmetry-orbit grouping.

Everything works with ln Phi only; the multivalued master function itself is
never exponentiated.  log_grad, log_hessian and hess_det accept exact
rational input and then return exact values; they serve the verifiers.  The
Newton solver works on complex numpy arrays read from the arrangement once
per start and calls none of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import numpy as np

from . import linalg
from .arrangement import WeightedArrangement

MAX_ITER = 50  # Newton steps per start


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
    """Gradient of ln Phi: component i = sum_j a_j b^i_j / f_j(t)."""
    if arr.contains_point(t):
        raise ValueError("point on arrangement")
    values = arr.evaluate_all(t)
    out = []
    for i in range(arr.ambient_dim):
        out.append(sum(
            (a * h.b[i] / v for h, a, v in zip(arr.hyperplanes, arr.exponents, values)
             if h.b[i] != 0 and a != 0),
            start=Fraction(0),
        ))
    return out


def log_hessian(arr: WeightedArrangement, t):
    """Hessian of ln Phi: entry (i,l) = -sum_j a_j b^i_j b^l_j / f_j(t)^2."""
    if arr.contains_point(t):
        raise ValueError("point on arrangement")
    values = arr.evaluate_all(t)
    k = arr.ambient_dim
    mat = [[Fraction(0)] * k for _ in range(k)]
    for h, a, v in zip(arr.hyperplanes, arr.exponents, values):
        if a == 0:
            continue
        w = a / (v * v)
        for i in range(k):
            if h.b[i] == 0:
                continue
            for l in range(i, k):
                if h.b[l] != 0:
                    mat[i][l] = mat[i][l] - w * h.b[i] * h.b[l]
    for i in range(k):
        for l in range(i + 1, k):
            mat[l][i] = mat[i][l]
    return mat


def hess_det(arr: WeightedArrangement, t):
    """Hess^(a)(t): determinant of the log-Hessian."""
    return linalg.det(log_hessian(arr, t))


def _log_residual(f, g) -> float:
    """log(|prod f| |g|): the cleared-denominator residual, in log scale to
    avoid overflow."""
    gn = np.linalg.norm(g)
    return -np.inf if gn == 0.0 else float(np.sum(np.log(np.abs(f))) + np.log(gn))


def newton_solve(arr: WeightedArrangement, t0, tol=1e-12):
    """Newton iteration on the logarithmic gradient with the log-Hessian as
    Jacobian, at most MAX_ITER steps.  Returns a CriticalPoint or a
    DivergenceReport.

    The arrangement is read once into complex arrays b0, B and a; each
    iterate and line-search candidate t is evaluated once, as f = b0 + B t
    and g = B^T (a/f), and each iterate's Hessian is -B^T diag(a/f^2) B.

    Iterates escaping far outside the arrangement's data are rejected: the
    gradient also decays to zero at infinity, so a plain norm test would
    accept bogus points there.
    """
    start = tuple(map(complex, t0))
    escape = 1e6 * _start_box_radius(arr)
    rows = np.array([[h.b0, *h.b] for h in arr.hyperplanes], dtype=complex)
    b0, B = rows[:, 0], rows[:, 1:]
    a = np.array(arr.exponents, dtype=complex)
    t = np.array(start)
    f = b0 + B @ t
    if np.min(np.abs(f)) < 1e-12:
        raise ValueError("start point lies on the arrangement")
    g = B.T @ (a / f)
    merit = _log_residual(f, g)

    for it in range(MAX_ITER):
        if np.max(np.abs(t)) > escape:
            return DivergenceReport(start, "escaped to infinity", it)
        if np.min(np.abs(f)) < 1e-12:
            return DivergenceReport(start, "hyperplane collision", it)
        h = -(B.T * (a / f ** 2)) @ B
        if np.linalg.norm(g) <= tol:
            hd = complex(np.linalg.det(h))
            # degenerate: |det H| tiny against the median |f|^-2 scale
            scale = np.sort(np.abs(f) ** -2)[len(f) // 2] ** arr.ambient_dim
            return CriticalPoint(tuple(map(complex, t)), float(np.linalg.norm(g)), hd,
                                 abs(hd) > 1e-8 * scale)
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
            if np.min(np.abs(fc)) > 1e-12:  # before a / fc can divide by zero
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
    return 2.0 * float(max(1, *(abs(x) for h in arr.hyperplanes for x in (h.b0, *h.b))))


def find_critical_points(arr: WeightedArrangement, seed=0, n_starts=100,
                         tol=1e-12) -> list[CriticalPoint]:
    """Multi-start Newton search; deduplicated, deterministically ordered.

    May return fewer points than |chi(U)|; the caller compares counts.
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
    found.sort(key=lambda cp: tuple((round(z.real, 9), round(z.imag, 9)) for z in cp.t))
    unique: list[CriticalPoint] = []
    for cp in found:
        if all(max(abs(a - b) for a, b in zip(cp.t, u.t)) >= merge for u in unique):
            unique.append(cp)
    return unique


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
            gt = [None] * len(points[i].t)
            for src, dst in enumerate(g):
                gt[dst] = points[i].t[src]
            for j in range(i + 1, n):
                if orbit[j] == -1 and max(
                    abs(a - b) for a, b in zip(gt, points[j].t)
                ) < tol:
                    orbit[j] = next_id
        next_id += 1
    for cp, oid in zip(points, orbit):
        cp.orbit_id = oid
    return points


def symmetric_group(k: int):
    """All coordinate permutations of {0..k-1}."""
    return [tuple(p) for p in itertools.permutations(range(k))]
