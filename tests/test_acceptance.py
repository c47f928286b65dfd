"""Acceptance suite: eight end-to-end criteria, one printed pass/fail line
each.  Every criterion is backed by an independent oracle (hand computation,
closed-form roots, or exact rational cross-checks)."""

import itertools
import math
from fractions import Fraction

import numpy as np

from bethearr.arrangement import Hyperplane, WeightedArrangement, with_exponents
from bethearr.gaudin import (GaudinProblem, build_discriminantal,
                             canonical_weight_function, composition_flag,
                             gaudin_hamiltonian, singular_dimension,
                             tensor_shapovalov, verify_bethe,
                             verify_shap_correspondence, weight_basis)
from bethearr.master import find_critical_points, hess_det, log_grad, log_hessian
from bethearr.shapovalov import shapovalov_form, special_pairing
from bethearr.special import (full_symmetric_action, specialize, verify_norm_identity,
                              verify_singular)
from conftest import negated_diagonals, point_arrangement
import os_oracle

F = Fraction


def _report(num: int, description: str, ok: bool) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num}] {description}: {status}")
    assert ok, f"criterion {num} failed: {description}"


def _float_copy(arr: WeightedArrangement) -> WeightedArrangement:
    hyperplanes = [
        Hyperplane(complex(h.b0), tuple(complex(x) for x in h.b), h.label)
        for h in arr.hyperplanes
    ]
    return WeightedArrangement(
        arr.ambient_dim, hyperplanes, [complex(a) for a in arr.exponents]
    )


def test_criterion_1_norm_identity(generic3, generic4):
    """Flag-path Shapovalov norm equals (-1)^k det log-Hessian: exact at 20
    rational points, and within 1e-9 relative in float arithmetic."""
    ok = True
    for arr in (with_exponents(generic3, [F(1), F(2), F(1, 2)]),
                with_exponents(generic4, [F(1), F(3), F(2), F(1, 5)])):
        points = arr.sample_points(20)
        for t in points:
            r = verify_norm_identity(arr, t)
            ok = ok and r["lhs"] == r["rhs"]
        farr = _float_copy(arr)
        for t in points:
            tf = tuple(complex(x) for x in t)
            r = verify_norm_identity(farr, tf)
            scale = max(abs(complex(r["rhs"])), 1e-300)
            ok = ok and r["abs_err"] <= 1e-9 * scale
    _report(1, "norm identity S(v(t),v(t)) = (-1)^k Hess(t)", ok)


def test_criterion_2_criticality_singularity(generic4, points3):
    """delta v(t) vanishes exactly at converged critical points and is
    bounded away from zero at random control points."""
    ok = True
    for arr in (generic4, points3):
        points = find_critical_points(arr, seed=0, n_starts=200)
        ok = ok and bool(points)
        for cp in points:
            ok = ok and verify_singular(arr, cp.t)["lhs"] <= 1e-8
        rng = np.random.default_rng(11)
        controls = 0
        while controls < 20:
            t = tuple(
                complex(a, b) for a, b in zip(
                    rng.uniform(-2, 2, arr.ambient_dim),
                    rng.uniform(-2, 2, arr.ambient_dim),
                )
            )
            if arr.contains_point(t):
                continue
            r = verify_singular(arr, t)
            if r["rhs"] <= 1e-8:
                continue  # the rng landed on a critical point; skip it
            controls += 1
            ok = ok and r["lhs"] >= 1e-3
    _report(2, "criticality of t <=> singularity of v(t)", ok)


def test_criterion_3_orthogonality(points3):
    """k = 1 with points {0, 1, 3}: the two critical points are the roots of
    3 t^2 - 8 t + 3 and their special vectors are S-orthogonal."""
    points = find_critical_points(points3, seed=0, n_starts=50)
    roots = sorted([(4 - math.sqrt(7)) / 3, (4 + math.sqrt(7)) / 3])
    ok = len(points) == 2
    for cp, root in zip(points, roots):
        ok = ok and abs(cp.t[0] - root) <= 1e-10
    value = special_pairing(points3, points[0].t, points[1].t)
    scale = math.sqrt(
        abs(complex(special_pairing(points3, points[0].t, points[0].t)))
        * abs(complex(special_pairing(points3, points[1].t, points[1].t)))
    )
    ok = ok and abs(complex(value)) <= 1e-10 * scale
    _report(3, "orthogonality of special vectors at distinct critical points", ok)


def test_criterion_4_count_vs_euler(generic4):
    """Number of nondegenerate critical points equals |chi(U)|."""
    arr = with_exponents(generic4, [F(1), F(2), F(3), F(5)])
    points = find_critical_points(arr, seed=0, n_starts=200)
    ok = len(points) == 3 and all(cp.nondegenerate for cp in points)
    for zs in ([0, 1, 3], [0, 1, 3, 6], [0, 1, 3, 6, 10]):
        parr = point_arrangement(zs)
        found = find_critical_points(parr, seed=0, n_starts=150)
        poly = np.zeros(len(zs))
        for j in range(len(zs)):
            poly = poly + np.poly([z for l, z in enumerate(zs) if l != j])
        roots = sorted(np.roots(poly), key=lambda z: (z.real, z.imag))
        ok = ok and len(found) == len(zs) - 1
        for cp, root in zip(found, roots):
            ok = ok and abs(cp.t[0] - root) <= 1e-10
    _report(4, "critical point count equals |chi(U)| with root oracle", ok)


def test_criterion_5_sl2_end_to_end(gaudin_2x1):
    """n = 2, m = (1,1), k = 1, z = (0,1): solver finds t = 1/2; omega is the
    singlet with S(omega, omega) = 8 and K_1-eigenvalue 3/2."""
    arr = build_discriminantal(gaudin_2x1)
    points = find_critical_points(arr, seed=0, n_starts=50)
    ok = len(points) == 1 and abs(points[0].t[0] - 0.5) <= 1e-12
    t = points[0].t
    omega = canonical_weight_function(gaudin_2x1, t)
    ratio = complex(omega.coords[0]) / complex(omega.coords[1])
    ok = ok and abs(ratio + 1) <= 1e-12
    norm = complex(tensor_shapovalov(gaudin_2x1, omega, omega))
    ok = ok and abs(norm - 8) <= 1e-10
    k1 = np.array([[complex(x) for x in row]
                   for row in gaudin_hamiltonian(gaudin_2x1, 0)])
    w = np.array([complex(x) for x in omega.coords])
    lam = complex(np.vdot(w, k1 @ w) / np.vdot(w, w))
    ok = ok and abs(lam - 1.5) <= 1e-10
    _report(5, "sl2 hand-solved singlet instance end to end", ok)


def test_criterion_6_bethe_basis_rank(gaudin_3x1):
    """n = 3, m = (1,1,1), k = 1: two Bethe vectors span the 2-dimensional
    singular weight space; Gram determinant is the product of Hessians."""
    ok = singular_dimension(gaudin_3x1) == 2
    arr = build_discriminantal(gaudin_3x1)
    points = find_critical_points(arr, seed=0, n_starts=60)
    ok = ok and len(points) == 2
    vectors = [canonical_weight_function(gaudin_3x1, cp.t) for cp in points]
    gram = np.array([
        [complex(tensor_shapovalov(gaudin_3x1, a, b)) for b in vectors]
        for a in vectors
    ])
    ok = ok and int(np.linalg.matrix_rank(gram)) == 2
    prod = complex(points[0].hess_det) * complex(points[1].hess_det)
    ok = ok and abs(np.linalg.det(gram) - prod) <= 1e-8 * abs(prod)
    _report(6, "Bethe vectors span Sing V with Gram det = product of Hessians", ok)


def test_criterion_7_shapovalov_correspondence(gaudin_2x2, gaudin_2x1):
    """Module-side and flag-side Shapovalov values agree exactly; the
    factorial factor is k_1!...k_r! and the diagonal exponent sign is the
    master-function one."""
    r2 = verify_shap_correspondence(gaudin_2x2)
    r1 = verify_shap_correspondence(gaudin_2x1)
    ok = r2["pass"] and r2["lhs"] == 2
    ok = ok and r1["pass"] and r1["lhs"] == 1
    # the negated diagonal convention must break the identity
    arr_alt = negated_diagonals(gaudin_2x2)
    basis = weight_basis(gaudin_2x2)
    flags = {c: composition_flag(gaudin_2x2, arr_alt, c) for c in basis}
    alt = [shapovalov_form(arr_alt, flags[c], flags[c]) for c in basis]
    ok = ok and alt != [F(2)] * 3
    _report(7, "module/flag Shapovalov correspondence with determined factor", ok)


def test_criterion_8_commutativity_and_invariants(gaudin_2x1, gaudin_3x1,
                                                 gaudin_2x2, generic4):
    """Hamiltonians commute exactly, the flag form is invariant under the
    symmetry action, and the Hessian matches finite differences."""
    ok = True
    extra = GaudinProblem(
        gaudin_2x2.cartan, ((2,), (1,), (2,)), (2,), (F(0), F(1), F(3))
    )
    for p in (gaudin_2x1, gaudin_3x1, gaudin_2x2, extra):
        mats = [gaudin_hamiltonian(p, i) for i in range(p.n)]
        for a, b in itertools.combinations(mats, 2):
            ok = ok and os_oracle.mat_mul(a, b) == os_oracle.mat_mul(b, a)

    arr = build_discriminantal(gaudin_2x2)
    action = full_symmetric_action(arr)
    f1 = specialize(arr, (F(1, 3), F(7, 5)))
    f2 = specialize(arr, (F(9, 4), F(-2, 7)))
    reference = shapovalov_form(arr, f1, f2)
    for idx in range(len(action)):
        g1 = os_oracle.apply_flag_action(arr, action, idx, f1)
        g2 = os_oracle.apply_flag_action(arr, action, idx, f2)
        ok = ok and shapovalov_form(arr, g1, g2) == reference

    rng = np.random.default_rng(23)
    for target in (generic4, arr):
        checked = 0
        while checked < 10:
            t = tuple(
                complex(a, b) for a, b in zip(
                    rng.uniform(-2, 2, target.ambient_dim),
                    rng.uniform(-2, 2, target.ambient_dim),
                )
            )
            if min(abs(complex(v)) for v in target.evaluate_all(t)) < 1e-3:
                continue
            checked += 1
            h = np.array([[complex(x) for x in row]
                          for row in log_hessian(target, t)])
            eps = 1e-7
            for m in range(target.ambient_dim):
                shifted = list(t)
                shifted[m] += eps
                g1 = np.array([complex(x) for x in log_grad(target, tuple(shifted))])
                shifted[m] -= 2 * eps
                g0 = np.array([complex(x) for x in log_grad(target, tuple(shifted))])
                fd = (g1 - g0) / (2 * eps)
                scale = max(1.0, float(np.linalg.norm(h[:, m])))
                ok = ok and np.linalg.norm(fd - h[:, m]) <= 1e-6 * scale
    _report(8, "commutativity, form invariance, Hessian finite differences", ok)
