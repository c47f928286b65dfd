"""Master-function calculus: gradient, Hessian, Newton search, divergence
handling, orbit grouping."""

import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bethearr import linalg
from bethearr.arrangement import Hyperplane, WeightedArrangement, with_exponents
from bethearr.gaudin import CartanDatum, GaudinProblem, build_discriminantal
from bethearr.master import (CriticalPoint, DivergenceReport, chamber_critical_points,
                             find_critical_points, group_orbits, hess_det,
                             log_grad, log_hessian, newton_solve)
from bethearr.shapovalov import special_gram
from bethearr.osflag import delta_F_matrix
from bethearr.special import point_checks, specialize, verify_norm_identity
from conftest import point_arrangement
from generic_ops import random_generic
import os_oracle
from os_oracle import symmetric_group

F = Fraction


class TestGradientHessian:
    def test_exact_gradient(self, points3):
        # d/dt ln Phi = 1/t + 1/(t-1) + 1/(t-3)
        g = log_grad(points3, (F(2),))
        assert g == [F(1, 2) + F(1, 1) + F(-1, 1)]

    def test_exact_hessian(self, points3):
        h = log_hessian(points3, (F(2),))
        assert h == [[-(F(1, 4) + F(1, 1) + F(1, 1))]]

    def test_hessian_symmetric(self, generic4):
        t = generic4.sample_points(1)[0]
        h = log_hessian(generic4, t)
        assert h == [list(row) for row in zip(*h)]

    def test_point_on_arrangement_rejected(self, points3):
        with pytest.raises(ValueError):
            log_grad(points3, (F(1),))

    def test_hess_det_exact(self, points3):
        assert hess_det(points3, (F(2),)) == -F(9, 4)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(-3, 3), st.integers(-3, 3))
    def test_hessian_is_gradient_jacobian(self, a, b):
        """Finite differences of the gradient match the Hessian."""
        from conftest import line
        from bethearr.arrangement import WeightedArrangement
        generic4 = WeightedArrangement(
            2,
            [line(0, 1, 0), line(0, 0, 1), line(-1, 1, 1), line(-3, 1, 2)],
            [F(1)] * 4,
        )
        t = (0.37 + a + 0.21j, -0.78 + b + 0.43j)
        if generic4.contains_point(t):
            return
        h = np.array([[complex(x) for x in row] for row in log_hessian(generic4, t)])
        eps = 1e-7
        for m in range(2):
            shifted = list(t)
            shifted[m] += eps
            g1 = np.array([complex(x) for x in log_grad(generic4, tuple(shifted))])
            shifted[m] -= 2 * eps
            g0 = np.array([complex(x) for x in log_grad(generic4, tuple(shifted))])
            fd = (g1 - g0) / (2 * eps)
            assert np.linalg.norm(fd - h[:, m]) <= 1e-5 * max(1.0, np.linalg.norm(h))



@st.composite
def weighted_points(draw):
    """A generic arrangement in C^1..C^3, or the discriminantal one of sl2
    m=(2,1,1), k=2, re-weighted by zero, negative and p/q exponents, and two
    rational points off it."""
    if draw(st.booleans()):
        k = draw(st.integers(1, 3))
        arr = random_generic(random.Random(draw(st.integers(0, 99))), k,
                             draw(st.integers(k + 1, k + 3)))
    else:
        arr = build_discriminantal(GaudinProblem(
            CartanDatum.sl2(), ((2,), (1,), (1,)), (2,), (F(0), F(1), F(3))))
    exponent = st.one_of(st.just(F(0)), st.fractions(-3, 3, max_denominator=5))
    arr = with_exponents(arr, draw(st.lists(exponent, min_size=arr.n, max_size=arr.n)))
    coordinate = st.fractions(-5, 5, max_denominator=7)
    points = [tuple(draw(coordinate) for _ in range(arr.ambient_dim)) for _ in range(2)]
    assume(not any(arr.contains_point(t) for t in points))
    return arr, points


def _evaluations(arr, points):
    """log_grad, log_hessian and v(t) at the first point and the special Gram
    matrix of both, each flattened."""
    t = points[0]
    return {"log_grad": log_grad(arr, t),
            "log_hessian": [x for row in log_hessian(arr, t) for x in row],
            "specialize": list(specialize(arr, t).coords),
            "special_gram": [x for row in special_gram(arr, points).tolist() for x in row]}


def _oracles(arr, points):
    """The same values from the term-by-term oracles, and beside each the sum
    of the moduli of its terms."""
    t, k = points[0], arr.ambient_dim
    minors = arr.top_minors()
    f = np.abs([complex(v) for v in arr.evaluate_all(t)])
    a = np.abs([complex(x) for x in arr.exponents])
    B = np.abs([[float(x) for x in h.b] for h in arr.hyperplanes])
    u = np.abs([[complex(os_oracle.evaluate_form(arr, s, p)) for p in points] for s in minors])
    c = np.abs([complex(math.prod(arr.exponents[j] for j in s)) for s in minors])
    return {
        "log_grad": (os_oracle.log_grad(arr, t), B.T @ (a / f)),
        "log_hessian": ([x for row in os_oracle.log_hessian(arr, t) for x in row],
                        ((B.T * (a / f ** 2)) @ B).ravel()),
        "specialize": ([os_oracle.evaluate_form(arr, s, t) for s in arr.basis(k)],
                       np.abs([complex(os_oracle.evaluate_form(arr, s, t))
                               for s in arr.basis(k)])),
        "special_gram": ([os_oracle.special_pairing(arr, p, q) for p in points for q in points],
                         (u.T @ (c[:, None] * u)).ravel()),
    }


class TestEvaluationAtPoints:
    """log_grad, log_hessian, specialize and special_gram, all read from
    WeightedArrangement.at, against the term-by-term oracles."""

    @settings(max_examples=25, deadline=None)
    @given(weighted_points())
    def test_exact_at_rational_input(self, case):
        arr, points = case
        assert arr.at(points)[0].dtype == object
        expected = _oracles(arr, points)
        for name, values in _evaluations(arr, points).items():
            assert values == expected[name][0], name
            assert all(type(x) is Fraction for x in values), name

    @settings(max_examples=25, deadline=None)
    @given(weighted_points(), st.sampled_from(["complex points", "complex exponents"]))
    def test_numeric_at_inexact_input(self, case, inexact):
        """Within 1e-12 of the sum of the moduli of the terms."""
        arr, points = case
        if inexact == "complex points":
            points = [tuple(map(complex, t)) for t in points]
        else:
            arr = with_exponents(arr, [complex(a, (j % 3 - 1) / 4)
                                       for j, a in enumerate(arr.exponents)])
        assert arr.at(points)[0].dtype == complex
        expected = _oracles(arr, points)
        for name, values in _evaluations(arr, points).items():
            oracle, scale = expected[name]
            assert all(type(x) is complex for x in values), name
            assert np.all(np.abs(np.subtract(values, np.array(oracle, dtype=complex)))
                          <= 1e-12 * scale), name

    @pytest.mark.parametrize("evaluate", [
        specialize, log_grad, log_hessian, verify_norm_identity,
        lambda arr, t: special_gram(arr, [t]),
    ], ids=["specialize", "log_grad", "log_hessian", "verify_norm_identity", "special_gram"])
    def test_one_rule_for_points_on_the_arrangement(self, generic4, evaluate):
        """|f_1(t)| = 1e-13 is below 1e-12 at an inexact point, so t is on
        the arrangement for every evaluation."""
        with pytest.raises(ValueError, match="point on arrangement"):
            evaluate(generic4, (1e-13, 0.7 + 0.1j))

def _exact_norm(x) -> float:
    """|x| of a rational vector: the squares summed exactly, rounded once."""
    return math.sqrt(float(sum((y * y for y in x), start=F(0))))


def _moduli(x):
    return np.abs(np.array(x, dtype=complex))


class TestPointChecks:
    """The rows of point_checks, every point at once, against the per-point
    path of os_oracle.point_values on the inputs of TestEvaluationAtPoints.
    Both points serve as critical and as control points, so every row kind
    is read at each."""

    @settings(max_examples=25, deadline=None)
    @given(weighted_points())
    def test_exact_at_rational_input(self, case):
        self._assert_exact(*case)

    def test_exact_where_the_basis_is_not_a_prefix_of_the_top_subsets(self):
        """t1, t2 and t1 + t2 meet at the origin, so the broken circuit
        (1, 2) leaves the basis but not top_minors()."""
        arr = WeightedArrangement(2, [Hyperplane(F(b0), (F(x), F(y))) for b0, x, y in
                                      [(0, 1, 0), (0, 0, 1), (0, 1, 1), (-1, 1, 0)]],
                                  [F(1), F(2), F(-1, 2), F(3)])
        basis = arr.basis(2)
        assert basis != list(arr.top_minors())[:len(basis)]
        self._assert_exact(arr, [(F(1, 3), F(2, 5)), (F(-2, 7), F(3))])

    @staticmethod
    def _assert_exact(arr, points):
        rows = {r["name"]: r for r in point_checks(arr, points, points)}
        sign = (-1) ** arr.ambient_dim
        for i, t in enumerate(points):
            old = os_oracle.point_values(arr, t)
            delta = _exact_norm(old["delta_v"]) / max(1.0, _exact_norm(old["v"]))
            assert rows[f"singular_at_critical_{i}"]["lhs"] == delta
            assert rows[f"control_point_{i + 1}"]["lhs"] == delta
            assert rows[f"control_point_{i + 1}"]["rhs"] == _exact_norm(old["grad"])
            norm = rows[f"norm_identity_{i}"]
            assert type(norm["lhs"]) is Fraction and norm["lhs"] == old["norm"]
            assert norm["rhs"] == sign * linalg.det(os_oracle.log_hessian(arr, t))
        assert rows["orthogonality_0_1"]["lhs"] == os_oracle.special_pairing(arr, *points)

    @settings(max_examples=25, deadline=None)
    @given(weighted_points(), st.sampled_from(["complex points", "complex exponents"]))
    def test_numeric_at_inexact_input(self, case, inexact):
        """Within 1e-12 relative to the same quantity summed over the moduli
        of its terms."""
        arr, points = case
        if inexact == "complex points":
            points = [tuple(map(complex, t)) for t in points]
        else:
            arr = with_exponents(arr, [complex(a, (j % 3 - 1) / 4)
                                       for j, a in enumerate(arr.exponents)])
        rows = {r["name"]: r for r in point_checks(arr, points, points)}
        k, minors = arr.ambient_dim, arr.top_minors()
        delta = _moduli(delta_F_matrix(arr, k))
        a, B = _moduli(arr.exponents), _moduli([h.b for h in arr.hyperplanes])
        c = _moduli([math.prod(arr.exponents[j] for j in s) for s in minors])
        u = _moduli([[os_oracle.evaluate_form(arr, s, t) for t in points] for s in minors])
        for i, t in enumerate(points):
            old = os_oracle.point_values(arr, t)
            v = np.linalg.norm(np.array(old["v"], dtype=complex))
            pairs = [
                (rows[f"singular_at_critical_{i}"]["lhs"],
                 np.linalg.norm(np.array(old["delta_v"], dtype=complex)) / max(1.0, v),
                 np.linalg.norm(delta @ _moduli(old["v"])) / max(1.0, v)),
                (rows[f"control_point_{i + 1}"]["rhs"],
                 np.linalg.norm(np.array(old["grad"], dtype=complex)),
                 np.linalg.norm(B.T @ (a / _moduli(arr.evaluate_all(t))))),
                (rows[f"norm_identity_{i}"]["lhs"], old["norm"], c @ u[:, i] ** 2),
            ]
            for value, oracle, scale in pairs:
                assert abs(value - complex(oracle)) <= 1e-12 * scale
        ortho = rows["orthogonality_0_1"]["lhs"]
        assert type(ortho) is complex
        assert abs(ortho - os_oracle.special_pairing(arr, *points)) <= 1e-12 * (c @ (u[:, 0] * u[:, 1]))


class TestNewton:
    def test_converges_in_basin(self, points3):
        result = newton_solve(points3, (0.5 + 0.3j,))
        assert isinstance(result, CriticalPoint)
        assert abs(result.t[0] - (4 - math.sqrt(7)) / 3) < 1e-10
        assert result.nondegenerate

    def test_start_on_arrangement_rejected(self, points3):
        with pytest.raises(ValueError):
            newton_solve(points3, (1.0 + 0j,))

    def test_divergence_reported(self):
        # single point with exponent of one sign only still has no critical
        # point for n=1: gradient a/t never vanishes off t=0
        arr = point_arrangement([0])
        result = newton_solve(arr, (2.0 + 1.0j,))
        assert isinstance(result, DivergenceReport)
        assert result.cause in (
            "escaped to infinity", "line search failed", "max iterations exceeded",
            "hyperplane collision", "singular Jacobian",
        )


class TestFindCriticalPoints:
    def test_points3_roots(self, points3):
        points = find_critical_points(points3, seed=0, n_starts=50)
        expected = sorted([(4 - math.sqrt(7)) / 3, (4 + math.sqrt(7)) / 3])
        assert len(points) == 2
        for cp, root in zip(points, expected):
            assert abs(cp.t[0] - root) < 1e-10
            assert cp.nondegenerate
            assert cp.grad_residual <= 1e-12

    def test_count_matches_euler_characteristic(self, generic4):
        points = find_critical_points(generic4, seed=0, n_starts=200)
        assert len(points) == abs(generic4.euler_characteristic())
        assert all(cp.nondegenerate for cp in points)

    def test_deterministic(self, points3):
        a = find_critical_points(points3, seed=7, n_starts=30)
        b = find_critical_points(points3, seed=7, n_starts=30)
        assert [cp.t for cp in a] == [cp.t for cp in b]

    def test_polynomial_root_oracle_n4_n5(self):
        for zs in ([0, 1, 3, 6], [0, 1, 3, 6, 10]):
            arr = point_arrangement(zs)
            points = find_critical_points(arr, seed=0, n_starts=150)
            # critical points are the roots of sum_j prod_{l != j} (t - z_l)
            poly = np.zeros(len(zs))
            for j in range(len(zs)):
                others = [z for l, z in enumerate(zs) if l != j]
                poly = poly + np.poly(others)
            roots = sorted(np.roots(poly), key=lambda z: (z.real, z.imag))
            assert len(points) == len(zs) - 1
            for cp, root in zip(points, roots):
                assert abs(cp.t[0] - root) < 1e-10


def generic_k3():
    """Five generic planes in C^3: the coordinate planes, t1 + t2 + t3 - 1
    and t1 + 2 t2 + 3 t3 - 5; |chi| = 4."""
    rows = [(0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (-1, 1, 1, 1), (-5, 1, 2, 3)]
    return WeightedArrangement(
        3, [Hyperplane(F(r[0]), tuple(map(F, r[1:]))) for r in rows], [F(1)] * 5)


class TestKernelAgainstExactCalculus:
    """Every point the numeric Newton kernel returns, rechecked with the
    exact-capable log_grad and hess_det, which share no code with it."""

    @pytest.mark.parametrize("instance", ["points3", "generic4", "generic_k3", "gaudin_2x2"])
    def test_hess_det_and_gradient(self, instance, request):
        if instance == "generic_k3":
            arr = generic_k3()
        elif instance == "gaudin_2x2":
            # negative point exponents and diagonal hyperplanes
            arr = build_discriminantal(request.getfixturevalue("gaudin_2x2"))
        else:
            arr = request.getfixturevalue(instance)
        points = find_critical_points(arr)
        assert points
        for cp in points:
            exact = complex(hess_det(arr, cp.t))
            assert abs(cp.hess_det - exact) <= 1e-9 * abs(exact)
            assert np.linalg.norm([complex(x) for x in log_grad(arr, cp.t)]) <= 1e-10


GENERIC_LADDER = [(2, n) for n in range(4, 13)] + [(3, n) for n in range(5, 9)]


class TestChamberSearch:
    """A real generic arrangement with positive exponents has one critical
    point in each of its |chi| = C(n-1, k) bounded chambers, and all of them
    are nondegenerate."""

    @pytest.mark.parametrize("exponents", ["unit", "p/q"])
    @pytest.mark.parametrize("k, n", GENERIC_LADDER)
    def test_one_point_in_each_bounded_chamber(self, k, n, exponents):
        rng = random.Random(f"chambers/{k}/{n}")
        arr = random_generic(rng, k, n)
        if exponents == "p/q":
            arr = with_exponents(arr, [F(rng.randint(1, 9), rng.randint(1, 5))
                                       for _ in range(n)])
        points = chamber_critical_points(arr)
        assert len(points) == math.comb(n - 1, k)
        assert all(cp.nondegenerate for cp in points)
        b0, B, _ = arr.numeric()
        assert len({tuple(b0 + B @ np.real(cp.t) > 0) for cp in points}) == len(points)
        for cp in points:
            assert np.linalg.norm([complex(x) for x in log_grad(arr, cp.t)]) <= 1e-8

    @pytest.mark.parametrize("instance", ["points3", "generic4"])
    def test_agrees_with_the_multi_start_search(self, instance, request):
        arr = request.getfixturevalue(instance)
        chambers = chamber_critical_points(arr)
        starts = find_critical_points(arr, seed=0, n_starts=200)
        assert len(chambers) == len(starts) == abs(arr.euler_characteristic())
        for a, b in zip(chambers, starts):
            assert max(abs(x - y) for x, y in zip(a.t, b.t)) < 1e-9
            assert abs(a.hess_det - b.hess_det) <= 1e-9 * abs(b.hess_det)

    def test_unbounded_chambers_give_no_point_at_a_loose_tolerance(self, generic4):
        """The gradient decays to 0 in an unbounded chamber; the Newton
        decrement does not, so no point is accepted there."""
        assert len(chamber_critical_points(generic4, tol=1e-4)) == 3


class TestOrbits:
    def test_symmetric_group_size(self):
        assert len(symmetric_group(3)) == 6

    def test_swap_orbit(self):
        a = CriticalPoint((1.0 + 0j, 2.0 + 0j), 0.0, 1.0, True)
        b = CriticalPoint((2.0 + 0j, 1.0 + 0j), 0.0, 1.0, True)
        c = CriticalPoint((5.0 + 0j, 6.0 + 0j), 0.0, 1.0, True)
        grouped = group_orbits([a, b, c], symmetric_group(2))
        assert grouped[0].orbit_id == grouped[1].orbit_id
        assert grouped[2].orbit_id != grouped[0].orbit_id
