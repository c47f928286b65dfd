"""Master-function calculus: gradient, Hessian, Newton search, divergence
handling, orbit grouping."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bethearr.arrangement import Hyperplane, WeightedArrangement
from bethearr.gaudin import build_discriminantal
from bethearr.master import (CriticalPoint, DivergenceReport,
                             find_critical_points, group_orbits, hess_det,
                             log_grad, log_hessian, newton_solve,
                             symmetric_group)
from conftest import point_arrangement

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
