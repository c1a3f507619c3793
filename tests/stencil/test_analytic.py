"""Tests for the analytic solution, error norms, and the paper's oracles."""

import numpy as np
import pytest

from repro.stencil.analytic import analytic_solution, error_norms
from repro.stencil.coefficients import tensor_product_coefficients
from repro.stencil.grid import Grid3D, allocate_field, gaussian_initial_condition
from repro.stencil.kernels import advance, interior
from repro.stencil.verification import convergence_order, run_reference


def exact_shift_steps(n, axis, sign, steps, sigma=0.1):
    """Max abs deviation from the exact circular shift at unit CFL.

    With velocity = ``sign`` along ``axis`` and ``nu = 1``, each step is an
    exact one-cell shift, so the result should be at roundoff level.
    """
    velocity = [0.0, 0.0, 0.0]
    velocity[axis] = float(sign)
    grid = Grid3D(n)
    u = allocate_field(grid.n)
    u0 = gaussian_initial_condition(grid, sigma=sigma)
    interior(u)[...] = u0
    u = advance(u, tensor_product_coefficients(velocity, nu=1.0), steps=steps)
    # Positive velocity moves the wave in +axis; grid values shift by +steps.
    expected = np.roll(u0, sign * steps, axis=axis)
    return float(np.abs(interior(u) - expected).max())


class TestAnalyticSolution:
    def test_time_zero_is_initial_condition(self):
        g = Grid3D(16)
        u0 = gaussian_initial_condition(g, sigma=0.1)
        assert np.allclose(analytic_solution(g, (1, 1, 1), 0.0, sigma=0.1), u0)

    def test_full_period_returns_to_start(self):
        g = Grid3D(16)
        u0 = analytic_solution(g, (1.0, 0.0, 0.0), 0.0)
        u1 = analytic_solution(g, (1.0, 0.0, 0.0), 1.0)  # c*t = L
        assert np.allclose(u0, u1)

    def test_half_period_shift(self):
        g = Grid3D(16)
        u = analytic_solution(g, (1.0, 0.0, 0.0), 0.5, sigma=0.1)
        u0 = gaussian_initial_condition(g, sigma=0.1)
        assert np.allclose(u, np.roll(u0, 8, axis=0), atol=1e-12)

    def test_velocity_direction(self):
        g = Grid3D(32)
        u = analytic_solution(g, (1.0, 0.0, 0.0), 0.25, sigma=0.05)
        peak = np.unravel_index(np.argmax(u), u.shape)
        assert peak[0] > 16  # moved in +x


class TestErrorNorms:
    def test_zero_for_identical(self):
        a = np.random.default_rng(0).random((5, 5, 5))
        norms = error_norms(a, a.copy())
        assert norms == {"l1": 0.0, "l2": 0.0, "linf": 0.0}

    def test_known_values(self):
        a = np.zeros((2, 2, 2))
        b = np.full((2, 2, 2), 0.5)
        norms = error_norms(a, b)
        assert norms["l1"] == pytest.approx(0.5)
        assert norms["l2"] == pytest.approx(0.5)
        assert norms["linf"] == pytest.approx(0.5)

    def test_ordering(self):
        rng = np.random.default_rng(1)
        a, b = rng.random((6, 6, 6)), rng.random((6, 6, 6))
        norms = error_norms(a, b)
        assert norms["l1"] <= norms["l2"] <= norms["linf"]

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            error_norms(np.zeros((2, 2, 2)), np.zeros((3, 2, 2)))


class TestOracles:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_unit_cfl_exact_shift(self, axis, sign):
        assert exact_shift_steps(12, axis, sign, steps=4) < 1e-14

    def test_convergence_is_second_order(self):
        order = convergence_order((1.0, 0.5, 0.25), resolutions=(16, 32, 64))
        assert order > 1.7

    def test_run_reference_error_small(self):
        _, norms = run_reference(32, (1.0, 0.9, 0.8), steps=8, sigma=0.15)
        assert norms["linf"] < 0.05

    def test_run_reference_deterministic(self):
        f1, _ = run_reference(12, (1.0, 0.9, 0.8), steps=3)
        f2, _ = run_reference(12, (1.0, 0.9, 0.8), steps=3)
        assert np.array_equal(f1, f2)
