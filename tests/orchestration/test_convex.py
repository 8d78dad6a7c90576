"""Convex resource-split subproblem tests."""

import sys

import numpy as np
import pytest

from repro.orchestration.convex import (
    solve_resource_split,
    waterfill_split,
)


class TestWaterfill:
    def test_proportional_allocation(self):
        x, y, z = waterfill_split(1.0, 2.0, 1.0, 100.0)
        assert (x, y, z) == (25.0, 50.0, 25.0)

    def test_equalizes_ratios(self):
        a, b, c = 3.0, 7.0, 2.0
        x, y, z = waterfill_split(a, b, c, 60.0)
        assert a / x == pytest.approx(b / y) == pytest.approx(c / z)

    def test_invalid_coefficients(self):
        with pytest.raises(ValueError):
            waterfill_split(0.0, 0.0, 0.0, 10.0)


class TestSolver:
    def solve(self, **kwargs):
        defaults = dict(
            warm_x=1.0,
            warm_z=1.0,
            steady_x=5.0,
            steady_y=50.0,
            steady_z=5.0,
            num_microbatches=20,
            budget=100.0,
        )
        defaults.update(kwargs)
        return solve_resource_split(**defaults)

    def test_converges(self):
        solution = self.solve()
        assert solution.converged

    def test_budget_respected(self):
        solution = self.solve()
        assert solution.total <= 100.0 + 1e-6

    def test_minimums_respected(self):
        solution = self.solve(x_min=10.0, z_min=12.0)
        assert solution.x >= 10.0 - 1e-9
        assert solution.z >= 12.0 - 1e-9

    def test_llm_dominates_allocation(self):
        solution = self.solve()
        assert solution.y > solution.x
        assert solution.y > solution.z

    def test_matches_grid_search(self):
        """The SLSQP optimum must match a brute-force grid scan."""
        solution = self.solve()

        def objective(x, y, z):
            t = max(5.0 / x, 50.0 / y, 5.0 / z)
            return 1.0 / x + 1.0 / z + 19 * t

        best = np.inf
        grid = np.linspace(1, 98, 140)
        for x in grid:
            for y in grid:
                z = 100.0 - x - y
                if z < 1:
                    continue
                best = min(best, objective(x, y, z))
        assert solution.objective <= best * 1.01

    def test_missing_scipy_points_at_the_analytic_solver(
        self, monkeypatch
    ):
        monkeypatch.setitem(sys.modules, "scipy.optimize", None)
        with pytest.raises(RuntimeError) as info:
            self.solve()
        assert "scipy is not installed" in str(info.value)
        assert "analytic solver" in str(info.value)

    def test_infeasible_budget_rejected(self):
        with pytest.raises(ValueError):
            self.solve(budget=2.0, x_min=1.0, y_min=1.0, z_min=1.0)

    def test_solve_time_recorded(self):
        assert self.solve().solve_seconds > 0

    def test_single_microbatch_warmup_only(self):
        """With n=1 the steady phase vanishes; the solver minimizes the
        warm-up hyperbolas under the floor constraints."""
        solution = self.solve(num_microbatches=1)
        assert solution.converged
        assert solution.objective == pytest.approx(
            1.0 / solution.x + 1.0 / solution.z, rel=1e-3
        )
