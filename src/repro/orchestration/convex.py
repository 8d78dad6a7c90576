"""The convex resource-split subproblem (section 4.3).

For a fixed candidate (TP/DP degrees), the objective in the resource
variables ``(x, y, z)`` is::

    minimize  W_x/x + W_z/z + (n-1) * max(A/y, B/x, C/z)
    s.t.      x + y + z <= N,   x >= x_min, y >= y_min, z >= z_min

— a sum and max of positive hyperbolas, hence convex. We solve it two
ways:

* **analytic active-set enumeration**
  (:func:`solve_resource_split_batch`): the production path. The
  objective is non-increasing in every variable, so an optimum exists on
  the budget plane ``x + y + z = N``; parametrized by the steady-stage
  epigraph value ``t``, every KKT pattern (which hyperbolas attain the
  max x which floors are active) yields a closed-form candidate ``t``.
  Enumerating the handful of patterns, reconstructing the induced
  allocation, and evaluating the exact objective solves the whole
  candidate batch in a few vectorized numpy passes — the same playbook
  that batched the pipeline kernel.
* **epigraph + SLSQP** (:func:`solve_resource_split`): introduce
  ``t >= A/y`` etc. and minimize the smooth ``W_x/x + W_z/z +
  (n-1)*t``. Retained as the cross-checking oracle (standing in for the
  paper's CVX/DCP solver), mirroring the kernel's ``run_reference``
  pattern; the equivalence suite asserts the analytic solver never does
  worse. The only user of scipy, which it imports on first call.
* **analytic waterfilling** (:func:`waterfill_split`): ignore the
  warm-up terms and equalize ``A/y = B/x = C/z`` at full budget (the
  oracle's initial guess).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.obs import instrument as obs


@dataclass(frozen=True)
class ConvexSolution:
    """Optimal (continuous) resource split for one candidate."""

    x: float
    y: float
    z: float
    objective: float
    solve_seconds: float
    converged: bool

    @property
    def total(self) -> float:
        return self.x + self.y + self.z


def waterfill_split(
    coeff_x: float, coeff_y: float, coeff_z: float, budget: float
) -> Tuple[float, float, float]:
    """Equalize ``coeff/value`` across three variables at full budget.

    The max of decreasing hyperbolas is minimized when all three are
    equal, which allocates proportionally to the coefficients.
    """
    total = coeff_x + coeff_y + coeff_z
    if total <= 0:
        raise ValueError("coefficients must be positive")
    return (
        budget * coeff_x / total,
        budget * coeff_y / total,
        budget * coeff_z / total,
    )


def solve_resource_split(
    warm_x: float,
    warm_z: float,
    steady_x: float,
    steady_y: float,
    steady_z: float,
    num_microbatches: int,
    budget: float,
    x_min: float = 1.0,
    y_min: float = 1.0,
    z_min: float = 1.0,
) -> ConvexSolution:
    """Solve the convex subproblem.

    Args:
        warm_x / warm_z: Warm-up coefficients (``W/x`` terms); the LLM's
            warm-up term is constant in (x, y, z) and omitted.
        steady_x / steady_y / steady_z: Steady-phase numerators
            (``B``, ``A``, ``C`` above).
        num_microbatches: ``n``; the steady phase runs ``n - 1`` slots.
        budget: Total GPUs ``N``.
        x_min / y_min / z_min: Memory-driven lower bounds.

    Raises:
        RuntimeError: if scipy is not installed.
    """
    # Deferred: scipy serves only this oracle, and importing it would
    # cost every default (analytic) run more than the run itself.
    try:
        from scipy.optimize import minimize
    except ImportError as exc:
        raise RuntimeError(
            "scipy is not installed; the default analytic solver "
            "(solver=\"analytic\") needs no extras"
        ) from exc
    if budget < x_min + y_min + z_min:
        raise ValueError(
            f"budget {budget} below the memory floor "
            f"{x_min + y_min + z_min}"
        )
    started = time.perf_counter()
    n_steady = max(0, num_microbatches - 1)

    # Initial guess: waterfill on the steady coefficients.
    x0, y0, z0 = waterfill_split(steady_x, steady_y, steady_z, budget)
    x0, y0, z0 = max(x0, x_min), max(y0, y_min), max(z0, z_min)
    t0 = max(steady_x / x0, steady_y / y0, steady_z / z0)

    def objective_fn(v: np.ndarray) -> float:
        x, y, z, t = v
        return warm_x / x + warm_z / z + n_steady * t

    def objective_jac(v: np.ndarray) -> np.ndarray:
        x, _, z, _ = v
        return np.array(
            [-warm_x / x**2, 0.0, -warm_z / z**2, float(n_steady)]
        )

    # Analytic jacobians: without them SLSQP spends most of its time in
    # finite-difference loops (4 extra function evaluations per
    # constraint per iteration) — the dominant cost of the whole
    # orchestration search.
    def epigraph_constraint(numerator: float, axis: int):
        def fun(v: np.ndarray) -> float:
            return v[3] - numerator / v[axis]

        def jac(v: np.ndarray) -> np.ndarray:
            grad = np.zeros(4)
            grad[axis] = numerator / v[axis] ** 2
            grad[3] = 1.0
            return grad

        return {"type": "ineq", "fun": fun, "jac": jac}

    constraints = [
        {
            "type": "ineq",
            "fun": lambda v: budget - v[0] - v[1] - v[2],
            "jac": lambda v: np.array([-1.0, -1.0, -1.0, 0.0]),
        },
        epigraph_constraint(steady_x, 0),
        epigraph_constraint(steady_y, 1),
        epigraph_constraint(steady_z, 2),
    ]
    bounds = [
        (x_min, budget),
        (y_min, budget),
        (z_min, budget),
        (1e-12, None),
    ]
    result = minimize(
        objective_fn,
        x0=np.array([x0, y0, z0, t0]),
        jac=objective_jac,
        method="SLSQP",
        bounds=bounds,
        constraints=constraints,
        options={"maxiter": 200, "ftol": 1e-10},
    )
    x, y, z, _ = result.x
    obs.count("convex.slsqp_solves")
    if not result.success:
        # The per-candidate SLSQP oracle occasionally stops at maxiter;
        # callers keep the (still feasible) iterate, but the flight
        # recorder flags it so sweeps can audit fallback quality.
        obs.count("convex.slsqp_nonconverged")
        obs.event(
            "convex.slsqp_nonconverged",
            status=int(result.status),
            iterations=int(result.nit),
            budget=budget,
        )
    # Re-evaluate the true (non-epigraph) objective at the solution.
    t_true = max(steady_x / x, steady_y / y, steady_z / z)
    value = warm_x / x + warm_z / z + n_steady * t_true
    return ConvexSolution(
        x=float(x),
        y=float(y),
        z=float(z),
        objective=float(value),
        solve_seconds=time.perf_counter() - started,
        converged=bool(result.success),
    )


@dataclass(frozen=True)
class BatchConvexSolution:
    """Optimal (continuous) resource splits for a candidate batch.

    All arrays share one leading dimension — one row per candidate.
    """

    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    objective: np.ndarray
    solve_seconds: float


def solve_resource_split_batch(
    warm_x: np.ndarray,
    warm_z: np.ndarray,
    steady_x: np.ndarray,
    steady_y: np.ndarray,
    steady_z: np.ndarray,
    num_microbatches: np.ndarray,
    budget: np.ndarray,
    x_min: np.ndarray = 1.0,
    y_min: np.ndarray = 1.0,
    z_min: np.ndarray = 1.0,
) -> BatchConvexSolution:
    """Analytically solve a batch of convex subproblems at once.

    Same contract as :func:`solve_resource_split`, with every argument
    broadcastable to the batch shape. The solver enumerates the KKT
    active-set patterns of the epigraph formulation in closed form:

    An optimum always exists on the budget plane (the objective is
    non-increasing in each variable), so the problem reduces to choosing
    the steady-stage time ``t``: given ``t``, the cheapest feasible
    allocation is ``y = max(y_min, A/t)`` with the remaining
    ``R = N - y`` split between ``x`` and ``z`` by the square-root rule
    ``x : z = sqrt(W_x) : sqrt(W_z)`` clipped to the lower bounds
    ``max(x_min, B/t)`` and ``max(z_min, C/t)``. The resulting
    one-dimensional profile ``F(t)`` is convex, so its minimum sits at a
    stationary point of one of the smooth active-set regions, at a kink
    (a floor activating), or at the domain boundary (floors exhausting
    the budget) — each a closed-form expression in the coefficients.
    Every candidate ``t`` is materialized for every row, the induced
    allocations are evaluated under the *exact* objective, and the best
    feasible one wins.

    Raises:
        ValueError: if any row's budget is below its memory floor.
    """
    started = time.perf_counter()
    Wx, Wz, B, A, C, n_mb, N, xm, ym, zm = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(a, dtype=float)) for a in (
            warm_x, warm_z, steady_x, steady_y, steady_z,
            num_microbatches, budget, x_min, y_min, z_min,
        ))
    )
    if np.any(N < xm + ym + zm):
        bad = int(np.argmax(N < xm + ym + zm))
        raise ValueError(
            f"budget {N[bad]} below the memory floor "
            f"{xm[bad] + ym[bad] + zm[bad]}"
        )
    n = np.maximum(0.0, n_mb - 1.0)

    sx, sz = np.sqrt(Wx), np.sqrt(Wz)
    G = (sx + sz) ** 2
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # Stationarity inside each smooth region of F(t). Notation:
        # "y~A" means the A/y hyperbola binds y (y = A/t), "x@xm" means
        # the x floor is active, "x~B" means B/x attains the max.
        inv_b = np.where(B > 0, Wx / np.where(B > 0, B, 1.0), np.inf)
        inv_c = np.where(C > 0, Wz / np.where(C > 0, C, 1.0), np.inf)
        stationary = [
            (A + np.sqrt(G * A / n)) / N,                    # y~A, interior
            (A + np.sqrt(Wz * A / n)) / (N - xm),            # y~A, x@xm
            (A + np.sqrt(Wx * A / n)) / (N - zm),            # y~A, z@zm
            (A + B + np.sqrt(Wz * (A + B) / (n + inv_b))) / N,   # y~A, x~B
            (A + C + np.sqrt(Wx * (A + C) / (n + inv_c))) / N,   # y~A, z~C
            (B + np.sqrt(Wz * B / (n + inv_b))) / (N - ym),  # y@ym, x~B
            (C + np.sqrt(Wx * C / (n + inv_c))) / (N - ym),  # y@ym, z~C
        ]
        # Kinks (a floor activating) and budget boundaries (active
        # hyperbolas plus floors exhausting N).
        boundaries = [
            A / ym,
            B / xm,
            C / zm,
            (A + B + C) / N,
            (B + C) / (N - ym),
            (A + C) / (N - xm),
            (A + B) / (N - zm),
            C / (N - ym - xm),
            B / (N - ym - zm),
            A / (N - xm - zm),
            # All floors active: any t at or beyond every kink recovers
            # the floor allocation (also the n = 0 warm-up-only case).
            np.maximum(A / ym, np.maximum(B / xm, C / zm)),
        ]
        t_cand = np.stack(stationary + boundaries, axis=-1)  # (B, K)
        valid = np.isfinite(t_cand) & (t_cand > 0.0)
        t_cand = np.where(valid, t_cand, 1.0)

        # Reconstruct the allocation each candidate t induces.
        y = np.maximum(ym[..., None], A[..., None] / t_cand)
        xl = np.maximum(xm[..., None], B[..., None] / t_cand)
        zl = np.maximum(zm[..., None], C[..., None] / t_cand)
        split = np.where(
            (sx + sz) > 0, sx / np.where((sx + sz) > 0, sx + sz, 1.0), 0.5
        )
        # One unconditional column — the pure floor-y allocation with the
        # square-root warm-up split — keeps every row feasible even in
        # degenerate corners (n = 0, vanishing steady coefficients).
        y = np.concatenate([y, ym[..., None]], axis=-1)
        xl = np.concatenate([xl, xm[..., None]], axis=-1)
        zl = np.concatenate([zl, zm[..., None]], axis=-1)
        valid = np.concatenate(
            [valid, np.ones(valid.shape[:-1] + (1,), dtype=bool)], axis=-1
        )
        R = N[..., None] - y
        feasible = valid & (R >= xl + zl - 1e-9)
        x = np.clip(
            R * split[..., None], xl, np.maximum(xl, R - zl)
        )
        z = R - x

        # Exact objective at each candidate; best feasible row wins.
        t_true = np.maximum(
            A[..., None] / y,
            np.maximum(B[..., None] / x, C[..., None] / z),
        )
        value = (
            Wx[..., None] / x + Wz[..., None] / z + n[..., None] * t_true
        )
        value = np.where(feasible & (x > 0) & (y > 0) & (z > 0),
                         value, np.inf)
    best = np.argmin(value, axis=-1)
    rows = np.arange(len(best))
    obs.count("convex.analytic_solves", int(len(x)))
    return BatchConvexSolution(
        x=x[rows, best],
        y=y[rows, best],
        z=z[rows, best],
        objective=value[rows, best],
        solve_seconds=time.perf_counter() - started,
    )
