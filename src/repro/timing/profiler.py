"""Performance profiler with linear interpolation.

The paper's DistTrain manager "runs a series of benchmarking training
trials and constructs a performance profiler with linear interpolation to
estimate each module's computation and communication time" (section 3).

We reproduce that workflow: :class:`PerformanceProfiler` evaluates the
analytic cost model (our stand-in for a trial run, optionally perturbed by
measurement noise) at a grid of workload sizes for every candidate TP
degree, stores the resulting tables, and answers queries by linear
interpolation — never by calling the cost model directly. This keeps the
orchestration algorithm honest: it only sees profiled points, exactly like
the production system.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Sequence, Tuple

import numpy as np

from repro.models.base import ModuleKind, ModuleSpec, ModuleWorkload
from repro.timing.costmodel import ModuleCostModel


def _workload_units(module: ModuleSpec, workload: ModuleWorkload) -> float:
    """The scalar size axis used for interpolation.

    LLM time scales with sample count (sequences are fixed-length); the
    encoder/generator scale with image tokens.
    """
    if module.kind is ModuleKind.BACKBONE:
        return float(workload.samples)
    return float(workload.image_tokens)


def _workload_for_units(
    module: ModuleSpec, units: float, images_hint: int = 1
) -> ModuleWorkload:
    """Inverse of :func:`_workload_units` for grid construction."""
    if module.kind is ModuleKind.BACKBONE:
        return ModuleWorkload(samples=max(1, round(units)))
    tokens = max(1, round(units))
    images = max(1, images_hint)
    return ModuleWorkload(samples=1, image_tokens=tokens, images=images)


@dataclass
class ProfileTable:
    """Profiled (units -> seconds) samples for one (module, tp, pass)."""

    units: np.ndarray
    seconds: np.ndarray

    def __post_init__(self) -> None:
        if len(self.units) != len(self.seconds):
            raise ValueError("units and seconds must have equal length")
        if len(self.units) < 2:
            raise ValueError("need at least two profiled points")
        order = np.argsort(self.units)
        self.units = np.asarray(self.units, dtype=float)[order]
        self.seconds = np.asarray(self.seconds, dtype=float)[order]

    def interpolate(self, units: float) -> float:
        """Piecewise-linear estimate, linearly extrapolated at the ends."""
        x, y = self.units, self.seconds
        if units <= x[0]:
            slope = (y[1] - y[0]) / (x[1] - x[0])
            return max(0.0, y[0] + slope * (units - x[0]))
        if units >= x[-1]:
            slope = (y[-1] - y[-2]) / (x[-1] - x[-2])
            return max(0.0, y[-1] + slope * (units - x[-1]))
        return float(np.interp(units, x, y))


@dataclass
class PerformanceProfiler:
    """Profiled time functions for the three MLLM modules.

    Attributes:
        cost_models: Module name -> bound cost model ("the testbed").
        tp_candidates: TP degrees to profile (``[1, 2, 4, 8]`` on an
            8-GPU node; section 4.3).
        grid_points: Number of workload sizes per table.
        noise_std: Relative measurement noise injected into trials
            (production profiling is never exact).
        seed: RNG seed for reproducible noise.
    """

    cost_models: Dict[str, ModuleCostModel]
    tp_candidates: Sequence[int] = (1, 2, 4, 8)
    grid_points: int = 8
    noise_std: float = 0.0
    seed: int = 0
    _tables: Dict[Tuple[str, int, str], ProfileTable] = field(
        default_factory=dict, init=False
    )

    def __post_init__(self) -> None:
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------ #
    # Profiling ("benchmarking trials")
    # ------------------------------------------------------------------ #
    def profile(
        self,
        max_units: Dict[str, float],
        images_hint: int = 8,
    ) -> None:
        """Run trials across the workload grid for every module and TP.

        Args:
            max_units: Module name -> largest workload size to profile
                (samples for the LLM, image tokens for encoder/generator).
            images_hint: Typical image count, used to shape encoder /
                generator trial workloads.
        """
        for name, cost_model in self.cost_models.items():
            module = cost_model.module
            hi = max_units.get(name)
            if hi is None:
                raise KeyError(f"max_units missing entry for module {name!r}")
            grid = np.linspace(1.0, float(hi), self.grid_points)
            for tp in self.tp_candidates:
                fwd, bwd = [], []
                for units in grid:
                    workload = _workload_for_units(module, units, images_hint)
                    fwd.append(self._trial(cost_model.forward_time, workload, tp))
                    bwd.append(self._trial(cost_model.backward_time, workload, tp))
                self._tables[(name, tp, "fwd")] = ProfileTable(
                    units=grid.copy(), seconds=np.array(fwd)
                )
                self._tables[(name, tp, "bwd")] = ProfileTable(
                    units=grid.copy(), seconds=np.array(bwd)
                )

    def _trial(self, fn, workload: ModuleWorkload, tp: int) -> float:
        measured = fn(workload, tp)
        if self.noise_std > 0:
            measured *= 1.0 + self._rng.normal(0.0, self.noise_std)
        return max(0.0, measured)

    # ------------------------------------------------------------------ #
    # Queries
    # ------------------------------------------------------------------ #
    def estimate(
        self,
        name: str,
        workload: ModuleWorkload,
        tp: int,
        which: str = "fwd",
    ) -> float:
        """Interpolated time for one pass of module ``name``.

        Raises:
            KeyError: if the (module, tp) pair was never profiled.
        """
        if which not in ("fwd", "bwd"):
            raise ValueError("which must be 'fwd' or 'bwd'")
        key = (name, tp, which)
        if key not in self._tables:
            raise KeyError(
                f"no profile for module={name!r} tp={tp} pass={which}; "
                f"call profile() first"
            )
        module = self.cost_models[name].module
        units = _workload_units(module, workload)
        return self._tables[key].interpolate(units)

    def estimate_fwd_bwd(
        self,
        name: str,
        workload: ModuleWorkload,
        tp: int,
        weight_grads: bool = True,
        backward: bool = True,
    ) -> float:
        """Interpolated forward+backward time (orchestration objective)."""
        total = self.estimate(name, workload, tp, "fwd")
        if backward:
            bwd = self.estimate(name, workload, tp, "bwd")
            if not weight_grads:
                bwd *= 0.5  # dX-only backward is half a full backward
            total += bwd
        return total

    def table(self, name: str, tp: int, which: str = "fwd") -> ProfileTable:
        return self._tables[(name, tp, which)]
