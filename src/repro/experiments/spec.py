"""Declarative sweep specifications.

A campaign is described by a :class:`SweepSpec`: a set of base parameters
plus axes that vary. Each :class:`Axis` multiplies the grid; a
:class:`ZippedAxes` group advances several parameters in lockstep (e.g.
``gpus`` and ``gbs`` scaled together) and participates in the grid as a
single axis. Expansion produces :class:`TrialSpec` objects, each of which
materializes a :class:`~repro.core.config.DistTrainConfig` and carries a
stable content hash derived from the config's canonical serialization
(:func:`repro.core.canonical.config_hash`) — the key under which results
are cached.

Example::

    spec = SweepSpec(
        name="overall",
        axes=[
            Axis("model", ["mllm-9b", "mllm-72b"]),
            Axis("system", ["disttrain", "megatron-lm"]),
            ZippedAxes([Axis("gpus", [96, 192]), Axis("gbs", [128, 256])]),
        ],
    )
    trials = spec.expand()   # 2 x 2 x 2 = 8 trials
"""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import dataclass, field
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Sequence,
    Tuple,
    Union,
)

from repro.core.canonical import HASH_LENGTH, canonical_value, config_hash
from repro.core.config import REQUIRED_PARAMS, TASK_PARAMS, DistTrainConfig
from repro.scenarios.spec import PARAM_FIELDS

#: Dynamic-cluster scenario parameters: the keys of
#: :data:`repro.scenarios.spec.PARAM_FIELDS`. A trial carrying any of
#: these runs through the scenario engine instead of the single-iteration
#: simulator, and they join the task config in the trial's cache key.
SCENARIO_PARAMS = tuple(PARAM_FIELDS)

#: Shared-cluster fleet parameters (see :mod:`repro.fleet.spec`). A
#: trial carrying any of these runs a multi-tenant
#: :class:`~repro.fleet.engine.FleetEngine` workload — ``gpus`` becomes
#: the *shared cluster* size, ``fleet_job_gpus`` each tenant's demand —
#: and they join the task + scenario configs in the trial's cache key.
FLEET_PARAMS = (
    "fleet_policy",
    "fleet_jobs",
    "fleet_job_gpus",
    "fleet_arrival_spacing",
    "fleet_priorities",
    "fleet_pack",
)

#: Every trial parameter: the task parameters
#: (:data:`~repro.core.config.TASK_PARAMS`, which
#: :meth:`~repro.core.config.DistTrainConfig.from_params` reads), then
#: the scenario and fleet ones.
KNOWN_PARAMS = TASK_PARAMS + SCENARIO_PARAMS + FLEET_PARAMS


# --------------------------------------------------------------------- #
# Axes
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class Axis:
    """One swept parameter: a name and the values it takes."""

    name: str
    values: Tuple[Any, ...]

    def __init__(self, name: str, values: Iterable[Any]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "values", tuple(values))
        if not self.name:
            raise ValueError("axis needs a name")
        if not self.values:
            raise ValueError(f"axis {name!r} needs at least one value")

    def __len__(self) -> int:
        return len(self.values)

    def assignments(self) -> List[Dict[str, Any]]:
        return [{self.name: value} for value in self.values]


@dataclass(frozen=True)
class ZippedAxes:
    """Axes that advance together (paired values, not a cross product)."""

    axes: Tuple[Axis, ...]

    def __init__(self, axes: Iterable[Axis]) -> None:
        object.__setattr__(self, "axes", tuple(axes))
        if len(self.axes) < 2:
            raise ValueError("zip at least two axes (use Axis for one)")
        lengths = {len(axis) for axis in self.axes}
        if len(lengths) != 1:
            detail = ", ".join(
                f"{axis.name}={len(axis)}" for axis in self.axes
            )
            raise ValueError(f"zipped axes must have equal lengths ({detail})")

    def __len__(self) -> int:
        return len(self.axes[0])

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(axis.name for axis in self.axes)

    def assignments(self) -> List[Dict[str, Any]]:
        return [
            {axis.name: axis.values[i] for axis in self.axes}
            for i in range(len(self))
        ]


AxisLike = Union[Axis, ZippedAxes]


# --------------------------------------------------------------------- #
# Trials
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class TrialSpec:
    """One point of a sweep: a flat parameter assignment.

    ``params`` uses preset-level names (see :data:`KNOWN_PARAMS`);
    :meth:`to_config` materializes the full :class:`DistTrainConfig`.
    """

    params: Mapping[str, Any]

    def __init__(self, params: Mapping[str, Any]) -> None:
        object.__setattr__(self, "params", dict(params))
        unknown = sorted(set(self.params) - set(KNOWN_PARAMS))
        if unknown:
            raise ValueError(
                f"unknown sweep parameters {unknown}; "
                f"known: {sorted(KNOWN_PARAMS)}"
            )
        missing = [key for key in REQUIRED_PARAMS if key not in self.params]
        if missing:
            raise ValueError(f"trial is missing required parameters {missing}")

    def __getitem__(self, key: str) -> Any:
        return self.params[key]

    def get(self, key: str, default: Any = None) -> Any:
        return self.params.get(key, default)

    def scenario_params(self) -> Dict[str, Any]:
        """The trial's dynamic-cluster parameters (empty = plain trial)."""
        return {
            key: value
            for key, value in self.params.items()
            if key in SCENARIO_PARAMS
        }

    def to_scenario(self):
        """The trial's :class:`~repro.scenarios.spec.ScenarioSpec`, or
        None for a plain single-iteration trial."""
        scenario = self.scenario_params()
        if not scenario:
            return None
        from repro.scenarios.spec import ScenarioSpec

        return ScenarioSpec.from_params(scenario)

    def fleet_params(self) -> Dict[str, Any]:
        """The trial's shared-cluster parameters (empty = not a fleet)."""
        return {
            key: value
            for key, value in self.params.items()
            if key in FLEET_PARAMS
        }

    def to_fleet(self):
        """The trial's :class:`~repro.fleet.spec.FleetSpec`, or None
        when no fleet parameter is set: the ``gpus``-sized shared
        cluster that :meth:`~repro.fleet.spec.FleetSpec.from_params`
        builds from the fleet parameters, with the trial's scenario
        parameters as every job's dynamics."""
        fleet = self.fleet_params()
        if not fleet:
            return None
        from repro.fleet.spec import FleetSpec
        from repro.scenarios.spec import ScenarioSpec

        scenario = self.to_scenario() or ScenarioSpec()
        return FleetSpec.from_params(self.to_config(), scenario, fleet)

    def to_config(self) -> DistTrainConfig:
        """Build the concrete training-task config for this trial."""
        return DistTrainConfig.from_params({
            key: value
            for key, value in self.params.items()
            if key in TASK_PARAMS
        })

    @property
    def config_hash(self) -> str:
        """Content hash of the materialized config (the cache key)."""
        return config_hash(self.to_config())

    @property
    def cache_key(self) -> str:
        """The trial's result-cache key.

        Plain trials keep the task config hash (stable across this
        change). A scenario trial's key also covers the fully resolved
        :class:`~repro.scenarios.spec.ScenarioSpec` — every scenario
        field change (including defaulted fields gaining new values in
        future versions) re-executes exactly the affected trials. A
        fleet trial's key covers the fully resolved
        :class:`~repro.fleet.spec.FleetSpec` (cluster, policy, every
        job's config/scenario/arrival/priority) the same way.
        """
        fleet = self.to_fleet()
        if fleet is not None:
            digest = hashlib.sha256(
                json.dumps(
                    {"fleet": fleet.canonical()},
                    sort_keys=True,
                    separators=(",", ":"),
                ).encode("utf-8")
            )
            return digest.hexdigest()[:HASH_LENGTH]
        scenario = self.to_scenario()
        if scenario is None:
            return self.config_hash
        payload = {
            "task": canonical_value(self.to_config()),
            "scenario": canonical_value(scenario.canonical()),
        }
        digest = hashlib.sha256(
            json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            ).encode("utf-8")
        )
        return digest.hexdigest()[:HASH_LENGTH]

    def label(self) -> str:
        """Compact human-readable identity for progress lines."""
        parts = [
            str(self.params.get("model", "?")),
            str(self.params.get("system", "disttrain")),
            f"{self.params.get('gpus', '?')}g",
            f"gbs{self.params.get('gbs', '?')}",
        ]
        frozen = self.params.get("frozen")
        if frozen and frozen != "full":
            parts.append(str(frozen))
        if self.fleet_params():
            from repro.fleet.spec import FLEET_PARAM_DEFAULTS

            fleet = {**FLEET_PARAM_DEFAULTS, **self.params}
            jobs, pack = fleet["fleet_jobs"], fleet.get("fleet_pack")
            if pack:
                parts.append(f"fleet({jobs}x,pack={pack})")
            else:
                parts.append(f"fleet({jobs}x,{fleet['fleet_policy']})")
        elif self.scenario_params():
            mtbf = self.params.get("mtbf")
            parts.append(f"dyn(mtbf={mtbf})" if mtbf else "dyn")
        return "/".join(parts)


# --------------------------------------------------------------------- #
# Sweeps
# --------------------------------------------------------------------- #
@dataclass
class SweepSpec:
    """A declarative grid of trials.

    Attributes:
        axes: Swept parameters. Plain :class:`Axis` entries multiply the
            grid; :class:`ZippedAxes` groups advance in lockstep.
        base: Parameters shared by every trial (overridden by axes).
        name: Campaign label for reports and progress lines.
    """

    axes: Sequence[AxisLike] = field(default_factory=list)
    base: Mapping[str, Any] = field(default_factory=dict)
    name: str = "campaign"

    def __post_init__(self) -> None:
        seen: Dict[str, str] = {}
        for axis in self.axes:
            names = axis.names if isinstance(axis, ZippedAxes) else (axis.name,)
            for name in names:
                if name in seen:
                    raise ValueError(
                        f"parameter {name!r} appears on more than one axis"
                    )
                seen[name] = name

    @property
    def num_trials(self) -> int:
        total = 1
        for axis in self.axes:
            total *= len(axis)
        return total

    def expand(self) -> List[TrialSpec]:
        """Materialize every trial of the grid, in deterministic order."""
        pools = [axis.assignments() for axis in self.axes]
        trials: List[TrialSpec] = []
        for combo in itertools.product(*pools):
            params = dict(self.base)
            for assignment in combo:
                params.update(assignment)
            trials.append(TrialSpec(params))
        return trials

    # Convenience constructor for the common model/system/cluster grid.
    @classmethod
    def grid(
        cls,
        models: Sequence[str],
        systems: Sequence[str],
        gpus: Sequence[int],
        gbs: Union[int, Sequence[int]],
        name: str = "campaign",
        **base: Any,
    ) -> "SweepSpec":
        """Build the canonical models x systems x cluster-sizes sweep.

        ``gbs`` may be a single value (applied everywhere) or one value
        per cluster size (zipped with ``gpus`` so batch scales with the
        cluster).
        """
        axes: List[AxisLike] = [
            Axis("model", models),
            Axis("system", systems),
        ]
        if isinstance(gbs, (list, tuple)):
            if len(gbs) == 1:
                base = {**base, "gbs": gbs[0]}
                axes.append(Axis("gpus", gpus))
            else:
                axes.append(
                    ZippedAxes([Axis("gpus", gpus), Axis("gbs", gbs)])
                )
        else:
            base = {**base, "gbs": gbs}
            axes.append(Axis("gpus", gpus))
        return cls(axes=axes, base=base, name=name)
