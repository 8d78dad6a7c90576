"""Declarative cluster events and event traces.

A scenario is driven either by events sampled on the fly (failures at
the :class:`~repro.scenarios.spec.ScenarioSpec`'s MTBF and stragglers
at its rate, on the scenario engine's one timeline) or by replaying an
explicit :class:`EventTrace`. Traces serialize to a small
JSON schema so canonical scenarios can be checked into fixtures, diffed,
and re-played bit-identically::

    {
     "events": [
      {"kind": "failure", "time_s": 1234.5, "gpus_lost": 8},
      {"kind": "straggler", "iteration": 120, "duration_iterations": 20,
       "rank": 3, "slowdown": 1.8},
      {"kind": "resize", "iteration": 400, "num_gpus": 88}
     ]
    }

Failures are timestamped in simulated wall-clock seconds (hardware dies
at a point in time); stragglers and resizes are pinned to iteration
indices (they are scheduler-visible conditions on the training loop).

Schema **v2** adds topology-correlated and capacity-lifecycle events
(see the scenario-pack catalog, :mod:`repro.scenarios.packs`)::

    {
     "version": 2,
     "events": [
      {"kind": "domain-failure", "time_s": 500.0, "domain": "rack1"},
      {"kind": "spot-reclaim", "time_s": 900.0, "gpus": 8,
       "duration_s": 1800.0},
      {"kind": "maintenance", "time_s": 7200.0, "duration_s": 1800.0,
       "domain": "rack0"}
     ]
    }

A *domain failure* names a node/rack failure domain drawn from
:func:`repro.cluster.topology.failure_domains` and kills
every GPU in its blast radius. *Spot reclamations* and *maintenance
windows* are graceful capacity outages: no work is rolled back, the
capacity returns after ``duration_s``. Serialization stays
backward-compatible: a trace holding only v1 kinds round-trips to the
v1 schema (no ``version`` marker), and v1 fixtures parse unchanged.
"""

from __future__ import annotations

import json
import math
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import Any, Dict, Iterable, List, Union

import numpy as np


@dataclass(frozen=True)
class FailureEvent:
    """A hardware failure at ``time_s`` killing ``gpus_lost`` GPUs.

    Under elastic scheduling the job sheds the failed node(s) and
    re-orchestrates on the survivors; otherwise the failed hardware is
    assumed replaced and the job restarts at full size. Either way the
    run rolls back to the latest durable checkpoint.
    """

    time_s: float
    gpus_lost: int = 8

    kind = "failure"

    def __post_init__(self) -> None:
        # Guards on times, durations and slowdowns are written so NaN
        # fails them (every comparison with NaN is False); Python's json
        # reads NaN and Infinity, so a trace file can carry either.
        if not self.time_s >= 0:
            raise ValueError("failure time must be non-negative")
        if self.gpus_lost < 1:
            raise ValueError("a failure must lose at least one GPU")


@dataclass(frozen=True)
class StragglerEvent:
    """One DP rank runs slow for a window of iterations.

    ``rank`` indexes the simulated DP ranks (wrapped modulo the rank
    count, so traces stay valid across elastic resizes); ``slowdown``
    multiplies the rank's compute durations (communication is
    unaffected).
    """

    iteration: int
    duration_iterations: int
    rank: int
    slowdown: float

    kind = "straggler"

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ValueError("straggler start iteration must be >= 0")
        if self.duration_iterations < 1:
            raise ValueError("straggler duration must be >= 1 iteration")
        if self.rank < 0:
            raise ValueError("straggler rank must be >= 0")
        if not 1.0 <= self.slowdown < math.inf:
            raise ValueError("slowdown must be finite and >= 1.0")

    @property
    def end_iteration(self) -> int:
        """First iteration no longer affected."""
        return self.iteration + self.duration_iterations


def draw_stragglers(
    rng: np.random.Generator,
    num_iterations: int,
    rate: float,
    duration_iterations: int,
    slowdown: float,
) -> List[StragglerEvent]:
    """Straggler episodes over ``num_iterations`` iterations, drawn from
    ``rng``: one uniform coin per iteration, then one rank per
    iteration, and an episode at each iteration whose coin falls below
    ``rate``. The job simulator samples a scenario's stragglers this
    way, and a pack's fault profile pre-draws them into its traces."""
    coins = rng.uniform(size=num_iterations)
    ranks = rng.integers(0, 2**16, size=num_iterations)
    return [
        StragglerEvent(
            iteration=int(i),
            duration_iterations=duration_iterations,
            rank=int(ranks[i]),
            slowdown=slowdown,
        )
        for i in np.flatnonzero(coins < rate)
    ]


@dataclass(frozen=True)
class ResizeEvent:
    """A scheduler-driven elastic resize before ``iteration`` runs.

    Unlike a failure, a planned resize is graceful: no work is lost, the
    job only pays the re-orchestration pause.
    """

    iteration: int
    num_gpus: int

    kind = "resize"

    def __post_init__(self) -> None:
        if self.iteration < 0:
            raise ValueError("resize iteration must be >= 0")
        if self.num_gpus < 1:
            raise ValueError("resize must keep at least one GPU")


@dataclass(frozen=True)
class DomainFailureEvent:
    """A correlated failure of a whole failure domain at ``time_s``.

    ``domain`` names a node/rack blast radius from
    :func:`repro.cluster.topology.failure_domains`
    (e.g. ``"node3"`` or ``"rack1"``). Every GPU the job holds inside
    the domain dies at once; the job rolls back and recovers exactly as
    for a :class:`FailureEvent` of that size. A domain that lies
    entirely outside the job's current slice is a no-op for the job.
    """

    time_s: float
    domain: str

    kind = "domain-failure"

    def __post_init__(self) -> None:
        if not self.time_s >= 0:
            raise ValueError("failure time must be non-negative")
        if not self.domain:
            raise ValueError("domain failure must name a failure domain")


@dataclass(frozen=True)
class SpotReclaimEvent:
    """The provider reclaims ``gpus`` spot GPUs for ``duration_s``.

    Reclamation is graceful: no checkpoint work is lost, only the
    iteration in flight is abandoned. An elastic job sheds the
    reclaimed node(s) and continues on the survivors; an inelastic job
    vacates for the window and resumes at full size when the capacity
    returns.
    """

    time_s: float
    gpus: int = 8
    duration_s: float = 1800.0

    kind = "spot-reclaim"

    def __post_init__(self) -> None:
        if not self.time_s >= 0:
            raise ValueError("reclaim time must be non-negative")
        if self.gpus < 1:
            raise ValueError("a reclamation must take at least one GPU")
        if not self.duration_s > 0:
            raise ValueError("reclaim duration must be positive")


@dataclass(frozen=True)
class MaintenanceEvent:
    """A scheduled maintenance window over a failure domain.

    Like :class:`SpotReclaimEvent` the drain is graceful (no rollback),
    but the outage is pinned to a topology domain: the job loses
    whatever it holds inside ``domain`` for ``duration_s`` seconds.
    """

    time_s: float
    duration_s: float
    domain: str

    kind = "maintenance"

    def __post_init__(self) -> None:
        if not self.time_s >= 0:
            raise ValueError("maintenance time must be non-negative")
        if not self.duration_s > 0:
            raise ValueError("maintenance duration must be positive")
        if not self.domain:
            raise ValueError("maintenance must name a failure domain")


ClusterEvent = Union[
    FailureEvent,
    StragglerEvent,
    ResizeEvent,
    DomainFailureEvent,
    SpotReclaimEvent,
    MaintenanceEvent,
]

_EVENT_KINDS = {
    "failure": FailureEvent,
    "straggler": StragglerEvent,
    "resize": ResizeEvent,
    "domain-failure": DomainFailureEvent,
    "spot-reclaim": SpotReclaimEvent,
    "maintenance": MaintenanceEvent,
}

# Kinds introduced by trace schema v2. Their presence is what flips a
# serialized trace to the versioned form.
_V2_KINDS = (DomainFailureEvent, SpotReclaimEvent, MaintenanceEvent)

# Wall-clock-stamped kinds the simulator replays on its failure clock.
_TIMED_KINDS = (FailureEvent, DomainFailureEvent, SpotReclaimEvent, MaintenanceEvent)

SCHEMA_VERSION = 2


#: Declared event-field type (the annotation as written — this module
#: defers annotations) -> (accepted JSON types, description). Bools are
#: ints to Python, but never a count, a time or a name to a trace, so
#: they are rejected everywhere.
_FIELD_TYPES = {
    "int": ((int,), "an integer"),
    "float": ((int, float), "a number"),
    "str": ((str,), "a string"),
}


def _parse_record(index: int, record: Any) -> ClusterEvent:
    """One schema record as an event, or a ``ValueError`` naming the
    record's index and kind."""
    if not isinstance(record, dict):
        raise ValueError(
            f"event record {index} is not an object: {record!r}"
        )
    payload = dict(record)
    kind = payload.pop("kind", None)
    if not isinstance(kind, str) or kind not in _EVENT_KINDS:
        raise ValueError(
            f"event record {index}: unknown event kind {kind!r}; "
            f"expected one of {sorted(_EVENT_KINDS)}"
        )
    event_type = _EVENT_KINDS[kind]
    where = f"event record {index} ({kind})"
    declared = {f.name: f for f in fields(event_type)}
    unknown = [name for name in payload if name not in declared]
    if unknown:
        raise ValueError(f"{where}: unknown field(s) {unknown}")
    missing = [
        name
        for name, f in declared.items()
        if name not in payload and f.default is MISSING
    ]
    if missing:
        raise ValueError(f"{where}: missing field(s) {missing}")
    for name, value in payload.items():
        accepted, expected = _FIELD_TYPES[declared[name].type]
        if isinstance(value, bool) or not isinstance(value, accepted):
            raise ValueError(
                f"{where}: {name} must be {expected}, got {value!r}"
            )
    try:
        return event_type(**payload)
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc


@dataclass(frozen=True)
class EventTrace:
    """An ordered, replayable set of cluster events."""

    events: tuple

    def __init__(self, events: Iterable[ClusterEvent] = ()) -> None:
        object.__setattr__(self, "events", tuple(events))
        for event in self.events:
            if not isinstance(event, tuple(_EVENT_KINDS.values())):
                raise TypeError(f"not a cluster event: {event!r}")

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self):
        return iter(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    # ------------------------------------------------------------------ #
    # Selection
    # ------------------------------------------------------------------ #
    @property
    def failures(self) -> List[FailureEvent]:
        """Failures ordered by time."""
        return sorted(
            (e for e in self.events if isinstance(e, FailureEvent)),
            key=lambda e: e.time_s,
        )

    @property
    def stragglers(self) -> List[StragglerEvent]:
        """Straggler windows ordered by start iteration."""
        return sorted(
            (e for e in self.events if isinstance(e, StragglerEvent)),
            key=lambda e: (e.iteration, e.rank),
        )

    @property
    def resizes(self) -> List[ResizeEvent]:
        """Planned resizes ordered by iteration."""
        return sorted(
            (e for e in self.events if isinstance(e, ResizeEvent)),
            key=lambda e: e.iteration,
        )

    @property
    def timed_events(self) -> List[ClusterEvent]:
        """All wall-clock events (failures, domain failures, outages)
        in time order. Equals :attr:`failures` for a v1-only trace."""
        return sorted(
            (e for e in self.events if isinstance(e, _TIMED_KINDS)),
            key=lambda e: e.time_s,
        )

    @property
    def domain_failures(self) -> List[DomainFailureEvent]:
        """Correlated domain failures ordered by time."""
        return sorted(
            (e for e in self.events if isinstance(e, DomainFailureEvent)),
            key=lambda e: e.time_s,
        )

    @property
    def outages(self) -> List[ClusterEvent]:
        """Graceful capacity outages (spot reclaims + maintenance)."""
        return sorted(
            (
                e
                for e in self.events
                if isinstance(e, (SpotReclaimEvent, MaintenanceEvent))
            ),
            key=lambda e: e.time_s,
        )

    @property
    def schema_version(self) -> int:
        """2 when any v2 kind is present, else 1."""
        if any(isinstance(e, _V2_KINDS) for e in self.events):
            return SCHEMA_VERSION
        return 1

    # ------------------------------------------------------------------ #
    # Serialization
    # ------------------------------------------------------------------ #
    def to_dicts(self) -> List[Dict[str, Any]]:
        """JSON-safe event records (the trace schema)."""
        records = []
        for event in self.events:
            record = {"kind": event.kind}
            record.update(asdict(event))
            records.append(record)
        return records

    @classmethod
    def from_dicts(cls, records: Iterable[Dict[str, Any]]) -> "EventTrace":
        """Events from schema records; a malformed record raises a
        ``ValueError`` naming its index and kind."""
        return cls(
            _parse_record(index, record)
            for index, record in enumerate(records)
        )

    def to_json(self, path: Union[str, Path, None] = None) -> str:
        # Traces with only v1 kinds keep the original unversioned form
        # so pre-existing fixtures round-trip byte-identically.
        payload: Dict[str, Any] = {}
        if self.schema_version > 1:
            payload["version"] = self.schema_version
        payload["events"] = self.to_dicts()
        text = json.dumps(payload, indent=1)
        if path is not None:
            Path(path).write_text(text + "\n", encoding="utf-8")
        return text

    @classmethod
    def from_json(cls, source: Union[str, Path]) -> "EventTrace":
        """Parse a trace from a JSON string or file path.

        Inline JSON may be an object (``{"events": [...]}``, optionally
        with a ``"version"`` marker) or a bare top-level array of event
        records. Anything else is treated as a filesystem path; an
        unreadable path raises a ``ValueError`` naming the source
        instead of a bare ``OSError``. Any other malformed input — bad
        JSON, a non-object record, a missing, unknown or mistyped field
        — raises a ``ValueError`` too.
        """
        text = str(source)
        if not text.lstrip().startswith(("{", "[")):
            try:
                text = Path(source).read_text(encoding="utf-8")
            except OSError as exc:
                raise ValueError(
                    "event trace source is neither inline JSON nor a "
                    f"readable file: {text!r} ({exc})"
                ) from exc
        payload = json.loads(text)
        if isinstance(payload, dict):
            version = payload.get("version", 1)
            if version not in (1, SCHEMA_VERSION):
                raise ValueError(
                    f"unsupported event trace schema version {version!r}; "
                    f"this build reads versions 1 and {SCHEMA_VERSION}"
                )
            payload = payload.get("events", [])
        if not isinstance(payload, list):
            raise ValueError(
                "event trace JSON must be an object with an 'events' "
                f"list or a bare array, got {type(payload).__name__}"
            )
        return cls.from_dicts(payload)
