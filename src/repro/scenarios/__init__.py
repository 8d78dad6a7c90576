"""Dynamic-cluster scenario engine.

Long multimodal training runs are dominated by dynamic effects the
steady-state iteration simulator never sees: GPU/node failures,
straggler ranks, and the elastic rescheduling a production scheduler
performs around them. This package simulates those runs end-to-end —
thousands of iterations stay fast because every iteration's pipeline is
priced through the vectorized kernel's batched sweep, and only distinct
(cluster size, sample batch, straggler profile) combinations are ever
evaluated.

Layout:

* :mod:`repro.scenarios.events` — declarative cluster events
  (failures, stragglers, resizes) and the JSON trace schema;
* :mod:`repro.scenarios.spec` — :class:`ScenarioSpec`, the sweepable
  scenario configuration with a canonical content hash;
* :mod:`repro.scenarios.engine` — :func:`run_scenario`, one job's run
  on the whole cluster;
* :mod:`repro.scenarios.result` — :class:`ScenarioResult` (goodput,
  lost work, recovery time, MFU trajectory);
* :mod:`repro.scenarios.packs` — the declarative scenario-pack catalog
  (arrival processes, job-class mixes, correlated fault profiles).
"""

from repro.scenarios.engine import run_scenario
from repro.scenarios.events import (
    ClusterEvent,
    DomainFailureEvent,
    EventTrace,
    FailureEvent,
    MaintenanceEvent,
    ResizeEvent,
    SpotReclaimEvent,
    StragglerEvent,
)
from repro.scenarios.packs import (
    PACKS,
    ArrivalProcess,
    FaultProfile,
    JobClass,
    ScenarioPack,
    get_pack,
)
from repro.scenarios.result import ScenarioResult
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "ArrivalProcess",
    "ClusterEvent",
    "DomainFailureEvent",
    "EventTrace",
    "FailureEvent",
    "FaultProfile",
    "JobClass",
    "MaintenanceEvent",
    "PACKS",
    "ResizeEvent",
    "ScenarioPack",
    "ScenarioResult",
    "ScenarioSpec",
    "SpotReclaimEvent",
    "StragglerEvent",
    "get_pack",
    "run_scenario",
]
