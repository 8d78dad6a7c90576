"""Public API: one-stop configuration, planning, and simulation.

Typical use::

    from repro.core import DistTrainConfig, plan, simulate

    config = DistTrainConfig.preset("mllm-72b", num_gpus=1176,
                                    global_batch_size=1920)
    result = simulate(config)           # DistTrain
    baseline = simulate(config.with_system("megatron-lm"))
    print(result.mfu, baseline.mfu)
"""

from repro.core.config import DistTrainConfig
from repro.core.api import (
    plan,
    simulate,
    simulate_run,
    simulate_fleet,
    compare_systems,
    SystemComparison,
)
from repro.core.reports import format_table, format_comparison
# The lifecycle manager lives in repro.runtime but runs its phases on
# repro.core.api, so it is imported here, after api has loaded. Importing
# repro.runtime.manager first also works: the repro package loads this
# one (and so api) before any submodule.
from repro.runtime.manager import DistTrainManager, InitializationReport

# The campaign engine (repro.experiments) builds ON TOP of this package,
# so its entry points are re-exported lazily (PEP 562): importing them
# eagerly here would put repro.core below and above repro.experiments at
# once and trap any future `from repro.core import ...` inside the
# experiments modules in a circular import.
_EXPERIMENT_EXPORTS = (
    "Axis",
    "ZippedAxes",
    "SweepSpec",
    "ResultCache",
    "CampaignRunner",
    "CampaignResult",
    "ResultFrame",
)


def __getattr__(name):
    if name in _EXPERIMENT_EXPORTS:
        import repro.experiments

        return getattr(repro.experiments, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "DistTrainConfig",
    "plan",
    "simulate",
    "simulate_run",
    "simulate_fleet",
    "compare_systems",
    "SystemComparison",
    "format_table",
    "format_comparison",
    "DistTrainManager",
    "InitializationReport",
    "Axis",
    "ZippedAxes",
    "SweepSpec",
    "ResultCache",
    "CampaignRunner",
    "CampaignResult",
    "ResultFrame",
]
