"""Experiment campaign engine.

Turns the single-shot ``(plan, simulate)`` API into a high-throughput
evaluation engine: declarative sweeps (:mod:`~repro.experiments.spec`),
parallel cached execution (:mod:`~repro.experiments.runner`,
:mod:`~repro.experiments.cache`), and tabular analysis
(:mod:`~repro.experiments.results`).

Typical use::

    from repro.experiments import SweepSpec, CampaignRunner, ResultCache

    spec = SweepSpec.grid(
        models=["mllm-9b", "mllm-72b"],
        systems=["disttrain", "megatron-lm"],
        gpus=[96, 192, 384],
        gbs=128,
    )
    campaign = CampaignRunner(spec, cache=ResultCache(".repro-cache")).run()
    frame = campaign.frame().ok().with_ratio(
        "mfu", baseline={"system": "megatron-lm"}, join=("model", "gpus"),
    )
"""

from repro.core.canonical import canonical_json, config_hash
from repro.experiments.spec import (
    SCENARIO_PARAMS,
    TASK_PARAMS,
    Axis,
    SweepSpec,
    TrialSpec,
    ZippedAxes,
)
from repro.experiments.cache import ResultCache
from repro.experiments.chaos import ChaosRule
from repro.experiments.journal import CampaignJournal, campaign_key
from repro.experiments.runner import (
    CampaignResult,
    CampaignRunner,
    TrialRecord,
    derive_trial_seed,
    print_progress,
)
from repro.experiments.results import ResultFrame
from repro.experiments.supervisor import RetryPolicy, SupervisedExecutor

__all__ = [
    "SCENARIO_PARAMS",
    "TASK_PARAMS",
    "Axis",
    "ZippedAxes",
    "SweepSpec",
    "TrialSpec",
    "canonical_json",
    "config_hash",
    "ResultCache",
    "CampaignJournal",
    "campaign_key",
    "CampaignRunner",
    "CampaignResult",
    "ChaosRule",
    "RetryPolicy",
    "SupervisedExecutor",
    "TrialRecord",
    "derive_trial_seed",
    "print_progress",
    "ResultFrame",
]
