"""Shared fixtures for the figure/table reproduction benchmarks.

All figure-scale evaluations run through the experiment campaign engine
(:mod:`repro.experiments`): each fixture declares its grid as a
:class:`SweepSpec`, and a session-scoped :class:`ResultCache` plus a
``multiprocessing`` pool make Figures 13/14 (and 15/18/19) share one
parallel, content-addressed run instead of re-solving orchestration
serially from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

import pytest

from repro.experiments import (
    Axis,
    CampaignResult,
    CampaignRunner,
    ResultCache,
    ResultFrame,
    SweepSpec,
    ZippedAxes,
)

# Paper-scale settings (section 7.1): up to ~1.3k GPUs, GBS 1920.
OVERALL_CLUSTER_GPUS = 1296
OVERALL_GBS = 1920
# Ablation settings (section 7.2): up to 96 GPUs.
ABLATION_CLUSTER_GPUS = 96
ABLATION_GBS = {"mllm-9b": 128, "mllm-15b": 64, "mllm-72b": 40}

MODELS = ("mllm-9b", "mllm-15b", "mllm-72b")
FROZEN_SETTINGS = ("all-frozen", "encoder-only", "llm-only", "generator-only")

#: model x per-model GBS advancing in lockstep (the ablation tasks).
ABLATION_MODEL_AXIS = ZippedAxes([
    Axis("model", MODELS),
    Axis("gbs", [ABLATION_GBS[model] for model in MODELS]),
])


@dataclass
class SystemRun:
    """One (model, system) evaluation, backed by campaign metrics."""

    metrics: Dict[str, float]

    @property
    def mfu(self) -> float:
        return self.metrics["mfu"]

    @property
    def throughput(self) -> float:
        return self.metrics["throughput_tokens_per_s"]

    @property
    def num_gpus(self) -> int:
        return int(self.metrics["num_gpus"])


@pytest.fixture(scope="session")
def campaign_cache(tmp_path_factory) -> ResultCache:
    """One content-addressed result store for the whole benchmark session."""
    return ResultCache(tmp_path_factory.mktemp("campaign-cache"))


def check_budget(benchmark, seconds: float) -> None:
    """Assert the timed mean is under ``seconds``.

    Under ``--benchmark-disable`` nothing is timed (``benchmark.stats``
    is None), so there is no mean to bound and the test goes on to its
    correctness asserts.
    """
    if benchmark.stats is not None:
        assert benchmark.stats.stats.mean < seconds


def run_campaign(spec: SweepSpec, cache: ResultCache) -> CampaignResult:
    """Execute a sweep in parallel; benchmark grids must not fail."""
    campaign = CampaignRunner(spec, cache=cache).run()
    if campaign.failed:
        details = "; ".join(
            f"{record.label()}: {record.error}"
            for record in campaign.failures
        )
        raise RuntimeError(f"campaign {spec.name!r} had failures: {details}")
    return campaign


def nested_by(campaign, *keys: str) -> Dict:
    """Campaign records as nested dicts keyed by parameter values."""
    table: Dict = {}
    for record in campaign.records:
        level = table
        for key in keys[:-1]:
            level = level.setdefault(record.params[key], {})
        level[record.params[keys[-1]]] = SystemRun(metrics=record.metrics)
    return table


@pytest.fixture(scope="session")
def overall_campaign(campaign_cache):
    """Figure 13/14 grid: overall MFU/throughput at ~1.2k GPUs."""
    spec = SweepSpec(
        name="fig13-14-overall",
        axes=[
            Axis("model", MODELS),
            Axis("system", ("disttrain", "megatron-lm")),
        ],
        base={"gpus": OVERALL_CLUSTER_GPUS, "gbs": OVERALL_GBS},
    )
    return run_campaign(spec, campaign_cache)


@pytest.fixture(scope="session")
def overall_results(overall_campaign) -> Dict[str, Dict[str, SystemRun]]:
    """Figure 13/14 data, indexed as ``[model][system]``."""
    return nested_by(overall_campaign, "model", "system")


@pytest.fixture(scope="session")
def overall_frame(overall_campaign) -> ResultFrame:
    """Figure 13/14 data as a ResultFrame (for ratio columns)."""
    return overall_campaign.frame().ok()


@pytest.fixture(scope="session")
def ablation_results(campaign_cache) -> Dict[str, Dict[str, SystemRun]]:
    """Figure 15 data: orchestration ablation at <=96 GPUs."""
    spec = SweepSpec(
        name="fig15-ablation",
        axes=[
            ABLATION_MODEL_AXIS,
            Axis("system", ("disttrain", "megatron-lm", "distmm*")),
        ],
        base={"gpus": ABLATION_CLUSTER_GPUS},
    )
    return nested_by(run_campaign(spec, campaign_cache), "model", "system")


@pytest.fixture(scope="session")
def frozen_results(
    campaign_cache,
) -> Dict[str, Dict[str, Dict[str, SystemRun]]]:
    """Figure 18/19 data: frozen-training settings at <=96 GPUs."""
    spec = SweepSpec(
        name="fig18-19-frozen",
        axes=[
            Axis("frozen", FROZEN_SETTINGS),
            ABLATION_MODEL_AXIS,
            Axis("system", ("disttrain", "megatron-lm")),
        ],
        base={"gpus": ABLATION_CLUSTER_GPUS},
    )
    campaign = run_campaign(spec, campaign_cache)
    return nested_by(campaign, "frozen", "model", "system")
