"""DistTrain reproduction: disaggregated training for multimodal LLMs.

A from-scratch reproduction of "DistTrain: Addressing Model and Data
Heterogeneity with Disaggregated Training for Multimodal Large Language
Models" (SIGCOMM 2025) over a high-fidelity analytic + discrete-event
simulation substrate. See README.md for the quickstart, the CLI, and
the experiment campaign engine; the figure/table record lives in the
``benchmarks/`` reproduction suite.
"""

import importlib as _importlib
import logging as _logging

__version__ = "1.3.0"

# Library logging contract: the package logs under the "repro" root
# logger but never configures handlers itself — entry points opt in
# (the CLI's --log-level flag calls repro.obs.configure_logging).
_logging.getLogger("repro").addHandler(_logging.NullHandler())

from repro import obs
from repro.core import (
    DistTrainConfig,
    plan,
    simulate,
    simulate_run,
    compare_systems,
)

# The campaign, scenario and fleet layers build on repro.core, and a
# command loads only the layers it runs, so their names resolve on
# first use (PEP 562): name -> defining package.
_LAZY_EXPORTS = {
    "Axis": "repro.experiments",
    "ZippedAxes": "repro.experiments",
    "SweepSpec": "repro.experiments",
    "CampaignRunner": "repro.experiments",
    "ResultCache": "repro.experiments",
    "ResultFrame": "repro.experiments",
    "EventTrace": "repro.scenarios",
    "ScenarioSpec": "repro.scenarios",
    "run_scenario": "repro.scenarios",
    "FleetJobSpec": "repro.fleet",
    "FleetSpec": "repro.fleet",
    "run_fleet": "repro.fleet",
}


def __getattr__(name):
    package = _LAZY_EXPORTS.get(name)
    if package is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_importlib.import_module(package), name)


__all__ = [
    "DistTrainConfig",
    "plan",
    "simulate",
    "simulate_run",
    "compare_systems",
    "Axis",
    "ZippedAxes",
    "SweepSpec",
    "CampaignRunner",
    "ResultCache",
    "ResultFrame",
    "EventTrace",
    "ScenarioSpec",
    "run_scenario",
    "FleetJobSpec",
    "FleetSpec",
    "run_fleet",
    "obs",
    "__version__",
]
