"""The default import path is numpy-only.

scipy serves only the SLSQP oracle (``solver="slsqp"``) and is imported
inside it; networkx is not used at all. A fresh interpreter in which
importing either module raises must still import the CLI and run a
simulation, a fleet with failures and stragglers, and a campaign sweep.
numpy submodules the runs need must already be loaded by the import,
so their cost shows in set-up rather than inside the first run.
"""

import os
import subprocess
import sys
from pathlib import Path

SCRIPT = """
import sys

# A None entry makes any import of the module raise ImportError.
sys.modules["scipy"] = None
sys.modules["networkx"] = None

import repro.cli


def numpy_modules():
    return {m for m in sys.modules if m == "numpy" or m.startswith("numpy.")}


assert "numpy.random" in sys.modules, "numpy.random not loaded by import"
loaded = numpy_modules()

code = repro.cli.main(
    ["simulate", "--model", "mllm-9b", "--gpus", "48", "--gbs", "32"]
)
assert code == 0, code

from repro.core.api import simulate_fleet
from repro.core.config import DistTrainConfig
from repro.experiments import CampaignRunner, SweepSpec
from repro.fleet import FleetSpec
from repro.scenarios import ScenarioSpec

fleet = simulate_fleet(FleetSpec.homogeneous(
    DistTrainConfig.preset("mllm-9b", 48, 16),
    cluster_gpus=96,
    num_jobs=2,
    job_gpus=48,
    scenario=ScenarioSpec(
        num_iterations=40,
        checkpoint_interval=10,
        mtbf_gpu_hours=5.0,
        straggler_rate=0.05,
        elastic=True,
        seed=1,
    ),
))
assert [r.result.num_iterations for r in fleet.records] == [40, 40]
assert fleet.metrics()["num_failures"] >= 1
assert any(
    event.kind == "straggler"
    for record in fleet.records
    for event in record.result.events
)

campaign = CampaignRunner(
    SweepSpec.grid(
        models=["mllm-9b"],
        systems=["disttrain", "megatron-lm"],
        gpus=[48],
        gbs=32,
    ),
    processes=1,
).run()
assert [r.status for r in campaign.records] == ["ok", "ok"], campaign.records

late = sorted(numpy_modules() - loaded)
assert not late, f"numpy submodules first imported during the runs: {late}"
print("footprint ok")
"""


def test_runs_import_neither_scipy_nor_networkx():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.rstrip().endswith("footprint ok")
