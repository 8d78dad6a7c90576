"""What importing the package loads, and what a run loads after it.

The default import path is numpy-only. scipy serves only the SLSQP
oracle (``solver="slsqp"``) and is imported inside it; networkx is not
used at all. A fresh interpreter in which importing either module raises
must still import the CLI and run a simulation, a fleet with failures
and stragglers, and a campaign sweep. numpy submodules and ``repro``
modules the runs need must already be loaded by the imports each run
makes before it starts, so their cost shows in set-up rather than
inside the first run.

Importing a module loads only its own layer and the layers below it:
the campaign (``repro.experiments``), scenario engine and fleet
(``repro.fleet``) layers load only for the commands that run them, and
the names ``repro`` and ``repro.scenarios`` re-export from them resolve
on first use, to the object their defining module holds.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = """
import sys

# A None entry makes any import of the module raise ImportError.
sys.modules["scipy"] = None
sys.modules["networkx"] = None

import repro.cli


def numpy_modules():
    return {m for m in sys.modules if m == "numpy" or m.startswith("numpy.")}


def repro_modules():
    return {m for m in sys.modules if m == "repro" or m.startswith("repro.")}


def loads_nothing(run, ready):
    late = sorted(repro_modules() - ready)
    assert not late, f"repro modules first imported by the {run} run: {late}"


assert "numpy.random" in sys.modules, "numpy.random not loaded by import"
loaded = numpy_modules()

# `main` builds the parser before it runs the command.
repro.cli.build_parser()
ready = repro_modules()
code = repro.cli.main(
    ["simulate", "--model", "mllm-9b", "--gpus", "48", "--gbs", "32"]
)
assert code == 0, code
loads_nothing("simulate", ready)

from repro.core.api import simulate_fleet
from repro.core.config import DistTrainConfig
from repro.fleet import FleetSpec
from repro.scenarios import ScenarioSpec

ready = repro_modules()
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
loads_nothing("fleet", ready)

from repro.experiments import CampaignRunner, SweepSpec

ready = repro_modules()
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
loads_nothing("campaign", ready)

late = sorted(numpy_modules() - loaded)
assert not late, f"numpy submodules first imported during the runs: {late}"
print("footprint ok")
"""


def _python(code: str) -> str:
    """stdout of ``code`` run in a fresh interpreter on ``src/``."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_runs_import_neither_scipy_nor_networkx():
    assert _python(SCRIPT).rstrip().endswith("footprint ok")


#: Code run in a fresh interpreter -> the modules, and the modules under
#: the packages, it must not load.
LAYERING = {
    "import repro.cli": (
        "repro.fleet", "repro.experiments", "repro.scenarios.engine",
        "repro.scenarios.packs",
    ),
    # Every command builds the parser: --pack's choices load the pack
    # catalog, and the catalog does not load the fleet it builds.
    "import repro.cli; repro.cli.build_parser()": (
        "repro.fleet", "repro.experiments", "repro.scenarios.engine",
    ),
    "import repro.experiments": ("repro.fleet",),
    "import repro.orchestration.plancache": ("repro.experiments",),
}


@pytest.mark.parametrize("code", sorted(LAYERING))
def test_a_module_loads_no_layer_above_it(code):
    loaded = json.loads(_python(
        f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))"
    ))
    above = [
        name for name in loaded
        if any(name == top or name.startswith(top + ".")
               for top in LAYERING[code])
    ]
    assert not above, f"`{code}` loads {above}"


LAZY_NAMES = """
import importlib
import sys
import types

for package in ("repro", "repro.scenarios"):
    star = {}
    exec(f"from {package} import *", star)
    module = sys.modules[package]
    for name in module.__all__:
        value = getattr(module, name)
        assert star[name] is value, (package, name)
        if isinstance(value, (type, types.FunctionType)):
            home = importlib.import_module(value.__module__)
            assert vars(home)[name] is value, (package, name, home)
    try:
        getattr(module, "SweepSpecc")
    except AttributeError as exc:
        assert "'SweepSpecc'" in str(exc), exc
    else:
        raise AssertionError(f"{package}.SweepSpecc resolved")

import repro.scenarios.packs

assert sys.modules["repro.scenarios"].PACKS is repro.scenarios.packs.PACKS
print("lazy names ok")
"""


def test_lazy_names_resolve_to_their_defining_module():
    """Every exported name resolves by attribute and by ``import *`` to
    the object its defining module holds; a typo still raises."""
    assert _python(LAZY_NAMES).rstrip().endswith("lazy names ok")
