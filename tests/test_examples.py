"""Smoke tests: every shipped example must run end-to-end.

Examples are part of the public surface; these tests import each one and
execute its ``main()`` so refactors cannot silently break them. The list
must name every file in ``examples/``, so a new example is run too.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"

EXAMPLES = [
    "quickstart",
    "data_reordering_demo",
    "heterogeneous_hardware",
    "moe_expert_parallelism",
    "campaign_sweep",
    "scenario_dynamics",
    "fleet_contention",
    "orchestration_planner",
    "frozen_training_phases",
]


def load_example(name: str):
    path = EXAMPLES_DIR / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"examples.{name}", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs(name, capsys):
    module = load_example(name)
    module.main()
    out = capsys.readouterr().out
    assert len(out) > 100  # produced a real report


def test_examples_directory_complete():
    shipped = {p.stem for p in EXAMPLES_DIR.glob("*.py")}
    assert shipped == set(EXAMPLES)
