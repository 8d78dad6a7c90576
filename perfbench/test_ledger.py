"""Self-test of the outside-in layer ledger.

Run from the repository root::

    python3 -m pytest perfbench -q

The unit tests drive the ledger over a throwaway package whose layout
mirrors the traps in ``repro`` (a function imported by name into a
second module, one imported lazily, a subclass override, a
classmethod). The workload tests trace each benchmark workload once in
a fresh process and check that every layer is reached on the workloads
``ledger.PREDICTIONS`` says it should move on.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import ledger  # noqa: E402
import workloads  # noqa: E402

FAKE = {
    "__init__.py": "",
    "core.py": """
        import time

        def inner(n):
            time.sleep(0.02)
            return n

        def outer(n):
            time.sleep(0.01)
            return inner(n) + inner(n)

        class Base:
            def work(self):
                return inner(1)

        class Child(Base):
            def work(self):
                return 2 * inner(1)

        class Maker:
            @classmethod
            def make(cls, n):
                return outer(n)
    """,
    "user.py": """
        from fakepkg.core import inner

        def by_name():
            return inner(3)

        def lazily():
            from fakepkg.core import outer
            return outer(4)
    """,
}

FAKE_LAYERS = {
    "outer": [("fakepkg.core:outer", None), ("fakepkg.core:Maker.make", None)],
    "inner": [("fakepkg.core:inner", ledger._one)],
    "work": [("fakepkg.core:Base.work", None)],
}


@pytest.fixture
def fakepkg(tmp_path):
    root = tmp_path / "fakepkg"
    root.mkdir()
    for name, body in FAKE.items():
        (root / name).write_text(textwrap.dedent(body))
    sys.path.insert(0, str(tmp_path))
    try:
        yield importlib.import_module("fakepkg")
    finally:
        sys.path.remove(str(tmp_path))
        for name in [m for m in sys.modules if m.startswith("fakepkg")]:
            del sys.modules[name]


def test_wrappers_sit_where_callers_look_names_up(fakepkg):
    from fakepkg import core, user

    originals = {
        "core.inner": core.inner,
        "user.inner": user.inner,
        "core.outer": core.outer,
        "Base.work": core.Base.__dict__["work"],
        "Child.work": core.Child.__dict__["work"],
        "Maker.make": core.Maker.__dict__["make"],
    }
    with ledger.Ledger(FAKE_LAYERS, package="fakepkg") as book:
        assert user.inner is core.inner is not originals["core.inner"]
        assert core.Child.__dict__["work"] is not originals["Child.work"]
        assert isinstance(core.Maker.__dict__["make"], classmethod)
        assert user.by_name() == 3
        assert user.lazily() == 8
        assert core.Child().work() == 2
        assert core.Maker.make(1) == 2
    assert book.layer("inner")[0] == 1 + 2 + 1 + 2
    assert book.layer("inner")[2] == book.layer("inner")[0]
    assert book.layer("outer")[0] == 2  # make -> outer is one entry
    assert book.layer("work")[0] == 1

    after = {
        "core.inner": core.inner,
        "user.inner": user.inner,
        "core.outer": core.outer,
        "Base.work": core.Base.__dict__["work"],
        "Child.work": core.Child.__dict__["work"],
        "Maker.make": core.Maker.__dict__["make"],
    }
    assert after == originals
    assert all(
        owner.__dict__[attr] is original
        for owner, attr, original in book._patches
    )


def test_self_time_excludes_nested_layers(fakepkg):
    from fakepkg import core

    with ledger.Ledger(FAKE_LAYERS, package="fakepkg") as book:
        start = time.perf_counter()
        core.outer(1)
        wall = time.perf_counter() - start
    _, outer_self, _ = book.layer("outer")
    _, inner_self, _ = book.layer("inner")
    assert 0.04 <= inner_self < 0.04 + 0.05
    assert 0.01 <= outer_self < 0.01 + 0.05
    assert inner_self + outer_self == pytest.approx(wall, abs=2e-3)


def test_failed_install_restores_everything(fakepkg):
    from fakepkg import core

    original = core.inner
    layers = dict(FAKE_LAYERS, bad=[("fakepkg.core:NoSuchClass.work", None)])
    with pytest.raises(AttributeError):
        ledger.Ledger(layers, package="fakepkg").install()
    assert core.inner is original


def test_every_repro_target_resolves():
    book = ledger.Ledger().install()
    try:
        from repro.core import api
        from repro.experiments import spec
        from repro.fleet import job
        from repro.orchestration import plancache

        assert api.planning_signature is job.planning_signature
        assert job.planning_signature is plancache.planning_signature
        assert hasattr(plancache.planning_signature, "__wrapped__")
        assert hasattr(spec.config_hash, "__wrapped__")
        wrapped = {target for target in book.functions}
        declared = {t for targets in ledger.LAYERS.values() for t, _ in targets}
        assert wrapped == declared
    finally:
        book.uninstall()
    assert not hasattr(plancache.planning_signature, "__wrapped__")


def test_predictions_cover_the_declared_per_layer_metrics():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = [m["name"] for m in bench["per_layer"]]
    predicted = [m for row in ledger.PREDICTIONS for m in row["metrics"]]
    assert sorted(predicted) == sorted(declared)
    workload_names = {w["name"] for w in bench["workloads"]}
    assert workload_names == set(workloads.NAMES)
    for row in ledger.PREDICTIONS:
        assert set(row["on"]) | set(row["flat_on"]) <= workload_names


def traced(workload: str, workdir: Path) -> dict:
    """Layer metrics of one traced cold call in a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "--workload", workload,
         "--seed", str(workloads.DEFAULT_SEED), "--workdir", str(workdir),
         "--spawned", repr(time.monotonic()), "--mode", "traced"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    )
    assert proc.returncode == 0, proc.stderr[-4000:]
    sample = json.loads(proc.stdout.strip().splitlines()[-1])
    reference = json.loads((HERE / "reference.json").read_text())
    # The wrappers must not perturb results.
    assert sample["digest"] == reference[workload]["sha256"]
    return sample["layers"]


@pytest.fixture(scope="module")
def layers(tmp_path_factory):
    return {
        name: traced(name, tmp_path_factory.mktemp(name))
        for name in workloads.NAMES
    }


def _is_count(metric: str) -> bool:
    return metric.rsplit(".", 1)[-1] in ("calls", "signature_calls",
                                        "samples", "trials", "rows")


def test_every_layer_is_reached_where_it_should_move(layers):
    for row in ledger.PREDICTIONS:
        counts = [m for m in row["metrics"] if _is_count(m)] or [
            m for m in row["metrics"] if m.endswith("self_s")
        ]
        for metric in counts:
            for workload in row["on"]:
                assert layers[workload][metric] > 0, (metric, workload)


def test_paper_sweep_runs_no_fleet_layer(layers):
    sweep = layers["paper-sweep"]
    assert sweep["fleet.job.calls"] == 0
    assert sweep["fleet.policies.calls"] == 0
    assert sweep["fleet.engine.self_s"] == 0.0


def test_self_times_and_unattributed_add_up_to_the_wall(layers):
    for workload, metrics in layers.items():
        self_times = [
            value for name, value in metrics.items()
            if name.endswith(".self_s")
        ]
        assert len(self_times) == len(ledger.LAYERS)
        assert all(value >= 0.0 for value in self_times)
        total = sum(self_times) + metrics["unattributed_s"]
        assert total == pytest.approx(metrics["traced_wall_s"], rel=1e-9)
        # Nearly all the time is inside some wrapped layer.
        assert metrics["unattributed_s"] < 0.05 * metrics["traced_wall_s"]
