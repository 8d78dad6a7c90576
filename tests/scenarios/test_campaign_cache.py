"""Campaign-cache regression tests for scenario trials.

The contract: a trial's cache key covers the *fully resolved* scenario
configuration — any ScenarioSpec change produces a new key (the trial
re-executes), while an unchanged configuration hits the cache even from
a different process.
"""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import (
    SCENARIO_PARAMS,
    Axis,
    CampaignRunner,
    ResultCache,
    SweepSpec,
    TrialSpec,
)
from repro.scenarios.spec import PARAM_FIELDS

BASE = {"model": "mllm-9b", "gpus": 48, "gbs": 16}
SCENARIO = {**BASE, "scenario_iterations": 40, "mtbf": 30.0}


class TestCacheKeys:
    def test_scenario_params_match_spec_mapping(self):
        # The experiment layer's literal must stay in sync with the
        # scenario package's sweep-parameter mapping.
        assert set(SCENARIO_PARAMS) == set(PARAM_FIELDS)

    def test_plain_trial_key_unchanged_by_scenario_support(self):
        # Plain trials keep the pure task-config hash, so pre-existing
        # cache entries stay valid.
        trial = TrialSpec(BASE)
        assert trial.cache_key == trial.config_hash

    def test_scenario_trial_key_differs_from_plain(self):
        assert TrialSpec(SCENARIO).cache_key != TrialSpec(BASE).cache_key

    @pytest.mark.parametrize("change", [
        {"scenario_iterations": 41},
        {"mtbf": 31.0},
        {"straggler_rate": 0.05},
        {"straggler_slowdown": 2.0},
        {"straggler_iterations": 7},
        {"elastic": True},
        {"checkpoint_interval": 10},
        {"failure_seed": 1},
        {"events": [{"kind": "failure", "time_s": 5.0, "gpus_lost": 8}]},
    ])
    def test_any_scenario_change_makes_new_key(self, change):
        base_key = TrialSpec(SCENARIO).cache_key
        changed = TrialSpec({**SCENARIO, **change})
        assert changed.cache_key != base_key
        # ... while the task config itself is untouched.
        assert changed.config_hash == TrialSpec(SCENARIO).config_hash

    def test_unchanged_scenario_key_is_stable(self):
        assert (
            TrialSpec(dict(SCENARIO)).cache_key
            == TrialSpec(dict(SCENARIO)).cache_key
        )

    def test_task_change_also_makes_new_key(self):
        assert (
            TrialSpec({**SCENARIO, "gbs": 32}).cache_key
            != TrialSpec(SCENARIO).cache_key
        )


_RERUN_SNIPPET = """
import sys
from repro.experiments import Axis, CampaignRunner, ResultCache, SweepSpec

spec = SweepSpec(
    base={{"model": "mllm-9b", "gpus": 48, "gbs": 16,
           "scenario_iterations": 40}},
    axes=[Axis("mtbf", [20.0, 60.0])],
    name="cross-process",
)
campaign = CampaignRunner(
    spec, cache=ResultCache({cache_dir!r}), processes=1
).run()
assert campaign.failed == 0, campaign.records
print(f"executed={{campaign.executed}} cached={{campaign.cached}}")
"""


class TestCrossProcessCache:
    def test_unchanged_scenario_config_hits_cache_across_processes(
        self, tmp_path
    ):
        """A second campaign in a *fresh interpreter* must complete
        entirely from the on-disk cache."""
        cache_dir = str(tmp_path / "cache")
        spec = SweepSpec(
            base={**BASE, "scenario_iterations": 40},
            axes=[Axis("mtbf", [20.0, 60.0])],
            name="cross-process",
        )
        first = CampaignRunner(
            spec, cache=ResultCache(cache_dir), processes=1
        ).run()
        assert first.failed == 0
        assert first.executed == 2 and first.cached == 0

        src = Path(__file__).resolve().parents[2] / "src"
        # -B: the minimal environment drops any PYTHONDONTWRITEBYTECODE,
        # and .pyc files written into src/ would speed up every later
        # import there (perfbench's setup_s among them).
        proc = subprocess.run(
            [
                sys.executable,
                "-B",
                "-c",
                _RERUN_SNIPPET.format(cache_dir=cache_dir),
            ],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert "executed=0 cached=2" in proc.stdout

    def test_scenario_sweep_produces_scenario_metrics(self, tmp_path):
        spec = SweepSpec(
            base={**BASE, "scenario_iterations": 30},
            axes=[Axis("mtbf", [25.0]), Axis("elastic", [False, True])],
            name="metrics",
        )
        campaign = CampaignRunner(
            spec, cache=ResultCache(str(tmp_path / "c")), processes=1
        ).run()
        assert campaign.failed == 0
        frame = campaign.frame().ok()
        assert len(frame) == 2
        for row in frame:
            assert 0 < row["goodput"] <= 1.0
            assert "recovery_seconds" in row
            assert row["mtbf"] == 25.0
        # Scenario params round-trip through the frame's record layout.
        records = frame.to_records()
        assert all(
            "mtbf" in record["params"] and "elastic" in record["params"]
            for record in records
        )
