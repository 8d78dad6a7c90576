"""Sweep expansion and config hashing."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core.config import DistTrainConfig
from repro.experiments.spec import (
    Axis,
    SweepSpec,
    TrialSpec,
    ZippedAxes,
    canonical_json,
    config_hash,
)
from repro.pipeline.schedules import ScheduleKind


class TestAxis:
    def test_assignments(self):
        axis = Axis("model", ["mllm-9b", "mllm-15b"])
        assert axis.assignments() == [
            {"model": "mllm-9b"}, {"model": "mllm-15b"}
        ]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Axis("model", [])

    def test_zipped_lockstep(self):
        zipped = ZippedAxes([Axis("gpus", [16, 32]), Axis("gbs", [8, 16])])
        assert zipped.assignments() == [
            {"gpus": 16, "gbs": 8}, {"gpus": 32, "gbs": 16}
        ]

    def test_zipped_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="equal lengths"):
            ZippedAxes([Axis("gpus", [16, 32]), Axis("gbs", [8])])


class TestSweepSpec:
    def test_grid_expansion(self):
        spec = SweepSpec(
            axes=[
                Axis("model", ["mllm-9b", "mllm-15b"]),
                Axis("system", ["disttrain", "megatron-lm"]),
                Axis("gpus", [16, 32, 64]),
            ],
            base={"gbs": 32},
        )
        trials = spec.expand()
        assert spec.num_trials == len(trials) == 12
        # Every combination appears exactly once.
        combos = {
            (t["model"], t["system"], t["gpus"]) for t in trials
        }
        assert len(combos) == 12
        assert all(t["gbs"] == 32 for t in trials)

    def test_zipped_axis_in_grid(self):
        spec = SweepSpec(
            axes=[
                Axis("model", ["mllm-9b"]),
                ZippedAxes([
                    Axis("gpus", [16, 32]), Axis("gbs", [8, 16]),
                ]),
            ],
        )
        pairs = [(t["gpus"], t["gbs"]) for t in spec.expand()]
        assert pairs == [(16, 8), (32, 16)]  # no cross product

    def test_duplicate_axis_rejected(self):
        with pytest.raises(ValueError, match="more than one axis"):
            SweepSpec(axes=[Axis("gpus", [8]), Axis("gpus", [16])])

    def test_expansion_order_deterministic(self):
        spec = SweepSpec.grid(
            models=["mllm-9b", "mllm-15b"],
            systems=["disttrain"],
            gpus=[16, 32],
            gbs=8,
        )
        assert [t.params for t in spec.expand()] == [
            t.params for t in spec.expand()
        ]

    def test_grid_helper_zips_gbs_per_cluster(self):
        spec = SweepSpec.grid(
            models=["mllm-9b"], systems=["disttrain"],
            gpus=[16, 32], gbs=[8, 16],
        )
        pairs = [(t["gpus"], t["gbs"]) for t in spec.expand()]
        assert pairs == [(16, 8), (32, 16)]


class TestTrialSpec:
    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep parameters"):
            TrialSpec({"model": "mllm-9b", "gpus": 8, "gbs": 8, "nope": 1})

    def test_missing_required_rejected(self):
        with pytest.raises(ValueError, match="required"):
            TrialSpec({"model": "mllm-9b"})

    def test_to_config(self):
        trial = TrialSpec({
            "model": "mllm-9b", "gpus": 16, "gbs": 8,
            "system": "megatron-lm", "frozen": "llm-only",
            "schedule": "gpipe", "seed": 7, "vpp": 2,
        })
        config = trial.to_config()
        assert config.cluster.num_gpus == 16
        assert config.global_batch_size == 8
        assert config.system == "megatron-lm"
        assert config.schedule is ScheduleKind.GPIPE
        assert config.data_seed == 7
        assert config.vpp == 2
        assert not config.frozen.train_encoder
        assert config.frozen.train_llm

    def test_fleet_workers_rejected(self):
        """Fleets run in one process; a sweep still passing the removed
        ``fleet_workers`` parameter fails like any unknown one."""
        spec = SweepSpec.grid(
            models=["mllm-9b"], systems=["disttrain"], gpus=[96], gbs=16,
            fleet_policy="fifo", fleet_jobs=2, fleet_job_gpus=48,
            scenario_iterations=10, fleet_workers=2,
        )
        with pytest.raises(ValueError, match="unknown sweep parameters"):
            spec.expand()


class TestConfigHash:
    def _config(self, **kwargs) -> DistTrainConfig:
        return DistTrainConfig.preset("mllm-9b", 16, 8, **kwargs)

    def test_equal_configs_hash_equal(self):
        assert config_hash(self._config()) == config_hash(self._config())

    def test_any_field_changes_hash(self):
        base = config_hash(self._config())
        assert config_hash(self._config(system="megatron-lm")) != base
        assert config_hash(self._config(data_seed=1)) != base
        assert config_hash(self._config(vpp=2)) != base
        assert config_hash(
            DistTrainConfig.preset("mllm-9b", 16, 16)
        ) != base

    def test_memoized_hash_equals_fresh_computation(self):
        import hashlib

        from repro.experiments.spec import HASH_LENGTH

        config = self._config()
        fresh = hashlib.sha256(
            canonical_json(config).encode("utf-8")
        ).hexdigest()[:HASH_LENGTH]
        assert config_hash(config) == fresh
        assert config_hash(config) == fresh  # served from the memo

    def test_equal_distinct_configs_share_a_hash(self):
        first, second = self._config(), self._config()
        assert first is not second
        assert config_hash(first) == config_hash(second)

    def test_with_copy_gets_its_own_hash(self):
        config = self._config()
        base = config_hash(config)
        changed = config.with_(data_seed=config.data_seed + 1)
        assert config_hash(changed) != base
        assert config_hash(config.with_()) == base
        assert config_hash(config) == base

    def test_memo_ignores_an_entry_under_a_reused_id(self, monkeypatch):
        from repro.experiments import spec as spec_module

        config = self._config(data_seed=7)
        stranger = self._config()
        monkeypatch.setitem(
            spec_module._HASH_MEMO, id(config), (stranger, "stale")
        )
        assert config_hash(config) != "stale"

    def test_memo_is_bounded(self):
        from repro.experiments import spec as spec_module

        base = self._config()
        for seed in range(spec_module._HASH_MEMO_SIZE + 10):
            config_hash(base.with_(data_seed=seed))
        assert len(spec_module._HASH_MEMO) <= spec_module._HASH_MEMO_SIZE

    def test_canonical_json_is_sorted_and_compact(self):
        text = canonical_json(self._config())
        assert " " not in text
        assert text.index('"cluster"') < text.index('"system"')

    def test_hash_stable_across_process_restarts(self):
        """The cache key must not depend on interpreter state."""
        here = config_hash(self._config())
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        # PYTHONHASHSEED differs per process by default — the content
        # hash must not notice.
        env["PYTHONHASHSEED"] = "random"
        script = (
            "from repro.core.config import DistTrainConfig\n"
            "from repro.experiments.spec import config_hash\n"
            "print(config_hash(DistTrainConfig.preset('mllm-9b', 16, 8)))\n"
        )
        fresh = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.strip()
        assert fresh == here

    def test_trial_spec_hash_matches_config_hash(self):
        trial = TrialSpec({"model": "mllm-9b", "gpus": 16, "gbs": 8})
        assert trial.config_hash == config_hash(self._config())


class TestCacheKeyValues:
    """Cache keys are content hashes that must not move unless a trial's
    resolved config, scenario or fleet does: a moved key re-executes
    every cached trial of its kind, so a change to how a record
    canonicalizes must leave these values as they are."""

    @pytest.mark.parametrize(
        "params, key",
        [
            (
                {"model": "mllm-9b", "gpus": 48, "gbs": 16},
                "7282bc25f1bdc63b187c",
            ),
            (
                {
                    "model": "mllm-9b", "gpus": 48, "gbs": 16,
                    "scenario_iterations": 40, "mtbf": 5.0,
                    "events": [
                        {"kind": "failure", "time_s": 20.0, "gpus_lost": 8}
                    ],
                },
                "aa54fc07d0a28e4beafe",
            ),
            (
                {
                    "model": "mllm-9b", "gpus": 96, "gbs": 16,
                    "fleet_jobs": 3, "fleet_pack": "blast-radius",
                    "scenario_iterations": 30,
                },
                "72e946ad37e66b9ac9c0",
            ),
            (
                {
                    "model": "mllm-9b", "system": "disttrain", "gpus": 96,
                    "gbs": 16, "vpp": 1, "frozen": "full",
                    "fleet_arrival_spacing": 40.0,
                    "fleet_priorities": (0, 1), "fleet_job_gpus": 48,
                    "fleet_jobs": 2, "fleet_policy": "fifo",
                },
                "f9d13b449c10ea9ca09b",
            ),
        ],
        ids=["plain", "scenario-with-trace", "fleet-with-pack",
             "fleet-homogeneous"],
    )
    def test_cache_key_is_pinned(self, params, key):
        assert TrialSpec(params).cache_key == key
