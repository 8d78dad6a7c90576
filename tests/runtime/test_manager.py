"""DistTrainManager lifecycle tests (section 3, Figure 8)."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.core import api
from repro.core.config import DistTrainConfig
from repro.runtime.checkpoint import CheckpointConfig
from repro.runtime.manager import DistTrainManager
from repro.scenarios import ScenarioSpec
from tests.training_loop import hex_loop, hex_scenario, training_loop


def _config(cores_per_node):
    """``mllm-9b`` on 128 GPUs at GBS 32, with ``cores_per_node`` cores
    per preprocessing node (1 sizes a 13-node pool, 96 a 1-node one)."""
    config = DistTrainConfig.preset("mllm-9b", 128, 32)
    return config.with_(
        cluster=dataclasses.replace(
            config.cluster, cpu_cores_per_node=cores_per_node
        )
    )


@pytest.fixture(scope="module")
def manager():
    config = DistTrainConfig.preset("mllm-9b", 48, 32, num_iterations=1)
    return DistTrainManager(config)


class TestManagerPhase:
    def test_data_analysis_cached(self, manager):
        profile_a = manager.analyze_data()
        profile_b = manager.analyze_data()
        assert profile_a is profile_b
        assert profile_a.image_tokens > 0

    def test_orchestrate_cached(self, manager):
        assert manager.orchestrate() is manager.orchestrate()

    def test_baseline_system_uses_its_orchestrator(self):
        config = DistTrainConfig.preset(
            "mllm-9b", 48, 32, system="megatron-lm"
        )
        result = DistTrainManager(config).orchestrate()
        assert result.plan.monolithic


class TestInitializerPhase:
    def test_units_cover_disjoint_ranks(self, manager):
        init = manager.initialize()
        ranks = []
        for unit in init.units.values():
            ranks.extend(unit.global_ranks)
        assert len(ranks) == len(set(ranks))
        assert max(ranks) < 48

    def test_brokers_for_both_boundaries(self, manager):
        init = manager.initialize()
        assert set(init.brokers) == {"encoder->llm", "llm->generator"}

    def test_warmup_trials_recorded(self, manager):
        init = manager.initialize()
        assert all(t > 0 for t in init.warmup_trial_seconds.values())

    def test_cpu_pool_sized(self, manager):
        init = manager.initialize()
        assert init.recommended_cpu_nodes >= 1

    def test_describe(self, manager):
        text = manager.initialize().describe()
        assert "unit 'llm'" in text
        assert "broker" in text


class TestRuntimePhase:
    def test_run_produces_metrics(self, manager):
        result = manager.run(num_iterations=1)
        assert result.num_iterations == 1
        assert len(result.iteration_times) == 1
        assert result.mean_mfu > 0.1

    def test_run_with_checkpointing(self):
        config = DistTrainConfig.preset("mllm-9b", 48, 32)
        manager = DistTrainManager(
            config, checkpoint=CheckpointConfig(interval_iterations=1)
        )
        result = manager.run(num_iterations=2)
        assert result.checkpoint_stall_seconds > 0


class TestErrorPaths:
    """Lifecycle misuse and infeasible tasks fail loudly, not weirdly."""

    def test_run_before_initialize_self_initializes(self):
        # run() without an explicit initialize() must drive the full
        # manager -> initializer -> runtime flow itself.
        config = DistTrainConfig.preset("mllm-9b", 48, 32, num_iterations=1)
        manager = DistTrainManager(config)
        assert manager._initialization is None
        result = manager.run(num_iterations=1)
        assert manager._initialization is not None
        assert result.num_iterations == 1
        # The self-initialized report is the cached one: a later
        # explicit initialize() returns the same object.
        assert manager.initialize() is manager._initialization

    def test_infeasible_cluster_raises_from_orchestrate(self):
        # 8 GPUs cannot host the 72B model: the adaptive search finds no
        # feasible candidate and every lifecycle phase surfaces that.
        config = DistTrainConfig.preset("mllm-72b", 8, 8)
        manager = DistTrainManager(config)
        with pytest.raises(RuntimeError, match="no feasible orchestration"):
            manager.orchestrate()
        with pytest.raises(RuntimeError, match="no feasible orchestration"):
            manager.run(num_iterations=1)

    def test_invalid_iteration_count_raises(self, manager):
        with pytest.raises(ValueError, match="num_iterations"):
            manager.run(num_iterations=0)

    def test_run_scenario_runs_lifecycle_first(self):
        config = DistTrainConfig.preset("mllm-9b", 48, 16)
        manager = DistTrainManager(config)
        result = manager.run_scenario(ScenarioSpec(num_iterations=4))
        assert manager._initialization is not None
        assert result.num_iterations == 4

    def test_run_scenario_honors_manager_checkpoint_policy(self):
        # The manager's checkpoint config overrides the scenario's
        # default interval, exactly as it does for run().
        config = DistTrainConfig.preset("mllm-9b", 48, 16)
        spec = ScenarioSpec(num_iterations=6, checkpoint_interval=50)
        without = DistTrainManager(config).run_scenario(spec)
        assert without.checkpoint_stall_seconds == 0.0  # interval 50 > 6
        with_policy = DistTrainManager(
            config, checkpoint=CheckpointConfig(interval_iterations=2)
        ).run_scenario(spec)
        assert with_policy.checkpoint_stall_seconds > 0.0


class TestOnePath:
    """Each phase is the core.api entry point every sweep, scenario and
    fleet uses, not a second copy of it."""

    def test_phases_are_the_api_entry_points(self, manager):
        config = manager.config
        assert manager.analyze_data() is api.profile(config)
        assert manager.orchestrate() is api.replan(
            config, config.cluster.num_gpus
        )

    def test_run_is_a_training_run_on_the_api_builders(self):
        # run() is the zero-event scenario over the full batch stream:
        # hex for hex the per-iteration loop over build_simulator with
        # the sized pool, whether or not a policy checkpoints. Cases:
        # (cores per preprocessing node, iterations, checkpoint interval).
        for cores, iterations, interval in [
            (1, 2, 1), (1, 7, 3), (96, 5, 2), (96, 3, None),
        ]:
            config = _config(cores)
            checkpoint = (
                None
                if interval is None
                else CheckpointConfig(interval_iterations=interval)
            )
            manager = DistTrainManager(config, checkpoint=checkpoint)
            result = manager.run(iterations)
            reference = training_loop(
                config,
                api.build_simulator(
                    config,
                    api.plan(config),
                    cpu_nodes=manager.initialize().recommended_cpu_nodes,
                ),
                iterations,
                checkpoint,
            )
            case = (cores, iterations, interval)
            assert hex_scenario(result) == hex_loop(*reference), case
            assert (result.checkpoint_stall_seconds > 0) == (
                interval is not None
            ), case

    def test_run_prices_the_sized_pool(self):
        # On one-core preprocessing nodes the sized pool keeps up where
        # build_simulator's default of 8 nodes would stall, so run() and
        # a zero-event run_scenario() both differ from simulate_run().
        config = _config(1)
        manager = DistTrainManager(config)
        assert manager.initialize().recommended_cpu_nodes > 8
        result = manager.run(2)
        scenario = manager.run_scenario(
            ScenarioSpec(num_iterations=2, sample_iterations=2)
        )
        assert hex_scenario(scenario) == hex_scenario(result)
        default_pool = api.simulate_run(config.with_(num_iterations=2))
        assert hex_scenario(default_pool)[0] != hex_scenario(result)[0]

    def test_run_and_scenario_solve_one_plan(self):
        # The scenario engine plans the manager's task at the same
        # size, so it must hit the plan the manager put in PLAN_CACHE.
        from repro.obs import METRICS, instrument
        from repro.orchestration.plancache import PLAN_CACHE

        config = DistTrainConfig.preset("mllm-9b", 48, 16)
        PLAN_CACHE.clear()
        api.PROFILE_CACHE.clear()
        manager = DistTrainManager(config)
        with instrument.session(metrics=True):
            manager.run(1)
            manager.run_scenario(ScenarioSpec(num_iterations=4))
            counters = METRICS.snapshot()["counters"]
        assert counters["orch.plans"] == 1

    def test_manager_imported_first_in_a_fresh_interpreter(self):
        script = (
            "import repro.runtime.manager as manager\n"
            "from repro.core.config import DistTrainConfig\n"
            "config = DistTrainConfig.preset('mllm-9b', 48, 16)\n"
            "init = manager.DistTrainManager(config).initialize()\n"
            "print(init.recommended_cpu_nodes)\n"
        )
        src = Path(__file__).resolve().parents[2] / "src"
        env = dict(os.environ)
        env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, env=env, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) >= 1
