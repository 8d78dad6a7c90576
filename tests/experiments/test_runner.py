"""Campaign execution: caching, failure isolation, determinism.

Runner tests use ``processes=1`` (in-process serial execution) so they
stay fast and deterministic; the supervised parallel path is exercised
by the CLI smoke test, the figure benchmarks, and the supervisor suite.
"""

import functools
from dataclasses import dataclass

import pytest

from repro.experiments import (
    Axis,
    CampaignRunner,
    ResultCache,
    SweepSpec,
)
from repro.experiments.runner import (
    TrialRecord,
    derive_trial_seed,
    execute_trial,
)
from repro.experiments.supervisor import SupervisorError

#: A tiny grid every system can run: 2 trials, well under a second each.
TINY = SweepSpec(
    name="tiny",
    axes=[Axis("system", ["disttrain", "megatron-lm"])],
    base={"model": "mllm-9b", "gpus": 32, "gbs": 8},
)


@pytest.fixture
def cache(tmp_path):
    return ResultCache(tmp_path / "cache")


class TestCampaignRunner:
    def test_executes_and_records_metrics(self, cache):
        campaign = CampaignRunner(TINY, cache=cache, processes=1).run()
        assert campaign.executed == 2
        assert campaign.cached == 0
        assert campaign.failed == 0
        for record in campaign.records:
            assert record.ok
            assert 0.0 < record.metrics["mfu"] < 1.0
            assert record.metrics["throughput_tokens_per_s"] > 0
            assert record.config_hash

    def test_second_run_is_pure_cache_hits(self, cache):
        first = CampaignRunner(TINY, cache=cache, processes=1).run()
        assert first.executed == 2
        second = CampaignRunner(TINY, cache=cache, processes=1).run()
        # The acceptance criterion: zero re-simulations on a re-run.
        assert second.executed == 0
        assert second.cached == 2
        assert [r.metrics for r in second.records] == [
            r.metrics for r in first.records
        ]
        assert all(r.cached for r in second.records)

    def test_changed_config_re_executes_only_new_trials(self, cache):
        CampaignRunner(TINY, cache=cache, processes=1).run()
        grown = SweepSpec(
            name="tiny+",
            axes=[Axis("system", ["disttrain", "megatron-lm"]),
                  Axis("seed", [0, 1])],
            base={"model": "mllm-9b", "gpus": 32, "gbs": 8},
        )
        campaign = CampaignRunner(grown, cache=cache, processes=1).run()
        # seed=0 trials match the cached configs; seed=1 are new.
        assert campaign.cached == 2
        assert campaign.executed == 2

    def test_without_cache_always_executes(self):
        campaign = CampaignRunner(TINY, cache=None, processes=1).run()
        assert campaign.executed == 2
        again = CampaignRunner(TINY, cache=None, processes=1).run()
        assert again.executed == 2

    def test_failed_trial_is_isolated(self, cache):
        spec = SweepSpec(
            name="mixed",
            axes=[Axis("frozen", ["full", "not-a-preset"])],
            base={"model": "mllm-9b", "gpus": 32, "gbs": 8},
        )
        campaign = CampaignRunner(spec, cache=cache, processes=1).run()
        assert len(campaign.records) == 2
        assert campaign.failed == 1
        (failure,) = campaign.failures
        assert "not-a-preset" in failure.error
        (success,) = campaign.ok_records
        assert success.metrics["mfu"] > 0

    def test_failures_are_not_cached(self, cache):
        spec = SweepSpec(
            name="failing",
            base={"model": "mllm-9b", "gpus": 32, "gbs": 8,
                  "frozen": "not-a-preset"},
        )
        CampaignRunner(spec, cache=cache, processes=1).run()
        assert len(cache) == 0
        again = CampaignRunner(spec, cache=cache, processes=1).run()
        assert again.failed == 1  # retried, not served from cache

    def test_progress_callback_sees_every_trial(self, cache):
        seen = []
        CampaignRunner(
            TINY, cache=cache, processes=1,
            progress=lambda done, total, record: seen.append(
                (done, total, record.status)
            ),
        ).run()
        assert [s[:2] for s in seen] == [(1, 2), (2, 2)]
        assert all(status == "ok" for _, _, status in seen)

    def test_derive_seeds_distinct_and_stable(self, cache):
        spec = SweepSpec(
            name="seeded",
            axes=[Axis("gpus", [16, 32])],
            base={"model": "mllm-9b", "gbs": 8},
        )
        campaign = CampaignRunner(
            spec, cache=cache, processes=1, derive_seeds=True
        ).run()
        seeds = [record.params["seed"] for record in campaign.records]
        assert len(set(seeds)) == 2
        again = CampaignRunner(
            spec, cache=cache, processes=1, derive_seeds=True
        ).run()
        assert [r.params["seed"] for r in again.records] == seeds
        assert again.executed == 0  # same seeds -> same hashes -> cached

    def test_explicit_seed_wins_over_derivation(self, cache):
        spec = SweepSpec(
            name="explicit",
            base={"model": "mllm-9b", "gpus": 16, "gbs": 8, "seed": 5},
        )
        campaign = CampaignRunner(
            spec, cache=cache, processes=1, derive_seeds=True
        ).run()
        assert campaign.records[0].params["seed"] == 5


class TestWorker:
    def test_execute_trial_never_raises(self):
        index, record = execute_trial(
            (3, {"model": "no-such-model", "gpus": 8, "gbs": 8}, "")
        )
        assert index == 3
        assert record["status"] == "failed"
        assert "no-such-model" in record["error"]

    def test_derive_trial_seed_is_pure(self):
        params = {"model": "mllm-9b", "gpus": 16, "gbs": 8}
        assert derive_trial_seed(params) == derive_trial_seed(dict(params))
        assert derive_trial_seed(params) != derive_trial_seed(
            {**params, "gpus": 32}
        )


class TestAcceptance:
    def test_twelve_trial_grid_parallel_then_pure_cache(self, cache):
        """2 models x 2 systems x 3 cluster sizes: the first run executes
        all 12 trials in parallel; an immediate re-run is pure cache hits
        with zero re-simulations."""
        spec = SweepSpec.grid(
            models=["mllm-9b", "mllm-15b"],
            systems=["disttrain", "megatron-lm"],
            gpus=[32, 48, 64],
            gbs=8,
            name="acceptance",
        )
        assert spec.num_trials == 12

        first = CampaignRunner(spec, cache=cache).run()  # parallel workers
        assert first.executed == 12
        assert first.failed == 0

        second = CampaignRunner(spec, cache=cache).run()
        assert second.executed == 0
        assert second.cached == 12
        assert second.failed == 0


class TestParallelPath:
    def test_pool_execution_matches_serial(self, tmp_path):
        serial = CampaignRunner(TINY, cache=None, processes=1).run()
        parallel = CampaignRunner(TINY, cache=None, processes=2).run()
        assert parallel.executed == 2
        assert [r.params for r in parallel.records] == [
            r.params for r in serial.records
        ]

        def deterministic(record):
            # solve_seconds is wall-clock time, not a simulated quantity.
            return {k: v for k, v in record.metrics.items()
                    if k != "solve_seconds"}

        assert [deterministic(r) for r in parallel.records] == [
            deterministic(r) for r in serial.records
        ]


class _FailingExecutor:
    """Stands in for ``SupervisedExecutor``: delivers the first
    ``deliver`` trials, then fails like workers that cannot start."""

    def __init__(self, workers, deliver, **kwargs):
        self.deliver = deliver
        self.interrupted = False

    def run(self, pending):
        for payload in list(pending)[: self.deliver]:
            yield execute_trial(payload)
        raise SupervisorError("cannot start supervised worker")


class TestSupervisorFallback:
    """A ``SupervisorError`` finishes the remaining run serially."""

    def _run(self, monkeypatch, spec, deliver):
        from repro.experiments import runner as runner_module

        monkeypatch.setattr(
            runner_module, "SupervisedExecutor",
            functools.partial(_FailingExecutor, deliver=deliver),
        )
        return CampaignRunner(spec, cache=None, processes=2).run()

    def test_startup_failure_falls_back_to_serial(self, monkeypatch):
        campaign = self._run(monkeypatch, TINY, deliver=0)
        assert campaign.executed == 2
        assert campaign.failed == 0
        assert not campaign.interrupted

    def test_mid_stream_failure_completes_without_duplicates(
        self, monkeypatch
    ):
        spec = SweepSpec(
            name="fallback",
            axes=[Axis("system", ["disttrain", "megatron-lm"]),
                  Axis("gpus", [32, 48])],
            base={"model": "mllm-9b", "gbs": 8},
        )
        campaign = self._run(monkeypatch, spec, deliver=1)
        # The trial delivered before the failure is not re-executed, and
        # every remaining trial completes exactly once.
        assert campaign.executed == 4
        assert len(campaign.records) == 4
        assert campaign.failed == 0
        hashes = [r.config_hash for r in campaign.records]
        assert len(set(hashes)) == 4


class TestTrialRecordDict:
    def test_every_field_but_the_runtime_flags_in_order(self):
        """A field a subclass adds is serialized, last, with no more
        code; the runtime-only ``cached`` and ``resumed`` never are."""

        @dataclass
        class TaggedRecord(TrialRecord):
            tag: str = ""

        record = TaggedRecord(
            params={"model": "mllm-9b"}, config_hash="k", status="ok",
            metrics={"mfu": 0.5}, cached=True, resumed=True, tag="added",
        )
        assert list(record.to_dict().items()) == [
            ("params", {"model": "mllm-9b"}),
            ("config_hash", "k"),
            ("status", "ok"),
            ("metrics", {"mfu": 0.5}),
            ("error", ""),
            ("traceback", ""),
            ("elapsed_seconds", 0.0),
            ("tag", "added"),
        ]

    def test_plain_trial_metrics_keep_their_keys_and_order(self):
        _, record = execute_trial(
            (0, {"model": "mllm-9b", "gpus": 32, "gbs": 8}, "key")
        )
        assert list(record["metrics"]) == [
            "iteration_time", "pipeline_time", "dp_sync_time",
            "preprocess_overhead", "optimizer_time", "model_flops",
            "num_gpus", "mfu", "throughput_tokens_per_s", "bubble_fraction",
            "straggler_spread", "solve_seconds", "planned_pipeline_time",
        ]


class TestTrialRecordTraceback:
    def test_failed_trial_carries_trimmed_traceback(self, cache):
        spec = SweepSpec(
            name="failing",
            base={"model": "mllm-9b", "gpus": 32, "gbs": 8,
                  "frozen": "not-a-preset"},
        )
        campaign = CampaignRunner(spec, cache=cache, processes=1).run()
        (failure,) = campaign.failures
        assert "Traceback" in failure.traceback
        assert failure.traceback.splitlines()[-1] in failure.error or (
            failure.error in failure.traceback
        )
        assert failure.to_dict()["traceback"] == failure.traceback

    def test_ok_trial_has_empty_traceback(self, cache):
        campaign = CampaignRunner(TINY, cache=cache, processes=1).run()
        assert all(r.traceback == "" for r in campaign.records)

    def test_trim_keeps_the_raising_frame(self):
        from repro.experiments.runner import trim_traceback

        def deep(n):
            if n == 0:
                raise ValueError("bottom of the stack")
            deep(n - 1)

        try:
            deep(60)
        except ValueError as exc:
            text = trim_traceback(exc, limit=10)
        lines = text.splitlines()
        assert len(lines) == 11  # 10 kept + the trim marker
        assert "trimmed" in lines[0]
        assert "bottom of the stack" in lines[-1]
