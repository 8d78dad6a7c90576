"""Supervised campaign execution under injected faults.

These tests run the *production* dispatch/collect machinery against real
forked workers and use the chaos harness
(:mod:`repro.experiments.chaos`) to kill, hang, and stall them
mid-trial. They are the acceptance battery for the supervision layer:
transients retried, poison quarantined, timeouts enforced, interrupts
drained, and interrupted campaigns resumed to the same record set.
"""

import os
import signal
import time

import pytest

from repro.experiments import (
    Axis,
    CampaignRunner,
    RetryPolicy,
    SupervisedExecutor,
    SweepSpec,
)
from repro.experiments import chaos

#: Fast retry policy for tests: same semantics, no multi-second backoff.
FAST_RETRY = RetryPolicy(
    max_attempts=3, backoff_seconds=0.01, backoff_cap_seconds=0.05,
    poison_after=2,
)

TINY = SweepSpec(
    name="supervised-tiny",
    axes=[Axis("system", ["disttrain", "megatron-lm"])],
    base={"model": "mllm-9b", "gpus": 32, "gbs": 8},
)

FOUR = SweepSpec(
    name="supervised-four",
    axes=[
        Axis("system", ["disttrain", "megatron-lm"]),
        Axis("gpus", [32, 48]),
    ],
    base={"model": "mllm-9b", "gbs": 8},
)


@pytest.fixture(autouse=True)
def clean_chaos():
    yield
    chaos.uninstall()


def pending_for(spec):
    from repro.experiments.spec import TrialSpec

    return [
        (index, dict(trial.params), TrialSpec(trial.params).cache_key)
        for index, trial in enumerate(spec.expand())
    ]


def run_supervised(spec, **kwargs):
    kwargs.setdefault("retry", FAST_RETRY)
    executor = SupervisedExecutor(workers=2, **kwargs)
    results = dict(executor.run(pending_for(spec)))
    return executor, results


class TestRetryPolicy:
    def test_backoff_is_capped_exponential(self):
        policy = RetryPolicy(
            backoff_seconds=0.1, backoff_cap_seconds=0.35
        )
        assert policy.backoff(1) == pytest.approx(0.1)
        assert policy.backoff(2) == pytest.approx(0.2)
        assert policy.backoff(3) == pytest.approx(0.35)  # capped

    def test_zero_backoff_disables_waiting(self):
        assert RetryPolicy(backoff_seconds=0.0).backoff(5) == 0.0

    def test_invalid_policies_rejected(self):
        with pytest.raises(ValueError):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError):
            RetryPolicy(poison_after=0)
        with pytest.raises(ValueError):
            RetryPolicy(backoff_seconds=-1.0)


class TestFaultFree:
    def test_matches_serial_execution(self):
        serial = CampaignRunner(TINY, cache=None, processes=1).run()
        _, results = run_supervised(TINY)
        assert len(results) == 2
        for index, record in enumerate(
            r.to_dict() for r in serial.records
        ):
            supervised = dict(results[index])
            for volatile in ("elapsed_seconds",):
                record.pop(volatile)
                supervised.pop(volatile)
            record["metrics"].pop("solve_seconds", None)
            supervised["metrics"].pop("solve_seconds", None)
            assert supervised == record


class TestWorkerDeath:
    def test_killed_worker_retried_on_fresh_worker(self):
        # Trial 0's first attempt SIGKILLs its worker; the retry runs
        # clean on a respawned worker and the campaign loses nothing.
        chaos.install([
            chaos.ChaosRule("kill", match={"index": 0}, times=1)
        ])
        executor, results = run_supervised(TINY)
        assert not executor.interrupted
        assert len(results) == 2
        assert all(r["status"] == "ok" for r in results.values())

    def test_abrupt_exit_is_attributed_and_retried(self):
        chaos.install([
            chaos.ChaosRule("exit", match={"index": 1}, times=1, code=7)
        ])
        _, results = run_supervised(TINY)
        assert all(r["status"] == "ok" for r in results.values())

    def test_poison_trial_is_quarantined(self):
        # Trial 0 kills every worker it touches: after poison_after=2
        # crashes it must be quarantined, and the other trials survive.
        chaos.install([
            chaos.ChaosRule("kill", match={"index": 0}, times=-1)
        ])
        _, results = run_supervised(FOUR)
        assert len(results) == 4
        assert results[0]["status"] == "poisoned"
        assert "poison" in results[0]["error"]
        assert all(
            results[i]["status"] == "ok" for i in (1, 2, 3)
        )

    def test_worker_death_exhausting_attempts_is_failed(self):
        chaos.install([
            chaos.ChaosRule("kill", match={"index": 0}, times=-1)
        ])
        retry = RetryPolicy(
            max_attempts=2, backoff_seconds=0.01, poison_after=5
        )
        _, results = run_supervised(TINY, retry=retry)
        assert results[0]["status"] == "failed"
        assert "worker died" in results[0]["error"]


class TestTimeouts:
    def test_hung_trial_times_out_and_is_recorded(self):
        chaos.install([
            chaos.ChaosRule(
                "hang", match={"index": 0}, times=-1, seconds=30.0
            )
        ])
        retry = RetryPolicy(
            max_attempts=2, backoff_seconds=0.01, poison_after=5
        )
        _, results = run_supervised(TINY, timeout=0.75, retry=retry)
        assert results[0]["status"] == "timed-out"
        assert "timeout" in results[0]["error"]
        assert results[1]["status"] == "ok"

    def test_transient_hang_is_retried_to_success(self):
        chaos.install([
            chaos.ChaosRule(
                "hang", match={"index": 0}, times=1, seconds=30.0
            )
        ])
        _, results = run_supervised(TINY, timeout=0.75)
        assert all(r["status"] == "ok" for r in results.values())


    def test_one_worker_with_a_timeout_is_supervised(self):
        """One worker and a timeout still run under supervision: the
        hung first attempt is killed at the timeout and retried, not
        waited out in this process and recorded as failed."""
        chaos.install([
            chaos.ChaosRule(
                "hang", match={"index": 0}, times=1, seconds=8.0
            )
        ])
        start = time.monotonic()
        campaign = CampaignRunner(
            TINY, cache=None, processes=1, timeout=0.75, retry=FAST_RETRY,
        ).run()
        assert [r.status for r in campaign.records] == ["ok", "ok"]
        assert time.monotonic() - start < 8.0


class TestHeartbeat:
    def test_stalled_worker_is_killed_and_trial_retried(self):
        # SIGSTOP freezes the worker without killing it: no per-trial
        # timeout is set, so only heartbeat staleness can catch it.
        chaos.install([
            chaos.ChaosRule("stall", match={"index": 0}, times=1)
        ])
        _, results = run_supervised(
            TINY, heartbeat_timeout=0.8, heartbeat_interval=0.05
        )
        assert all(r["status"] == "ok" for r in results.values())


class TestInterrupt:
    def test_sigint_drains_and_resume_completes(self, tmp_path):
        jdir = tmp_path / "journal"
        fired = []

        def interrupt_once(done, total, record):
            if not fired:
                fired.append(True)
                os.kill(os.getpid(), signal.SIGINT)

        first = CampaignRunner(
            FOUR, cache=None, processes=2, retry=FAST_RETRY,
            journal_dir=jdir, progress=interrupt_once,
        ).run()
        assert first.interrupted
        # Dispatch stopped after the signal: with 2 workers at most the
        # 2 in-flight trials drained on top of the one already done.
        assert len(first.records) < 4

        resumed = CampaignRunner(
            FOUR, cache=None, processes=2, retry=FAST_RETRY,
            journal_dir=jdir, resume=True,
        ).run()
        assert not resumed.interrupted
        assert len(resumed.records) == 4
        assert resumed.resumed == len(first.records)
        assert resumed.resumed + resumed.executed == 4

        # Acceptance: the interrupted+resumed campaign converges on the
        # same records an uninterrupted run produces.
        reference = CampaignRunner(FOUR, cache=None, processes=1).run()

        def stable(record):
            data = record.to_dict()
            data.pop("elapsed_seconds")
            data["metrics"].pop("solve_seconds", None)
            return data

        assert [stable(r) for r in resumed.records] == [
            stable(r) for r in reference.records
        ]

    def test_fresh_run_truncates_stale_journal(self, tmp_path):
        jdir = tmp_path / "journal"
        kwargs = dict(cache=None, processes=1, journal_dir=jdir)
        CampaignRunner(FOUR, **kwargs).run()
        # Without --resume the journal restarts; nothing is replayed.
        again = CampaignRunner(FOUR, **kwargs).run()
        assert again.resumed == 0
        assert again.executed == 4


class TestRunnerIntegration:
    def test_supervised_faults_do_not_reach_cache(self, tmp_path):
        # Poisoned/timed-out records are journaled but never cached, so
        # a later healthy run re-executes them.
        from repro.experiments import ResultCache

        chaos.install([
            chaos.ChaosRule("kill", match={"index": 0}, times=-1)
        ])
        cache = ResultCache(tmp_path / "cache")
        first = CampaignRunner(
            TINY, cache=cache, processes=2, retry=FAST_RETRY,
        ).run()
        assert first.records[0].status == "poisoned"
        assert first.records[1].ok
        assert len(cache) == 1  # only the ok record

        chaos.uninstall()
        second = CampaignRunner(
            TINY, cache=cache, processes=2, retry=FAST_RETRY,
        ).run()
        assert all(r.ok for r in second.records)
        assert second.cached == 1
        assert second.executed == 1
