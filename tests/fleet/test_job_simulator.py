"""The stepping API of the extracted per-job state machine."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import DistTrainConfig
from repro.fleet import FleetEngine, FleetSpec
from repro.fleet import engine as fleet_engine
from repro.fleet import job as fleet_job
from repro.fleet.job import MAX_FAILURES, STATE_CACHE, JobSimulator, _fold
from repro.obs import instrument
from repro.orchestration.errors import InfeasibleClusterError
from repro.orchestration.plancache import PLAN_CACHE
from repro.scenarios import ScenarioSpec, run_scenario
from repro.scenarios.events import (
    DomainFailureEvent,
    EventTrace,
    FailureEvent,
    MaintenanceEvent,
    ResizeEvent,
    SpotReclaimEvent,
    StragglerEvent,
)

from repro.runtime.checkpoint import AsyncCheckpointer, CheckpointConfig

from tests.fleet.conftest import FAST_RECOVERY
from tests.fleet.golden.regen import cases, fleet_fixture
from tests.fleet.test_golden_fleet import check


class TestLifecycle:
    def test_run_equals_run_scenario(self, job_config):
        spec = ScenarioSpec(num_iterations=30)
        direct = JobSimulator(job_config, spec).run()
        wrapped = run_scenario(job_config, spec)
        assert direct.metrics() == wrapped.metrics()
        assert np.array_equal(
            direct.iteration_times, wrapped.iteration_times
        )

    def test_run_scenario_is_one_traced_job_run(self, job_config):
        # On one-core preprocessing nodes a one-node pool stalls the
        # iterations, so the pool a caller passes shows in the result.
        config = job_config.with_(
            cluster=dataclasses.replace(
                job_config.cluster, cpu_cores_per_node=1
            )
        )
        spec = ScenarioSpec(
            num_iterations=30, mtbf_gpu_hours=2.0, seed=1, **FAST_RECOVERY
        )
        checkpoint = CheckpointConfig(interval_iterations=4)
        direct = JobSimulator(
            config, spec, checkpoint=checkpoint, cpu_nodes=1
        ).run()
        with instrument.session(trace=True) as tracer:
            wrapped = run_scenario(
                config, spec, checkpoint=checkpoint, cpu_nodes=1
            )
        assert json.dumps(wrapped.to_dict()) == json.dumps(direct.to_dict())
        spans = [
            record["attrs"]
            for record in tracer.records
            if record["type"] == "span" and record["name"] == "scenario.run"
        ]
        assert spans == [{"model": "mllm-9b", "gpus": 48, "iterations": 30}]
        # Each argument reaches the job: leaving either out changes it.
        for kwargs in ({"checkpoint": checkpoint}, {"cpu_nodes": 1}):
            alone = run_scenario(config, spec, **kwargs)
            assert alone.to_dict() != direct.to_dict()

    def test_stepping_is_incremental(self, job_config):
        sim = JobSimulator(job_config, ScenarioSpec(num_iterations=10))
        assert not sim.started and not sim.done
        sim.start()
        assert sim.started and sim.clock == 0.0
        seen = [sim.clock]
        while not sim.done:
            sim.step()
            seen.append(sim.clock)
            assert sim.clock >= seen[-2]  # the clock never rewinds
        assert sim.iterations_retained == 10
        result = sim.finish()
        assert result.num_iterations == 10

    def test_advance_until_stops_at_horizon(self, job_config):
        sim = JobSimulator(job_config, ScenarioSpec(num_iterations=50))
        sim.start()
        horizon = 10.0
        sim.advance_until(horizon)
        assert sim.clock >= horizon
        # Non-preemptible iterations: overshoot is less than one unit.
        assert 0 < sim.iterations_retained < 50
        sim.advance_until(float("inf"))
        assert sim.done

    def test_start_on_smaller_allocation(self, job_config):
        sim = JobSimulator(job_config, ScenarioSpec(num_iterations=8))
        sim.start(allocated_gpus=24, start_time=100.0)
        assert sim.num_gpus == 24
        while not sim.done:
            sim.step()
        result = sim.finish()
        assert result.initial_gpus == 24
        assert result.final_gpus == 24
        # total_seconds is job-relative, not absolute.
        assert result.total_seconds == pytest.approx(sim.clock - 100.0)

    def test_infeasible_allocation_raises_clearly(self):
        config = DistTrainConfig.preset("mllm-72b", 1296, 1920)
        sim = JobSimulator(config, ScenarioSpec(num_iterations=4))
        assert not sim.feasible(64)
        with pytest.raises(InfeasibleClusterError):
            sim.start(allocated_gpus=64)

    def test_feasible_remembers_only_infeasibility(
        self, job_config, monkeypatch
    ):
        """An infeasible size is remembered for the job's life; any
        other planning error is a fault and propagates each time."""
        from repro.core import api

        solves = []

        def replan(config, num_gpus):
            solves.append(num_gpus)
            if num_gpus == 32:
                raise RuntimeError("orchestrator fault")
            raise InfeasibleClusterError("no plan fits", num_gpus)

        monkeypatch.setattr(api, "_replan_uncached", replan)
        # No cache may hold the probed sizes, or the stub never runs.
        PLAN_CACHE.clear()
        sim = JobSimulator(job_config, ScenarioSpec(num_iterations=4))
        for _ in range(2):
            with pytest.raises(RuntimeError, match="orchestrator fault"):
                sim.feasible(32)
            assert not sim.feasible(40)
        assert solves == [32, 40, 32]


class TestFleetControls:
    def test_apply_resize_counts_replan(self, job_config):
        sim = JobSimulator(job_config, ScenarioSpec(num_iterations=20))
        sim.start()
        sim.advance_until(5.0)
        before = sim.clock
        sim.apply_resize(40, sim.clock)
        assert sim.num_gpus == 40
        assert sim.clock == pytest.approx(
            before + sim.scenario.replan_seconds
        )
        while not sim.done:
            sim.step()
        result = sim.finish()
        assert result.num_replans == 1
        assert result.min_gpus == 40
        assert result.final_gpus == 40

    def test_preempt_resume_replays_undurable_work(self, job_config):
        spec = ScenarioSpec(num_iterations=30, checkpoint_interval=10)
        sim = JobSimulator(job_config, spec, name="victim")
        sim.start()
        sim.advance_until(40.0)
        progressed = sim.iterations_retained
        assert progressed > 10
        sim.preempt(sim.clock)
        assert sim.paused
        # Rolled back to the latest durable checkpoint: a snapshot after
        # iteration k resumes at k + 1 (0 = only the initial weights).
        assert sim.iterations_retained < progressed
        assert sim.iterations_retained % 10 in (0, 1)
        sim.resume(48, sim.clock + 500.0)
        assert not sim.paused
        while not sim.done:
            sim.step()
        result = sim.finish()
        assert result.preemptions == 1
        assert result.num_iterations == 30
        assert result.replayed_iterations > 0

    def test_resume_requires_preemption(self, job_config):
        sim = JobSimulator(job_config, ScenarioSpec(num_iterations=5))
        sim.start()
        with pytest.raises(RuntimeError, match="not preempted"):
            sim.resume(48, 0.0)

    def test_fleet_event_log_reports_capacity_changes(self, job_config):
        from repro.scenarios.events import EventTrace, FailureEvent

        spec = ScenarioSpec(
            num_iterations=40,
            elastic=True,
            events=EventTrace([FailureEvent(time_s=20.0, gpus_lost=8)]),
            repair_seconds=50.0,
            restart_seconds=10.0,
            checkpoint_load_seconds=5.0,
        )
        sim = JobSimulator(job_config, spec)
        sim.start()
        while not sim.done:
            sim.step()
        kinds = [e[0] for e in sim.drain_fleet_events()]
        assert kinds == ["failure", "grow"]
        assert sim.drain_fleet_events() == []  # drained


class TestOutsideTheRun:
    """A simulator used before :meth:`start` or past its run fails with
    a ``RuntimeError`` naming the job, not a deep attribute or index
    error."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda sim: sim.step(),
            lambda sim: sim.advance_until(10.0),
            lambda sim: sim.peek_segment(),
            lambda sim: sim.preempt(0.0),
            lambda sim: sim.apply_resize(40, 0.0),
            lambda sim: sim.finish(),
        ],
        ids=[
            "step", "advance_until", "peek_segment", "preempt",
            "apply_resize", "finish",
        ],
    )
    def test_before_start(self, job_config, call):
        sim = JobSimulator(
            job_config, ScenarioSpec(num_iterations=10), name="early"
        )
        with pytest.raises(RuntimeError, match="job 'early' has not started"):
            call(sim)

    def test_step_after_the_run(self, job_config):
        sim = JobSimulator(
            job_config, ScenarioSpec(num_iterations=10), name="over"
        )
        sim.start()
        sim.advance_until(float("inf"))
        assert sim.done
        with pytest.raises(
            RuntimeError, match="job 'over' has retained all 10 iterations"
        ):
            sim.step()

    def test_finish_before_done(self, job_config):
        sim = JobSimulator(
            job_config, ScenarioSpec(num_iterations=10), name="unfinished"
        )
        sim.start()
        with pytest.raises(
            RuntimeError, match="job 'unfinished' has retained 0 of 10"
        ):
            sim.finish()


# --------------------------------------------------------------------- #
# Segment advance == the step-by-step walk
# --------------------------------------------------------------------- #
#: Domains of a 48-GPU slice (node0..node5, rack0..) plus names it never
#: reaches, which must be consumed without effect.
DOMAINS = ("node0", "node3", "node5", "node7", "rack0", "rack1", "rack9")

timed_events = st.one_of(
    st.builds(
        FailureEvent,
        time_s=st.floats(1.0, 150.0),
        gpus_lost=st.sampled_from([8, 16]),
    ),
    st.builds(
        DomainFailureEvent,
        time_s=st.floats(1.0, 150.0),
        domain=st.sampled_from(DOMAINS),
    ),
    st.builds(
        SpotReclaimEvent,
        time_s=st.floats(1.0, 150.0),
        gpus=st.sampled_from([8, 16]),
        duration_s=st.floats(5.0, 60.0),
    ),
    st.builds(
        MaintenanceEvent,
        time_s=st.floats(1.0, 150.0),
        duration_s=st.floats(5.0, 60.0),
        domain=st.sampled_from(DOMAINS),
    ),
)
resizes = st.builds(
    ResizeEvent,
    iteration=st.integers(1, 80),
    num_gpus=st.sampled_from([32, 40, 48]),
)


@st.composite
def scenarios(draw):
    n = draw(st.integers(10, 80))
    common = dict(
        num_iterations=n,
        checkpoint_interval=draw(
            st.sampled_from([1, 7, 20, n + 5])
        ),
        elastic=draw(st.booleans()),
        repair_seconds=draw(st.floats(20.0, 200.0)),
        seed=draw(st.integers(0, 2**16)),
        **FAST_RECOVERY,
    )
    if draw(st.booleans()):
        # Sampled dynamics: Poisson failures and straggler episodes.
        return ScenarioSpec(
            mtbf_gpu_hours=draw(st.sampled_from([None, 2.0, 6.0])),
            straggler_rate=draw(st.sampled_from([0.0, 0.05, 0.3])),
            straggler_iterations=draw(st.integers(1, 8)),
            **common,
        )
    # A scripted trace: resizes, spot reclaims, maintenance windows,
    # plain and domain failures (unique resize iterations).
    events = draw(st.lists(timed_events, max_size=5)) + list(
        {e.iteration: e for e in draw(st.lists(resizes, max_size=3))}
        .values()
    )
    return ScenarioSpec(events=EventTrace(events), **common)


def _mark(sim):
    return sim.clock, sim.iterations_retained, sim.drain_fleet_events()


def _step_to(sim, horizon):
    while not sim.done and sim.clock < horizon:
        sim.step()


def _step_walk(sim, horizons):
    marks = []
    for horizon in horizons:
        _step_to(sim, horizon)
        marks.append(_mark(sim))
    return marks


def _segment_walk(sim, horizons):
    marks = []
    for horizon in horizons:
        sim.advance_until(horizon)
        marks.append(_mark(sim))
    return marks


def _result_bytes(sim):
    return json.dumps(sim.finish().to_dict(), sort_keys=True)


def _count_pricing(monkeypatch):
    """The size of every fused pricing call from here on (straggler
    evaluations, and base batches of a cluster state built later)."""
    calls = []
    price = fleet_job.evaluate_prepared_many

    def counted(requests):
        calls.append(len(requests))
        return price(requests)

    monkeypatch.setattr(fleet_job, "evaluate_prepared_many", counted)
    return calls


def _stall_windows(job_config, spec, checkpoint=None):
    """``(compute end, boundary)`` of every snapshot stall on the step
    walk of ``spec``, the compute end read back from the stall."""
    sim = JobSimulator(job_config, spec, checkpoint=checkpoint)
    sim.start()
    windows = []
    while not sim.done:
        checkpointer = sim._checkpointer
        stalled = checkpointer.total_stall
        sim.step()
        stall = checkpointer.total_stall - stalled
        if sim._checkpointer is checkpointer and stall > 0:
            windows.append((sim.clock - stall, sim.clock))
    return windows


def _inside(window, fraction):
    start, end = window
    return start + fraction * (end - start)


def _assert_walks_agree(job_config, spec, picks, extra=()):
    """The segment walk equals the step walk at horizons on boundary
    clocks (``picks`` index them, modulo), at ``extra`` clocks and at
    inf, and both end byte-identical. Returns the boundary clocks."""
    probe = JobSimulator(job_config, spec)
    probe.start()
    boundaries = [probe.clock]
    while not probe.done:
        probe.step()
        boundaries.append(probe.clock)
    horizons = sorted(
        [boundaries[p % len(boundaries)] for p in picks] + list(extra)
    ) + [float("inf")]

    # Each walk starts from an empty straggler memo, so the segment
    # walk does its own pricing; plan fetches are all hits.
    STATE_CACHE.clear()
    segment = JobSimulator(job_config, spec)
    segment.start()
    segment_marks = _segment_walk(segment, horizons)
    STATE_CACHE.clear()
    stepped = JobSimulator(job_config, spec)
    stepped.start()
    step_marks = _step_walk(stepped, horizons)

    assert segment_marks == step_marks
    assert segment.done and stepped.done
    assert _result_bytes(segment) == _result_bytes(stepped)
    return boundaries


@given(st.lists(st.floats(0.0, 1e4), max_size=300))
def test_fold_is_the_sequential_loop(values):
    total = 0.0
    for value in values:
        total += value
    assert _fold(np.array(values, dtype=float)) == total


def _per_iteration_profiles(episodes, n):
    """Iteration -> sorted active-straggler profile, built one iteration
    at a time: the oracle for the simulator's runs."""
    profiles = {}
    for episode in episodes:
        for i in range(episode.iteration, episode.end_iteration):
            if i >= n:
                break
            profiles.setdefault(i, []).append(
                (episode.rank, episode.slowdown)
            )
    return {i: tuple(sorted(active)) for i, active in profiles.items()}


@st.composite
def straggler_traces(draw):
    """``(n, episodes)``: episodes that overlap, repeat ``(rank,
    slowdown)`` pairs, and may start at or past the end."""
    n = draw(st.integers(1, 120))
    episodes = draw(
        st.lists(
            st.builds(
                StragglerEvent,
                iteration=st.integers(0, n + 5),
                duration_iterations=st.integers(1, 30),
                rank=st.integers(0, 4),
                slowdown=st.sampled_from([1.0, 1.5, 2.0]),
            ),
            max_size=12,
        )
    )
    return n, episodes


class TestStragglerRuns:
    @settings(
        max_examples=150,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(trace=straggler_traces())
    def test_runs_give_per_iteration_profiles(self, job_config, trace):
        n, episodes = trace
        sim = JobSimulator(
            job_config,
            ScenarioSpec(num_iterations=n, events=EventTrace(episodes)),
        )
        sim.start()
        expected = _per_iteration_profiles(episodes, n)
        assert [sim._profile(i) for i in range(n)] == [
            expected.get(i, ()) for i in range(n)
        ]
        runs = sim._runs
        assert all(start < end <= n for start, end, _ in runs)
        assert all(a[1] <= b[0] for a, b in zip(runs, runs[1:]))
        assert all(profile for _, _, profile in runs)


class TestSegmentAdvance:
    """``advance_until`` is ``while clock < horizon: step()``: same
    clocks at every horizon, same capacity-change log, byte-identical
    result — across failures, stragglers, elastic repair, scripted
    resizes, spot and maintenance outages, and checkpoint intervals of
    one and longer than the run."""

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        spec=scenarios(),
        picks=st.lists(st.integers(0, 10**6), max_size=4),
        extra=st.lists(st.floats(0.0, 250.0), max_size=2),
    )
    def test_matches_step_walk(self, job_config, spec, picks, extra):
        # Horizons exactly on boundary clocks, between them, and inf.
        _assert_walks_agree(job_config, spec, picks, extra)

    @pytest.mark.parametrize(
        "n, interval, samples, episodes",
        [
            pytest.param(
                40, 10, 4,
                [(2, 9, 1, 1.5), (5, 3, 1, 2.0), (6, 14, 1, 1.5),
                 (7, 2, 3, 1.5)],
                id="overlapping-lengths",
            ),
            pytest.param(
                30, 7, 4, [(4, 6, 2, 1.5), (4, 6, 2, 1.5)],
                id="identical-episodes",
            ),
            pytest.param(
                40, 10, 4, [(8, 7, 0, 2.0), (13, 25, 5, 1.5)],
                id="across-checkpoints",
            ),
            pytest.param(
                50, 20, 4,
                [(1, 5, 1, 1.5), (11, 7, 2, 2.0), (25, 3, 4, 1.5),
                 (45, 9, 0, 1.5), (60, 2, 1, 2.0)],
                id="lengths-not-multiples-of-k",
            ),
            pytest.param(
                30, 7, 1, [(2, 5, 1, 1.5), (4, 6, 3, 2.0)], id="k-1"
            ),
        ],
    )
    def test_explicit_stragglers_match_step_walk(
        self, job_config, monkeypatch, n, interval, samples, episodes
    ):
        """Scripted straggler runs: overlaps, duplicate pairs, runs
        crossing checkpoints or clipped at the end, K = 1."""
        spec = ScenarioSpec(
            num_iterations=n,
            checkpoint_interval=interval,
            sample_iterations=samples,
            events=EventTrace([StragglerEvent(*e) for e in episodes]),
        )
        boundaries = _assert_walks_agree(
            job_config, spec, picks=range(0, n, 3)
        )
        # The first straggler iteration lies in the first segment, so a
        # peek on an empty memo prices its groups, all in one fused
        # sweep, and lays them over exactly the straggler iterations
        # the segment retains.
        STATE_CACHE.clear()
        sim = JobSimulator(job_config, spec)
        sim.start()
        calls = _count_pricing(monkeypatch)
        end, _ = sim.peek_segment()
        walk = sim._kept
        assert len(calls) == 1
        assert end == boundaries[walk.take]
        laid = sorted(
            q
            for p, b, _ in walk.groups
            for q in range(p, min(b, walk.take), samples)
        )
        assert laid and laid[0] == min(e[0] for e in episodes)
        assert laid == [i for i in range(walk.take) if sim._profile(i)]

    @pytest.mark.parametrize("what", ["failure", "repair", "horizon"])
    def test_inside_a_snapshot_stall(self, job_config, what):
        """A timed event inside a snapshot stall kills the iteration
        after the checkpoint, so the segment ends at the boundary after
        the stall; a repair inside one re-grows there, and a horizon
        inside one stops there. Walked afresh, and peeked and applied as
        kept, the job equals the step walk."""
        base = ScenarioSpec(
            num_iterations=40,
            checkpoint_interval=10,
            elastic=True,
            repair_seconds=1e5,
            events=EventTrace([FailureEvent(time_s=5.0, gpus_lost=8)]),
            **FAST_RECOVERY,
        )
        # The snapshot stall after iteration 20, on 40 GPUs.
        window = _stall_windows(job_config, base)[1]
        at = _inside(window, 0.5)
        spec, extra = base, ()
        if what == "failure":
            spec = base.with_(events=EventTrace(
                list(base.events) + [FailureEvent(time_s=at, gpus_lost=8)]
            ))
        elif what == "repair":
            spec = base.with_(repair_seconds=at - 5.0)
        else:
            extra = (at,)
        _assert_walks_agree(job_config, spec, picks=(), extra=extra)
        peeked = JobSimulator(job_config, spec)
        stepped = JobSimulator(job_config, spec)
        peeked.start()
        stepped.start()
        while peeked.num_gpus == 48:  # the failure at 5 s
            peeked.step()
            stepped.step()
        end, irregular = peeked.peek_segment()
        if what == "horizon":
            peeked.advance_until(at)
            assert peeked.clock == window[1]
        else:
            assert (end, irregular) == (window[1], True)
        for horizon in (at, np.inf):
            peeked.peek_segment()
            peeked.advance_until(horizon)
            _step_to(stepped, horizon)
            assert _mark(peeked) == _mark(stepped)
        assert _result_bytes(peeked) == _result_bytes(stepped)

    def test_run_is_segment_advance(self, job_config):
        spec = ScenarioSpec(
            num_iterations=60,
            checkpoint_interval=15,
            mtbf_gpu_hours=1.0,
            straggler_rate=0.2,
            elastic=True,
            repair_seconds=100.0,
            seed=3,
            **FAST_RECOVERY,
        )
        ran = JobSimulator(job_config, spec).run()
        stepped = JobSimulator(job_config, spec)
        stepped.start()
        while not stepped.done:
            stepped.step()
        assert ran.num_failures > 0
        assert json.dumps(ran.to_dict(), sort_keys=True) == _result_bytes(
            stepped
        )

    def test_peek_does_not_advance(self, job_config):
        spec = ScenarioSpec(
            num_iterations=40, checkpoint_interval=10, straggler_rate=0.3
        )
        sim = JobSimulator(job_config, spec)
        sim.start()
        first = sim.peek_segment()
        assert sim.clock == 0.0 and sim.iterations_retained == 0
        exact, irregular = sim.peek_segment()
        assert (exact, irregular) == first
        assert sim.clock == 0.0 and sim.iterations_retained == 0
        # The segment runs across the checkpoints at iterations 10, 20
        # and 30 and ends before the final iteration, which is
        # irregular.
        assert irregular
        sim.advance_until(exact)
        assert sim.clock == exact
        assert sim.iterations_retained == 39
        assert sim._checkpointer.snapshots_taken == 3

    def test_first_peek_prices_past_a_failure(self, job_config, monkeypatch):
        """A peek prices every straggler group up to the segment's
        natural end, past the timed failure that cuts it: after its
        first peek, an inelastic job with episodes of different
        slowdowns on both sides of a failure prices nothing more on its
        way to completion, the iterations it replays included."""
        spec = ScenarioSpec(
            num_iterations=40,
            checkpoint_interval=10,
            events=EventTrace([
                StragglerEvent(4, 5, rank=1, slowdown=1.5),
                # During iteration 16 (~1.4 s iterations).
                FailureEvent(time_s=23.0, gpus_lost=8),
                StragglerEvent(24, 6, rank=2, slowdown=2.0),
            ]),
            **FAST_RECOVERY,
        )
        STATE_CACHE.clear()
        sim = JobSimulator(job_config, spec)
        sim.start()
        calls = _count_pricing(monkeypatch)
        end, irregular = sim.peek_segment()
        assert irregular and end < 23.0
        priced = list(calls)
        sim.advance_until(float("inf"))
        result = sim.finish()
        assert (result.num_failures, result.num_replans) == (1, 0)
        assert result.replayed_iterations > 0
        assert calls == priced
        # One fused call; each episode's iterations span the K = 4
        # samples.
        assert priced == [8]


# --------------------------------------------------------------------- #
# The kept walk: a peek's segment, applied without walking it again
# --------------------------------------------------------------------- #
GOLDEN = cases()

#: One kept-walk round's disturbances between the peek and the advance.
round_ops = st.lists(
    st.one_of(
        st.just(("peek",)),
        st.tuples(st.just("resize"), st.sampled_from([32, 40, 48])),
        st.tuples(
            st.just("preempt"),
            st.sampled_from([32, 40, 48]),
            st.sampled_from([0.0, 5.0]),
        ),
        st.tuples(st.just("mid"), st.floats(0.0, 1.0)),
        st.tuples(
            st.just("stall"), st.floats(0.0, 1.0), st.integers(0, 10**6)
        ),
    ),
    max_size=3,
)


class TestKeptWalk:
    """``advance_until`` to a peeked end applies the peek's walk only
    while nothing it read has changed; the result is the step walk's."""

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        spec=scenarios(),
        pause=st.sampled_from([0.0, 30.0]),
        rounds=st.lists(round_ops, min_size=1, max_size=12),
        data=st.data(),
    )
    def test_peeks_and_controls_match_step_walk(
        self, job_config, spec, pause, rounds, data
    ):
        """Rounds of: a peek, then resizes, preempt + resume,
        mid-segment advances (some to a horizon inside a snapshot stall
        of the peeked walk) and second peeks, then an advance to the
        latest peeked end and past its step. With zero
        replan and reload pauses a control can change what the walk read
        and leave the clock where it was. A scripted trace gains a
        failure inside a snapshot stall of its step walk, which kills
        the iteration after the checkpoint."""
        spec = spec.with_(
            replan_seconds=pause, checkpoint_load_seconds=pause
        )
        if spec.events is not None:
            windows = _stall_windows(job_config, spec)
            if windows:
                at = _inside(
                    data.draw(st.sampled_from(windows)),
                    data.draw(st.floats(0.0, 1.0)),
                )
                spec = spec.with_(events=EventTrace(
                    list(spec.events) + [FailureEvent(time_s=at, gpus_lost=8)]
                ))
        STATE_CACHE.clear()
        peeked = JobSimulator(job_config, spec)
        stepped = JobSimulator(job_config, spec)
        peeked.start()
        stepped.start()
        marks, expected = [], []
        for ops in rounds:
            if peeked.done:
                break
            end = peeked.peek_segment()[0]
            for op in ops:
                if op[0] == "peek":
                    end = peeked.peek_segment()[0]
                elif op[0] in ("mid", "stall"):
                    mid = peeked.clock + op[1] * (end - peeked.clock)
                    walk = peeked._kept
                    stalls = () if walk is None or not walk.take else walk.marks
                    if op[0] == "stall" and len(stalls):
                        mid = _inside(stalls[op[2] % len(stalls)], op[1])
                    peeked.advance_until(mid)
                    _step_to(stepped, mid)
                elif peeked.done:
                    continue
                elif op[0] == "resize":
                    for sim in (peeked, stepped):
                        sim.apply_resize(op[1], sim.clock)
                else:
                    for sim in (peeked, stepped):
                        sim.preempt(sim.clock)
                        sim.resume(op[1], sim.clock + op[2])
            for horizon in (end, np.nextafter(end, np.inf)):
                peeked.advance_until(horizon)
                _step_to(stepped, horizon)
                marks.append(_mark(peeked))
                expected.append(_mark(stepped))
        peeked.advance_until(float("inf"))
        _step_to(stepped, float("inf"))
        marks.append(_mark(peeked))
        expected.append(_mark(stepped))
        assert marks == expected
        assert _result_bytes(peeked) == _result_bytes(stepped)

    @pytest.mark.parametrize("name,build", GOLDEN, ids=[n for n, _ in GOLDEN])
    def test_golden_fleets_without_kept_walks(
        self, name, build, monkeypatch
    ):
        """Every golden fleet, its kept walks dropped before each
        advance so every segment is walked afresh, gives the fixture."""
        advance = JobSimulator.advance_until

        def walk_afresh(sim, horizon):
            sim._kept = None
            advance(sim, horizon)

        monkeypatch.setattr(JobSimulator, "advance_until", walk_afresh)
        check(name, fleet_fixture(name, FleetEngine(build()).run()))


def _upload_mark(sim):
    """The step walk's mark plus the checkpointer's upload clock and
    total stall, to the bit."""
    checkpointer = sim._checkpointer
    return _mark(sim) + (
        float(sim.clock).hex(),
        float(checkpointer.upload_finish_time).hex(),
        float(checkpointer.total_stall).hex(),
        float(sim._stall_carry).hex(),
    )


class TestUploadWait:
    """Checkpoints that wait for the previous snapshot's upload: peeks,
    their kept walks cut at horizons, and fresh walks equal the step
    walk at every horizon, down to the upload clock and total stall."""

    @settings(
        max_examples=30,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        interval=st.integers(1, 10),
        bandwidth=st.sampled_from([1e8, 1e9, 4e9, 4e10]),
        stragglers=st.booleans(),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    def test_matches_step_walk(
        self, job_config, interval, bandwidth, stragglers, seed, data
    ):
        """An elastic job with sampled failures, or one with straggler
        episodes, at upload bandwidths from 1e8 B/s (a ~1,300 s upload)
        to 4e10 B/s (~3 s, against ~1.4 s iterations). Horizons fall on
        boundary clocks, inside snapshot stalls and anywhere; before
        each advance the job is peeked or not."""
        common = dict(
            num_iterations=60,
            elastic=True,
            repair_seconds=200.0,
            seed=seed,
            **FAST_RECOVERY,
        )
        if stragglers:
            spec = ScenarioSpec(
                straggler_rate=0.1, straggler_iterations=4, **common
            )
        else:
            spec = ScenarioSpec(mtbf_gpu_hours=20.0, **common)
        checkpoint = CheckpointConfig(
            interval_iterations=interval, upload_bandwidth=bandwidth
        )
        probe = JobSimulator(job_config, spec, checkpoint=checkpoint)
        probe.start()
        boundaries = [probe.clock]
        while not probe.done:
            probe.step()
            boundaries.append(probe.clock)
        windows = _stall_windows(job_config, spec, checkpoint)
        fractions = st.floats(0.0, 1.0)
        horizons = data.draw(st.lists(
            st.one_of(
                st.sampled_from(boundaries),
                st.builds(_inside, st.sampled_from(windows), fractions),
                st.floats(0.0, boundaries[-1]),
            ),
            max_size=8,
        ))
        peeks = data.draw(st.lists(
            st.booleans(),
            min_size=len(horizons) + 1,
            max_size=len(horizons) + 1,
        ))

        STATE_CACHE.clear()
        walked = JobSimulator(job_config, spec, checkpoint=checkpoint)
        stepped = JobSimulator(job_config, spec, checkpoint=checkpoint)
        walked.start()
        stepped.start()
        marks, expected = [], []
        for horizon, peek in zip(sorted(horizons) + [np.inf], peeks):
            if peek and not walked.done:
                walked.peek_segment()
            walked.advance_until(horizon)
            _step_to(stepped, horizon)
            marks.append(_upload_mark(walked))
            expected.append(_upload_mark(stepped))
        assert marks == expected
        assert _result_bytes(walked) == _result_bytes(stepped)
        if bandwidth == 1e8:
            # Every checkpoint after the first of a checkpointer's life
            # waits for the previous one's upload.
            assert stepped.finish().checkpoint_stall_seconds > 1000.0


def _perfbench_fleet(stragglers: bool) -> FleetSpec:
    """perfbench's fleet workloads at seed 0: 100 tenants x 1,000
    iterations on 480 GPUs, fleet-elastic under fair share, and
    fleet-stragglers (2% straggler episodes, three priorities) under the
    priority policy."""
    scenario = ScenarioSpec(
        num_iterations=1000,
        checkpoint_interval=50,
        mtbf_gpu_hours=60.0,
        elastic=True,
        repair_seconds=900.0,
        seed=0,
    )
    if stragglers:
        scenario = scenario.with_(straggler_rate=0.02, straggler_slowdown=1.5)
    return FleetSpec.homogeneous(
        DistTrainConfig.preset("mllm-9b", 48, 16),
        cluster_gpus=480,
        num_jobs=100,
        job_gpus=48,
        arrival_spacing_s=120.0,
        priorities=(2, 1, 0) if stragglers else (1, 0),
        policy="priority" if stragglers else "fair-share",
        scenario=scenario,
    )


def _warm_counts(spec, monkeypatch):
    """Walks, applies, policy views and checkpointer copies in a warm
    run of ``spec`` after a cold one, and the run's metrics. The cold
    run starts from an empty straggler memo, as a perfbench process
    does."""
    STATE_CACHE.clear()
    FleetEngine(spec).run()  # warm every process-wide cache
    counts = {"walks": 0, "applies": 0, "views": 0, "copies": 0}

    def counted(key, inner):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return inner(*args, **kwargs)

        return wrapper

    def copied(checkpointer, *memo):
        counts["copies"] += 1
        raise AssertionError("a checkpointer was copied")

    monkeypatch.setattr(
        JobSimulator, "_walk", counted("walks", JobSimulator._walk)
    )
    monkeypatch.setattr(
        JobSimulator, "_apply", counted("applies", JobSimulator._apply)
    )
    monkeypatch.setattr(
        fleet_engine, "JobView", counted("views", fleet_engine.JobView)
    )
    monkeypatch.setattr(
        AsyncCheckpointer, "__copy__", copied, raising=False
    )
    monkeypatch.setattr(
        AsyncCheckpointer, "__deepcopy__", copied, raising=False
    )
    return counts, FleetEngine(spec).run().metrics()


def test_one_walk_per_segment(monkeypatch):
    """A warm fleet-elastic call walks each segment once, from a
    tenant's boundary across its checkpoints to its next irregular step,
    and brings a tenant to a decision by cutting the walk its peek kept;
    it rebuilds a policy view only when the tenant's held count or
    running flag moved, and copies no checkpointer. Ending every segment
    at a checkpoint and walking afresh at each decision, the same call
    made 2,852 walks and 2,389 applies; before that, re-walking every
    peeked segment, rebuilding every view each decision and peeking on
    checkpointer copies, 4,866 walks, 5,094 views and 2,322 copies."""
    counts, metrics = _warm_counts(_perfbench_fleet(False), monkeypatch)
    assert metrics["num_failures"] == 34.0
    assert counts == {"walks": 595, "applies": 507, "views": 679, "copies": 0}


def test_straggler_fleet_walks_span_checkpoints(monkeypatch):
    """A warm fleet-stragglers call walks a segment once across its
    checkpoints too, one walk per peek. While a peek of a segment whose
    straggler evaluations were not all memoized only bounded its end
    and kept no walk, the same call made 240 walks: the 8 decisions
    that cut such a segment walked it afresh. Ending every segment at a
    checkpoint and walking afresh at each decision, it made 2,176 walks
    and 2,077 applies."""
    counts, metrics = _warm_counts(_perfbench_fleet(True), monkeypatch)
    assert metrics["preemptions"] == 38.0
    assert counts == {"walks": 232, "applies": 176, "views": 368, "copies": 0}


#: A 48-GPU job shrunk to 40 by an early failure whose repair lies far
#: ahead, taken to iteration 13: its segment runs across the checkpoints
#: at iterations 20 and 30 up to the final iteration, with the
#: checkpoint at 10 behind it.
SHRUNK = ScenarioSpec(
    num_iterations=40,
    checkpoint_interval=10,
    elastic=True,
    repair_seconds=1e5,
    events=EventTrace([FailureEvent(time_s=5.0, gpus_lost=8)]),
    **FAST_RECOVERY,
)


def _set_upload(sim, at):
    sim._checkpointer._upload_finish_time = at


def _slower_checkpointer(sim):
    old = sim._checkpointer
    new = AsyncCheckpointer(
        config=old.config,
        state_bytes=old.state_bytes,
        per_gpu_state_bytes=2 * old.per_gpu_state_bytes,
    )
    new._upload_finish_time = old.upload_finish_time
    sim._checkpointer = new


#: One change per input the walk reads, each alone.
INPUT_CHANGES = {
    "iteration": lambda sim: setattr(sim, "_i", sim._i - 1),
    "clock": lambda sim: setattr(sim, "_clock", sim._clock + 1.0),
    "cluster state": lambda sim: setattr(sim, "_cur", sim._state(32)),
    "failure count": lambda sim: setattr(
        sim, "_num_failures", MAX_FAILURES + 1
    ),
    "repair time": lambda sim: setattr(sim, "_repair_at", sim.clock),
    "next timed event": lambda sim: setattr(
        sim,
        "_timed_events",
        sim._timed_events + [FailureEvent(time_s=sim.clock + 1.0,
                                          gpus_lost=8)],
    ),
    "checkpointer": _slower_checkpointer,
    "upload clock": lambda sim: _set_upload(sim, sim.clock + 1e4),
}


#: Where the advance after the change goes first, read off the kept
#: walk: its end, so the whole walk applies, or a horizon inside it, so
#: a prefix applies: in the first checkpoint's stall or in the last
#: checkpoint interval.
TARGETS = {
    "end": lambda walk: walk.clock,
    "first stall": lambda walk: (walk.marks[0, 0] + walk.marks[0, 1]) / 2,
    "last interval": lambda walk: (walk.marks[-1, 1] + walk.clock) / 2,
}


def _advance_after_change(job_config, change, walk, target):
    """Peek the shrunk job's segment, apply ``change``, then advance to
    the ``target`` horizon and on: ``walk`` is "kept" (as the simulator
    decides), "fresh" (the kept walk dropped) or "stale" (the kept walk
    forced, cut at the horizon). Returns the marks, the result bytes or
    the error."""
    sim = JobSimulator(job_config, SHRUNK)
    sim.start()
    while sim.iterations_retained < 13:
        sim.step()
    assert sim.num_gpus == 40 and sim.allocated_gpus == 48
    end, irregular = sim.peek_segment()
    kept = sim._kept
    # Iterations 13 to 38 across the checkpoints at 20 and 30; the
    # final iteration is irregular.
    assert irregular and kept.clock == end
    assert (kept.take, kept.first, len(kept.marks)) == (26, 20, 2)
    horizon = TARGETS[target](kept)
    assert sim.clock < horizon <= end
    change(sim)
    marks = []
    try:
        if walk == "fresh":
            sim._kept = None
        elif walk == "stale":
            sim._apply(kept if horizon == end else sim._prefix(kept, horizon))
        for h in (horizon, float("inf")):
            sim.advance_until(h)
            marks.append(_mark(sim))
        marks.append(_result_bytes(sim))
    except RuntimeError as error:
        marks.append(str(error))
    return marks


@pytest.mark.parametrize("name", sorted(INPUT_CHANGES))
def test_kept_walk_reads_every_input(job_config, name):
    """Each input the walk reads, changed alone after the peek, makes
    the advance walk afresh, to the walk's end or to a horizon inside
    it; applying the kept walk, whole or cut at the horizon, would have
    gone wrong."""
    change = INPUT_CHANGES[name]
    for target in TARGETS:
        fresh = _advance_after_change(job_config, change, "fresh", target)
        kept = _advance_after_change(job_config, change, "kept", target)
        stale = _advance_after_change(job_config, change, "stale", target)
        assert kept == fresh, target
        assert stale != fresh, target
