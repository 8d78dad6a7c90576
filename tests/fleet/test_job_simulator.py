"""The stepping API of the extracted per-job state machine."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fleet.job import STATE_CACHE, JobSimulator, _fold
from repro.orchestration.errors import InfeasibleClusterError
from repro.orchestration.plancache import PLAN_CACHE
from repro.scenarios import ScenarioSpec
from repro.scenarios.engine import ScenarioEngine
from repro.scenarios.events import (
    DomainFailureEvent,
    EventTrace,
    FailureEvent,
    MaintenanceEvent,
    ResizeEvent,
    SpotReclaimEvent,
    StragglerEvent,
)

from tests.fleet.conftest import FAST_RECOVERY


class TestLifecycle:
    def test_run_equals_scenario_engine(self, job_config):
        spec = ScenarioSpec(num_iterations=30)
        direct = JobSimulator(job_config, spec).run()
        wrapped = ScenarioEngine(job_config, spec).run()
        assert direct.metrics() == wrapped.metrics()
        assert np.array_equal(
            direct.iteration_times, wrapped.iteration_times
        )

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
        from repro.core.config import DistTrainConfig

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


def _step_walk(sim, horizons):
    marks = []
    for horizon in horizons:
        while not sim.done and sim.clock < horizon:
            sim.step()
        marks.append(
            (sim.clock, sim.iterations_retained, sim.drain_fleet_events())
        )
    return marks


def _segment_walk(sim, horizons):
    marks = []
    for horizon in horizons:
        sim.advance_until(horizon)
        marks.append(
            (sim.clock, sim.iterations_retained, sim.drain_fleet_events())
        )
    return marks


def _result_bytes(sim):
    return json.dumps(sim.finish().to_dict(), sort_keys=True)


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
        self, job_config, n, interval, samples, episodes
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
        # lower-bound peek keys the segment at that iteration's start.
        STATE_CACHE.clear()
        sim = JobSimulator(job_config, spec)
        sim.start()
        key, _, pending = sim.peek_segment(lower_bound=True)
        assert pending
        assert key == boundaries[min(e[0] for e in episodes)]

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
        clock, irregular, pending = sim.peek_segment(lower_bound=True)
        assert sim.clock == 0.0 and sim.iterations_retained == 0
        exact, _, _ = sim.peek_segment()
        assert clock <= exact
        # The segment ends at the first checkpoint boundary.
        sim.advance_until(exact)
        assert sim.clock == exact
        assert sim.iterations_retained == 11
