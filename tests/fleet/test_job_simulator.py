"""The stepping API of the extracted per-job state machine."""

import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.config import DistTrainConfig
from repro.fleet import FleetEngine, FleetSpec
from repro.fleet import engine as fleet_engine
from repro.fleet.job import MAX_FAILURES, STATE_CACHE, JobSimulator, _fold
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

from repro.runtime.checkpoint import AsyncCheckpointer

from tests.fleet.conftest import FAST_RECOVERY
from tests.fleet.golden.regen import cases, fleet_fixture
from tests.fleet.test_golden_fleet import check


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


# --------------------------------------------------------------------- #
# The kept walk: a peek's segment, applied without walking it again
# --------------------------------------------------------------------- #
GOLDEN = cases()

#: One kept-walk round's disturbances between the peek and the advance.
round_ops = st.lists(
    st.one_of(
        st.tuples(st.just("peek"), st.booleans()),
        st.tuples(st.just("resize"), st.sampled_from([32, 40, 48])),
        st.tuples(
            st.just("preempt"),
            st.sampled_from([32, 40, 48]),
            st.sampled_from([0.0, 5.0]),
        ),
        st.tuples(st.just("mid"), st.floats(0.0, 1.0)),
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
        rounds=st.lists(
            st.tuples(st.booleans(), round_ops), min_size=1, max_size=12
        ),
    )
    def test_peeks_and_controls_match_step_walk(
        self, job_config, spec, pause, rounds
    ):
        """Rounds of: a peek (exact or lower-bound), then resizes,
        preempt + resume, a mid-segment advance and second peeks, then
        an advance to the latest peeked end and past its step. With
        zero replan and reload pauses a control can change what the
        walk read and leave the clock where it was."""
        spec = spec.with_(
            replan_seconds=pause, checkpoint_load_seconds=pause
        )
        STATE_CACHE.clear()
        peeked = JobSimulator(job_config, spec)
        stepped = JobSimulator(job_config, spec)
        peeked.start()
        stepped.start()
        marks, expected = [], []
        for lower_bound, ops in rounds:
            if peeked.done:
                break
            end = peeked.peek_segment(lower_bound)[0]
            for op in ops:
                if op[0] == "peek":
                    end = peeked.peek_segment(op[1])[0]
                elif op[0] == "mid":
                    mid = peeked.clock + op[1] * (end - peeked.clock)
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


def _elastic_fleet() -> FleetSpec:
    """perfbench's fleet-elastic workload at seed 0: 100 tenants x
    1,000 iterations on 480 GPUs under fair share."""
    return FleetSpec.homogeneous(
        DistTrainConfig.preset("mllm-9b", 48, 16),
        cluster_gpus=480,
        num_jobs=100,
        job_gpus=48,
        arrival_spacing_s=120.0,
        priorities=(1, 0),
        policy="fair-share",
        scenario=ScenarioSpec(
            num_iterations=1000,
            checkpoint_interval=50,
            mtbf_gpu_hours=60.0,
            elastic=True,
            repair_seconds=900.0,
            seed=0,
        ),
    )


def test_one_walk_per_segment(monkeypatch):
    """A warm fleet-elastic call advances through the walks its peeks
    kept, rebuilds a policy view only when the tenant's held count or
    running flag moved, and copies no checkpointer. Re-walking every
    peeked segment, rebuilding every view each decision and peeking
    on checkpointer copies, the same call made 4,866 walks, 5,094
    views and 2,322 copies."""
    spec = _elastic_fleet()
    FleetEngine(spec).run()  # warm every process-wide cache
    counts = {"walks": 0, "views": 0, "copies": 0}
    walk = JobSimulator._walk
    view = fleet_engine.JobView

    def counted(key, inner):
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return inner(*args, **kwargs)

        return wrapper

    def copied(checkpointer, *memo):
        counts["copies"] += 1
        raise AssertionError("a checkpointer was copied")

    monkeypatch.setattr(JobSimulator, "_walk", counted("walks", walk))
    monkeypatch.setattr(fleet_engine, "JobView", counted("views", view))
    monkeypatch.setattr(
        AsyncCheckpointer, "__copy__", copied, raising=False
    )
    monkeypatch.setattr(
        AsyncCheckpointer, "__deepcopy__", copied, raising=False
    )
    result = FleetEngine(spec).run()
    assert result.metrics()["num_failures"] == 34.0
    assert counts == {"walks": 2852, "views": 679, "copies": 0}


#: A 48-GPU job shrunk to 40 by an early failure whose repair lies far
#: ahead, taken to iteration 13: its segment runs to the checkpoint at
#: iteration 20, with the checkpoint at 10 behind it.
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


def _advance_after_change(job_config, change, walk):
    """Peek the shrunk job's segment, apply ``change``, then advance to
    the peeked end and on: ``walk`` is "kept" (as the simulator
    decides), "fresh" (the kept walk dropped) or "stale" (the kept walk
    forced). Returns the marks, the result bytes or the error."""
    sim = JobSimulator(job_config, SHRUNK)
    sim.start()
    while sim.iterations_retained < 13:
        sim.step()
    assert sim.num_gpus == 40 and sim.allocated_gpus == 48
    end, irregular, _ = sim.peek_segment()
    assert not irregular
    change(sim)
    marks = []
    try:
        if walk == "fresh":
            sim._kept = None
        elif walk == "stale":
            sim._apply(sim._kept)
        for horizon in (end, float("inf")):
            sim.advance_until(horizon)
            marks.append(_mark(sim))
        marks.append(_result_bytes(sim))
    except RuntimeError as error:
        marks.append(str(error))
    return marks


@pytest.mark.parametrize("name", sorted(INPUT_CHANGES))
def test_kept_walk_reads_every_input(job_config, name):
    """Each input the walk reads, changed alone after the peek, makes
    the advance walk afresh; applying the kept walk would have gone
    wrong."""
    change = INPUT_CHANGES[name]
    fresh = _advance_after_change(job_config, change, "fresh")
    assert _advance_after_change(job_config, change, "kept") == fresh
    assert _advance_after_change(job_config, change, "stale") != fresh
