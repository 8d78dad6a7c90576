"""The straggler memo prices each slowdown-factor vector once.

Sampled straggler ranks span ``[0, 2**16)`` but a cluster state
simulates only a few DP ranks, and an evaluation is a pure function of
the prepared batch and the per-rank factor vector. The memo is keyed by
that vector (``_canonical_profile``), so every raw profile wrapping onto
the same factors must get the one memoized result — bitwise the direct
evaluation — and a fleet must price each distinct (state, sample,
factor vector) exactly once.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.fleet import FleetEngine, FleetSpec
from repro.fleet import job as job_module
from repro.fleet.job import (
    JobSimulator,
    PendingEvaluation,
    _memo_lookup,
    _slowdown_factors,
    price_pending_steps,
)
from repro.runtime.iteration import TrainingIterationSimulator
from repro.scenarios import ScenarioSpec

from tests.fleet.conftest import FAST_RECOVERY
from tests.fleet.golden.regen import cold_run

slowdowns = st.one_of(st.sampled_from([1.0, 1.5, 3.0]), st.floats(1.0, 3.0))
profiles = st.lists(
    st.tuples(st.integers(0, 2**16 - 1), slowdowns), min_size=1, max_size=3
).map(lambda pairs: tuple(sorted(pairs)))


def _bits(result):
    """Bitwise identity of an IterationResult (float repr round-trips)."""
    return repr(dataclasses.astuple(result))


@pytest.fixture(scope="module")
def memo_job(job_config):
    """A started job whose cluster-state memo every example of the
    property shares, and ``seen``: (sample, factor vector) -> the one
    result object handed out for it."""
    sim = JobSimulator(job_config, ScenarioSpec(num_iterations=8))
    sim.start()
    return sim, {}


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(data=st.data())
def test_equal_factors_share_one_evaluation(memo_job, data):
    sim, seen = memo_job
    state = sim._cur
    sample = data.draw(st.integers(0, len(state.prepared) - 1))
    n_ranks = len(state.prepared[sample].rank_work)
    first = data.draw(profiles)
    # The same factors from other raw ranks: every rank wrapped by a
    # multiple of n_ranks, plus a dominated no-op episode.
    wraps = data.draw(
        st.lists(
            st.integers(0, 2**16 // n_ranks - 1),
            min_size=len(first),
            max_size=len(first),
        )
    )
    alias = tuple(sorted(
        [(rank % n_ranks + n_ranks * k, s)
         for (rank, s), k in zip(first, wraps)]
        + [(first[0][0], 1.0)]
    ))
    assert np.array_equal(
        _slowdown_factors(state, sample, first),
        _slowdown_factors(state, sample, alias),
    )
    for profile in (first, alias, data.draw(profiles)):
        if data.draw(st.booleans()):
            result = sim._evaluate(state, sample, profile)
        else:
            # The fused path: list the pending key, price, look up.
            result, key = _memo_lookup(state, sample, profile)
            if result is None:
                price_pending_steps([PendingEvaluation(state, sample, key)])
                result, _ = _memo_lookup(state, sample, profile)
        factors = _slowdown_factors(state, sample, profile)
        assert seen.setdefault((sample, factors.tobytes()), result) is result
        direct = state.simulator.evaluate_prepared(
            state.prepared[sample], rank_slowdowns=factors
        )
        assert _bits(result) == _bits(direct)


def test_fleet_prices_each_factor_vector_once(job_config, monkeypatch):
    """Every straggler evaluation a fleet prices is a distinct (state,
    sample, factor vector), and a warm re-run prices nothing."""
    priced = []
    fused = job_module.evaluate_prepared_many
    single = TrainingIterationSimulator.evaluate_prepared

    def counting_fused(tasks):
        priced.extend(
            (id(prepared), np.asarray(factors).tobytes())
            for _, prepared, factors in tasks
            if factors is not None
        )
        return fused(tasks)

    def counting_single(self, prepared, rank_slowdowns=None):
        if rank_slowdowns is not None:
            priced.append(
                (id(prepared), np.asarray(rank_slowdowns).tobytes())
            )
        return single(self, prepared, rank_slowdowns)

    monkeypatch.setattr(job_module, "evaluate_prepared_many", counting_fused)
    monkeypatch.setattr(
        TrainingIterationSimulator, "evaluate_prepared", counting_single
    )
    scenario = ScenarioSpec(
        num_iterations=80,
        checkpoint_interval=20,
        mtbf_gpu_hours=3.0,
        straggler_rate=0.3,
        elastic=True,
        repair_seconds=300.0,
        seed=7,
        **FAST_RECOVERY,
    )
    spec = FleetSpec.homogeneous(
        job_config,
        cluster_gpus=96,
        num_jobs=4,
        job_gpus=48,
        arrival_spacing_s=60.0,
        priorities=(1, 0),
        policy="priority",
        scenario=scenario,
    )
    cold = cold_run(spec)
    assert priced, "the fleet never priced a straggler evaluation"
    assert len(set(priced)) == len(priced)

    # A re-run over the shared cluster states prices nothing.
    cold_priced = len(priced)
    engine = FleetEngine(spec)
    warm = engine.run()
    assert len(priced) == cold_priced
    assert warm.to_json() == cold.to_json()

    # Every memo key (canonical or raw alias) maps onto a factor vector
    # that was priced, and the raw profiles far outnumber the pricings.
    states = {
        id(state): state
        for tenant in engine._tenants
        for state in tenant.sim._states.values()
    }
    memo_keys = 0
    needed = set()
    for state in states.values():
        for sample, profile in state.evaluations:
            memo_keys += 1
            needed.add((
                id(state.prepared[sample]),
                _slowdown_factors(state, sample, profile).tobytes(),
            ))
    assert needed == set(priced)
    assert memo_keys > 2 * len(priced)
