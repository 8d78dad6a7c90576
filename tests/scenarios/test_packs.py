"""Scenario-pack properties and golden replay.

Four families, matching the scenario-pack contract:

1. **Arrival determinism + rate-monotonicity** — every arrival process
   is a pure function of ``(process, num_jobs, seed)``, produces sorted
   non-negative times, and (for the stochastic kinds) raising the rate
   never delays any arrival of the same seed.
2. **Blast radius** — a correlated domain failure kills at most the
   GPUs its named domain holds: generated events always name real
   domains of the demand cluster, and simulating a single domain
   failure never shrinks the job below ``demand - domain.num_gpus``.
3. **Golden replay** — every shipped pack's checked-in fixture matches
   a fresh ``materialize`` byte for byte.
4. **Zero-pack identity** — without a pack nothing changes: v1 traces
   round-trip byte-identically with no version marker, and canonical
   forms carry ``pack: None``.
"""

import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.cluster.cluster import make_cluster
from repro.cluster.topology import failure_domains
from repro.core.config import DistTrainConfig
from repro.fleet.spec import FleetSpec
from repro.scenarios import (
    PACKS,
    ArrivalProcess,
    DomainFailureEvent,
    EventTrace,
    FaultProfile,
    ScenarioSpec,
    get_pack,
    run_scenario,
)
from tests.scenarios.golden.regen import (
    PACK_GOLDEN_DIR,
    pack_case_inputs,
    pack_fixture,
)

SETTINGS = dict(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)

ARRIVALS = st.one_of(
    st.builds(
        ArrivalProcess,
        kind=st.just("fixed"),
        spacing_s=st.floats(min_value=0.0, max_value=3600.0),
    ),
    st.builds(
        ArrivalProcess,
        kind=st.just("poisson"),
        rate_per_hour=st.floats(min_value=0.1, max_value=100.0),
    ),
    st.builds(
        ArrivalProcess,
        kind=st.just("diurnal"),
        rate_per_hour=st.floats(min_value=0.1, max_value=100.0),
        peak_to_trough=st.floats(min_value=1.0, max_value=20.0),
        period_s=st.floats(min_value=600.0, max_value=172800.0),
    ),
    st.builds(
        ArrivalProcess,
        kind=st.just("bursty"),
        rate_per_hour=st.floats(min_value=0.1, max_value=100.0),
        burst_size=st.integers(min_value=1, max_value=6),
        burst_spacing_s=st.floats(min_value=0.0, max_value=120.0),
    ),
)


class TestArrivalProcess:
    @settings(**SETTINGS)
    @given(
        process=ARRIVALS,
        num_jobs=st.integers(min_value=1, max_value=12),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_deterministic_sorted_nonnegative(self, process, num_jobs, seed):
        first = process.sample(num_jobs, seed)
        assert process.sample(num_jobs, seed) == first
        assert len(first) == num_jobs
        assert all(t >= 0.0 for t in first)
        if process.kind != "bursty":
            # Bursty arrivals are indexed by burst, not globally sorted:
            # the next burst may start before the previous one drains.
            assert list(first) == sorted(first)

    @settings(**SETTINGS)
    @given(
        kind=st.sampled_from(["poisson", "diurnal", "bursty"]),
        rate=st.floats(min_value=0.5, max_value=30.0),
        factor=st.floats(min_value=1.0, max_value=10.0),
        num_jobs=st.integers(min_value=1, max_value=10),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_rate_monotone_per_seed(self, kind, rate, factor, num_jobs, seed):
        """Raising the rate never delays any arrival of the same seed:
        the unit-exponential increments are fixed per seed and only
        scaled (or warped through the cumulative intensity) by the
        rate. Tolerance covers the diurnal bisection's fixed-precision
        inverse."""
        slow = ArrivalProcess(kind=kind, rate_per_hour=rate)
        fast = ArrivalProcess(kind=kind, rate_per_hour=rate * factor)
        for slow_t, fast_t in zip(
            slow.sample(num_jobs, seed), fast.sample(num_jobs, seed)
        ):
            assert fast_t <= slow_t * (1.0 + 1e-9) + 1e-6

    def test_fixed_reproduces_legacy_grid(self):
        process = ArrivalProcess(kind="fixed", spacing_s=120.0)
        assert process.sample(3, seed=9) == (0.0, 120.0, 240.0)

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown arrival kind"):
            ArrivalProcess(kind="weekly")


class TestBlastRadius:
    @settings(**SETTINGS)
    @given(
        num_nodes=st.integers(min_value=1, max_value=12),
        rate=st.floats(min_value=0.5, max_value=8.0),
        rack_fraction=st.floats(min_value=0.0, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        index=st.integers(min_value=0, max_value=7),
    )
    def test_generated_events_name_real_domains(
        self, num_nodes, rate, rack_fraction, seed, index
    ):
        """Every generated correlated event targets a domain that exists
        in the demand cluster, and no domain out-holds the cluster."""
        cluster = make_cluster(num_nodes * 8)
        profile = FaultProfile(
            domain_failure_rate_per_hour=rate,
            rack_fraction=rack_fraction,
            maintenance_every_s=7200.0,
            maintenance_duration_s=1800.0,
        )
        domains = failure_domains(cluster, profile.nodes_per_rack)
        trace = profile.events_for(cluster, 50, seed, index)
        named = [
            event
            for event in trace.timed_events
            if getattr(event, "domain", None) is not None
        ]
        for event in named:
            domain = domains[event.domain]
            assert 0 < domain.num_gpus <= cluster.num_gpus

    @pytest.mark.parametrize("domain", ["rack0", "node5"])
    def test_domain_failure_bounded_by_domain_size(self, domain):
        """Simulating one domain failure never shrinks the job below
        ``demand - domain.num_gpus`` — the blast radius is the domain,
        not the cluster."""
        config = DistTrainConfig.preset("mllm-9b", 48, 16)
        domains = failure_domains(config.cluster)
        spec = ScenarioSpec(
            num_iterations=40,
            checkpoint_interval=10,
            restart_seconds=60.0,
            checkpoint_load_seconds=30.0,
            elastic=True,
            repair_seconds=600.0,
            events=EventTrace(
                [DomainFailureEvent(time_s=30.0, domain=domain)]
            ),
        )
        result = run_scenario(config, spec)
        assert result.num_failures == 1
        assert result.min_gpus >= 48 - domains[domain].num_gpus

    def test_unknown_domain_is_a_no_op(self):
        """A domain absent from the job's current slice has zero blast
        radius: the trace replays against any same-shape slice."""
        config = DistTrainConfig.preset("mllm-9b", 48, 16)
        spec = ScenarioSpec(
            num_iterations=40,
            checkpoint_interval=10,
            restart_seconds=60.0,
            checkpoint_load_seconds=30.0,
            elastic=True,
            events=EventTrace(
                [DomainFailureEvent(time_s=30.0, domain="rack77")]
            ),
        )
        result = run_scenario(config, spec)
        assert result.num_failures == 0
        assert result.min_gpus == 48


class TestFaultProfileTrace:
    def test_trace_with_failures_and_stragglers_is_pinned(self):
        """One generator draws the timed events, then the straggler
        episodes the way the job simulator draws its own; no shipped
        pack sets a straggler rate, so this pins that draw."""
        profile = FaultProfile(
            domain_failure_rate_per_hour=1.5,
            straggler_rate=0.05,
            straggler_iterations=7,
            straggler_slowdown=1.8,
            horizon_s=3 * 3600.0,
        )
        trace = profile.events_for(make_cluster(96), 80, seed=4, index=2)

        def straggler(iteration, rank):
            return {
                "kind": "straggler", "iteration": iteration,
                "duration_iterations": 7, "rank": rank, "slowdown": 1.8,
            }

        assert trace.to_dicts() == [
            {
                "kind": "domain-failure",
                "time_s": 8409.670565264614,
                "domain": "node0",
            },
            {
                "kind": "domain-failure",
                "time_s": 10736.907069429668,
                "domain": "node3",
            },
            straggler(0, 36531),
            straggler(19, 63499),
            straggler(31, 3404),
            straggler(50, 32030),
            straggler(55, 35885),
        ]


class TestPackExpansion:
    def test_materialize_is_deterministic(self):
        config, scenario = pack_case_inputs()
        pack = get_pack("blast-radius")
        first = pack.materialize(
            config, cluster_gpus=96, num_jobs=4, seed=3, scenario=scenario
        )
        again = pack.materialize(
            config, cluster_gpus=96, num_jobs=4, seed=3, scenario=scenario
        )
        assert json.dumps(first) == json.dumps(again)

    def test_build_fleet_clears_sampled_faults(self):
        config, scenario = pack_case_inputs()
        fleet = get_pack("blast-radius").build_fleet(
            config,
            cluster_gpus=96,
            num_jobs=3,
            scenario=scenario.with_(mtbf_gpu_hours=20.0),
        )
        assert fleet.pack == "blast-radius"
        for job in fleet.jobs:
            assert job.scenario.pack == "blast-radius"
            assert job.scenario.mtbf_gpu_hours is None
            assert job.scenario.straggler_rate == 0.0
            assert job.scenario.events is not None

    def test_build_fleet_rejects_scenario_with_events(self):
        config, scenario = pack_case_inputs()
        seeded = scenario.with_(
            events=EventTrace([DomainFailureEvent(time_s=1.0, domain="node0")])
        )
        with pytest.raises(ValueError, match="must not carry one"):
            get_pack("steady").build_fleet(
                config, cluster_gpus=96, num_jobs=2, scenario=seeded
            )

    def test_demand_never_exceeds_cluster(self):
        config, scenario = pack_case_inputs()
        for name in sorted(PACKS):
            fleet = PACKS[name].build_fleet(
                config, cluster_gpus=64, num_jobs=5, scenario=scenario
            )
            assert all(j.demand_gpus <= 64 for j in fleet.jobs)

    def test_get_pack_unknown_name(self):
        with pytest.raises(ValueError, match="unknown scenario pack"):
            get_pack("chaos-monkey")


class TestGoldenReplay:
    @pytest.mark.parametrize("name", sorted(PACKS))
    def test_pack_fixture_replays_byte_identically(self, name):
        path = PACK_GOLDEN_DIR / f"pack_{name}.json"
        expected = json.dumps(pack_fixture(PACKS[name]), indent=1) + "\n"
        assert path.read_text(encoding="utf-8") == expected, (
            f"pack {name!r} golden diverged; re-bless with: "
            "PYTHONPATH=src python -m tests.scenarios.golden.regen"
        )

    @pytest.mark.parametrize("name", sorted(PACKS))
    def test_pack_fixture_events_parse_as_v2_traces(self, name):
        payload = json.loads(
            (PACK_GOLDEN_DIR / f"pack_{name}.json").read_text()
        )
        assert payload["schema"] == 2
        for job in payload["jobs"]:
            trace = EventTrace.from_dicts(job["events"])
            assert not trace.resizes  # packs never script resizes


class TestZeroPackIdentity:
    V1_TEXT = json.dumps(
        {
            "events": [
                {"kind": "failure", "time_s": 60.0, "gpus_lost": 1},
                {
                    "kind": "straggler",
                    "iteration": 3,
                    "duration_iterations": 4,
                    "rank": 1,
                    "slowdown": 1.8,
                },
            ]
        },
        indent=2,
    )

    def test_v1_trace_round_trips_byte_identically(self, tmp_path):
        trace = EventTrace.from_json(self.V1_TEXT)
        assert trace.schema_version == 1
        path = tmp_path / "trace.json"
        trace.to_json(path)
        assert "version" not in json.loads(path.read_text())

    def test_canonical_forms_default_to_no_pack(self, tmp_path):
        assert ScenarioSpec().canonical()["pack"] is None
        config, _ = pack_case_inputs()
        fleet = FleetSpec.homogeneous(config, cluster_gpus=96, num_jobs=2)
        assert fleet.canonical()["pack"] is None
        for job in fleet.canonical()["jobs"]:
            assert job["deadline_s"] is None
            assert job["slo_factor"] is None
