"""Event model and trace-schema tests."""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.scenarios.events import (
    DomainFailureEvent,
    EventTrace,
    FailureEvent,
    MaintenanceEvent,
    ResizeEvent,
    SpotReclaimEvent,
    StragglerEvent,
)


class TestEventValidation:
    def test_failure_rejects_negative_time(self):
        with pytest.raises(ValueError):
            FailureEvent(time_s=-1.0)

    def test_failure_rejects_zero_gpus(self):
        with pytest.raises(ValueError):
            FailureEvent(time_s=0.0, gpus_lost=0)

    def test_straggler_rejects_speedup(self):
        with pytest.raises(ValueError):
            StragglerEvent(
                iteration=0, duration_iterations=5, rank=0, slowdown=0.9
            )

    def test_straggler_rejects_empty_window(self):
        with pytest.raises(ValueError):
            StragglerEvent(
                iteration=0, duration_iterations=0, rank=0, slowdown=1.5
            )

    def test_straggler_end_iteration(self):
        episode = StragglerEvent(
            iteration=10, duration_iterations=5, rank=2, slowdown=2.0
        )
        assert episode.end_iteration == 15

    def test_resize_rejects_zero_gpus(self):
        with pytest.raises(ValueError):
            ResizeEvent(iteration=1, num_gpus=0)

    def test_domain_failure_needs_a_domain(self):
        with pytest.raises(ValueError):
            DomainFailureEvent(time_s=10.0, domain="")
        with pytest.raises(ValueError):
            DomainFailureEvent(time_s=-1.0, domain="rack0")

    def test_spot_reclaim_rejects_bad_window(self):
        with pytest.raises(ValueError):
            SpotReclaimEvent(time_s=10.0, gpus=0)
        with pytest.raises(ValueError):
            SpotReclaimEvent(time_s=10.0, gpus=8, duration_s=0.0)

    def test_maintenance_rejects_bad_window(self):
        with pytest.raises(ValueError):
            MaintenanceEvent(time_s=10.0, duration_s=0.0, domain="rack0")
        with pytest.raises(ValueError):
            MaintenanceEvent(time_s=10.0, duration_s=60.0, domain="")

    @pytest.mark.parametrize("record", [
        pytest.param(
            {"kind": "straggler", "iteration": 0, "duration_iterations": 5,
             "rank": 1, "slowdown": math.nan},
            id="straggler-slowdown-nan",
        ),
        pytest.param(
            {"kind": "straggler", "iteration": 0, "duration_iterations": 5,
             "rank": 1, "slowdown": math.inf},
            id="straggler-slowdown-inf",
        ),
        pytest.param(
            {"kind": "failure", "time_s": math.nan}, id="failure-time-nan"
        ),
        pytest.param(
            {"kind": "domain-failure", "time_s": math.nan, "domain": "rack0"},
            id="domain-failure-time-nan",
        ),
        pytest.param(
            {"kind": "spot-reclaim", "time_s": math.nan},
            id="spot-reclaim-time-nan",
        ),
        pytest.param(
            {"kind": "spot-reclaim", "time_s": 10.0, "duration_s": math.nan},
            id="spot-reclaim-duration-nan",
        ),
        pytest.param(
            {"kind": "maintenance", "time_s": math.nan, "duration_s": 60.0,
             "domain": "rack0"},
            id="maintenance-time-nan",
        ),
        pytest.param(
            {"kind": "maintenance", "time_s": 10.0, "duration_s": math.nan,
             "domain": "rack0"},
            id="maintenance-duration-nan",
        ),
    ])
    def test_rejects_non_finite(self, record):
        # Python's json writes and reads NaN and Infinity, so a trace
        # file can carry them; a NaN slowdown would silently price as no
        # slowdown at all.
        with pytest.raises(ValueError):
            EventTrace.from_json(json.dumps({"events": [record]}))


class TestEventTrace:
    def trace(self) -> EventTrace:
        return EventTrace([
            StragglerEvent(
                iteration=3, duration_iterations=4, rank=1, slowdown=1.8
            ),
            FailureEvent(time_s=120.0, gpus_lost=8),
            ResizeEvent(iteration=50, num_gpus=40),
            FailureEvent(time_s=60.0),
        ])

    def test_rejects_non_events(self):
        with pytest.raises(TypeError):
            EventTrace(["failure at noon"])

    def test_selectors_sorted_by_kind(self):
        trace = self.trace()
        assert [f.time_s for f in trace.failures] == [60.0, 120.0]
        assert [s.iteration for s in trace.stragglers] == [3]
        assert [r.num_gpus for r in trace.resizes] == [40]

    def test_json_round_trip(self, tmp_path):
        trace = self.trace()
        path = tmp_path / "trace.json"
        trace.to_json(path)
        loaded = EventTrace.from_json(path)
        assert loaded.events == trace.events

    def test_from_json_accepts_inline_text(self):
        text = self.trace().to_json()
        assert EventTrace.from_json(text).events == self.trace().events

    def test_from_dicts_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown event kind"):
            EventTrace.from_dicts([{"kind": "meteor", "time_s": 1.0}])

    def test_dicts_carry_kind_tag(self):
        kinds = {record["kind"] for record in self.trace().to_dicts()}
        assert kinds == {"failure", "straggler", "resize"}

    def test_empty_trace_is_falsy(self):
        assert not EventTrace()
        assert len(EventTrace()) == 0


class TestSchemaV2:
    def trace(self) -> EventTrace:
        return EventTrace([
            SpotReclaimEvent(time_s=300.0, gpus=8, duration_s=1200.0),
            DomainFailureEvent(time_s=90.0, domain="rack1"),
            FailureEvent(time_s=120.0, gpus_lost=2),
            MaintenanceEvent(time_s=30.0, duration_s=600.0, domain="rack0"),
        ])

    def test_v1_only_trace_has_no_version_marker(self):
        import json

        text = EventTrace([FailureEvent(time_s=60.0)]).to_json()
        assert "version" not in json.loads(text)

    def test_v2_trace_carries_version_marker(self):
        import json

        payload = json.loads(self.trace().to_json())
        assert payload["version"] == 2
        assert self.trace().schema_version == 2

    def test_v2_round_trip(self, tmp_path):
        trace = self.trace()
        path = tmp_path / "trace.json"
        trace.to_json(path)
        assert EventTrace.from_json(path).events == trace.events

    def test_timed_events_sorted_across_kinds(self):
        kinds = [type(e).__name__ for e in self.trace().timed_events]
        assert kinds == [
            "MaintenanceEvent",
            "DomainFailureEvent",
            "FailureEvent",
            "SpotReclaimEvent",
        ]

    def test_selectors(self):
        trace = self.trace()
        assert [d.domain for d in trace.domain_failures] == ["rack1"]
        assert len(trace.outages) == 2

    def test_from_json_rejects_unknown_version(self):
        with pytest.raises(ValueError, match="version"):
            EventTrace.from_json('{"version": 9, "events": []}')


class TestFromJsonSources:
    def test_accepts_bare_array_payload(self):
        trace = EventTrace.from_json(
            '[{"kind": "failure", "time_s": 5.0, "gpus_lost": 1}]'
        )
        assert [f.time_s for f in trace.failures] == [5.0]

    def test_rejects_unreadable_source_with_clear_error(self):
        with pytest.raises(ValueError, match="neither inline JSON"):
            EventTrace.from_json("/no/such/trace.json")

    def test_rejects_non_list_payload(self):
        with pytest.raises(ValueError):
            EventTrace.from_json('{"events": {"kind": "failure"}}')


class TestMalformedRecords:
    """Records that used to escape the parser as ``TypeError`` (or,
    for a fractional iteration, crash the simulator much later) are
    rejected at the parse boundary with a ``ValueError`` naming the
    record's index and kind."""

    STRAGGLER = {"kind": "straggler", "iteration": 1,
                 "duration_iterations": 2, "rank": 0, "slowdown": 1.5}

    @pytest.mark.parametrize("records, message", [
        pytest.param([5], "event record 0 is not an object", id="number"),
        pytest.param([None], "event record 0 is not an object", id="null"),
        pytest.param(
            [{"kind": "failure", "time_s": 1.0}, {"kind": "failure"}],
            r"event record 1 \(failure\): missing field\(s\) \['time_s'\]",
            id="missing-time",
        ),
        pytest.param(
            [{"kind": "resize", "iteration": 1, "num_gpus": 8, "gpus": 8}],
            r"event record 0 \(resize\): unknown field\(s\) \['gpus'\]",
            id="unknown-field",
        ),
        pytest.param(
            [{"kind": "failure", "time_s": "x"}],
            r"\(failure\): time_s must be a number, got 'x'",
            id="string-time",
        ),
        pytest.param(
            [{"kind": "resize", "iteration": 1, "num_gpus": None}],
            r"\(resize\): num_gpus must be an integer, got None",
            id="null-gpus",
        ),
        pytest.param(
            [dict(STRAGGLER, iteration=1.5)],
            r"\(straggler\): iteration must be an integer, got 1.5",
            id="fractional-iteration",
        ),
        pytest.param(
            [dict(STRAGGLER, rank=True)],
            r"\(straggler\): rank must be an integer, got True",
            id="bool-rank",
        ),
        pytest.param(
            [dict(STRAGGLER, slowdown=False)],
            r"\(straggler\): slowdown must be a number, got False",
            id="bool-slowdown",
        ),
        pytest.param(
            [{"kind": "domain-failure", "time_s": 1.0, "domain": 3}],
            r"\(domain-failure\): domain must be a string, got 3",
            id="numeric-domain",
        ),
        pytest.param(
            [{"kind": ["failure"], "time_s": 1.0}],
            "event record 0: unknown event kind",
            id="unhashable-kind",
        ),
        pytest.param(
            [{"kind": "failure", "time_s": -1.0}],
            r"event record 0 \(failure\): failure time must be",
            id="event-own-check",
        ),
    ])
    def test_rejected_with_index_and_kind(self, records, message):
        with pytest.raises(ValueError, match=message):
            EventTrace.from_json(json.dumps({"events": records}))


_KIND_FIELDS = {
    "failure": ("time_s", "gpus_lost"),
    "straggler": ("iteration", "duration_iterations", "rank", "slowdown"),
    "resize": ("iteration", "num_gpus"),
    "domain-failure": ("time_s", "domain"),
    "spot-reclaim": ("time_s", "gpus", "duration_s"),
    "maintenance": ("time_s", "duration_s", "domain"),
}

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=10**6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
)

_JSON = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=6), children, max_size=4),
    ),
    max_leaves=10,
)

#: Records of a known kind whose fields are each present or not, with
#: a scalar of any type — the near-valid inputs the parser must sort.
_RECORDS = st.sampled_from(sorted(_KIND_FIELDS)).flatmap(
    lambda kind: st.fixed_dictionaries(
        {"kind": st.just(kind)},
        optional={
            name: _SCALARS for name in _KIND_FIELDS[kind] + ("bogus",)
        },
    )
)

_EVENT_LISTS = st.lists(st.one_of(_RECORDS, _JSON), max_size=5)

_DOCUMENTS = st.one_of(
    _JSON,
    _EVENT_LISTS,
    st.fixed_dictionaries(
        {"events": _EVENT_LISTS},
        optional={"version": st.one_of(st.sampled_from([1, 2]), _JSON)},
    ),
)


@settings(
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(document=_DOCUMENTS)
def test_any_json_document_parses_and_round_trips_or_raises_value_error(
    document,
):
    try:
        trace = EventTrace.from_json(json.dumps(document))
    except ValueError:
        return
    text = trace.to_json()
    again = EventTrace.from_json(text)
    assert again == trace
    assert again.to_json() == text

