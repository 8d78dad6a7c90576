"""ParallelismUnit rank arithmetic and communication groups."""

import pytest
from hypothesis import given, strategies as st

from repro.models.llm import LLAMA3_7B
from repro.parallelism.plan import ParallelismPlan
from repro.parallelism.unit import CommunicationGroup, ParallelismUnit


def make_unit(tp=2, pp=3, dp=2, offset=16):
    return ParallelismUnit(
        "llm",
        LLAMA3_7B,
        ParallelismPlan(tp=tp, pp=pp, dp=dp),
        gpu_offset=offset,
    )


def all_ranks(unit):
    """``rank_of`` at every (pp, dp, tp) coordinate of the unit."""
    plan = unit.plan
    return [
        unit.rank_of(pp, dp, tp)
        for pp in range(plan.pp)
        for dp in range(plan.dp)
        for tp in range(plan.intra_layer_width)
    ]


class TestRankArithmetic:
    def test_global_ranks(self):
        unit = make_unit()
        assert list(unit.global_ranks) == list(range(16, 28))

    def test_coords_roundtrip(self):
        unit = make_unit()
        assert all_ranks(unit) == list(unit.global_ranks)

    def test_tp_fastest_varying(self):
        unit = make_unit()
        assert unit.rank_of(0, 0, 0) == unit.gpu_offset
        assert unit.rank_of(0, 0, 1) == unit.gpu_offset + 1
        assert unit.rank_of(0, 1, 0) == unit.gpu_offset + 2

    def test_rank_of_bounds(self):
        unit = make_unit()
        with pytest.raises(ValueError):
            unit.rank_of(3, 0, 0)

    @given(
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=1, max_value=4),
    )
    def test_coords_bijective(self, tp, pp, dp):
        unit = ParallelismUnit(
            "u", LLAMA3_7B, ParallelismPlan(tp=tp, pp=pp, dp=dp)
        )
        assert sorted(all_ranks(unit)) == list(range(unit.num_gpus))


class TestGroups:
    def test_group_counts(self):
        unit = make_unit(tp=2, pp=3, dp=2)
        assert len(unit.tp_groups()) == 6  # pp * dp
        assert len(unit.dp_groups()) == 6  # pp * tp
        assert len(unit.pp_groups()) == 4  # dp * tp

    def test_tp_groups_contiguous(self):
        unit = make_unit(tp=4, pp=1, dp=2, offset=0)
        for group in unit.tp_groups():
            ranks = list(group.ranks)
            assert ranks == list(range(ranks[0], ranks[0] + 4))

    def test_groups_partition_ranks(self):
        unit = make_unit()
        for getter in (unit.tp_groups, unit.dp_groups, unit.pp_groups):
            covered = [r for g in getter() for r in g.ranks]
            assert sorted(covered) == list(unit.global_ranks)

    def test_group_kind_validation(self):
        with pytest.raises(ValueError):
            CommunicationGroup("bogus", (1, 2))
        with pytest.raises(ValueError):
            CommunicationGroup("tp", (1, 1))

    def test_boundary_ranks(self):
        unit = make_unit(tp=2, pp=3, dp=2, offset=0)
        first = unit.first_stage_ranks()
        last = unit.last_stage_ranks()
        assert first == [0, 1, 2, 3]
        assert last == [8, 9, 10, 11]

    def test_describe(self):
        assert "llm" in make_unit().describe()
