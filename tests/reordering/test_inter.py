"""Algorithm 2 (inter-microbatch reordering) tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from repro.pipeline.kernel import get_kernel
from repro.pipeline.schedules import ScheduleKind
from repro.reordering.baselines import random_order, sorted_order
from repro.reordering.inter import (
    InterReorderer,
    MicrobatchCostModel,
    _construct,
    _microbatch_sizes,
    reorder_ranks,
)


def heterogeneous_costs(l=16, p=4, seed=0, encoder_sigma=0.6):
    """LLM-like pipeline: uniform mid stages, skewed first stage."""
    rng = np.random.default_rng(seed)
    fwd = np.ones((l, p))
    fwd[:, 0] = rng.lognormal(0.0, encoder_sigma, l)
    bwd = 2.0 * fwd
    return MicrobatchCostModel(fwd=fwd, bwd=bwd)


class TestCostModel:
    def test_shape_validation(self):
        with pytest.raises(ValueError):
            MicrobatchCostModel(fwd=np.ones((4, 3)), bwd=np.ones((4, 2)))
        with pytest.raises(ValueError):
            MicrobatchCostModel(fwd=np.ones(4), bwd=np.ones(4))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MicrobatchCostModel(fwd=-np.ones((2, 2)), bwd=np.ones((2, 2)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("table", ["fwd", "bwd"])
    def test_non_finite_durations_rejected(self, bad, table):
        tables = {"fwd": np.ones((4, 3)), "bwd": np.ones((4, 3))}
        tables[table][1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            MicrobatchCostModel(**tables)

    def test_all_nan_table_rejected(self):
        nan = np.full((4, 3), np.nan)
        with pytest.raises(ValueError, match="finite"):
            MicrobatchCostModel(fwd=nan, bwd=nan)

    @pytest.mark.parametrize("comm", [-1.0, -1e-12, np.nan, np.inf])
    def test_bad_comm_rejected(self, comm):
        with pytest.raises(ValueError, match="comm"):
            MicrobatchCostModel(np.ones((4, 3)), np.ones((4, 3)), comm=comm)

    def test_accessors(self):
        cm = heterogeneous_costs(l=6, p=3)
        assert cm.num_microbatches == 6
        assert cm.num_stages == 3
        assert _microbatch_sizes(cm.fwd[None], cm.bwd[None])[0][0] > 0


class TestReorder:
    def test_returns_permutation(self):
        reorderer = InterReorderer(heterogeneous_costs())
        order = reorderer.reorder()
        assert sorted(order) == list(range(16))

    def test_smallest_first(self):
        costs = heterogeneous_costs()
        order = InterReorderer(costs).reorder()
        smallest = min(range(16), key=costs.first_stage_fwd)
        assert order[0] == smallest

    def test_rear_holds_small_microbatches(self):
        """The last p-1 positions hold small microbatches (their
        intervals are structurally unfillable)."""
        costs = heterogeneous_costs(l=20, p=4, seed=3)
        order = InterReorderer(costs).reorder()
        rear = order[-3:]
        sizes = sorted(range(20), key=costs.first_stage_fwd)
        assert set(rear) <= set(sizes[:6])

    def test_tiny_inputs_passthrough(self):
        costs = heterogeneous_costs(l=2, p=4)
        assert InterReorderer(costs).reorder() == [0, 1]

    def test_reorder_items_alignment(self):
        costs = heterogeneous_costs(l=6, p=3)
        items = [f"mb{i}" for i in range(6)]
        reordered = InterReorderer(costs).reorder_items(items)
        assert sorted(reordered) == sorted(items)

    def test_reorder_items_length_mismatch(self):
        costs = heterogeneous_costs(l=6, p=3)
        with pytest.raises(ValueError):
            InterReorderer(costs).reorder_items(["a"])

    def test_invalid_vpp(self):
        with pytest.raises(ValueError):
            InterReorderer(heterogeneous_costs(), vpp=0)


class TestEvaluate:
    """A uniform 6-microbatch model: every permutation prices 24.0."""

    reorderer = InterReorderer(MicrobatchCostModel(
        np.ones((6, 3)), 2.0 * np.ones((6, 3))
    ))

    def test_permutation_priced(self):
        assert self.reorderer.evaluate(range(6)) == 24.0
        assert self.reorderer.evaluate([5, 4, 3, 2, 1, 0]) == 24.0

    @pytest.mark.parametrize("order", [
        [0, 1],                # a prefix
        [0] * 6,               # repeats
        [0, 1, 2, 3, 4, -1],   # a negative index
        list(range(7)),        # an index out of range
        [],
    ])
    def test_non_permutation_rejected(self, order):
        with pytest.raises(ValueError, match="permutation"):
            self.reorderer.evaluate(order)


class TestEffectiveness:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_no_worse_than_descending_order(self, seed):
        """Descending order front-loads stragglers — the adversarial
        case Figure 7 illustrates. Algorithm 2 must beat it."""
        costs = heterogeneous_costs(l=24, p=4, seed=seed, encoder_sigma=0.9)
        reorderer = InterReorderer(costs)
        ours = reorderer.evaluate(reorderer.reorder())
        worst = reorderer.evaluate(
            sorted_order(
                list(range(24)),
                size=costs.first_stage_fwd,
                descending=True,
            )
        )
        assert ours <= worst + 1e-9

    def test_competitive_with_random_on_average(self):
        costs = heterogeneous_costs(l=24, p=4, seed=5, encoder_sigma=0.9)
        reorderer = InterReorderer(costs)
        ours = reorderer.evaluate(reorderer.reorder())
        randoms = [
            reorderer.evaluate(random_order(list(range(24)), seed=s))
            for s in range(8)
        ]
        assert ours <= np.mean(randoms) * 1.02


class TestVPP:
    def test_vpp_reorder_valid_permutation(self):
        costs = heterogeneous_costs(l=16, p=4)
        order = InterReorderer(costs, vpp=2).reorder()
        assert sorted(order) == list(range(16))

    def test_vpp_evaluation_runs(self):
        costs = heterogeneous_costs(l=16, p=4)
        reorderer = InterReorderer(costs, vpp=2)
        assert reorderer.evaluate(list(range(16))) > 0


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=0, max_value=10_000))
def test_reorder_always_permutation(seed):
    rng = np.random.default_rng(seed)
    l = int(rng.integers(3, 20))
    p = int(rng.integers(2, 6))
    fwd = rng.uniform(0.1, 3.0, (l, p))
    bwd = rng.uniform(0.1, 5.0, (l, p))
    order = InterReorderer(MicrobatchCostModel(fwd, bwd)).reorder()
    assert sorted(order) == list(range(l))


def _lockstep_costs(seed, l, p, comm):
    """Seeded cost model; odd seeds draw integer stage times, so many
    microbatch sizes tie and tie-breaking is exercised."""
    rng = np.random.default_rng(seed)
    if seed % 2:
        fwd = rng.integers(1, 4, (l, p)).astype(float)
        bwd = 2.0 * fwd
    else:
        fwd = rng.uniform(0.1, 3.0, (l, p))
        bwd = rng.uniform(0.1, 5.0, (l, p))
    return MicrobatchCostModel(fwd, bwd, comm)


#: (seed, l, p, vpp, comm, order): the orders the per-rank
#: implementation (one kernel call per placed prefix) returned for
#: these models before ranks were reordered in lockstep.
RECORDED_ORDERS = [
    (0, 3, 2, 1, 0.0, [1, 2, 0]),
    (1, 3, 2, 1, 0.05, [2, 1, 0]),
    (2, 3, 2, 1, 0.4, [0, 2, 1]),
    (3, 8, 4, 1, 0.0, [2, 0, 3, 4, 6, 1, 5, 7]),
    (4, 8, 4, 1, 0.05, [1, 0, 2, 7, 5, 3, 6, 4]),
    (5, 8, 4, 1, 0.4, [3, 4, 1, 2, 5, 6, 0, 7]),
    (6, 12, 3, 2, 0.0, [7, 3, 4, 6, 10, 8, 9, 1, 2, 0, 5, 11]),
    (7, 12, 3, 2, 0.05, [11, 0, 1, 5, 8, 4, 6, 9, 10, 2, 3, 7]),
    (8, 12, 3, 2, 0.4, [8, 7, 9, 4, 10, 2, 3, 6, 5, 11, 1, 0]),
    (9, 24, 6, 1, 0.0, [1, 8, 5, 7, 2, 3, 6, 10, 15, 18, 0, 4, 9, 14, 20,
                        11, 17, 22, 12, 13, 16, 23, 21, 19]),
    (10, 24, 6, 1, 0.05, [19, 10, 23, 3, 15, 4, 8, 22, 17, 9, 20, 12, 2, 5,
                          18, 6, 16, 1, 0, 21, 11, 13, 14, 7]),
    (11, 24, 6, 1, 0.4, [13, 6, 11, 10, 0, 23, 1, 2, 4, 21, 3, 5, 12, 17,
                         22, 8, 14, 15, 9, 16, 18, 7, 19, 20]),
    (12, 10, 5, 2, 0.0, [6, 8, 5, 3, 2, 0, 1, 9, 7, 4]),
    (13, 10, 5, 2, 0.05, [8, 0, 9, 4, 6, 2, 1, 5, 3, 7]),
    (14, 10, 5, 2, 0.4, [1, 7, 2, 3, 6, 4, 0, 9, 5, 8]),
    (15, 7, 2, 2, 0.0, [3, 4, 5, 0, 1, 6, 2]),
    (16, 7, 2, 2, 0.05, [5, 2, 1, 4, 6, 3, 0]),
    (17, 7, 2, 2, 0.4, [1, 2, 5, 3, 6, 0, 4]),
    (18, 16, 4, 2, 0.0, [5, 12, 10, 15, 2, 13, 6, 9, 4, 11, 0, 8, 3, 1, 7,
                         14]),
    (19, 16, 4, 2, 0.05, [7, 8, 0, 3, 4, 5, 6, 9, 12, 14, 11, 13, 1, 2, 15,
                          10]),
    (20, 16, 4, 2, 0.4, [8, 2, 6, 7, 13, 15, 12, 5, 11, 9, 3, 4, 14, 0, 10,
                         1]),
]


class TestLockstep:
    """``reorder_ranks`` prices every rank's prefix in one kernel sweep
    per step; each rank must still get exactly its own order."""

    @pytest.mark.parametrize(
        "seed,l,p,vpp,comm,expected", RECORDED_ORDERS,
        ids=[f"seed{case[0]}" for case in RECORDED_ORDERS],
    )
    def test_single_rank_matches_recorded(self, seed, l, p, vpp, comm,
                                          expected):
        costs = _lockstep_costs(seed, l, p, comm)
        assert reorder_ranks([costs], vpp) == [expected]
        assert InterReorderer(costs, vpp=vpp).reorder() == expected

    def test_same_shape_groups_match_recorded(self):
        groups = {}
        for seed, l, p, vpp, comm, expected in RECORDED_ORDERS:
            groups.setdefault((l, p, vpp), []).append(
                (_lockstep_costs(seed, l, p, comm), expected)
            )
        assert all(len(members) == 3 for members in groups.values())
        for (_, _, vpp), members in groups.items():
            costs = [c for c, _ in members]
            expected = [order for _, order in members]
            assert reorder_ranks(costs, vpp) == expected
            # Rank order within the group does not matter.
            assert reorder_ranks(costs[::-1], vpp) == expected[::-1]

    def test_identical_ranks_get_identical_orders(self):
        costs = heterogeneous_costs(l=12, p=4, seed=7)
        orders = reorder_ranks([costs] * 5)
        assert orders == [InterReorderer(costs).reorder()] * 5

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="shape"):
            reorder_ranks([heterogeneous_costs(l=8, p=4),
                           heterogeneous_costs(l=8, p=3)])
        with pytest.raises(ValueError, match="shape"):
            reorder_ranks([heterogeneous_costs(l=8, p=4),
                           heterogeneous_costs(l=12, p=4)])

    def test_invalid_vpp_and_empty(self):
        with pytest.raises(ValueError):
            reorder_ranks([heterogeneous_costs()], vpp=0)
        assert reorder_ranks([]) == []


def _first_interval(costs, prefix, vpp):
    """GETINTERVAL on a whole placed prefix, read off its trace: the
    first stage-0 gap's length, and where it ends: ``"body"`` or
    ``"drain"`` (before or in stage 0's drain under plain 1F1B),
    ``"nowhere"``, or ``"early"`` (``vpp > 1`` or ``k < p - 1``)."""
    p, k = costs.num_stages, len(prefix)
    if vpp > 1 and k % p == 0:
        kernel = get_kernel(ScheduleKind.INTERLEAVED, p, k, vpp)
        scale = 1.0 / vpp
    else:
        kernel = get_kernel(ScheduleKind.ONE_F_ONE_B, p, k)
        scale = 1.0
    # The placed microbatches' rows, as [stage][position] tables.
    durations = kernel.durations_from_tables(
        costs.fwd[prefix].T, costs.bwd[prefix].T
    ) * scale
    start, end = kernel.evaluate(durations, costs.comm)
    records = kernel.trace(start, end).stage_records(0)
    for i in range(1, len(records)):
        if records[i].start > records[i - 1].end + 1e-12:
            if vpp > 1 or k < p - 1:
                where = "early"
            else:
                where = "body" if i < 2 * k - p + 1 else "drain"
            return records[i].start - records[i - 1].end, where
    return 0.0, "nowhere"


def _select_closest(candidates, k, interval, size):
    """Oracle ``SELECTCLOSEST``, one rank at a time: for ``k == 1`` the
    nearest size by a ``min`` scan over the ascending candidates (ties
    to the first); for ``k > 1`` the greedy descending pass, topped up
    with the smallest leftovers."""
    if k == 1:
        return [min(candidates, key=lambda j: abs(size[j] - interval))]
    ordered = sorted(candidates, key=size.__getitem__, reverse=True)
    chosen = []
    total = 0.0
    for j in ordered:
        if len(chosen) == k:
            break
        if total + size[j] <= interval or not chosen:
            chosen.append(j)
            total += size[j]
    if len(chosen) < k:
        leftovers = [j for j in reversed(ordered) if j not in chosen]
        chosen.extend(leftovers[: k - len(chosen)])
    return chosen


def _resweeping_construct(costs, vpp, found=None):
    """Oracle: one rank's Algorithm 2 construction, pricing its whole
    placed prefix at every step. ``found`` collects where each step's
    gap lies."""
    l, p = costs.fwd.shape
    size = [float(costs.fwd[j].sum() + costs.bwd[j].sum()) for j in range(l)]
    key = size.__getitem__
    order = list(range(l))
    if l > 2 and p > 1:
        rest = list(range(l))
        first = min(rest, key=key)
        rest.remove(first)
        rear = sorted(rest, key=key)[: p - 1]
        rest = [j for j in rest if j not in rear]
        order = [first]
        count = min(p - 1, len(rest))
        while rest:
            interval, where = _first_interval(costs, order, vpp)
            if found is not None:
                found.append(where)
            chosen = _select_closest(rest, count, interval, size)
            order += chosen
            rest = [j for j in rest if j not in chosen]
            count = 1
        order += rear
    return order


def _resweeping_reorder(costs, vpp, found=None):
    """Oracle: :func:`_resweeping_construct`, then the portfolio
    guard."""
    l = costs.num_microbatches
    size = [float(costs.fwd[j].sum() + costs.bwd[j].sum()) for j in range(l)]
    key = size.__getitem__
    order = _resweeping_construct(costs, vpp, found)
    portfolio = [
        order,
        list(range(l)),
        sorted(range(l), key=key),
        sorted(range(l), key=key, reverse=True),
    ]
    reorderer = InterReorderer(costs, vpp)
    makespans = [reorderer.evaluate(candidate) for candidate in portfolio]
    return portfolio[makespans.index(min(makespans))]


COST_STYLES = (
    "uniform", "integer-ties", "fwd-heavy-first", "stage0-heavy",
    "zero-durations", "bwd-heavy-last",
)
COMMS = (0.0, 0.01, 0.3, 2.0, 10.0)


def _styled_costs(style, seed, l, p, comm):
    rng = np.random.default_rng(seed)
    if style == "integer-ties":
        fwd = rng.integers(1, 4, (l, p)).astype(float)
        bwd = 2.0 * fwd
    else:
        fwd = rng.uniform(0.1, 3.0, (l, p))
        bwd = rng.uniform(0.1, 5.0, (l, p))
    if style in ("fwd-heavy-first", "stage0-heavy"):
        fwd[:, 0] *= 20.0
    if style == "stage0-heavy":
        bwd[:, 0] *= 20.0
    elif style == "zero-durations":
        zero_frac = rng.uniform()
        fwd[rng.uniform(size=(l, p)) < zero_frac] = 0.0
        bwd[rng.uniform(size=(l, p)) < zero_frac] = 0.0
    elif style == "bwd-heavy-last":
        bwd[:, -1] *= 20.0
    return MicrobatchCostModel(fwd, bwd, comm)


@st.composite
def _rank_groups(draw):
    """Same-shape ranks of mixed cost styles, so ranks whose interval
    is final share lockstep steps with ranks still open."""
    l = draw(st.integers(min_value=3, max_value=48))
    p = draw(st.integers(min_value=2, max_value=8))
    vpp = draw(st.integers(min_value=1, max_value=3))
    ranks = draw(st.lists(
        st.tuples(
            st.sampled_from(COST_STYLES),
            st.integers(min_value=0, max_value=2**32 - 1),
            st.sampled_from(COMMS),
        ),
        min_size=1, max_size=5,
    ))
    return [_styled_costs(style, seed, l, p, comm)
            for style, seed, comm in ranks], vpp


@settings(max_examples=60, deadline=None)
@given(_rank_groups())
# A vpp = 1 gap that ends at stage 0's first drain op.
@example(([_styled_costs("zero-durations", 2, 9, 2, 2.0)], 1))
# At vpp > 1 the prefixes alternate between interleaved and 1F1B kernels.
@example(([_styled_costs("uniform", 1, 12, 3, 2.0)], 2))
@example(([_styled_costs("zero-durations", 2, 9, 3, 2.0)], 3))
def test_reorder_ranks_matches_resweeping_oracle(group):
    costs, vpp = group
    assert reorder_ranks(costs, vpp) == [
        _resweeping_reorder(c, vpp) for c in costs
    ]


#: (where, style, seed, l, p, comm): vpp = 1 models with a step whose
#: first stage-0 gap lies in the body, in the drain, or nowhere.
GAP_CASES = [
    ("body", "uniform", 0, 16, 4, 0.3),
    ("drain", "fwd-heavy-first", 0, 16, 4, 0.0),
    ("nowhere", "stage0-heavy", 0, 16, 4, 0.0),
]


@pytest.mark.parametrize(
    "where,style,seed,l,p,comm", GAP_CASES, ids=[c[0] for c in GAP_CASES]
)
def test_gap_location_matches_resweeping_oracle(where, style, seed, l, p,
                                                comm):
    costs = _styled_costs(style, seed, l, p, comm)
    found = []
    assert reorder_ranks([costs]) == [_resweeping_reorder(costs, 1, found)]
    assert where in found


def test_mixed_gap_locations_in_lockstep():
    costs = [_styled_costs(*case[1:]) for case in GAP_CASES]
    assert reorder_ranks(costs) == [_resweeping_reorder(c, 1) for c in costs]


@st.composite
def _tied_rank_groups(draw):
    """Same-shape ranks whose durations and delay come from a few small
    integers, so microbatch sizes tie with each other and sit at equal
    distances on both sides of an interval."""
    l = draw(st.integers(min_value=3, max_value=24))
    p = draw(st.integers(min_value=2, max_value=6))
    vpp = draw(st.integers(min_value=1, max_value=2))
    values = np.array(draw(st.lists(
        st.sampled_from([0.0, 1.0, 2.0, 3.0, 4.0]),
        min_size=1, max_size=3, unique=True,
    )))
    costs = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        comm = draw(st.sampled_from([0.0, 1.0, 2.0]))
        costs.append(MicrobatchCostModel(
            rng.choice(values, (l, p)), rng.choice(values, (l, p)), comm
        ))
    return costs, vpp


@settings(max_examples=80, deadline=None)
@given(_tied_rank_groups())
def test_lockstep_selection_matches_per_rank_scan(group):
    """Single picks run as one masked ``argmin`` over every rank; each
    rank's construction must equal the per-rank ``min`` scan's."""
    costs, vpp = group
    fwd = np.stack([c.fwd for c in costs])
    bwd = np.stack([c.bwd for c in costs])
    comm = np.array([c.comm for c in costs])
    got = _construct(fwd, bwd, comm, _microbatch_sizes(fwd, bwd), vpp)
    assert got == [_resweeping_construct(c, vpp) for c in costs]
