"""Policy target computation in isolation (no engine, no simulators)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.allocation import GPUAllocator
from repro.cluster.cluster import make_cluster
from repro.fleet.policies import (
    ElasticFairSharePolicy,
    FIFOExclusivePolicy,
    JobView,
    PriorityPreemptivePolicy,
)


def view(name, demand, held=0, running=False, priority=0, order=0):
    return JobView(
        name=name,
        demand_gpus=demand,
        min_gpus=8,
        priority=priority,
        arrival_order=order,
        allocated_gpus=held,
        running=running,
    )


def allocator(total=96, carved=()):
    alloc = GPUAllocator(make_cluster(total))
    for owner, gpus in carved:
        alloc.carve(owner, gpus)
    return alloc


class TestFIFO:
    def test_never_seats_on_a_sliver(self):
        # 8 GPUs free; the queued job's capped demand is 24 — it waits.
        targets = FIFOExclusivePolicy().targets(
            0.0,
            [
                view("a", 16, held=16, running=True, order=0),
                view("b", 48, order=1),
            ],
            allocator(24, carved=[("a", 16)]),
        )
        assert targets == {"a": 16, "b": 0}

    def test_seats_capped_demand_when_cluster_is_free(self):
        targets = FIFOExclusivePolicy().targets(
            0.0, [view("b", 48)], allocator(24)
        )
        assert targets == {"b": 24}

    def test_head_of_line_blocking(self):
        # A later small arrival may not jump past a blocked head job —
        # that would let a stream of small jobs starve a big one.
        targets = FIFOExclusivePolicy().targets(
            0.0,
            [
                view("running", 48, held=48, running=True, order=0),
                view("big", 96, order=1),
                view("small", 24, order=2),
            ],
            allocator(96, carved=[("running", 48)]),
        )
        assert targets == {"running": 48, "big": 0, "small": 0}


class TestFairShare:
    def test_equal_demands_split_evenly(self):
        targets = ElasticFairSharePolicy().targets(
            0.0,
            [view(f"j{i}", 48, order=i) for i in range(4)],
            allocator(96),
        )
        assert all(t == 24 for t in targets.values())

    def test_max_min_equalizes_allocations_not_deficits(self):
        # A 96-demand whale next to a 48-demand job: max-min gives the
        # small job its near-even share instead of feeding the whale's
        # larger deficit.
        targets = ElasticFairSharePolicy().targets(
            0.0,
            [view("whale", 96, order=0), view("small", 48, order=1)],
            allocator(88),
        )
        assert targets["small"] == 40
        assert targets["whale"] == 48

    def test_satisfied_jobs_cede_leftovers(self):
        targets = ElasticFairSharePolicy().targets(
            0.0,
            [view("a", 16, order=0), view("b", 96, order=1)],
            allocator(96),
        )
        assert targets == {"a": 16, "b": 80}


def reference_fair_share(jobs, alloc):
    """The O(nodes x jobs) max-min refill the heap replaced: one node at
    a time to the admitted job with the smallest allocation still below
    its demand (FIFO tie-break)."""
    node = alloc.gpus_per_node
    budget = alloc.free_gpus + sum(
        j.allocated_gpus for j in jobs if j.running
    )
    out = {j.name: 0 for j in jobs}
    admitted = []
    for job in sorted(jobs, key=lambda j: j.fifo_key):
        floor = min(job.min_gpus, job.demand_gpus)
        if budget >= floor:
            out[job.name] = floor
            budget -= floor
            admitted.append(job)
    while budget >= node:
        wanting = [j for j in admitted if out[j.name] < j.demand_gpus]
        if not wanting:
            break
        best = min(wanting, key=lambda j: (out[j.name],) + j.fifo_key)
        out[best.name] += node
        budget -= node
    return out


@st.composite
def fair_share_inputs(draw):
    rows = draw(st.lists(
        st.tuples(
            st.integers(1, 100),  # demand GPUs (not always whole nodes)
            st.integers(1, 4),    # floor, in nodes
            st.integers(0, 6),    # nodes held while running
        ),
        min_size=1,
        max_size=12,
    ))
    orders = draw(st.permutations(range(len(rows))))
    free_nodes = draw(st.integers(0, 30))
    jobs = [
        JobView(
            name=f"j{i}",
            demand_gpus=demand,
            min_gpus=8 * floor,
            priority=0,
            arrival_order=orders[i],
            allocated_gpus=8 * held,
            running=held > 0,
        )
        for i, (demand, floor, held) in enumerate(rows)
    ]
    carved = [(j.name, j.allocated_gpus) for j in jobs if j.running]
    total = 8 * free_nodes + sum(gpus for _, gpus in carved)
    return jobs, allocator(max(total, 8), carved=carved)


class TestFairShareHeap:
    @settings(max_examples=200, deadline=None)
    @given(inputs=fair_share_inputs())
    def test_matches_brute_force_refill(self, inputs):
        jobs, alloc = inputs
        assert ElasticFairSharePolicy().targets(0.0, jobs, alloc) == (
            reference_fair_share(jobs, alloc)
        )


class TestPriority:
    def test_high_takes_demand_low_shrinks(self):
        targets = PriorityPreemptivePolicy().targets(
            0.0,
            [
                view("low", 64, held=64, running=True, priority=0, order=0),
                view("high", 48, priority=1, order=1),
            ],
            allocator(96, carved=[("low", 64)]),
        )
        assert targets == {"high": 48, "low": 48}

    def test_low_preempted_when_nothing_remains(self):
        targets = PriorityPreemptivePolicy().targets(
            0.0,
            [
                view("low", 48, held=48, running=True, priority=0, order=0),
                view("high", 48, priority=1, order=1),
            ],
            allocator(48, carved=[("low", 48)]),
        )
        assert targets == {"high": 48, "low": 0}

    def test_ties_break_by_arrival(self):
        targets = PriorityPreemptivePolicy().targets(
            0.0,
            [
                view("late", 48, priority=1, order=1),
                view("early", 48, priority=1, order=0),
            ],
            allocator(48),
        )
        assert targets == {"early": 48, "late": 0}
