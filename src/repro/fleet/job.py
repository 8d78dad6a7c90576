"""The per-job iteration-walking state machine.

:class:`JobSimulator` walks one training job's timeline — pipeline
pricing through the vectorized kernel's batched sweep, prepared-batch
memoization per cluster size, asynchronous-checkpoint stalls,
durable-checkpoint rollback on failures and preemptions, straggler rank
slowdowns, and elastic re-orchestration — against an **allocated GPU
count** rather than an assumed whole cluster. It is the one place that
walks iterations, overlays checkpoint stalls and rolls back work; each
irregular-step mechanism has one helper: :meth:`JobSimulator._roll_back`,
:meth:`JobSimulator._arm_failure_clock` (the next sampled failure),
:meth:`JobSimulator._gpus_hit` (the blast radius of any timed event)
and :meth:`JobSimulator._logged_switch` (a logged repair re-growth or
scripted resize).

Two drivers consume it:

* :func:`repro.scenarios.engine.run_scenario` — one job:
  :meth:`JobSimulator.run` starts it at the config's full cluster size,
  advances it to completion and finishes it. Every multi-iteration
  result goes through it: scenario runs,
  :func:`repro.core.api.simulate_run`, the lifecycle manager's ``run``
  and the fault-tolerance ablation. Its zero-event run over the full
  batch stream equals a per-iteration ``simulate`` loop hex for hex
  (pinned by the test suite).
* :class:`repro.fleet.engine.FleetEngine` — steps many jobs on one
  shared event clock, reshaping their allocations at scheduling
  decision points via :meth:`apply_resize` / :meth:`preempt` /
  :meth:`resume`, and mirroring failure/repair capacity changes into
  the fleet's :class:`~repro.cluster.allocation.GPUAllocator` from the
  :meth:`drain_fleet_events` log.

Thousand-iteration jobs stay fast because nothing is simulated per
iteration: the simulator prepares ``sample_iterations`` distinct global
batches per cluster size and memoizes every distinct
``(cluster size, sample, slowdown factors)`` evaluation. A straggler
profile is keyed by the factors the simulated ranks see
(:func:`_canonical_profile`), so the thousands of sampled ranks that
wrap onto the same few simulated ranks share one pricing. Nor is an
iteration even *stepped* one at a time: between irregular steps — a
timed event firing, a repair re-growth, a scripted resize —
:meth:`JobSimulator.advance_until` advances in closed form. Straggler
episodes are kept as runs — sorted, disjoint iteration ranges sharing
one profile (:func:`_straggler_runs`), built once at
:meth:`~JobSimulator.start` — so iteration times are a gather
(``base[i % K]``) with each run that meets a segment overlaid from the
memo by at most K lookups and strided writes (every K-th iteration of a
run repeats one sample). The clock moves by one ``np.cumsum`` over a
segment's iteration times with one snapshot stall after each
checkpoint iteration, bitwise the sequential fold
:meth:`JobSimulator.step` performs, and the GPU-seconds by one more.
``searchsorted`` on that fold finds where the next event fires; only
checkpoint iterations call the checkpointer, and only irregular steps
go through :meth:`~JobSimulator.step`, which stays the one-unit
primitive. Every plan a job needs — its full size or an elastic
replan — is one cold search, :func:`repro.core.api._replan_uncached`,
fetched through the process-wide
:data:`~repro.orchestration.plancache.PLAN_CACHE`, so co-tenant jobs
running the same task amortize each other's replans and each
``(task, size)`` is solved once per process.

Same-task jobs amortize much more than the plan search: a
:class:`_ClusterState` — plan, simulator, prepared batches, base
evaluations, straggler-evaluation memo — is a pure function of
``(task config, cluster size, sample count)``, so states are fetched
from the process-wide :data:`STATE_CACHE` and 100 identical fleet
tenants (or repeated scenario runs of one task) build one. Every
shared value is bit-identical to a private build's, so per-job results
do not change.

The plan hit/miss counters on a job's result are counted per run, not
read off the process-wide caches: a plan need is a hit when the current
run has already solved its planning signature (a fleet's tenants share
one set of solved signatures) and a miss that adds the signature
otherwise. A cold plan cache would report the same counts, and so does
any warm process, so a result depends on its spec alone.

:meth:`JobSimulator.peek_segment` tells the fleet engine where a job's
current segment ends — its next irregular step or its completion,
across any number of checkpoints — without advancing it. A segment is
computed one way, by one pure walk (:meth:`JobSimulator._walk`) to its
natural end: the walk prices every straggler group it meets that the
memo lacks in one fused kernel sweep (:func:`price_pending_steps`),
then folds the clock once. It is committed by one apply step
(:meth:`JobSimulator._apply`), and a horizon before its end cuts it in
one place (:meth:`JobSimulator._prefix`). The peek keeps its walk with
the inputs it read, so advancing to the peeked end applies it instead
of walking the segment again, and advancing to a decision before that
end applies the walk cut there. A kept walk holds no
per-iteration array, only its checkpoints' clocks and the straggler
groups it laid over the base times, and the peek prices its
checkpoint stalls from the checkpointer's costs and upload clock
rather than a checkpointer copy. The older one-step
:meth:`JobSimulator.prepare_step` / :meth:`JobSimulator.commit_step`
split remains for callers stepping by hand.
"""

from __future__ import annotations

import bisect
import logging
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, NamedTuple, Optional, Set, Tuple

import numpy as np

from repro.core.config import DistTrainConfig
from repro.core.keyedcache import KeyedCache
from repro.obs import instrument as obs
from repro.orchestration.errors import InfeasibleClusterError
from repro.orchestration.plancache import PLAN_CACHE, planning_signature
from repro.runtime.checkpoint import CheckpointConfig, build_checkpointer
from repro.runtime.iteration import (
    IterationResult,
    PreparedIteration,
    evaluate_prepared_many,
)
from repro.scenarios.events import (
    EventTrace,
    FailureEvent,
    MaintenanceEvent,
    SpotReclaimEvent,
    StragglerEvent,
    draw_stragglers,
)
from repro.scenarios.result import ScenarioResult
from repro.scenarios.spec import ScenarioSpec

logger = logging.getLogger(__name__)

#: Hard cap on handled failures — a scenario whose downtime exceeds its
#: MTBF never finishes; fail loudly instead of spinning.
MAX_FAILURES = 10_000


class TooManyFailuresError(RuntimeError):
    """A job handled more than :data:`MAX_FAILURES` failures: its
    downtime outpaces its MTBF, so the run can never finish."""


#: Seed-stream tags (numpy seed sequences) keeping failure and straggler
#: sampling independent of each other.
_FAILURE_STREAM = 0
_STRAGGLER_STREAM = 1


#: Process-wide store of built :class:`_ClusterState` objects, keyed by
#: ``(config hash, num_gpus, sample count, preprocessing pool)``. Every
#: field of a state — plan, compiled simulator, prepared batches, base
#: evaluations, and the straggler-evaluation memo it accretes — is a
#: pure function of that key, so every job of the same task shares one
#: build bit-identically. Sized for a few tasks' worth of cluster-size
#: oscillation; evicted states a job already holds stay alive through
#: its private per-size table.
STATE_CACHE = KeyedCache(maxsize=64, name="jobstate")

#: A straggler profile: ``(rank, slowdown)`` pairs, one per active
#: episode, sorted.
Profile = Tuple[Tuple[int, float], ...]

#: A straggler run: iterations ``[start, end)`` share one profile.
Run = Tuple[int, int, Profile]


@dataclass(eq=False)
class _ClusterState:
    """Everything memoized for one cluster size (equal only to itself,
    so a kept walk's inputs compare states by identity)."""

    num_gpus: int
    #: ``planning_signature(config, num_gpus)``, kept so a per-size
    #: table hit counts against the run's solved plans without
    #: re-hashing the config.
    signature: Tuple[str, int]
    orchestration: Any
    simulator: Any
    prepared: List[PreparedIteration]
    base: List[IterationResult]
    #: (sample index, canonical profile) -> IterationResult, one pricing
    #: per distinct factor vector (:func:`_canonical_profile`), plus
    #: the raw profiles seen so far aliased to the same result objects
    #: (:func:`_memo_lookup`).
    evaluations: Dict[Tuple[int, Profile], IterationResult] = field(
        default_factory=dict
    )

    def __post_init__(self) -> None:
        # Base iteration times and MFUs by sample index.
        self.times = np.array([r.iteration_time for r in self.base])
        self.mfus = np.array([r.mfu for r in self.base])
        self._tiled = (self.times, self.mfus)

    def tiled(self, stop: int) -> Tuple[np.ndarray, np.ndarray]:
        """Base times and MFUs of iterations ``0, 1, ...`` up to at
        least ``stop`` (iteration ``i`` runs sample ``i % K``): the
        gather source of closed-form segment advance, so a segment's
        base times are one slice. Tiled once and grown on demand."""
        if len(self._tiled[0]) < stop:
            reps = -(-stop // len(self.times))
            self._tiled = (
                np.tile(self.times, reps), np.tile(self.mfus, reps)
            )
        return self._tiled


@dataclass
class PendingEvaluation:
    """One un-memoized iteration evaluation a job needs ahead — listed
    by :meth:`JobSimulator._walk` for every straggler group of a
    segment, or by :meth:`JobSimulator.prepare_step` for the next step.
    ``profile`` is the canonical key (:func:`_canonical_profile`), so
    co-tenants needing the same slowdown factors list equal items.
    :func:`price_pending_steps` fills the owning state's memo under it
    so the advance is a lookup."""

    state: _ClusterState
    sample: int
    profile: Profile


class _Walk(NamedTuple):
    """One segment as :meth:`JobSimulator._walk` computed it, with the
    job inputs it read (:meth:`JobSimulator._walk_inputs`).

    It holds no per-iteration array: the iteration times and MFUs are
    the base ones by sample with ``groups`` laid over them, which
    :meth:`JobSimulator._apply` gathers again."""

    inputs: Tuple[Any, ...]
    #: Where the segment ends (after its last checkpoint's stall, if
    #: it ends on one).
    clock: float
    #: Whether the step that ends the segment must go through step().
    irregular: bool
    #: Plain iterations the segment retains.
    take: int = 0
    #: Straggler groups ``(p, b, result)``: positions ``p, p + K, ...``
    #: before ``b``, counted from the walk's first iteration, take
    #: ``result``'s time and MFU.
    groups: Tuple[Tuple[int, int, IterationResult], ...] = ()
    #: The first checkpoint iteration the walk meets; the others follow
    #: every checkpoint interval.
    first: int = 0
    #: One row per retained checkpoint: its end-of-compute clock and its
    #: boundary clock (after the snapshot stall).
    marks: Optional[np.ndarray] = None


def _slowdown_factors(
    state: _ClusterState, sample: int, profile: Profile
) -> np.ndarray:
    """Per-simulated-rank slowdown factors for one straggler profile."""
    n_ranks = len(state.prepared[sample].rank_work)
    factors = np.ones(n_ranks)
    for rank, slowdown in profile:
        idx = rank % n_ranks
        factors[idx] = max(factors[idx], slowdown)
    return factors


def _canonical_profile(
    state: _ClusterState, sample: int, profile: Profile
) -> Profile:
    """The memo key of a straggler profile: the factors it gives the
    simulated ranks, as sorted ``(rank % n_ranks, slowdown)`` pairs.

    Slowdowns on one simulated rank merge by ``max`` from 1.0, exactly
    as :func:`_slowdown_factors` builds the vector, and ranks left at
    1.0 are dropped, so two profiles share a key iff they share a factor
    vector (``n_ranks`` is per sample: rank selection can keep a
    different count per batch). A canonical key is its own canonical
    key, and :func:`_slowdown_factors` of it is the raw profile's.
    """
    n_ranks = len(state.prepared[sample].rank_work)
    merged: Dict[int, float] = {}
    for rank, slowdown in profile:
        idx = rank % n_ranks
        merged[idx] = max(merged.get(idx, 1.0), slowdown)
    return tuple(sorted((idx, s) for idx, s in merged.items() if s != 1.0))


def _memo_lookup(
    state: _ClusterState, sample: int, profile: Profile
) -> Tuple[Optional[IterationResult], Profile]:
    """``(memoized evaluation or None, canonical key)`` for a profile.

    The raw profile is tried first: after one canonical lookup it is
    aliased to the canonical entry's result, so repeat lookups (and
    warm runs over a shared :data:`STATE_CACHE`) skip the
    canonicalization. A raw profile that is already canonical is its
    own key, so the two key kinds can never disagree. On a hit the
    returned key is ``profile`` itself; on a miss it is the canonical
    key the pricing must land under.
    """
    result = state.evaluations.get((sample, profile))
    if result is not None:
        return result, profile
    canonical = _canonical_profile(state, sample, profile)
    result = state.evaluations.get((sample, canonical))
    if result is not None:
        state.evaluations[(sample, profile)] = result
    return result, canonical


def _straggler_runs(episodes: List[StragglerEvent], n: int) -> List[Run]:
    """The straggler episodes as sorted, disjoint runs.

    One sweep over the episodes' start and end edges, clipped at ``n``
    iterations. A run's profile lists the ``(rank, slowdown)`` pair of
    every episode active across it, sorted and with duplicates kept, so
    an iteration's profile is the one of the run covering it, or ``()``
    if none does.
    """
    edges = []
    for episode in episodes:
        if episode.iteration < n:
            pair = (episode.rank, episode.slowdown)
            edges.append((episode.iteration, True, pair))
            edges.append((min(episode.end_iteration, n), False, pair))
    edges.sort()
    runs: List[Run] = []
    active: List[Tuple[int, float]] = []
    for k, (at, opens, pair) in enumerate(edges):
        if opens:
            bisect.insort(active, pair)
        else:
            active.remove(pair)
        # A run reaches the next edge; after the last one nothing is
        # active.
        nxt = edges[k + 1][0] if k + 1 < len(edges) else at
        if nxt != at and active:
            runs.append((at, nxt, tuple(active)))
    return runs


def _fold(values: np.ndarray) -> float:
    """Sequential left-fold sum, ``((0 + v0) + v1) + ...``.

    ``np.cumsum`` accumulates strictly left to right, so its last entry
    is bitwise the Python loop's total (unlike ``np.sum``, which adds
    pairwise).
    """
    return float(np.cumsum(values)[-1]) if len(values) else 0.0


def _cut(
    ends: np.ndarray, head: int, width: int, event_t: float, repair: float
) -> Tuple[int, bool]:
    """Where a run of plain iterations stops: ``(take, irregular)``.

    ``ends`` is the run's fold: the end-of-compute clock of each
    iteration and, after each checkpoint iteration, its boundary clock
    (after the snapshot stall). The first ``head`` entries are
    iterations; then come blocks of ``width`` entries, a boundary and
    the iterations up to the next checkpoint.

    ``take`` iterations retain before the stop; ``irregular`` tells
    whether the next step must go through :meth:`JobSimulator.step`: a
    timed event kills the iteration after them, or a repair lands at
    their boundary. Precedence follows :meth:`step`: a repair lands at
    the boundary before the iteration it would otherwise price. A
    horizon never stops a run here; it cuts a walk only in
    :meth:`JobSimulator._prefix`.
    """

    def before(slot: int) -> int:
        # Iterations among the entries before ``slot``.
        return slot if slot <= head else slot - (slot - head - 1) // width - 1

    last = ends[-1]
    take = before(len(ends))
    irregular = False
    if event_t <= last:
        # The first iteration whose compute ends at or after the event
        # is killed mid-flight (it is priced, then the event fires). An
        # event inside a snapshot stall kills the iteration after it.
        take = before(int(np.searchsorted(ends, event_t)))
        irregular = True
    if repair <= last:
        # The first boundary at or after the repair time fires the
        # re-growth: after the iteration ending at or after it, or
        # after the stall it falls in. One past an iteration a timed
        # event kills leaves the event's stop.
        take = min(take, before(int(np.searchsorted(ends, repair)) + 1))
        irregular = True
    return take, irregular


def price_pending_steps(pending: List[PendingEvaluation]) -> None:
    """Fill the memo behind many pending evaluations at once.

    Deduplicates by ``(state, sample, profile)`` (co-tenants sharing a
    state may need the same evaluation) and prices the un-memoized
    remainder through one fused
    :func:`~repro.runtime.iteration.evaluate_prepared_many` call — each
    result lands in its state's ``evaluations`` memo under its canonical
    key. This is the only straggler pricing path: a walk prices every
    group its segment lacks through one call
    (:meth:`JobSimulator._walk`), and a memo miss in
    :meth:`JobSimulator._evaluate` prices through it too.
    """
    unique: Dict[Tuple[int, int, Profile], PendingEvaluation] = {}
    for item in pending:
        unique.setdefault(
            (id(item.state), item.sample, item.profile), item
        )
    items = [
        item
        for item in unique.values()
        if _memo_lookup(item.state, item.sample, item.profile)[0] is None
    ]
    if not items:
        return
    results = evaluate_prepared_many(
        [
            (
                item.state.simulator,
                item.state.prepared[item.sample],
                _slowdown_factors(item.state, item.sample, item.profile),
            )
            for item in items
        ]
    )
    for item, result in zip(items, results):
        item.state.evaluations[(item.sample, item.profile)] = result


class JobSimulator:
    """Simulates one training job under a :class:`ScenarioSpec` on an
    allocated slice of a cluster.

    Args:
        config: The training task. The config's cluster is the job's
            *demand* — the size it wants and the node type it runs on;
            the slice actually granted is passed to :meth:`start`.
        scenario: The cluster dynamics to inject.
        checkpoint: Optional checkpoint policy overriding the default
            built from ``scenario.checkpoint_interval``.
        solved_plans: The planning signatures the current run has
            solved, which decide whether a plan need counts as a hit or
            a miss. A fleet hands all its tenants one set and empties it
            at the start of each run; by default the job owns a set,
            which :meth:`run` empties.
        name: Job label for fleet bookkeeping and reports.
        cpu_nodes: The disaggregated preprocessing pool every cluster
            size's iteration simulator prices
            (:func:`~repro.core.api.build_simulator`'s ``cpu_nodes``).
    """

    def __init__(
        self,
        config: DistTrainConfig,
        scenario: ScenarioSpec,
        checkpoint: Optional[CheckpointConfig] = None,
        solved_plans: Optional[Set[Tuple[str, int]]] = None,
        name: str = "job",
        cpu_nodes: int = 8,
    ):
        self.config = config
        self.scenario = scenario
        self.checkpoint = checkpoint or CheckpointConfig(
            interval_iterations=scenario.checkpoint_interval
        )
        self.cpu_nodes = cpu_nodes
        self._solved_plans = set() if solved_plans is None else solved_plans
        self.name = name
        #: Distinct global batches every cluster size re-prices (the K
        #: of the per-iteration ``sample`` index).
        self._num_samples = min(
            scenario.sample_iterations, scenario.num_iterations
        )
        self._states: Dict[int, _ClusterState] = {}
        self._infeasible: set = set()
        self._batches: Optional[Tuple[Tuple[Any, ...], ...]] = None
        self._plan_hits = 0
        self._plan_misses = 0
        self._started = False
        self._paused = False
        self._preemptions = 0
        #: Capacity-change log the fleet engine drains to keep its
        #: allocator bookkeeping in sync (unused outside a fleet).
        self._fleet_log: List[Tuple[Any, ...]] = []
        #: The last exact :meth:`peek_segment` walk, which
        #: :meth:`advance_until` applies while its inputs hold.
        self._kept: Optional[_Walk] = None

    # ------------------------------------------------------------------ #
    # Cluster-state memoization
    # ------------------------------------------------------------------ #
    def _sample_batches(self) -> Tuple[Tuple[Any, ...], ...]:
        """The K distinct global batches every cluster size re-prices.

        The first K global batches of the config's seeded stream, so
        with ``sample_iterations >= num_iterations`` every iteration
        prices its own fresh batch, as a per-iteration ``simulate`` loop
        over :func:`~repro.core.api.dataset` would.
        """
        if self._batches is None:
            from repro.core.api import sample_batches

            self._batches = sample_batches(self.config, self._num_samples)
        return self._batches

    def _state(self, num_gpus: int) -> _ClusterState:
        state = self._states.get(num_gpus)
        if state is None:
            from repro.core.api import _replan_uncached

            signature = planning_signature(self.config, num_gpus)
            orchestration = PLAN_CACHE.get_or_compute(
                signature, lambda: _replan_uncached(self.config, num_gpus)
            )
            state = STATE_CACHE.get_or_compute(
                signature + (self._num_samples, self.cpu_nodes),
                lambda: self._build_state(num_gpus, signature, orchestration),
            )
            self._states[num_gpus] = state
        # Counted against this run alone, whichever tenant solved the
        # plan and whatever the process planned before the run.
        if state.signature in self._solved_plans:
            self._plan_hits += 1
        else:
            self._plan_misses += 1
            self._solved_plans.add(state.signature)
        return state

    def _build_state(
        self, num_gpus: int, signature: Tuple[str, int], orchestration
    ) -> _ClusterState:
        """Build one cluster size's memoized state from its plan."""
        from repro.core.api import build_simulator

        if num_gpus == self.config.cluster.num_gpus:
            sim_config = self.config
        else:
            from repro.cluster.cluster import resized_cluster

            sim_config = self.config.with_(
                cluster=resized_cluster(self.config.cluster, num_gpus)
            )
        simulator = build_simulator(
            sim_config, orchestration, cpu_nodes=self.cpu_nodes
        )
        prepared = [
            simulator.prepare(batch) for batch in self._sample_batches()
        ]
        # One fused kernel sweep prices all K base batches
        # (bit-identical to the per-batch loop).
        base = evaluate_prepared_many(
            [(simulator, prep, None) for prep in prepared]
        )
        return _ClusterState(
            num_gpus=num_gpus,
            signature=signature,
            orchestration=orchestration,
            simulator=simulator,
            prepared=prepared,
            base=base,
        )

    def _evaluate(
        self, state: _ClusterState, sample: int, profile: Profile
    ) -> IterationResult:
        """Memoized iteration evaluation for one straggler profile."""
        if not profile:
            return state.base[sample]
        result, canonical = _memo_lookup(state, sample, profile)
        if result is None:
            price_pending_steps([PendingEvaluation(state, sample, canonical)])
            result = state.evaluations[(sample, canonical)]
            state.evaluations[(sample, profile)] = result
        return result

    def feasible(self, num_gpus: int) -> bool:
        """Can the task be orchestrated on ``num_gpus`` GPUs?

        A successful probe leaves the solved plan in the per-size state
        table (and the process-wide plan cache), so probing is never
        wasted work when the size is later granted. Sizes that raise
        :class:`~repro.orchestration.errors.InfeasibleClusterError` are
        memoized per job — the task and node type are fixed for the
        job's life, so a size that failed once fails forever and repeat
        probes at scheduling decision points stay O(1). Any other
        exception is a fault, not a property of the size, and
        propagates.
        """
        if num_gpus in self._infeasible:
            return False
        try:
            self._state(num_gpus)
        except InfeasibleClusterError:
            self._infeasible.add(num_gpus)
            return False
        return True

    # ------------------------------------------------------------------ #
    # Event sampling
    # ------------------------------------------------------------------ #
    def _sampled_stragglers(self) -> List[StragglerEvent]:
        """Pre-drawn straggler episodes (deterministic for a seed)."""
        spec = self.scenario
        if spec.straggler_rate <= 0.0:
            return []
        return draw_stragglers(
            np.random.default_rng([spec.seed, _STRAGGLER_STREAM]),
            spec.num_iterations,
            spec.straggler_rate,
            spec.straggler_iterations,
            spec.straggler_slowdown,
        )

    def _profile(self, i: int) -> Profile:
        """The straggler profile of iteration ``i`` (``()`` if none)."""
        r = bisect.bisect_right(self._run_starts, i) - 1
        if r >= 0 and i < self._run_ends[r]:
            return self._runs[r][2]
        return ()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #
    def start(
        self,
        allocated_gpus: Optional[int] = None,
        start_time: float = 0.0,
    ) -> None:
        """Initialize the run state on an allocated slice.

        Args:
            allocated_gpus: GPUs granted to the job (default: the
                config's full cluster — the single-job case). This is
                also the size failure-repair re-growth targets until a
                fleet changes it via :meth:`apply_resize`.
            start_time: Wall-clock at which the job begins (a fleet job
                admitted mid-timeline starts at its grant time).
        """
        spec = self.scenario
        config = self.config
        if allocated_gpus is None:
            allocated_gpus = config.cluster.num_gpus
        self._allocated = allocated_gpus
        self._initial_gpus = allocated_gpus
        self._node_gpus = config.cluster.node.gpus_per_node

        # An explicit event trace *replaces* sampling (the spec and CLI
        # contract): replaying a recorded run with its original MTBF and
        # straggler rate still reproduces it exactly.
        replaying = spec.events is not None
        trace = spec.events or EventTrace()
        # All wall-clock events ride one replay cursor: hard failures,
        # correlated domain failures, and graceful capacity outages
        # (spot reclaims, maintenance windows). For a v1 trace this is
        # exactly the old failures list.
        timed = trace.timed_events
        if start_time:
            # Trace times are job-relative (recorded from a run that
            # started at 0); a fleet job admitted mid-timeline replays
            # them offset to its own start, so a standalone recording
            # reproduces identically whenever the job is seated.
            timed = [
                replace(event, time_s=event.time_s + start_time)
                for event in timed
            ]
        self._timed_events = timed
        self._domain_tables: Dict[int, Dict[str, int]] = {}
        self._resizes = {e.iteration: e for e in trace.resizes}
        sampled_stragglers = (
            [] if replaying else self._sampled_stragglers()
        )
        #: Straggler runs (:func:`_straggler_runs`) with their start and
        #: end iterations, and the sorted scripted-resize iterations —
        #: the sparse breaks in a segment's gather.
        self._runs = _straggler_runs(
            trace.stragglers + sampled_stragglers, spec.num_iterations
        )
        self._run_starts = [run[0] for run in self._runs]
        self._run_ends = [run[1] for run in self._runs]
        self._resize_iters = sorted(self._resizes)

        #: Failures arrive by Poisson sampling at the spec's MTBF
        #: unless a trace replays them.
        self._sampling_failures = (
            not replaying and spec.mtbf_gpu_hours is not None
        )
        self._failure_rng = np.random.default_rng(
            [spec.seed, _FAILURE_STREAM]
        )

        # The result counts plan needs from here on: scheduling probes
        # before the start are not the job's own.
        self._plan_hits = self._plan_misses = 0
        self._cur = self._state(allocated_gpus)
        self._checkpointer = build_checkpointer(
            self._cur.orchestration.plan, self.checkpoint
        )

        # Ideal trajectory: the granted slice, no events, no stalls.
        n = spec.num_iterations
        self._n = n
        self._K = self._num_samples
        # Sequential (not pairwise) accumulation, matching how the
        # timeline clock advances — a zero-event scenario's goodput is
        # exactly 1 up to its checkpoint stalls, never above.
        self._ideal_seconds = _fold(
            self._states[allocated_gpus].tiled(n)[0][:n]
        )

        self._times = np.zeros(n)
        self._mfu_traj = np.zeros(n)
        #: The realized trace: explicit events plus everything sampled,
        #: so any run can be replayed declaratively.
        self._events_log: List[Any] = list(trace.events) + list(
            sampled_stragglers
        )

        self._start_time = start_time
        self._clock = start_time
        self._i = 0
        self._num_failures = 0
        self._replayed = 0
        self._num_replans = 0
        self._lost_seconds = 0.0
        self._recovery_seconds = 0.0
        self._stall_carry = 0.0
        self._min_gpus = allocated_gpus
        self._repair_at: Optional[float] = None
        self._failure_idx = 0  # replayed timed events consumed
        self._gpu_seconds = 0.0

        # Lazy Poisson sampling: the next failure arrival in wall-clock.
        self._next_sampled: Optional[float] = None
        self._arm_failure_clock(start_time)
        self._started = True
        self._paused = False
        self._preemptions = 0
        self._fleet_log = []
        self._kept = None
        obs.event(
            "job.start", job=self.name, t=start_time, gpus=allocated_gpus
        )
        logger.info(
            "%s: started on %d GPUs at t=%.1fs (%d iterations)",
            self.name, allocated_gpus, start_time, n,
        )

    # ------------------------------------------------------------------ #
    # Introspection the drivers need
    # ------------------------------------------------------------------ #
    @property
    def started(self) -> bool:
        return self._started

    def _require_started(self) -> None:
        if not self._started:
            raise RuntimeError(
                f"job {self.name!r} has not started; call start() first"
            )

    @property
    def done(self) -> bool:
        """All target iterations retained."""
        return self._started and self._i >= self._n

    @property
    def paused(self) -> bool:
        return self._paused

    @property
    def clock(self) -> float:
        """The job's current wall-clock position."""
        return self._clock

    @property
    def num_gpus(self) -> int:
        """GPUs the job currently computes on (0 before :meth:`start`)."""
        return self._cur.num_gpus if self._started else 0

    @property
    def allocated_gpus(self) -> int:
        """The slice the job re-grows to after repairs."""
        return self._allocated if self._started else 0

    @property
    def iterations_retained(self) -> int:
        return self._i if self._started else 0

    def ideal_seconds_at(self, num_gpus: int) -> float:
        """Zero-event, zero-stall runtime of the whole job at ``num_gpus``.

        The fleet engine prices every tenant's *demand-size* ideal with
        this (its goodput numerator); sequential accumulation matches
        how the timeline clock advances. Counts as a plan need, so call
        it only after :meth:`finish` has read the job's hit/miss
        counters.
        """
        state = self._state(num_gpus)
        n = self.scenario.num_iterations
        return _fold(state.tiled(n)[0][:n])

    def drain_fleet_events(self) -> List[Tuple[Any, ...]]:
        """Capacity changes since the last drain (fleet bookkeeping).

        Entries are ``("failure", event, from_gpus, to_gpus, clock)``
        when hardware died (``from == to`` means the job restarted on
        replacement capacity at unchanged size), ``("grow", from_gpus,
        to_gpus, clock)`` when repair re-growth fired, and ``("resize",
        from_gpus, to_gpus, clock)`` for trace-scripted resizes.
        """
        log = self._fleet_log
        self._fleet_log = []
        return log

    # ------------------------------------------------------------------ #
    # The state machine
    # ------------------------------------------------------------------ #
    def _next_timed(self) -> Tuple[Optional[Any], bool]:
        """(earliest pending timed event, came-from-sampling flag).

        Replayed events cover all wall-clock kinds (failure,
        domain-failure, spot-reclaim, maintenance); sampled arrivals
        are always plain :class:`FailureEvent`\\ s.
        """
        replay: Optional[Any] = None
        if self._failure_idx < len(self._timed_events):
            replay = self._timed_events[self._failure_idx]
        if self._next_sampled is not None and (
            replay is None or self._next_sampled < replay.time_s
        ):
            return (
                FailureEvent(
                    time_s=self._next_sampled,
                    gpus_lost=self.scenario.gpus_lost_per_failure,
                ),
                True,
            )
        return replay, False

    def _domain_gpus(self, domain: str) -> int:
        """GPUs the job currently holds inside a named failure domain.

        Domains are resolved against the job's *current slice* (the
        demand cluster resized to what the job computes on), so a rack
        the slice no longer reaches has zero blast radius here. Unknown
        domain names also resolve to zero — a fleet-wide trace may name
        racks a small job never occupies.
        """
        from repro.cluster.cluster import resized_cluster
        from repro.cluster.topology import failure_domains

        num_gpus = self._cur.num_gpus
        table = self._domain_tables.get(num_gpus)
        if table is None:
            cluster = self.config.cluster
            if num_gpus != cluster.num_gpus:
                cluster = resized_cluster(cluster, num_gpus)
            table = {
                name: dom.num_gpus
                for name, dom in failure_domains(cluster).items()
            }
            self._domain_tables[num_gpus] = table
        return table.get(domain, 0)

    def _gpus_hit(self, event: Any) -> int:
        """GPUs a timed event takes from the job's current slice: a
        failure's own count, a spot reclaim's capped at the slice, and
        for a domain failure or maintenance window what the slice holds
        inside the domain (0 when it lies outside)."""
        if isinstance(event, FailureEvent):
            return event.gpus_lost
        if isinstance(event, SpotReclaimEvent):
            return min(event.gpus, self._cur.num_gpus)
        return self._domain_gpus(event.domain)

    def _arm_failure_clock(self, now: float) -> None:
        """Draw the next sampled failure arrival after ``now`` at the
        current slice's failure rate. Arrivals are memoryless, so the
        clock restarts whenever the rate changes or a pause ends."""
        if self._sampling_failures:
            self._next_sampled = now + self._failure_rng.exponential(
                self.scenario.cluster_mtbf_seconds(self._cur.num_gpus)
            )

    def _roll_back(self, at: float) -> int:
        """Restart from the latest checkpoint durable at ``at``: the
        iterations since it are lost and will be replayed. Returns how
        many."""
        rollback_to = self._checkpointer.restart_from_latest(at)
        replayed = self._i - rollback_to
        self._replayed += replayed
        self._lost_seconds += float(self._times[rollback_to:self._i].sum())
        self._i = rollback_to
        return replayed

    def _switch_cluster(self, num_gpus: int, now: float) -> None:
        """Replan on a resized slice, rebuild the checkpointer, and pay
        the modeled re-orchestration pause."""
        with obs.span(
            "job.replan", job=self.name, gpus=num_gpus, t=now
        ):
            obs.count("job.replans")
            logger.debug(
                "%s: replan on %d GPUs at t=%.1fs",
                self.name, num_gpus, now,
            )
            self._cur = self._state(num_gpus)
            self._stall_carry += self._checkpointer.total_stall
            self._checkpointer = build_checkpointer(
                self._cur.orchestration.plan, self.checkpoint
            )
            self._checkpointer.resume_from(self._i)
            self._num_replans += 1
            self._min_gpus = min(self._min_gpus, num_gpus)
            self._arm_failure_clock(now)
        self._clock += self.scenario.replan_seconds
        self._recovery_seconds += self.scenario.replan_seconds

    def _logged_switch(self, kind: str, num_gpus: int) -> None:
        """Switch to ``num_gpus`` at the current boundary for a repair
        re-growth (``kind`` ``"grow"``) or a scripted resize
        (``"resize"``), logging the change for the fleet, emitting its
        ``job.<kind>`` event and counting it in ``job.<kind>s``."""
        from_gpus = self._cur.num_gpus
        self._switch_cluster(num_gpus, self._clock)
        self._fleet_log.append((kind, from_gpus, num_gpus, self._clock))
        obs.event(
            f"job.{kind}",
            job=self.name,
            t=self._clock,
            from_gpus=from_gpus,
            to_gpus=num_gpus,
        )
        obs.count(f"job.{kind}s")

    def prepare_step(self) -> Optional[PendingEvaluation]:
        """The evaluation the next :meth:`step` will need, if gatherable.

        Returns a :class:`PendingEvaluation` when the next step's
        iteration pricing is a straggler evaluation not yet in the
        current state's memo, for a caller stepping by hand to batch
        through :func:`price_pending_steps` (a peek or an advance prices
        a whole segment in its walk instead). Returns ``None`` when
        nothing needs pre-pricing: the job is not running, a capacity
        change (repair re-growth, scripted resize) lands at this
        boundary and may move the job to a different cluster state, or
        the needed evaluation is already memoized (the base-batch common
        case).

        ``step()`` evaluates the iteration *before* its failure check,
        so pre-filling the memo is safe even when the step turns out to
        be a failure step — the step itself would have computed and
        memoized the same value.
        """
        if not self._started or self._paused or self.done:
            return None
        if self._repair_at is not None and self._clock >= self._repair_at:
            return None
        if self._i in self._resizes:
            return None
        profile = self._profile(self._i)
        if not profile:
            return None
        sample = self._i % self._K
        result, canonical = _memo_lookup(self._cur, sample, profile)
        if result is not None:
            return None
        return PendingEvaluation(
            state=self._cur, sample=sample, profile=canonical
        )

    def commit_step(self) -> None:
        """Commit one unit of work after :meth:`prepare_step`.

        Identical to :meth:`step` — the split exists so a caller can
        gather pending evaluations first; with the memo pre-filled the
        commit reduces to lookups and clock arithmetic.
        """
        self.step()

    def step(self) -> None:
        """Advance the timeline by one unit of work.

        One call either retains one iteration (compute + checkpoint
        stall) or handles one failure (rollback + downtime + optional
        elastic shrink). Scheduled capacity changes (repair re-growth,
        trace-scripted resizes) are applied at the iteration boundary
        before the work.
        """
        self._require_started()
        if self.done:
            raise RuntimeError(
                f"job {self.name!r} has retained all {self._n} "
                "iterations; there is no step left"
            )
        if self._num_failures > MAX_FAILURES:
            raise TooManyFailuresError(
                f"job {self.name!r} exceeded {MAX_FAILURES} failures; "
                "downtime dominates MTBF and the run cannot finish"
            )
        # Scheduled capacity changes at the iteration boundary.
        if self._repair_at is not None and self._clock >= self._repair_at:
            self._repair_at = None
            if self._cur.num_gpus != self._allocated:
                self._logged_switch("grow", self._allocated)
        resize = self._resizes.get(self._i)
        if resize is not None and self._cur.num_gpus != resize.num_gpus:
            self._logged_switch("resize", resize.num_gpus)

        result = self._evaluate(
            self._cur, self._i % self._K, self._profile(self._i)
        )
        end_compute = self._clock + result.iteration_time

        event, sampled = self._next_timed()
        while event is not None and event.time_s <= end_compute:
            gpus_lost = self._gpus_hit(event)
            if not gpus_lost:
                # A domain the slice never touches (only domain events
                # can miss it): consume the event and keep computing.
                self._failure_idx += 1
                event, sampled = self._next_timed()
                continue
            if isinstance(event, (SpotReclaimEvent, MaintenanceEvent)):
                # Graceful capacity outage: no rollback, capacity
                # returns after the window.
                with obs.span(
                    "job.outage",
                    job=self.name,
                    t=event.time_s,
                    kind=event.kind,
                ):
                    self._handle_outage(event, gpus_lost)
                return
            # The iteration is killed mid-flight.
            extra = (
                {"domain": event.domain}
                if not isinstance(event, FailureEvent)
                else {}
            )
            with obs.span(
                "job.failure",
                job=self.name,
                t=event.time_s,
                gpus_lost=gpus_lost,
                sampled=sampled,
                **extra,
            ):
                self._handle_failure(event, sampled, gpus_lost)
            return

        self._clock = end_compute
        self._times[self._i] = result.iteration_time
        self._mfu_traj[self._i] = result.mfu
        self._gpu_seconds += self._cur.num_gpus * result.iteration_time
        self._clock += self._checkpointer.on_iteration(self._i, self._clock)
        self._i += 1

    def _handle_failure(
        self, failure: Any, sampled: bool, gpus_lost: int
    ) -> None:
        """Roll back, pay downtime, and (if elastic) shrink to the
        surviving slice — the body of :meth:`step`'s failure branch.

        ``failure`` is a :class:`FailureEvent` or a
        :class:`~repro.scenarios.events.DomainFailureEvent`;
        ``gpus_lost`` is its blast radius (:meth:`_gpus_hit`).
        """
        spec = self.scenario
        if sampled:
            self._events_log.append(failure)
            self._arm_failure_clock(failure.time_s)
        else:
            self._failure_idx += 1
        self._num_failures += 1
        obs.count("job.failures")
        at = max(self._clock, failure.time_s)
        self._lost_seconds += at - self._clock  # the partial iteration
        replayed = self._roll_back(at)
        obs.event(
            "job.rollback",
            job=self.name,
            t=at,
            to_iteration=self._i,
            replayed=replayed,
        )
        obs.count("job.rollbacks")
        logger.debug(
            "%s: failure at t=%.1fs, rollback %d -> %d",
            self.name, at, self._i + replayed, self._i,
        )
        self._clock = at + spec.downtime_seconds
        self._recovery_seconds += spec.downtime_seconds
        shrunk_from = self._cur.num_gpus
        # Without a shrink (inelastic, or too few survivors) the job
        # restarts on replacement hardware at the current size.
        self._shrink(gpus_lost, at + spec.repair_seconds)
        self._fleet_log.append(
            ("failure", failure, shrunk_from, self._cur.num_gpus,
             self._clock)
        )

    def _handle_outage(self, event: Any, gpus_lost: int) -> None:
        """Graceful capacity outage (spot reclaim / maintenance window)
        taking ``gpus_lost`` GPUs (:meth:`_gpus_hit`, at least one).

        No checkpoint work is rolled back — the provider drains the
        capacity with notice — but the iteration in flight is abandoned
        (its partial time is lost). An elastic job sheds the affected
        node(s) and keeps computing on the survivors, re-growing when
        the window ends; an inelastic job (or one left with no
        orchestrable size) vacates for the remainder of the window and
        resumes at unchanged size.
        """
        self._failure_idx += 1
        obs.count("job.outages")
        at = max(self._clock, event.time_s)
        self._lost_seconds += at - self._clock  # the partial iteration
        self._clock = at
        resume_at = event.time_s + event.duration_s
        from_gpus = self._cur.num_gpus
        if not self._shrink(gpus_lost, resume_at):
            # The whole job vacates for the remainder of the window.
            pause = max(0.0, resume_at - self._clock)
            self._clock += pause
            self._recovery_seconds += pause
        obs.event(
            "job.outage_drain",
            job=self.name,
            t=self._clock,
            kind=event.kind,
            gpus_lost=gpus_lost,
            from_gpus=from_gpus,
            to_gpus=self._cur.num_gpus,
        )
        # Mirrored like a failure: the fleet marks the drained capacity
        # down for the job until re-growth fires (from == to means the
        # job paused in place and keeps its slice).
        self._fleet_log.append(
            ("failure", event, from_gpus, self._cur.num_gpus, self._clock)
        )

    def _shrink(self, gpus_lost: int, until: float) -> bool:
        """Elastic shrink: shed the nodes holding ``gpus_lost`` GPUs and
        replan on the survivors, re-growing at ``until``. False, with
        nothing changed, when the job is inelastic or the surviving
        slice is below one node or cannot be orchestrated."""
        if not self.scenario.elastic:
            return False
        lost_nodes = -(-gpus_lost // self._node_gpus)
        survivors = self._cur.num_gpus - lost_nodes * self._node_gpus
        if survivors < self._node_gpus or not self.feasible(survivors):
            return False
        self._switch_cluster(survivors, self._clock)
        self._repair_at = max(self._repair_at or 0.0, until)
        return True

    # ------------------------------------------------------------------ #
    # Segment advance
    # ------------------------------------------------------------------ #
    def advance_until(self, horizon: float) -> None:
        """Step until the job's clock reaches ``horizon`` or it ends.

        Exactly ``while clock < horizon: step()``, without a Python call
        per plain iteration: each segment of plain iterations is walked
        in closed form to its natural end (:meth:`_walk`), cut at its
        first boundary at or after ``horizon`` when that lies before the
        end (:meth:`_prefix`), and applied (:meth:`_apply`); only the
        irregular steps between segments — a timed event firing, a
        repair re-growth, a scripted resize, the final iteration — go
        through :meth:`step`. While nothing the last
        :meth:`peek_segment` walk read has changed, that walk stands in
        for a fresh one, so each segment the fleet engine peeks is
        walked once and a decision brings a tenant to its boundary
        without walking.

        Iterations are non-preemptible, so the clock may overshoot the
        horizon by up to one unit of work — allocation changes then
        apply at the job's next boundary at-or-after the horizon.
        """
        self._require_started()
        while not self.done and not self._paused and self._clock < horizon:
            walk = self._kept
            if walk is None or walk.inputs != self._walk_inputs():
                walk = self._walk()
            if horizon < walk.clock:
                walk = self._prefix(walk, horizon)
            self._apply(walk)
            if walk.irregular and not self.done and self._clock < horizon:
                self.step()

    def peek_segment(self) -> Tuple[float, bool]:
        """Where the job's current segment ends, without advancing it.

        A segment is the run of plain iterations from the current
        boundary up to the next irregular step: a timed event, a repair
        re-growth, a scripted resize, or the final iteration, which
        completes the job. It runs across any number of checkpoints,
        and ends early only on a checkpoint that must wait for the
        previous snapshot's upload. Returns ``(clock, irregular)``: the
        start clock of the step that ends the segment, and whether that
        step is irregular (and so must go through :meth:`step`). The
        clock is exact: the walk first prices, in one fused kernel sweep
        (:func:`price_pending_steps`), every straggler evaluation up to
        the segment's natural end that is not memoized yet.

        The walk is kept for :meth:`advance_until`. The segment's
        checkpoint stalls are priced from the checkpointer's costs and
        upload clock, so a peek copies nothing and changes nothing of
        the job.
        """
        self._require_started()
        walk = self._kept = self._walk()
        return walk.clock, walk.irregular

    def _next_event_time(self) -> float:
        """Wall-clock of the earliest pending timed event (inf if none);
        the time :meth:`_next_timed` would return, without building
        the event."""
        t = self._next_sampled if self._next_sampled is not None else np.inf
        if self._failure_idx < len(self._timed_events):
            t = min(t, self._timed_events[self._failure_idx].time_s)
        return t

    def _walk_inputs(self) -> Tuple[Any, ...]:
        """Everything of the job that :meth:`_walk` reads and that can
        change within a run: the boundary (iteration and clock), the
        cluster state, the failure count, the repair time, the next
        timed event, and the checkpointer with its upload clock."""
        checkpointer = self._checkpointer
        return (
            self._i,
            self._clock,
            self._cur,
            self._num_failures,
            self._repair_at,
            self._next_event_time(),
            checkpointer,
            checkpointer.upload_finish_time,
        )

    def _walk(self) -> _Walk:
        """Compute the current segment in closed form; nothing of the
        job changes (a priced evaluation lands in the shared memo).

        A plain iteration retains one iteration: the clock moves by its
        time, then by its checkpoint stall, an exact ``0.0`` except on
        checkpoint iterations. The walk gathers the iteration times up
        to the segment's natural end — the next scripted resize or the
        final iteration — puts one snapshot stall after each checkpoint
        iteration, and takes one ``np.cumsum``: bitwise the sequential
        fold :meth:`step` performs. The times are the base times by
        sample with each straggler run that meets the segment laid over
        them: a run's iterations ``p, p + K, ...`` share a sample (a
        group), so one memo lookup and one strided write. The groups
        the memo lacks are priced before the fold, all in one
        :func:`price_pending_steps` call in order of first position, so
        the walk folds once.

        A stall is the snapshot copy alone while the checkpoint's
        previous upload has cleared, which two comparisons check, one
        for the first checkpoint and one vector comparison for the
        rest; the segment ends on the first checkpoint that must wait,
        with its stall priced as ``AsyncCheckpointer.on_iteration``
        charges it. Otherwise it stops before the first irregular step
        (:func:`_cut`: ``searchsorted`` on the fold finds the iteration
        a timed event kills and the boundary a repair lands on), or
        before the final iteration or a scripted resize. No horizon
        stops a walk: :meth:`advance_until` cuts one with
        :meth:`_prefix`.
        """
        inputs = self._walk_inputs()
        i, clock, state, failures, repair_at, event_t, checkpointer, upload = (
            inputs
        )
        repair = np.inf if repair_at is None else repair_at
        n, K = self._n, self._K
        end = n - 1
        r = bisect.bisect_left(self._resize_iters, i)
        if r < len(self._resize_iters):
            end = min(end, self._resize_iters[r])
        if failures > MAX_FAILURES or i >= end or clock >= repair:
            # Nothing to walk: the next step is irregular (step() raises
            # on too many failures; the final iteration, a scripted
            # resize, a due repair re-growth) unless the job is done.
            return _Walk(inputs, clock, failures > MAX_FAILURES or i < n)
        # The fold holds the ``head`` iterations up to and including the
        # first checkpoint, then ``m`` blocks of ``width``: a
        # checkpoint's boundary and the iterations up to the next
        # checkpoint (the last block stops at ``end``).
        interval = checkpointer.config.interval_iterations
        first = max(interval, -(-i // interval) * interval)
        length = end - i
        head = min(first - i + 1, length)
        m = (length - head) // interval + 1 if first < end else 0
        width = interval + 1
        # The base times, past ``end`` so the blocks fill whole rows.
        stop = i + head + m * interval
        times = state.tiled(stop)[0][i:stop]
        # Straggler groups ``(p, b, result)``: positions ``p, p + K,
        # ...`` before ``b`` share one evaluation. Runs are disjoint and
        # sorted, so the groups the memo lacks are listed in order of
        # their first positions, as ``(group index, pending)``.
        groups = []
        missing = []
        lo = bisect.bisect_right(self._run_ends, i)
        hi = bisect.bisect_left(self._run_starts, end, lo)
        for start, run_end, profile in self._runs[lo:hi]:
            a = max(start, i) - i
            b = min(run_end, end) - i
            for p in range(a, min(a + K, b)):
                sample = (i + p) % K
                # The raw-profile hit is inlined: every peek and advance
                # re-reads a segment's runs.
                result = state.evaluations.get((sample, profile))
                if result is None:
                    result, key = _memo_lookup(state, sample, profile)
                    if result is None:
                        item = PendingEvaluation(state, sample, key)
                        missing.append((len(groups), item))
                groups.append((p, b, result))
        if missing:
            price_pending_steps([item for _, item in missing])
            for g, item in missing:
                p, b, _ = groups[g]
                result = state.evaluations[(item.sample, item.profile)]
                groups[g] = (p, b, result)
        if groups:
            times = times.copy()
            for p, b, result in groups:
                times[p:b:K] = result.iteration_time
        stall = checkpointer.snapshot_stall
        upload_duration = checkpointer.upload_duration
        fold = np.empty(head + m * width)
        fold[:head] = times[:head]
        rows = fold[head:].reshape(m, width)
        rows[:, 0] = stall
        rows[:, 1:] = times[head:].reshape(m, interval)
        fold[0] += clock
        ends = fold[:length + m]
        np.cumsum(ends, out=ends)
        # Each checkpoint's end-of-compute and boundary clocks.
        marks = fold[head - 1:head - 1 + m * width].reshape(m, width)[:, :2]
        wait = m
        if m:
            # A checkpoint waits iff its compute ends before the previous
            # upload clears: at the checkpointer's upload clock for the
            # first, and at the previous boundary plus the upload for
            # the others, as on_iteration sets it. Past the first that
            # waits, the fold is wrong.
            wait = 0 if marks[0, 0] < upload else m
            if wait == m > 1:
                late = np.flatnonzero(
                    marks[1:, 0] < marks[:-1, 1] + upload_duration
                )
                if len(late):
                    wait = int(late[0]) + 1
        take, irregular = _cut(
            ends[:head + wait * width] if wait < m else ends,
            head, width, event_t, repair,
        )
        if not take:
            return _Walk(inputs, clock, irregular)
        # The retained checkpoints; the segment's clock is the boundary
        # after its last iteration (after the stall, on a checkpoint).
        kept = 0 if take < head or not m else (take - head) // interval + 1
        marks = marks[:kept].copy()
        if kept > wait:
            # The segment ends on the first checkpoint that waits: its
            # stall is the copy plus the wait, as on_iteration charges.
            now = marks[wait, 0]
            due = marks[wait - 1, 1] + upload_duration if wait else upload
            clock = float(now + (stall + (due - now)))
            marks[wait, 1] = clock
        else:
            clock = float(ends[take - 1 + kept])
        return _Walk(
            inputs,
            clock,
            irregular or i + take == end,
            take,
            tuple(group for group in groups if group[0] < take),
            first,
            marks,
        )

    def _prefix(self, walk: _Walk, horizon: float) -> _Walk:
        """``walk`` cut at its first boundary at or after ``horizon``,
        which lies before its end: where ``while clock < horizon:
        step()`` stops. This is the one place a horizon cuts a walk,
        kept or fresh. Only the checkpoint interval holding ``horizon``
        is folded again, from the boundary before it."""
        i, clock, state, *_, checkpointer, _ = walk.inputs
        interval = checkpointer.config.interval_iterations
        marks, K = walk.marks, self._K
        j = int(np.searchsorted(marks[:, 1], horizon))
        # Positions ``[a, e)``: the iterations after checkpoint j - 1 up
        # to and including checkpoint j, or to the walk's end.
        checkpoint = walk.first - i + j * interval
        a = checkpoint - interval + 1 if j else 0
        e = checkpoint + 1 if j < len(marks) else walk.take
        if j:
            clock = float(marks[j - 1, 1])
        ends = state.tiled(i + e)[0][i + a:i + e].copy()
        for p, b, result in walk.groups:
            if p < a:
                p = a + (p - a) % K
            if p < b:
                ends[p - a:b - a:K] = result.iteration_time
        ends[0] += clock
        np.cumsum(ends, out=ends)
        # A horizon past every compute end lies in checkpoint j's stall.
        s = min(int(np.searchsorted(ends, horizon)), e - a - 1)
        take = a + s + 1
        if take == walk.take:
            return walk
        if take == e:
            clock, j = float(marks[j, 1]), j + 1
        else:
            clock = float(ends[s])
        return _Walk(
            walk.inputs, clock, False, take, walk.groups, walk.first,
            marks[:j],
        )

    def _apply(self, walk: _Walk) -> None:
        """Commit a walk computed from the job's current inputs: the
        one place plain iterations retain outside :meth:`step`. The
        times and MFUs are gathered again from the base ones with the
        walk's groups laid over them, the GPU-seconds fold by one
        ``np.cumsum``, and the checkpointer takes each retained
        snapshot at the clock the walk priced it."""
        self._kept = None
        take = walk.take
        if not take:
            return
        i, K = self._i, self._K
        state = self._cur
        base_times, base_mfus = state.tiled(i + take)
        times = self._times[i:i + take]
        mfus = self._mfu_traj[i:i + take]
        times[:] = base_times[i:i + take]
        mfus[:] = base_mfus[i:i + take]
        for p, b, result in walk.groups:
            times[p:b:K] = result.iteration_time
            mfus[p:b:K] = result.mfu
        gpu = state.num_gpus * times
        gpu[0] += self._gpu_seconds
        self._gpu_seconds = float(np.cumsum(gpu, out=gpu)[-1])
        checkpointer = self._checkpointer
        interval = checkpointer.config.interval_iterations
        for j, now in enumerate(walk.marks[:, 0].tolist()):
            checkpointer.on_iteration(walk.first + j * interval, now)
        self._clock = walk.clock
        self._i = i + take

    # ------------------------------------------------------------------ #
    # Fleet controls
    # ------------------------------------------------------------------ #
    def apply_resize(self, num_gpus: int, now: float) -> None:
        """Fleet-driven graceful resize at the job's next boundary.

        Updates the repair re-growth target and — when the size actually
        changes — pays one modeled re-orchestration pause, exactly like
        a trace-scripted :class:`~repro.scenarios.events.ResizeEvent`.

        A scheduler resize supersedes any pending failure repair: the
        new size *is* the job's target now, so the internal re-growth is
        cancelled (the fleet returns the under-repair capacity to the
        shared pool — see ``FleetEngine._resize_running``).
        """
        self._require_started()
        at = max(self._clock, now)
        self._clock = at
        self._allocated = num_gpus
        self._repair_at = None
        if self._cur.num_gpus != num_gpus:
            obs.event(
                "job.resize",
                job=self.name,
                t=at,
                from_gpus=self._cur.num_gpus,
                to_gpus=num_gpus,
            )
            obs.count("job.resizes")
            self._switch_cluster(num_gpus, self._clock)

    def preempt(self, now: float) -> None:
        """Preempt the job: roll back to the latest durable checkpoint
        and pause until :meth:`resume`.

        Work since the last durable checkpoint is lost (checkpoint-then-
        kill preemption would need a synchronous flush the runtime does
        not model); the fleet reclaims the job's GPUs and any capacity
        it had pending repair.
        """
        self._require_started()
        at = max(self._clock, now)
        with obs.span("job.preempt", job=self.name, t=at):
            obs.count("job.preemptions")
            logger.debug("%s: preempted at t=%.1fs", self.name, at)
            self._roll_back(at)
            self._clock = at
            self._repair_at = None
            self._paused = True
            self._preemptions += 1

    def resume(self, num_gpus: int, now: float) -> None:
        """Resume a preempted job on a (possibly different) slice.

        Pays the checkpoint reload, then a re-orchestration pause if the
        slice size changed.
        """
        if not self._paused:
            raise RuntimeError(f"job {self.name!r} is not preempted")
        at = max(self._clock, now)
        obs.event("job.resume", job=self.name, t=at, gpus=num_gpus)
        self._clock = at + self.scenario.checkpoint_load_seconds
        self._recovery_seconds += self.scenario.checkpoint_load_seconds
        self._allocated = num_gpus
        if self._cur.num_gpus != num_gpus:
            self._switch_cluster(num_gpus, self._clock)
        else:
            # Same slice: re-arm the failure clock so arrivals sampled
            # before the pause cannot fire inside the paused window.
            self._arm_failure_clock(self._clock)
        self._paused = False

    # ------------------------------------------------------------------ #
    # Result assembly
    # ------------------------------------------------------------------ #
    def finish(self) -> ScenarioResult:
        """Build the job's :class:`ScenarioResult` after :attr:`done`."""
        self._require_started()
        if not self.done:
            raise RuntimeError(
                f"job {self.name!r} has retained {self._i} of {self._n} "
                "iterations; finish() needs a completed run"
            )
        spec = self.scenario
        config = self.config
        n = self._n
        total_stall = self._stall_carry + self._checkpointer.total_stall
        useful_seconds = _fold(self._times)  # sequential, like the clock
        total_seconds = self._clock - self._start_time
        tokens = float(n) * config.global_batch_size * config.mllm.seq_len
        return ScenarioResult(
            num_iterations=n,
            total_seconds=total_seconds,
            ideal_seconds=self._ideal_seconds,
            useful_seconds=useful_seconds,
            lost_seconds=self._lost_seconds,
            checkpoint_stall_seconds=total_stall,
            recovery_seconds=self._recovery_seconds,
            num_failures=self._num_failures,
            replayed_iterations=self._replayed,
            num_replans=self._num_replans,
            initial_gpus=self._initial_gpus,
            final_gpus=self._cur.num_gpus,
            min_gpus=self._min_gpus,
            mean_mfu=float(np.mean(self._mfu_traj)),
            effective_tokens_per_s=(
                tokens / total_seconds if total_seconds > 0 else 0.0
            ),
            ideal_tokens_per_s=(
                tokens / self._ideal_seconds
                if self._ideal_seconds > 0
                else 0.0
            ),
            mfu_trajectory=self._mfu_traj,
            iteration_times=self._times,
            events=EventTrace(self._events_log),
            plan_cache_hits=self._plan_hits,
            plan_cache_misses=self._plan_misses,
            gpu_seconds=self._gpu_seconds,
            preemptions=self._preemptions,
        )

    def run(self) -> ScenarioResult:
        """Single-job convenience: start at the full config cluster,
        walk the whole timeline, and assemble the result. Each call is
        a new run: plans solved by an earlier one count as misses
        again."""
        self._solved_plans.clear()
        self.start()
        self.advance_until(float("inf"))
        return self.finish()
