"""Outside-in layer ledger: per-layer time and counts, from wrappers.

The ledger times calls into each layer's public functions from the
benchmark's own files; nothing inside ``src/`` changes. Each wrapper
pushes a frame on one stack, so a layer's *self* time is its inclusive
time minus the time spent in nested wrapped calls (of any layer), and
the self times of all layers plus the time outside every wrapper add up
to the traced wall time exactly.

``calls`` and ``rows`` count *entries* into a layer: a wrapped call
whose caller is not already inside the same layer. A public function
that delegates to another public function of its layer (``commit_step``
to ``step``, ``batch_flops`` to ``sample_flops``, ``planning_signature``
to ``config_hash``) is one entry. Counts repeat exactly from run to run
in a fresh process; they compare two versions of the program, and they
omit waiting.

A wrapper is installed wherever callers look the name up: a module
function is replaced in every ``repro`` module that bound it by name
(``planning_signature`` lives in ``repro.orchestration.plancache`` and
is imported into ``repro.core.api`` and ``repro.fleet.job``), and a
method is replaced on its class and on every subclass that overrides
it. Names imported lazily inside a function body read the defining
module at call time, which is why ``config_hash`` is patched in
``repro.experiments.spec``. The ledger is single-threaded: the
benchmark runs no worker processes or threads while tracing.
"""

from __future__ import annotations

import importlib
import pkgutil
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple


def _one(args, kwargs) -> int:
    return 1


def _batch(args, kwargs) -> int:
    # Batched kernel entry points take ``(self, rows, ...)``.
    return len(args[1])


def _take(args, kwargs) -> int:
    return int(args[1] if len(args) > 1 else kwargs["num_samples"])


#: Layer name -> wrapped targets ``"module:function"`` or
#: ``"module:Class.method"``, each with an optional row counter.
LAYERS: Dict[str, Sequence[Tuple[str, Optional[Callable]]]] = {
    "fleet.engine": [
        ("repro.fleet.engine:FleetEngine.run", None),
    ],
    "fleet.job": [
        ("repro.fleet.job:JobSimulator.step", None),
        ("repro.fleet.job:JobSimulator.prepare_step", None),
        ("repro.fleet.job:JobSimulator.commit_step", None),
        ("repro.fleet.job:JobSimulator.advance_until", None),
        ("repro.fleet.job:JobSimulator.start", None),
        ("repro.fleet.job:JobSimulator.feasible", None),
        ("repro.fleet.job:JobSimulator.apply_resize", None),
        ("repro.fleet.job:JobSimulator.preempt", None),
        ("repro.fleet.job:JobSimulator.resume", None),
        ("repro.fleet.job:JobSimulator.ideal_seconds_at", None),
        ("repro.fleet.job:JobSimulator.finish", None),
        ("repro.fleet.job:price_pending_steps", None),
    ],
    "plancache": [
        ("repro.orchestration.plancache:planning_signature", None),
        ("repro.experiments.spec:config_hash", None),
    ],
    "orchestration": [
        ("repro.orchestration.adaptive:AdaptiveOrchestrator.plan", None),
        ("repro.orchestration.baselines:MegatronOrchestrator.plan", None),
        ("repro.orchestration.baselines:DistMMOrchestrator.plan", None),
        ("repro.orchestration.adaptive:replan_for_cluster", None),
    ],
    "pipeline.kernel": [
        ("repro.pipeline.kernel:SimulatorKernel.evaluate", _one),
        ("repro.pipeline.kernel:SimulatorKernel.evaluate_batch", _batch),
        ("repro.pipeline.kernel:SimulatorKernel.makespan_from_durations", _one),
        ("repro.pipeline.kernel:SimulatorKernel.makespans_from_durations", _batch),
        ("repro.pipeline.kernel:SimulatorKernel.bubble_fraction", _one),
        ("repro.pipeline.kernel:SimulatorKernel.bubble_fractions", _batch),
    ],
    "runtime.iteration": [
        ("repro.runtime.iteration:TrainingIterationSimulator.prepare", None),
        ("repro.runtime.iteration:TrainingIterationSimulator.evaluate_prepared", None),
        ("repro.runtime.iteration:TrainingIterationSimulator.simulate", None),
        ("repro.runtime.iteration:evaluate_prepared_many", None),
    ],
    "runtime.mfu": [
        ("repro.runtime.mfu:ModelFlopsAccountant.sample_flops", None),
        ("repro.runtime.mfu:ModelFlopsAccountant.batch_flops", None),
    ],
    "fleet.policies": [
        ("repro.fleet.policies:SchedulingPolicy.targets", None),
    ],
    "cluster.allocation": [
        ("repro.cluster.allocation:GPUAllocator." + name, None)
        for name in (
            "carve", "release", "release_all", "mark_down",
            "mark_repaired", "abandon_repairs", "check", "snapshot",
            "held_by", "down_for", "owners",
        )
    ],
    "data": [
        ("repro.data.synthetic:SyntheticMultimodalDataset.take", _take),
        ("repro.orchestration.problem:SampleProfile.from_samples", None),
    ],
    "reordering": [
        ("repro.reordering.intra:intra_reorder", None),
        ("repro.reordering.inter:InterReorderer.reorder", None),
        ("repro.reordering.inter:InterReorderer.reorder_items", None),
    ],
    "experiments": [
        ("repro.experiments.runner:CampaignRunner.run", None),
        ("repro.experiments.runner:execute_trial", None),
        ("repro.experiments.cache:ResultCache.put", None),
        ("repro.experiments.journal:CampaignJournal.append", None),
    ],
}

#: Campaign result writes (fsynced journal appends, atomic cache puts).
WRITE_TARGETS = (
    "repro.experiments.cache:ResultCache.put",
    "repro.experiments.journal:CampaignJournal.append",
)
TRIAL_TARGET = "repro.experiments.runner:execute_trial"

#: Which end-to-end metric each layer should move, on which workload,
#: and where it should stay flat. Later changes cite these rows rather
#: than re-deriving them.
PREDICTIONS: List[Dict[str, Any]] = [
    {"metrics": ["fleet.engine.self_s"],
     "moves": ["wall_s"], "on": ["fleet-elastic"],
     "flat_on": ["paper-sweep"]},
    {"metrics": ["fleet.job.calls", "fleet.job.self_s"],
     "moves": ["wall_s", "peak_rss_mb"], "on": ["fleet-elastic"],
     "flat_on": ["paper-sweep"],
     "note": "small on fleet-stragglers"},
    {"metrics": ["plancache.signature_calls", "plancache.signature_s"],
     "moves": ["wall_s", "warm_wall_s"], "on": ["fleet-elastic"],
     "flat_on": ["paper-sweep"]},
    {"metrics": ["orchestration.calls", "orchestration.self_s",
                 "orchestration.plan_cache_lookups",
                 "orchestration.plan_cache_hit_ratio"],
     "moves": ["wall_s", "warm_wall_s"], "on": ["paper-sweep"],
     "flat_on": ["fleet-elastic"],
     "note": "wall_s on paper-sweep; warm_wall_s on the fleets; "
             "flat on fleet-elastic wall_s"},
    {"metrics": ["pipeline.kernel.calls", "pipeline.kernel.rows",
                 "pipeline.kernel.self_s"],
     "moves": ["wall_s"], "on": ["fleet-stragglers", "paper-sweep"],
     "flat_on": ["fleet-elastic"]},
    {"metrics": ["runtime.iteration.calls", "runtime.iteration.self_s"],
     "moves": ["wall_s"], "on": ["fleet-stragglers", "paper-sweep"],
     "flat_on": ["fleet-elastic"]},
    {"metrics": ["runtime.mfu.calls", "runtime.mfu.self_s"],
     "moves": ["wall_s"], "on": ["fleet-stragglers"],
     "flat_on": ["fleet-elastic"]},
    {"metrics": ["fleet.policies.calls", "fleet.policies.self_s",
                 "cluster.allocation.calls", "cluster.allocation.self_s"],
     "moves": ["wall_s"], "on": ["fleet-stragglers"],
     "flat_on": ["paper-sweep"]},
    {"metrics": ["data.samples", "data.self_s",
                 "reordering.calls", "reordering.self_s"],
     "moves": ["wall_s"], "on": ["paper-sweep"],
     "flat_on": ["fleet-elastic"]},
    {"metrics": ["experiments.trials", "experiments.self_s",
                 "experiments.write_s"],
     "moves": ["wall_s"], "on": ["paper-sweep"],
     "flat_on": ["fleet-elastic", "fleet-stragglers"]},
    {"metrics": ["traced_wall_s", "unattributed_s", "trace_overhead_frac"],
     "moves": [], "on": ["fleet-elastic", "fleet-stragglers", "paper-sweep"],
     "flat_on": []},
]


def _all_subclasses(cls) -> List[type]:
    found, todo = [], [cls]
    while todo:
        current = todo.pop()
        found.append(current)
        todo.extend(current.__subclasses__())
    return found


def _import_package(name: str) -> None:
    """Import every module of the package, so the by-name scan sees
    each module that will ever bind a wrapped function."""
    package = importlib.import_module(name)
    for info in pkgutil.walk_packages(package.__path__, name + "."):
        importlib.import_module(info.name)


class Ledger:
    """Installs layer wrappers, accumulates, and restores originals.

    Use as a context manager around the traced call::

        with Ledger() as book:
            run_workload()
        book.metrics(traced_wall_s, plan_cache_delta)
    """

    def __init__(self, layers=None, package: str = "repro"):
        self.layers = dict(LAYERS if layers is None else layers)
        self.package = package
        self.names = list(self.layers)
        n = len(self.names)
        self.entries = [0] * n
        self.rows = [0] * n
        self.self_s = [0.0] * n
        #: target -> [invocations, self seconds]
        self.functions: Dict[str, List[float]] = {}
        self._stack: List[List[Any]] = []
        #: (owner, attribute, original) for every replaced binding.
        self._patches: List[Tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------ #
    def _wrap(self, fn: Callable, layer: int, target: str, rows_fn):
        stack = self._stack
        entries, rows, self_s = self.entries, self.rows, self.self_s
        stats = self.functions.setdefault(target, [0, 0.0])
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if not stack or stack[-1][1] != layer:
                entries[layer] += 1
                if rows_fn is not None:
                    rows[layer] += rows_fn(args, kwargs)
            frame = [0.0, layer]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                own = elapsed - frame[0]
                self_s[layer] += own
                stats[0] += 1
                stats[1] += own
                if stack:
                    stack[-1][0] += elapsed

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapper")
        wrapper.__qualname__ = getattr(fn, "__qualname__", "wrapper")
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _patch(self, owner: Any, attr: str, new: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _install_method(self, module, qual: str, layer: int, target, rows_fn):
        cls_name, method = qual.split(".")
        for cls in _all_subclasses(getattr(module, cls_name)):
            raw = cls.__dict__.get(method)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                new = classmethod(
                    self._wrap(raw.__func__, layer, target, rows_fn)
                )
            elif callable(raw):
                new = self._wrap(raw, layer, target, rows_fn)
            else:
                raise TypeError(f"{target}: cannot wrap {type(raw).__name__}")
            self._patch(cls, method, new)

    def _install_function(self, module, name: str, layer: int, target, rows_fn):
        original = getattr(module, name)
        wrapper = self._wrap(original, layer, target, rows_fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (
                mod_name == self.package
                or mod_name.startswith(self.package + ".")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, attr, wrapper)

    def install(self) -> "Ledger":
        _import_package(self.package)
        try:
            for layer, name in enumerate(self.names):
                for target, rows_fn in self.layers[name]:
                    module_name, qual = target.split(":")
                    module = importlib.import_module(module_name)
                    install = (
                        self._install_method if "." in qual
                        else self._install_function
                    )
                    install(module, qual, layer, target, rows_fn)
        except BaseException:
            self.uninstall()
            raise
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Ledger":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ------------------------------------------------------------------ #
    def layer(self, name: str) -> Tuple[int, float, int]:
        """(entries, self seconds, rows) of one layer."""
        i = self.names.index(name)
        return self.entries[i], self.self_s[i], self.rows[i]

    def function(self, target: str) -> Tuple[int, float]:
        calls, own = self.functions.get(target, (0, 0.0))
        return int(calls), float(own)

    def metrics(
        self, traced_wall_s: float, plan_cache_delta: Tuple[int, int]
    ) -> Dict[str, float]:
        """``calls``, ``self_s`` and ``rows`` of every layer and the
        metrics derived from them, given the wall time of the call the
        ledger was installed around and the plan cache's ``(hits,
        misses)`` growth during it. ``BENCHMARK.json`` declares which of
        them are reported; ``trace_overhead_frac`` needs an untraced run
        and is added by ``run.py``."""
        out: Dict[str, float] = {}
        for name in self.names:
            entries, own, rows = self.layer(name)
            out[f"{name}.calls"] = entries
            out[f"{name}.self_s"] = own
            out[f"{name}.rows"] = rows
        out["plancache.signature_calls"] = out["plancache.calls"]
        out["plancache.signature_s"] = out["plancache.self_s"]
        out["data.samples"] = out["data.rows"]
        hits, misses = plan_cache_delta
        lookups = hits + misses
        out["orchestration.plan_cache_lookups"] = lookups
        out["orchestration.plan_cache_hit_ratio"] = (
            hits / lookups if lookups else 0.0
        )
        out["experiments.trials"] = self.function(TRIAL_TARGET)[0]
        out["experiments.write_s"] = sum(
            self.function(target)[1] for target in WRITE_TARGETS
        )
        out["traced_wall_s"] = traced_wall_s
        out["unattributed_s"] = traced_wall_s - sum(self.self_s)
        return out
