"""Command-line interface.

Usage::

    repro plan     --model mllm-72b --gpus 1296 --gbs 1920
    repro simulate --model mllm-9b  --gpus 96   --gbs 128
    repro compare  --model mllm-9b  --gpus 96   --gbs 128 \
                   --systems disttrain megatron-lm
    repro data-stats --samples 1000
    repro sweep    --models mllm-9b mllm-15b \
                   --systems disttrain megatron-lm \
                   --gpus 48 96 192 --gbs 128
    repro sweep    --models mllm-9b --gpus 48 --gbs 16 \
                   --scenario-iterations 500 --mtbf 100 300 --elastic
    repro scenario run   --model mllm-9b --gpus 48 --gbs 16 \
                         --iterations 500 --mtbf 200 --elastic
    repro scenario sweep --models mllm-9b --gpus 48 96 --gbs 16 \
                         --mtbf 50 200 800
    repro report   --baseline-system megatron-lm --csv results.csv

(Also runnable as ``python -m repro ...``.)
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import fields
from typing import Any, Dict, Iterable, Iterator, List, NamedTuple, Optional

from repro.core.api import compare_systems, plan, simulate
from repro.core.config import (
    KNOWN_SYSTEMS,
    REQUIRED_PARAMS,
    TASK_PARAMS,
    DistTrainConfig,
)
from repro.core.reports import format_comparison, format_table
from repro.obs.report import format_hit_miss
from repro.models.mllm import MLLM_PRESETS
from repro.orchestration.errors import InfeasibleClusterError
from repro.runtime.frozen import FROZEN_PRESETS
from repro.scenarios.spec import PARAM_FIELDS, ScenarioSpec

#: Default on-disk location of the campaign result cache.
DEFAULT_CACHE_DIR = ".repro-cache"

#: Columns ``repro sweep``/``repro report`` print by default.
REPORT_COLUMNS = (
    "model", "system", "gpus", "gbs", "frozen",
    "mfu", "throughput_tokens_per_s", "iteration_time", "status",
)

#: Columns printed for dynamic-cluster (scenario) sweeps.
SCENARIO_REPORT_COLUMNS = (
    "model", "system", "gpus", "gbs", "mtbf", "elastic",
    "goodput", "num_failures", "recovery_seconds", "mfu", "status",
)

#: Columns printed for shared-cluster (fleet) sweeps.
FLEET_REPORT_COLUMNS = (
    "model", "gpus", "fleet_policy", "fleet_pack", "fleet_jobs",
    "fleet_job_gpus", "mtbf", "fleet_goodput", "utilization",
    "mean_jct_seconds", "mean_queue_seconds", "slo_attainment",
    "preemptions", "status",
)


def _positive_int(text: str) -> int:
    """Parse a flag value that must be an integer of at least 1."""
    return _int_at_least(text, 1)


def _non_negative_int(text: str) -> int:
    """Parse an integer flag value of at least 0 (a seed: numpy rejects
    less; a retry count)."""
    return _int_at_least(text, 0)


def _float(text: str) -> float:
    """Parse a float flag value (finiteness is the caller's check)."""
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid float value: {text!r}"
        ) from None


def _positive_seconds(text: str) -> float:
    """Parse a positive, finite number of seconds."""
    value = _float(text)
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {text}"
        )
    return value


def _non_negative_seconds(text: str) -> float:
    """Parse a non-negative, finite number of seconds."""
    value = _float(text)
    if not 0.0 <= value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a non-negative finite number, got {text}"
        )
    return value


def _output_path(text: str) -> str:
    """Parse a path a command writes: its directory must exist, so that
    a mistyped path fails before the work and not after it."""
    directory = os.path.dirname(text) or "."
    if not os.path.isdir(directory):
        raise argparse.ArgumentTypeError(f"no such directory: {directory!r}")
    return text


def _int_at_least(text: str, minimum: int) -> int:
    """Parse an integer flag value of at least ``minimum``."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}"
        ) from None
    if value < minimum:
        raise argparse.ArgumentTypeError(
            f"must be >= {minimum}, got {value}"
        )
    return value


def _parse_filter(text: str):
    """``key=value`` with value coerced to int/float/bool when possible."""
    if "=" not in text:
        raise argparse.ArgumentTypeError(
            f"filter {text!r} must look like key=value"
        )
    key, raw = text.split("=", 1)
    value: object = raw
    for cast in (int, float):
        try:
            value = cast(raw)
            break
        except ValueError:
            continue
    if raw in ("true", "false"):
        value = raw == "true"
    return key, value


class _TaskFlag(NamedTuple):
    """One flag that sets a task parameter (see
    :data:`~repro.core.config.TASK_PARAMS`), its ``dest``, under its
    name with ``--`` in front. ``sweep_flag``, if set, is its name on
    the sweeps, where it takes several values."""

    param: str
    #: Its one parse rule: a ``type`` or ``choices``.
    parse: Dict[str, Any]
    help: str
    sweep_flag: Optional[str] = None
    #: Its help on the sweeps (None: no help line).
    sweep_help: Optional[str] = None
    #: Its value in a sweep that does not give it (a run that does not
    #: give it leaves its parameter to ``DistTrainConfig.from_params``).
    sweep_default: Any = None


#: The task flags, in the sweeps' usage order.
_TASK_FLAGS = (
    _TaskFlag("model", {"choices": sorted(MLLM_PRESETS)},
              "multimodal LLM preset", sweep_flag="--models"),
    _TaskFlag("system", {"choices": KNOWN_SYSTEMS}, "training system",
              sweep_flag="--systems",
              sweep_default=["disttrain", "megatron-lm"]),
    _TaskFlag("gpus", {"type": _positive_int}, "cluster size (multiple of 8)",
              sweep_flag="--gpus", sweep_help="cluster sizes to sweep"),
    _TaskFlag("gbs", {"type": _positive_int}, "global batch size",
              sweep_flag="--gbs",
              sweep_help="one global batch size for all cluster sizes, or "
                         "one per --gpus value (zipped: batch scales with "
                         "the cluster)"),
    _TaskFlag("frozen", {"choices": sorted(FROZEN_PRESETS)},
              "frozen-training phase", sweep_flag="--frozen",
              sweep_help="frozen-training phases (several values add a "
                         "sweep axis)",
              sweep_default=["full"]),
    _TaskFlag("vpp", {"type": _positive_int}, "virtual PP size",
              sweep_default=1),
    _TaskFlag("seed", {"type": _non_negative_int}, "synthetic data seed",
              sweep_help="data seed shared by every trial (default 0)"),
)


def _add_flag(
    parser: argparse.ArgumentParser, flag: str, param: str, **kwargs: Any
) -> None:
    """Declare ``flag``, which sets the trial parameter ``param``: its
    ``dest``. Its metavar is the one argparse derives from the flag's
    own name."""
    if "choices" not in kwargs and kwargs.get("action") != "store_true":
        kwargs.setdefault("metavar", flag[2:].replace("-", "_").upper())
    parser.add_argument(flag, dest=param, **kwargs)


def _add_task_arguments(
    parser: argparse.ArgumentParser, sweep: bool, systems: bool = False
) -> None:
    """Declare the :data:`_TASK_FLAGS` in their run or sweep flavor. The
    run flavor lists the required flags first; ``systems`` gives it the
    sweeps' ``--systems``, last (``compare``)."""
    for row in sorted(_TASK_FLAGS, key=lambda row: (
        not sweep and row.param not in REQUIRED_PARAMS,
        systems and row.param == "system",
    )):
        as_sweep = sweep or (systems and row.param == "system")
        several = as_sweep and row.sweep_flag is not None
        _add_flag(
            parser,
            row.sweep_flag if several else "--" + row.param,
            row.param,
            required=row.param in REQUIRED_PARAMS,
            help=row.sweep_help if as_sweep else row.help,
            default=row.sweep_default if as_sweep else None,
            **({"nargs": "+"} if several else {}),
            **row.parse,
        )
    parser.set_defaults(prog=parser.prog)


def _params(args: argparse.Namespace, names: Iterable[str]) -> Dict[str, Any]:
    """The parameters among ``names`` that the flags set: each flag's
    ``dest`` is the parameter it sets, and a flag not given is None."""
    return {
        name: getattr(args, name)
        for name in names
        if getattr(args, name, None) is not None
    }


class _TaskError(ValueError):
    """Task flags that describe no valid :class:`DistTrainConfig`."""


def _task_config(
    args: argparse.Namespace, names: Iterable[str] = TASK_PARAMS
) -> DistTrainConfig:
    """The config the task flags among ``names`` describe; :func:`main`
    reports an invalid one."""
    try:
        return DistTrainConfig.from_params(_params(args, names))
    except ValueError as exc:
        raise _TaskError(exc) from exc


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    """Flight-recorder flags shared by the simulation entry points."""
    parser.add_argument(
        "--trace", type=_output_path, default=None, metavar="PATH",
        help="record a flight-recorder trace (JSONL) to PATH; the "
             "trace embeds the run's metrics snapshot and is "
             "summarized by `repro trace summarize`",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="collect runtime metrics and print a digest to stderr "
             "after the run",
    )


@contextmanager
def _obs_session(args: argparse.Namespace) -> Iterator[None]:
    """Enable tracing/metrics around one simulation, then export.

    Observation never touches stdout: the trace goes to ``--trace``'s
    path and the digest to stderr, preserving the ``--json`` contract
    (one JSON document on stdout, nothing else).
    """
    trace_path = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    if trace_path is None and not want_metrics:
        yield
        return
    from repro.obs import METRICS, instrument
    from repro.obs.report import render_metrics

    with instrument.session(
        trace=trace_path is not None, metrics=want_metrics
    ) as tracer:
        yield
        snapshot = METRICS.snapshot()
    if trace_path is not None:
        tracer.export_jsonl(trace_path, metrics=snapshot)
        print(f"trace written to {trace_path}", file=sys.stderr)
    if want_metrics:
        print(render_metrics(snapshot), file=sys.stderr)


def cmd_plan(args: argparse.Namespace) -> int:
    result = plan(_task_config(args))
    print(result.plan.describe())
    if args.output:
        from repro.orchestration.serialization import save_plan

        save_plan(result.plan, args.output)
        print(f"launch configuration written to {args.output}")
    rate = (
        result.candidates_evaluated / result.solve_seconds
        if result.solve_seconds > 0
        else float("inf")
    )
    print(
        f"solve: {result.solve_seconds * 1e3:.0f} ms, "
        f"{result.candidates_evaluated} candidates "
        f"({rate:,.0f}/s), "
        f"{result.convex_solutions} convex subproblems"
    )
    breakdown = result.breakdown
    print(
        f"predicted iteration: {breakdown.total:.2f} s "
        f"(warmup {breakdown.warmup:.2f}, steady {breakdown.steady:.2f}, "
        f"bottleneck {breakdown.bottleneck})"
    )
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    config = _task_config(args)
    orchestration = plan(config)
    result = simulate(config, orchestration)
    print(orchestration.plan.describe())
    print(format_table(
        ["metric", "value"],
        [
            ["iteration time", f"{result.iteration_time:.2f} s"],
            ["pipeline phase", f"{result.pipeline_time:.2f} s"],
            ["DP gradient sync", f"{result.dp_sync_time * 1e3:.0f} ms"],
            ["preprocessing overhead",
             f"{result.preprocess_overhead * 1e3:.1f} ms"],
            ["MFU", f"{result.mfu * 100:.1f} %"],
            ["throughput",
             f"{result.throughput_tokens_per_s / 1e3:.0f} K tokens/s"],
            ["pipeline bubble", f"{result.bubble_fraction * 100:.0f} %"],
            ["GPUs used", result.num_gpus],
        ],
        title="simulated training iteration:",
    ))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    config = _task_config(
        args, [name for name in TASK_PARAMS if name != "system"]
    )
    comparison = compare_systems(config, systems=tuple(args.system))
    print(format_comparison(
        comparison, title=f"{args.model} @ {args.gpus} GPUs, GBS {args.gbs}:"
    ))
    if "megatron-lm" in args.system and "disttrain" in args.system:
        print(
            f"\nDistTrain vs Megatron-LM: "
            f"{comparison.mfu_ratio('megatron-lm'):.2f}x MFU, "
            f"{comparison.throughput_ratio('megatron-lm'):.2f}x throughput"
        )
    return 0


def cmd_data_stats(args: argparse.Namespace) -> int:
    from repro.data.stats import DatasetStatistics
    from repro.data.synthetic import SyntheticMultimodalDataset

    dataset = SyntheticMultimodalDataset(seed=args.seed)
    stats = DatasetStatistics(dataset.take(args.samples))
    rows = [[key, f"{value:.3f}" if isinstance(value, float) else value]
            for key, value in stats.summary().items()]
    print(format_table(
        ["statistic", "value"],
        rows,
        title=f"synthetic LAION-400M-like stream, {args.samples} samples:",
    ))
    return 0


def _add_sweep_arguments(parser: argparse.ArgumentParser) -> None:
    """Grid, execution and scenario options shared by ``sweep``,
    ``scenario sweep`` and ``fleet sweep``."""
    _add_task_arguments(parser, sweep=True)
    parser.add_argument(
        "--derive-seeds", action="store_true",
        help="give each trial a distinct deterministic data seed "
             "(ignored if --seed is set)",
    )
    parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help="content-addressed result store (re-runs skip cached trials)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="always re-execute"
    )
    parser.add_argument(
        "--jobs", type=_positive_int, default=None,
        help="worker processes (default: one per core); with 1 and no "
             "--trial-timeout, trials run in this process",
    )
    parser.add_argument(
        "--trial-timeout", type=_positive_seconds, default=None,
        metavar="SECONDS",
        help="per-trial wall-clock limit; overrunning trials are killed "
             "and retried on a fresh worker (default: unlimited)",
    )
    parser.add_argument(
        "--retries", type=_non_negative_int, default=2, metavar="N",
        help="retries per trial on transient faults — worker death, "
             "timeout, stalled heartbeat (default: %(default)s)",
    )
    parser.add_argument(
        "--poison-after", type=_positive_int, default=2, metavar="N",
        help="quarantine a trial as poisoned once it has crashed this "
             "many workers (default: %(default)s)",
    )
    parser.add_argument(
        "--resume", action="store_true",
        help="continue an interrupted campaign from its journal instead "
             "of re-executing finished trials",
    )
    parser.add_argument(
        "--no-journal", action="store_true",
        help="skip the durable campaign journal (disables --resume)",
    )
    parser.add_argument(
        "--fail-on-error", action="store_true",
        help="exit non-zero if any trial fails (for CI; default: only "
             "when no trial succeeds)",
    )
    parser.add_argument(
        "--name", default="sweep", help="campaign label"
    )
    parser.add_argument(
        "--output", default=None, help="write results (JSON) to this path"
    )
    parser.add_argument(
        "--quiet", action="store_true", help="no per-trial progress lines"
    )
    _add_scenario_arguments(parser, sweep=True)


class _ScenarioFlag(NamedTuple):
    """One flag that sets a scenario parameter (see
    :data:`~repro.scenarios.spec.PARAM_FIELDS`): its ``dest``, and its
    name on the sweeps with ``--`` in front."""

    param: str
    #: Its name on ``scenario run`` and ``fleet run``.
    run_flag: str
    help: str
    #: In the sweeps it takes several values, which add a sweep axis.
    axis: bool = False
    #: The sweeps declare it.
    sweep: bool = True
    #: ``fleet run`` declares it.
    fleet: bool = True

    @property
    def sweep_flag(self) -> str:
        return "--" + self.param.replace("_", "-")


#: The scenario flags, in usage order. Each takes its parse type and its
#: default from the :class:`ScenarioSpec` field it sets, whose
#: ``__post_init__`` checks every value.
_SCENARIO_FLAGS = (
    _ScenarioFlag("scenario_iterations", "--iterations",
                  "iterations each job retains"),
    _ScenarioFlag("mtbf", "--mtbf",
                  "per-GPU mean time between failures, in hours; without "
                  "it, no failures are sampled", axis=True),
    _ScenarioFlag("straggler_rate", "--straggler-rate",
                  "per-iteration probability a straggler episode starts",
                  axis=True),
    _ScenarioFlag("straggler_slowdown", "--straggler-slowdown",
                  "compute slowdown of a straggling rank"),
    _ScenarioFlag("elastic", "--elastic",
                  "re-orchestrate a job on its surviving GPUs after "
                  "failures"),
    _ScenarioFlag("checkpoint_interval", "--checkpoint-interval",
                  "iterations between asynchronous checkpoints"),
    _ScenarioFlag("sample_iterations", "--sample-iterations",
                  "distinct global batches priced per cluster size",
                  sweep=False),
    _ScenarioFlag("failure_seed", "--failure-seed",
                  "seed for sampled failures and stragglers; fleet job i "
                  "uses seed + i"),
    _ScenarioFlag("straggler_iterations", "--straggler-iterations",
                  "length of a straggler episode", sweep=False, fleet=False),
)

#: How a flag parses each :class:`ScenarioSpec` annotation (a ``bool``
#: field is a switch).
_FLAG_TYPES = {"int": int, "float": float, "Optional[float]": float}


def _add_scenario_arguments(
    parser: argparse.ArgumentParser, sweep: bool, fleet: bool = False
) -> None:
    """Declare the :data:`_SCENARIO_FLAGS` rows ``parser`` takes
    (``fleet``: the rows ``fleet run`` takes), in their run or sweep
    flavor.

    Each flag stays None unless given: a run leaves its field at the
    :class:`ScenarioSpec` default, and any flag given to a sweep turns
    it into a scenario sweep.
    """
    spec_fields = {f.name: f for f in fields(ScenarioSpec)}
    for row in _SCENARIO_FLAGS:
        if (sweep and not row.sweep) or (fleet and not row.fleet):
            continue
        spec_field = spec_fields[PARAM_FIELDS[row.param]]
        default, annotation = spec_field.default, spec_field.type
        notes = []
        if default is not None and annotation != "bool":
            notes.append(f"default: {default}")
        kwargs: Dict[str, Any] = (
            {"action": "store_true"} if annotation == "bool"
            else {"type": _FLAG_TYPES[annotation]}
        )
        if sweep and row.axis:
            notes.append("several values add a sweep axis")
            kwargs["nargs"] = "+"
        _add_flag(
            parser,
            row.sweep_flag if sweep else row.run_flag,
            row.param,
            default=None,
            help=row.help + (f" ({'; '.join(notes)})" if notes else ""),
            **kwargs,
        )


def _split_axes(values: Dict[str, Any]):
    """(base params, axes): a list of several values adds a sweep axis,
    and a single value, listed or not, goes in the base."""
    from repro.experiments import Axis

    base: Dict[str, Any] = {}
    axes = []
    for name, value in values.items():
        if isinstance(value, list) and len(value) > 1:
            axes.append(Axis(name, value))
        else:
            base[name] = value[0] if isinstance(value, list) else value
    return base, axes


def _scenario_sweep_params(args: argparse.Namespace, default_on: bool):
    """(base params, axes) for the scenario options, or (None, []) when
    the sweep stays a plain single-iteration grid.

    Raises:
        ValueError: if the base values, or any axis value over them,
            make an invalid :class:`~repro.scenarios.spec.ScenarioSpec`.
    """
    given = _params(args, PARAM_FIELDS)
    if not (default_on or given):
        return None, []
    base, axes = _split_axes(
        {"scenario_iterations": ScenarioSpec.num_iterations, **given}
    )
    ScenarioSpec.from_params(base)
    for axis in axes:
        for value in axis.values:
            ScenarioSpec.from_params({**base, axis.name: value})
    return base, axes


#: The fleet parameters the fleet flags set, in the order a fleet
#: sweep's trials list them.
_FLEET_PARAMS = ("fleet_arrival_spacing", "fleet_priorities",
                 "fleet_job_gpus", "fleet_policy", "fleet_jobs", "fleet_pack")


def _add_fleet_arguments(
    parser: argparse.ArgumentParser, sweep: bool
) -> None:
    """Shared-cluster workload knobs for ``repro fleet run|sweep``. Each
    stays None unless given and takes its default from
    :data:`~repro.fleet.spec.FLEET_PARAM_DEFAULTS` when the command
    runs, so the parser does not load the fleet."""
    from repro.scenarios.packs import PACKS

    axis = " (several values add a sweep axis)" if sweep else ""
    many: Dict[str, Any] = {"nargs": "+"} if sweep else {}
    _add_flag(
        parser, "--policies" if sweep else "--policy", "fleet_policy",
        choices=["fifo", "fair-share", "priority"],
        help="scheduling policy (default: fair-share, or the pack's "
             "own policy when --pack is set)" + axis,
        **many,
    )
    _add_flag(
        parser, "--packs" if sweep else "--pack", "fleet_pack",
        choices=sorted(PACKS),
        help="scenario pack shaping arrivals, job classes/SLOs, and "
             "correlated faults (replaces the fixed arrival grid)" + axis,
        **many,
    )
    _add_flag(
        parser, "--fleet-jobs" if sweep else "--jobs", "fleet_jobs",
        type=_positive_int, metavar="FLEET_JOBS",
        help="tenant jobs sharing the cluster" + axis,
        **many,
    )
    _add_flag(
        parser, "--job-gpus", "fleet_job_gpus", type=_positive_int,
        help="per-job GPU demand (default: the whole cluster)",
    )
    _add_flag(
        parser, "--arrival-spacing", "fleet_arrival_spacing",
        type=_non_negative_seconds,
        help="seconds between consecutive job arrivals",
    )
    _add_flag(
        parser, "--priorities", "fleet_priorities", nargs="+", type=int,
        help="priority cycle assigned to jobs in arrival order "
             "(matters under the priority policy)",
    )


def _fleet_sweep_params(args: argparse.Namespace):
    """(base params, axes) for the fleet flags, each unset one at its
    :data:`~repro.fleet.spec.FLEET_PARAM_DEFAULTS` value."""
    from repro.fleet.spec import FLEET_PARAM_DEFAULTS

    if args.fleet_pack:
        # A pack owns arrivals, demands, priorities and, unless one is
        # given, the policy; only the job count rides along.
        names: Iterable[str] = ("fleet_policy", "fleet_jobs", "fleet_pack")
        defaults = {"fleet_jobs": FLEET_PARAM_DEFAULTS["fleet_jobs"]}
    else:
        names, defaults = _FLEET_PARAMS, FLEET_PARAM_DEFAULTS
    values = {**dict.fromkeys(names), **defaults, **_params(args, names)}
    if "fleet_priorities" in values:
        # One priority cycle, not a sweep axis.
        values["fleet_priorities"] = tuple(values["fleet_priorities"])
    return _split_axes(
        {name: value for name, value in values.items() if value is not None}
    )


def cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import (
        CampaignRunner,
        ResultCache,
        RetryPolicy,
        SweepSpec,
        print_progress,
    )

    try:
        # --output may go in the cache directory, which the campaign
        # creates before it writes there unless it keeps neither a
        # cache nor a journal.
        if args.output and (
            args.no_cache and args.no_journal
            or os.path.dirname(os.path.abspath(args.output))
            != os.path.abspath(args.cache_dir)
        ):
            _output_path(args.output)
        spec = SweepSpec.grid(
            models=args.model,
            systems=args.system,
            gpus=args.gpus,
            gbs=args.gbs,
            name=args.name,
            **_params(args, ("vpp", "seed")),
        )
        scenario_base, scenario_axes = _scenario_sweep_params(
            args, default_on=getattr(args, "scenario_mode", False)
        )
        retry = RetryPolicy(
            max_attempts=args.retries + 1,
            poison_after=args.poison_after,
        )
    except (ValueError, argparse.ArgumentTypeError) as exc:
        print(f"{args.prog}: error: {exc}", file=sys.stderr)
        return 2
    fleet_base, fleet_axes = (
        _fleet_sweep_params(args) if getattr(args, "fleet_mode", False)
        else (None, [])
    )
    frozen_base, frozen_axes = _split_axes({"frozen": args.frozen})
    spec.base = {
        **spec.base, **frozen_base, **(scenario_base or {}),
        **(fleet_base or {}),
    }
    spec.axes = [*spec.axes, *frozen_axes, *scenario_axes, *fleet_axes]
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    runner = CampaignRunner(
        spec,
        cache=cache,
        processes=args.jobs,
        progress=None if args.quiet else print_progress,
        derive_seeds=args.derive_seeds,
        timeout=args.trial_timeout,
        retry=retry,
        journal_dir=None if args.no_journal else args.cache_dir,
        resume=args.resume,
    )
    with _obs_session(args):
        campaign = runner.run()

    frame = campaign.frame().sort_by("model", "system", "gpus")
    available = set(frame.columns)
    if fleet_base is not None:
        columns = FLEET_REPORT_COLUMNS
    elif scenario_base is not None:
        columns = SCENARIO_REPORT_COLUMNS
    else:
        columns = REPORT_COLUMNS
    header, rows = frame.table([c for c in columns if c in available])
    print(format_table(header, rows, title=f"campaign {spec.name!r}:"))
    print(campaign.summary())
    if cache is not None:
        print(f"cache: {cache.root} ({len(cache)} entries)")
    if args.output:
        frame.to_json(args.output)
        print(f"results written to {args.output}")
    if campaign.interrupted:
        print(
            "sweep interrupted; re-run with --resume to continue",
            file=sys.stderr,
        )
        return 130
    if args.fail_on_error and campaign.failed:
        return 1
    # Exit non-zero when every *executed* trial failed (a wedged grid
    # hiding behind cache hits must not look green to CI) or when
    # nothing at all succeeded. Partial grids stay normal: e.g.
    # Megatron-LM is infeasible on tiny clusters.
    executed_ok = any(
        r.ok and not r.cached and not r.resumed for r in campaign.records
    )
    if campaign.executed and not executed_ok:
        return 1
    return 1 if campaign.records and not campaign.ok_records else 0


def cmd_scenario_run(args: argparse.Namespace) -> int:
    from repro.fleet.job import TooManyFailuresError
    from repro.scenarios import EventTrace, run_scenario

    config = _task_config(args)
    try:
        params = _params(args, PARAM_FIELDS)
        if args.events:
            # --events names the trace file.
            params["events"] = EventTrace.from_json(args.events)
        spec = ScenarioSpec.from_params(params)
    except (OSError, ValueError) as exc:
        # OSError: unreadable --events file; ValueError: malformed
        # trace JSON or invalid scenario parameters.
        print(f"repro scenario run: error: {exc}", file=sys.stderr)
        return 2
    unfinished = None
    with _obs_session(args):
        try:
            result = run_scenario(config, spec)
        except TooManyFailuresError as exc:
            # Failures outpace the work; reported after the trace and
            # metrics of the run so far are written.
            unfinished = exc
    if unfinished is not None:
        print(f"{args.prog}: error: {unfinished}", file=sys.stderr)
        return 1

    gpus = f"{result.initial_gpus}"
    if result.min_gpus != result.initial_gpus:
        gpus += f" (min {result.min_gpus}, final {result.final_gpus})"
    print(format_table(
        ["metric", "value"],
        [
            ["iterations", result.num_iterations],
            ["wall-clock", f"{result.total_seconds:.1f} s"],
            ["ideal (no dynamics)", f"{result.ideal_seconds:.1f} s"],
            ["goodput", f"{result.goodput * 100:.1f} %"],
            ["availability", f"{result.availability * 100:.1f} %"],
            ["failures", result.num_failures],
            ["replayed iterations", result.replayed_iterations],
            ["lost work", f"{result.lost_seconds:.1f} s"],
            ["recovery time", f"{result.recovery_seconds:.1f} s"],
            ["re-orchestrations", result.num_replans],
            ["plan cache (hit/miss)",
             format_hit_miss(
                 result.plan_cache_hits, result.plan_cache_misses
             )],
            ["checkpoint stalls", f"{result.checkpoint_stall_seconds:.1f} s"],
            ["GPUs", gpus],
            ["mean MFU", f"{result.mean_mfu * 100:.1f} %"],
            ["effective throughput",
             f"{result.effective_tokens_per_s / 1e3:.0f} K tokens/s"],
        ],
        title=f"scenario: {args.model} @ {args.gpus} GPUs, "
              f"{spec.num_iterations} iterations:",
    ))
    if args.save_events:
        result.events.to_json(args.save_events)
        print(
            f"event trace ({len(result.events)} events) written to "
            f"{args.save_events}"
        )
    if args.output:
        import json

        from pathlib import Path

        Path(args.output).write_text(
            json.dumps(result.metrics(), indent=1) + "\n", encoding="utf-8"
        )
        print(f"metrics written to {args.output}")
    return 0


def cmd_fleet_run(args: argparse.Namespace) -> int:
    import json

    from repro.fleet import FleetEngine, FleetSpec
    from repro.fleet.engine import FleetSchedulingError
    from repro.fleet.job import TooManyFailuresError

    config = _task_config(args)
    try:
        spec = FleetSpec.from_params(
            config,
            ScenarioSpec.from_params(_params(args, PARAM_FIELDS)),
            _params(args, _FLEET_PARAMS),
        )
    except ValueError as exc:
        print(f"repro fleet run: error: {exc}", file=sys.stderr)
        return 2
    unfinished = None
    with _obs_session(args):
        engine = FleetEngine(spec)
        try:
            result = engine.run()
        except (FleetSchedulingError, TooManyFailuresError) as exc:
            # A queued job no slice fits, or failures that outpace the
            # work; reported after the trace and metrics are written.
            unfinished = exc
    if unfinished is not None:
        print(f"{args.prog}: error: {unfinished}", file=sys.stderr)
        return 1

    metrics = result.metrics()
    payload = {
        "policy": result.policy,
        "pack": spec.pack,
        "cluster_gpus": result.total_gpus,
        "metrics": metrics,
        "plan_cache": {
            "hits": result.plan_cache_hits,
            "misses": result.plan_cache_misses,
        },
        # Execution-side observability: per-process cache temperature,
        # not part of what the run computed.
        "state_cache": dict(engine.state_cache_stats),
        "jobs": [record.row() for record in result.records],
    }
    if args.json:
        # Machine-readable contract: one JSON document on stdout,
        # nothing else.
        print(json.dumps(payload, indent=1))
    else:
        summary_rows = [
            ["policy", result.policy],
            ["jobs", len(result.records)],
            ["makespan", f"{metrics['makespan_seconds']:.1f} s"],
            ["fleet goodput", f"{metrics['fleet_goodput'] * 100:.1f} %"],
            ["utilization", f"{metrics['utilization'] * 100:.1f} %"],
            ["mean JCT", f"{metrics['mean_jct_seconds']:.1f} s"],
            ["mean queue wait",
             f"{metrics['mean_queue_seconds']:.1f} s"],
            ["failures", int(metrics["num_failures"])],
            ["re-orchestrations", int(metrics["num_replans"])],
            ["preemptions", int(metrics["preemptions"])],
            ["plan cache (hit/miss)",
             format_hit_miss(
                 result.plan_cache_hits, result.plan_cache_misses
             )],
            ["jobstate cache (hit/miss)",
             format_hit_miss(
                 payload["state_cache"].get("hits", 0),
                 payload["state_cache"].get("misses", 0),
             )],
            ["fleet throughput",
             f"{metrics['fleet_tokens_per_s'] / 1e3:.0f} K tokens/s"],
        ]
        if spec.pack:
            summary_rows.insert(1, ["pack", spec.pack])
        if metrics["slo_jobs"] > 0:
            summary_rows.append(
                ["SLO attainment",
                 f"{metrics['slo_attainment'] * 100:.1f} % "
                 f"({int(metrics['slo_jobs'])} jobs)"]
            )
            summary_rows.append(
                ["deadline misses", int(metrics["deadline_misses"])]
            )
        print(format_table(
            ["metric", "value"],
            summary_rows,
            title=f"fleet: {len(result.records)} x {args.model} @ "
                  f"{args.gpus} shared GPUs, policy {result.policy}:",
        ))
        with_slo = any(r["deadline_s"] is not None for r in payload["jobs"])
        rows = [
            [
                r["job"], r["priority"], f"{r['arrival_s']:.0f}",
                f"{r['start_s']:.0f}", f"{r['jct_seconds']:.0f}",
                f"{r['queue_seconds']:.0f}",
                f"{r['goodput'] * 100:.1f}%", r["num_failures"],
                r["num_replans"], r["preemptions"],
                format_hit_miss(
                    r["plan_cache_hits"], r["plan_cache_misses"]
                ),
            ]
            + (
                [
                    "-" if r["deadline_met"] is None
                    else ("met" if r["deadline_met"] else "MISS")
                ]
                if with_slo
                else []
            )
            for r in payload["jobs"]
        ]
        print(format_table(
            ["job", "prio", "arrive", "start", "jct", "queued",
             "goodput", "fail", "replan", "preempt", "plan hit/miss"]
            + (["slo"] if with_slo else []),
            rows,
            title="per-job outcomes:",
        ))
    if args.output:
        from pathlib import Path

        Path(args.output).write_text(
            json.dumps(payload, indent=1) + "\n", encoding="utf-8"
        )
        if not args.json:
            print(f"fleet report written to {args.output}")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    from repro.experiments import ResultCache, ResultFrame

    if args.failures and not args.input:
        print("repro report: error: --failures needs --input: the result "
              "cache keeps ok trials only", file=sys.stderr)
        return 2
    if args.input:
        try:
            frame = ResultFrame.from_json(args.input)
        except (OSError, ValueError) as exc:
            print(f"repro report: error: {exc}", file=sys.stderr)
            return 2
        source = args.input
    else:
        cache = ResultCache(args.cache_dir)
        frame = ResultFrame.from_cache(cache)
        source = str(cache.root)
    if args.ok_only:
        frame = frame.ok()
    for key, value in args.filter or []:
        frame = frame.filter(**{key: value})
    if not frame:
        print(f"no results in {source} match")
        return 1
    if args.failures:
        return _report_failures(frame, source)

    available = set(frame.columns)
    columns = [c for c in REPORT_COLUMNS if c in available]
    if args.baseline_system:
        join = ("model", "gpus", "gbs", "frozen", "vpp", "seed", "schedule")
        join = tuple(k for k in join if k in available)
        try:
            for metric, name in (
                ("mfu", "mfu_gain"),
                ("throughput_tokens_per_s", "throughput_gain"),
            ):
                frame = frame.with_ratio(
                    metric,
                    baseline={"system": args.baseline_system},
                    join=join,
                    name=name,
                )
        except ValueError as exc:
            print(
                f"repro report: error: {exc} "
                f"(narrow the rows with --filter)",
                file=sys.stderr,
            )
            return 2
        columns += ["mfu_gain", "throughput_gain"]
    if args.metrics:
        columns = [c for c in columns if c not in (
            "mfu", "throughput_tokens_per_s", "iteration_time"
        )] + args.metrics

    frame = frame.sort_by(*(k for k in ("model", "system", "gpus", "gbs")
                            if k in available))
    header, rows = frame.table(columns)
    print(format_table(
        header, rows, title=f"{len(frame)} results from {source}:"
    ))
    if args.csv:
        frame.to_csv(args.csv)
        print(f"CSV written to {args.csv}")
    if args.json:
        frame.to_json(args.json)
        print(f"JSON written to {args.json}")
    return 0


def _report_failures(frame, source: str) -> int:
    """One block per failed trial: parameters, error, trimmed traceback."""
    from repro.experiments.spec import KNOWN_PARAMS

    failures = frame.filter(lambda row: row.get("status") != "ok")
    if not failures:
        print(f"no failed trials in {source}")
        return 0
    print(f"{len(failures)} failed trials in {source}:")
    for row in failures:
        params = ", ".join(
            f"{key}={row[key]}"
            for key in sorted(row)
            if key in KNOWN_PARAMS and row.get(key) is not None
        )
        print(f"\n[{row.get('status', 'failed')}] {params}")
        if row.get("error"):
            print(f"  error: {row['error']}")
        trace = row.get("traceback") or ""
        for line in trace.splitlines():
            print(f"  | {line}")
    return 1


def cmd_trace_summarize(args: argparse.Namespace) -> int:
    from repro.obs.report import load_trace, summarize_trace

    try:
        trace = load_trace(args.path)
    except (OSError, ValueError) as exc:
        print(f"repro trace summarize: error: {exc}", file=sys.stderr)
        return 2
    print(summarize_trace(trace, timeline_limit=args.timeline_limit))
    if args.plot:
        from repro.viz import plot_trace_timeline

        try:
            plot_trace_timeline(trace, args.plot)
        except RuntimeError as exc:
            print(
                f"repro trace summarize: error: {exc}", file=sys.stderr
            )
            return 2
        print(f"timeline plot written to {args.plot}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="DistTrain reproduction: plan and simulate "
                    "disaggregated multimodal LLM training.",
    )
    # Root-parser-only: argparse re-applies subparser defaults after
    # the root parse, so a per-subcommand flag with the same dest would
    # silently reset it. `repro --log-level debug <command>`.
    parser.add_argument(
        "--log-level", default=None,
        choices=["debug", "info", "warning", "error"],
        help="enable library logging to stderr at this level",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    plan_parser = subparsers.add_parser(
        "plan", help="run model orchestration for a task"
    )
    _add_task_arguments(plan_parser, sweep=False)
    plan_parser.add_argument(
        "--output", type=_output_path, default=None,
        help="write the launch configuration (JSON) to this path",
    )
    plan_parser.set_defaults(fn=cmd_plan)

    sim_parser = subparsers.add_parser(
        "simulate", help="plan and simulate one training iteration"
    )
    _add_task_arguments(sim_parser, sweep=False)
    sim_parser.set_defaults(fn=cmd_simulate)

    cmp_parser = subparsers.add_parser(
        "compare", help="run the same task under multiple systems"
    )
    _add_task_arguments(cmp_parser, sweep=False, systems=True)
    cmp_parser.set_defaults(fn=cmd_compare)

    data_parser = subparsers.add_parser(
        "data-stats", help="characterize the synthetic data stream"
    )
    data_parser.add_argument("--samples", type=_positive_int, default=500)
    data_parser.add_argument("--seed", type=_non_negative_int, default=0)
    data_parser.set_defaults(fn=cmd_data_stats)

    sweep_parser = subparsers.add_parser(
        "sweep",
        help="run a campaign: a grid of tasks in parallel, with caching",
    )
    _add_sweep_arguments(sweep_parser)
    _add_obs_arguments(sweep_parser)
    sweep_parser.set_defaults(fn=cmd_sweep, scenario_mode=False)

    scenario_parser = subparsers.add_parser(
        "scenario",
        help="simulate long runs under failures, stragglers, and "
             "elastic resizing",
    )
    scenario_sub = scenario_parser.add_subparsers(
        dest="scenario_command", required=True
    )

    scenario_run = scenario_sub.add_parser(
        "run", help="run one dynamic-cluster scenario"
    )
    _add_task_arguments(scenario_run, sweep=False)
    _add_scenario_arguments(scenario_run, sweep=False)
    scenario_run.add_argument(
        "--events", default=None,
        help="replay a JSON event trace instead of sampling",
    )
    scenario_run.add_argument(
        "--save-events", type=_output_path, default=None,
        help="write the realized event trace (JSON) here for replay",
    )
    scenario_run.add_argument(
        "--output", type=_output_path, default=None,
        help="write metrics (JSON) to this path",
    )
    _add_obs_arguments(scenario_run)
    scenario_run.set_defaults(fn=cmd_scenario_run)

    scenario_sweep = scenario_sub.add_parser(
        "sweep",
        help="sweep scenarios like any other campaign (cached, parallel)",
    )
    _add_sweep_arguments(scenario_sweep)
    _add_obs_arguments(scenario_sweep)
    scenario_sweep.set_defaults(fn=cmd_sweep, scenario_mode=True)

    fleet_parser = subparsers.add_parser(
        "fleet",
        help="schedule many jobs on one shared cluster "
             "(FIFO, fair-share, priority-preemptive)",
    )
    fleet_sub = fleet_parser.add_subparsers(
        dest="fleet_command", required=True
    )

    fleet_run = fleet_sub.add_parser(
        "run", help="run one shared-cluster fleet workload"
    )
    _add_task_arguments(fleet_run, sweep=False)
    _add_fleet_arguments(fleet_run, sweep=False)
    _add_scenario_arguments(fleet_run, sweep=False, fleet=True)
    fleet_run.add_argument(
        "--json", action="store_true",
        help="print one machine-readable JSON document (fleet metrics "
             "plus per-job rows with plan-cache hit/miss counts)",
    )
    fleet_run.add_argument(
        "--output", type=_output_path, default=None,
        help="also write the JSON report to this path",
    )
    _add_obs_arguments(fleet_run)
    fleet_run.set_defaults(fn=cmd_fleet_run)

    fleet_sweep = fleet_sub.add_parser(
        "sweep",
        help="sweep policy x job mix x dynamics like any other "
             "campaign (cached, parallel)",
    )
    _add_sweep_arguments(fleet_sweep)
    _add_fleet_arguments(fleet_sweep, sweep=True)
    _add_obs_arguments(fleet_sweep)
    fleet_sweep.set_defaults(fn=cmd_sweep, scenario_mode=False,
                             fleet_mode=True)

    trace_parser = subparsers.add_parser(
        "trace", help="inspect flight-recorder traces"
    )
    trace_sub = trace_parser.add_subparsers(
        dest="trace_command", required=True
    )
    trace_summarize = trace_sub.add_parser(
        "summarize",
        help="render a JSONL trace into a run report (span table, "
             "event timeline, metrics digest)",
    )
    trace_summarize.add_argument(
        "path", help="trace file written by --trace"
    )
    trace_summarize.add_argument(
        "--timeline-limit", type=_non_negative_int, default=40,
        help="max raw timeline rows to print (default: %(default)s)",
    )
    trace_summarize.add_argument(
        "--plot", type=_output_path, default=None, metavar="OUT.png",
        help="also render a graphical timeline (requires matplotlib)",
    )
    trace_summarize.set_defaults(fn=cmd_trace_summarize)

    report_parser = subparsers.add_parser(
        "report", help="tabulate cached campaign results"
    )
    report_parser.add_argument(
        "--cache-dir", default=DEFAULT_CACHE_DIR,
        help="result store to read (default: %(default)s)",
    )
    report_parser.add_argument(
        "--input", default=None,
        help="read a results JSON written by `repro sweep --output` "
             "instead of the cache",
    )
    report_parser.add_argument(
        "--filter", nargs="+", type=_parse_filter, default=None,
        metavar="KEY=VALUE", help="keep only matching rows",
    )
    report_parser.add_argument(
        "--ok-only", action="store_true", help="drop failed trials"
    )
    report_parser.add_argument(
        "--failures", action="store_true",
        help="list failed trials with their errors and tracebacks "
             "instead of the metrics table",
    )
    report_parser.add_argument(
        "--metrics", nargs="+", default=None,
        help="metric columns to print instead of the defaults",
    )
    report_parser.add_argument(
        "--baseline-system", default=None, choices=KNOWN_SYSTEMS,
        help="add MFU/throughput ratio columns vs this system",
    )
    report_parser.add_argument(
        "--csv", type=_output_path, default=None, help="export CSV here"
    )
    report_parser.add_argument(
        "--json", type=_output_path, default=None, help="export JSON here"
    )
    report_parser.set_defaults(fn=cmd_report)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.log_level:
        from repro.obs import configure_logging

        configure_logging(args.log_level)
    try:
        return args.fn(args)
    except (_TaskError, InfeasibleClusterError) as exc:
        # Flags that describe no valid task, or a task no plan fits on
        # the requested (or a scripted) cluster size.
        print(f"{args.prog}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
