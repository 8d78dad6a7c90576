"""CLI tests."""

import argparse
import json
from dataclasses import fields

import pytest

from repro.cli import (
    _FLAG_TYPES,
    _FLEET_PARAMS,
    _SCENARIO_FLAGS,
    _add_fleet_arguments,
    _non_negative_int,
    _non_negative_seconds,
    _positive_int,
    _positive_seconds,
    build_parser,
    main,
)
from repro.experiments.spec import FLEET_PARAMS, KNOWN_PARAMS, TrialSpec
from repro.fleet import FleetSpec
from repro.fleet.spec import FLEET_PARAM_DEFAULTS
from repro.scenarios.spec import PARAM_FIELDS, ScenarioSpec


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["plan", "--model", "gpt-5", "--gpus", "8", "--gbs", "8"]
            )

    def test_unknown_system_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["plan", "--model", "mllm-9b", "--gpus", "8", "--gbs", "8",
                 "--system", "horovod"]
            )


class TestCommands:
    def test_plan(self, capsys):
        code = main(
            ["plan", "--model", "mllm-9b", "--gpus", "48", "--gbs", "32"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "orchestration [disttrain]" in out
        assert "predicted iteration" in out

    def test_simulate(self, capsys):
        code = main(
            ["simulate", "--model", "mllm-9b", "--gpus", "48", "--gbs", "32"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "MFU" in out
        assert "tokens/s" in out

    def test_compare(self, capsys):
        code = main(
            ["compare", "--model", "mllm-9b", "--gpus", "48", "--gbs", "32",
             "--systems", "disttrain", "megatron-lm"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "disttrain" in out and "megatron-lm" in out
        assert "x MFU" in out

    def test_data_stats(self, capsys):
        code = main(["data-stats", "--samples", "100"])
        out = capsys.readouterr().out
        assert code == 0
        assert "cv_image_tokens" in out

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_data_stats_rejects_non_positive_samples(self, capsys, samples):
        with pytest.raises(SystemExit) as exit_info:
            main(["data-stats", "--samples", samples])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert "repro data-stats: error: argument --samples: must be >= 1" \
            in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("argv", [
        pytest.param(["simulate", "--model", "mllm-9b", "--gpus", "48",
                      "--gbs", "32", "--seed", "-1"], id="simulate"),
        pytest.param(["data-stats", "--seed", "-1"], id="data-stats"),
        pytest.param(["sweep", "--models", "mllm-9b", "--systems",
                      "disttrain", "--gpus", "48", "--gbs", "32",
                      "--seed", "-1"], id="sweep"),
        pytest.param(["scenario", "run", "--model", "mllm-9b", "--gpus",
                      "48", "--gbs", "16", "--iterations", "20", "--mtbf",
                      "3", "--failure-seed", "-1"], id="scenario-run"),
        pytest.param(["fleet", "run", "--model", "mllm-9b", "--gpus", "96",
                      "--gbs", "16", "--jobs", "2", "--iterations", "20",
                      "--mtbf", "3", "--failure-seed", "-3"],
                     id="fleet-run"),
        pytest.param(["fleet", "run", "--model", "mllm-9b", "--gpus", "96",
                      "--gbs", "16", "--jobs", "2", "--iterations", "20",
                      "--job-gpus", "0"], id="fleet-run-job-gpus"),
        pytest.param(["fleet", "sweep", "--models", "mllm-9b", "--systems",
                      "disttrain", "--gpus", "96", "--gbs", "16",
                      "--scenario-iterations", "10", "--fleet-jobs", "0"],
                     id="fleet-sweep-fleet-jobs"),
        pytest.param(["sweep", "--models", "mllm-9b", "--systems",
                      "disttrain", "--gpus", "48", "--gbs", "16",
                      "--scenario-iterations", "10",
                      "--checkpoint-interval", "0"],
                     id="sweep-checkpoint-interval"),
        pytest.param(["sweep", "--models", "mllm-9b", "--systems",
                      "disttrain", "--gpus", "48", "--gbs", "16",
                      "--scenario-iterations", "0"],
                     id="sweep-scenario-iterations"),
        *(
            pytest.param(["sweep", "--models", "mllm-9b", "--systems",
                          "disttrain", "--gpus", "48", "--gbs", "16",
                          "--trial-timeout", value],
                         id=f"sweep-trial-timeout-{value}")
            for value in ("0", "-1", "nan")
        ),
        pytest.param(["sweep", "--models", "mllm-9b", "--systems",
                      "disttrain", "--gpus", "48", "--gbs", "16",
                      "--retries", "-1"], id="sweep-retries"),
        pytest.param(["sweep", "--models", "mllm-9b", "--systems",
                      "disttrain", "--gbs", "16", "--gpus", "0"],
                     id="sweep-gpus"),
        pytest.param(["sweep", "--models", "mllm-9b", "--systems",
                      "disttrain", "--gpus", "48", "--gbs", "0"],
                     id="sweep-gbs"),
        pytest.param(["scenario", "sweep", "--models", "mllm-9b", "--gpus",
                      "48", "--gbs", "16", "--vpp", "0"],
                     id="scenario-sweep-vpp"),
        pytest.param(["sweep", "--models", "mllm-9b", "--systems",
                      "disttrain", "--gpus", "48", "--gbs", "16",
                      "--vpp", "0"], id="sweep-vpp"),
        *(
            pytest.param(["sweep", "--models", "mllm-9b", "--systems",
                          "disttrain", "--gpus", "48", "--gbs", "16",
                          "--jobs", value], id=f"sweep-jobs-{value}")
            for value in ("0", "-3")
        ),
        *(
            pytest.param(["fleet", "run", "--model", "mllm-9b", "--gpus",
                          "96", "--gbs", "16", "--jobs", "2", "--job-gpus",
                          "48", "--iterations", "5", "--arrival-spacing",
                          value], id=f"fleet-run-arrival-spacing-{value}")
            for value in ("nan", "inf", "-1")
        ),
        pytest.param(["fleet", "sweep", "--models", "mllm-9b", "--systems",
                      "disttrain", "--gpus", "96", "--gbs", "16",
                      "--scenario-iterations", "10", "--arrival-spacing",
                      "nan"], id="fleet-sweep-arrival-spacing"),
        *(
            pytest.param(["sweep", "--models", "mllm-9b", "--systems",
                          "disttrain", "--gpus", "48", "--gbs", "16",
                          "--poison-after", value],
                         id=f"sweep-poison-after-{value}")
            for value in ("0", "-1")
        ),
        pytest.param(["fleet", "sweep", "--models", "mllm-9b", "--systems",
                      "disttrain", "--gpus", "96", "--gbs", "16",
                      "--scenario-iterations", "10", "--poison-after", "0"],
                     id="fleet-sweep-poison-after"),
        pytest.param(["trace", "summarize", "trace.jsonl",
                      "--timeline-limit", "-3"],
                     id="trace-summarize-timeline-limit"),
    ])
    def test_out_of_range_flag_exits_2_before_work(
        self, capsys, tmp_path, argv
    ):
        """Negative seeds (numpy takes none), a zero per-job demand,
        zero sweep counts, grid values (cluster sizes, batch sizes, VPP)
        and worker counts below 1, a trial timeout that is not a positive
        finite number, a negative retry count and an arrival spacing that
        is not a non-negative finite number, a poison threshold below 1
        and a negative timeline limit fail before any work, not in a
        traceback, a run of failed trials, an endless fleet loop, a
        created cache directory or a timeline sliced from its end. The
        scenario flags fail with the ScenarioSpec check that bounds
        them; every other flag fails at parse time."""
        command = " ".join(
            argv[:2] if argv[0] in ("scenario", "fleet", "trace")
            else argv[:1]
        )
        flag, value = argv[-2:]
        spec_messages = {
            "--failure-seed": f"seed must be >= 0, got {value}",
            "--checkpoint-interval": "checkpoint_interval must be >= 1",
            "--scenario-iterations": "num_iterations must be >= 1",
        }
        if flag == "--trial-timeout":
            bound = f"must be a positive finite number, got {value}"
        elif flag == "--arrival-spacing":
            bound = f"must be a non-negative finite number, got {value}"
        else:
            minimum = 0 if flag in ("--seed", "--retries",
                                    "--timeline-limit") else 1
            bound = f"must be >= {minimum}, got {value}"
        expected = spec_messages.get(flag, f"argument {flag}: {bound}")
        if "sweep" in argv[:2]:
            argv = argv + ["--cache-dir", str(tmp_path)]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert f"repro {command}: error: {expected}" in captured.err
        assert not any(tmp_path.iterdir())
        assert "Traceback" not in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("flags, message", [
        pytest.param(["--mtbf", "-5"], "mtbf_gpu_hours must be positive",
                     id="mtbf-negative"),
        pytest.param(["--mtbf", "0"], "mtbf_gpu_hours must be positive",
                     id="mtbf-zero"),
        pytest.param(["--straggler-rate", "1.5"],
                     "straggler_rate is a per-iteration probability",
                     id="straggler-rate"),
        pytest.param(["--straggler-slowdown", "0.5"],
                     "straggler_slowdown must be finite and >= 1.0",
                     id="straggler-slowdown"),
        pytest.param(["--mtbf", "10", "-5"],
                     "mtbf_gpu_hours must be positive", id="mtbf-axis"),
    ])
    def test_invalid_scenario_value_exits_2_before_work(
        self, capsys, tmp_path, flags, message
    ):
        """The sweep builds a ScenarioSpec from its base values and from
        each axis value before any trial runs, so the spec's own checks
        reject what ``repro scenario run`` rejects."""
        code = main(
            ["sweep", "--models", "mllm-9b", "--systems", "disttrain",
             "--gpus", "48", "--gbs", "16", "--scenario-iterations", "20",
             *flags, "--cache-dir", str(tmp_path)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == f"repro sweep: error: {message}\n"
        assert captured.out == ""
        assert not any(tmp_path.iterdir())

    def test_data_stats_accepts_small_sample_count(self, capsys):
        assert main(["data-stats", "--samples", "5"]) == 0
        assert "5 samples" in capsys.readouterr().out

    # The ids keep the numbers the rows had while two rows for --gbs 0
    # and --vpp 0 came first; those values now fail at parse time
    # (TestNumberFlags).
    @pytest.mark.parametrize("command", ["plan", "simulate", "compare"])
    @pytest.mark.parametrize("flags, message", [
        pytest.param(["--model", "mllm-9b", "--gpus", "12", "--gbs", "32"],
                     "not a multiple", id="flags2-not a multiple"),
        # Valid tasks no plan fits on: DistTrain's search and a baseline
        # orchestrator (compare plans megatron-lm by default) both
        # report InfeasibleClusterError the same way.
        pytest.param(["--model", "mllm-72b", "--gpus", "8", "--gbs", "16"],
                     "no feasible orchestration",
                     id="flags3-no feasible orchestration"),
        pytest.param(["--model", "mllm-9b", "--gpus", "16", "--gbs", "32",
                      "--system", "megatron-lm"],
                     "cluster too small", id="flags4-cluster too small"),
        pytest.param(["--model", "mllm-9b", "--gpus", "48", "--gbs", "16",
                      "--vpp", "3"],
                     "vpp=3 does not divide the 32 LLM layers",
                     id="flags5-vpp=3 does not divide the 32 LLM layers"),
    ])
    def test_invalid_task_exits_2(self, capsys, command, flags, message):
        code = main([command] + flags)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"repro {command}: error: ")
        assert message in captured.err
        assert captured.out == ""

    def test_distmm_plan_stays_within_budget(self, capsys):
        # The FLOPs shares round to at least one GPU each; the LLM is
        # sized within what the encoder and generator leave.
        code = main(
            ["plan", "--model", "mllm-15b", "--gpus", "16", "--gbs", "32",
             "--system", "distmm*", "--frozen", "llm-only"]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "orchestration [distmm*] for mllm-15b on 10/16 GPUs" in out

    def test_distmm_without_room_for_the_llm_exits_2(self, capsys):
        code = main(
            ["plan", "--model", "mllm-72b", "--gpus", "16", "--gbs", "32",
             "--system", "distmm*", "--frozen", "encoder-only"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("repro plan: error: ")
        assert "DistMM* found no feasible LLM plan" in captured.err
        assert captured.out == ""

    def test_infeasible_fleet_exits_2(self, capsys):
        code = main(
            ["fleet", "run", "--model", "mllm-72b", "--gpus", "16",
             "--gbs", "16", "--jobs", "1"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("repro fleet run: error: ")
        assert "no feasible orchestration" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("record, message", [
        pytest.param(
            {"kind": "resize", "iteration": 5, "num_gpus": 12},
            "cannot re-plan mllm-9b on 12 GPUs", id="resize-to-12",
        ),
        pytest.param(
            {"kind": "failure", "gpus_lost": 8},
            "missing field(s) ['time_s']", id="failure-without-time",
        ),
        pytest.param(
            {"kind": "straggler", "iteration": 1.5,
             "duration_iterations": 2, "rank": 0, "slowdown": 1.5},
            "iteration must be an integer", id="fractional-iteration",
        ),
    ])
    def test_bad_event_trace_exits_2(self, capsys, tmp_path, record, message):
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({"events": [record]}), encoding="utf-8")
        code = main(
            ["scenario", "run", "--model", "mllm-9b", "--gpus", "48",
             "--gbs", "16", "--iterations", "20", "--events", str(trace)]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("repro scenario run: error: ")
        assert message in captured.err
        assert captured.out == ""

    def test_frozen_flag(self, capsys):
        code = main(
            ["plan", "--model", "mllm-9b", "--gpus", "48", "--gbs", "32",
             "--frozen", "llm-only"]
        )
        assert code == 0


#: Each ScenarioSpec field's annotation.
_ANNOTATIONS = {f.name: f.type for f in fields(ScenarioSpec)}


class _Accepted(Exception):
    """Raised in place of a run or a campaign: the command accepted its
    flags and built what it would run."""


def _accept(*args, **kwargs):
    raise _Accepted(args[-1] if args else kwargs)


def _built_scenario(built):
    """The ScenarioSpec a command built: a scenario run's own, a fleet's
    first job's or a sweep's first trial's."""
    if isinstance(built, ScenarioSpec):
        return built
    if isinstance(built, FleetSpec):
        return built.jobs[0].scenario
    return built.expand()[0].to_scenario()


class TestScenarioFlags:
    """Each scenario flag sets one ScenarioSpec field, whose checks are
    the only ones: every command that takes the flag rejects a bad value
    with the spec's message, or accepts it."""

    COMMANDS = {
        "scenario run": ["scenario", "run", "--model", "mllm-9b", "--gpus",
                         "48", "--gbs", "16"],
        "fleet run": ["fleet", "run", "--model", "mllm-9b", "--gpus", "96",
                      "--gbs", "16", "--jobs", "2", "--job-gpus", "48"],
        "sweep": ["sweep", "--models", "mllm-9b", "--systems", "disttrain",
                  "--gpus", "48", "--gbs", "16"],
    }
    #: The only (flag, value) pairs below that make a valid spec.
    VALID = {("--mtbf", "inf"), ("--straggler-rate", "0"),
             ("--failure-seed", "0")}

    @pytest.mark.parametrize("row, value", [
        pytest.param(row, value, id=f"{row.run_flag}={value}")
        for row in _SCENARIO_FLAGS
        if _ANNOTATIONS[PARAM_FIELDS[row.param]] != "bool"
        for value in ("0", "-1", "nan", "inf")
    ])
    def test_one_bad_value_one_message(
        self, monkeypatch, capsys, tmp_path, row, value
    ):
        monkeypatch.setattr("repro.scenarios.run_scenario", _accept)
        monkeypatch.setattr("repro.fleet.FleetEngine", _accept)
        monkeypatch.setattr("repro.experiments.CampaignRunner", _accept)
        field = PARAM_FIELDS[row.param]
        parse = _FLAG_TYPES[_ANNOTATIONS[field]]
        try:
            parsed = parse(value)
        except ValueError:
            parsed = message = None
        else:
            try:
                ScenarioSpec(**{field: parsed})
                message = None
            except ValueError as exc:
                message = str(exc)
        valid = parsed is not None and message is None
        assert valid == ((row.run_flag, value) in self.VALID)
        commands = {"scenario run": row.run_flag}
        if row.fleet:
            commands["fleet run"] = row.run_flag
        if row.sweep:
            commands["sweep"] = row.sweep_flag
        for command, flag in commands.items():
            written = tmp_path / command.replace(" ", "-")
            written.mkdir()
            argv = self.COMMANDS[command] + [flag, value] + (
                ["--cache-dir", str(written)] if command == "sweep"
                else ["--output", str(written / "out.json")]
            )
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            except _Accepted as accepted:
                assert valid, command
                scenario = _built_scenario(accepted.args[0])
                assert getattr(scenario, field) == parsed, command
                continue
            captured = capsys.readouterr()
            assert not valid, command
            assert code == 2, command
            assert not any(written.iterdir()), command
            assert captured.out == "", command
            assert "Traceback" not in captured.err, command
            if parsed is None:
                assert (
                    f"repro {command}: error: argument {flag}: invalid "
                    f"{parse.__name__} value: {value!r}"
                ) in captured.err
            else:
                assert captured.err == (
                    f"repro {command}: error: {message}\n"
                ), command


def _fleet_number_flags(sweep):
    """(flag, dest, parse) of every numeric fleet flag, read off the
    declaration ``repro fleet run`` (or ``sweep``) uses."""
    parser = argparse.ArgumentParser()
    _add_fleet_arguments(parser, sweep=sweep)
    return [
        (action.option_strings[0], action.dest, action.type)
        for action in parser._actions
        if action.type is not None
    ]


#: What a built fleet reads back for each numeric fleet flag.
_FLEET_VALUES = {
    "fleet_jobs": lambda fleet: len(fleet.jobs),
    "fleet_job_gpus": lambda fleet: fleet.jobs[0].config.cluster.num_gpus,
    "fleet_arrival_spacing": lambda fleet: fleet.jobs[1].arrival_s,
    "fleet_priorities": lambda fleet: fleet.jobs[0].priority,
}


def _built_fleet(built):
    """The FleetSpec a command built: a fleet run's own or a fleet
    sweep's first trial's."""
    if isinstance(built, FleetSpec):
        return built
    return built.expand()[0].to_fleet()


class TestFleetFlags:
    """The numeric fleet flags: their parse-time checks and the fleet
    that their defaults build."""

    #: Each leaves the job count unset.
    COMMANDS = {
        "fleet run": ["fleet", "run", "--model", "mllm-9b", "--gpus", "96",
                      "--gbs", "16", "--job-gpus", "48"],
        "fleet sweep": ["fleet", "sweep", "--models", "mllm-9b",
                        "--systems", "disttrain", "--gpus", "96", "--gbs",
                        "16", "--job-gpus", "48"],
    }
    #: The only (flag, value) pairs below that a command accepts.
    VALID = {("--arrival-spacing", "0"), ("--priorities", "0"),
             ("--priorities", "-1")}

    @pytest.mark.parametrize("command, flag, dest, parse, value", [
        pytest.param(command, flag, dest, parse, value,
                     id=f"{command.split()[1]}:{flag}={value}")
        for command in ("fleet run", "fleet sweep")
        for flag, dest, parse in _fleet_number_flags(command == "fleet sweep")
        for value in ("0", "-1", "nan", "inf")
    ])
    def test_one_bad_value_one_message(
        self, monkeypatch, capsys, tmp_path, command, flag, dest, parse, value
    ):
        monkeypatch.setattr("repro.fleet.FleetEngine", _accept)
        monkeypatch.setattr("repro.experiments.CampaignRunner", _accept)
        try:
            parsed = parse(value)
        except argparse.ArgumentTypeError as exc:
            parsed, message = None, str(exc)
        except ValueError:
            # argparse's own message for a plain type's ValueError.
            parsed = None
            message = f"invalid {parse.__name__} value: {value!r}"
        assert (parsed is not None) == ((flag, value) in self.VALID)
        argv = self.COMMANDS[command] + [flag, value] + (
            ["--cache-dir", str(tmp_path)] if command == "fleet sweep"
            else ["--output", str(tmp_path / "out.json")]
        )
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except _Accepted as accepted:
            assert parsed is not None, command
            fleet = _built_fleet(accepted.args[0])
            assert _FLEET_VALUES[dest](fleet) == parsed, command
            return
        captured = capsys.readouterr()
        assert parsed is None, command
        assert code == 2, command
        assert not any(tmp_path.iterdir()), command
        assert captured.out == "", command
        assert (
            f"repro {command}: error: argument {flag}: {message}"
        ) in captured.err, command

    def test_every_numeric_flag_is_checked(self):
        """A new numeric fleet flag needs a row in _FLEET_VALUES."""
        for sweep in (False, True):
            assert {dest for _, dest, _ in _fleet_number_flags(sweep)} == set(
                _FLEET_VALUES
            )

    @pytest.mark.parametrize("command", ["fleet run", "fleet sweep"])
    def test_unset_flags_build_a_library_trials_fleet(
        self, monkeypatch, command
    ):
        """A command and a library trial that leave the fleet flags
        unset build the same fleet, of FLEET_PARAM_DEFAULTS' job
        count."""
        monkeypatch.setattr("repro.fleet.FleetEngine", _accept)
        monkeypatch.setattr("repro.experiments.CampaignRunner", _accept)
        with pytest.raises(_Accepted) as accepted:
            main(self.COMMANDS[command])
        fleet = _built_fleet(accepted.value.args[0])
        trial = TrialSpec({
            "model": "mllm-9b", "gpus": 96, "gbs": 16, "fleet_job_gpus": 48,
        })
        assert len(fleet.jobs) == FLEET_PARAM_DEFAULTS["fleet_jobs"]
        assert fleet.canonical() == trial.to_fleet().canonical()
        assert trial.label() == (
            f"mllm-9b/disttrain/96g/gbs16/fleet("
            f"{FLEET_PARAM_DEFAULTS['fleet_jobs']}x,fair-share)"
        )


def _subcommands(parser, words=()):
    """(command, parser) of every subcommand under ``parser``, its
    command the words that name it."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, sub in action.choices.items():
                yield from _subcommands(sub, words + (name,))
            return
    yield " ".join(words), parser


#: The parse helpers that bound a number.
_NUMBER_PARSERS = (_positive_int, _non_negative_int, _positive_seconds,
                   _non_negative_seconds)

_TASK = ["--model", "mllm-9b", "--gpus", "48", "--gbs", "16"]
_GRID = ["--models", "mllm-9b", "--systems", "disttrain", "--gpus", "48",
         "--gbs", "16"]
_FLEET_TASK = ["--model", "mllm-9b", "--gpus", "96", "--gbs", "16",
               "--job-gpus", "48"]
_FLEET_GRID = ["--models", "mllm-9b", "--systems", "disttrain", "--gpus",
               "96", "--gbs", "16", "--job-gpus", "48"]

#: What each subcommand needs besides the flag under test.
_ARGV = {
    "plan": _TASK,
    "simulate": _TASK,
    "compare": _TASK,
    "data-stats": [],
    "sweep": _GRID,
    "scenario run": _TASK,
    "scenario sweep": _GRID,
    "fleet run": _FLEET_TASK,
    "fleet sweep": _FLEET_GRID,
    "trace summarize": ["trace.jsonl"],
    "report": [],
}

#: The work each command starts once it accepts its flags.
_WORK = (
    "repro.cli.plan",
    "repro.cli.simulate",
    "repro.cli.compare_systems",
    "repro.data.synthetic.SyntheticMultimodalDataset",
    "repro.scenarios.run_scenario",
    "repro.fleet.FleetEngine",
    "repro.experiments.CampaignRunner",
    "repro.obs.report.load_trace",
)


def _number_flags():
    """(command, flag, parse) of every flag whose type is a number
    parse helper, on every subcommand."""
    return [
        (command, action.option_strings[0], action.type)
        for command, parser in _subcommands(build_parser())
        for action in parser._actions
        if action.type in _NUMBER_PARSERS
    ]


class TestNumberFlags:
    """Every numeric option of every subcommand, read off
    ``build_parser()``: a value its parse helper rejects exits 2 with the
    helper's message before any work, and any other value reaches the
    work."""

    def test_every_subcommand_has_an_argv(self):
        assert {command for command, _ in _subcommands(build_parser())} == (
            set(_ARGV)
        )

    @pytest.mark.parametrize("command, flag, parse, value", [
        pytest.param(command, flag, parse, value,
                     id=f"{command}:{flag}={value}")
        for command, flag, parse in _number_flags()
        for value in ("0", "-1", "nan", "inf")
    ])
    def test_one_value_one_outcome(
        self, monkeypatch, capsys, tmp_path, command, flag, parse, value
    ):
        for work in _WORK:
            monkeypatch.setattr(work, _accept)
        try:
            parse(value)
            message = None
        except argparse.ArgumentTypeError as exc:
            message = str(exc)
        argv = command.split() + _ARGV[command] + [flag, value]
        if "sweep" in command:
            argv += ["--cache-dir", str(tmp_path)]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        except _Accepted:
            assert message is None, command
            return
        captured = capsys.readouterr()
        assert message is not None, command
        assert code == 2
        assert (
            f"repro {command}: error: argument {flag}: {message}"
        ) in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not any(tmp_path.iterdir())


#: The options that set no trial parameter.
_NOT_PARAMS = {
    "help", "log_level", "command", "scenario_command", "fleet_command",
    "trace_command", "output", "trace", "metrics", "samples",
    "derive_seeds", "cache_dir", "no_cache", "jobs", "trial_timeout",
    "retries", "poison_after", "resume", "no_journal", "fail_on_error",
    "name", "quiet", "save_events", "json", "path", "timeline_limit",
    "plot", "input", "filter", "ok_only", "failures", "baseline_system",
    "csv",
}


class TestFlagDests:
    def test_every_flag_sets_its_parameter(self):
        """A flag that is not an execution, output or report option has
        the trial parameter it sets as its dest."""
        for command, parser in _subcommands(build_parser()):
            for action in parser._actions:
                if action.dest not in _NOT_PARAMS:
                    assert action.dest in KNOWN_PARAMS, (command, action.dest)

    def test_fleet_flags_set_every_fleet_parameter(self):
        assert sorted(_FLEET_PARAMS) == sorted(FLEET_PARAMS)

    def test_compare_takes_systems_only(self):
        """``compare`` runs one task under several systems: the system
        parameter has one flag there, the sweeps' ``--systems``."""
        (parser,) = [
            parser for command, parser in _subcommands(build_parser())
            if command == "compare"
        ]
        flags = [
            action.option_strings for action in parser._actions
            if action.dest == "system"
        ]
        assert flags == [["--systems"]]


class TestOutputPaths:
    TASK = ["--model", "mllm-9b", "--gpus", "48", "--gbs", "16"]
    FLEET = ["--model", "mllm-9b", "--gpus", "96", "--gbs", "16",
             "--jobs", "2", "--job-gpus", "48"]
    GRID = ["--models", "mllm-9b", "--systems", "disttrain", "--gpus",
            "48", "--gbs", "16"]

    @pytest.mark.parametrize("argv", [
        pytest.param(["plan", *TASK, "--output"], id="plan-output"),
        pytest.param(["scenario", "run", *TASK, "--output"],
                     id="scenario-run-output"),
        pytest.param(["scenario", "run", *TASK, "--save-events"],
                     id="scenario-run-save-events"),
        pytest.param(["scenario", "run", *TASK, "--trace"],
                     id="scenario-run-trace"),
        pytest.param(["fleet", "run", *FLEET, "--output"],
                     id="fleet-run-output"),
        pytest.param(["fleet", "run", *FLEET, "--trace"],
                     id="fleet-run-trace"),
        pytest.param(["sweep", *GRID, "--output"], id="sweep-output"),
        pytest.param(["sweep", *GRID, "--trace"], id="sweep-trace"),
        pytest.param(["scenario", "sweep", *GRID, "--output"],
                     id="scenario-sweep-output"),
        pytest.param(["fleet", "sweep", *GRID, "--output"],
                     id="fleet-sweep-output"),
        pytest.param(["report", "--csv"], id="report-csv"),
        pytest.param(["report", "--json"], id="report-json"),
        pytest.param(["trace", "summarize", "trace.jsonl", "--plot"],
                     id="trace-summarize-plot"),
    ])
    def test_path_in_missing_directory_exits_2_before_work(
        self, capsys, tmp_path, argv
    ):
        """A file a command would write in a directory that does not
        exist fails before the work, not in a traceback after it."""
        argv = argv + [str(tmp_path / "missing" / "out")]
        if "sweep" in argv[:2]:
            argv += ["--cache-dir", str(tmp_path)]
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        assert code == 2
        assert "no such directory: " in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""
        assert not any(tmp_path.iterdir())


RUNAWAY_FLEET = ["fleet", "run", "--model", "mllm-9b", "--gpus", "96",
                 "--gbs", "16", "--jobs", "3", "--job-gpus", "48",
                 "--arrival-spacing", "40", "--iterations", "50",
                 "--priorities", "0", "1", "--policy", "priority",
                 "--mtbf", "5"]


class TestRunawayFailures:
    @pytest.mark.parametrize("argv,job", [
        pytest.param(["scenario", "run", "--model", "mllm-9b", "--gpus",
                      "48", "--gbs", "16", "--iterations", "50", "--mtbf",
                      "1"], "job", id="scenario-run"),
        pytest.param(RUNAWAY_FLEET, "job02", id="fleet-run"),
    ])
    def test_failures_outpacing_the_run_exit_1(self, capsys, argv, job):
        """Downtime that outpaces the MTBF ends the run with the
        simulator's message, naming the job, not a traceback."""
        code = main(argv)
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err == (
            f"repro {' '.join(argv[:2])}: error: job {job!r} exceeded 10000 "
            "failures; downtime dominates MTBF and the run cannot finish\n"
        )
        assert captured.out == ""

    def test_trace_is_written_before_the_error(self, capsys, tmp_path):
        """The run's trace and metrics digest are exported before the
        error line, and the trace reads back."""
        trace = tmp_path / "t.jsonl"
        code = main(RUNAWAY_FLEET + ["--trace", str(trace), "--metrics"])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith(f"trace written to {trace}\n")
        assert "job.failures" in err
        assert err.endswith(
            "repro fleet run: error: job 'job02' exceeded 10000 failures; "
            "downtime dominates MTBF and the run cannot finish\n"
        )
        assert main(["trace", "summarize", str(trace)]) == 0
        assert "job.rollback" in capsys.readouterr().out
