"""CLI tests."""

import json

import pytest

from repro.cli import build_parser, main


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
        and a negative timeline limit fail at parse time, not in a
        traceback, a run of failed trials, an endless fleet loop, a
        created cache directory or a timeline sliced from its end."""
        command = " ".join(
            argv[:2] if argv[0] in ("scenario", "fleet", "trace")
            else argv[:1]
        )
        flag, value = argv[-2:]
        if flag == "--trial-timeout":
            expected = f"must be a positive finite number, got {value}"
        elif flag == "--arrival-spacing":
            expected = f"must be a non-negative finite number, got {value}"
        else:
            minimum = 0 if flag in ("--seed", "--failure-seed",
                                    "--retries", "--timeline-limit") else 1
            expected = f"must be >= {minimum}, got {value}"
        if "sweep" in argv[:2]:
            argv = argv + ["--cache-dir", str(tmp_path)]
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert (
            f"repro {command}: error: argument {flag}: {expected}"
        ) in captured.err
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

    @pytest.mark.parametrize("command", ["plan", "simulate", "compare"])
    @pytest.mark.parametrize("flags, message", [
        (["--model", "mllm-9b", "--gpus", "48", "--gbs", "0"],
         "global_batch_size must be >= 1"),
        (["--model", "mllm-9b", "--gpus", "48", "--gbs", "32", "--vpp", "0"],
         "vpp must be >= 1"),
        (["--model", "mllm-9b", "--gpus", "12", "--gbs", "32"],
         "not a multiple"),
        # Valid tasks no plan fits on: DistTrain's search and a baseline
        # orchestrator (compare plans megatron-lm by default) both
        # report InfeasibleClusterError the same way.
        (["--model", "mllm-72b", "--gpus", "8", "--gbs", "16"],
         "no feasible orchestration"),
        (["--model", "mllm-9b", "--gpus", "16", "--gbs", "32",
          "--system", "megatron-lm"],
         "cluster too small"),
        (["--model", "mllm-9b", "--gpus", "48", "--gbs", "16", "--vpp", "3"],
         "vpp=3 does not divide the 32 LLM layers"),
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
