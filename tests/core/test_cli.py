"""CLI tests."""

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

    @pytest.mark.parametrize("command", ["plan", "simulate", "compare"])
    @pytest.mark.parametrize("flags, message", [
        (["--gpus", "48", "--gbs", "0"], "global_batch_size must be >= 1"),
        (["--gpus", "48", "--gbs", "32", "--vpp", "0"], "vpp must be >= 1"),
        (["--gpus", "12", "--gbs", "32"], "not a multiple"),
    ])
    def test_invalid_task_exits_2(self, capsys, command, flags, message):
        code = main([command, "--model", "mllm-9b"] + flags)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(f"repro {command}: error: ")
        assert message in captured.err
        assert captured.out == ""

    def test_frozen_flag(self, capsys):
        code = main(
            ["plan", "--model", "mllm-9b", "--gpus", "48", "--gbs", "32",
             "--frozen", "llm-only"]
        )
        assert code == 0
