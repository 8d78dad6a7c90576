"""CLI smoke tests for ``repro sweep`` and ``repro report``."""

import itertools
import json

import pytest

from repro.cli import main


@pytest.fixture
def cache_dir(tmp_path):
    return str(tmp_path / "cache")


def run_sweep(cache_dir, tmp_path, extra=()):
    return main([
        "sweep",
        "--models", "mllm-9b",
        "--systems", "disttrain", "megatron-lm",
        "--gpus", "32", "48",
        "--gbs", "8",
        "--cache-dir", cache_dir,
        "--jobs", "1",
        "--quiet",
        *extra,
    ])


class TestSweep:
    def test_sweep_runs_grid(self, cache_dir, tmp_path, capsys):
        code = run_sweep(cache_dir, tmp_path)
        out = capsys.readouterr().out
        assert code == 0
        assert "4 trials (4 executed, 0 cached, 0 failed)" in out
        assert "disttrain" in out and "megatron-lm" in out

    def test_rerun_hits_cache(self, cache_dir, tmp_path, capsys):
        run_sweep(cache_dir, tmp_path)
        capsys.readouterr()
        code = run_sweep(cache_dir, tmp_path)
        out = capsys.readouterr().out
        assert code == 0
        assert "(0 executed, 4 cached, 0 failed)" in out

    def test_output_json(self, cache_dir, tmp_path, capsys):
        results = tmp_path / "results.json"
        code = run_sweep(cache_dir, tmp_path, ["--output", str(results)])
        assert code == 0
        payload = json.loads(results.read_text(encoding="utf-8"))
        assert len(payload["records"]) == 4
        statuses = {record["status"] for record in payload["records"]}
        assert statuses == {"ok"}

    def test_derive_seeds_gives_distinct_seeds(
        self, cache_dir, tmp_path, capsys
    ):
        results = tmp_path / "seeded.json"
        code = main([
            "sweep", "--models", "mllm-9b", "--systems", "disttrain",
            "--gpus", "32", "48", "--gbs", "8", "--derive-seeds",
            "--cache-dir", cache_dir, "--jobs", "1", "--quiet",
            "--output", str(results),
        ])
        assert code == 0
        payload = json.loads(results.read_text(encoding="utf-8"))
        seeds = [record["params"]["seed"] for record in payload["records"]]
        assert len(set(seeds)) == 2

    def test_all_failed_exits_nonzero(self, cache_dir, tmp_path, capsys):
        # 9B monolithic needs >=24 GPUs: megatron-only at 16 always fails.
        code = main([
            "sweep", "--models", "mllm-9b", "--systems", "megatron-lm",
            "--gpus", "16", "--gbs", "8",
            "--cache-dir", cache_dir, "--jobs", "1", "--quiet",
        ])
        assert code == 1

    def test_all_executed_failed_exits_nonzero_despite_cache_hits(
        self, cache_dir, tmp_path, capsys
    ):
        # Run 1 caches the feasible half of the grid.
        code = main([
            "sweep", "--models", "mllm-9b", "--systems", "disttrain",
            "--gpus", "16", "--gbs", "8",
            "--cache-dir", cache_dir, "--jobs", "1", "--quiet",
        ])
        assert code == 0
        # Run 2 executes only the infeasible half: every *executed*
        # trial fails, and cache hits must not hide that from CI.
        code = main([
            "sweep", "--models", "mllm-9b",
            "--systems", "disttrain", "megatron-lm",
            "--gpus", "16", "--gbs", "8",
            "--cache-dir", cache_dir, "--jobs", "1", "--quiet",
        ])
        assert code == 1

    def test_fail_on_error_makes_partial_failure_fatal(
        self, cache_dir, tmp_path, capsys
    ):
        args = [
            "sweep", "--models", "mllm-9b",
            "--systems", "disttrain", "megatron-lm",
            "--gpus", "16", "--gbs", "8",
            "--cache-dir", cache_dir, "--jobs", "1", "--quiet",
        ]
        # Partial grids are normal by default (disttrain succeeds)...
        assert main(args) == 0
        # ...but --fail-on-error makes any failure fatal.
        assert main([*args, "--no-cache", "--fail-on-error"]) == 1


class TestRobustness:
    def test_interrupted_sweep_resumes_from_journal(
        self, cache_dir, tmp_path, capsys, monkeypatch
    ):
        from repro.experiments import chaos

        base = [
            "sweep", "--models", "mllm-9b",
            "--systems", "disttrain", "megatron-lm",
            "--gpus", "32", "48", "--gbs", "8",
            "--cache-dir", cache_dir, "--no-cache",
            "--jobs", "1", "--quiet",
        ]
        # A SIGINT-style interrupt lands mid-campaign on trial 1.
        monkeypatch.setenv(chaos.ENV_VAR, chaos.rules_to_json([
            chaos.ChaosRule("interrupt", match={"index": 1}, times=1),
        ]))
        code = main(base)
        err = capsys.readouterr().err
        assert code == 130
        assert "--resume" in err

        # With the fault gone, --resume replays the journaled trial and
        # finishes the rest instead of starting over.
        monkeypatch.delenv(chaos.ENV_VAR)
        code = main([*base, "--resume"])
        out = capsys.readouterr().out
        assert code == 0
        assert "(3 executed, 0 cached, 1 resumed, 0 failed)" in out

    def test_trial_timeout_records_timed_out_trial(
        self, cache_dir, tmp_path, capsys, monkeypatch
    ):
        from repro.experiments import chaos

        monkeypatch.setenv(chaos.ENV_VAR, chaos.rules_to_json([
            chaos.ChaosRule(
                "hang", match={"index": 0}, times=-1, seconds=30.0
            ),
        ]))
        results = tmp_path / "timeout.json"
        code = main([
            "sweep", "--models", "mllm-9b",
            "--systems", "disttrain", "megatron-lm",
            "--gpus", "32", "48", "--gbs", "8",
            "--cache-dir", cache_dir, "--no-cache",
            "--jobs", "2", "--trial-timeout", "0.75", "--retries", "0",
            "--quiet", "--output", str(results),
        ])
        out = capsys.readouterr().out
        assert code == 0  # other trials succeeded; not fatal by default
        assert "1 failed" in out
        payload = json.loads(results.read_text(encoding="utf-8"))
        statuses = sorted(r["status"] for r in payload["records"])
        assert statuses == ["ok", "ok", "ok", "timed-out"]


class TestReport:
    def test_report_from_cache(self, cache_dir, tmp_path, capsys):
        run_sweep(cache_dir, tmp_path)
        capsys.readouterr()
        code = main([
            "report", "--cache-dir", cache_dir,
            "--baseline-system", "megatron-lm",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "mfu_gain" in out
        assert "4 results" in out

    def test_report_filter_and_csv(self, cache_dir, tmp_path, capsys):
        run_sweep(cache_dir, tmp_path)
        capsys.readouterr()
        csv_path = tmp_path / "report.csv"
        code = main([
            "report", "--cache-dir", cache_dir,
            "--filter", "system=disttrain", "gpus=32",
            "--csv", str(csv_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 results" in out
        assert len(csv_path.read_text(encoding="utf-8").splitlines()) == 2

    def test_report_empty_cache_errors(self, cache_dir, capsys):
        code = main(["report", "--cache-dir", cache_dir])
        assert code == 1
        assert "no results" in capsys.readouterr().out

    def test_report_ignores_stray_json_in_cache_dir(
        self, cache_dir, tmp_path, capsys
    ):
        # A sweep export written into the cache dir must not break report.
        run_sweep(cache_dir, tmp_path,
                  ["--output", f"{cache_dir}/summary.json"])
        capsys.readouterr()
        code = main(["report", "--cache-dir", cache_dir])
        out = capsys.readouterr().out
        assert code == 0
        assert "4 results" in out

    @pytest.mark.parametrize(
        "content",
        [None, "not json {", "[1, 2]", '{"records": {"a": 1}}',
         '[{"params": 5}]', '[{"metrics": [1]}]'],
        ids=["missing", "not-json", "list-of-numbers", "records-not-list",
             "params-not-object", "metrics-not-object"],
    )
    def test_report_bad_input_is_a_clean_error(
        self, tmp_path, capsys, content
    ):
        path = tmp_path / "results.json"
        if content is not None:
            path.write_text(content, encoding="utf-8")
        code = main(["report", "--input", str(path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("repro report: error: ")
        assert str(path) in err

    def test_report_reads_exported_frame(self, tmp_path, capsys):
        from repro.experiments import ResultFrame

        path = tmp_path / "frame.json"
        ResultFrame([{
            "params": {"model": "mllm-9b", "system": "disttrain",
                       "gpus": 32, "gbs": 8},
            "metrics": {"mfu": 0.4},
            "status": "ok",
        }]).to_json(path)
        code = main(["report", "--input", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 results" in out and "mllm-9b" in out

    def test_report_failures_lists_errors_and_tracebacks(
        self, cache_dir, tmp_path, capsys
    ):
        # Failures never reach the cache, so read the sweep export.
        results = tmp_path / "mixed.json"
        main([
            "sweep", "--models", "mllm-9b",
            "--systems", "disttrain", "megatron-lm",
            "--gpus", "16", "--gbs", "8",
            "--cache-dir", cache_dir, "--jobs", "1", "--quiet",
            "--output", str(results),
        ])
        capsys.readouterr()
        code = main([
            "report", "--input", str(results), "--failures",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "1 failed trials" in out
        assert "error:" in out
        assert "Traceback" in out

    def test_report_failures_empty_when_all_ok(
        self, cache_dir, tmp_path, capsys
    ):
        results = tmp_path / "ok.json"
        run_sweep(cache_dir, tmp_path, ["--output", str(results)])
        capsys.readouterr()
        code = main(["report", "--input", str(results), "--failures"])
        out = capsys.readouterr().out
        assert code == 0
        assert "no failed trials" in out

    def test_report_failures_needs_input(self, cache_dir, tmp_path, capsys):
        """The cache holds ok trials only, so ``--failures`` without
        ``--input`` is an error, not an empty list, even right after a
        sweep that recorded a failure."""
        main([
            "sweep", "--models", "mllm-9b",
            "--systems", "disttrain", "megatron-lm",
            "--gpus", "16", "--gbs", "8",
            "--cache-dir", cache_dir, "--jobs", "1", "--quiet",
        ])
        capsys.readouterr()
        code = main(["report", "--cache-dir", cache_dir, "--failures"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("repro report: error: ")
        assert "--input" in captured.err

    def test_report_baseline_with_mixed_seeds(
        self, cache_dir, tmp_path, capsys
    ):
        # Runs differing only in seed pair with their own baselines.
        for seed in ("0", "1"):
            run_sweep(cache_dir, tmp_path, ["--seed", seed])
        capsys.readouterr()
        code = main([
            "report", "--cache-dir", cache_dir,
            "--baseline-system", "megatron-lm",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "mfu_gain" in out
        assert "8 results" in out


def _trials(base, axes, keys):
    """Expected trials: the ``base`` items, then one item per axis in
    grid order, each trial with its cache key."""
    combos = itertools.product(
        *([(name, value) for value in values] for name, values in axes)
    )
    return [
        (base + list(combo), key)
        for combo, key in zip(combos, keys, strict=True)
    ]


_GRID = [("vpp", 1), ("gbs", 16), ("frozen", "full")]
_FLEET = ["--models", "mllm-9b", "--systems", "disttrain", "--gpus", "96",
          "--gbs", "16", "--job-gpus", "48", "--arrival-spacing", "40",
          "--priorities", "0", "1"]


class TestSweepFlagPins:
    """What the sweep flags hand the campaign runner: every trial's
    params, in key order (``repro sweep --output`` writes them
    unsorted), and its cache key. A pack ignores the arrival flags."""

    @pytest.mark.parametrize("argv, expected", [
        pytest.param(
            ["scenario", "sweep", "--models", "mllm-9b", "--gpus", "48",
             "--gbs", "16"],
            _trials(
                _GRID + [("scenario_iterations", 1000)],
                [("model", ["mllm-9b"]),
                 ("system", ["disttrain", "megatron-lm"]), ("gpus", [48])],
                ["fa30a580401a95fa6ee7", "b43464d5fc265a5a01de"],
            ),
            id="scenario-sweep-defaults",
        ),
        pytest.param(
            ["sweep", "--models", "mllm-9b", "--gpus", "48", "96", "--gbs",
             "16", "--scenario-iterations", "500", "--mtbf", "100", "300",
             "--elastic", "--checkpoint-interval", "25", "--failure-seed",
             "3", "--straggler-rate", "0.02", "--straggler-slowdown", "2.0"],
            _trials(
                _GRID + [("scenario_iterations", 500),
                         ("straggler_rate", 0.02), ("straggler_slowdown", 2.0),
                         ("elastic", True), ("checkpoint_interval", 25),
                         ("failure_seed", 3)],
                [("model", ["mllm-9b"]),
                 ("system", ["disttrain", "megatron-lm"]),
                 ("gpus", [48, 96]), ("mtbf", [100.0, 300.0])],
                ["de0da4eb89af92a8947e", "ce366de10633f1a45b08",
                 "18de2b98d340d25f2e1f", "ca53a33cdc7e9ad7df65",
                 "50ab4cd13b72ad8d0a0c", "e9becfdb23bf3eb248b6",
                 "2ff01984402f5575599d", "fe55002864a0e1e419c2"],
            ),
            id="sweep-every-scenario-flag",
        ),
        pytest.param(
            ["fleet", "sweep", *_FLEET, "--policies", "fifo", "priority",
             "--fleet-jobs", "2"],
            _trials(
                _GRID + [("fleet_arrival_spacing", 40.0),
                         ("fleet_priorities", (0, 1)),
                         ("fleet_job_gpus", 48), ("fleet_jobs", 2)],
                [("model", ["mllm-9b"]), ("system", ["disttrain"]),
                 ("gpus", [96]), ("fleet_policy", ["fifo", "priority"])],
                ["f9d13b449c10ea9ca09b", "7a12e6278463aa484a7c"],
            ),
            id="fleet-sweep-policies",
        ),
        pytest.param(
            ["fleet", "sweep", *_FLEET, "--packs", "steady", "blast-radius",
             "--scenario-iterations", "30"],
            _trials(
                _GRID + [("scenario_iterations", 30), ("fleet_jobs", 4)],
                [("model", ["mllm-9b"]), ("system", ["disttrain"]),
                 ("gpus", [96]), ("fleet_pack", ["steady", "blast-radius"])],
                ["f2583d85bc3563809bb9", "ae24a26fb493c7b8321f"],
            ),
            id="fleet-sweep-packs",
        ),
    ])
    def test_trials_are_pinned(self, monkeypatch, tmp_path, argv, expected):
        built = []

        class Captured(Exception):
            pass

        def capture(spec, **kwargs):
            built.append(spec)
            raise Captured

        monkeypatch.setattr("repro.experiments.CampaignRunner", capture)
        with pytest.raises(Captured):
            main(argv + ["--cache-dir", str(tmp_path)])
        (spec,) = built
        assert [
            (list(trial.params.items()), trial.cache_key)
            for trial in spec.expand()
        ] == expected
