"""The ``repro fleet`` CLI surface."""

import json

import pytest

from repro.cli import main


class TestFleetRun:
    ARGS = [
        "fleet", "run", "--model", "mllm-9b", "--gpus", "96",
        "--gbs", "16", "--jobs", "3", "--job-gpus", "48",
        "--arrival-spacing", "40", "--iterations", "30",
    ]

    def test_human_report(self, capsys):
        code = main(self.ARGS + ["--policy", "fifo"])
        out = capsys.readouterr().out
        assert code == 0
        assert "fleet goodput" in out
        assert "plan cache (hit/miss)" in out
        assert "per-job outcomes:" in out
        assert "job02" in out

    def test_json_is_machine_readable(self, capsys):
        code = main(self.ARGS + ["--policy", "fair-share", "--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)  # nothing but one JSON document
        assert payload["policy"] == "fair-share"
        assert payload["cluster_gpus"] == 96
        assert set(payload["plan_cache"]) == {"hits", "misses"}
        assert len(payload["jobs"]) == 3
        for job in payload["jobs"]:
            # The satellite contract: per-job plan-cache accounting.
            assert "plan_cache_hits" in job
            assert "plan_cache_misses" in job
            assert "jct_seconds" in job

    def test_output_writes_report(self, tmp_path, capsys):
        path = tmp_path / "fleet.json"
        code = main(
            self.ARGS + ["--policy", "priority", "--output", str(path)]
        )
        capsys.readouterr()
        assert code == 0
        payload = json.loads(path.read_text())
        assert payload["policy"] == "priority"

    def test_bad_parameters_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "fleet", "run", "--model", "mllm-9b", "--gpus", "96",
                "--gbs", "16", "--jobs", "0",
            ])
        err = capsys.readouterr().err
        assert exit_info.value.code == 2
        assert "error: argument --jobs: must be >= 1" in err

    def test_parser_rejects_unknown_policy(self):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--policy", "lifo"])

    def test_pack_run_reports_slo(self, capsys):
        code = main([
            "fleet", "run", "--model", "mllm-9b", "--gpus", "96",
            "--gbs", "16", "--jobs", "3", "--job-gpus", "48",
            "--iterations", "30", "--pack", "blast-radius", "--elastic",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "blast-radius" in out
        assert "SLO attainment" in out
        assert "job00-standard" in out

    def test_pack_json_payload(self, capsys):
        code = main([
            "fleet", "run", "--model", "mllm-9b", "--gpus", "96",
            "--gbs", "16", "--jobs", "2", "--job-gpus", "48",
            "--iterations", "20", "--pack", "steady", "--json",
        ])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        assert payload["pack"] == "steady"
        assert payload["metrics"]["slo_jobs"] == 0.0

    def test_parser_rejects_unknown_pack(self):
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--pack", "chaos-monkey"])

    def test_json_exposes_state_cache(self, capsys):
        code = main(self.ARGS + ["--json"])
        out = capsys.readouterr().out
        assert code == 0
        payload = json.loads(out)
        # The jobstate-cache satellite contract: per-run hit/miss.
        assert set(payload["state_cache"]) >= {"hits", "misses"}
        assert "execution" not in payload

    def test_parser_rejects_workers(self):
        """Fleets run in one process; the old ``--workers`` flag is
        gone rather than silently ignored."""
        with pytest.raises(SystemExit):
            main(self.ARGS + ["--workers", "2"])


class TestFleetSweep:
    def test_policy_axis_sweeps(self, capsys, tmp_path):
        code = main([
            "fleet", "sweep", "--models", "mllm-9b",
            "--systems", "disttrain", "--gpus", "96", "--gbs", "16",
            "--policies", "fifo", "fair-share", "--fleet-jobs", "3",
            "--job-gpus", "48", "--scenario-iterations", "20",
            "--cache-dir", str(tmp_path / "cache"), "--jobs", "1",
            "--quiet",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "fleet_policy" in out
        assert "fifo" in out and "fair-share" in out
        assert "fleet_goodput" in out

    def test_pack_axis_sweeps(self, capsys, tmp_path):
        code = main([
            "fleet", "sweep", "--models", "mllm-9b",
            "--systems", "disttrain", "--gpus", "96", "--gbs", "16",
            "--packs", "steady", "blast-radius", "--fleet-jobs", "2",
            "--scenario-iterations", "20",
            "--cache-dir", str(tmp_path / "cache"), "--jobs", "1",
            "--quiet",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "fleet_pack" in out
        assert "steady" in out and "blast-radius" in out
        assert "slo_attainment" in out
