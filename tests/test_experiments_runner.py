"""Tests for the repro-experiments command-line runner."""

import json

import pytest

from repro.experiments.runner import build_parser, main


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["table1"])
        assert args.experiment == "table1"
        assert args.scale == "ci"
        assert args.format == "text"
        assert args.output_dir is None
        assert args.jobs == 1
        assert args.executor is None
        assert args.artifact_dir is None
        assert args.resume is False

    def test_all_choice(self):
        args = build_parser().parse_args(["all", "--scale", "paper"])
        assert args.experiment == "all"
        assert args.scale == "paper"

    def test_campaign_flags(self, tmp_path):
        args = build_parser().parse_args(
            [
                "table4",
                "--jobs",
                "4",
                "--executor",
                "process-pool",
                "--artifact-dir",
                str(tmp_path / "store"),
                "--resume",
            ]
        )
        assert args.jobs == 4
        assert args.executor == "process-pool"
        assert args.artifact_dir == tmp_path / "store"
        assert args.resume is True

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table99"])

    def test_unknown_scale_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--scale", "galactic"])

    def test_unknown_executor_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "--executor", "threads"])

    def test_profile_is_repeatable(self):
        args = build_parser().parse_args(
            ["hardware_cost", "--profile", "ddr4-trr", "--profile", "server-ecc"]
        )
        assert args.profile == ["ddr4-trr", "server-ecc"]

    def test_list_profiles_needs_no_experiment(self):
        args = build_parser().parse_args(["--list-profiles"])
        assert args.experiment is None
        assert args.list_profiles is True

    def test_fleet_flags_parse(self):
        args = build_parser().parse_args(
            ["table1", "--executor", "fleet", "--workers", "3"]
        )
        assert args.executor == "fleet"
        assert args.workers == 3
        # Unset --workers stays None so the fleet default (2) wins.
        assert build_parser().parse_args(["table1"]).workers is None

    def test_workers_requires_fleet_executor(self, capsys):
        with pytest.raises(SystemExit):
            main(["table1", "--workers", "2"])
        assert "--workers requires --executor fleet" in capsys.readouterr().err

    def test_negative_workers_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["table1", "--executor", "fleet", "--workers", "-1"])
        assert "--workers must be >= 0" in capsys.readouterr().err


class TestMain:
    def test_runs_single_experiment(self, capsys, tmp_path, monkeypatch):
        # keep the run hermetic: models trained for the smoke scale land in tmp
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        exit_code = main(
            ["table3", "--scale", "smoke", "--format", "markdown", "--output-dir", str(tmp_path)]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Table 3" in captured.out
        assert (tmp_path / "table3_smoke.csv").exists()

    def test_output_dir_is_created(self, tmp_path, monkeypatch):
        # Regression: a non-existent (nested) --output-dir must be created,
        # not make the save step fail.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        output_dir = tmp_path / "does" / "not" / "exist"
        exit_code = main(
            ["table3", "--scale", "smoke", "--output-dir", str(output_dir)]
        )
        assert exit_code == 0
        assert (output_dir / "table3_smoke.csv").exists()
        assert (output_dir / "table3_smoke_manifest.json").exists()

    def test_manifest_and_artifact_cache_hits(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        store = tmp_path / "store"
        out_first = tmp_path / "first"
        out_second = tmp_path / "second"

        assert (
            main(
                [
                    "table3",
                    "--scale",
                    "smoke",
                    "--artifact-dir",
                    str(store),
                    "--output-dir",
                    str(out_first),
                ]
            )
            == 0
        )
        first = json.loads((out_first / "table3_smoke_manifest.json").read_text())
        assert first["stats"]["executed"] == first["stats"]["total_jobs"] > 0
        assert first["stats"]["cache_hits"] == 0

        assert (
            main(
                [
                    "table3",
                    "--scale",
                    "smoke",
                    "--artifact-dir",
                    str(store),
                    "--output-dir",
                    str(out_second),
                ]
            )
            == 0
        )
        second = json.loads((out_second / "table3_smoke_manifest.json").read_text())
        assert second["stats"]["executed"] == 0
        assert second["stats"]["cache_hits"] == second["stats"]["total_jobs"]
        assert all(job["cached"] for job in second["jobs"])
        # Memoized cells reproduce the exact same table.
        assert (out_second / "table3_smoke.csv").read_text() == (
            out_first / "table3_smoke.csv"
        ).read_text()

    def test_resume_uses_default_store(self, tmp_path, monkeypatch):
        # --resume without --artifact-dir memoizes under the default cache dir.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        out_dir = tmp_path / "out"
        assert main(["table3", "--scale", "smoke", "--resume"]) == 0
        assert main(
            ["table3", "--scale", "smoke", "--resume", "--output-dir", str(out_dir)]
        ) == 0
        manifest = json.loads((out_dir / "table3_smoke_manifest.json").read_text())
        assert manifest["stats"]["executed"] == 0
        assert manifest["stats"]["cache_hits"] == manifest["stats"]["total_jobs"]


class TestDeviceProfileFlags:
    def test_list_profiles_prints_registry_and_exits(self, capsys):
        from repro.hardware.device import get_profile, list_profiles

        assert main(["--list-profiles"]) == 0
        out = capsys.readouterr().out
        for name in list_profiles():
            assert name in out
        # The table shows derived facts, not just names: geometry and ECC.
        assert get_profile("server-ecc").ecc.describe() in out

    def test_experiment_required_without_list_profiles(self, capsys):
        with pytest.raises(SystemExit):
            main([])
        assert "experiment name is required" in capsys.readouterr().err

    def test_unknown_profile_rejected_with_registry_hint(self, capsys):
        with pytest.raises(SystemExit):
            main(["hardware_cost", "--profile", "sram-9000"])
        err = capsys.readouterr().err
        assert "sram-9000" in err
        assert "server-ecc" in err  # the error lists the registered names

    def test_list_profiles_surfaces_stochastic_info(self, capsys):
        # Campaign users must be able to discover the stochastic profiles:
        # the listing shows each profile's flip-landing probability and
        # whether its tracker samples per activation.
        from repro.hardware.device import get_profile

        assert main(["--list-profiles"]) == 0
        out = capsys.readouterr().out
        assert "landing prob" in out
        assert "stochastic-trrespass" in out
        assert get_profile("stochastic-trrespass").trr.describe() in out
        assert "--trials" in out and "--flip-seed" in out

    def test_trials_and_flip_seed_flags_parse(self):
        args = build_parser().parse_args(
            ["hardware_cost", "--trials", "8", "--flip-seed", "3"]
        )
        assert args.trials == 8
        assert args.flip_seed == 3
        # Unset flags stay None so the experiment's defaults win.
        default = build_parser().parse_args(["hardware_cost"])
        assert default.trials is None and default.flip_seed is None

    def test_negative_trials_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["hardware_cost", "--trials", "-1"])
        assert "--trials must be >= 0" in capsys.readouterr().err

    def test_profile_passthrough_serial_matches_jobs(self, tmp_path, monkeypatch):
        # Runner UX satellite: the same --profile grid must produce
        # byte-identical tables whether run serially or with --jobs N.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        serial_dir = tmp_path / "serial"
        parallel_dir = tmp_path / "parallel"
        base = ["hardware_cost", "--scale", "smoke", "--profile", "server-ecc"]
        assert main(base + ["--output-dir", str(serial_dir)]) == 0
        assert main(base + ["--jobs", "2", "--output-dir", str(parallel_dir)]) == 0
        assert (serial_dir / "hardware_cost_smoke.csv").read_bytes() == (
            parallel_dir / "hardware_cost_smoke.csv"
        ).read_bytes()
        manifest = json.loads(
            (parallel_dir / "hardware_cost_smoke_manifest.json").read_text()
        )
        assert manifest["command"]["profiles"] == ["server-ecc"]


class TestFleetCli:
    def test_fleet_run_matches_serial_byte_for_byte(self, tmp_path, monkeypatch):
        # The campaign-service acceptance check, end to end through the CLI:
        # a dispatcher plus two socket-attached worker processes must emit
        # the same CSV and canonical manifest bytes as the serial run.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        serial_dir = tmp_path / "serial"
        fleet_dir = tmp_path / "fleet"
        base = [
            "hardware_cost", "--scale", "smoke",
            "--profile", "ddr3-noecc", "--trials", "0",
        ]
        assert main(base + ["--output-dir", str(serial_dir)]) == 0
        assert main(
            base
            + ["--executor", "fleet", "--workers", "2", "--output-dir", str(fleet_dir)]
        ) == 0
        assert (serial_dir / "hardware_cost_smoke.csv").read_bytes() == (
            fleet_dir / "hardware_cost_smoke.csv"
        ).read_bytes()
        assert (
            serial_dir / "hardware_cost_smoke_manifest.canonical.json"
        ).read_bytes() == (
            fleet_dir / "hardware_cost_smoke_manifest.canonical.json"
        ).read_bytes()
        manifest = json.loads(
            (fleet_dir / "hardware_cost_smoke_manifest.json").read_text()
        )
        assert manifest["stats"]["executor"] == "fleet"
        assert manifest["stats"]["jobs"] == 2
        assert manifest["command"]["workers"] == 2
