"""Tests for the command-line interface."""

import json
import textwrap

import pytest

from repro.cli import main


class TestFigureCommand:
    def test_agility_panel(self, capsys):
        assert main(["figure", "7c"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7c" in out
        assert "elasticrmi" in out
        assert "overprovisioning" in out

    def test_workload_trace(self, capsys):
        assert main(["figure", "7a", "--app", "paxos"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7a (paxos)" in out

    def test_provisioning_figure(self, capsys):
        assert main(["figure", "8a"]) == 0
        out = capsys.readouterr().out
        assert "provisioning latency" in out
        assert "marketcetera" in out

    def test_unknown_figure(self, capsys):
        assert main(["figure", "9z"]) == 2


class TestAblationCommand:
    def test_policy_ablation(self, capsys):
        assert main(["ablation", "policy"]) == 0
        out = capsys.readouterr().out
        assert "fine-grained" in out
        assert "cpu-mem-thresholds" in out

    def test_invalid_choice_rejected(self):
        with pytest.raises(SystemExit):
            main(["ablation", "nonsense"])


class TestAnalyzeCommand:
    def test_analyze_real_app(self, capsys):
        code = main(["analyze", "repro.apps.dcs.service:CoordinationService"])
        assert code == 0
        out = capsys.readouterr().out
        assert "CoordinationService" in out
        assert "fine-grained" in out

    def test_analyze_bad_target_format(self, capsys):
        assert main(["analyze", "no-colon"]) == 2

    def test_analyze_failing_class_exits_nonzero(self, capsys, tmp_path,
                                                 monkeypatch):
        module_dir = tmp_path / "clipkg"
        module_dir.mkdir()
        (module_dir / "__init__.py").write_text("")
        (module_dir / "bad.py").write_text(
            textwrap.dedent(
                """
                from repro.core.api import ElasticObject

                class Bad(ElasticObject):
                    def __init__(self):
                        super().__init__()
                        self.set_min_pool_size(1)

                    def op(self):
                        pass
                """
            )
        )
        monkeypatch.syspath_prepend(str(tmp_path))
        assert main(["analyze", "clipkg.bad:Bad"]) == 1


class TestTransformCommand:
    SOURCE = textwrap.dedent(
        """
        class C(ElasticObject):
            x = 0

            # synchronized
            def bar(self):
                pass
        """
    )

    def test_transform_to_stdout(self, capsys, tmp_path):
        src = tmp_path / "c.py"
        src.write_text(self.SOURCE)
        assert main(["transform", str(src)]) == 0
        out = capsys.readouterr().out
        assert "elastic_field(default=0)" in out
        assert "@synchronized" in out

    def test_transform_to_file(self, capsys, tmp_path):
        src = tmp_path / "c.py"
        dst = tmp_path / "c_out.py"
        src.write_text(self.SOURCE)
        assert main(["transform", str(src), "-o", str(dst)]) == 0
        assert "elastic_field(default=0)" in dst.read_text()


class TestScenarioCommand:
    def test_list_shows_the_matrix(self, capsys):
        assert main(["scenario", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("diurnal", "flash-crowd", "thundering-herd",
                     "hot-key", "multi-tenant"):
            assert name in out

    def test_unknown_scenario_exits_2(self, capsys):
        assert main(["scenario", "nope"]) == 2
        err = capsys.readouterr().err
        assert "unknown scenario" in err
        assert "diurnal" in err

    def test_output_with_all_rejected(self, capsys, tmp_path):
        out_file = tmp_path / "s.json"
        assert main(["scenario", "all", "-o", str(out_file)]) == 2
        assert "--summary-dir" in capsys.readouterr().err

    def test_run_writes_valid_summary(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "s.json"
        code = main([
            "scenario", "diurnal", "--scale", "0.05",
            "-o", str(out_file),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario diurnal" in out
        doc = json.loads(out_file.read_text())
        assert doc["schema"] == "repro.obs/v1"
        assert doc["scenario"]["name"] == "diurnal"
        assert doc["scenario"]["scale"] == 0.05

    def test_summary_dir_replays_byte_identically(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for directory in (a, b):
            code = main([
                "scenario", "diurnal", "--scale", "0.05",
                "--summary-dir", str(directory),
            ])
            assert code == 0
        name = "SCENARIO_diurnal.json"
        assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_override_changes_summary(self, capsys, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["scenario", "diurnal", "--scale", "0.05",
                     "--summary-dir", str(a)]) == 0
        assert main(["scenario", "diurnal", "--scale", "0.05",
                     "--seed", "4242", "--summary-dir", str(b)]) == 0
        name = "SCENARIO_diurnal.json"
        assert (a / name).read_bytes() != (b / name).read_bytes()


class TestBenchScenarioSuite:
    def test_suite_writes_reports_and_self_check_passes(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("ERMI_BENCH_SCALE", "0.05")
        out_dir = tmp_path / "reports"
        # Baselines are read before the run writes, so the first run
        # lays them down and the second checks against them.
        assert main([
            "bench", "--suite", "scenario", "--out-dir", str(out_dir),
        ]) == 0
        capsys.readouterr()
        code = main([
            "bench", "--suite", "scenario",
            "--out-dir", str(out_dir),
            "--check", str(out_dir),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "bench check OK (scenario)" in out
        names = {p.name for p in out_dir.glob("BENCH_scenario_*.json")}
        assert "BENCH_scenario_diurnal.json" in names
        assert len(names) >= 4

    def test_check_against_missing_baselines_fails(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("ERMI_BENCH_SCALE", "0.05")
        out_dir = tmp_path / "reports"
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main([
            "bench", "--suite", "scenario",
            "--out-dir", str(out_dir),
            "--check", str(empty),
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert "baseline missing" in captured.out
        assert "REGRESSION (scenario)" in captured.err

    def test_check_reads_baselines_before_the_run_overwrites_them(
        self, capsys, tmp_path, monkeypatch
    ):
        """``--check .`` with the default ``--out-dir .``: the gate must
        see the baseline as it was, not the report the run just wrote."""
        monkeypatch.setenv("ERMI_BENCH_SCALE", "0.05")
        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--suite", "scenario"]) == 0
        path = tmp_path / "BENCH_scenario_diurnal.json"
        doc = json.loads(path.read_text())
        for record in doc["records"]:
            record["calls_per_sec"] *= 2.0
        path.write_text(json.dumps(doc))
        capsys.readouterr()
        code = main(["bench", "--suite", "scenario", "--check", "."])
        assert code == 1
        assert "scenario-diurnal" in capsys.readouterr().err

    def test_unknown_suite_is_rejected(self, capsys):
        assert main(["bench", "--suite", "hotpath"]) == 2
        assert "unknown suite 'hotpath'" in capsys.readouterr().err
