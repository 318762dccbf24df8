import filecmp

import pytest

from heatlab import cli
from heatlab.cli import emit_csv, main, parse_report_csv
from heatlab.suites import (
    CRITERION_SUITES,
    SUITES,
    CheckRow,
    SuiteConfig,
    SuiteReport,
    run_suite,
)


def sample_report() -> SuiteReport:
    rows = [
        CheckRow(check="alpha", params={"p": 2.0, "tag": "x"},
                 oracle=0.1234567890123456789, bound=1.0, ratio=0.1234567890123456789,
                 passed=True),
        CheckRow(check="beta", params={"p": 4.0, "tag": "y"},
                 oracle=2.0 / 3.0, bound=1e-300, ratio=6.66e299, passed=False),
    ]
    return SuiteReport(suite="sample", rows=rows, wall_time=0.01)


class TestEmitCsv:
    def test_header_and_order(self, tmp_path):
        path = tmp_path / "out.csv"
        emit_csv(sample_report(), str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "suite,check,p,tag,oracle,bound,ratio,pass"
        assert lines[1].startswith("sample,alpha,2,x,")

    def test_empty_report_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv(SuiteReport(suite="none", rows=[]), str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines == ["suite,check,oracle,bound,ratio,pass"]

    def test_round_trip_bit_exact(self, tmp_path):
        report = sample_report()
        path = tmp_path / "rt.csv"
        emit_csv(report, str(path))
        parsed = parse_report_csv(str(path))
        originals = report.sorted_rows()
        assert len(parsed) == len(originals)
        for row, back in zip(originals, parsed):
            assert back["oracle"] == row.oracle
            assert back["bound"] == row.bound
            assert back["ratio"] == row.ratio
            assert back["pass"] == row.passed

    def test_two_runs_byte_identical(self, tmp_path):
        cfg = SuiteConfig(name="stnorm", seed=3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_suite(cfg), str(a))
        emit_csv(run_suite(cfg), str(b))
        assert filecmp.cmp(str(a), str(b), shallow=False)

    def test_unwritable_path_raises(self, tmp_path):
        with pytest.raises(OSError):
            emit_csv(sample_report(), str(tmp_path / "missing" / "out.csv"))


class TestRegistry:
    def test_every_criterion_has_a_suite(self):
        assert sorted(CRITERION_SUITES) == list(range(1, 11))
        for names in CRITERION_SUITES.values():
            assert names, "criterion without a suite"
            for name in names:
                assert name in SUITES

    def test_registry_matches_cli_listing(self, capsys):
        assert main(["list-suites"]) == 0
        out = capsys.readouterr().out
        for name in SUITES:
            assert name in out

    def test_unknown_suite_rejected(self):
        with pytest.raises(KeyError):
            run_suite(SuiteConfig(name="nope"))


class TestExitCodes:
    def test_passing_suite_exits_zero(self, capsys):
        assert main(["verify", "stnorm"]) == 0
        assert "PASS" in capsys.readouterr().out

    def test_failing_suite_exits_one(self, monkeypatch, capsys):
        def fake(cfg):
            return SuiteReport(suite="fake", rows=[CheckRow(
                check="x", params={}, oracle=1.0, bound=0.5, ratio=2.0, passed=False)])

        monkeypatch.setitem(SUITES, "fake", fake)
        assert main(["verify", "fake"]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_suite_exits_two(self, capsys):
        assert main(["verify", "not-a-suite"]) == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_missing_config_exits_two(self, capsys):
        assert main(["verify", "stnorm", "--config", "/nonexistent/heatlab.cfg"]) == 2

    def test_malformed_config_exits_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("[suite stnorm\nepsilon 0.1\n", encoding="utf-8")
        assert main(["verify", "stnorm", "--config", str(bad)]) == 2

    def test_usage_error_exits_two(self):
        assert main(["frobnicate"]) == 2

    def test_out_flag_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "stnorm.csv"
        assert main(["verify", "stnorm", "--out", str(out)]) == 0
        assert out.exists()
        parsed = parse_report_csv(str(out))
        assert parsed and all(row["pass"] for row in parsed)


class TestConfigPlumbing:
    def test_config_overrides_epsilon_and_seed(self, tmp_path, monkeypatch):
        captured = {}

        def fake(cfg):
            captured["epsilon"] = cfg.epsilon
            captured["seed"] = cfg.seed
            return SuiteReport(suite="fake", rows=[])

        monkeypatch.setitem(SUITES, "fake", fake)
        cfg_file = tmp_path / "heatlab.cfg"
        cfg_file.write_text("[defaults]\nseed = 9\n[suite fake]\nepsilon = 0.25\n",
                            encoding="utf-8")
        assert main(["verify", "fake", "--config", str(cfg_file)]) == 0
        assert captured == {"epsilon": 0.25, "seed": 9}

    def test_cli_flags_beat_config(self, tmp_path, monkeypatch):
        captured = {}

        def fake(cfg):
            captured["epsilon"] = cfg.epsilon
            return SuiteReport(suite="fake", rows=[])

        monkeypatch.setitem(SUITES, "fake", fake)
        cfg_file = tmp_path / "heatlab.cfg"
        cfg_file.write_text("[suite fake]\nepsilon = 0.25\n", encoding="utf-8")
        assert main(["verify", "fake", "--config", str(cfg_file), "--epsilon", "0.5"]) == 0
        assert captured["epsilon"] == 0.5

    def test_group_section_parsed(self, tmp_path, monkeypatch):
        captured = {}

        def fake(cfg):
            captured["group"] = cfg.group
            return SuiteReport(suite="fake", rows=[])

        monkeypatch.setitem(SUITES, "fake", fake)
        cfg_file = tmp_path / "heatlab.cfg"
        cfg_file.write_text(
            "[group]\ndim = 2\nfamily = cyclic\ngenerator = 2.0,0,0,0.5\n",
            encoding="utf-8")
        assert main(["verify", "fake", "--config", str(cfg_file)]) == 0
        assert captured["group"] is not None
        assert captured["group"].family == "cyclic"

    def test_report_command_writes_per_suite_csv(self, tmp_path, monkeypatch):
        import heatlab.suites as suites_module

        def fake_ok(cfg):
            return SuiteReport(suite=cfg.name, rows=[CheckRow(
                check="x", params={}, oracle=0.0, bound=1.0, ratio=0.0, passed=True)])

        fakes = {"one": fake_ok, "two": fake_ok}
        monkeypatch.setattr(cli, "SUITES", fakes)
        monkeypatch.setattr(suites_module, "SUITES", fakes)
        out_dir = tmp_path / "reports"
        assert main(["report", "--out", str(out_dir)]) == 0
        assert (out_dir / "one.csv").exists() and (out_dir / "two.csv").exists()
