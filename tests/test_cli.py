import ast
import csv
import filecmp
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import heatlab
from heatlab import cli
from heatlab.cli import emit_csv, main, parse_report_csv
from heatlab.config import format_cell
from heatlab.registry import CONFIGURABLE
from heatlab.suites import (
    CRITERION_SUITES,
    SUITE_READS,
    SUITES,
    CheckRow,
    SuiteConfig,
    SuiteReport,
    run_suite,
    suite,
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

    def test_one_cell_format_across_writers(self, tmp_path):
        values = [5e-324, 1e-300, np.float64(0.1), 2.0 / 3.0]  # ascending
        expected = [format_cell(v) for v in values]
        assert expected[2] == "0.10000000000000001"

        report = SuiteReport(suite="cells", rows=[
            CheckRow(check=f"v{k}", params={"value": v, "flag": k % 2 == 0},
                     oracle=v, bound=1.0, ratio=v, passed=k % 2 == 1)
            for k, v in enumerate(values)])
        emit_csv(report, str(tmp_path / "report.csv"))
        with open(tmp_path / "report.csv", encoding="utf-8", newline="") as handle:
            emitted = list(csv.DictReader(handle))
        assert [row["value"] for row in emitted] == expected
        assert [row["oracle"] for row in emitted] == expected
        assert [row["flag"] for row in emitted] == ["true", "false", "true", "false"]
        assert [row["pass"] for row in emitted] == ["false", "true", "false", "true"]

        for value, token in zip(values, expected):
            assert float(token).hex() == float(value).hex()
        assert (format_cell(True), format_cell(False)) == ("true", "false")


@pytest.fixture
def scratch_registry():
    """Put the suite registry back as it was after a test registers toys."""
    suites_before, criteria_before = dict(SUITES), dict(CRITERION_SUITES)
    yield
    SUITES.clear()
    SUITES.update(suites_before)
    CRITERION_SUITES.clear()
    CRITERION_SUITES.update(criteria_before)


class TestRegistry:
    def test_criteria_and_primary_suites(self):
        assert CRITERION_SUITES == {
            1: ("recurrence",), 2: ("envelope",), 3: ("theorem1",),
            4: ("gradient", "liyau"), 5: ("grigoryan",), 6: ("poincare",),
            7: ("quotient", "theorem2"), 8: ("thresholds",), 9: ("stnorm",),
            10: ("riesz",),
        }
        assert len(SUITES) == 12

    def test_decorator_registers_timed_suite(self, scratch_registry, capsys):
        @suite("toy", 11)
        def toy(cfg):
            time.sleep(0.001)
            return [CheckRow(check="x", params={}, oracle=0.0, bound=1.0, ratio=0.0,
                             passed=True)]

        @suite("toy_extra", 4)
        def toy_extra(cfg):
            return []

        assert SUITES["toy"] is toy and SUITES["toy_extra"] is toy_extra
        assert CRITERION_SUITES[11] == ("toy",)
        assert CRITERION_SUITES[4] == ("gradient", "liyau", "toy_extra")
        report = run_suite(SuiteConfig(name="toy"))
        assert report.suite == "toy" and report.passed and len(report.rows) == 1
        assert report.wall_time > 0.0
        assert main(["list-suites"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert f"{'toy':12s} acceptance criterion 11 (primary)" in out
        assert f"{'toy_extra':12s} acceptance criterion 4 (supplemental)" in out

    def test_duplicate_name_raises(self, scratch_registry):
        with pytest.raises(ValueError, match="stnorm"):
            suite("stnorm", 9)(lambda cfg: [])
        assert CRITERION_SUITES[9] == ("stnorm",)

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

    @pytest.mark.parametrize("flags", [
        ["--i", "3"], ["--i", "-1"], ["--epsilon", "1.5"], ["--epsilon", "0"],
        ["--seed", "-1"], ["--space", "h2"],
    ])
    def test_bad_flag_exits_two(self, flags, capsys):
        assert main(["verify", "theorem1", *flags]) == 2
        assert "suite theorem1" not in capsys.readouterr().out

    @pytest.mark.parametrize("text, named", [
        ("[suite theorem1]\norders = 1,x\n", "orders"),
        ("[suite theorem1]\norders = 3\n", "orders"),
        ("[suite theorem1]\norders =\n", "orders"),
        ("[suite theorem1]\norders = 1,1\n", "orders must not repeat"),
        ("[defaults]\nepsilon = 1.5\n", "epsilon"),
        ("[suite stnorm]\nepsilon = nan\n", "epsilon"),
        ("[defaults]\nseed = -2\n", "seed"),
        ("[defaults]\nspace = h2\n", "space"),
        ("[suite theorem1]\nepsilom = 0.3\n", "epsilom"),
        ("[suite nosuch]\nepsilon = 0.3\n", "nosuch"),
        ("[nosuch]\n", "nosuch"),
        ("epsilon = 0.3\n", "outside any section"),
        ("[group]\ndim = 2\nfamily = cyclic\ngenerator = 2,0,0,0.5\nsize = 3\n", "size"),
        ("[group]\ndim = 5\nfamily = cyclic\ngenerator = 2,0,0,0.5\n", "dim must be 2 or 3"),
    ])
    def test_bad_config_exits_two(self, tmp_path, capsys, text, named):
        cfg_file = tmp_path / "heatlab.cfg"
        cfg_file.write_text(text, encoding="utf-8")
        assert main(["verify", "stnorm", "--config", str(cfg_file)]) == 2
        captured = capsys.readouterr()
        assert named in captured.err and captured.out == ""

    def test_report_rejects_out_key(self, tmp_path, capsys):
        cfg_file = tmp_path / "heatlab.cfg"
        cfg_file.write_text("[suite stnorm]\nout = stnorm.csv\n", encoding="utf-8")
        out_dir = tmp_path / "reports"
        assert main(["report", "--out", str(out_dir), "--config", str(cfg_file)]) == 2
        assert "'out'" in capsys.readouterr().err
        assert not out_dir.exists()

    def test_report_rejects_bad_epsilon(self, tmp_path, capsys):
        assert main(["report", "--out", str(tmp_path), "--epsilon", "1.5"]) == 2
        assert "epsilon" in capsys.readouterr().err

    @pytest.mark.parametrize("group, named", [
        ("dim = 2\nfamily = cyclic\ngenerator = nan,0,0,1\n", "must be finite"),
        ("dim = 2\nfamily = cyclic\ngenerator = inf,0,0,0\n", "must be finite"),
        # isometric disks 1e-13 apart: too close for the pruning certificate
        ("dim = 2\nfamily = schottky\ngenerator = 2,3,1,2\n"
         "generator = 4.0000000000001,15.000000000000803,1,4.0000000000001\n",
         "certifiable margin"),
        ("dim = 2\nfamily = free\ngenerator = 1.5,0,0,0.6666666666666666\n",
         "unknown family 'free'"),
    ], ids=["nan", "inf", "near-tangent", "free"])
    def test_report_rejects_bad_group_before_any_suite(self, tmp_path, capsys, group, named):
        cfg_file = tmp_path / "g.cfg"
        cfg_file.write_text("[group]\n" + group, encoding="utf-8")
        out_dir = tmp_path / "reports"
        assert main(["report", "--config", str(cfg_file), "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and named in captured.err
        assert captured.out == "" and not out_dir.exists()

    # a Schottky pair whose exponent orbit to r_max 60 outgrows the node budget
    UNCERTIFIABLE_GROUP = ("[group]\ndim = 3\nfamily = schottky\n"
                           "generator = 2,0,3,0,1,0,2,0\ngenerator = 6,0,35,0,1,0,6,0\n")

    @pytest.mark.parametrize("name", ["quotient", "theorem2"])
    def test_uncertifiable_group_exits_two(self, tmp_path, capsys, name):
        cfg_file = tmp_path / "g.cfg"
        cfg_file.write_text(self.UNCERTIFIABLE_GROUP, encoding="utf-8")
        out = tmp_path / f"{name}.csv"
        assert main(["verify", name, "--config", str(cfg_file), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: suite {name}: node budget 2000000 exhausted")
        assert captured.out == "" and not out.exists()

    def test_report_stops_at_the_uncertifiable_suite(self, tmp_path, capsys):
        cfg_file = tmp_path / "g.cfg"
        cfg_file.write_text(self.UNCERTIFIABLE_GROUP, encoding="utf-8")
        out_dir = tmp_path / "reports"
        assert main(["report", "--config", str(cfg_file), "--out", str(out_dir)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: suite quotient: node budget")
        assert "suite quotient" not in captured.out
        written = sorted(p.name for p in out_dir.iterdir())
        assert written == [f"{n}.csv" for n in sorted(SUITES) if n < "quotient"]

    def test_out_flag_writes_csv(self, tmp_path, capsys):
        out = tmp_path / "stnorm.csv"
        assert main(["verify", "stnorm", "--out", str(out)]) == 0
        assert out.exists()
        parsed = parse_report_csv(str(out))
        assert parsed and all(row["pass"] for row in parsed)


FLAG_VALUES = {"epsilon": ("--epsilon", "0.3"), "seed": ("--seed", "3"), "orders": ("--i", "1")}
NOT_READ = [(name, field) for name in sorted(SUITES) for field in FLAG_VALUES
            if field not in SUITE_READS[name]]
READ = [(name, field) for name in sorted(SUITES) for field in FLAG_VALUES
        if field in SUITE_READS[name]]


class RecordingConfig(SuiteConfig):
    """A SuiteConfig that records which configurable fields are read."""

    def __getattribute__(self, key):
        if key in CONFIGURABLE:
            object.__getattribute__(self, "seen").add(key)
        return object.__getattribute__(self, key)


class TestSuiteReads:
    def test_declared_reads_are_the_fields_each_suite_reads(self):
        for name in sorted(SUITES):
            cfg = RecordingConfig(name=name)
            cfg.seen = set()
            run_suite(cfg)
            assert cfg.seen == SUITE_READS[name], name

    @pytest.mark.parametrize("name, field", NOT_READ)
    def test_flag_the_suite_does_not_read_exits_two(self, name, field, capsys):
        flag, value = FLAG_VALUES[field]
        assert main(["verify", name, flag, value]) == 2
        captured = capsys.readouterr()
        assert f"suite {name} does not read {flag}" in captured.err and captured.out == ""

    @pytest.mark.parametrize("name, field", NOT_READ)
    def test_suite_key_the_suite_does_not_read_exits_two(self, tmp_path, capsys, name, field):
        cfg_file = tmp_path / "heatlab.cfg"
        cfg_file.write_text(f"[suite {name}]\n{field} = {FLAG_VALUES[field][1]}\n",
                            encoding="utf-8")
        assert main(["verify", name, "--config", str(cfg_file)]) == 2
        captured = capsys.readouterr()
        assert f"[suite {name}]" in captured.err and captured.out == ""

    def test_report_rejects_suite_key_not_read(self, tmp_path, capsys):
        cfg_file = tmp_path / "heatlab.cfg"
        cfg_file.write_text("[suite stnorm]\nepsilon = 0.3\n", encoding="utf-8")
        out_dir = tmp_path / "reports"
        assert main(["report", "--out", str(out_dir), "--config", str(cfg_file)]) == 2
        assert "does not read key 'epsilon'" in capsys.readouterr().err
        assert not out_dir.exists()

    @pytest.mark.parametrize("name, field", READ)
    def test_flag_the_suite_reads_is_applied(self, name, field):
        flag, value = FLAG_VALUES[field]
        args = cli._build_parser().parse_args(["verify", name, flag, value])
        cfg = cli._suite_config(name, args, None)
        expected = {"epsilon": 0.3, "seed": 3, "orders": (1,)}[field]
        assert getattr(cfg, field) == expected

    def test_report_and_defaults_apply_to_the_suites_that_read_them(self, tmp_path,
                                                                   monkeypatch):
        captured = {}

        def fake(cfg):
            captured[cfg.name] = (cfg.epsilon, cfg.seed)
            return SuiteReport(suite=cfg.name, rows=[])

        import heatlab.suites as suites_module

        # registered names, so their declared reads are the real ones
        fakes = {"stnorm": fake, "theorem1": fake}
        monkeypatch.setattr(cli, "SUITES", fakes)
        monkeypatch.setattr(suites_module, "SUITES", fakes)
        cfg_file = tmp_path / "heatlab.cfg"
        cfg_file.write_text("[defaults]\nseed = 9\n", encoding="utf-8")
        assert main(["report", "--out", str(tmp_path / "a"), "--seed", "5",
                     "--epsilon", "0.3"]) == 0
        assert captured == {"stnorm": (0.3, 5), "theorem1": (0.3, 5)}
        assert main(["verify", "theorem1", "--config", str(cfg_file)]) == 0
        assert captured["theorem1"] == (0.1, 9)

    def test_unknown_field_in_declaration_raises(self):
        with pytest.raises(ValueError, match="space"):
            suite("toy-reads", 99, reads=("space",))


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

    def test_orders_key_and_flag(self, tmp_path, monkeypatch):
        captured = []

        def fake(cfg):
            captured.append(cfg.orders)
            return SuiteReport(suite="fake", rows=[])

        monkeypatch.setitem(SUITES, "fake", fake)
        cfg_file = tmp_path / "heatlab.cfg"
        cfg_file.write_text("[suite fake]\norders = 0, 2\n", encoding="utf-8")
        assert main(["verify", "fake", "--config", str(cfg_file)]) == 0
        assert main(["verify", "fake", "--config", str(cfg_file), "--i", "1"]) == 0
        assert captured == [(0, 2), (1,)]

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


class TestScipyOffTheRunPath:
    """scipy is a test-only dependency: no module of the package imports it,
    and neither a full report nor the package import loads it."""

    def test_no_module_imports_scipy(self):
        package = os.path.dirname(os.path.abspath(heatlab.__file__))
        found = []
        for name in sorted(os.listdir(package)):
            if not name.endswith(".py"):
                continue
            with open(os.path.join(package, name), encoding="utf-8") as handle:
                tree = ast.parse(handle.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    modules = [node.module or ""]
                else:
                    continue
                found += [f"{name}:{node.lineno} {module}" for module in modules
                          if module == "scipy" or module.startswith("scipy.")]
        assert found == []

    @staticmethod
    def scipy_modules_at_exit(code: str) -> list[str]:
        src = os.path.dirname(os.path.dirname(os.path.abspath(heatlab.__file__)))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        probe = ("import atexit, sys\n"
                 "atexit.register(lambda: print(sorted(m for m in sys.modules\n"
                 "                                     if m == 'scipy' or m.startswith('scipy.'))))\n")
        proc = subprocess.run([sys.executable, "-c", probe + code], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode in (0, 1), proc.stderr  # 1: rows that fail by design
        return ast.literal_eval(proc.stdout.strip().splitlines()[-1])

    def test_report_never_imports_scipy(self, tmp_path):
        out = tmp_path / "report"
        code = ("import runpy\n"
                f"sys.argv = ['heatlab', 'report', '--out', {str(out)!r}]\n"
                "runpy.run_module('heatlab.cli', run_name='__main__')\n")
        assert self.scipy_modules_at_exit(code) == []
        assert len(list(out.glob("*.csv"))) == len(SUITES)

    def test_package_import_never_imports_scipy(self):
        assert self.scipy_modules_at_exit("import heatlab\n") == []

    def test_probe_sees_scipy_when_it_is_imported(self):
        assert "scipy.optimize" in self.scipy_modules_at_exit("import scipy.optimize\n")
