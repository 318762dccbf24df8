"""The benchmark's own tests: tiny runs end to end, and planted errors.

    PYTHONPATH=src:perfbench python3 -m pytest perfbench -q

They take about two minutes; the repository's tier-1 suite does not collect
them (pytest.ini points it at tests/).
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import checks  # noqa: E402
import refs  # noqa: E402
import workloads  # noqa: E402
from heatlab import cli  # noqa: E402
from heatlab.rootspace import build_real_hyperbolic  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)

# failed operations per attempted, fixed by the make-up of a round
FAILED_SHARE = {"report": 0.0, "plane": 4 / 30, "orbits": 1 / 130}


def _bench(cwd: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["report", "plane", "orbits"])
def test_tiny_run_reaches_its_end(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.2",
                  "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"], proc.stderr
    assert result["attempted"] >= 1
    assert result["failed"] / result["attempted"] == pytest.approx(FAILED_SHARE[workload],
                                                                   abs=1e-15)
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for metric in declared:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if trace:
        h2_calls = result["metrics"]["oracle.h2_log.calls"]["value"]
        assert (h2_calls > 0) == (workload == "plane")
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _bench(str(tmp_path), "--workload", "plane", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_planted_h2_error_is_caught():
    t, r = 0.37, 4.2
    rec = workloads.run_plane_point(build_real_hyperbolic(2), t, r)
    ref = refs.plane_point(t, r)
    assert checks.check_plane_point(rec, ref) == []
    log_h, _ = rec["h2_log"]
    rec["h2_log"] = (log_h + math.log1p(1e-6), None)
    assert checks.check_plane_point(rec, ref)


def test_float_plane_reference_matches_mpmath():
    ref = refs.plane_point(0.04, 1.0)
    assert checks.check_plane_mp(0.04, 1.0, ref) == []


def test_planted_missing_orbit_point_is_caught():
    spec = {"family": "schottky", "x": (0.1 + 0.2j, 2.0), "y": (-0.2 + 0.1j, 2.5),
            "r_max": 20.0}
    spec["group"] = workloads._group(spec)
    rec = workloads.run_orbit(spec)
    ref_d, ref_len = checks.reference_orbit(spec, workloads.SCHOTTKY_WALL_GAP,
                                            workloads.SCHOTTKY)
    assert checks.check_orbit_record(rec, ref_d, ref_len) == []
    orbit, _ = rec["orbit"]
    drop = len(orbit) // 2
    keep = [k for k in range(len(orbit)) if k != drop]
    rec["orbit"] = (dataclasses.replace(orbit, distances=orbit.distances[keep],
                                        word_lengths=orbit.word_lengths[keep]), None)
    assert checks.check_orbit_record(rec, ref_d, ref_len)


def test_planted_csv_byte_is_caught(tmp_path, capsys):
    first = tmp_path / "first"
    assert cli.main(["report", "--out", str(first), "--seed", "0"]) == 1
    capsys.readouterr()
    assert checks.check_report_tables(checks.read_report(str(first))) == []
    second = tmp_path / "second"
    shutil.copytree(first, second)
    path = second / "poincare.csv"
    data = bytearray(path.read_bytes())
    last_digit = max(k for k, byte in enumerate(data) if chr(byte).isdigit())
    data[last_digit] = ord("9") if data[last_digit] != ord("9") else ord("8")
    path.write_bytes(bytes(data))
    digests = [checks.report_digest(str(first)), checks.report_digest(str(second))]
    assert checks.check_identical(digests)
