"""The benchmark's tracing hooks reach what they name.

perfbench/tracing.py names each traced function as a (module, function)
pair and, once installed, replaces it in every loaded heatlab namespace
that binds it.  These tests read that table without editing it.  A traced
name that no longer resolves, or a function a suite reaches through a
space model that still holds the function it saw before the tracer was
installed, would leave the benchmark's per-layer counts silently short.
"""

import importlib
import importlib.util
import pathlib

import pytest

from heatlab import suites

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves(tracing):
    assert tracing.TRACED
    for module, name in tracing.TRACED:
        target = importlib.import_module(f"heatlab.{module}")
        assert callable(getattr(target, name, None)), f"heatlab.{module}.{name}"


def test_a_suite_run_records_the_oracle_its_model_reaches(tracing):
    tracer = tracing.Tracer()
    tracer.install()
    try:
        report = suites.run_suite(suites.SuiteConfig(name="envelope"))
    finally:
        tracer.uninstall()
    assert report.rows
    summary = tracer.summary()
    assert summary["suites.envelope"]["calls"] == 1
    assert summary["rootspace.build_real_hyperbolic"]["calls"] == 1
    # one kernel evaluation per bracketing grid, each through the model
    assert summary.get("oracle.h3_log", {}).get("calls") == 2
