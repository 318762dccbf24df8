"""heatlab benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload {report,plane,orbits} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout; heatlab is imported from its src/.  The
last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with
--trace 0, the per-layer metrics with --trace 1 (see README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench_out")
PARTS = 5  # plane and orbits run in this many processes, each setting up anew
CHILD_TIMEOUT_S = 150.0

UNIT = {"report": "one full heatlab report", "plane": "one (t, r) point",
        "orbits": "1000 certified orbit points"}


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, HERE])
    # one busy core per process: heatlab's own pool (which gains nothing,
    # see ROADMAP) and numpy's BLAS stay single-threaded
    env["HEATLAB_THREADS"] = "1"
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def run_child(args: list[str], env: dict[str, str]) -> dict:
    spawned = time.monotonic()
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "workloads.py"), *args, "--spawned", repr(spawned)],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"workload process exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_report(seed: int, seconds: float, trace: int, env) -> tuple[list[dict], list[str]]:
    """Fresh `heatlab report` processes until the time is spent; at least two
    (four when traced, alternating untraced and traced) so that the CSV
    bytes of repetitions can be compared."""
    sys.path.insert(0, SRC)  # the Riesz check calls heatlab directly
    base = os.path.join(OUT, f"report-{os.getpid()}")
    results, digests = [], []
    start = time.monotonic()
    rep = 0
    try:
        while rep < (4 if trace else 2) or time.monotonic() - start < seconds:
            out_dir = os.path.join(base, f"rep{rep}")
            os.makedirs(out_dir)
            traced = int(trace and rep % 2 == 1)
            results.append(run_child(["--workload", "report", "--seed", str(seed),
                                      "--part", str(rep), "--trace", str(traced),
                                      "--out", out_dir], env))
            digests.append(checks.report_digest(out_dir))
            if rep > 0:
                shutil.rmtree(out_dir)
            rep += 1
        problems = checks.check_identical(digests)
        problems += checks.check_report_tables(checks.read_report(os.path.join(base, "rep0")))
        problems += checks.check_riesz_direct()
    finally:
        shutil.rmtree(base, ignore_errors=True)
        if os.path.isdir(OUT) and not os.listdir(OUT):
            os.rmdir(OUT)
    return results, problems


def run_parts(workload: str, seed: int, seconds: float, trace: int, env) -> list[dict]:
    return [run_child(["--workload", workload, "--seed", str(seed), "--part", str(part),
                       "--budget", repr(seconds / PARTS), "--trace", str(trace)], env)
            for part in range(PARTS)]


# Times are rescaled to the machine speed at which the calibration loop of
# workloads.calibrate takes CAL_REFERENCE_S: multiplied by CAL_REFERENCE_S
# over the mean calibration time of the run.  Shared machines slow down by
# up to 1.5x for spells of seconds to minutes; the calibration runs between
# rounds all through the run and slows with them, so the ratio stays put.
# Means, not medians: both sides then weigh each spell by its length.
CAL_REFERENCE_S = 0.002


def speed_scale(results: list[dict]) -> float:
    return CAL_REFERENCE_S / statistics.fmean(c for res in results for c in res["cal_s"])


def _unit_ms(rounds: list[dict], traced: bool) -> float:
    """Wall ms per unit of work over all untraced (or traced) rounds."""
    chosen = [r for r in rounds if r["traced"] == traced]
    return 1000.0 * sum(r["s"] for r in chosen) / sum(r["units"] for r in chosen)


def end_to_end(results: list[dict]) -> dict:
    rounds = [r for res in results for r in res["rounds"]]
    scale = speed_scale(results)
    return {
        "setup_s": {"value": scale * statistics.median(r["setup_s"] for r in results),
                    "unit": "s"},
        "unit_ms": {"value": scale * _unit_ms(rounds, False), "unit": "ms"},
        "peak_rss_mb": {"value": statistics.median(r["peak_rss_mb"] for r in results),
                        "unit": "MB"},
    }


# <module>.<function>.<quantity>, per traced round unless a ratio
LAYER_METRICS = (
    "oracle.h2_log.calls", "oracle.h2_log.us_per_call",
    "oracle.fd_time_derivative.calls", "oracle.fd_time_derivative.self_s",
    "oracle.fd_time_derivative.useful_ratio",
    "oracle.radial_gradient.self_s",
    "oracle.h3_log.calls", "oracle.h3_log.self_s",
    "oracle.quotient_kernel.calls", "oracle.quotient_kernel.self_s",
    "envelope.two_grid_fit.self_s", "envelope.grigoryan_bound_exact_h3.self_s",
    "envelope.recurrence_grid.self_s",
    "envelope.li_yau_gap.calls", "envelope.li_yau_gap.self_s",
    "lattice.enumerate_orbit.calls", "lattice.enumerate_orbit.points",
    "lattice.enumerate_orbit.self_s",
    "lattice.critical_exponent.self_s", "lattice.poincare_series.self_s",
    "lattice.theorem2_rhs_log.calls", "lattice.theorem2_rhs_log.self_s",
    "lpthresholds.riesz_kernel_decay.calls", "lpthresholds.riesz_kernel_decay.self_s",
    "lpthresholds.heat_verdict.calls", "lpthresholds.heat_verdict.self_s",
    "lpthresholds.st_norm_certificate.self_s",
    "rootspace.build_real_hyperbolic.calls", "rootspace.admissible_alpha_triple.calls",
    "cli.emit_csv.self_s", "cli.emit_csv.bytes",
) + tuple(f"suites.{name}.s" for name in checks.ROWS)
LAYER_UNITS = {"calls": "count", "points": "count", "bytes": "B", "self_s": "s", "s": "s",
               "us_per_call": "us", "useful_ratio": "ratio"}


def per_layer(results: list[dict]) -> dict:
    totals: dict[str, dict[str, float]] = {}
    traced_rounds = 0
    for res in results:
        traced_rounds += sum(r["traced"] for r in res["rounds"])
        for name, row in (res["trace"] or {}).items():
            acc = totals.setdefault(name, {})
            for key, val in row.items():
                acc[key] = acc.get(key, 0) + val
    metrics = {}
    for metric in LAYER_METRICS:
        name, quantity = metric.rsplit(".", 1)
        row = totals.get(name, {})
        calls = row.get("calls", 0)
        if quantity == "us_per_call":
            value = 1e6 * row.get("incl_s", 0.0) / calls if calls else 0.0
        elif quantity == "useful_ratio":
            value = row.get("useful", 0) / calls if calls else 0.0
        else:  # a suite's time is inclusive: it is the layer's whole cost
            value = row.get("incl_s" if quantity == "s" else quantity, 0) / traced_rounds
        metrics[metric] = {"value": value, "unit": LAYER_UNITS[quantity]}
    rounds = [r for res in results for r in res["rounds"]]
    plain, traced = _unit_ms(rounds, False), _unit_ms(rounds, True)
    metrics["trace.overhead_ms"] = {"value": speed_scale(results) * (traced - plain),
                                    "unit": "ms"}
    metrics["trace.overhead_pct"] = {"value": 100.0 * (traced - plain) / plain, "unit": "%"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="heatlab benchmark")
    parser.add_argument("--workload", required=True, choices=("report", "plane", "orbits"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "heatlab", "__init__.py")):
        print(f"error: no heatlab package under {SRC}; run from a heatlab checkout",
              file=sys.stderr)
        return 2
    env = child_env()
    if args.workload == "report":
        results, problems = run_report(args.seed, args.seconds, args.trace, env)
    else:
        results = run_parts(args.workload, args.seed, args.seconds, args.trace, env)
        problems = []
    for res in results:
        problems += res["problems"]
    n_problems = len(problems) + sum(res["n_problems"] - len(res["problems"]) for res in results)
    for line in problems[:20]:
        print(f"check failed: {line}", file=sys.stderr)
    import numpy, scipy, mpmath  # noqa: E401 - versions for the record

    print(f"# workload={args.workload} unit={UNIT[args.workload]!r} "
          f"processes={len(results)} nproc={len(os.sched_getaffinity(0))} "
          f"HEATLAB_THREADS={env['HEATLAB_THREADS']} numpy={numpy.__version__} "
          f"scipy={scipy.__version__} mpmath={mpmath.__version__}", file=sys.stderr)
    rounds = [r for res in results for r in res["rounds"]]
    print(f"# not rescaled: unit_ms={_unit_ms(rounds, False):.4f} setup_s="
          f"{statistics.median(res['setup_s'] for res in results):.4f} over "
          f"{len(rounds)} rounds; speed scale {speed_scale(results):.4f}", file=sys.stderr)
    metrics = per_layer(results) if args.trace else end_to_end(results)
    print(json.dumps({
        "correct": n_problems == 0,
        "attempted": sum(res["attempted"] for res in results),
        "failed": sum(res["failed"] for res in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
