"""One benchmark process: set up, run timed rounds, check, print one JSON line.

    python3 perfbench/workloads.py --workload plane --seed 1 --part 0 \
        --budget 6.5 --spawned <time.monotonic() at spawn> --trace 0

Run by perfbench/run.py with PYTHONPATH naming the checkout's src/ and
perfbench/.  Everything before the first timed operation (process start,
`import heatlab`, building the inputs) is set-up; the benchmark's own
references are imported only after the timed rounds, so they cost no
set-up or peak memory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import signal
import sys
import time

import numpy as np

from heatlab import cli, envelope, lattice, oracle
from heatlab.rootspace import build_real_hyperbolic

# ---------------------------------------------------------------------------
# plane: seeded (t, r) points, five quantities each

PLANE_T = (0.01, 30.0)
PLANE_R = (0.1, 20.0)
# A round is five points with exp(h2_log) a normal float (r^2/4t <= 600) and
# one where it underflows at every stencil point (r^2/4t >= 800), the share
# the 12x12 grid over the same range has.  Between the two the kernel values
# are subnormal and the results lose precision point by point, so no fixed
# failure count could hold there; that band is left out (see README).
PLANE_NORMAL_Q = 600.0
PLANE_UNDERFLOW_Q = 800.0
PLANE_ROUND = (5, 1)
PLANE_OPS = ("h2_log", "fd1", "fd2", "radial_gradient", "li_yau_gap")
GAMMA = 2.0


def _plane_point(rng, underflow: bool) -> tuple[float, float]:
    while True:
        t = np.exp(rng.uniform(math.log(PLANE_T[0]), math.log(PLANE_T[1]), 64))
        r = rng.uniform(*PLANE_R, 64)
        q = r * r / (4.0 * t)
        hits = np.flatnonzero(q >= PLANE_UNDERFLOW_Q if underflow else q <= PLANE_NORMAL_Q)
        if hits.size:
            return float(t[hits[0]]), float(r[hits[0]])


def plane_round(rng) -> list[tuple[float, float, bool]]:
    normal, under = PLANE_ROUND
    kinds = [False] * normal + [True] * under
    rng.shuffle(kinds)
    return [(*_plane_point(rng, k), k) for k in kinds]


def _call(fn, *args):
    """(result, error name); a boundary that records failures and moves on."""
    try:
        return fn(*args), None
    except Exception as exc:  # noqa: BLE001 - every failure is counted and reported
        return None, type(exc).__name__


def _plane_kernel(t, r):
    return math.exp(oracle.h2_log(t, r))


def run_plane_point(model2, t: float, r: float) -> dict:
    out = {"t": t, "r": r}
    out["h2_log"] = _call(oracle.h2_log, t, r)
    out["fd1"] = _call(oracle.fd_time_derivative, _plane_kernel, 1, t, r)
    out["fd2"] = _call(oracle.fd_time_derivative, _plane_kernel, 2, t, r)
    out["radial_gradient"] = _call(oracle.radial_gradient, "h2", t, r)
    out["li_yau_gap"] = _call(envelope.li_yau_gap, model2, t, r, GAMMA)
    return out


def plane_failed(rec: dict) -> int:
    """Operations that raised, or returned the exact zero that an underflowed
    kernel produces: the plane kernel's t-derivatives and radial gradient
    vanish only on a null set, never at a float."""
    failed = 0
    for name in PLANE_OPS:
        value, err = rec[name]
        if err is not None:
            failed += 1
        elif name in ("fd1", "fd2") and value.value == 0.0:
            failed += 1
        elif name == "radial_gradient" and value == 0.0:
            failed += 1
    return failed


# ---------------------------------------------------------------------------
# orbits: the test Schottky pair in 3-space, one screw-motion cyclic group,
# and the enumeration that overflows


def schottky_generator(center: float, radius: float = 1.0) -> np.ndarray:
    """Pairs the disks of the given radius at -center and +center."""
    u, r = center, radius
    return np.array([[u / r, (u * u - r * r) / r], [1.0 / r, u / r]], dtype=complex)


SCHOTTKY = (schottky_generator(2.0), schottky_generator(6.0))
SCHOTTKY_WALL_GAP = math.acosh(7.0)  # closest pair of the four isometric hemispheres
SCHOTTKY_R = (27.0, 28.9)  # brute force through 11 letters is complete below 28.97
OVERFLOW_POINT = (0j, 5.0)
OVERFLOW_R = 36.6
QUOTIENT_T = tuple(float(t) for t in np.geomspace(0.1, 10.0, 12))
QUOTIENT_ORDERS = (0, 1, 2)
COUNT_FRACTIONS = (0.4, 0.6, 0.8, 1.0)
SERIES_GAP = 0.5  # Poincare series exponent s = delta + SERIES_GAP
# GroupSpec takes |trace| > 2 for loxodromic, which refuses screw motions
# with translation l and rotation a once sin(a/2) >= sinh(l/2); at l = 1.5
# that is a > 1.92
CYCLIC_MAX_TURN = 1.5


def _basepoint(rng, h_range) -> tuple[complex, float]:
    # height above 1 keeps the point outside every unit isometric hemisphere
    rad, ang = 0.5 * math.sqrt(rng.uniform()), rng.uniform(0.0, 2.0 * math.pi)
    return complex(rad * math.cos(ang), rad * math.sin(ang)), float(rng.uniform(*h_range))


def orbit_round(rng) -> list[dict]:
    specs = []
    for _ in range(2):
        specs.append({"family": "schottky", "x": _basepoint(rng, (1.5, 3.5)),
                      "y": _basepoint(rng, (1.5, 3.5)),
                      "r_max": float(rng.uniform(*SCHOTTKY_R))})
    # a screw motion: translation 1.5-3 along the axis, rotation below 1.5 rad
    # (GroupSpec refuses larger rotations, see CYCLIC_MAX_TURN)
    specs.append({"family": "cyclic",
                  "w": complex(rng.uniform(1.5, 3.0), rng.uniform(0.0, CYCLIC_MAX_TURN)),
                  "x": _basepoint(rng, (0.5, 4.0)), "y": _basepoint(rng, (0.5, 4.0)),
                  "r_max": float(rng.uniform(40.0, 60.0))})
    specs.append({"family": "overflow", "x": OVERFLOW_POINT, "y": OVERFLOW_POINT,
                  "r_max": OVERFLOW_R})
    for spec in specs:
        spec["group"] = _group(spec)
    return specs


def _group(spec: dict) -> lattice.GroupSpec:
    if spec["family"] == "cyclic":
        half = np.exp(spec["w"] / 2.0)
        mat = np.array([[half, 0.0], [0.0, 1.0 / half]], dtype=complex)
        return lattice.GroupSpec(dim=3, generators=(mat,), family="cyclic")
    return lattice.GroupSpec(dim=3, generators=SCHOTTKY, family="schottky")


def run_orbit(spec: dict) -> dict:
    group = spec["group"]
    rec = {"spec": spec}
    orbit, err = _call(lattice.enumerate_orbit, group, spec["x"], spec["y"], spec["r_max"])
    rec["orbit"] = (orbit, err)
    if err is not None:
        return rec
    r_max = spec["r_max"]
    rec["counts"] = [(f * r_max, _call(lattice.counting_function, orbit, f * r_max))
                     for f in COUNT_FRACTIONS]
    est, err = _call(lattice.critical_exponent, orbit)
    rec["exponent"] = (est, err)
    delta = max(est.conservative, 1e-6) if est is not None else 1e-6
    rec["s"] = delta + SERIES_GAP
    rec["series"] = _call(lattice.poincare_series, orbit, rec["s"], delta)
    r_cut = r_max - 2.0
    rec["r_cut"] = r_cut
    rec["quotient"] = [
        (t, i, _call(oracle.quotient_kernel, orbit, "h3", t, None, None, i, r_cut, delta))
        for i in QUOTIENT_ORDERS for t in QUOTIENT_T
    ]
    return rec


def orbit_ops(rec: dict) -> tuple[int, int]:
    """(attempted, failed) for one orbit record."""
    if rec["orbit"][1] is not None:
        return 1, 1
    calls = [rec["orbit"], rec["exponent"], rec["series"]]
    calls += [c for _, c in rec["counts"]] + [c for _, _, c in rec["quotient"]]
    return len(calls), sum(err is not None for _, err in calls)


# ---------------------------------------------------------------------------
# timing
#
# Shared machines change speed by up to 1.5x, for the interpreter and numpy
# alike, in spells of seconds to minutes (other tenants).  A fixed
# calibration loop samples the speed every SAMPLE_PERIOD_S of wall time all
# through the timed work, and between rounds; the time spent sampling is
# taken out of the measured times.  run.py rescales the run's times by the
# mean calibration time (see README).

SAMPLE_PERIOD_S = 0.1
_CAL_ARRAY = np.random.default_rng(0).random(100000)


def calibrate() -> float:
    """Median of three timings of a fixed interpreted-plus-numpy loop."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        acc = 0.0
        for k in range(20000):
            acc += math.sqrt(k)
        np.sort(_CAL_ARRAY)
        times.append(time.perf_counter() - start)
    return sorted(times)[1]


class SpeedSampler:
    """Calibration samples from a SIGALRM timer while active, and the wall
    time they took, to be subtracted from whatever was being timed."""

    def __init__(self):
        self.samples: list[float] = []
        self.spent = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(calibrate())
        self.spent += time.perf_counter() - start

    def time(self, fn, *args, during: bool = True):
        """(fn(*args), wall seconds net of sampling).  Samples throughout
        when `during` (traced work is not sampled: the samples would land in
        its spans), and once after the work, however short it was."""
        previous = signal.signal(signal.SIGALRM, self._tick)
        spent_before = self.spent
        if during:
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        start = time.perf_counter()
        try:
            out = fn(*args)
        finally:
            elapsed = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        sampling = self.spent - spent_before
        self._tick(None, None)
        return out, elapsed - sampling


def _timed_rounds(next_round, run_round, budget: float, tracer, paired: bool):
    """Run whole rounds until the budget is spent.

    Returns per timed run (seconds, traced, output index), the outputs, and
    the speed samples.  With a tracer, half the timed runs are traced, so
    that the other half gives the tracing overhead: each round runs untraced
    and then again traced when `paired` (its operations keep no cache
    between calls), and otherwise rounds alternate between untraced and
    traced.
    """
    timings, outputs = [], []
    spent = 0.0
    sampler = SpeedSampler()

    def timed(specs, traced: bool, index: int):
        if traced:
            tracer.install()
        out, elapsed = sampler.time(run_round, specs, during=not traced)
        if traced:
            tracer.uninstall()
        timings.append((elapsed, traced, index))
        return out, elapsed

    index = 0
    while index < 2 or spent < budget:
        specs = next_round()
        traced = tracer is not None and not paired and index % 2 == 1
        out, elapsed = timed(specs, traced, index)
        outputs.append(out)
        spent += elapsed
        if tracer is not None and paired:
            _, elapsed = timed(specs, True, index)
            spent += elapsed
        index += 1
    return timings, outputs, sampler.samples


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main_plane(args, spawned: float) -> dict:
    rng = np.random.default_rng([args.seed, args.part])
    model2 = build_real_hyperbolic(2)
    first = [plane_round(rng)]
    setup_s = time.monotonic() - spawned
    tracer = _tracer(args)

    def run_round(points):
        return [run_plane_point(model2, t, r) for t, r, _ in points]

    def next_round():
        return first.pop() if first else plane_round(rng)

    timings, outputs, cal = _timed_rounds(next_round, run_round, args.budget, tracer,
                                          paired=False)
    peak = _peak_rss_mb()
    records = [rec for out in outputs for rec in out]
    attempted = len(records) * len(PLANE_OPS)
    failed = sum(plane_failed(rec) for rec in records)
    import checks

    problems = checks.check_plane_records(records, mp_samples=1 if args.part == 0 else 0)
    return _result(setup_s, cal, timings, sum(PLANE_ROUND), attempted, failed, problems, peak,
                   tracer)


def main_orbits(args, spawned: float) -> dict:
    rng = np.random.default_rng([args.seed, args.part])
    first = [orbit_round(rng)]
    setup_s = time.monotonic() - spawned
    tracer = _tracer(args)

    def next_round():
        return first.pop() if first else orbit_round(rng)

    timings, outputs, cal = _timed_rounds(next_round,
                                          lambda specs: [run_orbit(s) for s in specs],
                                          args.budget, tracer, paired=True)
    peak = _peak_rss_mb()
    records = [rec for out in outputs for rec in out]
    attempted = failed = 0
    for rec in records:
        a, f = orbit_ops(rec)
        attempted += a
        failed += f
    # unit: 1000 certified orbit points of the round
    units = [sum(len(rec["orbit"][0]) for rec in out if rec["orbit"][0] is not None) / 1000.0
             for out in outputs]
    import checks

    problems = checks.check_orbit_records(records, SCHOTTKY_WALL_GAP, SCHOTTKY, SCHOTTKY_R[1])
    return _result(setup_s, cal, timings, units, attempted, failed, problems, peak, tracer)


def main_report(args, spawned: float) -> dict:
    setup_s = time.monotonic() - spawned
    sampler = SpeedSampler()
    tracer = _tracer(args)
    if tracer is not None:
        tracer.install()
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
        code, elapsed = sampler.time(
            cli.main, ["report", "--out", args.out, "--seed", str(args.seed)],
            during=tracer is None)
    peak = _peak_rss_mb()
    cal = sampler.samples
    problems = [] if code == 1 else [f"heatlab report exited {code}, expected 1 "
                                     "(criteria 1 and 8 fail by design)"]
    return _result(setup_s, cal, [(elapsed, tracer is not None, 0)], 1, len(cli.SUITES), 0,
                   problems, peak, tracer)


def _tracer(args):
    if not args.trace:
        return None
    from tracing import Tracer

    return Tracer()


def _result(setup_s, cal, timings, units, attempted, failed, problems, peak, tracer) -> dict:
    """`timings` holds (seconds, traced, output index); `units` the work units
    of each output, or one number for all."""
    if not isinstance(units, list):
        units = [units] * (1 + max(index for *_, index in timings))
    return {
        "setup_s": setup_s,
        "cal_s": cal,
        "rounds": [{"s": s, "units": units[index], "traced": traced}
                   for s, traced, index in timings],
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "n_problems": len(problems),
        "peak_rss_mb": peak,
        "trace": tracer.summary() if tracer is not None else None,
    }


def main(argv=None) -> int:
    spawned_default = time.monotonic()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("report", "plane", "orbits"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--part", type=int, default=0)
    parser.add_argument("--budget", type=float, default=1.0)
    parser.add_argument("--spawned", type=float, default=spawned_default,
                        help="time.monotonic() just before this process was started")
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--out", help="report output directory")
    args = parser.parse_args(argv)
    runner = {"report": main_report, "plane": main_plane, "orbits": main_orbits}[args.workload]
    result = runner(args, args.spawned)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
