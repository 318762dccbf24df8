"""Output checks: each returns a list of problems, empty when all is well.

Every value is compared with a reference from refs.py, which does not use
heatlab, or with a property the mathematics forces.  Operations counted as
failed (see workloads.plane_failed and workloads.orbit_ops) are not checked
further: `correct` speaks of the operations that did not fail.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import math
import os

import mpmath
import numpy as np

import refs

# ---------------------------------------------------------------------------
# plane

H2_LOG_TOL = 1e-8  # absolute, in log h; heatlab's quadrature targets 1e-9 relative
FD_TOL = 1e-5  # heatlab's own precision_ok limit, against the absolute-value integral
RADIAL_TOL = 1e-6
GAP_TOL = 1e-6
MP_TOL = 1e-10  # float reference against mpmath
PLANE_CAP = 400  # points checked per process; more are thinned evenly
PLANE_CURVATURE_TERM = 2.0 * 1.0 * 4.0 / math.sqrt(2.0)  # n R^2 g^2 / (sqrt2 (g - 1)), n=2, g=2


def _evenly(items: list, cap: int) -> list:
    if len(items) <= cap:
        return items
    step = len(items) / cap
    return [items[int(k * step)] for k in range(cap)]


def check_plane_point(rec: dict, ref: dict) -> list[str]:
    t, r = rec["t"], rec["r"]
    where = f"plane t={t!r} r={r!r}"
    problems = []
    log_h, err = rec["h2_log"]
    if err is None and not abs(log_h - ref["log_h"]) <= H2_LOG_TOL:
        problems.append(f"{where}: h2_log {log_h!r} vs reference {ref['log_h']!r}")
    h_ref = ref["log_h"]

    def linear(entry):  # (value, |value| scale) relative to h, free of underflow
        log_abs, sign, log_scale = entry
        return sign * math.exp(log_abs - h_ref), math.exp(log_scale - h_ref)

    h = math.exp(h_ref) if h_ref > -700.0 else 0.0
    if h == 0.0:
        return problems  # derivatives there are counted as failed operations
    for name in ("fd1", "fd2"):
        fd, err = rec[name]
        if err is not None or fd.value == 0.0 or not fd.precision_ok:
            continue
        ref_val, scale = linear(ref["dt1" if name == "fd1" else "dt2"])
        if not abs(fd.value / h - ref_val) <= FD_TOL * scale:
            problems.append(f"{where}: {name} {fd.value!r} vs reference {ref_val * h!r} "
                            f"(precision_ok, rel_error {fd.rel_error:.2e})")
    grad, err = rec["radial_gradient"]
    ref_dr, scale_dr = linear(ref["dr"])
    if err is None and grad != 0.0 and not abs(grad / h - abs(ref_dr)) <= RADIAL_TOL * scale_dr:
        problems.append(f"{where}: radial_gradient {grad!r} vs reference {abs(ref_dr) * h!r}")
    gap, err = rec["li_yau_gap"]
    if err is None:
        fd1, fd_err = rec["fd1"]
        ref_dt, scale_dt = linear(ref["dt1"])
        # li_yau_gap uses its finite difference whether or not it is precise;
        # check the gap given the derivative it used, and that derivative
        # itself above when precision_ok.
        dt = ref_dt if fd_err is not None or fd1.precision_ok else fd1.value / h
        rhs = PLANE_CURVATURE_TERM + 2.0 * 4.0 / (2.0 * t)
        expected = rhs - ref_dr ** 2 + 2.0 * dt
        tol = GAP_TOL * (rhs + ref_dr ** 2 + 2.0 * scale_dt) + 2.0 * FD_TOL * scale_dt
        if not abs(gap - expected) <= tol:
            problems.append(f"{where}: li_yau_gap {gap!r} vs reference {expected!r}")
    return problems


def check_plane_mp(t: float, r: float, ref: dict) -> list[str]:
    """The float reference against the mpmath one (mpmath.diff derivatives)."""
    mp = refs.mp_h2_point(t, r, dps=20)
    problems = []
    if not abs(ref["log_h"] - float(mp["log_h"])) <= MP_TOL:
        problems.append(f"plane t={t!r} r={r!r}: float reference log h {ref['log_h']!r} "
                        f"vs mpmath {float(mp['log_h'])!r}")
    for name in ("dt1", "dt2", "dr"):
        log_abs, sign, log_scale = ref[name]
        mp_val = float(mp[name] / mp["h"])
        if not abs(sign * math.exp(log_abs - ref["log_h"]) - mp_val) <= \
                MP_TOL * math.exp(log_scale - ref["log_h"]):
            problems.append(f"plane t={t!r} r={r!r}: float reference {name} vs mpmath {mp_val!r}")
    return problems


def check_plane_records(records: list[dict], mp_samples: int = 0) -> list[str]:
    problems = []
    mp_left = mp_samples
    for rec in _evenly(records, PLANE_CAP):
        ref = refs.plane_point(rec["t"], rec["r"])
        problems += check_plane_point(rec, ref)
        if mp_left and rec["r"] ** 2 / (4.0 * rec["t"]) < 700.0:
            problems += check_plane_mp(rec["t"], rec["r"], ref)
            mp_left -= 1
    return problems


# ---------------------------------------------------------------------------
# orbits

DIST_TOL = 1e-8
SUM_TOL = 1e-10
ORBIT_CAP = 24  # brute-force references per process


def reference_orbit(spec: dict, wall_gap: float,
                    generators) -> tuple[np.ndarray, np.ndarray | None]:
    """Sorted reference distances within r_max (and word lengths, Schottky)."""
    if spec["family"] == "cyclic":
        return refs.cyclic_orbit(spec["w"], spec["x"], spec["y"], spec["r_max"]), None
    max_len = refs.schottky_word_bound(spec["r_max"], wall_gap)
    dists, lengths = refs.brute_force_orbit(generators, spec["x"], spec["y"], max_len)
    keep = dists <= spec["r_max"]
    order = np.argsort(dists[keep], kind="stable")
    return dists[keep][order], lengths[keep][order]


def check_orbit_distances(orbit, ref_d: np.ndarray, ref_len, r_max: float, where: str) -> list[str]:
    got = np.asarray(orbit.distances, dtype=float)
    if got.size != ref_d.size:
        # a reference point within rounding of the cutoff may fall either side
        near = np.count_nonzero(np.abs(ref_d - r_max) <= DIST_TOL)
        if abs(got.size - ref_d.size) > near:
            return [f"{where}: {got.size} orbit points, reference has {ref_d.size}"]
        n = min(got.size, ref_d.size)
        got, ref_d = got[:n], ref_d[:n]
    if got.size and not np.max(np.abs(got - ref_d)) <= DIST_TOL:
        worst = int(np.argmax(np.abs(got - ref_d)))
        return [f"{where}: distance {got[worst]!r} vs reference {ref_d[worst]!r}"]
    if ref_len is not None and got.size == ref_len.size and not np.array_equal(
            np.bincount(orbit.word_lengths), np.bincount(ref_len)):
        return [f"{where}: word-length histogram differs from the brute force"]
    return []


def _reference_slope(ref_d: np.ndarray, r_max: float, lo_frac: float) -> float:
    rs = np.linspace(lo_frac * r_max, r_max, 25)
    counts = np.searchsorted(ref_d, rs, side="right").astype(float)
    mask = counts > 0
    return float(np.polyfit(rs[mask], np.log(counts[mask]), 1)[0])


def check_orbit_record(rec: dict, ref_d: np.ndarray, ref_len) -> list[str]:
    spec = rec["spec"]
    orbit, err = rec["orbit"]
    where = f"{spec['family']} orbit x={spec['x']} y={spec['y']} r_max={spec['r_max']!r}"
    if err is not None:
        return []
    problems = check_orbit_distances(orbit, ref_d, ref_len, spec["r_max"], where)
    if problems:
        return problems
    for radius, (count, err) in rec["counts"]:
        expected = int(np.searchsorted(ref_d, radius, side="right"))
        if err is None and count != expected:
            problems.append(f"{where}: counting_function({radius!r}) = {count}, "
                            f"reference {expected}")
    est, err = rec["exponent"]
    if err is None:
        if not est.lower <= est.estimate <= est.upper:
            problems.append(f"{where}: exponent {est.estimate!r} outside [{est.lower!r}, "
                            f"{est.upper!r}]")
        if est.insufficient_data != (1 < ref_d.size < 50):
            problems.append(f"{where}: insufficient_data={est.insufficient_data} "
                            f"with {ref_d.size} points")
        elif not est.insufficient_data and ref_d.size > 1:
            slope = _reference_slope(ref_d, spec["r_max"], 0.5)
            # the critical exponent of a group acting on 3-space lies in [0, 2]
            if not (0.0 < est.estimate < 2.0 and abs(est.estimate - slope) <= 1e-6):
                problems.append(f"{where}: exponent {est.estimate!r}, reference fit {slope!r}")
    series, err = rec["series"]
    if err is None:
        s = rec["s"]
        expected = math.fsum(np.exp(-s * ref_d))
        if not (abs(series.partial_sum - expected) <= SUM_TOL * expected
                and series.n_terms == ref_d.size
                and 0.0 <= series.tail_bound < math.inf):
            problems.append(f"{where}: poincare_series {series} vs partial sum {expected!r}")
    r_cut = rec["r_cut"]
    inside = ref_d <= r_cut
    for t, order, (ev, err) in rec["quotient"]:
        if err is not None:
            continue
        terms = refs.h3_dt_terms(t, ref_d, order)
        expected = math.fsum(terms[inside])
        scale = math.fsum(np.abs(terms[inside]))
        known_tail = math.fsum(np.abs(terms[~inside]))
        if not abs(ev.value - expected) <= SUM_TOL * scale + 1e-300:
            problems.append(f"{where}: quotient_kernel(t={t!r}, i={order}) {ev.value!r} "
                            f"vs reference {expected!r}")
        if ev.terms_used != int(inside.sum()):
            problems.append(f"{where}: quotient_kernel used {ev.terms_used} terms, "
                            f"reference {int(inside.sum())}")
        # the certified tail bound must cover the part of the tail already known
        if not known_tail * (1.0 - 1e-12) <= ev.truncation_bound < math.inf:
            problems.append(f"{where}: truncation bound {ev.truncation_bound!r} below the "
                            f"enumerated tail {known_tail!r} (t={t!r}, i={order})")
    return problems


def check_h3_reference(samples) -> list[str]:
    """The float h3 closed form against mpmath.diff of the mpmath one."""
    problems = []
    for t, d, order in samples:
        got = float(refs.h3_dt_terms(t, np.array([d]), order)[0])
        want = float(refs.mp_h3_dt(t, d, order))
        if not abs(got - want) <= 1e-12 * abs(want) + 1e-300:
            problems.append(f"h3 reference d^{order}/dt at t={t} d={d}: {got!r} vs mpmath {want!r}")
    return problems


def check_overflow_orbit(orbit, r_ref: float, wall_gap: float, generators) -> list[str]:
    """An orbit from the enumeration that overflows today, should it return
    one: a brute force to its full radius is out of reach, so its points
    below r_ref are compared with one."""
    spec = {"family": "schottky", "x": orbit.x, "y": orbit.y, "r_max": r_ref}
    ref_d, _ = reference_orbit(spec, wall_gap, generators)
    head = dataclasses.replace(orbit, distances=orbit.distances[orbit.distances <= r_ref])
    where = f"overflow orbit below {r_ref}"
    problems = check_orbit_distances(head, ref_d, None, r_ref, where)
    if not (np.all(np.diff(orbit.distances) >= 0.0) and orbit.distances[-1] <= orbit.r_max):
        problems.append(f"{where}: distances unsorted or beyond r_max")
    return problems


def check_orbit_records(records: list[dict], wall_gap: float, generators,
                        overflow_ref_r: float) -> list[str]:
    problems = check_h3_reference([(0.1, 3.0, 2), (1.0, 0.0, 1), (7.0, 25.0, 0)])
    checkable = [rec for rec in records if rec["spec"]["family"] != "overflow"]
    for rec in _evenly(checkable, ORBIT_CAP):
        ref_d, ref_len = reference_orbit(rec["spec"], wall_gap, generators)
        problems += check_orbit_record(rec, ref_d, ref_len)
    overflow = [rec["orbit"][0] for rec in records
                if rec["spec"]["family"] == "overflow" and rec["orbit"][1] is None]
    if overflow:
        problems += check_overflow_orbit(overflow[0], overflow_ref_r, wall_gap, generators)
    return problems


# ---------------------------------------------------------------------------
# report

ROWS = {"envelope": 3, "gradient": 1, "grigoryan": 4, "liyau": 2, "poincare": 6, "quotient": 4,
        "recurrence": 16, "riesz": 4, "stnorm": 13, "theorem1": 4, "theorem2": 3,
        "thresholds": 19}  # rows per suite CSV; the 12 suites
LAMBDAS = ("0.25", "0.5", "0.75", "0.90000000000000002")
# Rows that fail by design of the mathematics (README of heatlab): criterion 1
# (beta_vs_one at every lambda, gamma_vs_limit at lambda 0.9) and criterion 8
# at p = 4, eta = 0.7.
FAILING_BY_DESIGN = (
    {("recurrence", "beta_vs_one", lam) for lam in LAMBDAS}
    | {("recurrence", "gamma_vs_limit", "0.90000000000000002"),
       ("thresholds", "finite_below_threshold", "4|0.69999999999999996"),
       ("thresholds", "divergent_above_threshold", "4|0.69999999999999996")}
)
RIESZ_R = 4.0


def _row_key(suite: str, row: dict) -> tuple[str, str, str]:
    if suite == "recurrence":
        return suite, row["check"], row["lambda"]
    if suite == "thresholds":
        return suite, row["check"], f"{row['p']}|{row['eta']}"
    return suite, row["check"], ""


def read_report(out_dir: str) -> dict[str, list[dict]]:
    tables = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), newline="", encoding="utf-8") as handle:
            tables[name] = list(csv.DictReader(handle))
    return tables


def report_digest(out_dir: str) -> dict[str, str]:
    digest = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as handle:
            digest[name] = hashlib.sha256(handle.read()).hexdigest()
    return digest


def check_identical(digests: list[dict[str, str]]) -> list[str]:
    problems = []
    for k, digest in enumerate(digests[1:], start=1):
        for name in sorted(set(digest) | set(digests[0])):
            if digest.get(name) != digests[0].get(name):
                problems.append(f"report repetition {k}: {name} differs from repetition 0")
    return problems


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def check_report_tables(tables: dict[str, list[dict]]) -> list[str]:
    expected_files = {f"{s}.csv" for s in ROWS}
    if set(tables) != expected_files:
        return [f"report files {sorted(tables)} differ from the 12 suites"]
    problems = []
    rows = {}
    for suite in ROWS:
        table = tables[f"{suite}.csv"]
        if len(table) != ROWS[suite]:
            problems.append(f"{suite}: {len(table)} rows, expected {ROWS[suite]}")
        for row in table:
            key = _row_key(suite, row)
            rows[key] = row
            want = "false" if key in FAILING_BY_DESIGN else "true"
            if row["pass"] != want:
                problems.append(f"{suite}: row {key} has pass={row['pass']}, expected {want}")

    def value(suite, check, extra="", field="oracle"):
        row = rows.get((suite, check, extra))
        if row is None:
            problems.append(f"{suite}: no row {check} {extra}")
            return math.nan
        return float(row[field])

    for lam in LAMBDAS:
        beta, gamma = refs.recurrence_columns(float(lam), 10, 200)
        limit = [(1.0 - math.sqrt(1.0 - float(lam))) ** i for i in range(11)]
        for check, want in (("gamma_vs_limit", max(abs(g - m) for g, m in zip(gamma, limit))),
                            ("beta_vs_one", max(abs(b - 1.0) for b in beta))):
            got = value("recurrence", check, lam)
            if not abs(got - want) <= 1e-12:
                problems.append(f"recurrence {check} lambda={lam}: {got!r}, reference {want!r}")
        for check in ("cells_in_unit_interval", "monotone_in_step"):
            if value("recurrence", check, lam) != 0.0:
                problems.append(f"recurrence {check} lambda={lam}: nonzero violation")

    coarse = refs.h3_envelope_ratio(np.linspace(0.0, 20.0, 60))
    fine = refs.h3_envelope_ratio(np.linspace(0.0, 20.0, 240))
    for got, want, what in (
            (value("envelope", "bracket_window", field="low"), coarse.min(), "low"),
            (value("envelope", "bracket_window", field="high"), coarse.max(), "high"),
            (value("envelope", "bracket_low_stable"), fine.min(), "fine low"),
            (value("envelope", "bracket_high_stable"), fine.max(), "fine high")):
        if not _close(got, float(want), 1e-12):
            problems.append(f"envelope bracket {what}: {got!r}, closed form {float(want)!r}")

    coth1 = float(mpmath.coth(1))
    for row in tables["poincare.csv"]:
        if row["check"] == "bracket_contains_closed_form":
            if not (abs(float(row["oracle"]) - coth1) <= 1e-15 and float(row["bound"]) >= coth1):
                problems.append(f"poincare bracket at r_max={row['r_max']} misses coth 1")

    if value("thresholds", "exact_value_p2", "2|0") != 1.0:
        problems.append("thresholds exact_value_p2 is not exactly 1")
    for row in tables["thresholds.csv"]:
        if row["threshold"]:
            want = refs.sigma_threshold_heat(float(row["p"]), 1.0, float(row["eta"]))
            if not _close(float(row["threshold"]), want, 1e-14):
                problems.append(f"thresholds p={row['p']} eta={row['eta']}: threshold "
                                f"{row['threshold']}, closed form {want!r}")

    slope = float(mpmath.log(refs.mp_riesz_integral(15.5) / refs.mp_riesz_integral(14.5)))
    if not abs(value("riesz", "asymptotic_log_slope") - slope) <= 1e-9:
        problems.append(f"riesz asymptotic slope vs mpmath {slope!r}")
    for suite, check, ok in (
            ("riesz", "split_recombines", lambda v: v <= 1e-10),
            ("stnorm", "poisson_square_relation", lambda v: v <= 1e-12),
            ("theorem2", "slack_equality_case", lambda v: v == 0.0),
            ("theorem2", "slack_nonnegative", lambda v: v >= -1e-12),
            ("liyau", "gap_nonnegative", lambda v: v >= 0.0)):
        if not ok(value(suite, check)):
            problems.append(f"{suite} {check}: {value(suite, check)!r} breaks its identity")
    for row in tables["grigoryan.csv"]:
        if row["check"] == "pointwise_no_constant" and not float(row["oracle"]) <= 1.0:
            problems.append(f"grigoryan: constant-free bound exceeded at i={row['i']}")
    return problems


def check_riesz_direct() -> list[str]:
    """heatlab's Riesz time integral at one r against mpmath."""
    from heatlab import lpthresholds

    got = lpthresholds.riesz_kernel_decay("h3", RIESZ_R).value
    want = float(refs.mp_riesz_integral(RIESZ_R))
    if not _close(got, want, 1e-9):
        return [f"riesz_kernel_decay(h3, {RIESZ_R}) = {got!r}, mpmath {want!r}"]
    return []
