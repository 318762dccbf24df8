"""Suites against the evaluations they replaced.

`cached_quotient_rows` evaluates every orbit once over the times of both
grids, one `quotient_kernel` call per orbit and order, and reads each
grid's values back from dictionaries keyed by d and t; `suite_quotient`
enumerates each grid's orbits and sums them in one `quotient_kernels` call
per grid and order instead.  `theorem2_loop_rows` draws the slack samples
one at a time and sums each orbit alone; `suite_theorem2` draws them at
once and sums its orbits in one call.  The rows must agree exactly, on the
default group and on plane groups the report never reaches.  One report
makes a fixed, small number of orbit-sum and bound calls.

`theorem1`, `liyau` and `recurrence` evaluate their meshes in one array
pass; the `*_loop_rows` references call the scalar entry points once per
point, or once per lambda.  Their rows must agree exactly too.
"""

import math

import numpy as np
import pytest

from heatlab import cli, envelope, lattice, oracle
from heatlab.lattice import parse_group
from heatlab.rootspace import AlphaTriple, build_real_hyperbolic
from heatlab.registry import CheckRow
from heatlab.suites import SuiteConfig, _quotient_setup, _stability_row, _tol_row, run_suite


def cached_quotient_rows(cfg: SuiteConfig) -> list:
    rows = []
    model = build_real_hyperbolic(3)
    group, x, delta, d_hi = _quotient_setup(cfg)
    eps = cfg.epsilon
    r_cut = 80.0
    triples = (AlphaTriple(0.0, model.rho_m, 0.0),
               AlphaTriple(0.5, model.rho_m + 0.2, 0.5))
    orbit_cache = {}

    def orbit_and_series(d):
        if d not in orbit_cache:
            orbit = lattice.enumerate_orbit(group, x, (0.0 + 0.0j, math.exp(d)), r_cut)
            series = lattice.poincare_series(orbit, s=eps + delta, delta=delta)
            orbit_cache[d] = (orbit, series.partial_sum)
        return orbit_cache[d]

    grids = {n: (np.geomspace(0.1, 10.0, n), np.linspace(0.0, d_hi, n)) for n in (20, 40)}
    t_all = np.concatenate([t_grid for t_grid, _ in grids.values()])
    log_abs_cache = {}

    def measured_log_abs(i, d):
        if (i, d) not in log_abs_cache:
            orbit, _ = orbit_and_series(d)
            ev = oracle.quotient_kernel(orbit, "h3", t_all, None, None, i, r_cut, delta=delta)
            log_abs_cache[(i, d)] = {t: math.log(max(abs(v), 1e-300))
                                     for t, v in zip(t_all.tolist(), ev.value.tolist())}
        return log_abs_cache[(i, d)]

    def fit_on(i, triple, n):
        t_grid, d_grid = grids[n]
        best = -math.inf
        for d in d_grid.tolist():
            orbit, series = orbit_and_series(d)
            log_bound = lattice.theorem2_rhs_log(
                model, delta, triple, i, t_grid, orbit.d_min, eps) + math.log(series)
            measured = measured_log_abs(i, d)
            best = max(best, max(measured[t] - bound
                                 for t, bound in zip(t_grid.tolist(), log_bound.tolist())))
        return math.exp(best)

    for i in (0, 1):
        for triple in triples:
            fit = envelope.TwoGridFit(c_coarse=fit_on(i, triple, 20),
                                      c_fine=fit_on(i, triple, 40))
            rows.append(_stability_row(
                "two_grid_stability",
                {"i": i, "a1": triple.a1, "a2": triple.a2, "a3": triple.a3, "delta": delta},
                fit))
    return rows


GROUPS = {
    "default": None,
    "plane_cyclic": "[group]\ndim = 2\nfamily = cyclic\ngenerator = 2.0,0,0,0.5\n",
    "plane_schottky": "[group]\ndim = 2\nfamily = schottky\ngenerator = 2,3,1,2\n",
}


@pytest.mark.parametrize("epsilon", [0.1, 0.3])
@pytest.mark.parametrize("group", sorted(GROUPS))
def test_quotient_rows_equal_the_cached_evaluation(group, epsilon):
    text = GROUPS[group]
    cfg = SuiteConfig(name="quotient", epsilon=epsilon,
                      group=None if text is None else parse_group(text))
    rows = run_suite(cfg).rows
    assert len(rows) == 4
    assert rows == cached_quotient_rows(cfg)


def theorem2_loop_rows(cfg: SuiteConfig) -> list:
    rows = []
    model = build_real_hyperbolic(3)
    rng = np.random.default_rng(cfg.seed)
    worst = math.inf
    for _ in range(200):
        a1, a3 = rng.uniform(0.0, 1.0, size=2)
        lo = model.rho_m - model.rho_norm * math.sqrt(a1 * a3)
        hi = model.rho_m + model.rho_norm * math.sqrt(a1 * a3)
        a2 = rng.uniform(lo, min(hi, model.rho_norm + model.rho_m - 1e-9))
        triple = AlphaTriple(float(a1), float(a2), float(a3))
        t = rng.uniform(0.05, 20.0)
        d = rng.uniform(0.0, 15.0)
        worst = min(worst, float(lattice.splitting_slack(model, triple, t, d)))
    rows.append(CheckRow("slack_nonnegative", {"samples": 200},
                         worst, 0.0, worst, worst >= -1e-12))
    eq = float(lattice.splitting_slack(model, AlphaTriple(0.0, model.rho_m, 0.0), 1.7, 3.1))
    rows.append(CheckRow("slack_equality_case", {"a2": model.rho_m},
                         eq, 0.0, eq, eq == 0.0))

    group, x, delta, d_hi = _quotient_setup(cfg)
    s_val = 0.5
    t_grid = np.geomspace(0.1, 10.0, 12)
    best = -math.inf
    for d in np.linspace(0.0, d_hi, 12):
        y = (0.0 + 0.0j, math.exp(float(d)))
        orbit = lattice.enumerate_orbit(group, x, y, 80.0)
        ev = oracle.quotient_kernel(orbit, "h3", t_grid, None, None, 0, 80.0, delta=delta)
        series = lattice.poincare_series(orbit, s=s_val, delta=delta)
        rhs = lattice.quotient_regime_rhs(model, delta, s_val, t_grid, orbit.d_min)
        for value, rhs_t in zip(ev.value.tolist(), rhs.tolist()):
            best = max(best, math.log(max(value, 1e-300)) - math.log(rhs_t * series.partial_sum))
    c_fit = math.exp(best)
    rows.append(CheckRow("regime1_domination", {"s": s_val, "delta": delta},
                         c_fit, math.inf, 0.0, math.isfinite(c_fit)))
    return rows


@pytest.mark.parametrize("seed", [0, 7, 123])
@pytest.mark.parametrize("group", sorted(GROUPS))
def test_theorem2_rows_equal_the_loop(group, seed):
    text = GROUPS[group]
    cfg = SuiteConfig(name="theorem2", seed=seed,
                      group=None if text is None else parse_group(text))
    rows = run_suite(cfg).rows
    assert len(rows) == 3
    assert rows == theorem2_loop_rows(cfg)


def test_a_report_sums_its_orbits_in_few_calls(tmp_path, monkeypatch):
    # quotient: one orbit sum per (grid, order) and one bound per (grid,
    # order, triple); theorem2: one orbit sum.  Enumerations: poincare's 4
    # orbits, then an exponent orbit and one call per grid in quotient and
    # theorem2.  A per-orbit loop would make 132 orbit-sum, 240 bound and 78
    # enumeration calls.  The one-orbit views call the batch entry points, so
    # only those are counted; counting the views too would count a call twice.
    calls = {"orbit sums": 0, "bounds": 0, "enumerations": 0}

    def counted(kind, function):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(oracle, "quotient_kernels",
                        counted("orbit sums", oracle.quotient_kernels))
    monkeypatch.setattr(lattice, "theorem2_rhs_log",
                        counted("bounds", lattice.theorem2_rhs_log))
    monkeypatch.setattr(lattice, "enumerate_orbits",
                        counted("enumerations", lattice.enumerate_orbits))
    assert cli.main(["report", "--out", str(tmp_path)]) in (0, 1)  # 1: rows failing by design
    assert (tmp_path / "quotient.csv").exists() and (tmp_path / "theorem2.csv").exists()
    assert 0 < calls["orbit sums"] <= 5
    assert 0 < calls["bounds"] <= 8
    assert 0 < calls["enumerations"] <= 10


def theorem1_loop_rows(cfg: SuiteConfig) -> list:
    rows = []
    model = build_real_hyperbolic(3)
    eps = cfg.epsilon
    coarse = envelope.grid_points((0.01, 30.0), (0.0, 20.0), 30, 30)
    fine = envelope.grid_points((0.01, 30.0), (0.0, 20.0), 120, 120)
    for i in cfg.orders:
        fit = envelope.two_grid_fit(
            lambda t, r, i=i: model.dt_log_abs(t, r, i)[0],
            lambda t, r, i=i: envelope.theorem1_rhs(model, i, t, r, eps),
            coarse, fine,
        )
        rows.append(_stability_row("two_grid_stability", {"i": i, "epsilon": eps}, fit))

        worst = 0.0
        for t in np.geomspace(0.05, 20.0, 8):
            for r in np.linspace(0.2, 10.0, 8):
                sym = float(np.exp(oracle.h3_log(t, r)) * oracle.h3_dt_prefactor(t, r, i))
                fd = oracle.fd_time_derivative(
                    lambda tt, rr: float(np.exp(oracle.h3_log(tt, rr))), i, t, r)
                if not fd.precision_ok:
                    continue
                worst = max(worst, abs(sym - fd.value) / max(abs(sym), 1e-300))
        rows.append(_tol_row("fd_cross_check", {"i": i}, worst, 1e-7))
    return rows


def liyau_loop_rows() -> list:
    rows = []
    model = build_real_hyperbolic(3)
    gamma = 2.0
    t_grid = np.geomspace(0.1, 10.0, 30)
    r_grid = np.linspace(0.1, 10.0, 30)
    min_gap = math.inf
    for t in t_grid:
        for r in r_grid:
            min_gap = min(min_gap, envelope.li_yau_gap(model, float(t), float(r), gamma))
    rows.append(CheckRow("gap_nonnegative", {"gamma": gamma, "curv_sq": model.n - 1.0},
                         min_gap, 0.0, min_gap, min_gap >= 0.0))
    rhs_vals = envelope.li_yau_rhs(model.n, model.n - 1.0, t_grid, gamma)
    shape_vals = (1.0 + t_grid) / t_grid
    c_fit = float(np.max(rhs_vals / shape_vals))
    t_fine = np.geomspace(0.1, 10.0, 240)
    covered = float(np.max(envelope.li_yau_rhs(model.n, model.n - 1.0, t_fine, gamma)
                           / ((1.0 + t_fine) / t_fine)))
    rows.append(CheckRow("rhs_shape_fit", {"gamma": gamma}, covered, 1.05 * c_fit,
                         covered / c_fit, covered <= 1.05 * c_fit))
    return rows


def recurrence_loop_rows() -> list:
    rows = []
    i_max, l_max = 10, 200
    for lam in (0.25, 0.5, 0.75, 0.9):
        grid = envelope.recurrence_grid(lam, i_max, l_max)
        limits = envelope.gamma_limit_from_lambda(lam, np.arange(i_max + 1))
        gamma_err = float(np.max(np.abs(grid.gamma[-1] - limits)))
        beta_err = float(np.max(np.abs(grid.beta[-1] - 1.0)))
        rows.append(_tol_row("gamma_vs_limit", {"lambda": lam}, gamma_err, 1e-9))
        rows.append(_tol_row("beta_vs_one", {"lambda": lam}, beta_err, 1e-9))
        range_violation = float(max(np.max(grid.gamma) - 1.0, -np.min(grid.gamma),
                                    np.max(grid.beta) - 1.0, -np.min(grid.beta), 0.0))
        mono_violation = float(max(np.max(grid.gamma[:-1] - grid.gamma[1:]),
                                   np.max(grid.beta[:-1] - grid.beta[1:]), 0.0))
        rows.append(CheckRow("cells_in_unit_interval", {"lambda": lam},
                             range_violation, 0.0, range_violation,
                             range_violation <= 0.0))
        rows.append(CheckRow("monotone_in_step", {"lambda": lam},
                             mono_violation, 0.0, mono_violation,
                             mono_violation <= 0.0))
    return rows


@pytest.mark.parametrize("epsilon", [0.1, 0.3])
@pytest.mark.parametrize("orders", [(0,), (1, 2)], ids=["0", "1-2"])
def test_theorem1_rows_equal_the_point_loop(orders, epsilon):
    cfg = SuiteConfig(name="theorem1", epsilon=epsilon, orders=orders)
    rows = run_suite(cfg).rows
    assert len(rows) == 2 * len(orders)
    assert rows == theorem1_loop_rows(cfg)


def test_liyau_rows_equal_the_point_loop():
    assert run_suite(SuiteConfig(name="liyau")).rows == liyau_loop_rows()


def test_recurrence_rows_equal_the_lambda_loop():
    rows = run_suite(SuiteConfig(name="recurrence")).rows
    assert len(rows) == 16
    assert rows == recurrence_loop_rows()
