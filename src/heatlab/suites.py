"""Named verification suites over parameter grids.

Each suite exercises one acceptance-grade property of the bound layer
against the exact oracles and returns its check rows; ``@suite`` times it,
wraps the rows in a report and registers it.  The CLI and the acceptance
tests share these implementations.  All suites are deterministic for a
fixed seed.
"""

from __future__ import annotations

import math

import numpy as np

from . import envelope, lattice, lpthresholds, oracle
from .lattice import GroupSpec
from .lpthresholds import ThresholdInput, Verdict
from .registry import (  # noqa: F401  (CRITERION_SUITES, SUITE_READS re-exported)
    CRITERION_SUITES, SUITE_READS, SUITES, CheckRow, SuiteConfig, SuiteReport, suite)
from .rootspace import AlphaTriple, build_real_hyperbolic

COTH_1 = 1.0 / math.tanh(1.0)


def _tol_row(check: str, params: dict, err: float, tol: float) -> CheckRow:
    return CheckRow(check=check, params=params, oracle=float(err), bound=float(tol),
                    ratio=float(err / tol) if tol > 0 else float(err),
                    passed=bool(err < tol))


def _stability_row(check: str, params: dict, fit: envelope.TwoGridFit,
                   factor: float = 1.05) -> CheckRow:
    return CheckRow(check=check, params=params, oracle=fit.c_fine, bound=fit.c_coarse,
                    ratio=fit.stability, passed=bool(fit.stable_within(factor)))


# ---------------------------------------------------------------------------


@suite("recurrence", 1)
def suite_recurrence(cfg: SuiteConfig) -> list[CheckRow]:
    """Rate-recurrence limits: grid columns at step 200 against the closed
    forms, entries in [0,1], monotone nondecreasing in the step index."""
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


@suite("envelope", 2)
def suite_envelope(cfg: SuiteConfig) -> list[CheckRow]:
    """Sharp-envelope bracketing on the 3-space: the kernel/envelope ratio
    range must be stable under grid refinement."""
    rows = []
    model = build_real_hyperbolic(3)

    def bracket(nt, nr):
        grid_t, grid_r = envelope.grid_points((0.01, 30.0), (0.0, 20.0), nt, nr)
        log_ratio = (model.log_kernel(grid_t, grid_r)
                     - envelope.sharp_envelope_log(model, grid_t, grid_r))
        return math.exp(float(np.min(log_ratio))), math.exp(float(np.max(log_ratio)))

    lo_c, hi_c = bracket(60, 60)
    lo_f, hi_f = bracket(240, 240)
    rows.append(CheckRow("bracket_low_stable", {"grid": "60->240"},
                         lo_f, lo_c, lo_f / lo_c, abs(lo_f / lo_c - 1.0) < 0.10))
    rows.append(CheckRow("bracket_high_stable", {"grid": "60->240"},
                         hi_f, hi_c, hi_f / hi_c, abs(hi_f / hi_c - 1.0) < 0.10))
    rows.append(CheckRow("bracket_window", {"low": lo_c, "high": hi_c},
                         lo_c, hi_c, hi_c / lo_c, 0.0 < lo_c < hi_c < math.inf))
    return rows


@suite("theorem1", 3, reads=("epsilon", "orders"))
def suite_theorem1(cfg: SuiteConfig) -> list[CheckRow]:
    """Two-grid fitted-constant domination of the symbolic time derivatives
    by the main decay shape, with a finite-difference cross-check."""
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


@suite("gradient", 4, reads=("epsilon",))
def suite_gradient(cfg: SuiteConfig) -> list[CheckRow]:
    """Two-grid domination of the radial gradient by the gradient shape."""
    rows = []
    model = build_real_hyperbolic(3)
    eps = cfg.epsilon
    coarse = envelope.grid_points((0.05, 20.0), (0.1, 20.0), 30, 30)
    fine = envelope.grid_points((0.05, 20.0), (0.1, 20.0), 120, 120)
    fit = envelope.two_grid_fit(
        model.radial_log_abs,
        lambda t, r: envelope.gradient_rhs_log(model, t, r, eps),
        coarse, fine,
    )
    rows.append(_stability_row("two_grid_stability", {"epsilon": eps}, fit))
    return rows


@suite("liyau", 4)
def suite_liyau(cfg: SuiteConfig) -> list[CheckRow]:
    """Curvature gradient-inequality gap on the 3-space grid, plus the
    auxiliary (1+t)/t comparison for its right-hand side."""
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


@suite("grigoryan", 5)
def suite_grigoryan(cfg: SuiteConfig) -> list[CheckRow]:
    """Constant-free derivative bound from the exact 3-space diagonal, plus
    the analytic lower shape for the iterated integrals."""
    rows = []
    t_grid = np.geomspace(0.01, 30.0, 30)
    r_grid = np.linspace(0.0, 20.0, 30)
    t_col = t_grid[:, None]
    for i in (1, 2):
        lhs = np.abs(np.exp(oracle.h3_log(t_col, r_grid))
                     * oracle.h3_dt_prefactor(t_col, r_grid, i))
        worst_ratio = float(np.max(np.max(lhs, axis=1)
                                   / envelope.grigoryan_bound_exact_h3(i, t_grid)))
        rows.append(CheckRow("pointwise_no_constant", {"i": i},
                             worst_ratio, 1.0, worst_ratio, worst_ratio <= 1.0))
    model = build_real_hyperbolic(3)
    for i in (1, 2):
        t_own = np.geomspace(0.01, 30.0, 60)
        fi = envelope.h3_exact_diagonal_f_iterated(i, t_own)
        shape = envelope.grigoryan_f_lower_shape(model, i, t_own)
        min_ratio = float(np.min(fi / shape))
        rows.append(CheckRow("f_iter_lower_shape", {"i": i},
                             min_ratio, 1.0, min_ratio, min_ratio >= 1.0))
    return rows


def _axis_group(dim: int, translation: float) -> GroupSpec:
    """Cyclic group of the hyperbolic translation along the vertical axis."""
    half = math.exp(translation / 2.0)
    mat = np.array([[half, 0.0], [0.0, 1.0 / half]])
    return GroupSpec(dim=dim, generators=(mat,), family="cyclic")


@suite("poincare", 6)
def suite_poincare(cfg: SuiteConfig) -> list[CheckRow]:
    """Series brackets around the closed form coth(1) for the length-2 axis
    group, nesting under range doubling, and the near-zero growth exponent.

    The scenario is fixed: the closed-form target is specific to translation
    length 2 with both basepoints on the axis."""
    rows = []
    group = _axis_group(2, 2.0)
    x = (0.0, 1.0)
    exponent_orbit = group.orbit(x, x, 60.0)
    est = lattice.critical_exponent(exponent_orbit)
    rows.append(CheckRow("critical_exponent_small",
                         {"r_max": 60.0, "points": len(exponent_orbit)},
                         est.estimate, 0.05, est.estimate / 0.05,
                         (not est.insufficient_data) and est.estimate < 0.05))
    delta_used = max(est.conservative, 1e-6)
    previous: tuple[float, float] | None = None
    for r_max in (10.0, 20.0, 40.0):
        orbit = group.orbit(x, x, r_max)
        ev = lattice.poincare_series(orbit, s=1.0, delta=delta_used)
        lo, hi = ev.bracket
        rows.append(CheckRow("bracket_contains_closed_form",
                             {"r_max": r_max, "n_terms": ev.n_terms},
                             COTH_1, hi, (COTH_1 - lo) / max(hi - lo, 1e-300),
                             lo <= COTH_1 <= hi))
        if previous is not None:
            plo, phi = previous
            nested = (lo >= plo - 1e-10) and (hi <= phi + 1e-10)
            rows.append(CheckRow("brackets_nested", {"r_max": r_max},
                                 hi - lo, phi - plo, (hi - lo) / max(phi - plo, 1e-300),
                                 nested))
        previous = (lo, hi)
    return rows


def _quotient_setup(cfg: SuiteConfig, translation: float = 18.0):
    group = cfg.group or _axis_group(3, translation)
    x = (0.0 + 0.0j, 1.0)
    est_orbit = group.orbit(x, x, 60.0)
    est = lattice.critical_exponent(est_orbit)
    delta = max(est.conservative, 1e-6)
    # keep the separation sweep inside the injectivity region: past half the
    # translation length d_M folds over and the fitted-ratio surface creases
    d_hi = 8.0
    if group.family == "cyclic":
        d_hi = min(d_hi, 0.45 * lattice.translation_length(group.generators[0]))
    return group, x, delta, d_hi


@suite("quotient", 7, reads=("epsilon", "group"))
def suite_quotient(cfg: SuiteConfig) -> list[CheckRow]:
    """Two-grid domination of the orbit-summed derivative by the quotient
    decay shape times the series factor, for two admissible triples."""
    rows = []
    model = build_real_hyperbolic(3)
    group, x, delta, d_hi = _quotient_setup(cfg)
    eps = cfg.epsilon
    r_cut = 80.0
    triples = (AlphaTriple(0.0, model.rho_m, 0.0),
               AlphaTriple(0.5, model.rho_m + 0.2, 0.5))

    # best[n, i, triple]: the largest log(measured / bound) on the n x n grid
    best = {}
    for n in (20, 40):
        t_grid = np.geomspace(0.1, 10.0, n)
        for d in np.linspace(0.0, d_hi, n).tolist():
            orbit = group.orbit(x, (0.0 + 0.0j, math.exp(d)), r_cut)
            log_series = math.log(lattice.poincare_series(orbit, s=eps + delta,
                                                          delta=delta).partial_sum)
            for i in (0, 1):
                ev = oracle.quotient_kernel(orbit, "h3", t_grid, None, None, i, r_cut,
                                            delta=delta)
                measured = [math.log(max(abs(v), 1e-300)) for v in ev.value.tolist()]
                for triple in triples:
                    log_bound = lattice.theorem2_rhs_log(
                        model, delta, triple, i, t_grid, orbit.d_min, eps) + log_series
                    worst = max(m - b for m, b in zip(measured, log_bound.tolist()))
                    best[n, i, triple] = max(best.get((n, i, triple), -math.inf), worst)

    for i in (0, 1):
        for triple in triples:
            fit = envelope.TwoGridFit(c_coarse=math.exp(best[20, i, triple]),
                                      c_fine=math.exp(best[40, i, triple]))
            rows.append(_stability_row(
                "two_grid_stability",
                {"i": i, "a1": triple.a1, "a2": triple.a2, "a3": triple.a3, "delta": delta},
                fit))
    return rows


@suite("theorem2", 7, reads=("seed", "group"))
def suite_theorem2(cfg: SuiteConfig) -> list[CheckRow]:
    """Splitting-slack nonnegativity with its exact equality case, and
    regime-style domination of the orbit sum on the axis quotient."""
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
        orbit = group.orbit(x, y, 80.0)
        ev = oracle.quotient_kernel(orbit, "h3", t_grid, x, y, 0, 80.0, delta=delta)
        series = lattice.poincare_series(orbit, s=s_val, delta=delta)
        rhs = lattice.quotient_regime_rhs(model, delta, s_val, t_grid, orbit.d_min)
        for value, rhs_t in zip(ev.value.tolist(), rhs.tolist()):
            best = max(best, math.log(max(value, 1e-300)) - math.log(rhs_t * series.partial_sum))
    c_fit = math.exp(best)
    rows.append(CheckRow("regime1_domination", {"s": s_val, "delta": delta},
                         c_fit, math.inf, 0.0, math.isfinite(c_fit)))
    return rows


@suite("thresholds", 8)
def suite_thresholds(cfg: SuiteConfig) -> list[CheckRow]:
    """Chamber-integral verdicts on both sides of the closed-form threshold
    over a (p, eta) grid, plus the exact p=2, eta=0 value."""
    rows = []
    model = build_real_hyperbolic(3)
    rho = 1.0
    eps_scan = np.geomspace(1e-4, 0.1, 12)
    exact = ThresholdInput(p=2.0, rho_norm=rho, eta_norm=0.0)
    thr = lpthresholds.sigma_threshold_heat(exact)
    rows.append(CheckRow("exact_value_p2", {"p": 2.0, "eta": 0.0},
                         thr, 1.0, thr, thr == 1.0))
    for p in (1.5, 2.0, 4.0):
        for eta in (0.0, 0.3, 0.7):
            inp = ThresholdInput(p=p, rho_norm=rho, eta_norm=eta)
            threshold = lpthresholds.sigma_threshold_heat(inp)

            def verdicts(sigma):
                return [lpthresholds.heat_verdict(inp, sigma, float(e), model=model,
                                                  r_max=2000.0).verdict
                        for e in eps_scan]

            finite_any = Verdict.FINITE in verdicts(0.9 * threshold)
            divergent_all = all(v == Verdict.DIVERGENT for v in verdicts(1.1 * threshold))
            rows.append(CheckRow("finite_below_threshold",
                                 {"p": p, "eta": eta, "threshold": threshold},
                                 float(finite_any), 1.0, float(finite_any), finite_any))
            rows.append(CheckRow("divergent_above_threshold",
                                 {"p": p, "eta": eta, "threshold": threshold},
                                 float(divergent_all), 1.0, float(divergent_all),
                                 divergent_all))
    return rows


@suite("stnorm", 9, reads=("seed",))
def suite_stnorm(cfg: SuiteConfig) -> list[CheckRow]:
    """Square relation between the two thresholds on random inputs, and the
    existence of a decay certificate whenever the spectral gap is positive."""
    rows = []
    rng = np.random.default_rng(cfg.seed)
    worst = 0.0
    for _ in range(200):
        rho = rng.uniform(0.1, 3.0)
        inp = ThresholdInput(
            p=float(rng.uniform(1.01, 50.0)),
            rho_norm=float(rho),
            eta_norm=float(rng.uniform(0.0, 0.999 * rho)),
        )
        heat = lpthresholds.sigma_threshold_heat(inp)
        poisson = lpthresholds.sigma_threshold_poisson(inp)
        worst = max(worst, abs(poisson ** 2 - heat))
    rows.append(_tol_row("poisson_square_relation", {"samples": 200}, worst, 1e-12))
    model = build_real_hyperbolic(3)
    for p in (1.5, 2.0, 4.0):
        for eta in (0.0, 0.3, 0.7, 0.95):
            found, eps = lpthresholds.st_norm_certificate(model, eta, p)
            rows.append(CheckRow("decay_certificate",
                                 {"p": p, "eta": eta, "eps": eps if found else -1.0},
                                 float(found), 1.0, float(found), found))
    return rows


@suite("riesz", 10)
def suite_riesz(cfg: SuiteConfig) -> list[CheckRow]:
    """Finiteness of the gradient-kernel time integral, its asymptotic
    log-slope, and exact recombination of the split at t = 1."""
    rows = []
    r_grid = np.linspace(0.5, 15.0, 15)
    results = [lpthresholds.riesz_kernel_decay("h3", float(r)) for r in r_grid]
    all_finite = all(math.isfinite(res.value) and res.value > 0.0 for res in results)
    tails_small = all(res.tail_small_t + res.tail_large_t <= 1e-12 * res.value
                      for res in results)
    rows.append(CheckRow("finite_on_range", {"r_min": 0.5, "r_max": 15.0},
                         float(all_finite), 1.0, float(all_finite), all_finite))
    rows.append(CheckRow("tails_certified", {"rel": 1e-12},
                         float(tails_small), 1.0, float(tails_small), tails_small))
    v_lo = lpthresholds.riesz_kernel_decay("h3", 14.5)
    v_hi = lpthresholds.riesz_kernel_decay("h3", 15.5)
    slope = (math.log(v_hi.value) - math.log(v_lo.value)) / 1.0
    target = -2.0
    rows.append(CheckRow("asymptotic_log_slope", {"r": 15.0},
                         slope, target, slope / target,
                         abs(slope - target) <= 0.1 * abs(target)))
    r0 = 4.0
    res = lpthresholds.riesz_kernel_decay("h3", r0)
    # the same integral unsplit, on panels that do not share the edge at t = 1
    full = float(lpthresholds.riesz_time_integral(r0, (r0 * r0 / 3200.0, 750.0), panels=17)[0])
    recomb = abs(res.value_small_t + res.value_large_t - full) / full
    rows.append(_tol_row("split_recombines", {"r": r0}, recomb, 1e-10))
    return rows


def run_suite(cfg: SuiteConfig) -> SuiteReport:
    if cfg.name not in SUITES:
        raise KeyError(f"unknown suite {cfg.name!r}; known: {', '.join(sorted(SUITES))}")
    return SUITES[cfg.name](cfg)
