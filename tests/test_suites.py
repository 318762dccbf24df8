"""The quotient suite against the cached evaluation it replaced.

`cached_quotient_rows` evaluates every orbit once over the times of both
grids and reads each grid's values back from dictionaries keyed by d and t;
`suite_quotient` enumerates each orbit once per grid point instead.  The
rows must agree exactly, on the default group and on plane groups the
report never reaches.
"""

import math

import numpy as np
import pytest

from heatlab import envelope, lattice, oracle
from heatlab.lattice import parse_group
from heatlab.rootspace import AlphaTriple, build_real_hyperbolic
from heatlab.suites import SuiteConfig, _quotient_setup, _stability_row, run_suite


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
            orbit = group.orbit(x, (0.0 + 0.0j, math.exp(d)), r_cut)
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
