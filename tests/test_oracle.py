import dataclasses
import math
import sys

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from heatlab import envelope, lattice, oracle, rootspace
from heatlab.rootspace import SpaceModel, build_real_hyperbolic
from heatlab.suites import SuiteConfig, run_suite


def h3_value(t, r, order=0):
    return float(np.exp(oracle.h3_log(t, r)) * oracle.h3_dt_prefactor(t, r, order))


class TestH3Kernel:
    def test_diagonal_value(self):
        expected = (4.0 * math.pi) ** -1.5 * math.exp(-1.0)
        assert h3_value(1.0, 0.0) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(8.26e-3, rel=1e-2)

    def test_small_r_prefactor_limit(self):
        # r/sinh r -> 1: the kernel at tiny r matches the r=0 value
        v0 = h3_value(1.0, 0.0)
        v1 = h3_value(1.0, 1e-9)
        assert v1 == pytest.approx(v0, rel=1e-12)

    def test_first_derivative_matches_fd(self):
        sym = h3_value(1.0, 2.0, order=1)
        fd = oracle.fd_time_derivative(lambda t, r: h3_value(t, r), 1, 1.0, 2.0)
        assert fd.precision_ok
        assert sym == pytest.approx(fd.value, rel=1e-8)

    def test_second_derivative_matches_fd(self):
        for t, r in [(0.7, 1.3), (2.5, 0.4), (5.0, 6.0)]:
            sym = h3_value(t, r, order=2)
            fd = oracle.fd_time_derivative(lambda tt, rr: h3_value(tt, rr), 2, t, r)
            if fd.precision_ok:
                assert sym == pytest.approx(fd.value, rel=1e-7)

    def test_positive_and_radially_decreasing(self):
        # compare in log space so extreme Gaussian regimes never underflow
        ts = np.geomspace(0.1, 10.0, 12)
        rs = np.linspace(0.5, 20.0, 12)
        for t in ts:
            log_values = oracle.h3_log(t, rs)
            assert np.all(np.isfinite(log_values))
            assert np.all(np.diff(log_values) < 0.0)

    def test_radial_derivative_sign_negative(self):
        for t in np.geomspace(0.1, 10.0, 8):
            for r in np.linspace(0.5, 20.0, 8):
                step = 1e-6 * max(1.0, r)
                assert oracle.h3_log(t, r + step) < oracle.h3_log(t, r - step)

    def test_domain_rejections(self):
        with pytest.raises(ValueError):
            oracle.h3_dt_log_abs(-1.0, 1.0, 0)
        with pytest.raises(ValueError):
            oracle.h3_dt_log_abs(1.0, -1.0, 0)
        with pytest.raises(ValueError):
            oracle.h3_dt_log_abs(1.0, 1.0, 3)

    @pytest.mark.parametrize("t, r, match", [
        (1.0, -1.0, "distance"), (1.0, math.nan, "distance"), (1.0, math.inf, "distance"),
        (math.nan, 1.0, "time"), (0.0, 1.0, "time"), (-1.0, 1.0, "time"), (math.inf, 1.0, "time"),
        (np.array([[0.5], [1.0]]), np.array([0.0, 2.0, -0.5]), "distance"),
        (np.array([[0.5], [0.0]]), np.array([0.0, 2.0]), "time"),
    ], ids=["negative_r", "nan_r", "inf_r", "nan_t", "zero_t", "negative_t", "inf_t",
            "grid_negative_r", "grid_zero_t"])
    def test_h3_log_checks_its_domain(self, t, r, match):
        # like h3_dt_log_abs: not a value, a nan or an inf with a RuntimeWarning
        with pytest.raises(ValueError, match=match):
            oracle.h3_log(t, r)

    def test_total_mass(self):
        # integral of h_t over the space: 4 pi sinh^2(r) volume element
        for t in (0.5, 1.0, 2.0):
            mass, _ = quad(
                lambda r: h3_value(t, r) * 4.0 * math.pi * math.sinh(r) ** 2,
                0.0, 80.0, limit=300, epsabs=1e-12, epsrel=1e-12,
            )
            assert mass == pytest.approx(1.0, abs=1e-8)

    def test_heat_equation_residual(self):
        # dt h equals the radial Laplacian (d_rr + 2 coth r d_r) h, checked
        # with centered differences in r against the symbolic time derivative
        for t in np.linspace(0.5, 5.0, 6):
            for r in np.linspace(0.5, 5.0, 6):
                h = 1e-4 * max(1.0, r)
                f = lambda rr: h3_value(t, rr)
                d1 = (f(r + h) - f(r - h)) / (2.0 * h)
                d1b = (f(r + h / 2) - f(r - h / 2)) / h
                d1 = (4.0 * d1b - d1) / 3.0
                d2 = (f(r + h) - 2.0 * f(r) + f(r - h)) / h ** 2
                d2b = (f(r + h / 2) - 2.0 * f(r) + f(r - h / 2)) / (h / 2) ** 2
                d2 = (4.0 * d2b - d2) / 3.0
                laplacian = d2 + 2.0 / math.tanh(r) * d1
                dt = h3_value(t, r, order=1)
                assert dt == pytest.approx(laplacian, rel=1e-5)


class TestH2Kernel:
    def test_local_euclidean_limit(self):
        for t in (1e-3, 1e-4):
            value = math.exp(oracle.h2_log(t, 0.0))
            assert value * 4.0 * math.pi * t == pytest.approx(1.0, abs=5e-4 / t ** 0)
        assert math.exp(oracle.h2_log(1e-4, 0.0)) * 4.0 * math.pi * 1e-4 == pytest.approx(1.0, abs=1e-4)

    def test_total_mass(self):
        for t in (0.5, 1.0):
            mass, _ = quad(
                lambda r: math.exp(oracle.h2_log(t, r)) * 2.0 * math.pi * math.sinh(r),
                1e-9, 60.0, limit=300, epsabs=1e-12, epsrel=1e-11,
            )
            assert mass == pytest.approx(1.0, abs=1e-7)

    @pytest.mark.slow
    def test_semigroup_identity(self):
        # convolution of h_t with itself against h_{2t}, polar coordinates
        t, d0 = 0.3, 0.8
        r_grid = np.linspace(0.0, 9.0, 1200)
        spline = CubicSpline(r_grid, [oracle.h2_log(t, float(r)) for r in r_grid])
        nodes, weights = np.polynomial.legendre.leggauss(80)
        theta = np.pi * (nodes + 1.0)
        w = np.pi * weights

        def ring(s: float) -> float:
            if s <= 0.0:
                return 0.0
            coshd = np.cosh(s) * np.cosh(d0) - np.sinh(s) * np.sinh(d0) * np.cos(theta)
            dzy = np.arccosh(np.maximum(coshd, 1.0))
            return float(np.sum(np.exp(spline(dzy)) * w)) * math.exp(spline(s)) * math.sinh(s)

        value, _ = quad(ring, 0.0, 8.0, limit=200, epsabs=1e-12, epsrel=1e-9)
        target = math.exp(oracle.h2_log(2.0 * t, d0))
        assert value == pytest.approx(target, rel=1e-6)

    def test_below_polynomial_gaussian_upper(self):
        # fitted-constant comparison against the standard plane upper envelope
        # t^{-1} (1+t)^{-1/2} (1+r)^{1/2} exp(-t/4 - r/2 - r^2/(4t))
        best = -math.inf
        for t in np.geomspace(0.05, 10.0, 12):
            for r in np.linspace(0.0, 12.0, 12):
                log_upper = (-math.log(t) - 0.5 * math.log1p(t) + 0.5 * math.log1p(r)
                             - (t / 4.0 + r / 2.0 + r * r / (4.0 * t)))
                best = max(best, oracle.h2_log(t, float(r)) - log_upper)
        assert math.isfinite(best)
        assert best < 2.0  # constant stays modest on the sweep

    def test_rejects_bad_domain(self):
        with pytest.raises(ValueError):
            oracle.h2_log(0.0, 1.0)
        with pytest.raises(ValueError):
            oracle.h2_log(1.0, -0.5)


def plane_quad_log(t: float, r: float) -> float:
    """log h2 by adaptive QUADPACK: the scaled integrand in v = s - r times
    the v^{-1/2} endpoint weight (QAWS), cut where the phase reaches 80."""
    def w(v):
        half = v / 2.0
        if r + half == 0.0:
            return 0.0  # the limit at r = v = 0
        ratio = 1.0 if half < 1e-8 else math.sqrt(half / math.sinh(half))
        return (r + v) * math.exp(-v * (2.0 * r + v) / (4.0 * t)) * ratio / math.sqrt(
            math.sinh(r + half))

    v_max = -r + math.sqrt(r * r + 320.0 * t)
    value, _ = quad(w, 0.0, v_max, weight="alg", wvar=(-0.5, 0.0), epsabs=0.0,
                    epsrel=1e-13, limit=400)
    return (0.5 * math.log(2.0) - 1.5 * math.log(4.0 * math.pi * t) - t / 4.0
            - r * r / (4.0 * t) + math.log(value))


def mp_plane_kernel(t, r):
    """h2(t, r) by mpmath tanh-sinh quadrature in u (s = r + u^2), with
    cuts at the branch-point scale sqrt(2r)/2 and at a quarter of the range."""
    t, r = mpmath.mpf(t), mpmath.mpf(r)

    def f(u):
        s = r + u * u
        den = 2 * mpmath.sinh((s + r) / 2) * mpmath.sinh(u * u / 2)  # cosh s - cosh r
        return 2 * u * s * mpmath.exp(-(s * s - r * r) / (4 * t)) / mpmath.sqrt(den)

    u_max = mpmath.sqrt(mpmath.sqrt(r * r + 400 * t) - r)  # phase 100 at the end
    cuts = sorted({mpmath.mpf(0), mpmath.sqrt(2 * r) / 2, u_max / 4, u_max})
    return (mpmath.sqrt(2) * (4 * mpmath.pi * t) ** mpmath.mpf(-1.5)
            * mpmath.exp(-t / 4 - r * r / (4 * t)) * mpmath.quad(f, cuts))


def plane_value(t, r):
    return math.exp(oracle.h2_log(t, r))


def log_tolerance(t: float, r: float) -> float:
    # log h carries the rounding of r^2/(4t), up to 9e5 here
    return 1e-11 + 4.0 * float(np.spacing(r * r / (4.0 * t)))


def coarse_rule(rule, n: int = 8):
    """`rule` with its certifying 32-node rule replaced by one n-node panel."""
    x, w_fine, _ = rule
    xs, ws = np.polynomial.legendre.leggauss(n)
    return np.concatenate([x[:w_fine.size], (xs + 1.0) / 2.0]), w_fine, ws / 2.0


class TestH2FixedNodeRule:
    # the corners of _tail_envelope_constant's grid, r^2/4t = 700, and small
    # r > 0, where the rule runs on graded panels
    REGIMES = [(1e-3, 0.0), (1e-3, 60.0), (60.0, 0.0), (60.0, 60.0),
               (0.05, math.sqrt(700.0 * 0.2)), (1e-3, 1.0), (0.5, 1e-3), (1.0, 1e-9),
               (30.0, 0.1)]

    @pytest.mark.parametrize("t, r", REGIMES)
    def test_log_matches_quad_and_mpmath(self, t, r):
        value = oracle.h2_log(t, r)
        assert value == pytest.approx(plane_quad_log(t, r), abs=log_tolerance(t, r))
        with mpmath.workdps(20):
            reference = float(mpmath.log(mp_plane_kernel(t, r)))
        assert value == pytest.approx(reference, abs=log_tolerance(t, r))

    @pytest.mark.slow
    @pytest.mark.parametrize("t, r", [(0.05, 1.0), (1.0, 2.0), (5.0, 6.0), (30.0, 15.0),
                                      (0.5, 1e-3)])
    def test_derivatives_match_mpmath_diff(self, t, r):
        with mpmath.workdps(15):
            dt = {order: float(mpmath.diff(lambda tt: mp_plane_kernel(tt, r), t, order))
                  for order in (1, 2)}
            dr = float(mpmath.diff(lambda rr: mp_plane_kernel(t, rr), r, 1))
        for order in (1, 2):
            log_abs, sign = oracle.h2_dt_log_abs(t, r, order)
            assert sign * math.exp(log_abs) == pytest.approx(dt[order], rel=1e-10)
        assert oracle.radial_gradient("h2", t, r) == pytest.approx(abs(dr), rel=1e-10)

    def test_derivatives_match_richardson(self):
        checked = 0
        for t in np.geomspace(0.05, 20.0, 5):
            for r in np.linspace(0.2, 10.0, 5):
                t, r = float(t), float(r)
                for order in (1, 2):
                    fd = oracle.fd_time_derivative(plane_value, order, t, r)
                    if fd.precision_ok:
                        log_abs, sign = oracle.h2_dt_log_abs(t, r, order)
                        assert sign * math.exp(log_abs) == pytest.approx(fd.value, rel=1e-5)
                        checked += 1
                h = 1e-5 * max(1.0, r)
                d0 = (plane_value(t, r + h) - plane_value(t, r - h)) / (2.0 * h)
                d1 = (plane_value(t, r + h / 2) - plane_value(t, r - h / 2)) / h
                fd_r = abs((4.0 * d1 - d0) / 3.0)
                assert oracle.radial_gradient("h2", t, r) == pytest.approx(fd_r, rel=1e-6)
        assert checked >= 40

    def test_order_zero_is_h2_log(self):
        t, r = np.geomspace(0.01, 30.0, 6), np.linspace(0.0, 20.0, 6)
        log_abs, sign = oracle.h2_dt_log_abs(t, r, 0)
        assert np.array_equal(log_abs, oracle.h2_log(t, r)) and np.all(sign == 1.0)

    def test_array_calls_bit_identical_to_scalar_calls(self):
        # three blocks of the pass, a fifth of the points on graded panels
        rng = np.random.default_rng(5)
        n = 2 * oracle._H2_BLOCK + 37
        t = np.exp(rng.uniform(math.log(1e-3), math.log(60.0), n))
        r = np.where(rng.random(n) < 0.2, rng.uniform(0.0, 0.01, n), rng.uniform(0.0, 60.0, n))
        batch = oracle.h2_log(t, r)
        for k in range(n):
            one = oracle.h2_log(float(t[k]), float(r[k]))
            assert isinstance(one, float) and same_bits(one, batch[k])
        picks = rng.choice(n, 150, replace=False)
        for order in (0, 1, 2):
            log_abs, sign = oracle.h2_dt_log_abs(t, r, order)
            for k in picks:
                one, one_sign = oracle.h2_dt_log_abs(float(t[k]), float(r[k]), order)
                assert isinstance(one, float) and isinstance(one_sign, float)
                assert same_bits(one, log_abs[k]) and one_sign == sign[k]

    def test_arguments_broadcast(self):
        t, r = np.array([0.1, 1.0, 10.0]), np.array([0.0, 0.5, 2.0, 8.0])
        grid = oracle.h2_log(t[:, None], r)
        assert grid.shape == (3, 4)
        assert same_bits(grid[2, 1], oracle.h2_log(10.0, 0.5))
        log_abs, sign = oracle.h2_dt_log_abs(t[:, None], r, 2)
        assert log_abs.shape == sign.shape == (3, 4)

    @pytest.mark.parametrize("rule, t, r", [("_GL_PLAIN", 0.01, 3.0),
                                            ("_GL_GRADED", 0.5, 1e-3)])
    def test_disagreeing_certificate_rule_raises(self, monkeypatch, rule, t, r):
        monkeypatch.setattr(oracle, rule, coarse_rule(getattr(oracle, rule)))
        with pytest.raises(oracle.QuadratureError, match=f"t={t!r}, r={r!r}"):
            oracle.h2_log(t, r)
        with pytest.raises(oracle.QuadratureError, match=f"t={t!r}"):
            oracle.h2_dt_log_abs(np.array([t]), r, 1)
        with pytest.raises(oracle.QuadratureError):
            oracle.radial_gradient("h2", t, r)

    def test_one_panel_is_refused_where_the_branch_points_are_near(self, monkeypatch):
        # at r = 1e-3 the 32-node rule on one panel disagrees by about 2e-7
        monkeypatch.setattr(oracle, "_H2_GRADE_BELOW", 0.0)
        with pytest.raises(oracle.QuadratureError, match="t=0.5, r=0.001"):
            oracle.h2_log(0.5, 1e-3)

    def test_domain_errors(self):
        for call in (lambda: oracle.h2_dt_log_abs(0.0, 1.0, 1),
                     lambda: oracle.h2_dt_log_abs(1.0, -0.5, 1),
                     lambda: oracle.h2_dt_log_abs(1.0, 1.0, 3),
                     lambda: oracle.h2_log(np.array([1.0, -1.0]), 1.0),
                     lambda: oracle.h2_log(1.0, np.array([0.5, -0.5])),
                     lambda: oracle.radial_gradient("h2", 0.0, 1.0)):
            with pytest.raises(ValueError):
                call()


def h2_cached() -> int:
    """Entries in the plane's float-pass cache."""
    return oracle._h2_float_pass.cache_info().currsize


# The four weights of the plane pass through their public entry points: the
# kernel and the radial derivative give log |moment|, the time derivatives
# (log |moment|, sign).
H2_ENTRIES = {"h2_log": oracle.h2_log,
              "h2_dt1": lambda t, r: oracle.h2_dt_log_abs(t, r, 1),
              "h2_dt2": lambda t, r: oracle.h2_dt_log_abs(t, r, 2),
              "h2_radial_log_abs": oracle.h2_radial_log_abs}
# TestH2FixedNodeRule's regimes, graded panels among them, and one more point
H2_MEMO_CASES = [(name, t, r) for name in sorted(H2_ENTRIES)
                 for t, r in [*TestH2FixedNodeRule.REGIMES, (0.05, 1.0)]
                 if r > 0.0 or name != "h2_radial_log_abs"]


def entry(value, k=None):
    """A float or (log, sign) result as float64 bytes; with k, the entry k
    of an array call's result."""
    value = np.asarray(value, dtype=float)
    return (value if k is None else value[..., k]).tobytes()


class TestH2Memo:
    @pytest.mark.parametrize("name, t, r", H2_MEMO_CASES)
    def test_a_hit_has_the_bits_of_a_cold_call_and_the_array_entry(self, name, t, r):
        call = H2_ENTRIES[name]
        first = call(t, r)
        assert call(t, r) is first and call(np.float64(t), np.float64(r)) is first
        batch = call(np.array([t, 2.0 * t]), np.array([r, r]))
        assert h2_cached() == 1  # the array call neither read nor wrote it
        oracle._h2_float_pass.cache_clear()
        cold = call(np.float64(t), r)
        assert entry(cold) == entry(first) == entry(batch, 0)
        assert all(isinstance(x, float) for x in (cold if isinstance(cold, tuple) else [cold]))

    @pytest.mark.parametrize("name", sorted(H2_ENTRIES))
    def test_float_calls_have_the_bits_of_the_array_entries(self, name):
        # the plane workload's range, as perfbench draws it
        rng = np.random.default_rng(28)
        t = np.exp(rng.uniform(math.log(0.01), math.log(30.0), 300))
        r = rng.uniform(0.1, 20.0, 300)
        call = H2_ENTRIES[name]
        batch = call(t, r)
        for k in range(t.size):
            assert entry(call(float(t[k]), float(r[k]))) == entry(batch, k)

    @pytest.mark.parametrize("rule, t, r", [("_GL_PLAIN", 0.01, 3.0),
                                            ("_GL_GRADED", 0.5, 1e-3)])
    @pytest.mark.parametrize("name", sorted(H2_ENTRIES))
    def test_a_float_call_raises_the_error_of_its_array_entry(self, monkeypatch, name,
                                                              rule, t, r):
        monkeypatch.setattr(oracle, rule, coarse_rule(getattr(oracle, rule)))
        call = H2_ENTRIES[name]
        with pytest.raises(oracle.QuadratureError, match=f"t={t!r}, r={r!r}") as one:
            call(t, r)
        with pytest.raises(oracle.QuadratureError) as batch:
            call(np.array([t]), np.array([r]))
        assert str(one.value) == str(batch.value)

    @pytest.mark.parametrize("t, r", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                      (1.0, math.inf), (-1.0, 1.0), (1.0, -1.0), (0.0, 1.0)])
    def test_bad_points_raise_after_a_valid_call(self, t, r):
        for call in H2_ENTRIES.values():
            call(1.0, 1.0)
            with pytest.raises(ValueError, match="time|distance|radial"):
                call(t, r)
        assert h2_cached() == len(H2_ENTRIES)

    @pytest.mark.parametrize("r", [0.0, -0.0])
    def test_radial_r_zero_raises_after_the_kernel_there(self, r):
        oracle.h2_log(1.0, 0.0)
        with pytest.raises(ValueError, match="radial derivative needs a finite r > 0"):
            oracle.h2_radial_log_abs(1.0, r)

    def test_a_quadrature_error_is_raised_on_every_call(self, monkeypatch):
        monkeypatch.setattr(oracle, "_GL_PLAIN", coarse_rule(oracle._GL_PLAIN))
        for _ in range(2):
            for call in H2_ENTRIES.values():
                with pytest.raises(oracle.QuadratureError, match="t=0.01, r=3.0"):
                    call(0.01, 3.0)
        assert h2_cached() == 0

    def test_the_memo_stays_bounded(self):
        size = oracle._h2_float_pass.cache_info().maxsize
        points = [(0.5 + k / 64.0, 2.0) for k in range(size + 36)]
        for t, r in points:
            oracle.h2_log(t, r)
            assert h2_cached() <= size
        assert h2_cached() == size
        info = oracle._h2_float_pass.cache_info()
        oracle.h2_log(*points[-1])  # the newest entry is kept
        assert oracle._h2_float_pass.cache_info().hits == info.hits + 1
        oracle.h2_log(*points[0])  # the oldest has left
        assert oracle._h2_float_pass.cache_info().misses == info.misses + 1


def plane_quantities(t: float, r: float) -> list:
    """The five quantities of the plane benchmark at one point: the kernel,
    its first two finite-difference time derivatives, the radial gradient
    and the Li-Yau gap, each error kept in place of its result."""
    model = build_real_hyperbolic(2)
    calls = (lambda: oracle.h2_log(t, r),
             lambda: oracle.fd_time_derivative(plane_value, 1, t, r),
             lambda: oracle.fd_time_derivative(plane_value, 2, t, r),
             lambda: oracle.radial_gradient("h2", t, r),
             lambda: envelope.li_yau_gap(model, t, r, 2.0))
    out = []
    for call in calls:
        try:
            out.append(call())
        except (ValueError, oracle.QuadratureError) as exc:
            out.append(exc)
    return out


# (1.3, 2.4) is a normal point; at (0.05, 13) the kernel underflows and the
# Li-Yau gap raises
@pytest.mark.parametrize("t, r", [(1.3, 2.4), (0.05, 13.0)])
def test_a_plane_point_makes_one_pass_per_distinct_quadrature(monkeypatch, t, r):
    # 21 h2_log and 2 h2_radial_log_abs calls at the normal point: the
    # kernel at t, t +- h, t +- 2h and t +- 4h, and the radial moment at t
    # A pass is one call of the per-rule core that float and array passes share
    passes = []

    def counted(rule, ts, rs, *args):
        passes.append(np.size(ts))
        return rule_pass(rule, ts, rs, *args)

    def array_pass(*args):
        raise AssertionError("a float call ran the array pass")

    rule_pass = oracle._h2_rule_pass
    monkeypatch.setattr(oracle, "_h2_rule_pass", counted)
    monkeypatch.setattr(oracle, "_h2_moment", array_pass)
    results = plane_quantities(t, r)
    assert 0 < len(passes) <= 8 and set(passes) == {1}
    assert isinstance(results[-1], ValueError) == (r * r / (4.0 * t) > 800.0)


# Every entry point that checks its (t, r) domain, called as f(t, r).
DOMAIN_CHECKED = {
    "h3_dt_log_abs": lambda t, r: oracle.h3_dt_log_abs(t, r, 1),
    "h3_radial_log_abs": oracle.h3_radial_log_abs,
    "h2_log": oracle.h2_log,
    "h2_dt_log_abs": lambda t, r: oracle.h2_dt_log_abs(t, r, 1),
    "h2_radial_log_abs": oracle.h2_radial_log_abs,
    "radial_gradient_h2": lambda t, r: oracle.radial_gradient("h2", t, r),
    "radial_gradient_h3": lambda t, r: oracle.radial_gradient("h3", t, r),
    "fd_time_derivative": lambda t, r: oracle.fd_time_derivative(h3_value, 1, t, r),
    "li_yau_gap_h2": lambda t, r: envelope.li_yau_gap(build_real_hyperbolic(2), t, r),
    "li_yau_gap_h3": lambda t, r: envelope.li_yau_gap(build_real_hyperbolic(3), t, r),
    "h3_dt_prefactor": lambda t, r: oracle.h3_dt_prefactor(t, r, 1),
    "theorem1_rhs": lambda t, r: envelope.theorem1_rhs(build_real_hyperbolic(3), 1, t, r, 0.1),
    "gradient_rhs_log": lambda t, r: envelope.gradient_rhs_log(build_real_hyperbolic(3), t, r,
                                                               0.1),
}


@pytest.mark.parametrize("t, r", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                  (1.0, math.inf)],
                         ids=["nan_t", "nan_r", "inf_t", "inf_r"])
@pytest.mark.parametrize("name", sorted(DOMAIN_CHECKED))
def test_domain_check_rejects_non_finite(name, t, r):
    with pytest.raises(ValueError, match="time|distance|radial"):
        DOMAIN_CHECKED[name](t, r)


# h3_dt_prefactor(-1.0, 2.0, 1) returned 1.5 and theorem1_rhs and
# gradient_rhs_log -0.225 at (1.0, -1.0) before they checked their domain
@pytest.mark.parametrize("t, r", [(-1.0, 2.0), (1.0, -1.0)], ids=["negative_t", "negative_r"])
@pytest.mark.parametrize("name", sorted(DOMAIN_CHECKED))
def test_domain_check_rejects_negative(name, t, r):
    with pytest.raises(ValueError, match="time|distance|radial"):
        DOMAIN_CHECKED[name](t, r)


class TestGlRule:
    @pytest.mark.parametrize("edges", [[[0.0, 1.0], [1.0, 2.0]], [1.0], 2.0],
                             ids=["two_rows", "one_edge", "scalar"])
    def test_refuses_anything_but_one_row_of_edges(self, edges):
        with pytest.raises(ValueError, match="1-D"):
            oracle.gl_rule(edges)


class TestRadialGradient:
    def test_h3_matches_fd(self):
        t, r = 1.0, 2.0
        exact = oracle.radial_gradient("h3", t, r)
        h = 1e-5 * max(1.0, r)
        d0 = (h3_value(t, r + h) - h3_value(t, r - h)) / (2 * h)
        d1 = (h3_value(t, r + h / 2) - h3_value(t, r - h / 2)) / h
        fd = abs((4.0 * d1 - d0) / 3.0)
        assert exact == pytest.approx(fd, rel=1e-7)

    def test_small_r_vanishes_linearly(self):
        t = 1.0
        g1 = oracle.radial_gradient("h3", t, 1e-3)
        g2 = oracle.radial_gradient("h3", t, 2e-3)
        assert g2 == pytest.approx(2.0 * g1, rel=1e-3)

    def test_h2_path_runs(self):
        value = oracle.radial_gradient("h2", 1.0, 1.0)
        h = 1e-4
        fd = (math.exp(oracle.h2_log(1.0, 1.0 + h)) - math.exp(oracle.h2_log(1.0, 1.0 - h))) / (2 * h)
        assert value == pytest.approx(abs(fd), rel=1e-5)

    def test_rejects_r_zero(self):
        with pytest.raises(ValueError):
            oracle.radial_gradient("h2", 1.0, 0.0)


class TestFdTimeDerivative:
    def test_identity_order_zero(self):
        fd = oracle.fd_time_derivative(lambda t, r: t * t, 0, 3.0, 0.0)
        assert fd.value == 9.0 and fd.error == 0.0

    def test_exponential_orders(self):
        for order in (1, 2):
            fd = oracle.fd_time_derivative(lambda t, r: math.exp(-t), order, 1.0, 0.0)
            assert fd.value == pytest.approx((-1.0) ** order * math.exp(-1.0), abs=1e-9)

    def test_order_two_known_function(self):
        fd = oracle.fd_time_derivative(lambda t, r: math.exp(-t), 2, 1.0, 0.0)
        assert fd.value == pytest.approx(math.exp(-1.0), abs=1e-9)

    def test_error_estimate_reported(self):
        fd = oracle.fd_time_derivative(lambda t, r: h3_value(t, r), 1, 1.0, 1.0)
        assert fd.error >= 0.0
        assert fd.precision_ok

    def test_rejects_high_order(self):
        with pytest.raises(ValueError, match=r"orders 0\.\.2, got 3"):
            oracle.fd_time_derivative(lambda t, r: t, 3, 1.0, 0.0)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_subnormal_stencil_not_precise(self, order):
        # r^2/4t = 720: every stencil value of the 3-space kernel is subnormal
        t, r = 0.05, 12.0
        assert 0.0 < h3_value(t, r) < 2.2250738585072014e-308
        fd = oracle.fd_time_derivative(h3_value, order, t, r)
        assert fd.subnormal_stencil
        assert not fd.precision_ok

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_underflowed_stencil_not_precise(self, order):
        # r^2/4t = 1000: the kernel underflows to 0 at every stencil point
        fd = oracle.fd_time_derivative(h3_value, order, 0.04, math.sqrt(160.0))
        assert fd.value == 0.0 and fd.rel_error == 0.0
        assert not fd.precision_ok

    def test_normal_stencil_keeps_flag_clear(self):
        fd = oracle.fd_time_derivative(h3_value, 1, 0.5, 6.0)
        assert not fd.subnormal_stencil and fd.precision_ok


def scalar_fd_reference(kernel, order, t, r):
    """The Richardson ladder as a scalar loop over the stencil: the
    reference for fd_time_derivatives.  Order 2 divides by the exact square
    step * step (Python's step ** 2 calls C pow)."""
    if order == 0:
        value = float(kernel(t, r))
        return value, 0.0, abs(value) < sys.float_info.min
    h = 1e-3 * t
    smallest = math.inf

    def diff(step):
        nonlocal smallest
        acc = 0.0
        for offset, coeff in oracle._FD_STENCILS[order]:
            f = kernel(t + offset * step, r)
            smallest = min(smallest, abs(f))
            acc += coeff * f
        return acc / (step * step if order == 2 else step)

    d0, d1, d2 = diff(4.0 * h), diff(2.0 * h), diff(h)
    r1a = (4.0 * d1 - d0) / 3.0
    r1b = (4.0 * d2 - d1) / 3.0
    value = (16.0 * r1b - r1a) / 15.0
    error = abs(value - r1b)
    return value, error / max(abs(value), 1e-300), smallest < sys.float_info.min


class TestFdLadderOverArrays:
    # theorem1's cross-check mesh, plus a stencil of subnormal values
    # (r^2/4t = 720), one that underflows to 0 (r^2/4t = 1000), and (0.12, 2),
    # where C pow rounds the squares of 2h and h differently from step * step
    # and the order-2 value moves with them
    T, R = (np.concatenate([mesh.ravel(), extra]) for mesh, extra in zip(
        np.broadcast_arrays(*envelope.grid_points((0.05, 20.0), (0.2, 10.0), 8, 8)),
        ([0.05, 0.04, 0.12], [12.0, math.sqrt(160.0), 2.0])))

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_array_ladder_equals_scalar_calls(self, order):
        fd = oracle.fd_time_derivatives(lambda t, r: np.exp(oracle.h3_log(t, r)),
                                        order, self.T, self.R)
        assert self.T.shape == (8 * 8 + 3,)  # the full mesh, not 8 (t, r) pairs
        assert fd.value.shape == fd.rel_error.shape == fd.subnormal_stencil.shape == self.T.shape
        for k, (t, r) in enumerate(zip(self.T.tolist(), self.R.tolist())):
            one = oracle.fd_time_derivative(h3_value, order, t, r)
            assert isinstance(one.value, float) and isinstance(one.subnormal_stencil, bool)
            value, rel_error, subnormal = scalar_fd_reference(h3_value, order, t, r)
            for got in (one.value, fd.value[k]):
                assert same_bits(got, value)
            for got in (one.rel_error, fd.rel_error[k]):
                assert same_bits(got, rel_error)
            assert one.subnormal_stencil == fd.subnormal_stencil[k] == subnormal
            assert one.precision_ok == fd.precision_ok[k]
        assert fd.subnormal_stencil[-3:-1].all() and fd.value[-2] == 0.0
        assert not fd.subnormal_stencil[:-3].any()

    def test_array_ladder_calls_the_kernel_once_per_stencil_point(self):
        shapes = []

        def kernel(t, r):
            shapes.append(t.shape)
            return np.exp(oracle.h3_log(t, r))

        oracle.fd_time_derivatives(kernel, 2, self.T, self.R)
        assert shapes == [self.T.shape] * 7


@pytest.mark.parametrize("order, calls", [(1, 6), (2, 7)])
def test_scalar_ladder_calls_the_kernel_once_per_distinct_time(order, calls):
    times = []

    def kernel(t, r):
        times.append(t)
        return h3_value(t, r)

    fd = oracle.fd_time_derivative(kernel, order, 0.7, 2.0)
    assert len(times) == len(set(times)) == calls
    h = 1e-3 * 0.7
    assert set(times) >= {0.7 + k * h for k in (-1, 1)}  # the smallest step's stencil
    assert (0.7 in times) == (order == 2)
    value, rel_error, subnormal = scalar_fd_reference(h3_value, order, 0.7, 2.0)
    assert same_bits(fd.value, value) and same_bits(fd.rel_error, rel_error)
    assert fd.subnormal_stencil == subnormal


def make_cyclic_h3(translation: float) -> lattice.GroupSpec:
    half = math.exp(translation / 2.0)
    mat = np.array([[half, 0.0], [0.0, 1.0 / half]], dtype=complex)
    return lattice.GroupSpec(dim=3, generators=(mat,), family="cyclic")


class TestQuotientKernel:
    def test_trivial_group_is_kernel(self):
        group = lattice.GroupSpec(dim=3, generators=(), family="trivial")
        orbit = lattice.enumerate_orbit(group, (0j, 1.0), (0j, math.e), 10.0)
        ev = oracle.quotient_kernel(orbit, "h3", 1.0, None, None, 0, 10.0)
        assert ev.truncation_bound == 0.0
        assert ev.terms_used == 1
        assert ev.value == pytest.approx(h3_value(1.0, 1.0), rel=1e-14)

    def test_cyclic_tail_self_consistency(self):
        group = make_cyclic_h3(4.0)
        x = (0j, 1.0)
        y = (0j, math.exp(1.0))
        small = oracle.quotient_kernel(lattice.enumerate_orbit(group, x, y, 10.0), "h3", 2.0,
                                       None, None, 0, 10.0, delta=0.05)
        large = oracle.quotient_kernel(lattice.enumerate_orbit(group, x, y, 20.0), "h3", 2.0,
                                       None, None, 0, 20.0, delta=0.05)
        assert abs(large.value - small.value) <= small.truncation_bound
        assert large.truncation_bound < small.truncation_bound

    def test_symmetry_between_basepoints(self):
        group = make_cyclic_h3(5.0)
        x, y = (0j, 1.0), (0j, math.exp(2.0))
        a, b = (oracle.quotient_kernel(lattice.enumerate_orbit(group, p, q, 40.0), "h3", 1.5,
                                       None, None, 1, 40.0, delta=0.05)
                for p, q in ((x, y), (y, x)))
        assert a.value == pytest.approx(b.value, abs=1e-12 * max(1.0, abs(a.value)))

    def test_rejects_cut_below_quotient_distance(self):
        orbit = lattice.enumerate_orbit(make_cyclic_h3(4.0), (0j, 1.0), (0j, math.exp(2.0)), 10.0)
        with pytest.raises(ValueError, match="exceed the quotient distance"):
            oracle.quotient_kernel(orbit, "h3", 1.0, None, None, 0, 1.5)

    def test_rejects_epsilon_outside_unit(self):
        orbit = lattice.enumerate_orbit(make_cyclic_h3(4.0), (0j, 1.0), (0j, 1.0), 10.0)
        with pytest.raises(ValueError, match="epsilon"):
            oracle.quotient_kernel(orbit, "h3", 1.0, None, None, 0, 10.0, delta=0.05,
                                   epsilon=1.2)

    def test_h2_order_zero(self):
        half = math.exp(2.0)
        mat = np.array([[half, 0.0], [0.0, 1.0 / half]])
        group = lattice.GroupSpec(dim=2, generators=(mat,), family="cyclic")
        x = (0.0, 1.0)
        orbit = lattice.enumerate_orbit(group, x, x, 12.0)
        ev = oracle.quotient_kernel(orbit, "h2", 1.0, None, None, 0, 12.0, delta=0.05)
        direct = sum(math.exp(oracle.h2_log(1.0, d)) for d in orbit.distances)
        assert ev.value == pytest.approx(direct, rel=1e-12)


    @pytest.mark.parametrize("order", [1, 2])
    def test_h2_time_derivative_orbit_sums(self, order):
        half = math.exp(2.0)
        mat = np.array([[half, 0.0], [0.0, 1.0 / half]])
        group = lattice.GroupSpec(dim=2, generators=(mat,), family="cyclic")
        x, y = (0.0, 1.0), (0.3, 1.5)
        ts = np.geomspace(0.5, 10.0, 6)
        orbit = lattice.enumerate_orbit(group, x, y, 12.0)
        ev = oracle.quotient_kernel(orbit, "h2", ts, None, None, order, 12.0, delta=0.05)
        distances = orbit.distances
        assert ev.terms_used == len(distances)
        for k, t in enumerate(ts):
            terms = []
            for d in distances:
                log_abs, sign = oracle.h2_dt_log_abs(float(t), float(d), order)
                terms.append(sign * math.exp(log_abs))
            scale = math.fsum(abs(v) for v in terms)
            assert ev.value[k] == pytest.approx(math.fsum(terms), abs=1e-13 * scale)
        assert np.all(np.isfinite(ev.truncation_bound)) and np.all(ev.truncation_bound > 0.0)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_h2_tail_constant_envelopes_off_grid(self, order):
        # the fitted constant, with its 1.5 headroom, bounds |d^i_t h| off its grid
        eps = 0.1
        c = oracle._tail_envelope_constant(SpaceModel(2), order, eps)
        rng = np.random.default_rng(order)
        t = np.exp(rng.uniform(math.log(1e-3), math.log(60.0), 400))
        d = rng.uniform(0.0, 60.0, 400)
        log_abs, _ = oracle.h2_dt_log_abs(t, d, order)
        log_env = (-(1.0 + order) * np.log(t)
                   - (1.0 - eps) * (0.25 * t + 0.5 * d + d * d / (4.0 * t)))
        assert np.all(log_abs - log_env <= math.log(c))


def tail_constant_reference(model, order, epsilon):
    """_tail_envelope_constant as a loop over the rows of its t-grid."""
    n, rho = model.n, model.rho_norm
    d_grid = np.linspace(0.0, 60.0, 90)
    best = -np.inf
    for t in np.geomspace(1e-3, 60.0, 90):
        log_abs, _ = model.dt_log_abs(t, d_grid, order)
        log_env = (-(n / 2.0 + order) * math.log(t)
                   - (1.0 - epsilon) * (rho * rho * t + rho * d_grid + d_grid * d_grid / (4.0 * t)))
        best = max(best, float(np.max(log_abs - log_env)))
    return math.exp(best) * 1.5


@pytest.mark.parametrize("epsilon", [0.1, 0.2])
@pytest.mark.parametrize("order", [0, 1, 2])
def test_tail_constant_equals_the_row_loop(order, epsilon):
    model = SpaceModel(3)
    assert oracle._tail_envelope_constant(model, order, epsilon) == \
        tail_constant_reference(model, order, epsilon)


def schottky_h3() -> lattice.GroupSpec:
    # pairs the unit disks at -2 and 2, and at -6 and 6
    gens = tuple(np.array([[u, u * u - 1.0], [1.0, u]], dtype=complex) for u in (2.0, 6.0))
    return lattice.GroupSpec(dim=3, generators=gens, family="schottky")


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def exact_tail(orbit, t, order, r_cut, delta, epsilon=0.2):
    """The whole shell series the truncation bound covers, summed in
    log-sum-exp form with no stop rule, out to 60/sqrt(C) shells past its
    peak (C = (1 - epsilon)/(4t)), where the terms have fallen by e^3600."""
    c_count = max(np.count_nonzero(orbit.distances <= k) * math.exp(-delta * k)
                  for k in range(math.floor(orbit.r_max) + 1)
                  if np.count_nonzero(orbit.distances <= k) > 0)
    c_env = oracle._tail_envelope_constant(SpaceModel(3), order, epsilon)
    a, k0 = 1.0 - epsilon, math.floor(r_cut)
    peak = max(k0, 2.0 * t * (delta - a) / a)
    log_terms = [delta * (k + 1) - (1.5 + order) * math.log(t) - a * t
                 - a * (k + k * k / (4.0 * t))
                 for k in range(k0, math.ceil(peak + 60.0 / math.sqrt(a / (4.0 * t))) + 1)]
    top = max(log_terms)
    return c_env * c_count * math.exp(top) * math.fsum(math.exp(x - top) for x in log_terms)


class TestQuotientKernelGrid:
    T_GRID = np.geomspace(0.05, 12.0, 17)

    def orbits(self):
        x, y = (0.1 + 0.2j, 1.0), (-0.3j, 1.7)
        cyclic = lattice.enumerate_orbit(make_cyclic_h3(3.0), x, y, 40.0)
        schottky = lattice.enumerate_orbit(schottky_h3(), (0.1 + 0.2j, 2.0), (-0.3j, 1.7), 14.0)
        return {"cyclic": (cyclic, 30.0), "schottky": (schottky, 11.0)}

    def assert_grid_matches_scalars(self, orbit, order, r_cut, delta):
        batch = oracle.quotient_kernel(orbit, "h3", self.T_GRID, None, None, order, r_cut,
                                       delta=delta)
        assert batch.value.shape == batch.truncation_bound.shape == self.T_GRID.shape
        for k, t in enumerate(self.T_GRID):
            one = oracle.quotient_kernel(orbit, "h3", float(t), None, None, order, r_cut,
                                         delta=delta)
            assert isinstance(one.value, float) and isinstance(one.truncation_bound, float)
            assert same_bits(one.value, batch.value[k])
            assert same_bits(one.truncation_bound, batch.truncation_bound[k])
            assert one.terms_used == batch.terms_used
        return batch

    @pytest.mark.parametrize("kind", ["cyclic", "schottky"])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_grid_equals_scalar_calls(self, kind, order):
        orbit, r_cut = self.orbits()[kind]
        batch = self.assert_grid_matches_scalars(orbit, order, r_cut, delta=0.6)
        # the tail underflows to 0 at the smallest times, not at the largest
        assert np.all(batch.truncation_bound >= 0.0) and batch.truncation_bound[-1] > 0.0

    @pytest.mark.parametrize("kind", ["cyclic", "schottky"])
    def test_exhaustive_grid_equals_scalar_calls(self, kind):
        orbit, _ = self.orbits()[kind]
        whole = dataclasses.replace(orbit, exhaustive=True)
        batch = self.assert_grid_matches_scalars(whole, 1, orbit.r_max, delta=None)
        assert np.all(batch.truncation_bound == 0.0)
        assert batch.terms_used == len(orbit)

    @pytest.mark.parametrize("delta", [0.05, 0.6, 1.5, 1.95])
    def test_tail_bounds_the_exact_series(self, delta):
        # at delta > 0.8 the shell terms first grow; at 1.5 and 1.95 the
        # largest times put their peak past r_cut, the other branch of the bound
        orbit, r_cut = self.orbits()["schottky"]
        peak = 2.0 * self.T_GRID * (delta - 0.8) / 0.8
        assert (peak > math.floor(r_cut)).any() == (delta > 1.0)
        for order in (0, 1, 2):
            batch = oracle.quotient_kernel(orbit, "h3", self.T_GRID, None, None, order, r_cut,
                                           delta=delta)
            for k, t in enumerate(self.T_GRID):
                exact = exact_tail(orbit, float(t), order, r_cut, delta)
                assert 0.0 < exact <= batch.truncation_bound[k] <= 2.5 * exact

    @pytest.mark.parametrize("t, delta, slack", [(1000.0, 1.5, 1.02), (200.0, 0.838, 1.05)],
                             ids=["peak_past_cut", "peak_just_before_cut"])
    def test_tail_bound_is_tight_on_wide_shell_peaks(self, t, delta, slack):
        # at t = 1000 the shells from r_cut = 20 underflow to 0 and grow to a
        # peak at shell 1750; at t = 200 the peak is shell 19.  Either peak is
        # tens of shells wide, so the series is nearly its integral
        orbit = lattice.enumerate_orbit(make_cyclic_h3(3.0), (0j, 1.0), (0j, 1.0), 20.0)
        for order in (0, 1, 2):
            ev = oracle.quotient_kernel(orbit, "h3", t, None, None, order, 20.0, delta=delta)
            exact = exact_tail(orbit, t, order, 20.0, delta)
            assert 0.0 < exact <= ev.truncation_bound <= slack * exact

    def test_rejects_bad_time_grids(self):
        orbit, r_cut = self.orbits()["cyclic"]
        for bad in (np.array([1.0, 0.0]), np.array([[1.0]]), np.array([])):
            with pytest.raises(ValueError):
                oracle.quotient_kernel(orbit, "h3", bad, None, None, 0, r_cut, delta=0.1)

    @pytest.mark.parametrize("name, value", [("t", math.nan), ("t", np.array([1.0, math.nan])),
                                             ("t", math.inf), ("r_cut", math.nan),
                                             ("r_cut", math.inf), ("delta", math.nan),
                                             ("delta", math.inf)],
                             ids=["nan_t", "nan_in_t_grid", "inf_t", "nan_r_cut", "inf_r_cut",
                                  "nan_delta", "inf_delta"])
    def test_non_finite_argument_named(self, name, value):
        orbit, r_cut = self.orbits()["cyclic"]
        args = {"t": 1.0, "r_cut": r_cut, "delta": 0.1, name: value}
        with pytest.raises(ValueError, match=f"^{name} must be"):
            oracle.quotient_kernel(orbit, "h3", args["t"], None, None, 0, args["r_cut"],
                                   delta=args["delta"])


def masked_orbit_sum(orbit, ts, order, r_cut, delta, epsilon=0.2):
    """The orbit sum as a boolean mask and h3_dt_log_abs, and its truncation
    tail, recomputed on every call: the reference for the reused distance
    part."""
    ts = np.atleast_1d(np.asarray(ts, dtype=float))
    used = orbit.distances[orbit.distances <= r_cut + 1e-12]
    log_abs, sign = oracle.h3_dt_log_abs(ts[:, None], used, order)
    values = np.sum(np.exp(log_abs) * sign, axis=1)
    model = SpaceModel(3)
    scale = oracle._tail_envelope_constant(model, order, epsilon) * orbit.counting_constant(delta)
    tails = oracle._truncation_tails(model, order, epsilon, delta, scale, math.floor(r_cut), ts)
    return values, tails, used.size


class TestQuotientKernelReusedTerms:
    T_GRID = np.geomspace(0.1, 10.0, 12)
    CUT_FRACTIONS = (0.75, 0.45, 1.0)  # shrinks, then grows past the reused prefix

    def orbits(self):
        a = lattice.enumerate_orbit(schottky_h3(), (0.1 + 0.2j, 2.0), (-0.3j, 1.7), 14.0)
        b = lattice.enumerate_orbit(make_cyclic_h3(3.0), (0.1 + 0.2j, 1.0), (-0.3j, 1.7), 40.0)
        return a, b

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_equals_masked_sum_across_orbit_switches(self, order):
        a, b = self.orbits()
        for fraction in self.CUT_FRACTIONS:
            for orbit in (a, b, a):
                r_cut = fraction * orbit.r_max
                values, tails, used = masked_orbit_sum(orbit, self.T_GRID, order, r_cut, 0.6)
                grid = oracle.quotient_kernel(orbit, "h3", self.T_GRID, None, None, order,
                                              r_cut, delta=0.6)
                assert np.array_equal(grid.value, values)
                assert np.array_equal(grid.truncation_bound, tails)
                assert grid.terms_used == used
                t = float(self.T_GRID[4])
                values, tails, used = masked_orbit_sum(orbit, t, order, r_cut, 0.6)
                one = oracle.quotient_kernel(orbit, "h3", t, None, None, order, r_cut, delta=0.6)
                assert np.array_equal(one.value, values[0])
                assert np.array_equal(one.truncation_bound, tails[0])
                assert one.terms_used == used

    def test_counting_constant_follows_r_max(self):
        # a replaced r_max shares the distances array but not the constant
        a, _ = self.orbits()
        short = dataclasses.replace(a, r_max=9.5)
        assert short.distances is a.distances
        assert short.counting_constant(0.05) != a.counting_constant(0.05)
        for orbit in (a, short, a):
            _, tails, _ = masked_orbit_sum(orbit, self.T_GRID, 1, 9.0, 0.05)
            grid = oracle.quotient_kernel(orbit, "h3", self.T_GRID, None, None, 1, 9.0,
                                          delta=0.05)
            assert np.array_equal(grid.truncation_bound, tails)

    def test_memo_holds_the_last_orbit_only(self):
        a, b = self.orbits()

        def counts():
            info = oracle._h3_block_terms.cache_info()
            return info.hits, info.misses, info.currsize

        oracle.quotient_kernel(a, "h3", 1.0, None, None, 0, 11.0, delta=0.6)
        assert counts() == (0, 1, 1)
        oracle.quotient_kernel(a, "h3", 2.0, None, None, 2, 11.0, delta=0.6)
        assert counts() == (1, 1, 1)  # another time and order reuse the entry
        oracle.quotient_kernel(a, "h3", 2.0, None, None, 2, 6.0, delta=0.6)
        assert counts() == (1, 2, 1)  # a shorter prefix is another block
        oracle.quotient_kernel(b, "h3", 1.0, None, None, 0, 30.0, delta=0.6)
        oracle.quotient_kernel(a, "h3", 2.0, None, None, 2, 6.0, delta=0.6)
        assert counts() == (1, 4, 1)  # b's block pushed a's out

    def test_bad_order_and_time_raise(self):
        a, _ = self.orbits()
        oracle.quotient_kernel(a, "h3", 1.0, None, None, 0, 11.0, delta=0.6)  # memo warm
        with pytest.raises(ValueError, match="closed-form time derivatives stop at order 2"):
            oracle.quotient_kernel(a, "h3", 1.0, None, None, 3, 11.0, delta=0.6)
        with pytest.raises(ValueError, match="^t must be"):
            oracle.quotient_kernel(a, "h3", math.nan, None, None, 1, 11.0, delta=0.6)

    @pytest.mark.parametrize("delta", [-5.0, -1e-9])
    def test_negative_delta_named(self, delta):
        a, _ = self.orbits()
        with pytest.raises(ValueError, match="^delta must be"):
            oracle.quotient_kernel(a, "h3", 1.0, None, None, 0, 11.0, delta=delta)


def count_distance_parts(monkeypatch) -> list:
    """Warm the 3-space tail constants at epsilon 0.2, then count the
    calls of oracle._h3_distance_part from here on."""
    for order in (0, 1, 2):
        oracle._tail_envelope_constant(SpaceModel(3), order, 0.2)
    passes = []
    part = oracle._h3_distance_part

    def counted(r):
        passes.append(np.size(r))
        return part(r)

    monkeypatch.setattr(oracle, "_h3_distance_part", counted)
    return passes


def test_a_quotient_run_makes_one_distance_part_per_grid(monkeypatch):
    passes = count_distance_parts(monkeypatch)
    run_suite(SuiteConfig(name="quotient"))
    assert len(passes) == 2  # the 20- and 40-point grids, each summed at orders 0 and 1


def test_scalar_calls_on_one_orbit_make_one_distance_part(monkeypatch):
    # the orbits benchmark's pattern: every order at every time of a grid
    orbit = lattice.enumerate_orbit(schottky_h3(), (0.1 + 0.2j, 2.0), (-0.3j, 1.7), 14.0)
    passes = count_distance_parts(monkeypatch)
    for order in (0, 1, 2):
        for t in np.geomspace(0.1, 10.0, 12).tolist():
            oracle.quotient_kernel(orbit, "h3", t, None, None, order, 12.0, 0.6)
    assert len(passes) == 1


def batch_orbits():
    """The suites' default 9-point cyclic orbit, the plane cyclic orbit
    (115 points) and the plane Schottky orbit (61 points), between two
    points of the vertical axis, with their r_cut."""
    x, y = (0j, 1.0), (0j, math.exp(1.3))
    groups = [lattice.GroupSpec(dim=3, generators=(np.diag([math.exp(9.0), math.exp(-9.0)]),),
                                family="cyclic"),
              lattice.parse_group("[group]\ndim = 2\nfamily = cyclic\ngenerator = 2.0,0,0,0.5\n"),
              lattice.parse_group("[group]\ndim = 2\nfamily = schottky\ngenerator = 2,3,1,2\n")]
    return [lattice.enumerate_orbit(group, x, y, 80.0) for group in groups], 80.0


def trivial_orbit(r_cut: float) -> lattice.OrbitSet:
    group = lattice.GroupSpec(dim=3, generators=(), family="trivial")
    return lattice.enumerate_orbit(group, (0j, 1.0), (0j, math.exp(1.3)), r_cut)


def closed_form_tail(model, order, delta, scale, k0, ts, epsilon=0.2):
    """_truncation_tails written out for one float scale, in its order of
    operations: the reference for the bits of the batched tails."""
    n, rho, a = model.n, model.rho_norm, 1.0 - epsilon
    c = a / (4.0 * ts)
    root_c = np.sqrt(c)
    slope = delta - a * rho
    log_peak = delta - (n / 2.0 + order) * np.log(ts) - a * rho * rho * ts + slope * slope / a * ts
    z = root_c * (k0 - 2.0 * slope / a * ts)
    log_top = log_peak - np.maximum(z, 0.0) ** 2
    integral = np.where(z >= 0.0, 1.0 / (root_c * (z + np.sqrt(z * z + 4.0 / math.pi))),
                        np.sqrt(math.pi / c))
    return scale * np.exp(log_top) * (1.0 + integral)


def lone_orbit_sum(orbit, space, ts, order, r_cut, delta, epsilon=0.2):
    """One orbit summed alone from scratch: its (times x points) terms and
    np.sum over the points, and its closed-form tail."""
    model = rootspace.named_model(space)
    used = orbit.distances[orbit.distances <= r_cut + 1e-12]
    log_abs, sign = model.dt_log_abs(ts[:, None], used, order)
    values = np.sum(np.exp(log_abs) * sign, axis=1)
    if orbit.exhaustive and used.size == len(orbit):
        return values, np.zeros_like(values), used.size
    scale = oracle._tail_envelope_constant(model, order, epsilon) * orbit.counting_constant(delta)
    return values, closed_form_tail(model, order, delta, scale, math.floor(r_cut), ts), used.size


def assert_rows_are_single_orbit_calls(orbits, space, order, r_cut, delta):
    """quotient_kernels on `orbits` against quotient_kernel on each alone
    and against lone_orbit_sum, bit for bit; the batch is summed first, so
    no single call has filled the memo with its orbit's distance part."""
    ts = TestQuotientKernels.T_GRID
    batch = oracle.quotient_kernels(orbits, space, ts, order, r_cut, delta=delta)
    assert batch.value.shape == batch.truncation_bound.shape == (len(orbits), ts.size)
    assert batch.terms_used.shape == (len(orbits),)
    for g, orbit in enumerate(orbits):
        one = oracle.quotient_kernel(orbit, space, ts, None, None, order, r_cut, delta=delta)
        values, tails, used = lone_orbit_sum(orbit, space, ts, order, r_cut, delta)
        for value in (one.value, values):
            assert value.tobytes() == batch.value[g].tobytes()
        for tail in (one.truncation_bound, tails):
            assert tail.tobytes() == batch.truncation_bound[g].tobytes()
        assert one.terms_used == used == batch.terms_used[g]
    return batch


class TestQuotientKernels:
    T_GRID = np.geomspace(0.1, 10.0, 12)

    # at r_cut 10 the points past the last whole group of 8 carry weight, so
    # a sum that groups them differently (padding, reduceat) moves bits
    @pytest.mark.parametrize("r_cut, terms", [(80.0, [9, 115, 61]), (10.0, [1, 15, 7])])
    @pytest.mark.parametrize("space", ["h3", "h2"])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_rows_equal_single_orbit_calls(self, space, order, r_cut, terms):
        orbits, _ = batch_orbits()
        batch = assert_rows_are_single_orbit_calls(orbits, space, order, r_cut, delta=0.05)
        assert batch.terms_used.tolist() == terms
        # the tail underflows at small times only
        assert np.all(batch.truncation_bound[:, -1] > 0.0)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_exhaustive_orbit_between_truncated_ones(self, order):
        orbits, r_cut = batch_orbits()
        orbits.insert(1, trivial_orbit(r_cut))
        batch = assert_rows_are_single_orbit_calls(orbits, "h3", order, r_cut, delta=0.05)
        assert np.all(batch.truncation_bound[1] == 0.0)
        assert np.all(np.delete(batch.truncation_bound, 1, axis=0)[:, -1] > 0.0)
        # exhaustive orbits alone need no delta
        whole = assert_rows_are_single_orbit_calls([trivial_orbit(r_cut)] * 2, "h3", order,
                                                   r_cut, delta=None)
        assert np.all(whole.truncation_bound == 0.0)

    @pytest.mark.parametrize("space", ["h3", "h2"])
    def test_blocks_keep_the_bits(self, space, monkeypatch):
        # 40 terms per block at 12 times: the 9-point orbits share blocks
        # two at a time, and the 115- and 61-point orbits run alone
        orbits, r_cut = batch_orbits()
        orbits = [orbits[0], orbits[0], orbits[1], orbits[0], orbits[2], orbits[0]]
        monkeypatch.setattr(oracle, "_ORBIT_BLOCK", 12 * 20)
        ks = [9, 9, 115, 9, 61, 9]
        assert list(oracle._orbit_blocks(ks, 12)) == [
            slice(0, 2), slice(2, 3), slice(3, 4), slice(4, 5), slice(5, 6)]
        for order in (0, 1, 2):
            batch = assert_rows_are_single_orbit_calls(orbits, space, order, r_cut, delta=0.05)
            assert batch.terms_used.tolist() == ks

    def test_scalar_time_gives_one_column(self):
        orbits, r_cut = batch_orbits()
        batch = oracle.quotient_kernels(orbits, "h3", 1.5, 1, r_cut, delta=0.05)
        assert batch.value.shape == batch.truncation_bound.shape == (3, 1)
        for g, orbit in enumerate(orbits):
            one = oracle.quotient_kernel(orbit, "h3", 1.5, None, None, 1, r_cut, delta=0.05)
            assert same_bits(one.value, batch.value[g, 0])
            assert same_bits(one.truncation_bound, batch.truncation_bound[g, 0])

    @pytest.mark.parametrize("case", ["below_r_cut", "r_cut_at_d_min", "no_delta"])
    def test_errors_match_the_single_orbit_call(self, case):
        # (an orbit that passes, the orbit that fails, r_cut, delta)
        (cyclic, plane_cyclic, schottky), _ = batch_orbits()
        good, bad, r_cut, delta = {
            "below_r_cut": (cyclic, dataclasses.replace(plane_cyclic, r_max=60.0), 80.0, 0.05),
            "r_cut_at_d_min": (plane_cyclic, trivial_orbit(80.0), 1.3, 0.05),
            "no_delta": (trivial_orbit(80.0), schottky, 80.0, None),
        }[case]
        with pytest.raises(ValueError) as single:
            oracle.quotient_kernel(bad, "h3", self.T_GRID, None, None, 0, r_cut, delta=delta)
        with pytest.raises(ValueError) as batched:
            oracle.quotient_kernels([good, bad], "h3", self.T_GRID, 0, r_cut, delta=delta)
        assert type(batched.value) is type(single.value)
        assert str(batched.value) == str(single.value)
        oracle.quotient_kernels([good], "h3", self.T_GRID, 0, r_cut, delta=delta)

    def test_rejects_an_empty_batch(self):
        with pytest.raises(ValueError, match="at least one orbit"):
            oracle.quotient_kernels([], "h3", self.T_GRID, 0, 10.0, delta=0.05)


class TestUnderflowCut:
    """A 3-space block of one orbit evaluates only the distances below
    oracle._h3_cut_radius at its largest time."""

    GRIDS = [np.geomspace(1e-2, 1e2, 25), np.geomspace(1e-2, 1.0, 9)]

    @staticmethod
    def orbits():
        # 319 cyclic points to r_cut 80, and 2,237 Schottky points to r_cut 24
        cyclic = lattice.enumerate_orbit(make_cyclic_h3(0.5), (0.1 + 0.2j, 1.0), (-0.3j, 1.7),
                                         80.0)
        schottky = lattice.enumerate_orbit(schottky_h3(), (0.1 + 0.2j, 2.0), (-0.3j, 1.7), 26.0)
        return [(cyclic, 80.0), (schottky, 24.0)]

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_sums_keep_the_bits_of_the_full_rows(self, order):
        for orbit, r_cut in self.orbits():
            for ts in self.GRIDS:
                values, tails, used = lone_orbit_sum(orbit, "h3", ts, order, r_cut, 0.6)
                grid = oracle.quotient_kernel(orbit, "h3", ts, None, None, order, r_cut, 0.6)
                assert grid.value.tobytes() == values.tobytes()
                assert grid.truncation_bound.tobytes() == tails.tobytes()
                assert grid.terms_used == used
                for k, t in enumerate(ts.tolist()):
                    one = oracle.quotient_kernel(orbit, "h3", t, None, None, order, r_cut, 0.6)
                    assert same_bits(one.value, values[k])
                    assert same_bits(one.truncation_bound, tails[k])

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_terms_past_the_cut_are_positive_zeros(self, order):
        for t in np.geomspace(1e-3, 1e3, 61).tolist():
            r = oracle._h3_cut_radius(t, order) * np.array([1.0, 1.0 + 1e-9, 1.5, 4.0])
            log_abs, sign = oracle.h3_dt_log_abs(t, r, order)
            terms = np.exp(log_abs) * sign
            assert np.all(terms == 0.0) and not np.any(np.signbit(terms)), (t, order)

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_the_cut_is_near_the_last_nonzero_term(self, order):
        # the bound drops log(r/sinh r), about -r, which grows with t; at
        # t <= 1 the term a tenth inside the cut has not underflowed
        for t in np.geomspace(1e-3, 1.0, 25).tolist():
            r = 0.9 * oracle._h3_cut_radius(t, order)
            log_abs, _ = oracle.h3_dt_log_abs(t, r, order)
            assert math.exp(float(log_abs)) > 0.0, (t, order)

    def test_a_scalar_call_evaluates_fewer_columns(self, monkeypatch):
        orbit, r_cut = self.orbits()[0]
        columns = []
        part = oracle._h3_dt_log_abs_from

        def counted(t, log_ros, rr, order):
            columns.append(np.size(rr))
            return part(t, log_ros, rr, order)

        monkeypatch.setattr(oracle, "_h3_dt_log_abs_from", counted)
        ev = oracle.quotient_kernel(orbit, "h3", 0.1, None, None, 0, r_cut, 0.6)
        assert ev.terms_used == 319
        assert len(columns) == 1 and columns[0] < ev.terms_used

    @pytest.mark.parametrize("order", [-1, 3])
    def test_an_order_outside_the_closed_forms_still_raises(self, order):
        orbit, r_cut = self.orbits()[0]
        for t in (1.0, self.GRIDS[1]):
            with pytest.raises(ValueError,
                               match=f"closed-form time derivatives stop at order 2, got {order}"):
                oracle.quotient_kernel(orbit, "h3", t, None, None, order, r_cut, 0.6)
