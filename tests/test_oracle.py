import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from heatlab import envelope, lattice, oracle
from heatlab.rootspace import SpaceModel, build_real_hyperbolic


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
}


@pytest.mark.parametrize("t, r", [(math.nan, 1.0), (1.0, math.nan), (math.inf, 1.0),
                                  (1.0, math.inf)],
                         ids=["nan_t", "nan_r", "inf_t", "inf_r"])
@pytest.mark.parametrize("name", sorted(DOMAIN_CHECKED))
def test_domain_check_rejects_non_finite(name, t, r):
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


def make_cyclic_h3(translation: float) -> lattice.GroupSpec:
    half = math.exp(translation / 2.0)
    mat = np.array([[half, 0.0], [0.0, 1.0 / half]], dtype=complex)
    return lattice.GroupSpec(dim=3, generators=(mat,), family="cyclic")


class TestQuotientKernel:
    def test_trivial_group_is_kernel(self):
        group = lattice.GroupSpec(dim=3, generators=(), family="trivial")
        x, y = (0j, 1.0), (0j, math.e)
        ev = oracle.quotient_kernel(group, "h3", 1.0, x, y, 0, 10.0)
        assert ev.truncation_bound == 0.0
        assert ev.terms_used == 1
        assert ev.value == pytest.approx(h3_value(1.0, 1.0), rel=1e-14)

    def test_cyclic_tail_self_consistency(self):
        group = make_cyclic_h3(4.0)
        x = (0j, 1.0)
        y = (0j, math.exp(1.0))
        small = oracle.quotient_kernel(group, "h3", 2.0, x, y, 0, 10.0, delta=0.05)
        large = oracle.quotient_kernel(group, "h3", 2.0, x, y, 0, 20.0, delta=0.05)
        assert abs(large.value - small.value) <= small.truncation_bound
        assert large.truncation_bound < small.truncation_bound

    def test_symmetry_between_basepoints(self):
        group = make_cyclic_h3(5.0)
        x, y = (0j, 1.0), (0j, math.exp(2.0))
        a = oracle.quotient_kernel(group, "h3", 1.5, x, y, 1, 40.0, delta=0.05)
        b = oracle.quotient_kernel(group, "h3", 1.5, y, x, 1, 40.0, delta=0.05)
        assert a.value == pytest.approx(b.value, abs=1e-12 * max(1.0, abs(a.value)))

    def test_rejects_cut_below_quotient_distance(self):
        group = make_cyclic_h3(4.0)
        with pytest.raises(ValueError):
            oracle.quotient_kernel(group, "h3", 1.0, (0j, 1.0), (0j, math.exp(2.0)), 0, 1.5)

    def test_rejects_epsilon_outside_unit(self):
        group = make_cyclic_h3(4.0)
        with pytest.raises(ValueError):
            oracle.quotient_kernel(group, "h3", 1.0, (0j, 1.0), (0j, 1.0), 0, 10.0,
                                   delta=0.05, epsilon=1.2)

    def test_h2_order_zero(self):
        half = math.exp(2.0)
        mat = np.array([[half, 0.0], [0.0, 1.0 / half]])
        group = lattice.GroupSpec(dim=2, generators=(mat,), family="cyclic")
        x = (0.0, 1.0)
        ev = oracle.quotient_kernel(group, "h2", 1.0, x, x, 0, 12.0, delta=0.05)
        direct = sum(math.exp(oracle.h2_log(1.0, d)) for d in group.orbit(x, x, 12.0).distances)
        assert ev.value == pytest.approx(direct, rel=1e-12)


    @pytest.mark.parametrize("order", [1, 2])
    def test_h2_time_derivative_orbit_sums(self, order):
        half = math.exp(2.0)
        mat = np.array([[half, 0.0], [0.0, 1.0 / half]])
        group = lattice.GroupSpec(dim=2, generators=(mat,), family="cyclic")
        x, y = (0.0, 1.0), (0.3, 1.5)
        ts = np.geomspace(0.5, 10.0, 6)
        ev = oracle.quotient_kernel(group, "h2", ts, x, y, order, 12.0, delta=0.05)
        distances = group.orbit(x, y, 12.0).distances
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


def schottky_h3() -> lattice.GroupSpec:
    # pairs the unit disks at -2 and 2, and at -6 and 6
    gens = tuple(np.array([[u, u * u - 1.0], [1.0, u]], dtype=complex) for u in (2.0, 6.0))
    return lattice.GroupSpec(dim=3, generators=gens, family="schottky")


def same_bits(a, b) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


def sequential_tail(orbit, t, order, r_cut, delta, value, epsilon=0.2):
    """The truncation tail as a shell-by-shell loop, for comparison."""
    c_count = max(np.count_nonzero(orbit.distances <= k) * math.exp(-delta * k)
                  for k in range(math.floor(orbit.r_max) + 1)
                  if np.count_nonzero(orbit.distances <= k) > 0)
    c_env = oracle._tail_envelope_constant(SpaceModel(3), order, epsilon)
    tail = 0.0
    for k in range(math.floor(r_cut), math.floor(r_cut) + 100000):
        log_term = (delta * (k + 1) - (1.5 + order) * math.log(t) - (1.0 - epsilon) * t
                    - (1.0 - epsilon) * (k + k * k / (4.0 * t)))
        term = c_env * c_count * math.exp(log_term)
        tail += term
        if term <= 1e-18 * max(tail, abs(value), 1e-300):
            return tail
    return tail


class TestQuotientKernelGrid:
    T_GRID = np.geomspace(0.05, 12.0, 17)

    def orbits(self):
        x, y = (0.1 + 0.2j, 1.0), (-0.3j, 1.7)
        cyclic = make_cyclic_h3(3.0).orbit(x, y, 40.0)
        schottky = schottky_h3().orbit((0.1 + 0.2j, 2.0), (-0.3j, 1.7), 14.0)
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
    def test_tail_matches_shell_loop(self, delta):
        # at delta > 0.8 the shell terms first grow, so the stop lies past r_cut
        orbit, r_cut = self.orbits()["schottky"]
        batch = oracle.quotient_kernel(orbit, "h3", self.T_GRID, None, None, 1, r_cut,
                                       delta=delta)
        for k, t in enumerate(self.T_GRID):
            expected = sequential_tail(orbit, float(t), 1, r_cut, delta, batch.value[k])
            assert batch.truncation_bound[k] == pytest.approx(expected, rel=1e-12)

    def test_tail_sums_past_shells_that_underflow_before_the_peak(self):
        # at t = 1000 and delta = 1.5 the shells from r_cut = 20 underflow to 0
        # and grow to a peak at shell 1750; the tail is the whole sum, not 0
        orbit = make_cyclic_h3(3.0).orbit((0j, 1.0), (0j, 1.0), 20.0)
        a, t, delta = 0.8, 1000.0, 1.5
        ev = oracle.quotient_kernel(orbit, "h3", t, None, None, 0, 20.0, delta=delta)
        ks = np.arange(20.0, 20000.0)  # past 6000 every term underflows again
        log_terms = delta * (ks + 1.0) - 1.5 * math.log(t) - a * t - a * (ks + ks * ks / (4.0 * t))
        scale = (oracle._tail_envelope_constant(SpaceModel(3), 0, 0.2)
                 * orbit.counting_constant(delta))
        expected = math.fsum((scale * np.exp(log_terms)).tolist())
        assert expected > 0.0
        assert ev.truncation_bound == pytest.approx(expected, rel=1e-12, abs=0.0)
        # a time whose shells peak at r_cut keeps its tail
        at_ten = oracle.quotient_kernel(orbit, "h3", 10.0, None, None, 0, 20.0, delta=delta)
        assert at_ten.truncation_bound == 0.005816658104880228

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
    tails = oracle._truncation_tails(model, order, epsilon, delta, scale, math.floor(r_cut),
                                     ts, np.abs(values))
    return values, tails, used.size


class TestQuotientKernelReusedTerms:
    T_GRID = np.geomspace(0.1, 10.0, 12)
    CUT_FRACTIONS = (0.75, 0.45, 1.0)  # shrinks, then grows past the reused prefix

    def orbits(self):
        a = schottky_h3().orbit((0.1 + 0.2j, 2.0), (-0.3j, 1.7), 14.0)
        b = make_cyclic_h3(3.0).orbit((0.1 + 0.2j, 1.0), (-0.3j, 1.7), 40.0)
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
        oracle.quotient_kernel(a, "h3", 1.0, None, None, 0, 11.0, delta=0.6)
        memo = oracle._last_orbit
        assert memo[0] is a.distances
        oracle.quotient_kernel(a, "h3", 2.0, None, None, 2, 6.0, delta=0.6)
        assert oracle._last_orbit is memo  # a shorter prefix reuses the entry
        oracle.quotient_kernel(b, "h3", 1.0, None, None, 0, 30.0, delta=0.6)
        assert oracle._last_orbit[0] is b.distances
        assert not any(part is a.distances for part in oracle._last_orbit)

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
