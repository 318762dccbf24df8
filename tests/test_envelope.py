import math
import re

import mpmath
import numpy as np
import pytest
from scipy.integrate import quad

from heatlab import envelope, oracle
from heatlab.envelope import (
    ShapeMismatchError,
    fit_constant,
    gamma_limit_from_lambda,
    gradient_rhs_log,
    grid_points,
    li_yau_gap,
    li_yau_rhs,
    recurrence_grid,
    sharp_envelope_log,
    theorem1_rhs,
    two_grid_fit,
)
from heatlab.rootspace import build_real_hyperbolic

H3 = build_real_hyperbolic(3)
H2 = build_real_hyperbolic(2)


def quad_iterated(f, i: int, t: float) -> float:
    """int_0^t (t-s)^{i-1}/(i-1)! f(s) ds by adaptive quad, as it was computed
    before the fixed-node pass."""
    value, _ = quad(lambda s: (t - s) ** (i - 1) / math.factorial(i - 1) * f(s), 0.0, t,
                    epsabs=0.0, epsrel=1e-13, limit=500)
    return value


def mp_iterated(f, i: int, t: float) -> float:
    with mpmath.workdps(30):
        t = mpmath.mpf(t)
        return float(mpmath.quad(lambda s: (t - s) ** (i - 1) / mpmath.factorial(i - 1) * f(s),
                                 [0, t / 4, t]))


class TestSharpEnvelope:
    def test_h3_middle_factor_trivial(self):
        # exponent (m_a + m_2a/2) - 1 = 0, so no (1+t+r) dependence
        lo1 = math.exp(float(sharp_envelope_log(H3, 2.0, 1.5)))
        expected = 2.0 ** -1.5 * (1 + 1.5) * math.exp(-2.0 - 1.5 - 1.5 ** 2 / 8.0)
        assert lo1 == pytest.approx(expected, rel=1e-13)

    def test_origin_value(self):
        value = math.exp(float(sharp_envelope_log(H3, 1.0, 0.0)))
        assert value == pytest.approx(math.exp(-1.0), rel=1e-13)

    def test_kernel_ratio_window(self):
        T, R = grid_points((0.01, 30.0), (0.0, 20.0), 60, 60)
        ratio = oracle.h3_log(T, R) - sharp_envelope_log(H3, T, R)
        lo, hi = math.exp(ratio.min()), math.exp(ratio.max())
        assert 0.02 <= lo <= hi <= 2.0
        # golden bracket: the ratio is t-independent on the 3-space, its range
        # runs from the r=0 value (4 pi)^{-3/2} to twice it at the r endpoint
        assert lo == pytest.approx((4.0 * math.pi) ** -1.5, rel=1e-10)
        assert hi == pytest.approx(0.0427588, rel=1e-4)


class TestGrigoryan:
    def test_exact_diagonal_dominates_derivative(self):
        # model-matched constant: reciprocal-diagonal profile is exact on the
        # 3-space, making the bound constant-free
        for i in (1, 2):
            for t in np.geomspace(0.05, 20.0, 15):
                bound = envelope.grigoryan_bound_exact_h3(i, float(t))
                for r in np.linspace(0.0, 10.0, 8):
                    lhs = abs(float(np.exp(oracle.h3_log(t, r))
                                    * oracle.h3_dt_prefactor(t, r, i)))
                    assert lhs <= bound

    def test_rejects_order_zero(self):
        with pytest.raises(ValueError):
            envelope.grigoryan_bound_exact_h3(0, 1.0)

    # the iterated integrals the grigoryan suite reaches (orders 1, 2 and 4
    # over t in [0.01, 30])
    ITERATED_T = np.geomspace(0.01, 30.0, 13)

    @pytest.mark.parametrize("i", [1, 2, 4])
    def test_h3_diagonal_iterated_matches_quad_and_mpmath(self, i):
        got = envelope.h3_exact_diagonal_f_iterated(i, self.ITERATED_T)
        for g, t in zip(got.tolist(), self.ITERATED_T.tolist()):
            ref = quad_iterated(lambda s: (4.0 * math.pi * s) ** 1.5 * math.exp(s), i, t)
            assert g == pytest.approx(ref, rel=1e-12)
            mp_ref = mp_iterated(lambda s: (4 * mpmath.pi * s) ** mpmath.mpf(1.5) * mpmath.exp(s),
                                 i, t)
            assert g == pytest.approx(mp_ref, rel=1e-12)

    def test_arrays_match_scalar_calls(self):
        # the iterated integrals are one-row passes for a scalar, so entries
        # are bit-identical; the bound also takes np.exp of t, whose array
        # and scalar loops may differ in the last bit
        t = np.geomspace(0.01, 30.0, 60)
        for i in (1, 2, 4):
            scalars = [envelope.h3_exact_diagonal_f_iterated(i, float(tt)) for tt in t]
            assert all(isinstance(v, float) for v in scalars)
            assert np.array_equal(envelope.h3_exact_diagonal_f_iterated(i, t), scalars)
            bounds = [envelope.grigoryan_bound_exact_h3(i, float(tt)) for tt in t]
            assert all(isinstance(v, float) for v in bounds)
            assert envelope.grigoryan_bound_exact_h3(i, t) == pytest.approx(bounds, rel=1e-15)

    def test_iterated_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            envelope.h3_exact_diagonal_f_iterated(2, np.array([1.0, 0.0]))
        with pytest.raises(ValueError):
            envelope.grigoryan_bound_exact_h3(1, -1.0)

    @pytest.mark.parametrize("t", [math.nan, math.inf, np.array([1.0, math.nan])],
                             ids=["nan", "inf", "nan_entry"])
    def test_iterated_rejects_non_finite_time(self, t):
        for i in (0, 1):
            with pytest.raises(ValueError, match="time must be positive and finite"):
                envelope.h3_exact_diagonal_f_iterated(i, t)
        with pytest.raises(ValueError, match="time must be positive and finite"):
            envelope.grigoryan_bound_exact_h3(1, t)

    def test_coarse_certificate_raises_naming_the_site(self, monkeypatch, coarse_certifier):
        monkeypatch.setattr(envelope, "_ITERATED_RULE", oracle.gl_rule([0.0, 1.0]))
        with pytest.raises(oracle.QuadratureError,
                           match=r"h3 diagonal iterated integral quadrature not certified at "
                                 r"i=2, t=0\.5"):
            envelope.h3_exact_diagonal_f_iterated(2, np.array([0.5, 30.0]))


class TestRecurrenceGrid:
    def test_first_step_gamma(self):
        grid = recurrence_grid(0.1, i_max=3, l_max=1)
        assert grid.gamma[1, 1] == pytest.approx(grid.lam / 2.0, abs=1e-15)

    def test_built_at_the_given_lambda(self):
        # no round trip through epsilon = (1 - lam)/(1 + lam) moves lam by an ulp
        for lam in (0.25, 0.5, 0.75, 0.9):
            grid = recurrence_grid(lam, i_max=2, l_max=1)
            assert grid.lam == lam and grid.gamma[1, 1] == 0.5 * lam

    def test_column_zero_pinned(self):
        grid = recurrence_grid(0.3, i_max=4, l_max=50)
        assert np.all(grid.beta[:, 0] == 1.0)
        assert np.all(grid.gamma[:, 0] == 1.0)

    def test_initial_row(self):
        grid = recurrence_grid(0.3, i_max=4, l_max=5)
        assert np.all(grid.beta[0, 1:] == 0.0)
        assert np.all(grid.gamma[0, 1:] == 0.0)

    def test_convergence_lambda_three_quarters(self):
        grid = recurrence_grid(0.75, i_max=10, l_max=200)
        target = 0.5 ** np.arange(11)
        assert np.max(np.abs(grid.gamma[-1] - target)) < 1e-9

    def test_bounded_and_monotone(self):
        for lam in (0.25, 0.5, 0.9):
            grid = recurrence_grid(lam, i_max=8, l_max=120)
            for arr in (grid.beta, grid.gamma):
                assert np.min(arr) >= 0.0 and np.max(arr) <= 1.0
                assert np.all(arr[1:] >= arr[:-1])

    def test_rejects_bad_epsilon(self):
        for lam in (0.0, 1.0, np.array([0.5, 1.0]), np.array([[0.5]])):
            with pytest.raises(ValueError, match="lambda"):
                recurrence_grid(lam, 3, 3)

    @pytest.mark.parametrize("i_max, l_max", [(10, 200), (10, 0), (0, 7), (4, 1)])
    def test_lambda_array_equals_scalar_loop(self, i_max, l_max):
        lams = (0.25, 0.5, 0.75, 0.9)
        grids = recurrence_grid(np.array(lams), i_max, l_max)
        assert [grid.lam for grid in grids] == list(lams)
        for lam, grid in zip(lams, grids):
            beta, gamma = scalar_recurrence_reference(lam, i_max, l_max)
            one = recurrence_grid(lam, i_max, l_max)
            for got in (grid, one):
                assert got.beta.shape == got.gamma.shape == (l_max + 1, i_max + 1)
                assert got.beta.tobytes() == beta.tobytes()
                assert got.gamma.tobytes() == gamma.tobytes()


def scalar_recurrence_reference(lam, i_max, l_max):
    """(beta, gamma) of recurrence_grid stepped for one lambda at a time."""
    width = i_max + l_max + 2
    beta = np.zeros(width)
    gamma = np.zeros(width)
    beta[0] = gamma[0] = 1.0
    betas = [beta[: i_max + 1].copy()]
    gammas = [gamma[: i_max + 1].copy()]
    for _ in range(l_max):
        nb = np.zeros_like(beta)
        ng = np.zeros_like(gamma)
        nb[0] = ng[0] = 1.0
        nb[1:-1] = 0.5 * (beta[:-2] + beta[2:])
        ng[1:-1] = 0.5 * (lam * gamma[:-2] + gamma[2:])
        nb[-1] = 0.5 * beta[-2]
        ng[-1] = 0.5 * lam * gamma[-2]
        beta, gamma = nb, ng
        betas.append(beta[: i_max + 1].copy())
        gammas.append(gamma[: i_max + 1].copy())
    return np.asarray(betas), np.asarray(gammas)


class TestGammaLimit:
    def test_power_zero(self):
        assert gamma_limit_from_lambda((1.0 - 0.37) / (1.0 + 0.37), 0) == 1.0

    def test_lambda_three_quarters(self):
        for i in range(6):
            assert gamma_limit_from_lambda(0.75, i) == pytest.approx(2.0 ** -i, rel=1e-14)

    def test_epsilon_to_zero(self):
        for i in (1, 3, 7):
            assert gamma_limit_from_lambda((1.0 - 1e-12) / (1.0 + 1e-12), i) == pytest.approx(
                1.0, abs=1e-4)


class TestRhsShapes:
    def test_theorem1_origin_reduction(self):
        val = theorem1_rhs(H3, 2, 1.0, 0.0, 0.25)
        assert float(val) == pytest.approx(-(1 - 0.25) * H3.rho_norm ** 2, abs=1e-14)

    def test_gradient_ratio_exact(self):
        for t in (0.3, 1.0, 7.0):
            log_ratio = float(theorem1_rhs(H3, 1, t, 2.0, 0.1)) \
                - float(gradient_rhs_log(H3, t, 2.0, 0.1))
            assert log_ratio == pytest.approx(-0.5 * math.log(t), abs=1e-12)

    def test_gradient_origin(self):
        t = 2.0
        expected = t ** (-(H3.n + 1) / 2.0) * math.exp(-(1 - 0.1) * H3.rho_norm ** 2 * t)
        assert math.exp(float(gradient_rhs_log(H3, t, 0.0, 0.1))) == pytest.approx(expected,
                                                                        rel=1e-13)

    @pytest.mark.parametrize("epsilon", [1.5, 1.0, 0.0, -0.2, math.nan])
    def test_gradient_epsilon_is_checked_like_theorem1(self, epsilon):
        # at 1.5 the shape would grow with r: +2.0 at (t, r) = (1, 2)
        for rhs in (lambda: theorem1_rhs(H3, 1, 1.0, 2.0, epsilon),
                    lambda: gradient_rhs_log(H3, 1.0, 2.0, epsilon)):
            with pytest.raises(ValueError, match=r"epsilon must lie in \(0, 1\)"):
                rhs()

    def test_gradient_dominates_radial_gradient(self):
        coarse = grid_points((0.05, 20.0), (0.1, 20.0), 30, 30)
        fine = grid_points((0.05, 20.0), (0.1, 20.0), 120, 120)
        fit = two_grid_fit(
            oracle.h3_radial_log_abs,
            lambda t, r: envelope.gradient_rhs_log(H3, t, r, 0.1),
            coarse, fine,
        )
        assert fit.stable_within(1.05)


class TestLiYau:
    def test_gap_nonnegative_on_grid(self):
        for t in np.geomspace(0.1, 10.0, 10):
            for r in np.linspace(0.1, 10.0, 10):
                assert li_yau_gap(H3, float(t), float(r), 2.0) >= 0.0

    def test_long_time_limit(self):
        # LHS -> (coth r - 1/r)^2 + gamma, RHS -> its constant term
        r = 3.0
        gap = li_yau_gap(H3, 1e6, r, 2.0)
        constant = float(li_yau_rhs(3, 2.0, 1e6, 2.0))
        lhs_limit = (1.0 / math.tanh(r) - 1.0 / r) ** 2 + 2.0
        assert gap == pytest.approx(constant - lhs_limit, abs=1e-3)

    def test_rhs_shape_fit(self):
        ts = np.geomspace(0.1, 10.0, 40)
        c = float(np.max(li_yau_rhs(3, 2.0, ts, 2.0) / ((1 + ts) / ts)))
        tf = np.geomspace(0.1, 10.0, 400)
        cf = float(np.max(li_yau_rhs(3, 2.0, tf, 2.0) / ((1 + tf) / tf)))
        assert cf <= 1.05 * c

    def test_h2_spot_check(self):
        assert li_yau_gap(H2, 1.0, 1.0, 2.0) >= 0.0

    @pytest.mark.parametrize("gamma", [math.nan, math.inf, 1.0, 0.5])
    def test_gamma_must_be_finite_and_above_one(self, gamma):
        with pytest.raises(ValueError, match="finite gamma > 1"):
            li_yau_gap(H3, 1.0, 2.0, gamma)
        with pytest.raises(ValueError, match="finite gamma > 1"):
            li_yau_rhs(3, 2.0, np.array([0.5, 1.0]), gamma)

    # 1e300 made Python's gamma ** 2 raise OverflowError; from about 5.5e153
    # on, 6 gamma^2 overflows and the gap read inf, though the term is finite
    @pytest.mark.parametrize("gamma", [1e300, 1.35e154, 1e154])
    def test_an_overflowing_gamma_is_named(self, gamma):
        with pytest.raises(ValueError, match=re.escape(f"overflows at gamma={gamma!r}")):
            li_yau_rhs(3, 2.0, np.array([0.5, 1.0]), gamma)
        for model in (H2, H3):
            with pytest.raises(ValueError, match=re.escape(f"overflows at gamma={gamma!r}")):
                li_yau_gap(model, 1.0, 2.0, gamma)

    def test_rhs_keeps_the_bits_of_its_expression(self):
        for gamma in [1.0 + 1e-12, 1.5, 2.0, math.pi, 1e3, 1e150, 5e153]:
            # from t = 10 on, 3 gamma^2/(2t) stays finite at 5e153
            t = np.geomspace(10.0 if gamma > 1e153 else 1e-3, 1e3, 7)
            expected = 3 * 2.0 * gamma ** 2 / (math.sqrt(2.0) * (gamma - 1.0)) \
                + 3 * gamma ** 2 / (2.0 * t)
            assert li_yau_rhs(3, 2.0, t, gamma).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("t, r", [(np.array([1.0, 2.0]), 1.0), (1.0, np.array([1.0]))])
    def test_h2_takes_scalars_only(self, t, r):
        with pytest.raises(ValueError, match="plane Li-Yau gap takes a scalar"):
            li_yau_gap(H2, t, r, 2.0)

    # the liyau suite's mesh, and points where C pow rounds the squared
    # r-slope differently from slope * slope
    @pytest.mark.parametrize("t, r", [
        (np.geomspace(0.1, 10.0, 30)[:, None], np.linspace(0.1, 10.0, 30)),
        (np.array([0.5, 0.5, 0.5, 2.0, 3.0]), np.array([4.0, 4.14, 7.3, 5.79, 3.09]))],
        ids=["mesh", "pow_rounds_apart"])
    def test_h3_array_equals_scalar_calls(self, t, r):
        gaps = li_yau_gap(H3, t, r, 2.0)
        assert gaps.shape == np.broadcast(t, r).shape
        for index in np.ndindex(gaps.shape):
            tk, rk = (float(np.broadcast_to(a, gaps.shape)[index]) for a in (t, r))
            one = li_yau_gap(H3, tk, rk, 2.0)
            assert isinstance(one, float)
            assert np.float64(one).tobytes() == gaps[index].tobytes() \
                == np.float64(h3_gap_reference(tk, rk, 2.0)).tobytes()

    def test_h2_checks_gamma_before_the_oracle_passes(self):
        oracle._h2_float_pass.cache_clear()
        with pytest.raises(ValueError, match="finite gamma > 1"):
            li_yau_gap(H2, 1.0, 2.0, math.nan)
        assert oracle._h2_float_pass.cache_info().misses == 0

    def test_rejects_gamma_at_most_one(self):
        with pytest.raises(ValueError):
            li_yau_gap(H3, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("t, r", [(0.05, 13.0), (0.01, 6.0)])
    def test_h2_underflowed_kernel_is_named(self, t, r):
        # r^2/4t = 845 and 900: exp(h2_log) is 0, which the gap divides by
        assert math.exp(oracle.h2_log(t, r)) == 0.0
        with pytest.raises(ValueError, match=f"underflows to 0 at t={t!r}, r={r!r}"):
            li_yau_gap(H2, t, r, 2.0)


def h3_gap_reference(t, r, gamma):
    """The 3-space Li-Yau gap in scalar float arithmetic."""
    slope = 1.0 / r - 1.0 / float(np.tanh(r)) - r / (2.0 * t)
    lhs = slope * slope - gamma * float(oracle.h3_dt_prefactor(t, r, 1))
    return float(li_yau_rhs(3, 2.0, t, gamma)) - lhs


class TestGridPoints:
    def test_axes_broadcast_to_the_mesh(self):
        t, r = grid_points((0.01, 30.0), (0.0, 20.0), 7, 5)
        assert t.shape == (7, 1) and r.shape == (1, 5)
        T, R = np.broadcast_arrays(t, r)
        assert T.shape == R.shape == (7, 5)
        dense = np.meshgrid(np.geomspace(0.01, 30.0, 7), np.linspace(0.0, 20.0, 5),
                            indexing="ij")
        assert np.array_equal(T, dense[0]) and np.array_equal(R, dense[1])

    @pytest.mark.parametrize("fit", ["theorem1", "gradient", "envelope"])
    def test_fits_equal_the_dense_mesh(self, fit):
        log_oracle, log_bound = {
            "theorem1": (lambda t, r: oracle.h3_dt_log_abs(t, r, 2)[0],
                         lambda t, r: theorem1_rhs(H3, 2, t, r, 0.1)),
            "gradient": (H3.radial_log_abs, lambda t, r: gradient_rhs_log(H3, t, r, 0.1)),
            "envelope": (H3.log_kernel, lambda t, r: sharp_envelope_log(H3, t, r)),
        }[fit]
        t_range, r_range = (0.05, 20.0), (0.1, 20.0)
        grids = [grid_points(t_range, r_range, n, n) for n in (30, 120)]
        dense = [np.meshgrid(np.geomspace(*t_range, n), np.linspace(*r_range, n), indexing="ij")
                 for n in (30, 120)]
        for sparse, full in zip(grids, dense):
            assert np.array_equal(log_oracle(*sparse), log_oracle(*full))
            assert np.array_equal(log_bound(*sparse), log_bound(*full))
            assert fit_constant(log_oracle, log_bound, sparse) == \
                fit_constant(log_oracle, log_bound, full)
        assert two_grid_fit(log_oracle, log_bound, *grids) == \
            two_grid_fit(log_oracle, log_bound, *dense)

    def test_fit_broadcasts_an_evaluator_of_one_axis(self):
        grid = grid_points((0.1, 10.0), (0.0, 5.0), 10, 10)
        assert fit_constant(lambda t, r: 0.0 * t, lambda t, r: -r, grid) == math.exp(5.0)


class TestFitConstant:
    def test_identity(self):
        grid = grid_points((0.1, 10.0), (0.0, 5.0), 10, 10)
        f = lambda t, r: -t - r
        assert fit_constant(f, f, grid) == pytest.approx(1.0, rel=1e-14)

    def test_factor_two(self):
        grid = grid_points((0.1, 10.0), (0.0, 5.0), 10, 10)
        f = lambda t, r: -t - r
        g = lambda t, r: -t - r + math.log(2.0)
        assert fit_constant(g, f, grid) == pytest.approx(2.0, rel=1e-13)

    def test_shape_mismatch_detected(self):
        grid = grid_points((0.1, 10.0), (0.0, 5.0), 10, 10)
        with pytest.raises(ShapeMismatchError):
            fit_constant(lambda t, r: 1000.0 * t, lambda t, r: -1000.0 * t, grid)

    def test_theorem1_two_grid_protocol(self):
        def log_oracle(t, r):
            log_abs, _ = oracle.h3_dt_log_abs(t, r, 1)
            return log_abs

        fit = two_grid_fit(
            log_oracle,
            lambda t, r: theorem1_rhs(H3, 1, t, r, 0.1),
            grid_points((0.01, 30.0), (0.0, 20.0), 30, 30),
            grid_points((0.01, 30.0), (0.0, 20.0), 120, 120),
        )
        assert math.isfinite(fit.c_coarse) and fit.c_coarse > 0.0
        assert fit.stable_within(1.05)
