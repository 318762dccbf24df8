import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from heatlab import lpthresholds, oracle
from heatlab.lpthresholds import (
    ThresholdInput,
    Verdict,
    chamber_integral_verdict,
    heat_integrand_rate,
    heat_verdict,
    riesz_kernel_decay,
    sigma_threshold_heat,
    sigma_threshold_poisson,
    st_norm_certificate,
    st_norm_rate,
)
from heatlab.rootspace import build_real_hyperbolic, s_p

H3 = build_real_hyperbolic(3)


def riesz_integrand(t: float, r: float) -> float:
    """The scalar gradient-kernel time integrand |d_r h_t| / sqrt(t), for quad."""
    return math.exp(float(oracle.h3_radial_log_abs(t, r))) / math.sqrt(t)


def mp_riesz_integral(r: float, lo: float, hi: float) -> float:
    """The time integral over [lo, hi] in mpmath, on 12 panels uniform in
    log t (tanh-sinh needs the 40 digits where the integrand is steep)."""
    with mpmath.workdps(40):
        r, lo, hi = mpmath.mpf(r), mpmath.mpf(lo), mpmath.mpf(hi)

        def f(t):
            kernel = ((4 * mpmath.pi * t) ** mpmath.mpf(-1.5) * r / mpmath.sinh(r)
                      * mpmath.exp(-t - r * r / (4 * t)))
            return kernel * (mpmath.coth(r) - 1 / r + r / (2 * t)) / mpmath.sqrt(t)

        return float(mpmath.quad(f, [lo * (hi / lo) ** (mpmath.mpf(k) / 12) for k in range(13)]))


def thresholds_suite_inputs() -> list[tuple[ThresholdInput, float, float]]:
    """The (input, sigma, epsilon) of every verdict the thresholds suite asks
    for: 9 (p, eta) cells, sigma at 0.9 and 1.1 of the threshold, 12 epsilons."""
    inputs = []
    for p in (1.5, 2.0, 4.0):
        for eta in (0.0, 0.3, 0.7):
            inp = ThresholdInput(p=p, rho_norm=1.0, eta_norm=eta)
            threshold = sigma_threshold_heat(inp)
            for sigma in (0.9 * threshold, 1.1 * threshold):
                for eps in np.geomspace(1e-4, 0.1, 12).tolist():
                    inputs.append((inp, sigma, eps))
    return inputs


def mp_frontier_rate(a: float, b, r_max: float):
    """(f(R) - f(R - dr))/dr for f = a log1p(r) + b r at 40 digits, with the
    verdict's step dr = min(1, R/100)."""
    with mpmath.workdps(40):
        a, b, big = mpmath.mpf(a), mpmath.mpf(b), mpmath.mpf(r_max)
        dr = min(mpmath.mpf(1), big / 100)

        def f(r):
            return a * mpmath.log1p(r) + b * r

        return (f(big) - f(big - dr)) / dr


def mp_heat_verdict(inp: ThresholdInput, sigma: float, eps: float, r_max: float):
    """The heat verdict from the rate and the frontier difference quotient,
    both at 40 digits; also the reference rate (None without decay)."""
    with mpmath.workdps(40):
        rho, eta, sigma, eps = (mpmath.mpf(v) for v in (inp.rho_norm, inp.eta_norm, sigma, eps))
        inner = rho ** 2 - sigma / (1 - eps)
        if inner < 0:
            return Verdict.DIVERGENT, None
        s = mpmath.mpf(s_p(inp.p))  # 2 min(1/p, 1 - 1/p): exact for these p
        b = (1 + eps - s) * rho + s * eta - (1 - eps) * mpmath.sqrt(inner)
        rate = mp_frontier_rate(1.0, b, r_max)
        if rate < -mpmath.mpf("0.02"):
            return Verdict.FINITE, rate
        if rate > mpmath.mpf("0.02"):
            return Verdict.DIVERGENT, rate
        return Verdict.INCONCLUSIVE, rate


class TestHeatThreshold:
    def test_reference_point(self):
        inp = ThresholdInput(p=2.0, rho_norm=1.0, eta_norm=0.0)
        assert sigma_threshold_heat(inp) == 1.0
        assert sigma_threshold_heat(inp) == 4.0 * 1.0 / (2.0 * 2.0)

    def test_eta_zero_general_p(self):
        for p in (1.3, 2.0, 3.7, 11.0):
            inp = ThresholdInput(p=p, rho_norm=1.0, eta_norm=0.0)
            s = s_p(p)
            assert sigma_threshold_heat(inp) == pytest.approx(s * (2.0 - s), rel=1e-14)
            assert sigma_threshold_heat(inp) == pytest.approx(4.0 / (p * (p / (p - 1.0))),
                                                              rel=1e-12)

    def test_vanishes_at_closing_gap(self):
        vals = [sigma_threshold_heat(ThresholdInput(p=2.0, rho_norm=1.0, eta_norm=e))
                for e in (0.9, 0.99, 0.999)]
        assert vals == sorted(vals, reverse=True)
        assert vals[-1] < 0.01

    def test_monotone_decreasing_in_eta(self):
        etas = np.linspace(0.0, 0.95, 30)
        vals = [sigma_threshold_heat(ThresholdInput(p=3.0, rho_norm=1.0, eta_norm=float(e)))
                for e in etas]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_maximized_at_p_two(self):
        ref = sigma_threshold_heat(ThresholdInput(p=2.0, rho_norm=1.0, eta_norm=0.3))
        for p in (1.2, 1.7, 2.6, 8.0):
            assert sigma_threshold_heat(ThresholdInput(p=p, rho_norm=1.0, eta_norm=0.3)) <= ref

    def test_rejects_eta_at_rho(self):
        with pytest.raises(ValueError):
            ThresholdInput(p=2.0, rho_norm=1.0, eta_norm=1.0)


class TestPoissonThreshold:
    def test_reference_point(self):
        inp = ThresholdInput(p=2.0, rho_norm=1.0, eta_norm=0.0)
        assert sigma_threshold_poisson(inp) == 1.0
        assert sigma_threshold_poisson(inp) == pytest.approx(2.0 / math.sqrt(4.0), rel=1e-14)

    @settings(max_examples=150, deadline=None)
    @given(st.floats(1.01, 40.0), st.floats(0.05, 3.0), st.floats(0.0, 0.99))
    def test_square_relation(self, p, rho, eta_frac):
        inp = ThresholdInput(p=p, rho_norm=rho, eta_norm=eta_frac * rho)
        assert sigma_threshold_poisson(inp) ** 2 == pytest.approx(
            sigma_threshold_heat(inp), abs=1e-12)

    def test_monotone_decreasing_in_eta(self):
        etas = np.linspace(0.0, 0.9, 20)
        vals = [sigma_threshold_poisson(ThresholdInput(p=2.5, rho_norm=1.0, eta_norm=float(e)))
                for e in etas]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestChamberIntegral:
    def test_pure_exponential_finite(self):
        out = chamber_integral_verdict((0.0, -1.0), r_max=60.0)
        assert out.verdict == Verdict.FINITE
        assert out.effective_rate == pytest.approx(-1.0, abs=1e-12)

    def test_growing_integrand_divergent(self):
        out = chamber_integral_verdict((0.0, 0.5), r_max=200.0)
        assert out.verdict == Verdict.DIVERGENT
        assert out.effective_rate == pytest.approx(0.5, abs=1e-6)

    def test_flat_rate_inconclusive(self):
        out = chamber_integral_verdict((0.0, 0.001), r_max=100.0)
        assert out.verdict == Verdict.INCONCLUSIVE

    def test_below_threshold_reference_case(self):
        inp = ThresholdInput(p=2.0, rho_norm=1.0, eta_norm=0.0)
        sigma = 0.9 * sigma_threshold_heat(inp)
        rate = heat_integrand_rate(1.0, 0.0, 2.0, sigma, 0.01)
        assert rate < -0.02
        out = heat_verdict(inp, sigma, 0.01, model=H3, r_max=2000.0)
        assert out.verdict == Verdict.FINITE

    def test_above_threshold_reference_case(self):
        inp = ThresholdInput(p=2.0, rho_norm=1.0, eta_norm=0.0)
        sigma = 1.1 * sigma_threshold_heat(inp)
        for eps in np.geomspace(1e-4, 0.1, 8):
            out = heat_verdict(inp, sigma, float(eps), model=H3, r_max=2000.0)
            assert out.verdict == Verdict.DIVERGENT

    def test_rate_undefined_when_sigma_too_large(self):
        with pytest.raises(ValueError):
            heat_integrand_rate(1.0, 0.0, 2.0, 1.2, 0.05)

    @pytest.mark.parametrize("a, b, r_max", [(0.0, -1.0, 60.0), (1.0, -0.5, 100.0),
                                             (0.5, 0.3, 200.0), (1.0, 0.001, 100.0),
                                             (0.0, 0.0, 60.0), (1.0, -1.2, 1000.0),
                                             (1.0, -0.01, 0.5)])
    def test_frontier_rate_matches_mpmath(self, a, b, r_max):
        rate = chamber_integral_verdict((a, b), r_max=r_max).effective_rate
        assert rate == pytest.approx(float(mp_frontier_rate(a, b, r_max)), rel=1e-12, abs=1e-13)

    def test_suite_verdicts_need_no_quadrature_and_match_mpmath(self, monkeypatch):
        def no_quadrature(*args, **kwargs):
            raise AssertionError("a threshold verdict ran a quadrature")

        monkeypatch.setattr(oracle, "gl_certified", no_quadrature)
        monkeypatch.setattr(oracle, "gl_rule", no_quadrature)
        inputs = thresholds_suite_inputs()
        assert len(inputs) == 216
        seen = set()
        for inp, sigma, eps in inputs:
            got = heat_verdict(inp, sigma, eps, model=H3, r_max=2000.0)
            want, rate = mp_heat_verdict(inp, sigma, eps, 2000.0)
            assert got.verdict == want, (inp, sigma, eps, got, rate)
            # at p = 2, eta = 0, eps = 0.1, sigma = 0.9 = (1 - eps) rho^2 the
            # radicand is 0 in floats and -3e-17 at 40 digits: both divergent
            if rate is not None and got.effective_rate < math.inf:
                # no reference rate sits within float error of the margin
                assert abs(abs(rate) - mpmath.mpf("0.02")) > 1e-9
                assert got.effective_rate == pytest.approx(float(rate), rel=1e-10, abs=1e-12)
            seen.add(want)
        assert seen == set(Verdict)

    def test_no_decay_rate_reads_divergent(self):
        inp = ThresholdInput(p=2.0, rho_norm=1.0, eta_norm=0.0)
        out = heat_verdict(inp, 1.2, 0.05, model=H3)
        assert out.verdict == Verdict.DIVERGENT and out.effective_rate == math.inf

    @pytest.mark.parametrize("eps", [1.5, 1.0, 0.0, -0.1, math.nan])
    def test_bad_epsilon_raises(self, eps):
        inp = ThresholdInput(p=2.0, rho_norm=1.0, eta_norm=0.0)
        for sigma in (0.5, 1.2):  # with and without a decay rate at eps in (0, 1)
            with pytest.raises(ValueError, match="epsilon"):
                heat_verdict(inp, sigma, eps, model=H3)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf])
    def test_non_finite_sigma_raises(self, sigma):
        inp = ThresholdInput(p=2.0, rho_norm=1.0, eta_norm=0.0)
        with pytest.raises(ValueError, match="sigma"):
            heat_verdict(inp, sigma, 0.05, model=H3)
        with pytest.raises(ValueError, match="sigma"):
            heat_integrand_rate(1.0, 0.0, 2.0, sigma, 0.05)

    @pytest.mark.parametrize("rates, r_max", [((0.0, math.nan), 100.0), ((math.inf, -1.0), 100.0),
                                              ((0.0, -1.0), 0.0), ((0.0, -1.0), math.nan),
                                              ((0.0, -1.0), math.inf)],
                             ids=["nan_rate", "inf_power", "zero_frontier", "nan_frontier",
                                  "inf_frontier"])
    def test_rejects_non_finite_rates_and_frontiers(self, rates, r_max):
        with pytest.raises(ValueError):
            chamber_integral_verdict(rates, r_max=r_max)


class TestStNorm:
    def test_zero_epsilon_rate(self):
        for p in (1.5, 2.0, 4.0):
            for eta in (0.0, 0.4, 0.9):
                rate = st_norm_rate(H3, eta, p, 0.0)
                assert rate == pytest.approx(s_p(p) * (eta - 1.0), abs=1e-14)
                assert rate < 0.0

    def test_certificate_exists(self):
        for eta in (0.0, 0.5, 0.9, 0.99):
            found, eps = st_norm_certificate(H3, eta, 2.0)
            assert found and eps > 0.0
            assert st_norm_rate(H3, eta, 2.0, eps) < 0.0

    def test_window_shrinks_as_gap_closes(self):
        def largest_good_eps(eta):
            best = 0.0
            for eps in np.linspace(1e-4, 0.99, 400):
                if st_norm_rate(H3, eta, 2.0, float(eps)) < 0.0:
                    best = float(eps)
            return best

        assert largest_good_eps(0.0) > largest_good_eps(0.5) > largest_good_eps(0.95) > 0.0

    def test_rejects_epsilon_at_rho_squared(self):
        with pytest.raises(ValueError):
            st_norm_rate(H3, 0.0, 2.0, 1.0)
        with pytest.raises(ValueError):
            st_norm_rate(H3, 0.0, 2.0, math.nan)

    @pytest.mark.parametrize("eta", [math.nan, math.inf, -math.inf, -0.5])
    def test_rejects_non_finite_or_negative_eta(self, eta):
        with pytest.raises(ValueError, match="eta_norm"):
            st_norm_rate(H3, eta, 2.0, 0.5)
        with pytest.raises(ValueError, match="eta_norm"):
            st_norm_certificate(H3, eta, 2.0)


class TestRieszDecay:
    @pytest.mark.parametrize("r", [math.nan, math.inf, 0.0])
    def test_rejects_r(self, r):
        with pytest.raises(ValueError, match=r"^r must be positive and finite"):
            riesz_kernel_decay("h3", r)

    def test_finite_across_range(self):
        for r in (0.5, 2.0, 7.0, 15.0):
            res = riesz_kernel_decay("h3", r)
            assert math.isfinite(res.value) and res.value > 0.0
            assert res.tail_small_t + res.tail_large_t <= 1e-12 * res.value

    def test_decreasing_in_r(self):
        values = [riesz_kernel_decay("h3", r).value for r in (1.0, 2.0, 4.0, 8.0, 12.0)]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_asymptotic_log_slope(self):
        lo = riesz_kernel_decay("h3", 14.5)
        hi = riesz_kernel_decay("h3", 15.5)
        slope = math.log(hi.value) - math.log(lo.value)
        assert abs(slope - (-2.0)) <= 0.2

    def test_split_recombination(self):
        r = 3.0
        res = riesz_kernel_decay("h3", r)
        full, _ = quad(riesz_integrand, r * r / 3200.0, 750.0, args=(r,),
                       epsabs=1e-300, epsrel=1e-13, limit=500)
        assert res.value_small_t + res.value_large_t == pytest.approx(full, rel=1e-10)

    @pytest.mark.parametrize("r", [0.5, 4.0, 14.5, 15.0, 15.5])
    def test_pieces_match_quad_and_mpmath(self, r):
        res = riesz_kernel_decay("h3", r)
        t_lo = r * r / 3200.0
        for got, (lo, hi) in ((res.value_small_t, (t_lo, 1.0)), (res.value_large_t, (1.0, 750.0))):
            ref_quad, _ = quad(riesz_integrand, lo, hi, args=(r,), epsabs=1e-300, epsrel=1e-13,
                               limit=500)
            assert got == pytest.approx(ref_quad, rel=1e-12)
            assert got == pytest.approx(mp_riesz_integral(r, lo, hi), rel=1e-12)

    def test_unsplit_pass_on_other_panels_matches_the_split_sum(self):
        for r in (0.5, 4.0, 15.5):
            res = riesz_kernel_decay("h3", r)
            full = lpthresholds.riesz_time_integral(r, (r * r / 3200.0, 750.0), panels=17)
            assert full.shape == (1,)
            assert res.value_small_t + res.value_large_t == pytest.approx(full[0], rel=1e-13)

    def test_coarse_certificate_raises_naming_the_site(self, monkeypatch, coarse_certifier):
        monkeypatch.setitem(lpthresholds._RIESZ_RULES, 12,
                            oracle.gl_rule(np.linspace(0.0, 1.0, 13)))
        with pytest.raises(oracle.QuadratureError,
                           match=r"gradient-kernel time integral quadrature not certified at "
                                 r"r=4\.0, t_lo=0\.005, t_hi=1\.0"):
            riesz_kernel_decay("h3", 4.0)

    def test_rejects_other_spaces(self):
        with pytest.raises(ValueError):
            riesz_kernel_decay("h2", 1.0)
