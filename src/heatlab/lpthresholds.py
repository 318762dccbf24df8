"""Closed-form boundedness thresholds and the chamber integrals behind them.

The maximal and square-function operators built on the heat semigroup are
bounded on L^p exactly when a weighted chamber integral converges; this
module evaluates the closed-form thresholds, classifies the integrals by
their frontier log-slope, certifies the exponential norm decay of the
semigroup derivative, and integrates the gradient-kernel decay.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.integrate import quad

from . import oracle
from .rootspace import SpaceModel, s_p


class Verdict(str, Enum):
    FINITE = "finite"
    DIVERGENT = "divergent"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class ThresholdInput:
    """Inputs of the threshold formulas: integrability exponent p, the decay
    scale rho_norm, and the spectral-gap offset eta_norm = sqrt(rho^2 - l0)
    supplied by the user (never computed here)."""

    p: float
    rho_norm: float
    eta_norm: float
    sigma: float = 0.0

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError("p must lie in (1, inf)")
        if self.rho_norm <= 0.0:
            raise ValueError("rho_norm must be positive")
        if not 0.0 <= self.eta_norm < self.rho_norm:
            raise ValueError("need 0 <= eta_norm < rho_norm (positive spectral gap)")


def sigma_threshold_heat(inp: ThresholdInput) -> float:
    """Largest admissible weight exponent for the heat maximal and square
    functions: s(p) (rho - eta) (2 rho - s(p) (rho - eta))."""
    s = s_p(inp.p)
    gap = inp.rho_norm - inp.eta_norm
    return s * gap * (2.0 * inp.rho_norm - s * gap)


def sigma_threshold_poisson(inp: ThresholdInput) -> float:
    """Poisson-semigroup analogue: the square root of the heat threshold."""
    return math.sqrt(sigma_threshold_heat(inp))


@dataclass(frozen=True)
class IntegralVerdict:
    verdict: Verdict
    effective_rate: float
    cutoffs: tuple[float, ...]
    log_partial_values: tuple[float, ...]

    @property
    def partial_values(self) -> tuple[float, ...]:
        return tuple(math.exp(v) if v < 700 else math.inf for v in self.log_partial_values)


def chamber_integral_verdict(model: SpaceModel, integrand_rates: tuple[float, float],
                             r_max: float = 1000.0, n_cutoffs: int = 8,
                             margin: float = 0.02) -> IntegralVerdict:
    """Classify int_0^R (1+r)^a e^{b r} dr by the measured log-slope of the
    integrand at the integration frontier.

    Partial values are accumulated in log space at geometrically expanding
    cutoffs.  Finite needs slope < -margin, divergent slope > +margin,
    otherwise inconclusive.  Rank-one models only: the chamber is a ray.
    """
    if model.rank != 1:
        raise ValueError("chamber integral reduction applies to rank-one models")
    if r_max <= 0.0 or n_cutoffs < 2:
        raise ValueError("need r_max > 0 and at least two cutoffs")
    a, b = float(integrand_rates[0]), float(integrand_rates[1])
    cutoffs = r_max * 2.0 ** np.arange(-(n_cutoffs - 1), 1, dtype=float)

    def log_integrand(r: float) -> float:
        return a * math.log1p(r) + b * r

    log_partials = []
    log_total = -math.inf
    lo = 0.0
    for hi in cutoffs:
        scale = max(log_integrand(lo), log_integrand(hi))
        piece, _ = quad(lambda r: math.exp(log_integrand(r) - scale), lo, hi,
                        epsabs=1e-14, epsrel=1e-10, limit=300)
        log_piece = scale + math.log(max(piece, 1e-300))
        log_total = np.logaddexp(log_total, log_piece)
        log_partials.append(float(log_total))
        lo = hi
    frontier = cutoffs[-1]
    dr = min(1.0, frontier / 100.0)
    rate = (log_integrand(frontier) - log_integrand(frontier - dr)) / dr
    if rate < -margin:
        verdict = Verdict.FINITE
    elif rate > margin:
        verdict = Verdict.DIVERGENT
    else:
        verdict = Verdict.INCONCLUSIVE
    return IntegralVerdict(
        verdict=verdict,
        effective_rate=float(rate),
        cutoffs=tuple(float(c) for c in cutoffs),
        log_partial_values=tuple(log_partials),
    )


def heat_integrand_rate(rho_norm: float, eta_norm: float, p: float, sigma: float,
                        epsilon: float) -> float:
    """Exponential rate of the weighted chamber integrand for the heat
    maximal operator: (1 + eps - s(p)) rho + s(p) eta
    - (1 - eps) sqrt(rho^2 - sigma/(1 - eps)).

    Raises when sigma >= (1 - eps) rho^2: the in-time supremum of the
    weighted kernel already diverges there, so no Gaussian decay remains.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    s = s_p(p)
    inner = rho_norm ** 2 - sigma / (1.0 - epsilon)
    if inner < 0.0:
        raise ValueError(f"sigma={sigma} exceeds (1-eps) rho^2; no decay rate exists")
    return (1.0 + epsilon - s) * rho_norm + s * eta_norm - (1.0 - epsilon) * math.sqrt(inner)


def heat_verdict(inp: ThresholdInput, sigma: float, epsilon: float,
                 a_exp: float | None = None, model: SpaceModel | None = None,
                 r_max: float = 1000.0) -> IntegralVerdict:
    """Chamber-integral verdict for the heat maximal weight sigma at a given
    epsilon; a sigma with no decay rate at all is classified divergent."""
    from .rootspace import build_real_hyperbolic

    if model is None:
        model = build_real_hyperbolic(3)
    if a_exp is None:
        a_exp = model.A_exp
    try:
        rate = heat_integrand_rate(inp.rho_norm, inp.eta_norm, inp.p, sigma, epsilon)
    except ValueError:
        return IntegralVerdict(verdict=Verdict.DIVERGENT, effective_rate=math.inf,
                               cutoffs=(), log_partial_values=())
    return chamber_integral_verdict(model, (a_exp, rate), r_max=r_max)


def st_norm_rate(model: SpaceModel, eta_norm: float, p: float, epsilon: float) -> float:
    """Exponential rate of the chamber integral controlling the semigroup
    time-derivative norm for t >= 1:
    (1 - s(p) + eps) rho - (1 - eps) sqrt(rho^2 - eps) + s(p) eta.
    A negative rate certifies norm decay e^{-eps t}."""
    rho = model.rho_norm
    if epsilon < 0.0 or epsilon >= rho * rho:
        raise ValueError(f"epsilon must lie in [0, rho^2), got {epsilon}")
    s = s_p(p)
    return (1.0 - s + epsilon) * rho - (1.0 - epsilon) * math.sqrt(rho * rho - epsilon) \
        + s * eta_norm


def st_norm_certificate(model: SpaceModel, eta_norm: float, p: float,
                        eps_grid=None) -> tuple[bool, float]:
    """Scan for a positive epsilon with negative rate; returns (found, eps).
    Such an epsilon exists whenever eta_norm < rho_norm."""
    if eps_grid is None:
        eps_grid = np.geomspace(1e-6, min(0.5, model.rho_norm ** 2 * 0.99), 60)
    for eps in sorted(float(e) for e in eps_grid):
        if eps <= 0.0 or eps >= model.rho_norm ** 2:
            continue
        if st_norm_rate(model, eta_norm, p, eps) < 0.0:
            return True, eps
    return False, math.nan


@dataclass(frozen=True)
class RieszDecay:
    value: float
    bound: float
    value_small_t: float
    value_large_t: float
    tail_small_t: float
    tail_large_t: float


def _riesz_integrand(t: float, r: float) -> float:
    # riesz_kernel_decay has checked r > 0 and integrates over t > 0 only
    return math.exp(float(oracle._h3_radial_log_abs_unchecked(t, r))) / math.sqrt(t)


def riesz_kernel_decay(space: str, r: float, epsilon: float = 0.1,
                       t_cut: float = 1.0) -> RieszDecay:
    """Gradient-kernel time integral int_0^inf |d_r h_t| / sqrt(t) dt on the
    3-space, split at t_cut, with certified Gaussian (small t) and
    exponential (large t) tails; paired with the decay shape
    e^{-(1-eps)(<rho,H> + |rho| r)} for fitted-constant domination."""
    if space.lower() != "h3":
        raise ValueError("gradient-kernel integral is wired to the 3-space oracle")
    if r <= 0.0:
        raise ValueError("need r > 0")
    t_lo = r * r / 3200.0  # Gaussian phase r^2/(4t) = 800 at the lower cut
    t_hi = 750.0
    small, err_small = quad(_riesz_integrand, t_lo, min(t_cut, t_hi), args=(r,),
                            epsabs=1e-300, epsrel=1e-12, limit=400)
    large, err_large = quad(_riesz_integrand, min(t_cut, t_hi), t_hi, args=(r,),
                            epsabs=1e-300, epsrel=1e-12, limit=400)
    if err_small > 1e-8 * max(abs(small), 1e-280) or err_large > 1e-8 * max(abs(large), 1e-280):
        raise oracle.QuadratureError(f"gradient-kernel quadrature failed at r={r}")
    # The integrand is c0 e^{-t} e^{-q/t} [A t^{-2} + (r/2) t^{-3}] with
    # q = r^2/4, c0 = (4 pi)^{-3/2} r/sinh r, A = coth r - 1/r in (0, 1).
    # Small-t tail (e^{-t} <= 1): int_0^t0 t^{-k} e^{-q/t} dt
    # = q^{1-k} Gamma(k-1, x0), x0 = q/t0; Gamma(1,x) = e^{-x},
    # Gamma(2,x) = (1+x) e^{-x}.
    q = r * r / 4.0
    x0 = q / t_lo
    log_c0 = -1.5 * math.log(4.0 * math.pi) + float(oracle._log_r_over_sinh(r))
    log_tail_small = log_c0 + math.log(1.0 / q + (r / 2.0) * (1.0 + x0) / (q * q)) - x0
    tail_small = math.exp(log_tail_small) if log_tail_small > -740.0 else 0.0
    # Large-t tail (e^{-q/t} <= 1): int_T^inf e^{-t} t^{-k} dt <= T^{-k} e^{-T}.
    log_tail_large = log_c0 + math.log(1.0 / t_hi ** 2 + (r / 2.0) / t_hi ** 3) - t_hi
    tail_large = math.exp(log_tail_large) if log_tail_large > -740.0 else 0.0
    value = small + large
    bound = math.exp(-(1.0 - epsilon) * 2.0 * r)  # <rho,H> + |rho| r = 2r here
    return RieszDecay(value=value, bound=bound, value_small_t=small,
                      value_large_t=large, tail_small_t=tail_small,
                      tail_large_t=tail_large)


def maximal_kernel_bound(model: SpaceModel, sigma: float, epsilon: float, r,
                         branch: str = "infty"):
    """Pointwise bound for the weighted in-time suprema of the kernel
    derivative: e^{-(1-eps) <rho,H>} e^{-(1-eps) r sqrt(rho^2 - sigma/(1-eps))}.
    The zero_infty branch (small times, large distance) carries 2 eps."""
    if branch not in ("infty", "zero_infty"):
        raise ValueError(f"branch must be 'infty' or 'zero_infty', got {branch}")
    eff = epsilon if branch == "infty" else 2.0 * epsilon
    if not 0.0 < eff < 1.0:
        raise ValueError("effective epsilon must lie in (0, 1)")
    inner = model.rho_norm ** 2 - sigma / (1.0 - eff)
    if inner < 0.0:
        raise ValueError(f"sigma={sigma} too large: sqrt undefined at this branch")
    r = np.asarray(r, dtype=float)
    rho_h = model.rho_dot(r)
    return np.exp(-(1.0 - eff) * (rho_h + r * math.sqrt(inner)))


def write_threshold_table(path: str, p_values, eta_values, rho_norm: float = 1.0) -> None:
    """CSV table with columns (p, s_p, eta_norm, sigma_threshold_heat,
    sigma_threshold_poisson), rows sorted by (p, eta)."""
    rows = []
    for p in sorted(float(v) for v in p_values):
        for eta in sorted(float(v) for v in eta_values):
            inp = ThresholdInput(p=p, rho_norm=rho_norm, eta_norm=eta)
            rows.append((p, s_p(p), eta, sigma_threshold_heat(inp), sigma_threshold_poisson(inp)))
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["p", "s_p", "eta_norm", "sigma_threshold_heat", "sigma_threshold_poisson"])
        for row in rows:
            writer.writerow([f"{v:.17g}" for v in row])
