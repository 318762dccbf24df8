"""Closed-form boundedness thresholds and the chamber integrals behind them.

The maximal and square-function operators built on the heat semigroup are
bounded on L^p exactly when a weighted chamber integral converges; this
module evaluates the closed-form thresholds, classifies the integrals by
the log-slope of their integrand at the frontier (a closed-form difference
quotient, with no quadrature), certifies the exponential norm decay of the
semigroup derivative, and integrates the gradient-kernel decay.

The gradient-kernel time integral is a certified fixed-node Gauss-Legendre
pass over arrays (oracle.gl_rule and oracle.gl_certified), with the node
sets built once at import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import oracle
from .rootspace import SpaceModel, named_model, s_p


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


_VERDICT_MARGIN = 0.02  # |frontier log-slope| below this is inconclusive


def chamber_integral_verdict(integrand_rates: tuple[float, float],
                             r_max: float = 1000.0) -> IntegralVerdict:
    """Classify int_0^R (1+r)^a e^{b r} dr by the measured log-slope of the
    integrand at the integration frontier R = r_max.

    The slope is the difference quotient (f(R) - f(R - dr))/dr of
    f = a log1p(r) + b r, with dr = min(1, R/100); no integral is evaluated.
    Finite needs slope < -0.02, divergent slope > +0.02, otherwise
    inconclusive.  The chamber of a real hyperbolic space is a ray, so the
    integral is one-dimensional.
    """
    if not 0.0 < r_max < math.inf:
        raise ValueError(f"need a finite r_max > 0, got {r_max}")
    a, b = float(integrand_rates[0]), float(integrand_rates[1])
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"integrand rates must be finite, got ({a}, {b})")

    def log_integrand(r: float) -> float:
        return a * math.log1p(r) + b * r

    dr = min(1.0, r_max / 100.0)
    rate = (log_integrand(r_max) - log_integrand(r_max - dr)) / dr
    if rate < -_VERDICT_MARGIN:
        verdict = Verdict.FINITE
    elif rate > _VERDICT_MARGIN:
        verdict = Verdict.DIVERGENT
    else:
        verdict = Verdict.INCONCLUSIVE
    return IntegralVerdict(verdict=verdict, effective_rate=float(rate))


def _decay_radicand(rho_norm: float, sigma: float, epsilon: float) -> float:
    """rho^2 - sigma/(1 - eps), the square of the weighted decay rate; negative
    when sigma exceeds (1 - eps) rho^2 and no decay remains."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not math.isfinite(sigma):
        raise ValueError(f"sigma must be finite, got {sigma}")
    return rho_norm ** 2 - sigma / (1.0 - epsilon)


def heat_integrand_rate(rho_norm: float, eta_norm: float, p: float, sigma: float,
                        epsilon: float) -> float:
    """Exponential rate of the weighted chamber integrand for the heat
    maximal operator: (1 + eps - s(p)) rho + s(p) eta
    - (1 - eps) sqrt(rho^2 - sigma/(1 - eps)).

    Raises when sigma > (1 - eps) rho^2: the in-time supremum of the
    weighted kernel already diverges there, so no Gaussian decay remains.
    """
    inner = _decay_radicand(rho_norm, sigma, epsilon)
    if inner < 0.0:
        raise ValueError(f"sigma={sigma} exceeds (1-eps) rho^2; no decay rate exists")
    s = s_p(p)
    return (1.0 + epsilon - s) * rho_norm + s * eta_norm - (1.0 - epsilon) * math.sqrt(inner)


def heat_verdict(inp: ThresholdInput, sigma: float, epsilon: float, model: SpaceModel,
                 r_max: float = 1000.0) -> IntegralVerdict:
    """Chamber-integral verdict for the heat maximal weight sigma at a given
    epsilon in (0, 1), with the model's polynomial exponent A; a sigma with
    no decay rate at all (sigma > (1 - eps) rho^2) is classified divergent.
    An epsilon outside (0, 1) or a non-finite sigma raises ValueError."""
    if _decay_radicand(inp.rho_norm, sigma, epsilon) < 0.0:
        return IntegralVerdict(verdict=Verdict.DIVERGENT, effective_rate=math.inf)
    rate = heat_integrand_rate(inp.rho_norm, inp.eta_norm, inp.p, sigma, epsilon)
    return chamber_integral_verdict((model.A_exp, rate), r_max=r_max)


def st_norm_rate(model: SpaceModel, eta_norm: float, p: float, epsilon: float) -> float:
    """Exponential rate of the chamber integral controlling the semigroup
    time-derivative norm for t >= 1:
    (1 - s(p) + eps) rho - (1 - eps) sqrt(rho^2 - eps) + s(p) eta.
    A negative rate certifies norm decay e^{-eps t}."""
    rho = model.rho_norm
    if not 0.0 <= epsilon < rho * rho:
        raise ValueError(f"epsilon must lie in [0, rho^2), got {epsilon}")
    if not 0.0 <= eta_norm < math.inf:
        raise ValueError(f"eta_norm must be finite and nonnegative, got {eta_norm}")
    s = s_p(p)
    return (1.0 - s + epsilon) * rho - (1.0 - epsilon) * math.sqrt(rho * rho - epsilon) \
        + s * eta_norm


_ST_EPS_SCAN = (1e-6, 0.5, 60)  # geometric epsilon scan: lowest, highest, points


def st_norm_certificate(model: SpaceModel, eta_norm: float, p: float) -> tuple[bool, float]:
    """Scan epsilon upward for a negative rate; returns (found, eps).  The
    scan tops out below 0.99 rho^2.  Such an epsilon exists whenever
    eta_norm < rho_norm."""
    lowest, highest, points = _ST_EPS_SCAN
    for eps in np.geomspace(lowest, min(highest, model.rho_norm ** 2 * 0.99), points).tolist():
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


_RIESZ_T_CUT = 1.0  # the time integral is split here into small and large t
# Uniform panels in log t on each interval: 12 for the split pieces, and 17
# for the unsplit check, so that none of its panel edges falls on t = 1.
_RIESZ_RULES = {n: oracle.gl_rule(np.linspace(0.0, 1.0, n + 1)) for n in (12, 17)}


def riesz_time_integral(r: float, t_edges, panels: int = 12) -> np.ndarray:
    """int |d_r h_t| / sqrt(t) dt on the 3-space over each interval between
    consecutive `t_edges` (positive, increasing), at distance r > 0.

    Each interval is mapped to log t, where dt / sqrt(t) = sqrt(t) d(log t),
    and integrated on `panels` (12 or 17) uniform panels by one certified
    Gauss-Legendre pass: one h3_radial_log_abs call for all intervals.
    """
    x, w_fine, w_coarse = _RIESZ_RULES[panels]
    t_edges = np.asarray(t_edges, dtype=float)
    log_edges = np.log(t_edges)
    width = np.diff(log_edges)[:, None]
    log_t = log_edges[:-1, None] + width * x
    values = np.exp(oracle.h3_radial_log_abs(np.exp(log_t), r) + 0.5 * log_t)
    return oracle.gl_certified(values, (x, width * w_fine, width * w_coarse), oracle.GL_REL_TOL,
                               "gradient-kernel time integral",
                               {"r": r, "t_lo": t_edges[:-1], "t_hi": t_edges[1:]})


def riesz_kernel_decay(space: str, r: float, epsilon: float = 0.1) -> RieszDecay:
    """Gradient-kernel time integral int_0^inf |d_r h_t| / sqrt(t) dt on the
    space named `space`, split at t = 1, with certified Gaussian (small t)
    and exponential (large t) tails; paired with the decay shape
    e^{-(1-eps)(<rho,H> + |rho| r)} for fitted-constant domination.  Its
    tails are 3-space closed forms, so only "h3" is accepted."""
    if named_model(space).n != 3:
        raise ValueError(f"the gradient-kernel integral has only its 3-space form, got {space!r}")
    if not 0.0 < r < math.inf:
        raise ValueError(f"r must be positive and finite, got {r}")
    t_lo = r * r / 3200.0  # Gaussian phase r^2/(4t) = 800 at the lower cut
    t_hi = 750.0
    small, large = riesz_time_integral(r, (t_lo, _RIESZ_T_CUT, t_hi)).tolist()
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
