"""Exact heat-kernel oracles on the hyperbolic plane and 3-space.

The 3-space kernel and its first two time derivatives are closed forms; the
plane kernel is a one-dimensional quadrature after a substitution that
removes the endpoint singularity.  Finite-difference derivatives with
Richardson extrapolation serve as an independent cross-check, and quotient
kernels are orbit sums with certified Gaussian truncation bounds.

All evaluators work in log space internally; linear values may underflow to
zero in extreme regimes, the log variants never do.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

LOG_4PI = math.log(4.0 * math.pi)
_FD_PRECISION_LIMIT = 1e-5


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to reach its tolerance."""


@dataclass(frozen=True)
class KernelEval:
    t: float
    r: float
    order: int
    value: float


@dataclass(frozen=True)
class FdDerivative:
    value: float
    error: float
    rel_error: float
    subnormal_stencil: bool = False  # some kernel value was zero or subnormal

    @property
    def precision_ok(self) -> bool:
        return not self.subnormal_stencil and self.rel_error <= _FD_PRECISION_LIMIT


@dataclass(frozen=True)
class QuotientKernelEval:
    """Orbit sum and its truncation bound; arrays over t for a t-grid."""

    value: float | np.ndarray
    terms_used: int
    truncation_bound: float | np.ndarray


def _log_r_over_sinh(r):
    """log(r / sinh r), stable for r -> 0 and large r."""
    r = np.asarray(r, dtype=float)
    small = r < 1e-6
    r_safe = np.where(small, 1.0, r)
    series = -r * r / 6.0
    exact = np.log(r_safe) - (r_safe + np.log1p(-np.exp(-2.0 * r_safe)) - math.log(2.0))
    return np.where(small, series, exact)


def h3_log(t, r):
    """log of the 3-space heat kernel (4 pi t)^{-3/2} (r/sinh r) e^{-t - r^2/(4t)}."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    return -1.5 * (LOG_4PI + np.log(t)) + _log_r_over_sinh(r) - t - r * r / (4.0 * t)


def h3_dt_prefactor(t, r, order: int):
    """Polynomial factor p_i with d^i/dt^i h = h * p_i, hard-coded for i <= 2.

    With u = r^2/(4t^2) - 3/(2t) - 1 (the log-derivative in t):
    p_0 = 1, p_1 = u, p_2 = u^2 + u' where u' = 3/(2t^2) - r^2/(2t^3).
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if order == 0:
        return np.ones(np.broadcast(t, r).shape)
    u = r * r / (4.0 * t * t) - 1.5 / t - 1.0
    if order == 1:
        return u
    if order == 2:
        return u * u + 1.5 / (t * t) - r * r / (2.0 * t ** 3)
    raise ValueError(f"closed-form time derivatives stop at order 2, got {order}")


def _check_domain(t, r):
    if np.any(np.asarray(t, dtype=float) <= 0.0):
        raise ValueError("time must be positive")
    if np.any(np.asarray(r, dtype=float) < 0.0):
        raise ValueError("distance must be nonnegative")


def h3_kernel(t, r, order: int = 0) -> KernelEval:
    """The 3-space kernel or its i-th time derivative (i <= 2), closed form."""
    _check_domain(t, r)
    value = float(np.exp(h3_log(t, r)) * h3_dt_prefactor(t, r, order))
    return KernelEval(t=float(t), r=float(r), order=order, value=value)


def h3_dt_log_abs(t, r, order: int):
    """(log |d^i_t h|, sign) for the 3-space kernel, vectorized."""
    _check_domain(t, r)
    pref = h3_dt_prefactor(t, r, order)
    with np.errstate(divide="ignore"):
        log_abs = h3_log(t, r) + np.log(np.abs(pref))
    return log_abs, np.sign(pref)


def h3_radial_log_abs(t, r):
    """log |d_r h| on the 3-space; the derivative is negative for r > 0."""
    _check_domain(t, r)
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(r <= 0.0):
        raise ValueError("radial derivative needs r > 0")
    return _h3_radial_log_abs_unchecked(t, r)


def _h3_radial_log_abs_unchecked(t, r):
    """h3_radial_log_abs without the domain checks, for callers that have
    already validated t > 0 and r > 0 (scalar quadrature integrands)."""
    magnitude = 1.0 / np.tanh(r) - 1.0 / r + r / (2.0 * t)
    return h3_log(t, r) + np.log(magnitude)


def _log_sinh(x):
    x = np.asarray(x, dtype=float)
    big = x > 30.0
    x_safe = np.where(big, 1.0, x)
    return np.where(big, x - math.log(2.0), np.log(np.sinh(np.maximum(x_safe, 1e-300))))


_H2_EXP_CUT = 60.0  # Gaussian phase cut; relative tail below e^{-60}


def _h2_scaled_integrand(u, r, t):
    """Integrand after s = r + u^2, with the e^{-r^2/(4t)} bulk factored out.

    cosh s - cosh r = 2 sinh((s+r)/2) sinh((s-r)/2) keeps the square root
    stable at both endpoints; u / sqrt(sinh(u^2/2)) -> sqrt(2) as u -> 0.
    """
    u = np.asarray(u, dtype=float)
    s = r + u * u
    phase = u * u * (2.0 * r + u * u) / (4.0 * t)  # (s^2 - r^2)/(4t)
    log_outer = 0.5 * (math.log(2.0) + _log_sinh((s + r) / 2.0))
    tiny = u < 1e-4
    u_safe = np.where(tiny, 1.0, u)
    with np.errstate(divide="ignore", over="ignore"):
        ratio = np.where(
            tiny,
            math.sqrt(2.0),
            u_safe * np.exp(-0.5 * _log_sinh(u_safe * u_safe / 2.0)),
        )
    return 2.0 * s * ratio * np.exp(-phase - log_outer)


def h2_log(t: float, r: float, rel_tol: float = 1e-9) -> float:
    """log of the plane heat kernel via adaptive quadrature.

    Evaluates sqrt(2) (4 pi t)^{-3/2} e^{-t/4} int_r^inf s e^{-s^2/(4t)}
    / sqrt(cosh s - cosh r) ds after the substitution s = r + u^2.
    """
    if t <= 0.0:
        raise ValueError("time must be positive")
    if r < 0.0:
        raise ValueError("distance must be nonnegative")
    return _h2_log_cached(float(t), float(r), float(rel_tol))


@lru_cache(maxsize=262144)
def _h2_log_cached(t: float, r: float, rel_tol: float) -> float:
    s_max = math.sqrt(r * r + 4.0 * t * _H2_EXP_CUT)
    u_max = math.sqrt(max(s_max - r, 1e-8))
    out = quad(
        _h2_scaled_integrand, 0.0, u_max, args=(r, t),
        epsabs=0.0, epsrel=min(rel_tol, 1e-10), limit=300, full_output=True,
    )
    value, err = float(out[0]), float(out[1])
    if not np.isfinite(value) or value <= 0.0:
        raise QuadratureError(f"plane-kernel quadrature collapsed at t={t}, r={r}")
    if err > max(rel_tol * abs(value), 1e-300):
        raise QuadratureError(
            f"plane-kernel quadrature did not converge at t={t}, r={r}: "
            f"estimated error {err:.3e} vs value {value:.3e}"
        )
    return (
        0.5 * math.log(2.0)
        - 1.5 * (LOG_4PI + math.log(t))
        - t / 4.0
        - r * r / (4.0 * t)
        + math.log(value)
    )


def h2_kernel(t: float, r: float) -> KernelEval:
    return KernelEval(t=float(t), r=float(r), order=0, value=math.exp(h2_log(t, r)))


# Central-difference stencils; error expansions are even in the step.
_FD_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
    4: ((-2, 1.0), (-1, -4.0), (0, 6.0), (1, -4.0), (2, 1.0)),
}


def fd_time_derivative(kernel, order: int, t: float, r: float,
                       step_scale: float = 1e-3) -> FdDerivative:
    """i-th central finite difference in t with two Richardson levels.

    `kernel` is any evaluator f(t, r) -> float.  The step is step_scale * t;
    the returned error estimate is the difference of the last two Richardson
    extrapolants.  Callers should trust the value only when precision_ok.
    """
    if order < 0 or order > 4:
        raise ValueError(f"finite differences support orders 0..4, got {order}")
    if t <= 0.0:
        raise ValueError("time must be positive")
    if order == 0:
        value = float(kernel(t, r))
        return FdDerivative(value=value, error=0.0, rel_error=0.0,
                            subnormal_stencil=abs(value) < sys.float_info.min)
    h = step_scale * t
    if t <= max(order, 8.0) * h:  # widest stencil point is t - 8h
        raise ValueError(f"step {h} too large for order {order} at t={t}")
    stencil = _FD_STENCILS[order]
    # smallest |kernel value| seen: zero or subnormal values carry too few
    # significant bits for the differences to mean anything
    smallest = math.inf

    def diff(step: float) -> float:
        nonlocal smallest
        acc = 0.0
        for offset, coeff in stencil:
            f = kernel(t + offset * step, r)
            smallest = min(smallest, abs(f))
            acc += coeff * f
        return acc / step ** order

    # Richardson ladder with h as the smallest step: the base step stays
    # step_scale * t, so subtractive roundoff never grows past the h level.
    d0, d1, d2 = diff(4.0 * h), diff(2.0 * h), diff(h)
    r1a = (4.0 * d1 - d0) / 3.0
    r1b = (4.0 * d2 - d1) / 3.0
    value = (16.0 * r1b - r1a) / 15.0
    error = abs(value - r1b)
    scale = max(abs(value), 1e-300)
    return FdDerivative(value=value, error=error, rel_error=error / scale,
                        subnormal_stencil=smallest < sys.float_info.min)


def radial_gradient(space: str, t: float, r: float) -> float:
    """|d_r h_t| at geodesic distance r: exact on the 3-space, Richardson
    central differences (step 1e-5 * max(1, r), two levels) on the plane.

    For a radial kernel the gradient norm equals |d_r h_t|.
    """
    if t <= 0.0:
        raise ValueError("time must be positive")
    if r <= 0.0:
        raise ValueError("radial gradient needs r > 0 (one-sided differences not implemented)")
    space = space.lower()
    if space == "h3":
        return float(np.exp(h3_radial_log_abs(t, r)))
    if space == "h2":
        h = 1e-5 * max(1.0, r)

        def diff(step: float) -> float:
            return (math.exp(h2_log(t, r + step)) - math.exp(h2_log(t, max(r - step, 0.0)))) / (2.0 * step)

        d0, d1 = diff(h), diff(h / 2.0)
        return abs((4.0 * d1 - d0) / 3.0)
    raise ValueError(f"unknown space {space!r}, expected 'h2' or 'h3'")


_SPACE_DATA = {"h2": (2, 0.5), "h3": (3, 1.0)}  # (dimension, rho_norm)


def _space_derivative_values(space: str, ts: np.ndarray, distances: np.ndarray,
                             order: int) -> np.ndarray:
    """d^i_t h at every (t, distance) pair, shape (len(ts), len(distances))."""
    if space == "h3":
        log_abs, sign = h3_dt_log_abs(ts[:, None], distances, order)
        return np.exp(log_abs) * sign
    if space == "h2":
        if order == 0:
            return np.array([[math.exp(h2_log(t, float(d))) for d in distances] for t in ts])

        def plane(tt, rr):
            return math.exp(h2_log(tt, rr))

        return np.array([[fd_time_derivative(plane, order, t, float(d)).value for d in distances]
                         for t in ts])
    raise ValueError(f"unknown space {space!r}")


@lru_cache(maxsize=64)
def _tail_envelope_constant(space: str, order: int, epsilon: float) -> float:
    """Fitted constant c with |d^i_t h| <= c * t^{-n/2-i} e^{-(1-eps)(rho^2 t
    + rho_m d + d^2/(4t))} on a wide internal grid.  Deterministic; cached.

    The plane grid is coarser: each of its kernel values costs a quadrature,
    and the constant only feeds a tail majorant with safety headroom."""
    n, rho = _SPACE_DATA[space]
    n_pts = 90 if space == "h3" else 36
    t_grid = np.geomspace(1e-3, 60.0, n_pts)
    d_grid = np.linspace(0.0, 60.0, n_pts)
    best = -np.inf
    for t in t_grid:
        if space == "h3":
            log_abs, _ = h3_dt_log_abs(t, d_grid, order)
        else:
            vals = np.abs(_space_derivative_values(space, np.array([t]), d_grid, order)[0])
            with np.errstate(divide="ignore"):
                log_abs = np.log(vals)
        log_env = (-(n / 2.0 + order) * math.log(t)
                   - (1.0 - epsilon) * (rho * rho * t + rho * d_grid + d_grid * d_grid / (4.0 * t)))
        best = max(best, float(np.max(log_abs - log_env)))
    return math.exp(best) * 1.5  # safety headroom over the grid fit


_TAIL_SHELL_CAP = 100000  # most unit shells one truncation tail sums
_TAIL_BLOCK = 1 << 20  # array elements per block of t rows
_TAIL_STOP = 1e-18  # stop once a shell adds at most this share of the running tail


def quotient_kernel(group, space: str, t, x, y, order: int, r_cut: float,
                    delta: float | None = None, epsilon: float = 0.2) -> QuotientKernelEval:
    """Orbit sum of kernel time derivatives over points with d(x, gy) <= r_cut.

    `group` is either an object with an ``orbit(x, y, r_max)`` method or an
    already-enumerated `OrbitSet`.  `t` is a positive time or a 1-D array of
    them; for an array, `value` and `truncation_bound` are arrays over t,
    each entry bit-identical to a scalar call at that t.  The truncation
    bound integrates the Gaussian envelope of the derivative against the
    exponential counting bound c * e^{delta R}, summed over unit shells
    beyond r_cut until a shell adds at most 1e-18 of the running tail.
    """
    space = space.lower()
    if space not in _SPACE_DATA:
        raise ValueError(f"unknown space {space!r}")
    ts = np.asarray(t, dtype=float)
    scalar = ts.ndim == 0
    ts = ts.reshape(1) if scalar else ts
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("t must be a positive time or a nonempty 1-D array of them")
    if np.any(ts <= 0.0):
        raise ValueError("time must be positive")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("tail envelope needs epsilon in (0, 1); the Gaussian decay rate "
                         "(1 - epsilon)/(4t) must stay positive for the tail to converge")
    if hasattr(group, "distances") and hasattr(group, "r_max"):
        orbit = group
        if orbit.r_max < r_cut - 1e-12:
            raise ValueError(f"orbit certified to {orbit.r_max}, below r_cut={r_cut}")
    else:
        orbit = group.orbit(x, y, r_cut)
    if r_cut <= float(orbit.distances[0]):
        raise ValueError("r_cut must exceed the quotient distance d_M(x, y)")

    distances = np.asarray(orbit.distances, dtype=float)
    used = distances[distances <= r_cut + 1e-12]
    values = np.sum(_space_derivative_values(space, ts, used, order), axis=1)

    if getattr(orbit, "exhaustive", False) and used.size == distances.size:
        tails = np.zeros_like(values)
    else:
        if delta is None:
            delta = getattr(orbit, "delta_hint", None)
        if delta is None:
            raise ValueError("supply delta (critical-exponent bound) for the truncation tail")
        scale = _tail_envelope_constant(space, order, epsilon) * orbit.counting_constant(delta)
        tails = _truncation_tails(space, order, epsilon, delta, scale, math.floor(r_cut),
                                  ts, np.abs(values))
    if scalar:
        return QuotientKernelEval(value=float(values[0]), terms_used=int(used.size),
                                  truncation_bound=float(tails[0]))
    return QuotientKernelEval(value=values, terms_used=int(used.size), truncation_bound=tails)


def _truncation_tails(space: str, order: int, epsilon: float, delta: float, scale: float,
                      k0: int, ts: np.ndarray, value_abs: np.ndarray) -> np.ndarray:
    """Per-t sum of the shell terms scale * e^{delta (k+1)} * envelope(t, k)
    for k = k0, k0+1, ..., stopping at the first shell whose term is at most
    1e-18 of max(running tail, |value|, 1e-300).

    The log-term is a concave quadratic in k.  From the first shell kp at
    or past its peak it falls by 45 (more than -log 1e-18) within j shells,
    j from the quadratic; the stop comes no later, because the running tail
    then holds the term at kp.  The block is sized to that, and each t row
    is summed left to right, independently of the other rows.
    """
    n, rho = _SPACE_DATA[space]
    a = 1.0 - epsilon
    log_t_part = -(n / 2.0 + order) * np.log(ts) - a * rho * rho * ts
    kp = np.maximum(float(k0), np.ceil(2.0 * ts * (delta - a * rho) / a))
    slope = a * rho + a * kp / (2.0 * ts) - delta  # -(d/dk log-term) at kp, >= 0
    shells = kp - k0 + 90.0 / (slope + np.sqrt(slope * slope + 45.0 * a / ts)) + 2.0
    m = int(min(math.ceil(float(np.max(shells))), _TAIL_SHELL_CAP))
    ks = np.arange(k0, k0 + m, dtype=float)
    tails = np.empty_like(ts)
    rows = max(1, _TAIL_BLOCK // m)
    for lo in range(0, ts.size, rows):
        blk = slice(lo, lo + rows)
        t_col = ts[blk, None]
        log_terms = (delta * (ks + 1.0) + log_t_part[blk, None]
                     - a * (rho * ks + ks * ks / (4.0 * t_col)))
        terms = scale * np.exp(log_terms)
        running = np.cumsum(terms, axis=1)
        floor = np.maximum(value_abs[blk, None], 1e-300)
        stop = terms <= _TAIL_STOP * np.maximum(running, floor)
        last = np.where(stop.any(axis=1), np.argmax(stop, axis=1), m - 1)
        tails[blk] = running[np.arange(last.size), last]
    return tails
