"""Exact heat-kernel oracles on the hyperbolic plane and 3-space.

The 3-space kernel, its first two time derivatives and its r-derivative are
closed forms; the plane kernel is certified fixed-node Gauss-Legendre, and
so are its exact t- and r-derivatives: one pass over arrays, after a
substitution that removes the endpoint singularity, with the derivatives
weighting the same nodes.  `rootspace.SpaceModel` carries these as its
oracle, and every function here that works on either space reads it from the
model; the public names "h2" and "h3" resolve to a model through
`rootspace.named_model`.  Finite-difference derivatives with Richardson
extrapolation serve as an independent cross-check, and quotient kernels are
orbit sums with certified Gaussian truncation bounds.  The 3-space closed
form is one expression in a distance part (log(r/sinh r), r^2) and the
times; the orbit sum computes the distance part once per orbit and keeps it
for the last orbit summed, keyed by its read-only distances array.

All evaluators work in log space internally; linear values may underflow to
zero in extreme regimes, the log variants never do.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import rootspace

LOG_4PI = math.log(4.0 * math.pi)
_FD_PRECISION_LIMIT = 1e-5
_FD_STEP_SCALE = 1e-3  # finite-difference step as a fraction of t


class QuadratureError(RuntimeError):
    """A quadrature failed its error certificate."""


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


def _h3_distance_part(r):
    """The factors of the 3-space kernel that depend on the distance alone,
    (log(r / sinh r), r^2); an orbit sum computes them once per orbit."""
    r = np.asarray(r, dtype=float)
    return _log_r_over_sinh(r), r * r


def _h3_log_from(t, log_ros, rr):
    """h3_log at times t from the distance part (log_ros, rr)."""
    return -1.5 * (LOG_4PI + np.log(t)) + log_ros - t - rr / (4.0 * t)


def _h3_prefactor_from(t, rr, order: int):
    """h3_dt_prefactor at order 1 or 2 from rr = r^2."""
    if order not in (1, 2):
        raise ValueError(f"closed-form time derivatives stop at order 2, got {order}")
    u = rr / (4.0 * t * t) - 1.5 / t - 1.0
    if order == 1:
        return u
    return u * u + 1.5 / (t * t) - rr / (2.0 * t ** 3)


def _h3_dt_log_abs_from(t, log_ros, rr, order: int):
    """(log |d^i_t h|, sign) from the distance part; the sign is None at
    order 0, where the prefactor is 1 and is not applied."""
    if order == 0:
        return _h3_log_from(t, log_ros, rr), None
    pref = _h3_prefactor_from(t, rr, order)
    with np.errstate(divide="ignore"):
        log_abs = _h3_log_from(t, log_ros, rr) + np.log(np.abs(pref))
    return log_abs, np.sign(pref)


def h3_log(t, r):
    """log of the 3-space heat kernel (4 pi t)^{-3/2} (r/sinh r) e^{-t - r^2/(4t)}."""
    return _h3_log_from(np.asarray(t, dtype=float), *_h3_distance_part(r))


def h3_dt_prefactor(t, r, order: int):
    """Polynomial factor p_i with d^i/dt^i h = h * p_i, hard-coded for i <= 2.

    With u = r^2/(4t^2) - 3/(2t) - 1 (the log-derivative in t):
    p_0 = 1, p_1 = u, p_2 = u^2 + u' where u' = 3/(2t^2) - r^2/(2t^3).
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if order == 0:
        return np.ones(np.broadcast(t, r).shape)
    return _h3_prefactor_from(t, r * r, order)


def check_domain(t, r, radial: bool = False) -> None:
    """Raise ValueError unless every t is a positive finite time and every r
    a finite distance, >= 0, or > 0 for a `radial` derivative.  NaN fails
    both tests."""
    if isinstance(t, float) and isinstance(r, float):
        # the same tests without numpy's per-call cost, for scalar callers
        t_ok = 0.0 < t < math.inf
        r_ok = (0.0 < r if radial else 0.0 <= r) and r < math.inf
    else:
        t, r = np.asarray(t, dtype=float), np.asarray(r, dtype=float)
        t_ok = ((t > 0.0) & (t < math.inf)).all()
        r_ok = (((r > 0.0) if radial else (r >= 0.0)) & (r < math.inf)).all()
    if not t_ok:
        raise ValueError("time must be positive and finite")
    if not r_ok:
        raise ValueError("radial derivative needs a finite r > 0" if radial
                         else "distance must be finite and nonnegative")


def h3_dt_log_abs(t, r, order: int):
    """(log |d^i_t h|, sign) for the 3-space kernel, vectorized."""
    check_domain(t, r)
    log_abs, sign = _h3_dt_log_abs_from(np.asarray(t, dtype=float), *_h3_distance_part(r), order)
    return log_abs, np.ones_like(log_abs) if sign is None else sign


def h3_radial_log_abs(t, r):
    """log |d_r h| on the 3-space, r > 0; the derivative is negative there."""
    check_domain(t, r, radial=True)
    r = np.asarray(r, dtype=float)
    t = np.asarray(t, dtype=float)
    magnitude = 1.0 / np.tanh(r) - 1.0 / r + r / (2.0 * t)
    return h3_log(t, r) + np.log(magnitude)


_H2_EXP_CUT = 60.0  # Gaussian phase cut; relative tail below e^{-60}
_H2_REL_TOL = 1e-9  # certified relative error of the kernel integral
# Certified error of a derivative moment, relative to the integral of the
# weight's absolute value: the 32-node rule differs by up to 1.4e-9 of that
# scale where the moments cancel, so the kernel's 1e-9 would be too tight.
_H2_MOMENT_TOL = 1e-8
_H2_BLOCK = 2048  # points per pass; bounds the (points x nodes) temporaries


_GL_UNIT = tuple(np.polynomial.legendre.leggauss(n) for n in (64, 32))
# Certified relative error of the smooth integrals outside the plane kernel:
# the Riesz time integral and the iterated integrals.
GL_REL_TOL = 1e-12


def gl_rule(edges) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The 64-node Gauss-Legendre rule on each panel between consecutive
    entries of the 1-D `edges`, and the 32-node rule that certifies it, as
    one node set: (nodes, 64-node weights, 32-node weights), the 64-node
    nodes first."""
    edges = np.asarray(edges, dtype=float)
    if edges.ndim != 1 or edges.size < 2:
        raise ValueError("gl_rule takes a 1-D array of at least two panel edges")
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    nodes = [(lo + width * (x + 1.0) / 2.0).ravel() for x, _ in _GL_UNIT]
    return np.concatenate(nodes), *((width * w / 2.0).ravel() for _, w in _GL_UNIT)


def gl_certified(values, rule, tol: float, site: str, args: dict, absolute: bool = False):
    """The 64-node sum over the last axis of `values`, the integrand at the
    nodes of `rule` (from gl_rule), certified by the 32-node sum.

    The scale is the 64-node sum, or with `absolute` the 64-node sum of
    |values|.  QuadratureError names `site` and, for the first row where
    the two sums differ by more than tol * scale or the scale is not a
    positive float, each entry of `args` (scalars, or arrays that broadcast
    to the rows).
    """
    _, w_fine, w_coarse = rule
    n = w_fine.shape[-1]
    fine = np.add.reduce(values[..., :n] * w_fine, axis=-1)
    coarse = np.add.reduce(values[..., n:] * w_coarse, axis=-1)
    scale = np.add.reduce(np.abs(values[..., :n]) * w_fine, axis=-1) if absolute else fine
    ok = (np.abs(fine - coarse) <= tol * scale) & (scale > 0.0) & (scale < math.inf)
    if not ok.all():
        k = np.unravel_index(int(np.argmin(ok)), ok.shape)
        named = ", ".join(f"{name}={np.broadcast_to(value, ok.shape)[k].item()!r}"
                          for name, value in args.items())
        raise QuadratureError(
            f"{site} quadrature not certified at {named}: 64-node {fine[k]:.6e} vs "
            f"32-node {coarse[k]:.6e} (scale {scale[k]:.3e})"
        )
    return fine


# At 0 < r the integrand has branch points at u = +-i sqrt(2r) (where
# sinh((s + r)/2) vanishes).  When sqrt(2r) is under a tenth of u_max they
# sit too close to the interval for one panel, which the 32-node rule then
# refuses to certify; panels graded by 16 towards u = 0 keep each branch
# point at least a fifteenth of a panel length away from the panel that
# holds it, or make that panel's share negligible.
_GL_PLAIN = gl_rule([0.0, 1.0])
_GL_GRADED = gl_rule([0.0, *16.0 ** -np.arange(5.0, 0.0, -1.0), 1.0])
_H2_GRADE_BELOW = 0.1  # graded panels where sqrt(2r) < this * u_max


def _h2_scaled_integrand(u, r, t):
    """Integrand after s = r + u^2, with the e^{-r^2/(4t)} bulk factored out:
    2 u s e^{-(s^2 - r^2)/(4t)} / sqrt(cosh s - cosh r).

    With w = (s + r)/2, cosh s - cosh r = 2 sinh(w) sinh(u^2/2), and writing
    2 sinh x = -e^x expm1(-2x) keeps the square root stable at both endpoints
    and free of overflow: the integrand is 2 sqrt(2) u s e^{-(s^2 - r^2)/(4t)
    - (w + u^2/2)/2} / sqrt(expm1(-u^2) expm1(-2w)).  It tends to
    2 r / sqrt(sinh r) as u -> 0 (like 2 sqrt(2) u at r = 0); the rules never
    evaluate it at u = 0.
    """
    uu = u * u
    s = r + uu
    w = r + 0.5 * uu
    exponent = uu * w / (2.0 * t) + 0.5 * w + 0.25 * uu  # (s^2 - r^2)/(4t) = u^2 w/(2t)
    den = np.expm1(-uu) * np.expm1(-2.0 * w)
    return (2.0 * math.sqrt(2.0)) * u * s * np.exp(-exponent) / np.sqrt(den)


def _h2_time_weight(order: int):
    """Weight P_i(s, t) with d^i/dt^i of the plane integrand = P_i * integrand:
    P_1 = s^2/(4t^2) - 3/(2t) - 1/4, P_2 = P_1^2 + 3/(2t^2) - s^2/(2t^3)."""
    def weight(u, r, t):
        s = r + u * u
        p1 = s * s / (4.0 * t * t) - 1.5 / t - 0.25
        if order == 1:
            return p1
        return p1 * p1 + 1.5 / (t * t) - s * s / (2.0 * t * t * t)
    return weight


def _h2_radial_weight(u, r, t):
    """d/dr of the plane integrand over the integrand, at fixed u (s = r + u^2):
    1/s - s/(2t) - (1/2) coth((s + r)/2)."""
    s = r + u * u
    return (1.0 - s * s / (2.0 * t)) / s - 0.5 / np.tanh(r + 0.5 * u * u)


def _h2_flat(t, r, radial: bool = False) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Domain-checked (t, r), broadcast and flattened, and the broadcast shape."""
    check_domain(t, r, radial)
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if t.shape != r.shape:
        t, r = np.broadcast_arrays(t, r)
    return t.ravel(), r.ravel(), t.shape


_H2_LOG_CONST = 0.5 * math.log(2.0) - 1.5 * LOG_4PI


def _h2_log_prefactor(t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """log of sqrt(2) (4 pi t)^{-3/2} e^{-t/4 - r^2/(4t)}, the factor outside
    the scaled integral."""
    return _H2_LOG_CONST - 1.5 * np.log(t) - t / 4.0 - r * r / (4.0 * t)


def _h2_rule_pass(rule, t, r, u_max, weight, tol):
    """Per row of (t, r, u_max) columns: the certified integral of weight *
    integrand over [0, 1] * u_max (without the factor u_max); a derivative
    weight is certified against the integral of |weight| * integrand."""
    u = u_max * rule[0]
    f = _h2_scaled_integrand(u, r, t)
    if weight is not None:
        f = f * weight(u, r, t)
    return gl_certified(f, rule, tol, "plane-kernel", {"t": t[:, 0], "r": r[:, 0]},
                        absolute=weight is not None)


def _h2_moment(t: np.ndarray, r: np.ndarray, weight=None) -> np.ndarray:
    """Certified int_0^u_max weight * _h2_scaled_integrand du at flat (t, r).

    One pass evaluates the integrand on the 64- and 32-node Gauss-Legendre
    rules together, u_max from the phase cut (on graded panels where r is
    small, see _GL_GRADED).  The 64-node sum is returned; QuadratureError
    names the first (t, r) where the 32-node sum differs by more than 1e-9
    of the value (no weight) or 1e-8 of the integral of |weight| *
    integrand (a derivative weight), or where that scale is not a positive
    float.
    """
    out = np.empty(t.shape)
    tol = _H2_REL_TOL if weight is None else _H2_MOMENT_TOL
    for lo in range(0, t.size, _H2_BLOCK):
        tb, rb = t[lo:lo + _H2_BLOCK, None], r[lo:lo + _H2_BLOCK, None]
        cut = (4.0 * _H2_EXP_CUT) * tb
        u_max = np.sqrt(cut / (np.sqrt(rb * rb + cut) + rb))  # sqrt(s_max - r)
        graded = (2.0 * rb < (_H2_GRADE_BELOW * u_max) ** 2)[:, 0]
        if not graded.any():
            fine = _h2_rule_pass(_GL_PLAIN, tb, rb, u_max, weight, tol)
        else:
            fine = np.empty(tb.shape[0])
            for rule, rows in ((_GL_PLAIN, ~graded), (_GL_GRADED, graded)):
                fine[rows] = _h2_rule_pass(rule, tb[rows], rb[rows], u_max[rows], weight, tol)
        out[lo:lo + _H2_BLOCK] = fine * u_max[:, 0]
    return out


def h2_log(t, r):
    """log of the plane heat kernel by certified fixed-node quadrature.

    Evaluates sqrt(2) (4 pi t)^{-3/2} e^{-t/4} int_r^inf s e^{-s^2/(4t)}
    / sqrt(cosh s - cosh r) ds after the substitution s = r + u^2, with one
    64-node Gauss-Legendre pass certified by the 32-node rule on the same
    pass; raises QuadratureError when they differ by more than 1e-9 of the
    integral.  `t` and `r` broadcast: scalars give a float, arrays an array
    whose entries are bit-identical to scalar calls.
    """
    ts, rs, shape = _h2_flat(t, r)
    log_h = _h2_log_prefactor(ts, rs) + np.log(_h2_moment(ts, rs))
    return float(log_h[0]) if shape == () else log_h.reshape(shape)


def h2_dt_log_abs(t, r, order: int):
    """(log |d^i_t h|, sign) for the plane kernel, i <= 2, vectorized.

    The time derivatives weight the nodes of h2_log's pass by P_i (see
    _h2_time_weight); each derivative moment is certified to 1e-8 of the
    integral of |P_i| times the integrand.  Order 0 is h2_log.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"plane time derivatives stop at order 2, got {order}")
    return _h2_log_abs(t, r, None if order == 0 else _h2_time_weight(order))


def h2_radial_log_abs(t, r):
    """log |d_r h| on the plane, r > 0, vectorized: the r-derivative weights
    the nodes of h2_log's pass (see _h2_radial_weight), certified like a
    time-derivative moment."""
    return _h2_log_abs(t, r, _h2_radial_weight, radial=True)[0]


def _h2_log_abs(t, r, weight, radial: bool = False):
    """(log |moment|, sign of the moment) of `weight` times the plane
    integrand, the prefactor included, at broadcast (t, r); floats for
    scalars."""
    ts, rs, shape = _h2_flat(t, r, radial)
    moment = _h2_moment(ts, rs, weight)
    with np.errstate(divide="ignore"):
        log_abs = _h2_log_prefactor(ts, rs) + np.log(np.abs(moment))
    sign = np.sign(moment)
    if shape == ():
        return float(log_abs[0]), float(sign[0])
    return log_abs.reshape(shape), sign.reshape(shape)


# Central-difference stencils; error expansions are even in the step.
_FD_STENCILS = {
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
}


def fd_time_derivative(kernel, order: int, t: float, r: float) -> FdDerivative:
    """i-th central finite difference in t with two Richardson levels.

    `kernel` is any evaluator f(t, r) -> float.  The step is 1e-3 * t;
    the returned error estimate is the difference of the last two Richardson
    extrapolants.  Callers should trust the value only when precision_ok.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"finite differences support orders 0..2, got {order}")
    check_domain(t, r)
    if order == 0:
        value = float(kernel(t, r))
        return FdDerivative(value=value, error=0.0, rel_error=0.0,
                            subnormal_stencil=abs(value) < sys.float_info.min)
    h = _FD_STEP_SCALE * t  # the widest stencil point, t - 4h, stays positive
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
    # 1e-3 * t, so subtractive roundoff never grows past the h level.
    d0, d1, d2 = diff(4.0 * h), diff(2.0 * h), diff(h)
    r1a = (4.0 * d1 - d0) / 3.0
    r1b = (4.0 * d2 - d1) / 3.0
    value = (16.0 * r1b - r1a) / 15.0
    error = abs(value - r1b)
    scale = max(abs(value), 1e-300)
    return FdDerivative(value=value, error=error, rel_error=error / scale,
                        subnormal_stencil=smallest < sys.float_info.min)


def radial_gradient(space: str, t: float, r: float) -> float:
    """|d_r h_t| at geodesic distance r > 0 on the space named "h2" or "h3",
    from its model's exact r-derivative.

    For a radial kernel the gradient norm equals |d_r h_t|.
    """
    return math.exp(rootspace.named_model(space).radial_log_abs(t, r))


@lru_cache(maxsize=64)
def _tail_envelope_constant(model: rootspace.SpaceModel, order: int, epsilon: float) -> float:
    """Fitted constant c with |d^i_t h| <= c * t^{-n/2-i} e^{-(1-eps)(rho^2 t
    + rho_m d + d^2/(4t))} on a wide internal grid of the model's space.
    Deterministic; cached."""
    n, rho = model.n, model.rho_norm
    t_grid = np.geomspace(1e-3, 60.0, 90)
    d_grid = np.linspace(0.0, 60.0, 90)
    best = -np.inf
    for t in t_grid:
        log_abs, _ = model.dt_log_abs(t, d_grid, order)
        log_env = (-(n / 2.0 + order) * math.log(t)
                   - (1.0 - epsilon) * (rho * rho * t + rho * d_grid + d_grid * d_grid / (4.0 * t)))
        best = max(best, float(np.max(log_abs - log_env)))
    return math.exp(best) * 1.5  # safety headroom over the grid fit


# The distance part of the last 3-space orbit summed, over its first k points,
# and that orbit's counting constants: (distances, log(r/sinh r), r^2,
# {(r_max, delta): constant}).  Keyed by the identity of the read-only
# `distances` array, so it cannot go stale.  One orbit at most: a copy on
# every orbit would add 16 bytes per point to each orbit a caller keeps.
_last_orbit: tuple | None = None


def _h3_orbit_terms(distances: np.ndarray, k: int):
    """(log(r/sinh r), r^2) over distances[:k], and the orbit's dict of
    counting constants, reused from the previous call on the same array."""
    global _last_orbit
    memo = _last_orbit
    if memo is None or memo[0] is not distances or memo[1].size < k:
        used = distances[:k]
        check_domain(1.0, used)  # the distance test h3_dt_log_abs makes
        memo = (distances, *_h3_distance_part(used), {})
        if not distances.flags.writeable:
            _last_orbit = memo
    return memo[1][:k], memo[2][:k], memo[3]


_TAIL_SHELL_CAP = 100000  # most unit shells one truncation tail sums
_TAIL_BLOCK = 1 << 20  # array elements per block of t rows
_TAIL_STOP = 1e-18  # stop once a shell adds at most this share of the running tail


def quotient_kernel(group, space: str, t, x, y, order: int, r_cut: float,
                    delta: float | None = None, epsilon: float = 0.2) -> QuotientKernelEval:
    """Orbit sum of kernel time derivatives over points with d(x, gy) <= r_cut,
    on the space named "h2" or "h3".

    `group` is either an object with an ``orbit(x, y, r_max)`` method or an
    already-enumerated `OrbitSet`.  `t` is a positive time or a 1-D array of
    them; for an array, `value` and `truncation_bound` are arrays over t,
    each entry bit-identical to a scalar call at that t.  The truncation
    bound integrates the Gaussian envelope of the derivative against the
    exponential counting bound c * e^{delta R}, summed over unit shells
    beyond r_cut until a shell adds at most 1e-18 of the running tail.
    """
    model = rootspace.named_model(space)
    ts = np.asarray(t, dtype=float)
    scalar = ts.ndim == 0
    ts = ts.reshape(1) if scalar else ts
    if ts.ndim != 1 or ts.size == 0:
        raise ValueError("t must be a positive time or a nonempty 1-D array of them")
    if not ((ts > 0.0) & (ts < math.inf)).all():
        raise ValueError(f"t must be positive and finite, got {t!r}")
    if not math.isfinite(r_cut):
        raise ValueError(f"r_cut must be finite, got {r_cut!r}")
    if delta is not None and not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and nonnegative, got {delta!r}")
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
    k = int(np.searchsorted(distances, r_cut + 1e-12, side="right"))  # sorted distances
    if model.n == 3:
        log_ros, rr, counting = _h3_orbit_terms(distances, k)
        log_abs, sign = _h3_dt_log_abs_from(ts[:, None], log_ros, rr, order)
    else:
        counting = {}
        log_abs, sign = model.dt_log_abs(ts[:, None], distances[:k], order)
    terms = np.exp(log_abs) if sign is None else np.exp(log_abs) * sign
    values = np.sum(terms, axis=1)

    if orbit.exhaustive and k == distances.size:
        tails = np.zeros_like(values)
    else:
        if delta is None:
            raise ValueError("supply delta (critical-exponent bound) for the truncation tail")
        key = (orbit.r_max, delta)
        if key not in counting:
            counting[key] = orbit.counting_constant(delta)
        scale = _tail_envelope_constant(model, order, epsilon) * counting[key]
        tails = _truncation_tails(model, order, epsilon, delta, scale, math.floor(r_cut),
                                  ts, np.abs(values))
    if scalar:
        return QuotientKernelEval(value=float(values[0]), terms_used=k,
                                  truncation_bound=float(tails[0]))
    return QuotientKernelEval(value=values, terms_used=k, truncation_bound=tails)


def _truncation_tails(model: rootspace.SpaceModel, order: int, epsilon: float, delta: float,
                      scale: float, k0: int, ts: np.ndarray,
                      value_abs: np.ndarray) -> np.ndarray:
    """Per-t sum of the shell terms scale * e^{delta (k+1)} * envelope(t, k)
    for k = k0, k0+1, ..., stopping at the first shell at or past the peak
    shell kp whose term is at most 1e-18 of max(running tail, |value|,
    1e-300).  Before kp the terms still grow, so a shell that underflows
    there says nothing about the rest of the tail.

    The log-term is a concave quadratic in k.  From the first shell kp at
    or past its peak it falls by 45 (more than -log 1e-18) within j shells,
    j from the quadratic; the stop comes no later, because the running tail
    then holds the term at kp.  The block is sized to that, and each t row
    is summed left to right, independently of the other rows.
    """
    n, rho = model.n, model.rho_norm
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
        stop = (terms <= _TAIL_STOP * np.maximum(running, floor)) & (ks >= kp[blk, None])
        last = np.where(stop.any(axis=1), np.argmax(stop, axis=1), m - 1)
        tails[blk] = running[np.arange(last.size), last]
    return tails
