"""Exact heat-kernel oracles on the hyperbolic plane and 3-space.

The 3-space kernel, its first two time derivatives and its r-derivative are
closed forms; the plane kernel is certified fixed-node Gauss-Legendre, and
so are its exact t- and r-derivatives: one pass over arrays, after a
substitution that removes the endpoint singularity, with the derivatives
weighting the same nodes.  `rootspace.SpaceModel` carries these as its
oracle, and every function here that works on either space reads it from the
model; the public names "h2" and "h3" resolve to a model through
`rootspace.named_model`.  Finite-difference derivatives with Richardson
extrapolation serve as an independent cross-check.  Quotient kernels are
orbit sums whose truncation tail, the Gaussian envelope against the
counting bound over unit shells, is bounded in closed form;
quotient_kernels, the one orbit-sum path, sums many orbits over one t-grid
in one array pass per block of orbits, and quotient_kernel is its one-orbit
view.  Both take orbits that lattice.enumerate_orbits has enumerated; the
oracle itself never enumerates.  The 3-space
closed form is one expression in a distance part (log(r/sinh r), r^2) and
the times; a block computes the distance part once over all its points and
keeps it for the next call on the same orbits and prefixes, and a block of
one orbit skips the terms past a proven underflow radius.  Float calls of
the plane kernel and its derivatives run one lean pass on the point's nodes,
with the bits of the array pass, and keep their last 64 passes, keyed by the
weight and (t, r), for the repeated stencil times of finite differences.
Both caches are `functools.lru_cache`s, so their `cache_info()` reads the
hit rates.

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
    """A finite-difference derivative: floats from fd_time_derivative,
    arrays over the points from fd_time_derivatives."""

    value: float | np.ndarray
    error: float | np.ndarray
    rel_error: float | np.ndarray
    subnormal_stencil: bool | np.ndarray = False  # some kernel value was zero or subnormal

    @property
    def precision_ok(self) -> bool | np.ndarray:
        ok = np.logical_not(self.subnormal_stencil) & (self.rel_error <= _FD_PRECISION_LIMIT)
        return ok if np.ndim(ok) else bool(ok)


@dataclass(frozen=True)
class QuotientKernelEval:
    """Orbit sums and their truncation bounds: from quotient_kernel, floats
    at one time and arrays over t for a t-grid; from quotient_kernels,
    (orbits x times) arrays and an integer array of terms_used."""

    value: float | np.ndarray
    terms_used: int | np.ndarray
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
    (log(r / sinh r), r^2); an orbit sum computes them once per block."""
    r = np.asarray(r, dtype=float)
    return _log_r_over_sinh(r), r * r


def _h3_log_from(t, log_ros, rr):
    """h3_log at times t from the distance part (log_ros, rr)."""
    return -1.5 * (LOG_4PI + np.log(t)) + log_ros - t - rr / (4.0 * t)


_H3_ORDER_ERROR = "closed-form time derivatives stop at order 2, got {}"


def _h3_prefactor_from(t, rr, order: int):
    """h3_dt_prefactor at order 1 or 2 from rr = r^2."""
    if order not in (1, 2):
        raise ValueError(_H3_ORDER_ERROR.format(order))
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


def _h3_cut_radius(t: float, order: int) -> float:
    """A distance R past which every term of a 3-space orbit sum at time t,
    exp(log |d^i_t h|) * sign as _block_sums computes it, is exactly +0.0;
    an order outside 0..2 raises the order error of _h3_prefactor_from.

    Proof, with q = r^2/(4t), a = -1.5 log(4 pi t) - t and
    f(q) = q - i log(1 + q):
    - Bound.  log h <= a - q, since log(r/sinh r) <= 0.  With
      u = q/t - 1.5/t - 1 and u' = (1.5 - 2q)/t^2 (h3_dt_prefactor),
      |p_1| = |u| <= c_1 (1 + q) and |p_2| <= u^2 + |u'| <= c_2 (1 + q)^2,
      where c_0 = 1, c_1 = 1 + 1.5/t and c_2 = c_1^2 + 2/t^2.  So
      log |d^i_t h| <= a + log c_i - f(q), which is at most -747 wherever
      f(q) >= g = a + log c_i + 747.
    - Root.  The step q <- max(0, g + i log1p(q)) keeps f(q) >= g: the new
      q' is at most q, and f(q') = g + i (log1p(q) - log1p(q')) >= g, or
      q' = 0 and g < 0 = f(0).  The start max(2g + 3, 0) satisfies it,
      because f(q) >= q/2 - 1.28 for i <= 2.
    - Cut.  Q = max(q, 2t + 11) >= 11 and f increases on [1, inf), so
      f >= g on [Q, inf) (if q < 1, then g <= f(q) < 1 < f(11)).  exp
      returns exactly 0.0 below about -745.13, so every term at
      r >= R = sqrt(4 t Q) is 0.0; the unit from -747 to -746 covers the
      rounding of the terms and of R.
    - Sign.  For q >= 2t + 11, s = q - t - 1.5 >= t + 9.5, so t p_1 = s and
      t^2 p_2 = s^2 - 2s - 2t - 1.5 are positive: those zeros are +0.0,
      never -0.0.
    - Times.  t Q grows with t: where the root q(t) of f = g exceeds
      2t + 11, d(t q)/dt >= q - 1.2 (3.5 + t) > 0, since t g' >= -3.5 - t
      and f' >= 5/6 there.  So the R of a grid's largest time serves every
      time of the grid.
    An overflow of c_i, at t near 0, gives R = inf: no cut.
    """
    if order not in (0, 1, 2):
        raise ValueError(_H3_ORDER_ERROR.format(order))
    g = -1.5 * (LOG_4PI + math.log(t)) - t + 747.0
    if order:
        c_1 = 1.0 + 1.5 / t
        g += math.log(c_1 if order == 1 else c_1 * c_1 + 2.0 / t / t)  # inf for tiny t
    q = max(2.0 * g + 3.0, 0.0)
    for _ in range(4):  # each step shrinks q's excess over the root by i/(1 + q)
        q = max(g + order * math.log1p(q), 0.0)
    return math.sqrt(4.0 * t * max(q, 2.0 * t + 11.0))


def h3_log(t, r):
    """log of the 3-space heat kernel (4 pi t)^{-3/2} (r/sinh r) e^{-t - r^2/(4t)}."""
    check_domain(t, r)
    return _h3_log_from(np.asarray(t, dtype=float), *_h3_distance_part(r))


def h3_dt_prefactor(t, r, order: int):
    """Polynomial factor p_i with d^i/dt^i h = h * p_i, hard-coded for i <= 2.

    With u = r^2/(4t^2) - 3/(2t) - 1 (the log-derivative in t):
    p_0 = 1, p_1 = u, p_2 = u^2 + u' where u' = 3/(2t^2) - r^2/(2t^3).
    """
    check_domain(t, r)
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
# points per pass; bounds the (points x nodes) temporaries.  256 points by
# 96 nodes keep each near 200 kB: an 8,100-point pass takes about half the
# time it took in blocks of 2,048
_H2_BLOCK = 256


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


def _h2_dt1_weight(u, r, t):
    """Weight P_1 with d/dt of the plane integrand = P_1 * integrand, at
    s = r + u^2: P_1 = s^2/(4t^2) - 3/(2t) - 1/4."""
    s = r + u * u
    return s * s / (4.0 * t * t) - 1.5 / t - 0.25


def _h2_dt2_weight(u, r, t):
    """Weight P_2 = P_1^2 + 3/(2t^2) - s^2/(2t^3) of the second t-derivative."""
    s = r + u * u
    p1 = _h2_dt1_weight(u, r, t)
    return p1 * p1 + 1.5 / (t * t) - s * s / (2.0 * t * t * t)


_H2_TIME_WEIGHTS = (None, _h2_dt1_weight, _h2_dt2_weight)  # by order; None is the kernel


def _h2_radial_weight(u, r, t):
    """d/dr of the plane integrand over the integrand, at fixed u (s = r + u^2):
    1/s - s/(2t) - (1/2) coth((s + r)/2)."""
    s = r + u * u
    return (1.0 - s * s / (2.0 * t)) / s - 0.5 / np.tanh(r + 0.5 * u * u)


_H2_LOG_CONST = 0.5 * math.log(2.0) - 1.5 * LOG_4PI


def _h2_log_prefactor(t: np.ndarray, r: np.ndarray) -> np.ndarray:
    """log of sqrt(2) (4 pi t)^{-3/2} e^{-t/4 - r^2/(4t)}, the factor outside
    the scaled integral."""
    return _H2_LOG_CONST - 1.5 * np.log(t) - t / 4.0 - r * r / (4.0 * t)


def _h2_u_max(t, r, sqrt):
    """(u_max, graded): u_max = sqrt(s_max - r) from the phase cut, and
    whether the point takes the graded panels (sqrt(2r) < a tenth of u_max,
    see _GL_GRADED).  `sqrt` is math.sqrt for floats and np.sqrt for
    arrays; both round correctly, so a float gets its array entry's bits."""
    cut = (4.0 * _H2_EXP_CUT) * t
    u_max = sqrt(cut / (sqrt(r * r + cut) + r))
    g = _H2_GRADE_BELOW * u_max
    return u_max, 2.0 * r < g * g


def _h2_rule_pass(rule, t, r, u_max, weight, named):
    """The certified integral of weight * integrand over [0, 1] * u_max
    (without the factor u_max): at one point for floats t, r and u_max, or
    per row of (t, r, u_max) columns.  A derivative weight is certified
    against the integral of |weight| * integrand (see _h2_moment for the
    tolerances); QuadratureError names the entries of `named`, the point's
    t and r or their rows."""
    u = u_max * rule[0]
    f = _h2_scaled_integrand(u, r, t)
    if weight is None:
        return gl_certified(f, rule, _H2_REL_TOL, "plane-kernel", named)
    return gl_certified(f * weight(u, r, t), rule, _H2_MOMENT_TOL, "plane-kernel", named,
                        absolute=True)


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
    for lo in range(0, t.size, _H2_BLOCK):
        tb, rb = t[lo:lo + _H2_BLOCK, None], r[lo:lo + _H2_BLOCK, None]
        u_max, graded = _h2_u_max(tb, rb, np.sqrt)
        graded = graded[:, 0]
        if not graded.any():
            fine = _h2_rule_pass(_GL_PLAIN, tb, rb, u_max, weight, {"t": tb[:, 0], "r": rb[:, 0]})
        else:
            fine = np.empty(tb.shape[0])
            for rule, rows in ((_GL_PLAIN, ~graded), (_GL_GRADED, graded)):
                tr, rr = tb[rows], rb[rows]
                fine[rows] = _h2_rule_pass(rule, tr, rr, u_max[rows], weight,
                                           {"t": tr[:, 0], "r": rr[:, 0]})
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

    A call with float t and r (Python or numpy) is cached: after the domain
    check, a repeat of the same (t, r) returns the float the first pass
    computed (see _h2_float_pass, 64 entries).  Errors and array calls are
    never cached.
    """
    return _h2_log_abs(t, r, None)[0]


def h2_dt_log_abs(t, r, order: int):
    """(log |d^i_t h|, sign) for the plane kernel, i <= 2, vectorized.

    The time derivatives weight the nodes of h2_log's pass by P_i (see
    _h2_dt1_weight and _h2_dt2_weight); each derivative moment is certified
    to 1e-8 of the integral of |P_i| times the integrand.  Order 0 is
    h2_log.  Float calls are cached like h2_log's, under their weight.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"plane time derivatives stop at order 2, got {order}")
    return _h2_log_abs(t, r, _H2_TIME_WEIGHTS[order])


def h2_radial_log_abs(t, r):
    """log |d_r h| on the plane, r > 0, vectorized: the r-derivative weights
    the nodes of h2_log's pass (see _h2_radial_weight), certified like a
    time-derivative moment.  Float calls are cached like h2_log's, under
    their weight; errors and arrays never are."""
    return _h2_log_abs(t, r, _h2_radial_weight)[0]


def _h2_log_abs(t, r, weight):
    """(log |moment|, sign of the moment) of `weight` times the plane
    integrand, the prefactor included, at broadcast (t, r); floats for
    scalars.  Float t and r go through _h2_float_pass once the domain check
    passes."""
    check_domain(t, r, radial=weight is _h2_radial_weight)
    if isinstance(t, float) and isinstance(r, float):
        return _h2_float_pass(weight, t, r)
    return _h2_pass(t, r, weight)


# The finite differences of one plane point share their stencil times, so a
# point's kernel, two time differences, radial gradient and Li-Yau gap make
# 23 calls on 8 distinct passes.  The key is the weight and (t, r), not the
# rules, which are constants: code that replaces a rule clears the cache.
# A miss runs one lean pass: u_max and the rule in float arithmetic, then
# _h2_rule_pass on the point's 96 nodes, with no blocks, row masks or
# one-element arrays.  A kernel pass takes 18-19 us where _h2_pass on one
# point took 40-41 us (timeit, 2-core x86-64, numpy 2.4).
@lru_cache(maxsize=64)
def _h2_float_pass(weight, t: float, r: float) -> tuple[float, float]:
    """_h2_pass at float t and r that passed the domain check, with the
    bits and the QuadratureError of its array entry: the same per-rule core
    and the same numpy calls on the moment."""
    u_max, graded = _h2_u_max(t, r, math.sqrt)
    moment = _h2_rule_pass(_GL_GRADED if graded else _GL_PLAIN, t, r, u_max, weight,
                           {"t": t, "r": r}) * u_max
    # log 0 = -inf, as _h2_pass's np.log gives, without entering np.errstate
    log_abs = _h2_log_prefactor(t, r) + (np.log(np.abs(moment)) if moment else -math.inf)
    return float(log_abs), float(np.sign(moment))


def _h2_pass(t, r, weight):
    """_h2_log_abs after its domain check, uncached."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    if t.shape != r.shape:
        t, r = np.broadcast_arrays(t, r)
    ts, rs, shape = t.ravel(), r.ravel(), t.shape
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


def fd_time_derivatives(kernel, order: int, t, r) -> FdDerivative:
    """i-th central finite difference in t with two Richardson levels, at
    a point or at every point of numpy arrays `t` and `r` that broadcast.

    `kernel` is an evaluator f(t, r) of the same kind as `t` and `r`:
    floats for floats, arrays for arrays; it is called once per distinct
    stencil point, with t shifted by the step: 6 calls at order 1, and 7 at
    order 2, whose three levels share the centre.  The step is 1e-3 * t;
    the error estimate is the difference of the last two Richardson
    extrapolants.
    Each array entry is bit-identical to a call at that point alone.
    Trust a value only where precision_ok.
    """
    if order not in (0, 1, 2):
        raise ValueError(f"finite differences support orders 0..2, got {order}")
    check_domain(t, r)
    if order == 0:
        value = kernel(t, r)
        zero = np.zeros(np.shape(value))
        return FdDerivative(value=value, error=zero, rel_error=zero,
                            subnormal_stencil=abs(value) < sys.float_info.min)
    h = _FD_STEP_SCALE * t  # the widest stencil point, t - 4h, stays positive
    stencil = _FD_STENCILS[order]
    # order 2's centre t + 0 * step is t at every step: one call serves the
    # three levels
    centre = kernel(t + 0.0 * h, r) if order == 2 else None
    seen = [] if centre is None else [centre]

    def diff(step):
        acc = 0.0
        for offset, coeff in stencil:
            if offset:
                f = kernel(t + offset * step, r)
                seen.append(f)
            else:
                f = centre
            acc += coeff * f
        # the exact square: Python's step ** 2 calls C pow, which rounds
        # differently on about 1 step in 1,200
        return acc / (step * step if order == 2 else step)

    # Richardson ladder with h as the smallest step: the base step stays
    # 1e-3 * t, so subtractive roundoff never grows past the h level.
    d0, d1, d2 = diff(4.0 * h), diff(2.0 * h), diff(h)
    r1a = (4.0 * d1 - d0) / 3.0
    r1b = (4.0 * d2 - d1) / 3.0
    value = (16.0 * r1b - r1a) / 15.0
    error = abs(value - r1b)
    # smallest |kernel value|, NaN ignored: zero or subnormal values carry
    # too few significant bits for the differences to mean anything
    smallest = np.fmin.reduce(np.abs(seen), axis=0)
    return FdDerivative(value=value, error=error,
                        rel_error=error / np.maximum(abs(value), 1e-300),
                        subnormal_stencil=smallest < sys.float_info.min)


def fd_time_derivative(kernel, order: int, t: float, r: float) -> FdDerivative:
    """fd_time_derivatives at one point, with float fields.

    `kernel` is any evaluator f(t, r) -> float and is called with the
    floats t + offset * step and r.
    """
    fd = fd_time_derivatives(kernel, order, t, r)
    return FdDerivative(value=float(fd.value), error=float(fd.error),
                        rel_error=float(fd.rel_error),
                        subnormal_stencil=bool(fd.subnormal_stencil))


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
    t = np.geomspace(1e-3, 60.0, 90)[:, None]
    d_grid = np.linspace(0.0, 60.0, 90)
    log_abs, _ = model.dt_log_abs(t, d_grid, order)
    log_env = (-(n / 2.0 + order) * np.log(t)
               - (1.0 - epsilon) * (rho * rho * t + rho * d_grid + d_grid * d_grid / (4.0 * t)))
    return math.exp(float(np.max(log_abs - log_env))) * 1.5  # safety headroom over the grid fit


def _block_distances(orbits, ks) -> np.ndarray:
    """The first ks[g] distances of each orbit, concatenated."""
    return np.concatenate([orbit.distances[:k] for orbit, k in zip(orbits, ks)])


# One block at most: its distance part holds 16 bytes per point.  OrbitSets
# hash by identity and their distances are read-only, so no entry goes stale.
@lru_cache(maxsize=1)
def _h3_block_terms(orbits: tuple, ks: tuple) -> tuple[np.ndarray, np.ndarray]:
    """(log(r/sinh r), r^2), read-only, over _block_distances(orbits, ks),
    after the distance test h3_dt_log_abs makes."""
    distances = _block_distances(orbits, ks)
    check_domain(1.0, distances)
    parts = _h3_distance_part(distances)
    for part in parts:
        part.setflags(write=False)
    return parts


# (times x points) terms per pass of quotient_kernels; bounds each
# temporary near 1 MB.  An orbit with more terms than this runs alone.
_ORBIT_BLOCK = 1 << 17


def _orbit_blocks(ks: list[int], n_times: int) -> list[slice]:
    """Slices of consecutive orbits, with ks[g] terms per time, whose terms
    together stay within _ORBIT_BLOCK, or one orbit that alone exceeds it."""
    if sum(ks) * n_times <= _ORBIT_BLOCK:
        return [slice(0, len(ks))]
    blocks, lo, size = [], 0, 0
    for g, k in enumerate(ks):
        if size and (size + k) * n_times > _ORBIT_BLOCK:
            blocks.append(slice(lo, g))
            lo, size = g, 0
        size += k
    return blocks + [slice(lo, len(ks))]


def _block_sums(model: rootspace.SpaceModel, ts: np.ndarray, order: int, orbits: list,
                ks: list[int]) -> np.ndarray:
    """(orbits x times) sums of d^order_t h over each orbit's first k
    distances at the times ts.

    One distance-part pass and one exp cover the block's terms; each orbit
    is then summed over its own contiguous columns, which groups the
    additions as a sum over that orbit alone does.  In 3-space the distance
    part comes from _h3_block_terms, which keeps the last block's.  A
    3-space block of one orbit evaluates only its first kc columns, the
    distances below _h3_cut_radius at the largest time: the columns from kc
    on are terms exp would round to +0.0 at every time, so they stay zeros
    of a zero (times x k) array, and the same np.sum over full rows adds
    the same floats in the same groups as the whole row does."""
    if model.n == 3:
        log_ros, rr = _h3_block_terms(tuple(orbits), tuple(ks))
        if len(ks) == 1:
            cut = _h3_cut_radius(float(ts.max()), order)
            kc = max(1, int(np.searchsorted(orbits[0].distances[:ks[0]], cut)))
            log_abs, sign = _h3_dt_log_abs_from(ts[:, None], log_ros[:kc], rr[:kc], order)
            terms = np.zeros((ts.size, ks[0]))
            live = np.exp(log_abs, out=terms[:, :kc])
            if sign is not None:
                live *= sign
            return np.sum(terms, axis=1)[None]
        log_abs, sign = _h3_dt_log_abs_from(ts[:, None], log_ros, rr, order)
    else:
        log_abs, sign = model.dt_log_abs(ts[:, None], _block_distances(orbits, ks), order)
    terms = np.exp(log_abs) if sign is None else np.exp(log_abs) * sign
    if len(ks) == 1:
        return np.sum(terms, axis=1)[None]
    sums = np.empty((len(ks), ts.size))
    lo = 0
    for g, k in enumerate(ks):
        np.sum(terms[:, lo:lo + k], axis=1, out=sums[g])
        lo += k
    return sums


def quotient_kernels(orbits, space: str, t, order: int, r_cut: float,
                     delta: float | None = None, epsilon: float = 0.2) -> QuotientKernelEval:
    """Orbit sums of kernel time derivatives over the points with
    d(x, gy) <= r_cut of each `OrbitSet` in the nonempty sequence `orbits`,
    on the space named "h2" or "h3", at a positive time `t` or a 1-D array
    of them.

    `value` and `truncation_bound` are (orbits x times) arrays and
    `terms_used` is an integer array over the orbits; each row is
    bit-identical to a call on that orbit alone.  The orbits are summed in
    blocks of at most _ORBIT_BLOCK terms, one pass each; in 3-space a repeat
    of the last block, at another order or t-grid, reuses its distance part
    (see _h3_block_terms), and an orbit that runs alone in 3-space skips the
    terms past the proven underflow radius of its largest time, whose float
    value is +0.0 (see _h3_cut_radius and _block_sums); the sums keep their
    bits.  The truncation bound weights the Gaussian
    envelope of the derivative with the exponential counting bound
    c * e^{delta R} over the unit shells from floor(r_cut) on, and bounds
    that whole series in closed form (see _truncation_tails); an exhaustive
    orbit summed to its end has tail 0.
    """
    model = rootspace.named_model(space)
    ts = np.asarray(t, dtype=float)
    if ts.ndim > 1 or ts.size == 0:
        raise ValueError("t must be a positive time or a nonempty 1-D array of them")
    # a float skips numpy's per-call cost, as in check_domain
    if not (0.0 < t < math.inf if isinstance(t, float) else ((ts > 0.0) & (ts < math.inf)).all()):
        raise ValueError(f"t must be positive and finite, got {t!r}")
    if not math.isfinite(r_cut):
        raise ValueError(f"r_cut must be finite, got {r_cut!r}")
    if delta is not None and not 0.0 <= delta < math.inf:
        raise ValueError(f"delta must be finite and nonnegative, got {delta!r}")
    if not 0.0 < epsilon < 1.0:
        raise ValueError("tail envelope needs epsilon in (0, 1); the Gaussian decay rate "
                         "(1 - epsilon)/(4t) must stay positive for the tail to converge")
    ts = ts.reshape(-1)
    orbits = list(orbits)
    if not orbits:
        raise ValueError("quotient_kernels needs at least one orbit")
    # each orbit's terms within r_cut; the orbits with a tail, which are all
    # but the exhaustive ones summed to their end
    ks, cut = [], []
    for g, orbit in enumerate(orbits):
        if orbit.r_max < r_cut - 1e-12:
            raise ValueError(f"orbit certified to {orbit.r_max}, below r_cut={r_cut}")
        if r_cut <= float(orbit.distances[0]):
            raise ValueError("r_cut must exceed the quotient distance d_M(x, y)")
        k = int(np.searchsorted(orbit.distances, r_cut + 1e-12, side="right"))
        ks.append(k)
        if not (orbit.exhaustive and k == orbit.distances.size):
            cut.append(g)
    blocks = [_block_sums(model, ts, order, orbits[block], ks[block])
              for block in _orbit_blocks(ks, ts.size)]
    values = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)

    tails = np.zeros(values.shape)
    if cut:
        if delta is None:
            raise ValueError("supply delta (critical-exponent bound) for the truncation tail")
        envelope = _tail_envelope_constant(model, order, epsilon)
        # a column of scales gives a row per cut orbit
        scales = np.array([[envelope * orbits[g].counting_constant(delta)] for g in cut])
        tails[cut] = _truncation_tails(model, order, epsilon, delta, scales, math.floor(r_cut),
                                       ts)
    return QuotientKernelEval(value=values, terms_used=np.array(ks), truncation_bound=tails)


def quotient_kernel(orbit, space: str, t, x, y, order: int, r_cut: float,
                    delta: float | None = None, epsilon: float = 0.2) -> QuotientKernelEval:
    """quotient_kernels on the one `OrbitSet` orbit: for a scalar `t`,
    `value` and `truncation_bound` are floats and `terms_used` an int; for
    a 1-D array, arrays over t, each entry bit-identical to a scalar call
    at that t.  `x` and `y` are ignored (the orbit carries its basepoints);
    they keep their places for positional callers until this view goes.
    """
    ev = quotient_kernels([orbit], space, t, order, r_cut, delta, epsilon)
    if np.ndim(t) == 0:
        return QuotientKernelEval(value=ev.value.item(0), terms_used=int(ev.terms_used[0]),
                                  truncation_bound=ev.truncation_bound.item(0))
    return QuotientKernelEval(value=ev.value[0], terms_used=int(ev.terms_used[0]),
                              truncation_bound=ev.truncation_bound[0])


def _truncation_tails(model: rootspace.SpaceModel, order: int, epsilon: float, delta: float,
                      scale, k0: int, ts: np.ndarray) -> np.ndarray:
    """Per-t upper bound of the shell series sum_{k >= k0} scale * e^{L(k)},
    L(k) = delta (k+1) - (n/2+i) log t - a rho^2 t - a (rho k + k^2/(4t)),
    a = 1 - epsilon: the counting bound times the derivative's envelope.
    `scale` is a float, or a column of them (one per orbit) for an
    (orbits x times) array.

    L is a concave quadratic, L(k) = L(kp) - C (k - kp)^2 with C = a/(4t)
    and peak kp = 2t (delta - a rho)/a, so the terms rise to one peak and
    then fall; such a sum is at most its largest term, e^{L(top)} at
    top = max(k0, kp), plus the integral I of e^L from k0.  With
    z = sqrt(C) (k0 - kp), L(top) = L(kp) - max(z, 0)^2 and I is
    e^{L(kp)} sqrt(pi/C) erfc(z)/2.  For z >= 0, where top = k0, the
    Mills-ratio bound on erfc (Abramowitz & Stegun 7.1.13) gives
    I <= e^{L(k0)} / (sqrt(C) (z + sqrt(z^2 + 4/pi))); for z < 0, where
    top = kp, erfc <= 2 gives I <= e^{L(kp)} sqrt(pi/C).
    """
    n, rho = model.n, model.rho_norm
    a = 1.0 - epsilon
    c = a / (4.0 * ts)
    root_c = np.sqrt(c)
    slope = delta - a * rho  # L'(0)
    log_peak = delta - (n / 2.0 + order) * np.log(ts) - a * rho * rho * ts + slope * slope / a * ts
    z = root_c * (k0 - 2.0 * slope / a * ts)
    log_top = log_peak - np.maximum(z, 0.0) ** 2
    integral = np.where(z >= 0.0, 1.0 / (root_c * (z + np.sqrt(z * z + 4.0 / math.pi))),
                        np.sqrt(math.pi / c))  # I / e^{L(top)}
    return scale * np.exp(log_top) * (1.0 + integral)
