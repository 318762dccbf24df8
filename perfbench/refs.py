"""Independent references for the benchmark's output checks.

Nothing here imports heatlab.  The plane kernel has two references: an
mpmath one (the arbiter, slow) and a float64 one with the time and radial
derivatives taken analytically under the integral (fast enough to check
every point).  Tests check the float one against the mpmath one.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy.integrate import quad

LOG_PLANE_CONST = 0.5 * math.log(2.0) - 1.5 * math.log(4.0 * math.pi)


# ---------------------------------------------------------------------------
# plane kernel, mpmath
#
# h(t, r) = sqrt(2) (4 pi t)^{-3/2} e^{-t/4} int_r^inf s e^{-s^2/4t}
#           / sqrt(cosh s - cosh r) ds,  with s = r + u^2.
# e^{-r^2/4t} is factored out so the integrand is O(1) near u = 0, and the
# u-range is cut at the Gaussian width: a plain quad of the raw integrand
# misses the narrow peak at small t by about 1e-7 in log.


def _mp_scaled_integral(t, r):
    t = mpmath.mpf(t)
    r = mpmath.mpf(r)

    def f(u):
        if u == 0:  # the limit; u / sqrt(sinh(u^2/2)) -> sqrt(2)
            return 2 * r / mpmath.sqrt(mpmath.sinh(r)) if r > 0 else mpmath.mpf(0)
        s = r + u * u
        phase = u * u * (2 * r + u * u) / (4 * t)
        den = mpmath.sqrt(2 * mpmath.sinh((s + r) / 2) * mpmath.sinh(u * u / 2))
        return 2 * u * s * mpmath.exp(-phase) / den

    # Gaussian width in u: 2 r u^2 / 4t ~ 1 or u^4 / 4t ~ 1, whichever is narrower
    width = min(mpmath.sqrt(2 * t / max(r, mpmath.mpf("1e-30"))), (4 * t) ** mpmath.mpf(0.25))
    u_max = mpmath.sqrt(-r + mpmath.sqrt(r * r + 4 * t * 200))  # phase 200 at the end
    cuts = [mpmath.mpf(0)]
    edge = width / 16
    while edge < u_max:
        cuts.append(edge)
        edge *= 2
    cuts.append(u_max)
    return mpmath.quad(f, cuts)


def mp_h2_log(t, r):
    """log h2(t, r) in mpmath precision."""
    t = mpmath.mpf(t)
    r = mpmath.mpf(r)
    return (mpmath.log(2) / 2 - mpmath.mpf(1.5) * mpmath.log(4 * mpmath.pi * t) - t / 4
            - r * r / (4 * t) + mpmath.log(_mp_scaled_integral(t, r)))


def mp_h2(t, r):
    return mpmath.exp(mp_h2_log(t, r))


def mp_h2_point(t: float, r: float, dps: int = 30) -> dict:
    """log h, d_t h, d_t^2 h and d_r h at one point, derivatives by mpmath.diff.

    Values are returned as mpf so that points where h underflows a float
    keep their magnitude.
    """
    with mpmath.workdps(dps):
        h = mp_h2(t, r)
        d1 = mpmath.diff(lambda tt: mp_h2(tt, r), t, 1)
        d2 = mpmath.diff(lambda tt: mp_h2(tt, r), t, 2)
        dr = mpmath.diff(lambda rr: mp_h2(t, rr), r, 1)
        return {"log_h": mpmath.log(h), "h": h, "dt1": d1, "dt2": d2, "dr": dr}


# ---------------------------------------------------------------------------
# plane kernel, float64
#
# With s = r + v every integrand is w(v) v^{-1/2} with w smooth at v = 0, so
# QUADPACK's algebraic-singularity rule (QAWS) integrates it directly: a
# different method from heatlab's u^2 substitution.  The t- and r-derivatives
# are taken under the integral:
#   d_t:   P1 = s^2/(4t^2) - 3/(2t) - 1/4,  d_t^2: P1^2 + 3/(2t^2) - s^2/(2t^3)
#   d_r:   1 - s^2/(2t) - (s/2) coth(r + v/2)
# using (sinh s - sinh r)/(cosh s - cosh r) = coth((s + r)/2).


def _plane_factor(name: str, s: float, t: float, r: float, v: float) -> float:
    """The weight that turns the kernel integrand into that of a derivative."""
    if name == "h":
        return 1.0
    p1 = s * s / (4.0 * t * t) - 1.5 / t - 0.25
    if name == "dt1":
        return p1
    if name == "dt2":
        return p1 * p1 + 1.5 / (t * t) - s * s / (2.0 * t ** 3)
    return (1.0 - s * s / (2.0 * t)) / s - 0.5 / math.tanh(r + v / 2.0)  # "dr"


def _plane_w(v, r, t, name, absolute):
    s = r + v
    # sqrt(v / (cosh s - cosh r)) = sqrt((v/2) / sinh(v/2)) / sqrt(sinh(r + v/2))
    half = v / 2.0
    ratio = 1.0 if half < 1e-8 else math.sqrt(half / math.sinh(half))
    if r + half > 350.0:
        inv_sqrt = math.exp(-0.5 * (r + half - math.log(2.0))) * ratio
    else:
        inv_sqrt = ratio / math.sqrt(math.sinh(r + half))
    factor = _plane_factor(name, s, t, r, v)
    return s * math.exp(-v * (2.0 * r + v) / (4.0 * t)) * inv_sqrt * (
        abs(factor) if absolute else factor)


def _plane_integral(t: float, r: float, name: str, absolute: bool = False) -> float:
    v_max = -r + math.sqrt(r * r + 4.0 * t * 80.0)  # Gaussian phase e^{-80} at the cut
    value, _err = quad(_plane_w, 0.0, v_max, args=(r, t, name, absolute), weight="alg",
                       wvar=(-0.5, 0.0), epsabs=0.0, epsrel=1e-12, limit=200)
    return value


def plane_point(t: float, r: float) -> dict:
    """Float reference at one plane point (r > 0).

    "log_h" is log h; "dt1", "dt2" and "dr" are (log |value|, sign, log of
    the absolute-value integral), the last being the scale on which the
    derivative's cancellation error is measured.
    """
    log_pref = LOG_PLANE_CONST - 1.5 * math.log(t) - t / 4.0 - r * r / (4.0 * t)
    out = {"log_h": log_pref + math.log(_plane_integral(t, r, "h"))}
    for name in ("dt1", "dt2", "dr"):
        value = _plane_integral(t, r, name)
        scale = _plane_integral(t, r, name, absolute=True)
        out[name] = (log_pref + math.log(abs(value)) if value != 0.0 else -math.inf,
                     math.copysign(1.0, value), log_pref + math.log(scale))
    return out


# ---------------------------------------------------------------------------
# 3-space kernel: h = (4 pi t)^{-3/2} (r / sinh r) e^{-t - r^2/(4t)}


def mp_h3(t, r):
    t = mpmath.mpf(t)
    r = mpmath.mpf(r)
    shape = 1 if r == 0 else r / mpmath.sinh(r)
    return (4 * mpmath.pi * t) ** mpmath.mpf(-1.5) * shape * mpmath.exp(-t - r * r / (4 * t))


def mp_h3_dt(t, r, order: int, dps: int = 30):
    """d^order/dt^order of the 3-space kernel by mpmath.diff."""
    with mpmath.workdps(dps):
        if order == 0:
            return mp_h3(t, r)
        return mpmath.diff(lambda tt: mp_h3(tt, r), t, order)


def h3_dt_terms(t: float, d: np.ndarray, order: int) -> np.ndarray:
    """Float closed form of d^order/dt^order h3 at each distance in d."""
    d = np.asarray(d, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        # log(r / sinh r) = log(2r) - r - log(1 - e^{-2r}), limit 0 at r = 0
        log_shape = np.where(d > 1e-8, np.log(2.0 * d) - d - np.log(-np.expm1(-2.0 * d)),
                             -d * d / 6.0)
    log_h = -1.5 * math.log(4.0 * math.pi * t) - t - d * d / (4.0 * t) + log_shape
    u = d * d / (4.0 * t * t) - 1.5 / t - 1.0
    factor = {0: np.ones_like(d), 1: u, 2: u * u + 1.5 / (t * t) - d * d / (2.0 * t ** 3)}[order]
    return np.exp(log_h) * factor


# ---------------------------------------------------------------------------
# orbits


def _act(mats: np.ndarray, z: complex, h: float) -> tuple[np.ndarray, np.ndarray]:
    """Images of the upper half-space point (z, h) under stacked 2x2 matrices."""
    a, b, c, d = mats[:, 0, 0], mats[:, 0, 1], mats[:, 1, 0], mats[:, 1, 1]
    czd = c * z + d
    den = np.abs(czd) ** 2 + np.abs(c) ** 2 * h * h
    return ((a * z + b) * np.conj(czd) + a * np.conj(c) * h * h) / den, h / den


def _dist(x: tuple[complex, float], z: np.ndarray, h: np.ndarray) -> np.ndarray:
    zx, hx = x
    return np.arccosh(1.0 + (np.abs(zx - z) ** 2 + (hx - h) ** 2) / (2.0 * hx * h))


def brute_force_orbit(generators, x, y, max_len: int) -> tuple[np.ndarray, np.ndarray]:
    """d(x, w y) and |w| for every reduced word w of length <= max_len.

    Letters are g1, g1^-1, g2, g2^-1, ...; the inverse of letter j is j ^ 1.
    """
    letters = []
    for g in generators:
        g = np.asarray(g, dtype=complex)
        letters += [g, np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]])]
    y_z, y_h = complex(y[0]), float(y[1])
    x = (complex(x[0]), float(x[1]))
    mats = np.eye(2, dtype=complex)[None]
    last = np.array([-1])
    dists = [_dist(x, *_act(mats, y_z, y_h))]
    lengths = [np.zeros(1, dtype=int)]
    for length in range(1, max_len + 1):
        new_mats, new_last = [], []
        for j, g in enumerate(letters):
            keep = last != (j ^ 1)
            new_mats.append(mats[keep] @ g)
            new_last.append(np.full(int(keep.sum()), j))
        mats, last = np.concatenate(new_mats), np.concatenate(new_last)
        dists.append(_dist(x, *_act(mats, y_z, y_h)))
        lengths.append(np.full(mats.shape[0], length))
    return np.concatenate(dists), np.concatenate(lengths)


def schottky_word_bound(radius: float, wall_gap: float) -> int:
    """Word length through which a brute force is complete below radius.

    With x and y outside every isometric hemisphere, w y for a reduced word
    of length L lies behind L nested walls, consecutive ones at least
    wall_gap apart, so d(x, w y) >= (L - 1) wall_gap.  Words longer than the
    returned length therefore land beyond radius.
    """
    return int(math.floor(radius / wall_gap)) + 1 if radius > 0 else 0


def cyclic_orbit(log_multiplier: complex, x, y, radius: float) -> np.ndarray:
    """Sorted d(x, g^k y) <= radius for g = diag(m^(1/2), m^(-1/2)), m = e^w.

    g^k maps (z, h) to (e^{k w} z, e^{k Re w} h), a screw motion along the
    vertical axis, so the distances are closed-form in k.
    """
    zx, hx = complex(x[0]), float(x[1])
    zy, hy = complex(y[0]), float(y[1])
    length = log_multiplier.real
    d_xy = _dist((zx, hx), np.array([zy]), np.array([hy]))[0]
    k_max = int(math.ceil((radius + d_xy) / length)) + 1
    k = np.arange(-k_max, k_max + 1)
    z = np.exp(k * log_multiplier) * zy
    h = np.exp(k * length) * hy
    d = _dist((zx, hx), z, h)
    return np.sort(d[d <= radius])


# ---------------------------------------------------------------------------
# Riesz time integral on the 3-space: int_0^inf |d_r h_t(r)| t^{-1/2} dt


def mp_riesz_integral(r: float, dps: int = 20):
    with mpmath.workdps(dps):
        r = mpmath.mpf(r)
        grad = mpmath.coth(r) - 1 / r

        def f(t):
            return mp_h3(t, r) * (grad + r / (2 * t)) / mpmath.sqrt(t)

        peak = r * r / 4
        return mpmath.quad(f, [0, peak / 64, peak / 8, peak, 8 * peak, 64 * peak + 1,
                               1000, mpmath.inf])


# ---------------------------------------------------------------------------
# report closed forms


def recurrence_columns(lam: float, i_max: int, steps: int) -> tuple[list, list]:
    """Row `steps` of beta[l][i] = (beta[l-1][i-1] + beta[l-1][i+1]) / 2 and
    gamma[l][i] = (lam gamma[l-1][i-1] + gamma[l-1][i+1]) / 2, column 0
    pinned at 1 and every other cell starting at 0, on an unbounded i-axis."""
    width = i_max + steps + 2  # cells past i_max + steps never reach column i_max
    beta = [1.0] + [0.0] * width
    gamma = [1.0] + [0.0] * width
    for _ in range(steps):
        beta = [1.0] + [(beta[i - 1] + beta[i + 1]) / 2.0 for i in range(1, width)] + [0.0]
        gamma = [1.0] + [(lam * gamma[i - 1] + gamma[i + 1]) / 2.0 for i in range(1, width)] + [0.0]
    return beta[: i_max + 1], gamma[: i_max + 1]


def sigma_threshold_heat(p: float, rho: float, eta: float) -> float:
    s = 2.0 * min(1.0 / p, 1.0 - 1.0 / p)
    return s * (rho - eta) * (2.0 * rho - s * (rho - eta))


def h3_envelope_ratio(r: np.ndarray) -> np.ndarray:
    """h3 over its sharp envelope t^{-3/2} (1 + r) e^{-t - r - r^2/4t}; free of t."""
    r = np.asarray(r, dtype=float)
    with np.errstate(invalid="ignore", divide="ignore"):
        shape = np.where(r > 0, 2.0 * r / (-np.expm1(-2.0 * r)), 1.0)  # r e^r / sinh r
    return (4.0 * math.pi) ** -1.5 * shape / (1.0 + r)
