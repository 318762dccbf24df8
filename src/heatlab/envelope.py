"""Log-space envelope algebra for the kernel-derivative bounds.

Covers the sharp two-sided envelope, on-diagonal derivative bounds built
from iterated integrals, the two-index rate recurrence with its closed-form
limit, the main decay right-hand sides, the curvature-based gradient
inequality gap, and fitted-constant grid protocols.

Every envelope evaluates in log space, so extreme Gaussian regimes never
underflow mid-computation.  The iterated integrals are one certified
Gauss-Legendre pass over t-arrays (oracle.gl_certified), after a
substitution that makes their integrands smooth at both ends.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import oracle
from .rootspace import SpaceModel


class ShapeMismatchError(RuntimeError):
    """Oracle exceeds the bound by more than e^700: wrong envelope shape."""


@dataclass(frozen=True)
class BoundGrid:
    """Doubly-indexed rate grids: rows are recurrence steps, columns are
    derivative orders; entries are the linear and Gaussian decay weights."""

    lam: float
    beta: np.ndarray   # shape (l_max+1, i_max+1)
    gamma: np.ndarray


def sharp_envelope_log(model: SpaceModel, t, r):
    """Log of the sharp envelope shape, constant slot 1.

    t^{-n/2} (1 + <a,H>) (1 + t + <a,H>)^{m_a/2 - 1}
    * exp(-|rho|^2 t - <rho,H> - r^2/(4t)) for the unit root a, of
    multiplicity m_a = n - 1, so <a,H> = r and the middle exponent is m.
    It matches the per-root contribution to the polynomial time exponent, so
    the 3-space factor is identically 1 and the plane factor is
    (1 + t + r)^{-1/2}, as in the closed-form estimates.
    """
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    return (
        -model.n / 2.0 * np.log(t)
        + np.log1p(r)
        + model.m_exp * np.log(1.0 + t + r)
        - model.rho_norm ** 2 * t
        - model.rho_dot(r)
        - r * r / (4.0 * t)
    )


# ---------------------------------------------------------------------------
# on-diagonal derivative bounds via iterated integrals


_ITERATED_RULE = oracle.gl_rule([0.0, 1.0])  # one panel in v, s = t v^2


def _float_or_array(values):
    return float(values) if np.ndim(values) == 0 else values


def _repeated_integral(f, i: int, t, site: str, args: dict):
    """i-fold iterated integral of f from 0 at each t (a float array of
    positive finite times, checked by the caller), via the single-integral
    form int_0^t (t-s)^{i-1}/(i-1)! f(s) ds.

    With s = t v^2 it is 2 t^i/(i-1)! int_0^1 (1-v^2)^{i-1} v f(t v^2) dv:
    for f(s) = s^{n/2} g(s) with g smooth, as for every profile here, the
    integrand is v^{n+1} times a smooth function, with no endpoint
    singularity.  One certified Gauss-Legendre pass over all t; scalars
    give a float.
    """
    if i < 1:
        raise ValueError("iterated integral order must be >= 1")
    ts = t.reshape(-1)  # a scalar is a one-row pass, so entries match scalar calls
    v = _ITERATED_RULE[0]
    values = (1.0 - v * v) ** (i - 1) * v * f(ts[:, None] * v * v)
    integral = oracle.gl_certified(values, _ITERATED_RULE, oracle.GL_REL_TOL, site,
                                   {**args, "i": i, "t": ts})
    out = 2.0 * ts ** i / math.factorial(i - 1) * integral
    return float(out[0]) if t.ndim == 0 else out.reshape(t.shape)


def grigoryan_f_lower_shape(model: SpaceModel, i: int, t):
    """Shape t^{(n/2)+i} (1+t)^{-m} of the analytic lower bound for the
    i-fold iterated integral f_i of an on-diagonal profile, up to a
    multiplicative constant."""
    t = np.asarray(t, dtype=float)
    return t ** (model.n / 2.0 + i) * (1.0 + t) ** (-model.m_exp)


def h3_exact_diagonal_f(t):
    """Reciprocal of the exact 3-space on-diagonal value: (4 pi t)^{3/2} e^t."""
    t = np.asarray(t, dtype=float)
    return (4.0 * math.pi * t) ** 1.5 * np.exp(t)


def h3_exact_diagonal_f_iterated(i: int, t):
    """The i-fold iterated integral of h3_exact_diagonal_f at t (scalar or
    array)."""
    t = np.asarray(t, dtype=float)
    if not ((t > 0.0) & (t < math.inf)).all():  # nan fails both tests
        raise ValueError("time must be positive and finite")
    if i == 0:
        return _float_or_array(h3_exact_diagonal_f(t))
    return _repeated_integral(h3_exact_diagonal_f, i, t, "h3 diagonal iterated integral", {})


def grigoryan_bound_exact_h3(i: int, t):
    """Constant-free derivative bound on the 3-space: 1/sqrt(f f_{2i}) with
    f the reciprocal of the exact diagonal, which dominates 1/h_t(x,x)
    with equality.  `t` is a positive scalar or array."""
    if i < 1:
        raise ValueError("derivative order must be >= 1")
    t = np.asarray(t, dtype=float)
    f_2i = h3_exact_diagonal_f_iterated(2 * i, t)  # rejects a bad t first
    return _float_or_array(1.0 / np.sqrt(h3_exact_diagonal_f(t) * f_2i))


# ---------------------------------------------------------------------------
# the rate recurrence


def recurrence_grid(lam: float, i_max: int, l_max: int) -> BoundGrid:
    """Iterate the rate recurrences
        beta[l][i]  = (beta[l-1][i-1]  + beta[l-1][i+1]) / 2
        gamma[l][i] = (lam * gamma[l-1][i-1] + gamma[l-1][i+1]) / 2
    from beta[0][i] = gamma[0][i] = 0 (i >= 1), column 0 pinned at 1.

    The i-axis is padded by l_max cells so the reported block never sees the
    truncation boundary: the i+1 dependency travels one column per step.
    lam = (1 - eps)/(1 + eps) for the bound at epsilon eps.
    """
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    if i_max < 0 or l_max < 0:
        raise ValueError("grid extents must be nonnegative")
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
    return BoundGrid(lam=lam, beta=np.asarray(betas), gamma=np.asarray(gammas))


def gamma_limit_from_lambda(lam: float, i) -> float:
    """Closed-form limit of the Gaussian-rate column: (1 - sqrt(1 - lam))^i."""
    if not 0.0 < lam < 1.0:
        raise ValueError(f"lambda must lie in (0, 1), got {lam}")
    return (1.0 - math.sqrt(1.0 - lam)) ** np.asarray(i)


# ---------------------------------------------------------------------------
# main right-hand sides


def theorem1_rhs(model: SpaceModel, i: int, t, r, epsilon: float):
    """Log of the derivative bound shape
    t^{-(n/2)-i} exp(-(1-eps)(|rho|^2 t + <rho,H> + r^2/(4t))), c = 1."""
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    return (
        -(model.n / 2.0 + i) * np.log(t)
        - (1.0 - epsilon) * (model.rho_norm ** 2 * t + model.rho_dot(r) + r * r / (4.0 * t))
    )


def gradient_rhs_log(model: SpaceModel, t, r, epsilon: float):
    """Log of the gradient bound shape
    t^{-(n+1)/2} exp(-(1-eps)(|rho|^2 t + <rho,H> + r^2/(4t))), c = 1."""
    t = np.asarray(t, dtype=float)
    r = np.asarray(r, dtype=float)
    return (
        -(model.n + 1.0) / 2.0 * np.log(t)
        - (1.0 - epsilon) * (model.rho_norm ** 2 * t + model.rho_dot(r) + r * r / (4.0 * t))
    )


def li_yau_rhs(n: int, curvature_sq: float, t, gamma: float):
    """Right-hand side n R^2 g^2 / (sqrt(2)(g-1)) + n g^2 / (2t) of the
    curvature gradient inequality, with R^2 the Ricci lower-bound scale."""
    if gamma <= 1.0:
        raise ValueError("the inequality needs gamma > 1")
    t = np.asarray(t, dtype=float)
    return n * curvature_sq * gamma ** 2 / (math.sqrt(2.0) * (gamma - 1.0)) \
        + n * gamma ** 2 / (2.0 * t)


def li_yau_gap(model: SpaceModel, t: float, r: float, gamma: float = 2.0) -> float:
    """RHS minus LHS of the curvature gradient inequality
    |grad h|^2/h^2 - g (1/h) dh/dt <= n R^2 g^2/(sqrt2 (g-1)) + n g^2/(2t)
    with R^2 = n - 1, evaluated with the exact oracles: the 3-space closed
    forms, or the plane model's kernel and r-derivative.  Nonnegative gap
    means the inequality holds at (t, r > 0).
    """
    oracle.check_domain(t, r, radial=True)
    if model.n == 3:
        grad_log_sq = (1.0 / r - 1.0 / math.tanh(r) - r / (2.0 * t)) ** 2
        dt_over_h = float(oracle.h3_dt_prefactor(t, r, 1))
    else:
        h = math.exp(model.log_kernel(t, r))
        grad_log_sq = (math.exp(model.radial_log_abs(t, r)) / h) ** 2
        # the time derivative stays a Richardson difference: the plane
        # workload in perfbench/checks.py checks the gap against that
        # difference (see ROADMAP item 4)
        fd = oracle.fd_time_derivative(lambda tt, rr: math.exp(model.log_kernel(tt, rr)),
                                       1, t, r)
        dt_over_h = fd.value / h
    lhs = grad_log_sq - gamma * dt_over_h
    rhs = float(li_yau_rhs(model.n, model.n - 1.0, t, gamma))
    return rhs - lhs


# ---------------------------------------------------------------------------
# fitted-constant grid protocols


def grid_points(t_range, r_range, nt: int, nr: int):
    """Meshgrid (T, R) over the requested ranges: t log-spaced, r linear."""
    t = np.geomspace(*t_range, nt)
    r = np.linspace(*r_range, nr)
    return np.meshgrid(t, r, indexing="ij")


def fit_constant(log_oracle, log_bound, grid) -> float:
    """Max over the grid of oracle/bound, computed as exp(max log-difference).

    Both evaluators take the grid coordinate arrays and return log values.
    Deterministic for a fixed grid.  Raises ShapeMismatchError when the
    oracle exceeds the bound by more than e^700.
    """
    coords = grid if isinstance(grid, (tuple, list)) else (grid,)
    lo = np.asarray(log_oracle(*coords), dtype=float)
    lb = np.asarray(log_bound(*coords), dtype=float)
    diff = lo - lb
    finite = np.isfinite(diff)
    if not finite.any():
        raise ValueError("no finite log-ratio on the grid")
    worst = float(np.max(diff[finite]))
    if worst > 700.0:
        raise ShapeMismatchError(f"oracle/bound ratio reaches e^{worst:.1f}: shape mismatch")
    return math.exp(worst)


@dataclass(frozen=True)
class TwoGridFit:
    c_coarse: float
    c_fine: float

    @property
    def stability(self) -> float:
        return self.c_fine / self.c_coarse

    def stable_within(self, factor: float = 1.05) -> bool:
        return self.c_fine <= factor * self.c_coarse


def two_grid_fit(log_oracle, log_bound, coarse_grid, fine_grid) -> TwoGridFit:
    """Fit the constant on the coarse grid, re-fit on the fine grid; the
    bound with the coarse constant covers the fine grid when stability
    stays within the protocol factor."""
    return TwoGridFit(
        c_coarse=fit_constant(log_oracle, log_bound, coarse_grid),
        c_fine=fit_constant(log_oracle, log_bound, fine_grid),
    )
