"""The space model every bound and oracle reads: real hyperbolic n-space.

`SpaceModel` is defined by the dimension n alone.  It derives the half-sum
norm, its chamber minimum and the polynomial growth exponents of the kernel
envelopes, and for n = 2 and 3 it carries the exact heat-kernel oracle of
`heatlab.oracle`.  Real hyperbolic space has rank one: one positive root, of
unit length and multiplicity n - 1, so its chamber is a ray and the chamber
minimum equals the norm.  Also here: the conjugate-exponent weight and the
splitting triples of the quotient bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# oracle imports this module in turn; each reads the other's attributes
# only at call time, so the tracer's replacements are always the ones seen
from . import oracle


@dataclass(frozen=True)
class SpaceModel:
    """Real hyperbolic n-space, curvature -1: the geometric context of every
    bound, and for n = 2 and 3 its exact heat-kernel oracle."""

    n: int

    @property
    def rho_norm(self) -> float:
        """|rho| = (n - 1)/2: the unit root has multiplicity n - 1."""
        return (self.n - 1) / 2.0

    @property
    def rho_m(self) -> float:
        """Minimum of <rho, H> over unit H in the chamber, a ray here."""
        return self.rho_norm

    @property
    def m_exp(self) -> float:
        """Polynomial exponent m of the on-diagonal shape (1 + t)^m."""
        return self.rho_norm - 1.0

    @property
    def A_exp(self) -> float:
        """Polynomial exponent of the chamber integrands."""
        return self.rho_norm

    def rho_dot(self, r):
        """<rho, H> for H of length r along the chamber ray."""
        return self.rho_norm * np.asarray(r, dtype=float)

    def log_kernel(self, t, r):
        """log h_t at geodesic distance r."""
        return self._exact()[0](t, r)

    def dt_log_abs(self, t, r, order: int):
        """(log |d^i_t h_t|, sign) at geodesic distance r, for i <= 2."""
        return self._exact()[1](t, r, order)

    def radial_log_abs(self, t, r):
        """log |d_r h_t| at geodesic distance r > 0."""
        return self._exact()[2](t, r)

    def _exact(self):
        # read from the module at each call, never stored on the model
        if self.n == 3:
            return oracle.h3_log, oracle.h3_dt_log_abs, oracle.h3_radial_log_abs
        if self.n == 2:
            return oracle.h2_log, oracle.h2_dt_log_abs, oracle.h2_radial_log_abs
        raise ValueError(f"no exact heat-kernel oracle in dimension n={self.n}; "
                         "only the plane (n = 2) and 3-space (n = 3) have one")


def build_real_hyperbolic(n: int) -> SpaceModel:
    """Model of the n-dimensional real hyperbolic space, curvature -1."""
    if int(n) != n or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {n}")
    return SpaceModel(int(n))


_NAMED = {"h2": 2, "h3": 3}


def named_model(space: str) -> SpaceModel:
    """The model a public space name keys: "h2" the plane, "h3" 3-space
    (any case)."""
    n = _NAMED.get(space.lower()) if isinstance(space, str) else None
    if n is None:
        raise ValueError(f"unknown space {space!r}, expected 'h2' or 'h3'")
    return SpaceModel(n)


def s_p(p: float) -> float:
    """Symmetrized conjugate-exponent weight 2*min(1/p, 1/p'), in (0, 1]."""
    if not p > 1.0:
        raise ValueError(f"p must lie in (1, inf), got {p}")
    inv = 1.0 / p
    return 2.0 * min(inv, 1.0 - inv)


@dataclass(frozen=True)
class AlphaTriple:
    """Splitting weights (a1, a2, a3) trading time decay, linear distance
    decay, and Gaussian decay in the quotient-space bound."""

    a1: float
    a2: float
    a3: float


def admissible_alpha_triple(triple: AlphaTriple, delta_gamma: float, model: SpaceModel) -> bool:
    """Check the admissibility of a splitting triple for a group of critical
    exponent delta_gamma on the given model.

    a1, a3 in [0, 1] (closed, exact comparisons); a2 strictly inside
    (delta_gamma, rho_norm + rho_m); a1*a3 in [((a2 - rho_m)/rho_norm)^2, 1].
    """
    if delta_gamma < 0:
        raise ValueError("critical exponent must be nonnegative")
    if model.rho_norm <= 0:
        raise ValueError("admissibility needs rho_norm > 0")
    a1, a2, a3 = triple.a1, triple.a2, triple.a3
    if not (0.0 <= a1 <= 1.0 and 0.0 <= a3 <= 1.0):
        return False
    if not (delta_gamma < a2 < model.rho_norm + model.rho_m):
        return False
    lower = ((a2 - model.rho_m) / model.rho_norm) ** 2
    return lower <= a1 * a3 <= 1.0
