"""Root-space data for the geometric models under test.

Holds the half-sum vector, its norm and its minimum over the closed chamber,
the polynomial growth exponents of the kernel envelopes, and the conjugate
exponent arithmetic.  The only model built here is real hyperbolic space,
the rank-one case the exact oracles cover: its chamber is a ray, so the
chamber minimum equals the norm.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

_EPS = 1e-12


@dataclass(frozen=True)
class RootDatum:
    """One positive root: its vector, multiplicity, and the multiplicity of
    its double (0 when the double is not a root)."""

    vector: tuple[float, ...]
    mult: int
    mult_double: int = 0

    def __post_init__(self):
        if len(self.vector) < 1:
            raise ValueError("root vector must have at least one coordinate")
        if all(abs(v) <= _EPS for v in self.vector):
            raise ValueError("root vector must be nonzero")
        if self.mult < 1:
            raise ValueError("root multiplicity must be >= 1")
        if self.mult_double < 0:
            raise ValueError("double-root multiplicity must be >= 0")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.vector))


@dataclass(frozen=True)
class RootSystemSpec:
    rank: int
    roots: tuple[RootDatum, ...]

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if not self.roots:
            raise ValueError("at least one positive root is required")
        for datum in self.roots:
            if len(datum.vector) != self.rank:
                raise ValueError(
                    f"root {datum.vector} has {len(datum.vector)} coordinates, expected rank {self.rank}"
                )
        # Doubles are carried by mult_double, never by a second list entry.
        for a, b in itertools.combinations(self.roots, 2):
            va, vb = np.asarray(a.vector), np.asarray(b.vector)
            cross = np.outer(va, vb) - np.outer(vb, va)
            if np.max(np.abs(cross)) <= _EPS * max(1.0, a.norm * b.norm) and float(va @ vb) > 0:
                raise ValueError(
                    f"roots {a.vector} and {b.vector} are positive multiples; "
                    "record the double via mult_double instead"
                )


@dataclass(frozen=True)
class SpaceModel:
    """Geometric context for every bound: dimension, half-sum vector and its
    chamber minimum, and the envelope's polynomial exponents."""

    n: int
    rho: tuple[float, ...]
    rho_norm: float
    rho_m: float
    m_exp: float
    A_exp: float
    roots: RootSystemSpec | None = field(default=None, compare=False)

    def __post_init__(self):
        if self.rho_norm < -_EPS or self.rho_m < -_EPS:
            raise ValueError("rho_norm and rho_m must be nonnegative")
        if self.rho_m > self.rho_norm + 1e-9:
            raise ValueError(f"rho_m={self.rho_m} exceeds rho_norm={self.rho_norm}")

    @property
    def rank(self) -> int:
        return len(self.rho)

    def rho_dot(self, r):
        """<rho, H> for H of length r along the chamber ray carrying rho.

        Exact in rank one; for higher-rank sweeps pass an explicit value to
        the envelope functions instead.
        """
        return self.rho_norm * np.asarray(r, dtype=float)


def build_real_hyperbolic(n: int) -> SpaceModel:
    """Rank-one model of the n-dimensional real hyperbolic space, curvature -1.

    Single positive root of multiplicity n-1, unit length, so the geodesic
    radial variable r satisfies <rho, H> = ((n-1)/2) * r.
    """
    if int(n) != n or n < 2:
        raise ValueError(f"dimension must be an integer >= 2, got {n}")
    n = int(n)
    datum = RootDatum(vector=(1.0,), mult=n - 1, mult_double=0)
    spec = RootSystemSpec(rank=1, roots=(datum,))
    half = (n - 1) / 2.0
    return SpaceModel(
        n=n,
        rho=(half,),
        rho_norm=half,
        rho_m=half,
        m_exp=half - 1.0,
        A_exp=half,
        roots=spec,
    )


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
