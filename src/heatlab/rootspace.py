"""Root-space data for the geometric models under test.

Builds the half-sum vector, its norm, its minimum over the closed chamber,
the polynomial growth exponents of the kernel envelopes, and the conjugate
exponent arithmetic.  Real hyperbolic space is the rank-one special case
used by the exact oracles; general specs feed the formula layer only.

The chamber minimum (rho_min, and build_from_roots through it) needs
scipy's linprog and null_space, imported where they are used: no suite
reaches them, so a heatlab run never imports scipy.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .config import ConfigError, parse_config, parse_floats

_EPS = 1e-12


class ChamberError(ValueError):
    """Chamber cone is degenerate (empty interior)."""


@dataclass(frozen=True)
class RootDatum:
    """One positive root: its vector, multiplicity, and the multiplicity of
    its double (0 when the double is not a root)."""

    vector: tuple[float, ...]
    mult: int
    mult_double: int = 0
    indivisible: bool = True

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
    curvature: str = "constant=-1"
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


def build_from_roots(spec: RootSystemSpec) -> SpaceModel:
    """Assemble the model data from a positive-root listing.

    rho = (1/2) * sum over entries of (mult * alpha + mult_double * 2alpha);
    n = rank + total multiplicity; the polynomial exponents sum over
    indivisible entries only.
    """
    if not spec.roots:
        raise ValueError("empty root list")
    if all(d.mult == 0 for d in spec.roots):  # unreachable via RootDatum, kept for raw tuples
        raise ValueError("all multiplicities are zero")
    rho = np.zeros(spec.rank)
    total_mult = 0
    m_exp = 0.0
    a_exp = 0.0
    for datum in spec.roots:
        vec = np.asarray(datum.vector, dtype=float)
        rho += 0.5 * (datum.mult * vec + datum.mult_double * 2.0 * vec)
        total_mult += datum.mult + datum.mult_double
        if datum.indivisible:
            m_exp += (datum.mult + datum.mult_double) / 2.0 - 1.0
            a_exp += (datum.mult + datum.mult_double) / 2.0
    model = SpaceModel(
        n=spec.rank + total_mult,
        rho=tuple(float(v) for v in rho),
        rho_norm=float(np.linalg.norm(rho)),
        rho_m=0.0,  # placeholder, fixed below
        m_exp=m_exp,
        A_exp=a_exp,
        roots=spec,
    )
    chamber = tuple(d.vector for d in spec.roots)
    rm = rho_min(model, chamber)
    return SpaceModel(
        n=model.n,
        rho=model.rho,
        rho_norm=model.rho_norm,
        rho_m=rm,
        m_exp=m_exp,
        A_exp=a_exp,
        roots=spec,
    )


def _chamber_has_interior(normals: np.ndarray) -> bool:
    # max t s.t. N h >= t, |h|_inf <= 1; interior iff optimum > 0
    from scipy.optimize import linprog

    j, d = normals.shape
    c = np.zeros(d + 1)
    c[-1] = -1.0
    a_ub = np.hstack([-normals, np.ones((j, 1))])
    bounds = [(-1.0, 1.0)] * d + [(None, None)]
    res = linprog(c, A_ub=a_ub, b_ub=np.zeros(j), bounds=bounds, method="highs")
    return bool(res.success and -res.fun > 1e-9)


def _cone_has_nonzero_vector(m: np.ndarray) -> bool:
    """True when {x != 0 : m @ x >= 0} is nonempty (m maps a subspace basis
    into the constraint rows)."""
    from scipy.linalg import null_space
    from scipy.optimize import linprog

    if m.shape[1] == 0:
        return False
    ns = null_space(m)
    if ns.shape[1] > 0:
        return True
    c = -m.sum(axis=0)
    res = linprog(c, A_ub=-m, b_ub=np.zeros(m.shape[0]), bounds=[(-1.0, 1.0)] * m.shape[1], method="highs")
    return bool(res.success and -res.fun > 1e-9)


def rho_min(model: SpaceModel, chamber) -> float:
    """Minimum of <rho, H> over unit vectors H in the closed chamber cone.

    The chamber is given by its defining half-space normals n_j, i.e.
    {H : <n_j, H> >= 0 for all j}.  For rank <= 3 the minimum is computed
    exactly by enumerating faces of the cone: on each face the tangential
    critical point is the normalized projection of rho, and value 0 faces
    are detected by a small feasibility LP.  Above rank 3 a dense sampling
    fallback with tolerance 1e-6 is used.
    """
    normals = np.asarray([np.asarray(v, dtype=float) for v in chamber], dtype=float)
    if normals.ndim != 2 or normals.shape[0] == 0:
        raise ChamberError("chamber needs at least one defining normal")
    d = normals.shape[1]
    if d != model.rank:
        raise ValueError(f"chamber normals have dimension {d}, model rank is {model.rank}")
    if not _chamber_has_interior(normals):
        raise ChamberError("chamber cone has empty interior")
    rho = np.asarray(model.rho, dtype=float)
    if np.linalg.norm(rho) <= _EPS:
        return 0.0
    if d > 3:
        return sampled_rho_min(model, chamber)

    from scipy.linalg import null_space

    best = np.inf
    indices = range(normals.shape[0])
    for size in range(0, d):
        for subset in itertools.combinations(indices, size):
            if subset:
                basis = null_space(normals[list(subset)])
            else:
                basis = np.eye(d)
            if basis.shape[1] == 0:
                continue
            proj = basis @ (basis.T @ rho)
            norm = float(np.linalg.norm(proj))
            if norm > 1e-11:
                for sign in (1.0, -1.0):
                    h = sign * proj / norm
                    if np.min(normals @ h) >= -1e-10:
                        best = min(best, float(rho @ h))
            else:
                if _cone_has_nonzero_vector(normals @ basis):
                    best = min(best, 0.0)
    if not np.isfinite(best):
        raise ChamberError("no feasible unit vector found on any face")
    return max(best, 0.0) if abs(best) <= 1e-10 else float(best)


def sampled_rho_min(model: SpaceModel, chamber, n_samples: int = 200_000, refine_rounds: int = 40,
                    seed: int = 0) -> float:
    """Sampling fallback for rho_min: dense unit-sphere sampling inside the
    cone followed by local shrinking refinement.  Documented tolerance 1e-6.
    """
    normals = np.asarray([np.asarray(v, dtype=float) for v in chamber], dtype=float)
    d = normals.shape[1]
    rho = np.asarray(model.rho, dtype=float)
    rng = np.random.default_rng(seed)
    if d == 2:
        theta = np.linspace(0.0, 2.0 * np.pi, n_samples, endpoint=False)
        points = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    else:
        points = rng.normal(size=(n_samples, d))
        points /= np.linalg.norm(points, axis=1, keepdims=True)
    feasible = np.min(points @ normals.T, axis=1) >= -1e-12
    if not feasible.any():
        raise ChamberError("sampling found no point of the cone; chamber may be degenerate")
    values = points[feasible] @ rho
    order = np.argsort(values)
    n_starts = min(8, order.size)

    def refine(start: np.ndarray, start_value: float) -> float:
        best_point, best_value = start, start_value
        scale = 0.5
        for _ in range(refine_rounds):
            cloud = best_point + scale * rng.normal(size=(512, d))
            cloud /= np.linalg.norm(cloud, axis=1, keepdims=True)
            ok = np.min(cloud @ normals.T, axis=1) >= 0.0
            improved = False
            if ok.any():
                vals = cloud[ok] @ rho
                idx = int(np.argmin(vals))
                if vals[idx] < best_value:
                    best_value = float(vals[idx])
                    best_point = cloud[ok][idx]
                    improved = True
            if not improved:
                scale *= 0.6
            if scale < 1e-9:
                break
        return best_value

    return min(refine(points[feasible][order[k]], float(values[order[k]]))
               for k in range(n_starts))


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


def parse_root_system(text: str) -> RootSystemSpec:
    """Parse the plain-text root-system format::

        rank = 2
        root = 1,0;1;0      # vector;mult;mult_double
        root = 0,1;1;0

    The section header is optional; keys may live at top level.
    """
    config = parse_config(text)
    section = config.sections.get("roots") or config.section("")
    rank = section.get_int("rank")
    if rank is None:
        raise ConfigError("root-system config needs a rank key")
    data = []
    for raw in section.get_list("root"):
        parts = [p.strip() for p in raw.split(";")]
        if len(parts) not in (2, 3):
            raise ConfigError(f"root entry {raw!r}: expected vector;mult[;mult_double]")
        vector = tuple(parse_floats(parts[0]))
        try:
            mult = int(parts[1])
            mult_double = int(parts[2]) if len(parts) == 3 else 0
        except ValueError as exc:
            raise ConfigError(f"root entry {raw!r}: multiplicities must be integers") from exc
        data.append(RootDatum(vector=vector, mult=mult, mult_double=mult_double))
    if not data:
        raise ConfigError("root-system config lists no roots")
    return RootSystemSpec(rank=rank, roots=tuple(data))
