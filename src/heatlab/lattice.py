"""Discrete isometry groups of the hyperbolic plane and 3-space.

Upper half-space coordinates throughout: a point is (z, h) with z complex
(real for the plane) and height h > 0; distance comes from the standard
cosh identity.  Orbit enumeration is certified complete below its cutoff:
cyclic groups via the translation-length bound, ping-pong groups via nested
isometric-disk images in a depth-first search over blocks of word matrices,
where each word pulls the basepoint back once and measures it against the
fixed letter domes.  GroupSpec checks the certificate when it is built; the
search aborts with EnumerationError when its node budget or the float range
runs out.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .config import ConfigError, Section, parse_config, parse_floats
from .rootspace import AlphaTriple, SpaceModel, admissible_alpha_triple

_DET_TOL = 1e-9
# word matrices per block of the ping-pong search: larger blocks spread
# numpy's per-call cost over more words, smaller ones keep the search diving
_BLOCK = 4096


class EnumerationError(RuntimeError):
    """Orbit enumeration cannot certify completeness below the cutoff."""


class GroupSpecError(ValueError):
    """Generator list violates the family's structural requirements."""


Point = tuple[complex, float]


def as_point(p) -> Point:
    """Normalize (x, h), (z, h), or (x, y, h) to the (complex, height) form."""
    if isinstance(p, tuple) and len(p) == 2:
        z, h = p
        return complex(z), float(h)
    if isinstance(p, (list, np.ndarray)) and len(p) == 2:
        return complex(p[0]), float(p[1])
    if isinstance(p, (tuple, list, np.ndarray)) and len(p) == 3:
        return complex(float(p[0]), float(p[1])), float(p[2])
    raise ValueError(f"cannot interpret {p!r} as an upper half-space point")


def distance(p, q) -> float:
    """Hyperbolic distance: cosh d = 1 + (|z_p - z_q|^2 + (h_p - h_q)^2) / (2 h_p h_q)."""
    zp, hp = as_point(p)
    zq, hq = as_point(q)
    if hp <= 0.0 or hq <= 0.0:
        raise ValueError("points must have positive height")
    num = abs(zp - zq) ** 2 + (hp - hq) ** 2
    return math.acosh(1.0 + num / (2.0 * hp * hq))


def mobius_apply(mat: np.ndarray, p) -> Point:
    """Action of a unimodular 2x2 matrix on the upper half-space."""
    z, h = as_point(p)
    a, b = complex(mat[0, 0]), complex(mat[0, 1])
    c, d = complex(mat[1, 0]), complex(mat[1, 1])
    czd = c * z + d
    denom = abs(czd) ** 2 + abs(c) ** 2 * h * h
    if denom <= 0.0:
        raise ValueError("degenerate image point")
    z_new = ((a * z + b) * czd.conjugate() + a * c.conjugate() * h * h) / denom
    return z_new, h / denom


def translation_length(mat: np.ndarray) -> float:
    """Translation length of a loxodromic element: 2 |Re acosh(tr/2)|."""
    tr = complex(mat[0, 0] + mat[1, 1])
    return 2.0 * abs(cmath.acosh(tr / 2.0).real)


def isometric_circle(mat: np.ndarray) -> tuple[complex, float]:
    """Boundary circle |cz + d| = 1 of the matrix: center -d/c, radius 1/|c|."""
    c, d = complex(mat[1, 0]), complex(mat[1, 1])
    if abs(c) < 1e-14:
        raise GroupSpecError("matrix fixes infinity; no isometric circle for a ping-pong disk")
    return -d / c, 1.0 / abs(c)


@dataclass(frozen=True)
class GroupSpec:
    """Generators of a discrete torsion-free group acting on the plane (dim 2,
    real matrices) or 3-space (dim 3, complex matrices)."""

    dim: int
    generators: tuple[np.ndarray, ...]
    family: str  # trivial | cyclic | schottky

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise GroupSpecError(f"dim must be 2 or 3, got {self.dim}")
        if self.family not in ("trivial", "cyclic", "schottky"):
            raise GroupSpecError(f"unknown family {self.family!r}")
        mats = tuple(np.asarray(g, dtype=complex) for g in self.generators)
        object.__setattr__(self, "generators", mats)
        for g in mats:
            if g.shape != (2, 2):
                raise GroupSpecError("generators must be 2x2 matrices")
            if not np.all(np.isfinite(g)):
                raise GroupSpecError("generator entries must be finite (no nan or inf)")
            det = g[0, 0] * g[1, 1] - g[0, 1] * g[1, 0]
            if abs(det - 1.0) > _DET_TOL:
                raise GroupSpecError(f"generator determinant {det} is not 1")
            if self.dim == 2 and np.max(np.abs(g.imag)) > _DET_TOL:
                raise GroupSpecError("plane generators must be real matrices")
        if self.family == "trivial":
            if mats:
                raise GroupSpecError("trivial family takes no generators")
            return
        if not mats:
            raise GroupSpecError(f"{self.family} family needs at least one generator")
        if self.family == "cyclic" and len(mats) != 1:
            raise GroupSpecError("cyclic family takes exactly one generator")
        for g in mats:
            trace = g[0, 0] + g[1, 1]
            if abs(trace.imag) <= _DET_TOL and abs(trace.real) <= 2.0 + _DET_TOL:
                raise GroupSpecError(
                    f"generator trace {trace} is not loxodromic "
                    "(a trace outside the real segment [-2, 2])"
                )
        if self.family == "schottky":
            self._letter_circles()  # validates disjointness at construction

    def _letters(self) -> list[np.ndarray]:
        """Generators and inverses, inverse of letter j at index j ^ 1."""
        letters = []
        for g in self.generators:
            inv = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]], dtype=complex)
            letters.extend([g, inv])
        return letters

    def _letter_circles(self) -> list[tuple[complex, float]]:
        circles = [isometric_circle(g) for g in self._letters()]
        for i in range(len(circles)):
            for j in range(i + 1, len(circles)):
                ci, ri = circles[i]
                cj, rj = circles[j]
                # the pruning test certifies only a gap of 1e-12 max(1, r_i, r_j)
                if abs(ci - cj) - ri - rj < 1e-12 * max(1.0, ri, rj):
                    raise GroupSpecError(
                        f"isometric disks {i} and {j} are not disjoint by a certifiable "
                        "margin; not a valid ping-pong configuration"
                    )
        return circles

    def orbit(self, x, y, r_max: float) -> "OrbitSet":
        return enumerate_orbit(self, x, y, r_max)


@dataclass(frozen=True)
class OrbitSet:
    """Sorted orbit distances d(x, gy) with word-length provenance, complete
    below r_max (no missing orbit point at distance <= r_max)."""

    x: Point
    y: Point
    distances: np.ndarray
    word_lengths: np.ndarray
    r_max: float
    exhaustive: bool = False  # the whole group was enumerated

    def __post_init__(self):
        # read-only, so a cache keyed by the identity of `distances` stays valid
        self.distances.setflags(write=False)
        self.word_lengths.setflags(write=False)

    @property
    def d_min(self) -> float:
        return float(self.distances[0])

    def __len__(self) -> int:
        return int(self.distances.size)

    def counting_constant(self, delta: float) -> float:
        """max_k N(k) e^{-delta k} over the unit radii k = 0..floor(r_max) with
        N(k) > 0: the c of the counting bound N(R) <= c e^{delta R} fitted on
        the enumerated range (1 when no radius counts a point)."""
        if not 0.0 <= delta < math.inf:
            raise ValueError(f"delta must be finite and nonnegative, got {delta!r}")
        ks = np.arange(0.0, math.floor(self.r_max) + 1.0)
        counts = np.searchsorted(self.distances, ks, side="right")
        mask = counts > 0
        return float(np.max(counts[mask] * np.exp(-delta * ks[mask]))) if mask.any() else 1.0


def _sorted_orbit(x: Point, y: Point, distances, word_lengths, r_max: float,
                  exhaustive: bool) -> OrbitSet:
    distances = np.asarray(distances, dtype=float)
    word_lengths = np.asarray(word_lengths, dtype=np.int32)  # the node budget keeps them small
    inside = distances <= r_max
    if not inside.any():
        raise ValueError(
            f"no orbit point within r_max={r_max}; the quotient distance d(x, y) "
            "already exceeds the cutoff"
        )
    order = np.lexsort((word_lengths[inside], distances[inside]))
    return OrbitSet(x=x, y=y, distances=distances[inside][order],
                    word_lengths=word_lengths[inside][order], r_max=float(r_max),
                    exhaustive=exhaustive)


def _mobius_points(a, b, c, d, z, h):
    """Images of the point (z, h) under the det-1 matrices with entry arrays
    a, b, c, d, as in mobius_apply; overflow is left to the caller."""
    with np.errstate(all="ignore"):
        czd = c * z + d
        denom = np.abs(czd) ** 2 + np.abs(c) ** 2 * h * h
        return ((a * z + b) * np.conj(czd) + a * np.conj(c) * h * h) / denom, h / denom


def enumerate_orbit(group: GroupSpec, x, y, r_max: float,
                    node_budget: int = 2_000_000) -> OrbitSet:
    """All orbit distances d(x, gy) <= r_max, certified complete.

    Cyclic: d(y, g^k y) >= |k| L bounds the word range directly, and its
    2 k_max words count against node_budget.  Schottky: depth-first search
    over blocks of at most _BLOCK reduced words of one length, held as (N, 4)
    arrays of matrix entries; each popped block is expanded by every allowed
    next letter in one array pass.  The subtree below a prefix w with next
    letter b lies inside the image under w of the solid dome over the
    isometric disk of b^{-1}, so the search prunes once that dome is farther
    from x than r_max (plus the basepoint slack).  Since d(x, w D) =
    d(w^{-1} x, D), each popped word maps x back once and tests the
    pulled-back point against the fixed letter domes.  A word whose image
    point or pulled-back basepoint overflows raises EnumerationError.
    """
    if not 0.0 < r_max < math.inf:
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    xp, yp = as_point(x), as_point(y)
    if group.family == "trivial":
        return _sorted_orbit(xp, yp, [distance(xp, yp)], [0], r_max, exhaustive=True)

    if group.family == "cyclic":
        g = group.generators[0]
        length = translation_length(g)
        d_xy = distance(xp, yp)
        # d(x, g^k y) >= k L - d(x, y): no longer word lands within r_max
        k_max = int(math.floor((r_max + d_xy) / length * (1.0 + 1e-12)))
        if 2 * k_max > node_budget:
            raise EnumerationError(f"node budget {node_budget} exhausted before certifying "
                                   f"r_max={r_max}: translation length {length:.3g} "
                                   f"needs {2 * k_max} words")
        records = [(d_xy, 0)]
        ginv = np.array([[g[1, 1], -g[0, 1]], [-g[1, 0], g[0, 0]]], dtype=complex)
        for mat0 in (g, ginv):
            acc = np.eye(2, dtype=complex)
            for k in range(1, k_max + 1):
                acc = acc @ mat0
                try:
                    d = distance(xp, mobius_apply(acc, yp))
                except (OverflowError, ValueError):  # g^k y left the float range
                    d = math.nan
                if not d < math.inf:
                    raise EnumerationError(f"orbit distance at word length {k} is not finite "
                                           f"(g^k overflowed); cannot certify r_max={r_max}")
                records.append((d, k))
        return _sorted_orbit(xp, yp, *zip(*records), r_max, exhaustive=False)

    circles = group._letter_circles()  # disjoint with a certified margin, as built
    letters = np.array([g.reshape(4) for g in group._letters()])  # rows a, b, c, d
    inverse = np.arange(len(letters)) ^ 1
    # the words after next letter j lie over the isometric disk of j^{-1}
    centers = np.array([circles[j][0] for j in inverse])
    radii = np.array([circles[j][1] for j in inverse])
    # reference point outside every dome: height above the largest radius
    slack = distance((0j, 1.0 + radii.max()), yp)
    # a point (z, h) is farther than r_max + slack from the dome (C, R) when
    # |z - C|^2 + h^2 - R^2 > 2 R h sinh(r_max + slack)
    try:
        reach = 2.0 * radii * math.sinh(r_max + slack)
    except OverflowError:  # no pruning, which stays sound
        reach = math.inf
    (xz, xh), (yz, yh) = xp, yp

    dists, words = [np.array([distance(xp, yp)])], [np.zeros(1, dtype=int)]
    visited = 0
    # blocks of (word matrices of one length, their last letters, that length)
    stack = [(np.eye(2, dtype=complex).reshape(1, 4), np.array([-1]), 0)]
    while stack:
        mats, last, depth = stack.pop()
        a, b, c, d = mats.T
        z, h = _mobius_points(d, -b, -c, a, xz, xh)  # w^{-1} x
        if not np.all((0.0 < h) & (h < math.inf) & np.isfinite(z)):  # nan too
            raise EnumerationError(f"pulled-back basepoint left the float range at depth "
                                   f"{depth}; cannot certify r_max={r_max}")
        num = np.abs(z[:, None] - centers) ** 2 + (h * h)[:, None] - radii * radii
        far = num > reach * h[:, None]
        rows, nxt = np.nonzero((inverse != last[:, None]) & ~far)
        visited += rows.size
        if visited > node_budget:
            raise EnumerationError(f"node budget {node_budget} exhausted before certifying "
                                   f"r_max={r_max}; disks may be nearly tangent, or the "
                                   "orbit below r_max is larger than the budget")
        m, g = mats[rows].T, letters[nxt].T
        child = np.stack((m[0] * g[0] + m[1] * g[2], m[0] * g[1] + m[1] * g[3],
                          m[2] * g[0] + m[3] * g[2], m[2] * g[1] + m[3] * g[3]), axis=1)
        z, h = _mobius_points(*child.T, yz, yh)
        with np.errstate(all="ignore"):  # overflow is caught below
            dist = np.arccosh(1.0 + (np.abs(xz - z) ** 2 + (xh - h) ** 2) / (2.0 * xh * h))
        bad = np.flatnonzero(~((0.0 < h) & (h < math.inf) & (dist < math.inf)))  # nan too
        if bad.size and not 0.0 < h[bad[0]] < math.inf:
            raise EnumerationError(f"word matrix entries overflowed at depth {depth + 1} (image "
                                   f"height {h[bad[0]]}); cannot certify r_max={r_max}")
        if bad.size:
            raise EnumerationError(f"orbit distance {dist[bad[0]]} at depth {depth + 1} is not "
                                   "finite (word matrix entries overflowed); cannot certify "
                                   f"r_max={r_max}")
        hit = dist <= r_max
        dists.append(dist[hit])
        words.append(np.full(np.count_nonzero(hit), depth + 1))
        for start in range(0, rows.size, _BLOCK):
            stack.append((child[start:start + _BLOCK], nxt[start:start + _BLOCK], depth + 1))
    return _sorted_orbit(xp, yp, np.concatenate(dists), np.concatenate(words), r_max,
                         exhaustive=False)


def counting_function(orbit: OrbitSet, radius: float) -> int:
    """Number of orbit points within the given radius."""
    if math.isnan(radius):
        raise ValueError("radius must be a number, got nan")
    if radius > orbit.r_max * (1.0 + 1e-12) and not orbit.exhaustive:
        raise ValueError(f"radius {radius} exceeds the certified range {orbit.r_max}")
    return int(np.searchsorted(orbit.distances, radius, side="right"))


@dataclass(frozen=True)
class CriticalExponentEstimate:
    estimate: float
    lower: float
    upper: float
    insufficient_data: bool = False

    @property
    def half_width(self) -> float:
        return (self.upper - self.lower) / 2.0

    @property
    def conservative(self) -> float:
        """Estimate plus confidence half-width, for use in tail bounds."""
        return max(self.estimate + self.half_width, 0.0)


def critical_exponent(orbit: OrbitSet) -> CriticalExponentEstimate:
    """Least-squares slope of log N(R) against R over the upper half of the
    certified range; the interval comes from a second, narrower window."""
    if len(orbit) == 1:
        return CriticalExponentEstimate(0.0, 0.0, 0.0, insufficient_data=False)
    if len(orbit) < 50:
        return CriticalExponentEstimate(0.0, 0.0, 0.0, insufficient_data=True)

    def window_slope(lo_frac: float) -> float:
        rs = np.linspace(lo_frac * orbit.r_max, orbit.r_max, 25)
        counts = np.searchsorted(orbit.distances, rs, side="right").astype(float)
        mask = counts > 0
        if mask.sum() < 3:
            return math.nan
        coeffs = np.polyfit(rs[mask], np.log(counts[mask]), 1)
        return float(coeffs[0])

    s1 = window_slope(0.5)
    s2 = window_slope(0.75)
    if math.isnan(s1) or math.isnan(s2):
        return CriticalExponentEstimate(0.0, 0.0, 0.0, insufficient_data=True)
    lo, hi = sorted((s1, s2))
    return CriticalExponentEstimate(estimate=s1, lower=lo, upper=hi)


@dataclass(frozen=True)
class PoincareEval:
    s: float
    partial_sum: float
    n_terms: int
    tail_bound: float
    delta_used: float

    @property
    def bracket(self) -> tuple[float, float]:
        return self.partial_sum, self.partial_sum + self.tail_bound


def poincare_series(orbit: OrbitSet, s: float, delta: float) -> PoincareEval:
    """Partial sum of exp(-s d) over the enumerated orbit plus a geometric
    tail bound from the counting estimate N(R) <= c e^{delta R}.

    The counting constant is fitted on the enumerated range; the tail sums
    c e^{delta (k+1)} e^{-k s} in closed form over shells k >= floor(r_max).
    """
    if not s > delta:
        raise ValueError(f"series certified to converge only for s > delta ({s} <= {delta})")
    partial = float(np.sum(np.exp(-s * orbit.distances)))
    if orbit.exhaustive:
        return PoincareEval(s=s, partial_sum=partial, n_terms=len(orbit),
                            tail_bound=0.0, delta_used=delta)
    c_count = orbit.counting_constant(delta)
    k0 = math.floor(orbit.r_max)
    gap = s - delta
    tail = c_count * math.exp(delta) * math.exp(-k0 * gap) / (1.0 - math.exp(-gap))
    return PoincareEval(s=s, partial_sum=partial, n_terms=len(orbit),
                        tail_bound=tail, delta_used=delta)


# ---------------------------------------------------------------------------
# quotient-space bound shapes


def theorem2_rhs_log(model: SpaceModel, delta: float, triple: AlphaTriple, i: int,
                     t, d_m, epsilon: float):
    """Log of the quotient derivative bound shape
    t^{-(n/2)-i} exp(-(1-eps)[(1-a1)|rho|^2 t + (a2-delta) d + (1-a3) d^2/(4t)]).

    The series factor at exponent eps + delta is supplied by the caller.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValueError("epsilon must lie in (0, 1)")
    if not admissible_alpha_triple(triple, delta, model):
        raise ValueError(f"triple {triple} is not admissible for delta={delta}")
    t = np.asarray(t, dtype=float)
    d_m = np.asarray(d_m, dtype=float)
    rho_sq = model.rho_norm ** 2
    return (
        -(model.n / 2.0 + i) * np.log(t)
        - (1.0 - epsilon) * (
            (1.0 - triple.a1) * rho_sq * t
            + (triple.a2 - delta) * d_m
            + (1.0 - triple.a3) * d_m * d_m / (4.0 * t)
        )
    )


def splitting_slack(model: SpaceModel, triple: AlphaTriple, t, d_m):
    """The quadratic form a1 |rho|^2 t + (rho_m - a2) d + a3 d^2/(4t) given
    away by an admissible splitting; nonnegative, zero exactly at the
    boundary case a1 = a3 = 0, a2 = rho_m."""
    t = np.asarray(t, dtype=float)
    d_m = np.asarray(d_m, dtype=float)
    return (triple.a1 * model.rho_norm ** 2 * t
            + (model.rho_m - triple.a2) * d_m
            + triple.a3 * d_m * d_m / (4.0 * t))


def quotient_regime_rhs(model: SpaceModel, delta: float, s: float, t, d_m):
    """Quotient kernel bound shape in the first classical regime (delta <
    rho_m, series exponent s in (delta, rho_m)):
        t^{-n/2} (1+t)^m exp(-|rho|^2 t - d^2/(4t)).
    The series factor is supplied by the caller.
    """
    if not 0.0 <= delta < model.rho_m:
        raise ValueError(f"regime 1 needs delta in [0, rho_m), got {delta}")
    if not delta < s < model.rho_m:
        raise ValueError(f"regime 1 needs s in (delta, rho_m), got {s}")
    t = np.asarray(t, dtype=float)
    d_m = np.asarray(d_m, dtype=float)
    return np.exp(-model.n / 2.0 * np.log(t) + model.m_exp * np.log1p(t)
                  - model.rho_norm ** 2 * t - d_m * d_m / (4.0 * t))


# ---------------------------------------------------------------------------
# group-spec config format


_GROUP_KEYS = ("dim", "family", "generator")


def group_from_section(section: Section) -> GroupSpec:
    """Build a GroupSpec from a parsed group section::

        [group]
        dim = 2
        family = schottky
        generator = 2,3,1,2          # a,b,c,d row-major (plane)
        generator = 6,0,35,0,1,0,6,0 # re,im pairs row-major (3-space)
    """
    for key in section.entries:
        if key not in _GROUP_KEYS:
            raise ConfigError(f"key {key!r} is not accepted in [{section.name}]; "
                              f"expected {', '.join(_GROUP_KEYS)}")
    dim = section.get_int("dim")
    family = section.get("family")
    if dim is None or family is None:
        raise ConfigError("group config needs dim and family keys")
    if dim not in (2, 3):
        raise ConfigError(f"dim must be 2 or 3, got {dim}")
    mats = []
    for raw in section.get_list("generator"):
        values = parse_floats(raw)
        if dim == 2:
            if len(values) != 4:
                raise ConfigError(f"plane generator needs 4 entries, got {raw!r}")
            mats.append(np.array(values, dtype=float).reshape(2, 2))
        else:
            if len(values) != 8:
                raise ConfigError(f"3-space generator needs 8 entries (re,im pairs), got {raw!r}")
            pairs = np.array(values, dtype=float).reshape(4, 2)
            mats.append((pairs[:, 0] + 1j * pairs[:, 1]).reshape(2, 2))
    try:
        return GroupSpec(dim=dim, generators=tuple(mats), family=family)
    except GroupSpecError as exc:
        raise ConfigError(str(exc)) from exc


def parse_group(text: str) -> GroupSpec:
    """Parse group config text: its [group] section, or the top-level keys."""
    config = parse_config(text)
    return group_from_section(config.sections.get("group") or config.section(""))
