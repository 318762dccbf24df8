"""Discrete isometry groups of the hyperbolic plane and 3-space.

Upper half-space coordinates throughout: a point is (z, h) with z complex
(real for the plane) and height h > 0; distance comes from the standard
cosh identity.  enumerate_orbits is the one enumeration path, for a list of
basepoints, and enumerate_orbit its one-basepoint view.  Orbit enumeration
is certified complete below its cutoff: cyclic groups via the
translation-length bound, ping-pong groups via nested isometric-disk images
in a depth-first search over blocks of word matrices (four contiguous entry
arrays per block), where each word pulls the basepoint back once and
measures it against the fixed letter domes.  GroupSpec checks the
certificate when it is built; the search aborts with EnumerationError when
its node budget or the float range runs out.  Summing the kernel over an
orbit is oracle.quotient_kernels' job, on the OrbitSets made here.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass, field

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
    """Normalize a (z, h) pair to the (complex, height) form."""
    if isinstance(p, tuple) and len(p) == 2:
        z, h = p
        return complex(z), float(h)
    raise ValueError(f"cannot interpret {p!r} as an upper half-space point")


def _check_point(z: complex, h: float) -> None:
    """Raise ValueError unless z is finite and 0 < h < inf; NaN fails."""
    if h <= 0.0:
        raise ValueError("points must have positive height")
    if not (cmath.isfinite(z) and h < math.inf):
        raise ValueError(f"points need a finite z and a finite height, got {(z, h)!r}")


def distance(p, q) -> float:
    """Hyperbolic distance: cosh d = 1 + (|z_p - z_q|^2 + (h_p - h_q)^2) / (2 h_p h_q).

    Raises ValueError for a height <= 0 or a non-finite z or height.  Finite
    points far apart can still overflow, to inf or OverflowError.  Where
    2 h_p h_q is below the normal float range, the same distance comes from
    sinh(d/2) = |p - q| / (2 sqrt(h_p) sqrt(h_q)), with no product of heights."""
    zp, hp = as_point(p)
    zq, hq = as_point(q)
    if hp <= 0.0 or hq <= 0.0:
        raise ValueError("points must have positive height")
    den = 2.0 * hp * hq
    if den >= sys.float_info.min:
        d = math.acosh(1.0 + (abs(zp - zq) ** 2 + (hp - hq) ** 2) / den)
    else:  # den is subnormal or 0.0 (or nan, which the check below names)
        dz = zp - zq
        gap = math.hypot(dz.real, dz.imag, hp - hq)
        d = 2.0 * math.asinh(gap / (2.0 * math.sqrt(hp) * math.sqrt(hq)))
    if not d < math.inf:
        # every non-finite z or height ends here, so finite points pay one test
        _check_point(zp, hp)
        _check_point(zq, hq)
    return d


def mobius_apply(mat, p) -> Point:
    """Action of a unimodular 2x2 matrix on the upper half-space; `mat` is
    any nested ((a, b), (c, d)), such as a numpy matrix or its tolist().
    The point is checked as in distance."""
    z, h = as_point(p)
    if not (0.0 < h < math.inf and cmath.isfinite(z)):
        _check_point(z, h)
    (a, b), (c, d) = mat
    a, b, c, d = complex(a), complex(b), complex(c), complex(d)
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


@dataclass(frozen=True, eq=False)
class OrbitSet:
    """Sorted orbit distances d(x, gy) with word-length provenance, complete
    below r_max (no missing orbit point at distance <= r_max).  Equality and
    hashing are by identity."""

    x: Point
    y: Point
    distances: np.ndarray
    word_lengths: np.ndarray
    r_max: float
    exhaustive: bool = False  # the whole group was enumerated
    # counting_constant by delta; init=False, so dataclasses.replace starts empty
    _counting: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        # read-only, so a cache keyed by the orbit stays valid
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
        the enumerated range (1 when no radius counts a point).  Computed once
        per delta."""
        if not 0.0 <= delta < math.inf:
            raise ValueError(f"delta must be finite and nonnegative, got {delta!r}")
        if delta not in self._counting:
            self._counting[delta] = _counting_constant(self.distances, self.r_max, delta)
        return self._counting[delta]


def _counting_constant(distances: np.ndarray, r_max: float, delta: float) -> float:
    ks = np.arange(0.0, math.floor(r_max) + 1.0)
    counts = np.searchsorted(distances, ks, side="right")
    mask = counts > 0
    return float(np.max(counts[mask] * np.exp(-delta * ks[mask]))) if mask.any() else 1.0


def _sorted_orbit(x: Point, y: Point, distances, word_lengths, r_max: float,
                  exhaustive: bool) -> OrbitSet:
    # each temporary is dropped once used: this sort sets the peak memory of
    # a large orbit's enumeration after the search
    distances = np.asarray(distances, dtype=float)
    word_lengths = np.asarray(word_lengths)
    inside = distances <= r_max
    count = np.count_nonzero(inside)
    if not count:
        raise ValueError(
            f"no orbit point within r_max={r_max}; the quotient distance d(x, y) "
            "already exceeds the cutoff"
        )
    if count < distances.size:  # no copy when all are inside, as in most searches
        distances, word_lengths = distances[inside], word_lengths[inside]
    del inside
    # the order of np.lexsort((word_lengths, distances)) without its stable
    # float sort: sort by distance, then sort the word lengths within each run
    # of equal distances through one integer key, rank * (longest + 1) + w
    order = np.argsort(distances)
    distances, word_lengths = distances[order], word_lengths[order]
    del order
    longest = int(word_lengths.max())
    # the smallest unsigned type that holds the longest word: uint8 in practice
    word_type = np.min_scalar_type(longest)
    # the narrowest key type: uint32 unless the keys reach 2^32
    key_type = np.uint32 if distances.size * (longest + 1) <= 2**32 else np.uint64
    key = np.zeros(distances.size, dtype=key_type)  # dense rank of the distance
    np.cumsum(distances[1:] != distances[:-1], out=key[1:], dtype=key_type)
    key *= longest + 1
    key += word_lengths.astype(word_type, copy=False)
    del word_lengths
    key.sort()  # each run keeps its place, its word lengths in order
    np.remainder(key, longest + 1, out=key)
    return OrbitSet(x=x, y=y, distances=distances, word_lengths=key.astype(word_type),
                    r_max=float(r_max), exhaustive=exhaustive)


def _mobius_points(a, b, c, d, z, h):
    """Images of the point (z, h) under the det-1 matrices with entry arrays
    a, b, c, d, as in mobius_apply; overflow is left to the caller."""
    with np.errstate(all="ignore"):
        czd = c * z + d
        denom = np.abs(czd) ** 2 + np.abs(c) ** 2 * h * h
        return ((a * z + b) * np.conj(czd) + a * np.conj(c) * h * h) / denom, h / denom


def enumerate_orbit(group: GroupSpec, x, y, r_max: float,
                    node_budget: int = 2_000_000) -> OrbitSet:
    """enumerate_orbits on the one basepoint y."""
    return enumerate_orbits(group, x, [y], r_max, node_budget)[0]


def enumerate_orbits(group: GroupSpec, x, ys, r_max: float,
                     node_budget: int = 2_000_000) -> list[OrbitSet]:
    """All orbit distances d(x, gy) <= r_max for each basepoint y of ys, in
    order, each orbit certified complete; the first failure raises as a loop
    over the basepoints would.

    x and each y must have a finite z and a finite height > 0; the check
    runs once per basepoint and its ValueError names the point.  Trivial:
    the one distance d(x, y).  Cyclic: d(y, g^k y) >= |k| L bounds the word
    range directly, and its 2 k_max words count against node_budget.  One
    word list serves every basepoint: the entries of g^k and g^-k, as Python
    complex numbers, accumulated by the same matrix products whatever the
    batch, up to the longest word a basepoint needs.  Each basepoint then
    runs through the scalar Python-complex Moebius and distance arithmetic
    on those entries, so an orbit is bit-identical whichever batch it comes
    in.  Schottky: one search per basepoint (_schottky_orbit), depth-first
    over blocks of at most _BLOCK reduced words of one length, held as four
    contiguous arrays of matrix entries a, b, c, d; each popped block is
    expanded by every allowed next letter in one array pass.  The subtree
    below a prefix w with next letter b holds the points w b v y, and the
    search prunes once d(x, w D(b^{-1})) > r_max + slack, D(b^{-1}) being
    the solid dome over the isometric disk of b^{-1}.  Proof: take any point
    o outside every open letter dome; by ping-pong w b v o lies in
    w D(b^{-1}), and w b v is an isometry, so d(x, w b v y) >=
    d(x, w D(b^{-1})) - d(o, y).  The nearest such o to y is y itself when y
    lies outside every dome, else the foot of y on the hemisphere of the one
    dome that holds it (the domes are disjoint, so the foot is outside the
    others).  The slack is that distance plus a pad of 1e-9 for rounding
    (_dome_slack): the pad alone for most basepoints, and never more than
    d(o, y) + pad for the point o = (0, 1 + largest radius) above every dome.
    Since d(x, w D) = d(w^{-1} x, D), each popped word maps x back once and
    tests the pulled-back point against the fixed letter domes, in a
    (letters x words) array.  The kept (word, letter) pairs are taken
    letter-major, one nonzero per letter, and their children are one
    product of gathered word and letter entries.  The order of the blocks
    does not change the words visited, so the orbit and the node-budget
    count are those of a row-major search.  Each orbit is sorted by
    distance, then word length (_sorted_orbit).  A word whose image point or
    pulled-back basepoint overflows raises EnumerationError.

    The 124,049-point orbit of the 3-space pair (disks at +-2, +-6) at
    x = y = (0, 5), r_max 36.6, visits 243,294 words in 0.053 s, and its
    699,085 points at r_max 42 visit 1,377,378 words in 0.28 s, on a 2-core
    machine.
    """
    if not 0.0 < r_max < math.inf:
        raise ValueError(f"r_max must be positive and finite, got {r_max}")
    xp = _basepoint("x", x)
    yps = (_basepoint("y", y) for y in ys)  # lazy, so the first failure is the loop's
    if group.family == "trivial":
        return [_sorted_orbit(xp, yp, [distance(xp, yp)], [0], r_max, exhaustive=True)
                for yp in yps]
    if group.family == "cyclic":
        return _cyclic_orbits(group, xp, yps, r_max, node_budget)
    return [_schottky_orbit(group, xp, yp, r_max, node_budget) for yp in yps]


def _basepoint(name: str, p) -> Point:
    """as_point(p), once its z and height are finite and the height positive."""
    z, h = as_point(p)
    if not (cmath.isfinite(z) and 0.0 < h < math.inf):
        raise ValueError(f"basepoint {name}={p!r} needs a finite z and a finite height > 0")
    return z, h


def _schottky_orbit(group: GroupSpec, xp: Point, yp: Point, r_max: float,
                    node_budget: int) -> OrbitSet:
    """The Schottky orbit of enumerate_orbits at one basepoint."""
    circles = group._letter_circles()  # disjoint with a certified margin, as built
    letters = group._letters()
    ids = np.arange(len(letters))
    inverse = ids ^ 1
    # the entries a, b, c, d of every letter, each a contiguous row
    entries = np.array([g.reshape(4) for g in letters]).T.copy()
    # the words after next letter j lie over the isometric disk of j^{-1}
    centers = np.array([circles[j][0] for j in inverse])[:, None]
    radii = np.array([circles[j][1] for j in inverse])
    (xz, xh), (yz, yh) = xp, yp
    slack = _dome_slack(centers[:, 0], radii, yz, yh)
    # a point (z, h) is farther than r_max + slack from the dome (C, R) when
    # |z - C|^2 + h^2 - R^2 > 2 R h sinh(r_max + slack)
    try:
        reach = 2.0 * radii * math.sinh(r_max + slack)
    except OverflowError:  # no pruning, which stays sound
        reach = np.full(radii.shape, math.inf)
    reach, radii_sq = reach[:, None], (radii * radii)[:, None]

    dists, words = [np.array([distance(xp, yp)])], [np.zeros(1, dtype=np.uint8)]
    visited = 0
    # blocks of (word matrix entries a, b, c, d of one length, their last
    # letters, that length)
    stack = [(tuple(np.eye(2, dtype=complex).reshape(4, 1)), np.array([-1]), 0)]
    while stack:
        (a, b, c, d), last, depth = stack.pop()
        z, h = _mobius_points(d, -b, -c, a, xz, xh)  # w^{-1} x
        if not np.all((0.0 < h) & (h < math.inf) & np.isfinite(z)):  # nan too
            raise EnumerationError(f"pulled-back basepoint left the float range at depth "
                                   f"{depth}; cannot certify r_max={r_max}")
        # (letters, words): the words are the long, contiguous axis; z and h
        # are finite, so num is never nan and <= is the negation of >
        num = np.abs(z - centers) ** 2 + h * h - radii_sq
        keep = (last != inverse[:, None]) & (num <= reach * h)
        # the kept (word, next letter) pairs, letter-major; one nonzero per
        # letter, since a 2-D np.nonzero of a large block is several times slower
        picks = [row.nonzero()[0] for row in keep]
        rows = np.concatenate(picks)
        visited += rows.size
        if visited > node_budget:
            raise EnumerationError(f"node budget {node_budget} exhausted before certifying "
                                   f"r_max={r_max}; disks may be nearly tangent, or the "
                                   "orbit below r_max is larger than the budget")
        nxt = np.repeat(ids, [pick.size for pick in picks])
        # the child entries ma ga + mb gc, ma gb + mb gd, mc ga + md gc and
        # mc gb + md gd, one row of word entries gathered at a time and each
        # second product written into one scratch array: fewer temporaries
        ga, gb, gc, gd = (entry[nxt] for entry in entries)
        scratch = np.empty(rows.size, dtype=complex)
        child = []
        for left, right in ((a, b), (c, d)):
            ml, mr = left[rows], right[rows]
            for gl, gr in ((ga, gc), (gb, gd)):
                product = ml * gl
                product += np.multiply(mr, gr, out=scratch)
                child.append(product)
        del ml, mr, ga, gb, gc, gd, scratch
        z, h = _mobius_points(*child, yz, yh)
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
        hit = dist[dist <= r_max]
        dists.append(hit)
        words.append(np.full(hit.size, depth + 1, dtype=np.min_scalar_type(depth + 1)))
        for start in range(0, nxt.size, _BLOCK):
            stop = start + _BLOCK
            stack.append((tuple(entry[start:stop] for entry in child), nxt[start:stop],
                          depth + 1))
    # the per-block lists go before the sort
    dists, words = np.concatenate(dists), np.concatenate(words)
    return _sorted_orbit(xp, yp, dists, words, r_max, exhaustive=False)


def _dome_slack(centers: np.ndarray, radii: np.ndarray, z: complex, h: float) -> float:
    """An upper bound of the distance from (z, h) to the nearest point outside
    every open dome (C_j, R_j): 0 outside them all, else the distance to the
    hemisphere of the one dome that holds it, asinh((R^2 - |z - C|^2 - h^2) /
    (2 R h)); the domes are disjoint, so its foot there is outside the others.

    The argument is R / 2h - (|z - C|^2 + h^2) / 2Rh, each term computed to
    within 8 ulp; moving each by 8 ulp the upper way bounds the exact value
    from above, so a point within rounding of a hemisphere counts as inside
    it, and asinh is monotone.  The pad of 1e-9 covers the rounding of asinh
    and of the search's prune test (num <= reach * h, about 1e-15 relative),
    far above either.  A term that overflows gives -inf for a far dome, and
    inf (no pruning) for a height too small to place."""
    tol = 8.0 * np.finfo(float).eps
    with np.errstate(over="ignore", invalid="ignore"):
        near, spread = radii / (2.0 * h), (np.abs(z - centers) ** 2 + h * h) / (2.0 * radii * h)
        top = float(np.max(near * (1.0 + tol) - spread * (1.0 - tol)))
    if math.isnan(top):  # inf - inf
        return math.inf
    return max(0.0, math.asinh(top)) + 1e-9


def _cyclic_orbits(group: GroupSpec, xp: Point, yps, r_max: float,
                   node_budget: int) -> list[OrbitSet]:
    """The cyclic orbits of enumerate_orbits, from one word list."""
    letters = group._letters()  # g, g^-1
    length = translation_length(letters[0])
    accs = [np.eye(2, dtype=complex) for _ in letters]
    # words[s][k - 1]: the entries of letters[s]^k, built when first needed
    words = ([], [])
    orbits = []
    # an overflowed word product shows as a non-finite distance, raised below
    with np.errstate(over="ignore", invalid="ignore"):
        for yp in yps:
            d_xy = distance(xp, yp)
            # d(x, g^k y) >= k L - d(x, y): no longer word lands within r_max
            k_max = int(math.floor((r_max + d_xy) / length * (1.0 + 1e-12)))
            if 2 * k_max > node_budget:
                raise EnumerationError(f"node budget {node_budget} exhausted before certifying "
                                       f"r_max={r_max}: translation length {length:.3g} "
                                       f"needs {2 * k_max} words")
            records = [(d_xy, 0)]
            for s, word in enumerate(words):
                for k in range(1, k_max + 1):
                    if k > len(word):
                        accs[s] = accs[s] @ letters[s]
                        word.append(accs[s].tolist())
                    try:
                        d = distance(xp, mobius_apply(word[k - 1], yp))
                    except (OverflowError, ValueError):  # g^k y left the float range
                        d = math.nan
                    if not d < math.inf:
                        raise EnumerationError(f"orbit distance at word length {k} is not finite "
                                               f"(g^k overflowed); cannot certify r_max={r_max}")
                    records.append((d, k))
            orbits.append(_sorted_orbit(xp, yp, *zip(*records), r_max, exhaustive=False))
    return orbits


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
    partial_sum: float
    n_terms: int
    tail_bound: float

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
    if not s < math.inf:
        raise ValueError(f"s must be finite, got {s!r}")
    partial = float(np.sum(np.exp(-s * orbit.distances)))
    if orbit.exhaustive:
        return PoincareEval(partial_sum=partial, n_terms=len(orbit), tail_bound=0.0)
    c_count = orbit.counting_constant(delta)
    k0 = math.floor(orbit.r_max)
    gap = s - delta
    tail = c_count * math.exp(delta) * math.exp(-k0 * gap) / (1.0 - math.exp(-gap))
    return PoincareEval(partial_sum=partial, n_terms=len(orbit), tail_bound=tail)


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
