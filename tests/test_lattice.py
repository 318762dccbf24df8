import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heatlab import lattice
from heatlab.config import ConfigError
from heatlab.lattice import (
    EnumerationError,
    GroupSpec,
    GroupSpecError,
    counting_function,
    critical_exponent,
    distance,
    enumerate_orbit,
    mobius_apply,
    parse_group,
    poincare_series,
    quotient_regime_rhs,
    splitting_slack,
    theorem2_rhs_log,
    translation_length,
)
from heatlab.rootspace import AlphaTriple, build_real_hyperbolic

H3 = build_real_hyperbolic(3)
COTH_1 = 1.0 / math.tanh(1.0)


def axis_group(translation: float, dim: int = 2) -> GroupSpec:
    half = math.exp(translation / 2.0)
    mat = np.array([[half, 0.0], [0.0, 1.0 / half]],
                   dtype=complex if dim == 3 else float)
    return GroupSpec(dim=dim, generators=(mat,), family="cyclic")


def schottky_generator(center: float, radius: float) -> np.ndarray:
    # pairs the disks at -center and +center of the given radius
    u, r = center, radius
    return np.array([[u / r, (u - r) * (u + r) / r], [1.0 / r, u / r]])


def schottky_pair() -> GroupSpec:
    return GroupSpec(dim=2,
                     generators=(schottky_generator(2.0, 1.0), schottky_generator(6.0, 1.0)),
                     family="schottky")


def space_pair() -> GroupSpec:
    return GroupSpec(dim=3,
                     generators=tuple(schottky_generator(u, 1.0).astype(complex)
                                      for u in (2.0, 6.0)),
                     family="schottky")


def shifted_pair() -> GroupSpec:
    """space_pair conjugated by z -> z + 2i: translating the configuration off
    the real axis keeps the disks rigid, so the group is Schottky with
    complex entries."""
    shift = np.array([[1.0, 2.0j], [0.0, 1.0]], dtype=complex)
    shift_inv = np.array([[1.0, -2.0j], [0.0, 1.0]], dtype=complex)
    gens = tuple(shift @ g @ shift_inv for g in space_pair().generators)
    return GroupSpec(dim=3, generators=gens, family="schottky")


def screw(w: complex) -> np.ndarray:
    """diag(e^{w/2}, e^{-w/2}): (z, h) -> (e^w z, e^{Re w} h)."""
    half = np.exp(w / 2.0)
    return np.array([[half, 0.0], [0.0, 1.0 / half]], dtype=complex)


# ---------------------------------------------------------------------------
# scalar reference for enumerate_orbit's block search: a per-node depth-first
# search over reduced words, one word matrix at a time


def _circle_image(mat: np.ndarray, center: complex, radius: float) -> tuple[complex, float]:
    a, b = complex(mat[0, 0]), complex(mat[0, 1])
    c, d = complex(mat[1, 0]), complex(mat[1, 1])
    if abs(c) >= 1e-14 and abs(abs(-d / c - center) - radius) < 1e-12 * max(1.0, radius):
        raise EnumerationError("pruning certificate degenerated; generators too close "
                               "to parabolic")
    czd = c * center + d
    q = abs(czd) ** 2 - abs(c) ** 2 * radius * radius
    new_center = ((a * center + b) * czd.conjugate() - a * c.conjugate() * radius * radius) / q
    return new_center, radius / abs(q)


def _hyperplane_distance(p, center: complex, radius: float) -> float:
    z, h = p
    if radius <= 0.0:
        return math.inf
    num = abs(z - center) ** 2 + h * h - radius * radius
    return math.asinh(num / (2.0 * radius * h)) if num > 0.0 else 0.0


def scalar_dfs_orbit(group: GroupSpec, x, y, r_max: float) -> tuple[np.ndarray, np.ndarray]:
    """Sorted distances and word lengths of the ping-pong orbit below r_max."""
    xp, yp = lattice.as_point(x), lattice.as_point(y)
    circles = group._letter_circles()
    letters = group._letters()
    slack = distance((0j, 1.0 + max(r for _, r in circles)), yp)
    records = [(distance(xp, yp), 0)]
    stack = [(np.eye(2, dtype=complex), -1, 0)]
    while stack:
        mat, last, depth = stack.pop()
        for b in range(len(letters)):
            if last >= 0 and b == (last ^ 1):
                continue
            img_center, img_radius = _circle_image(mat, *circles[b ^ 1])
            if _hyperplane_distance(xp, img_center, img_radius) - slack > r_max:
                continue
            child = mat @ letters[b]
            z, h = mobius_apply(child, yp)
            if not 0.0 < h < math.inf:
                raise EnumerationError(f"word matrix entries overflowed at depth {depth + 1}")
            d = distance(xp, (z, h))
            if not d < math.inf:
                raise EnumerationError(f"orbit distance {d} at depth {depth + 1} is not finite")
            records.append((d, depth + 1))
            stack.append((child, b, depth + 1))
    records = sorted(r for r in records if r[0] <= r_max)
    return np.array([d for d, _ in records]), np.array([w for _, w in records])


def random_reduced_words(n_letters: int, max_len: int, per_length: int, seed: int):
    """per_length random reduced words of each length 0..max_len; the inverse
    of letter j is letter j ^ 1."""
    rng = np.random.default_rng(seed)
    for length in range(max_len + 1):
        for _ in range(per_length):
            word = []
            while len(word) < length:
                j = int(rng.integers(n_letters))
                if not word or j != word[-1] ^ 1:
                    word.append(j)
            yield word


def word_matrix(letters: list[np.ndarray], word: list[int]) -> np.ndarray:
    mat = np.eye(2, dtype=complex)
    for j in word:
        mat = mat @ letters[j]
    return mat


def mp_brute_force_orbit(group: GroupSpec, x, y, max_len: int,
                         radius: float) -> tuple[list, list[int]]:
    """Distances and word lengths of every reduced word of length <= max_len
    landing within radius, in mpmath at 30 digits."""
    with mpmath.workdps(30):
        letters = [[mpmath.mpc(v) for v in g.reshape(4)] for g in group._letters()]
        (zx, hx), (zy, hy) = [(mpmath.mpc(p[0]), mpmath.mpf(p[1]))
                              for p in (lattice.as_point(x), lattice.as_point(y))]
        cosh_max = mpmath.cosh(radius)
        found, lengths = [], []
        level = [((mpmath.mpc(1), mpmath.mpc(0), mpmath.mpc(0), mpmath.mpc(1)), -1)]
        for length in range(max_len + 1):
            nxt = []
            for (a, b, c, d), last in level:
                czd = c * zy + d
                denom = abs(czd) ** 2 + abs(c) ** 2 * hy * hy
                z = ((a * zy + b) * mpmath.conj(czd) + a * mpmath.conj(c) * hy * hy) / denom
                h = hy / denom
                cosh_d = 1 + (abs(zx - z) ** 2 + (hx - h) ** 2) / (2 * hx * h)
                if cosh_d <= cosh_max:
                    found.append(mpmath.acosh(cosh_d))
                    lengths.append(length)
                for j, (ga, gb, gc, gd) in enumerate(letters):
                    if length < max_len and j != last ^ 1:
                        nxt.append(((a * ga + b * gc, a * gb + b * gd,
                                     c * ga + d * gc, c * gb + d * gd), j))
            level = nxt
        return found, lengths


class TestGeometry:
    def test_distance_axis_points(self):
        assert distance((0.0, 1.0), (0.0, math.e)) == pytest.approx(1.0, rel=1e-14)

    def test_distance_symmetric(self):
        p, q = (0.3, 0.7), (-1.2, 2.5)
        assert distance(p, q) == pytest.approx(distance(q, p), rel=1e-15)

    def test_mobius_is_isometry(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a, b, c = rng.normal(size=3)
            mat = np.array([[math.exp(a), b], [c, (1.0 + b * c) / math.exp(a)]])
            p = (rng.normal(), rng.uniform(0.2, 3.0))
            q = (rng.normal(), rng.uniform(0.2, 3.0))
            assert distance(mobius_apply(mat, p), mobius_apply(mat, q)) == pytest.approx(
                distance(p, q), rel=1e-10)

    def test_mobius_h3_isometry(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            a = rng.normal() + 1j * rng.normal()
            b = rng.normal() + 1j * rng.normal()
            c = rng.normal() + 1j * rng.normal()
            # complete to determinant one
            a = a if abs(a) > 0.3 else a + 1.0
            d = (1.0 + b * c) / a
            mat = np.array([[a, b], [c, d]], dtype=complex)
            p = (rng.normal() + 1j * rng.normal(), rng.uniform(0.2, 3.0))
            q = (rng.normal() + 1j * rng.normal(), rng.uniform(0.2, 3.0))
            assert distance(mobius_apply(mat, p), mobius_apply(mat, q)) == pytest.approx(
                distance(p, q), rel=1e-9)

    def test_translation_length(self):
        g = axis_group(2.0).generators[0]
        assert translation_length(g) == pytest.approx(2.0, rel=1e-13)


class TestGroupSpec:
    def test_rejects_elliptic_cyclic(self):
        rot = np.array([[math.cos(0.4), -math.sin(0.4)], [math.sin(0.4), math.cos(0.4)]])
        with pytest.raises(GroupSpecError):
            GroupSpec(dim=2, generators=(rot,), family="cyclic")

    def test_rejects_parabolic_cyclic(self):
        par = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(GroupSpecError):
            GroupSpec(dim=2, generators=(par,), family="cyclic")

    def test_rejects_bad_determinant(self):
        with pytest.raises(GroupSpecError):
            GroupSpec(dim=2, generators=(np.array([[2.0, 0.0], [0.0, 1.0]]),), family="cyclic")

    def test_schottky_disjoint_disks_accepted(self):
        schottky_pair()

    def test_screw_motion_accepted(self):
        # trace 2 cosh(w/2) = 0.82 + 1.56i: loxodromic although |trace| < 2
        w = 1.5 + 2.5j
        group = GroupSpec(dim=3, generators=(screw(w),), family="cyclic")
        trace = group.generators[0][0, 0] + group.generators[0][1, 1]
        assert abs(trace) < 2.0 and translation_length(group.generators[0]) == pytest.approx(1.5)

    def test_pure_rotation_rejected(self):
        with pytest.raises(GroupSpecError):
            GroupSpec(dim=3, generators=(screw(2.5j),), family="cyclic")

    def test_schottky_overlapping_disks_rejected(self):
        with pytest.raises(GroupSpecError):
            GroupSpec(dim=2,
                      generators=(schottky_generator(2.0, 1.0), schottky_generator(3.5, 1.0)),
                      family="schottky")

    def test_schottky_generator_fixing_infinity_rejected(self):
        # a diagonal generator has no isometric circle to serve as a disk
        diag = np.array([[1.5, 0.0], [0.0, 1.0 / 1.5]])
        with pytest.raises(GroupSpecError, match="no isometric circle"):
            GroupSpec(dim=2, generators=(diag,), family="schottky")

    @pytest.mark.parametrize("entries, dim", [
        ((math.nan, 0.0, 0.0, 1.0), 2), ((math.inf, 0.0, 0.0, 0.0), 2),
        ((2.0, 0.0, 0.0, complex(0.5, math.inf)), 3),
    ])
    def test_non_finite_entries_rejected(self, entries, dim):
        # a NaN determinant would pass the det-1 test
        with pytest.raises(GroupSpecError, match="must be finite"):
            GroupSpec(dim=dim, generators=(np.array(entries).reshape(2, 2),), family="cyclic")


class TestEnumerateOrbit:
    def test_cyclic_distances(self):
        group = axis_group(2.0)
        orbit = enumerate_orbit(group, (0.0, 1.0), (0.0, 1.0), 10.0)
        expected = [0.0, 2.0, 2.0, 4.0, 4.0, 6.0, 6.0, 8.0, 8.0, 10.0, 10.0]
        assert np.allclose(orbit.distances, expected, atol=1e-12)
        assert list(orbit.word_lengths) == [0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]

    def test_screw_motion_distances_closed_form(self):
        w = 1.5 + 2.5j
        group = GroupSpec(dim=3, generators=(screw(w),), family="cyclic")
        (zx, hx), (zy, hy) = (0.3 + 0.1j, 1.0), (0.2j, 2.0)
        orbit = enumerate_orbit(group, (zx, hx), (zy, hy), 30.0)
        expected = []
        for k in range(-40, 41):  # g^k (z, h) = (e^{kw} z, e^{k Re w} h)
            zk, hk = np.exp(k * w) * zy, math.exp(k * w.real) * hy
            d = math.acosh(1.0 + (abs(zx - zk) ** 2 + (hx - hk) ** 2) / (2.0 * hx * hk))
            if d <= 30.0:
                expected.append((d, abs(k)))
        expected.sort()
        assert len(orbit) == len(expected) > 30
        assert np.allclose(orbit.distances, [d for d, _ in expected], rtol=1e-12, atol=1e-12)
        assert list(orbit.word_lengths) == [k for _, k in expected]

    def test_schottky_overflow_raises_enumeration_error(self):
        # one generator pairing the disks at +-2: its words stay few, so the
        # node budget holds while the word matrices leave the float range
        group = GroupSpec(dim=3, generators=(schottky_generator(2.0, 1.0).astype(complex),),
                          family="schottky")
        with pytest.raises(EnumerationError, match="not finite"):
            enumerate_orbit(group, (0j, 5.0), (0j, 5.0), 720.0)

    def test_pulled_back_overflow_raises_enumeration_error(self):
        # x far above y: w^{-1} x leaves the float range (|c| h_x > 1e154)
        # while the image points w y, within r_max, are still finite
        group = GroupSpec(dim=3, generators=(schottky_generator(2.0, 1.0).astype(complex),),
                          family="schottky")
        with pytest.raises(EnumerationError, match="pulled-back basepoint"):
            enumerate_orbit(group, (0j, 1e100), (0j, 1.0), 720.0)

    def test_near_tangent_disks_raise_degenerate_certificate(self):
        # disks of radius 1 at +-2 and +-4.0000000000001: a gap of 1e-13,
        # below the 1e-12 margin the pruning test can certify, so the group
        # is refused when it is built; both traces (4, 8.0000000000002) pass
        gens = (np.array([[2.0, 3.0], [1.0, 2.0]]),
                np.array([[4.0000000000001, 15.000000000000803], [1.0, 4.0000000000001]]))
        with pytest.raises(GroupSpecError, match="certifiable margin"):
            GroupSpec(dim=2, generators=gens, family="schottky")

    @pytest.mark.parametrize("translation, dim, r_max", [(1.5, 3, 356.0), (1.5, 3, 2000.0),
                                                         (2.0, 2, 720.0)])
    def test_cyclic_overflow_raises_enumeration_error(self, translation, dim, r_max):
        # g^k y leaves the float range (an OverflowError inside distance)
        group = axis_group(translation, dim)
        p = (0j, 1.0)
        with pytest.raises(EnumerationError, match=rf"word length \d+ .* r_max={r_max}"):
            enumerate_orbit(group, p, p, r_max)

    def test_cyclic_below_overflow_completes(self):
        # words past k = (r_max + d(x, y)) / L land beyond r_max and are not
        # evaluated, so r_max 354 completes although g^237 y overflows
        for r_max, count, last in ((352.5, 471, 352.5), (354.0, 473, 354.0)):
            orbit = enumerate_orbit(axis_group(1.5, 3), (0j, 1.0), (0j, 1.0), r_max)
            assert len(orbit) == count and orbit.distances[-1] == pytest.approx(last)

    def test_trivial_group(self):
        group = GroupSpec(dim=2, generators=(), family="trivial")
        orbit = enumerate_orbit(group, (0.0, 1.0), (1.0, 2.0), 6.0)
        assert len(orbit) == 1 and orbit.exhaustive
        assert orbit.distances[0] == pytest.approx(distance((0.0, 1.0), (1.0, 2.0)))

    def test_schottky_exponential_growth(self):
        group = schottky_pair()
        p = (0.0, 2.0)
        orbit = enumerate_orbit(group, p, p, 20.0)
        assert len(orbit) >= 50
        est = critical_exponent(orbit)
        assert not est.insufficient_data
        assert 0.0 < est.estimate < 1.0  # plane: delta <= 2 rho_norm = 1

    def test_schottky_matches_brute_force_exactly(self):
        # independent oracle: enumerate all reduced words to length 6 directly.
        # The disk gap is acosh(7), so any word of length >= 7 moves the
        # basepoint beyond 6 * acosh(7) > 15 and the brute list is complete
        # below the cut; the certified orbit must match it as a multiset.
        group = schottky_pair()
        p = (0.0, 2.0)
        letters = group._letters()
        mats = [np.eye(2)]
        frontier = {(): np.eye(2)}
        for _ in range(6):
            nxt = {}
            for word, mat in frontier.items():
                for j, g in enumerate(letters):
                    if word and word[-1] == (j ^ 1):
                        continue
                    nxt[word + (j,)] = mat @ g
            mats.extend(nxt.values())
            frontier = nxt
        brute = sorted(
            d for d in (distance(p, mobius_apply(m, p)) for m in mats) if d <= 15.0
        )
        orbit = enumerate_orbit(group, p, p, 15.0)
        assert len(orbit) == len(brute)
        assert np.allclose(orbit.distances, brute, atol=1e-9)

    def test_schottky_h2_h3_cross_model(self):
        # real matrices act identically on the half-plane and on the
        # real-z slice of the half-space
        gens = (schottky_generator(2.0, 1.0), schottky_generator(6.0, 1.0))
        plane = GroupSpec(dim=2, generators=gens, family="schottky")
        space = GroupSpec(dim=3, generators=tuple(g.astype(complex) for g in gens),
                          family="schottky")
        a = enumerate_orbit(plane, (0.0, 2.0), (0.0, 2.0), 12.0)
        b = enumerate_orbit(space, (0j, 2.0), (0j, 2.0), 12.0)
        assert len(a) == len(b)
        assert np.allclose(a.distances, b.distances, atol=1e-10)

    def test_schottky_h3_complex_conjugated(self):
        # the orbit distances are conjugation-invariant
        p = (0j, 2.0)
        p_shifted = (2.0j, 2.0)
        a = enumerate_orbit(space_pair(), p, p, 12.0)
        b = enumerate_orbit(shifted_pair(), p_shifted, p_shifted, 12.0)
        assert len(a) == len(b)
        assert np.allclose(a.distances, b.distances, atol=1e-9)

    def test_free_family_rejected(self):
        # a free family would defer the ping-pong check to enumeration
        with pytest.raises(GroupSpecError, match="unknown family 'free'"):
            GroupSpec(dim=2, generators=schottky_pair().generators, family="free")

    def test_node_budget_abort(self):
        group = schottky_pair()
        with pytest.raises(EnumerationError):
            enumerate_orbit(group, (0.0, 2.0), (0.0, 2.0), 60.0, node_budget=50)

    def test_cyclic_node_budget_abort(self):
        # trace 2e-9 i: a half-turn screw of translation length 2e-9, which
        # the trace test accepts; its word range to r_max 60 is 6e10 words
        g = np.array([[1e-9j, 1.0], [-1.0, 1e-9j]])
        group = GroupSpec(dim=3, generators=(g,), family="cyclic")
        assert translation_length(group.generators[0]) == pytest.approx(2e-9, rel=1e-6)
        with pytest.raises(EnumerationError, match="node budget 1000 exhausted"):
            enumerate_orbit(group, (0j, 1.0), (0j, 1.0), 60.0, node_budget=1000)
        with pytest.raises(EnumerationError, match="node budget 2000000 exhausted"):
            enumerate_orbit(group, (0j, 1.0), (0j, 1.0), 60.0)


PING_PONG_CASES = {
    "plane": (schottky_pair, (0.0, 2.0), (0.3, 1.5)),
    "space": (space_pair, (0.1 + 0.2j, 2.0), (0.3j, 2.5)),
    "conjugated": (shifted_pair, (0.1 + 2.2j, 1.8), (2.0j, 2.0)),
}


class TestBlockSearch:
    @pytest.mark.parametrize("r_max", [10.0, 15.0, 20.0])
    @pytest.mark.parametrize("case", sorted(PING_PONG_CASES))
    def test_matches_scalar_dfs(self, case, r_max):
        make, x, y = PING_PONG_CASES[case]
        group = make()
        orbit = enumerate_orbit(group, x, y, r_max)
        ref_d, ref_w = scalar_dfs_orbit(group, x, y, r_max)
        got_d, got_w = orbit.distances, orbit.word_lengths
        if got_d.size != ref_d.size:
            # a point within rounding of the cutoff may fall either side
            near = np.count_nonzero(np.abs(ref_d - r_max) <= 1e-12)
            assert abs(got_d.size - ref_d.size) <= near
            n = min(got_d.size, ref_d.size)
            got_d, got_w, ref_d, ref_w = got_d[:n], got_w[:n], ref_d[:n], ref_w[:n]
        assert got_d.size > 20
        assert np.max(np.abs(got_d - ref_d)) <= 1e-13
        assert np.array_equal(np.sort(got_w), np.sort(ref_w))

    def test_count_matches_mp_brute_force(self):
        # every reduced word of length L lies behind L nested walls at least
        # acosh 7 apart, so d(x, w x) >= (L - 1) acosh 7: words longer than
        # max_len land beyond r_max + 1
        r_max = 20.0
        max_len = int((r_max + 1.0) // math.acosh(7.0)) + 1
        group, x = space_pair(), (0j, 2.0)
        found, lengths = mp_brute_force_orbit(group, x, x, max_len, r_max + 1.0)
        ref = sorted((float(d), w) for d, w in zip(found, lengths))
        assert min(abs(d - r_max) for d, _ in ref) > 1e-6  # no point at the cutoff
        ref = [(d, w) for d, w in ref if d <= r_max]
        orbit = enumerate_orbit(group, x, x, r_max)
        assert len(orbit) == len(ref) == 631
        assert np.array_equal(np.sort(orbit.word_lengths), np.sort([w for _, w in ref]))
        assert np.max(np.abs(orbit.distances - [d for d, _ in ref])) <= 1e-12

    def test_pulled_back_prune_test_matches_mpmath(self):
        # the prune quantities of random reduced words up to length 16: the
        # basepoint pulled back by the word's float product, and per allowed
        # next letter |z' - C|^2 + h'^2 - R^2 over its fixed dome, against the
        # same quantities in 60 digits on the exact integer product
        group = space_pair()
        letters = group._letters()
        circles = [group._letter_circles()[j ^ 1] for j in range(len(letters))]
        xz, xh = 0.1 + 0.2j, 2.0
        worst = 0.0
        for word in random_reduced_words(len(letters), 16, 6, seed=8):
            mat = word_matrix(letters, word)
            a, b, c, d = mat.reshape(4)
            z, h = lattice._mobius_points(d, -b, -c, a, xz, xh)
            with mpmath.workdps(60):
                ma, mb, mc, md = (mpmath.mpc(v) for v in (1, 0, 0, 1))
                for j in word:
                    ga, gb, gc, gd = (mpmath.mpc(v) for v in letters[j].reshape(4))
                    ma, mb, mc, md = (ma * ga + mb * gc, ma * gb + mb * gd,
                                      mc * ga + md * gc, mc * gb + md * gd)
                mz, mh = mpmath.mpc(xz), mpmath.mpf(xh)
                pole = ma - mc * mz  # w^{-1} = [[d, -b], [-c, a]]
                denom = abs(pole) ** 2 + abs(mc) ** 2 * mh * mh
                ref_z = ((md * mz - mb) * mpmath.conj(pole)
                         - md * mpmath.conj(mc) * mh * mh) / denom
                ref_h = mh / denom
                worst = max(worst, float(abs(mpmath.mpc(complex(z)) - ref_z) / abs(ref_z)),
                            float(abs(h - ref_h) / ref_h))
                for nxt, (cc, rr) in enumerate(circles):
                    if word and nxt == word[-1] ^ 1:
                        continue
                    num = abs(z - cc) ** 2 + h * h - rr * rr
                    ref = abs(ref_z - mpmath.mpc(cc)) ** 2 + ref_h ** 2 - mpmath.mpf(rr) ** 2
                    worst = max(worst, float(abs(num - ref) / abs(ref)))
        assert worst <= 1e-12

    def test_pulled_back_distance_matches_forward_images(self):
        # d(w^{-1} x, D) = d(x, w D): the distance from the pulled-back
        # basepoint to each fixed dome against the forward image disk of the
        # scalar reference, for random reduced words up to length 10
        group = shifted_pair()
        letters = group._letters()
        circles = [group._letter_circles()[j ^ 1] for j in range(len(letters))]
        xz, xh = 0.1 + 2.2j, 1.8
        worst = 0.0
        for word in random_reduced_words(len(letters), 10, 6, seed=9):
            mat = word_matrix(letters, word)
            a, b, c, d = mat.reshape(4)
            z, h = lattice._mobius_points(d, -b, -c, a, xz, xh)
            for nxt, (cc, rr) in enumerate(circles):
                if word and nxt == word[-1] ^ 1:
                    continue
                pulled = math.asinh((abs(z - cc) ** 2 + h * h - rr * rr) / (2.0 * rr * h))
                forward = _hyperplane_distance((xz, xh), *_circle_image(mat, cc, rr))
                worst = max(worst, abs(pulled - forward))
        assert worst <= 1e-10

    @pytest.mark.parametrize("case", sorted(PING_PONG_CASES))
    def test_block_size_leaves_orbit_unchanged(self, case, monkeypatch):
        # blocks of 7 split every level of the search into many stack entries
        make, x, y = PING_PONG_CASES[case]
        ref = enumerate_orbit(make(), x, y, 15.0)
        monkeypatch.setattr(lattice, "_BLOCK", 7)
        got = enumerate_orbit(make(), x, y, 15.0)
        assert len(ref) > 100
        assert np.array_equal(got.distances, ref.distances)
        assert np.array_equal(got.word_lengths, ref.word_lengths)

    def test_deep_orbit_matches_numpy_brute_force(self):
        # the orbit that once overflowed (pruning lost to a cancelling radius)
        # completes; below r = 28.9 < 11 acosh 7 it must hold exactly the
        # reduced words of at most 11 letters, listed here level by level
        r_max, r_cut, p = 36.6, 28.9, (0j, 5.0)
        orbit = enumerate_orbit(space_pair(), p, p, r_max)
        assert np.all(np.diff(orbit.distances) >= 0.0) and orbit.distances[-1] <= r_max
        max_len = int(r_cut // math.acosh(7.0)) + 1
        gens = [np.array([2.0, 3.0, 1.0, 2.0]), np.array([6.0, 35.0, 1.0, 6.0])]
        letters = np.array([m for g in gens for m in (g, g[[3, 1, 2, 0]] * [1, -1, -1, 1])])
        mats, last = np.array([[1.0, 0.0, 0.0, 1.0]]), np.array([-1])
        dists, lengths = [], []
        for length in range(max_len + 1):
            a, b, c, d = mats.T  # real entries: y = (0, 5) maps to (z, h) in closed form
            denom = d * d + c * c * 25.0
            z, h = (b * d + a * c * 25.0) / denom, 5.0 / denom
            dists.append(np.arccosh(1.0 + (z * z + (5.0 - h) ** 2) / (10.0 * h)))
            lengths.append(np.full(len(mats), length))
            if length == max_len:
                break
            rows, nxt = np.nonzero(np.arange(len(letters)) != (last[:, None] ^ 1))
            m, g = mats[rows].T, letters[nxt].T
            mats = np.stack((m[0] * g[0] + m[1] * g[2], m[0] * g[1] + m[1] * g[3],
                             m[2] * g[0] + m[3] * g[2], m[2] * g[1] + m[3] * g[3]), axis=1)
            last = nxt
        dists, lengths = np.concatenate(dists), np.concatenate(lengths)
        assert np.min(np.abs(dists - r_cut)) > 1e-9  # no point at the cut
        ref_d, ref_w = np.sort(dists[dists <= r_cut]), lengths[dists <= r_cut]
        got = orbit.distances <= r_cut
        assert np.count_nonzero(got) == ref_d.size > 10_000
        assert np.array_equal(np.sort(orbit.word_lengths[got]), np.sort(ref_w))
        assert np.max(np.abs(orbit.distances[got] - ref_d)) <= 1e-12


class TestNonFiniteRadii:
    @pytest.mark.parametrize("r_max", [math.nan, math.inf, 0.0], ids=["nan", "inf", "zero"])
    @pytest.mark.parametrize("group", [axis_group(2.0), schottky_pair(),
                                       GroupSpec(dim=2, generators=(), family="trivial")],
                             ids=["cyclic", "schottky", "trivial"])
    def test_enumerate_orbit_rejects_r_max(self, group, r_max):
        with pytest.raises(ValueError, match="r_max"):
            enumerate_orbit(group, (0.0, 1.0), (0.0, 1.5), r_max)

    @pytest.mark.parametrize("exhaustive", [False, True])
    def test_counting_function_rejects_nan(self, exhaustive):
        orbit = enumerate_orbit(axis_group(2.0), (0.0, 1.0), (0.0, 1.0), 30.0)
        orbit = dataclasses.replace(orbit, exhaustive=exhaustive)
        with pytest.raises(ValueError, match="nan"):
            counting_function(orbit, math.nan)

    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf, -5.0],
                             ids=["nan", "inf", "-inf", "negative"])
    def test_counting_constant_rejects_delta(self, delta):
        orbit = enumerate_orbit(schottky_pair(), (0.0, 2.0), (0.3, 1.5), 12.0)
        with pytest.raises(ValueError, match="^delta must be"):
            orbit.counting_constant(delta)


class TestOrbitArrays:
    ORBITS = {
        "trivial": lambda: enumerate_orbit(GroupSpec(dim=2, generators=(), family="trivial"),
                                           (0.0, 1.0), (0.0, 1.5), 5.0),
        "cyclic": lambda: enumerate_orbit(axis_group(2.0), (0.0, 1.0), (0.5, 3.0), 20.0),
        "schottky": lambda: enumerate_orbit(schottky_pair(), (0.0, 2.0), (0.3, 1.5), 12.0),
    }

    @pytest.mark.parametrize("kind", sorted(ORBITS))
    def test_in_place_writes_raise(self, kind):
        orbit = self.ORBITS[kind]()
        for array in (orbit.distances, orbit.word_lengths):
            with pytest.raises(ValueError):
                array[0] = 1
        replaced = dataclasses.replace(orbit, distances=orbit.distances.copy())
        with pytest.raises(ValueError):
            replaced.distances[0] = 1.0

    @pytest.mark.parametrize("kind", sorted(ORBITS))
    def test_word_lengths_are_int32(self, kind):
        orbit = self.ORBITS[kind]()
        assert orbit.word_lengths.dtype == np.int32
        assert orbit.distances.dtype == np.float64


class TestCountingFunction:
    def test_cyclic_counting(self):
        orbit = enumerate_orbit(axis_group(2.0), (0.0, 1.0), (0.0, 1.0), 20.0)
        for radius in (0.0, 1.9, 2.0, 5.0, 10.0, 20.0):
            assert counting_function(orbit, radius) == 2 * math.floor(radius / 2.0) + 1

    def test_small_radius_nontrivial_basepoints(self):
        orbit = enumerate_orbit(axis_group(2.0), (0.0, 1.0), (0.0, math.e), 10.0)
        assert counting_function(orbit, 0.5) == 0

    def test_rejects_beyond_certified_range(self):
        orbit = enumerate_orbit(axis_group(2.0), (0.0, 1.0), (0.0, 1.0), 10.0)
        with pytest.raises(ValueError):
            counting_function(orbit, 11.0)

    def test_schottky_uniform_bracketing(self):
        group = schottky_pair()
        p = (0.0, 2.0)
        orbit = enumerate_orbit(group, p, p, 20.0)
        est = critical_exponent(orbit)
        delta = max(est.conservative, 1e-3)
        ks = np.arange(3.0, math.floor(orbit.r_max) + 1.0)
        counts = np.array([counting_function(orbit, k) for k in ks], dtype=float)
        c_hi = float(np.max(counts * np.exp(-delta * ks)))
        c_lo = float(np.min(counts * np.exp(-delta * ks)))
        assert 0.0 < c_lo <= c_hi < math.inf

    @pytest.mark.parametrize("delta", [0.0, 0.05, 0.4, 0.9])
    def test_counting_constant_matches_shell_counts(self, delta):
        orbits = [enumerate_orbit(schottky_pair(), (0.0, 2.0), (0.3, 1.5), 16.0),
                  enumerate_orbit(axis_group(2.0), (0.0, 1.0), (0.5, 3.0), 25.5),
                  enumerate_orbit(axis_group(3.0), (0.0, 1.0), (0.0, 20.0), 4.0)]
        for orbit in orbits:
            ks = np.arange(0.0, math.floor(orbit.r_max) + 1.0)
            counts = np.array([np.count_nonzero(orbit.distances <= k) for k in ks])
            mask = counts > 0
            expected = (float(np.max(counts[mask] * np.exp(-delta * ks[mask])))
                        if mask.any() else 1.0)
            assert orbit.counting_constant(delta) == expected


class TestCriticalExponent:
    def test_cyclic_near_zero(self):
        orbit = enumerate_orbit(axis_group(2.0), (0.0, 1.0), (0.0, 1.0), 60.0)
        est = critical_exponent(orbit)
        assert not est.insufficient_data
        assert est.estimate < 0.05

    def test_trivial_zero(self):
        group = GroupSpec(dim=2, generators=(), family="trivial")
        orbit = enumerate_orbit(group, (0.0, 1.0), (0.0, 2.0), 5.0)
        est = critical_exponent(orbit)
        assert est.estimate == 0.0 and not est.insufficient_data

    def test_insufficient_data_flagged(self):
        orbit = enumerate_orbit(axis_group(2.0), (0.0, 1.0), (0.0, 1.0), 10.0)
        assert critical_exponent(orbit).insufficient_data

    def test_matches_per_radius_counting_loop(self):
        def window_slope(orbit, lo_frac):
            rs = np.linspace(lo_frac * orbit.r_max, orbit.r_max, 25)
            counts = np.array([counting_function(orbit, r) for r in rs], dtype=float)
            mask = counts > 0
            return float(np.polyfit(rs[mask], np.log(counts[mask]), 1)[0])

        orbits = [enumerate_orbit(axis_group(2.0), (0.0, 1.0), (0.5, 3.0), 60.0),
                  enumerate_orbit(schottky_pair(), (0.0, 2.0), (0.3, 1.5), 20.0)]
        for orbit in orbits:
            s1, s2 = window_slope(orbit, 0.5), window_slope(orbit, 0.75)
            est = critical_exponent(orbit)
            assert not est.insufficient_data
            assert (est.estimate, est.lower, est.upper) == (s1, min(s1, s2), max(s1, s2))


class TestPoincareSeries:
    def test_cyclic_closed_form_bracket(self):
        orbit = enumerate_orbit(axis_group(2.0), (0.0, 1.0), (0.0, 1.0), 40.0)
        ev = poincare_series(orbit, s=1.0, delta=0.05)
        lo, hi = ev.bracket
        assert lo <= COTH_1 <= hi
        assert hi - lo < 1e-10

    def test_trivial_group_exact(self):
        group = GroupSpec(dim=2, generators=(), family="trivial")
        orbit = enumerate_orbit(group, (0.0, 1.0), (0.0, math.e), 10.0)
        ev = poincare_series(orbit, s=0.7, delta=0.0)
        assert ev.tail_bound == 0.0
        assert ev.partial_sum == pytest.approx(math.exp(-0.7), rel=1e-14)

    def test_large_s_dominant_term(self):
        orbit = enumerate_orbit(axis_group(2.0), (0.0, 1.0), (0.0, math.exp(0.5)), 12.0)
        s = 40.0
        ev = poincare_series(orbit, s=s, delta=0.05)
        dominant = math.exp(-s * orbit.d_min)
        assert ev.partial_sum == pytest.approx(dominant, rel=1e-6)

    def test_rejects_s_at_or_below_delta(self):
        orbit = enumerate_orbit(axis_group(2.0), (0.0, 1.0), (0.0, 1.0), 10.0)
        with pytest.raises(ValueError):
            poincare_series(orbit, s=0.05, delta=0.05)

    def test_brackets_nested_under_doubling(self):
        group = axis_group(2.0)
        x = (0.0, 1.0)
        prev = None
        for r_max in (10.0, 20.0, 40.0):
            orbit = enumerate_orbit(group, x, x, r_max)
            lo, hi = poincare_series(orbit, s=1.0, delta=0.05).bracket
            if prev is not None:
                assert lo >= prev[0] - 1e-10
                assert hi <= prev[1] + 1e-10
            prev = (lo, hi)


class TestQuotientDistance:
    def test_min_orbit_distance_invariant_under_generator_permutation(self):
        g1 = schottky_generator(2.0, 1.0)
        g2 = schottky_generator(6.0, 1.0)
        x, y = (0.0, 2.0), (0.5, 1.5)
        a = enumerate_orbit(GroupSpec(dim=2, generators=(g1, g2), family="schottky"), x, y, 10.0)
        b = enumerate_orbit(GroupSpec(dim=2, generators=(g2, g1), family="schottky"), x, y, 10.0)
        assert a.d_min == pytest.approx(b.d_min, abs=1e-12)
        assert np.allclose(a.distances, b.distances)


class TestTheorem2Rhs:
    def test_boundary_triple_shape(self):
        # a1 = a3 = 0, a2 = rho_m: full time and Gaussian decay survive
        t, d = 2.0, 3.0
        triple = AlphaTriple(0.0, H3.rho_m, 0.0)
        val = math.exp(float(theorem2_rhs_log(H3, 0.0, triple, 0, t, d, 0.1)))
        expected = t ** -1.5 * math.exp(-0.9 * (t + H3.rho_m * d + d * d / (4 * t)))
        assert val == pytest.approx(expected, rel=1e-13)

    def test_rejects_inadmissible(self):
        with pytest.raises(ValueError):
            theorem2_rhs_log(H3, 0.0, AlphaTriple(0.1, 1.5, 0.1), 0, 1.0, 1.0, 0.1)

    @settings(max_examples=80, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.floats(0.05, 20.0), st.floats(0.0, 15.0))
    def test_slack_nonnegative_on_admissible(self, a1, a3, frac, t, d):
        lo = H3.rho_m - H3.rho_norm * math.sqrt(a1 * a3)
        hi = H3.rho_m + H3.rho_norm * math.sqrt(a1 * a3)
        a2 = lo + frac * (hi - lo)
        a2 = min(max(a2, 1e-9), H3.rho_norm + H3.rho_m - 1e-9)
        triple = AlphaTriple(a1, a2, a3)
        assert float(splitting_slack(H3, triple, t, d)) >= -1e-10

    def test_slack_equality_case(self):
        triple = AlphaTriple(0.0, H3.rho_m, 0.0)
        assert float(splitting_slack(H3, triple, 1.3, 4.2)) == 0.0


class TestQuotientRegimes:
    def test_regime1_origin(self):
        t = 2.0
        val = float(quotient_regime_rhs(H3, 0.02, 0.5, t, 0.0))
        assert val == pytest.approx(t ** -1.5 * math.exp(-t), rel=1e-13)

    def test_regime_range_rejections(self):
        with pytest.raises(ValueError):
            quotient_regime_rhs(H3, 1.5, 0.5, 1.0, 1.0)  # delta >= rho_m
        with pytest.raises(ValueError):
            quotient_regime_rhs(H3, 0.1, 0.05, 1.0, 1.0)  # s <= delta
        with pytest.raises(ValueError):
            quotient_regime_rhs(H3, 0.1, 1.0, 1.0, 1.0)  # s >= rho_m

    def test_regime1_dominates_quotient_kernel(self):
        from heatlab import oracle

        group = axis_group(18.0, dim=3)
        x = (0j, 1.0)
        best = -math.inf
        for t in np.geomspace(0.2, 8.0, 8):
            for d in np.linspace(0.0, 6.0, 8):
                y = (0j, math.exp(float(d)))
                orbit = enumerate_orbit(group, x, y, 70.0)
                ev = oracle.quotient_kernel(orbit, "h3", float(t), None, None, 0, 70.0, delta=0.04)
                series = poincare_series(orbit, s=0.5, delta=0.04)
                rhs = float(quotient_regime_rhs(H3, 0.04, 0.5, t, d))
                best = max(best, math.log(ev.value) - math.log(rhs * series.partial_sum))
        assert math.isfinite(best)
        assert math.exp(best) < 10.0


class TestGroupConfig:
    def test_parse_plane_group(self):
        group = parse_group("[group]\ndim = 2\nfamily = cyclic\n"
                            "generator = 2.0, 0.0, 0.0, 0.5\n")
        assert group.dim == 2 and group.family == "cyclic"

    def test_parse_space_group(self):
        group = parse_group("[group]\ndim = 3\nfamily = cyclic\n"
                            "generator = 2,0, 0,0, 0,0, 0.5,0\n")
        assert group.dim == 3
        assert translation_length(group.generators[0]) == pytest.approx(2 * math.log(2.0))

    def test_parse_rejects_wrong_arity(self):
        with pytest.raises(ConfigError):
            parse_group("[group]\ndim = 2\nfamily = cyclic\ngenerator = 1,2,3\n")

    def test_parse_rejects_bad_dim_before_generators(self):
        with pytest.raises(ConfigError, match="dim must be 2 or 3, got 5"):
            parse_group("[group]\ndim = 5\nfamily = cyclic\ngenerator = 2,0,0,0.5\n")

    def test_parse_rejects_invalid_family(self):
        with pytest.raises(ConfigError):
            parse_group("[group]\ndim = 2\nfamily = cyclic\ngenerator = 1,1,0,1\n")
