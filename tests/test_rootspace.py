import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from heatlab import lattice, lpthresholds, oracle
from heatlab.rootspace import (
    AlphaTriple,
    SpaceModel,
    admissible_alpha_triple,
    build_real_hyperbolic,
    named_model,
    s_p,
)


def same_bits(a, b) -> bool:
    return np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()


class TestRealHyperbolic:
    def test_h3_exponents(self):
        m = build_real_hyperbolic(3)
        assert m.rho_norm == 1.0
        assert m.m_exp == 0.0
        assert m.A_exp == 1.0
        assert m.n == 3
        assert m.rho_m == m.rho_norm

    def test_h2_exponents(self):
        m = build_real_hyperbolic(2)
        assert m.rho_norm == 0.5
        assert m.m_exp == -0.5
        assert m.A_exp == 0.5

    def test_radial_pairing_linearity(self):
        m = build_real_hyperbolic(2)
        assert m.rho_dot(4.0) == 2.0

    @pytest.mark.parametrize("bad", [1, 0, -3])
    def test_rejects_low_dimension(self, bad):
        with pytest.raises(ValueError):
            build_real_hyperbolic(bad)


class TestModelOracle:
    T = np.array([[0.05], [1.0], [12.0]])
    R = np.array([0.3, 2.0, 9.0])

    @pytest.mark.parametrize("n, log_kernel, dt_log_abs, radial_log_abs", [
        (2, oracle.h2_log, oracle.h2_dt_log_abs, oracle.h2_radial_log_abs),
        (3, oracle.h3_log, oracle.h3_dt_log_abs, oracle.h3_radial_log_abs),
    ], ids=["h2", "h3"])
    def test_bit_identical_to_the_oracle_functions(self, n, log_kernel, dt_log_abs,
                                                   radial_log_abs):
        model = build_real_hyperbolic(n)
        assert same_bits(model.log_kernel(self.T, self.R), log_kernel(self.T, self.R))
        for order in (0, 1, 2):
            got, want = model.dt_log_abs(self.T, self.R, order), dt_log_abs(self.T, self.R, order)
            assert same_bits(got[0], want[0]) and same_bits(got[1], want[1])
        assert same_bits(model.radial_log_abs(self.T, self.R), radial_log_abs(self.T, self.R))

    @pytest.mark.parametrize("call", [lambda m: m.log_kernel(1.0, 1.0),
                                      lambda m: m.dt_log_abs(1.0, 1.0, 1),
                                      lambda m: m.radial_log_abs(1.0, 1.0)],
                             ids=["log_kernel", "dt_log_abs", "radial_log_abs"])
    def test_no_oracle_beyond_three_dimensions(self, call):
        m = build_real_hyperbolic(5)
        assert m.rho_norm == 2.0  # the exponents exist; only the oracle does not
        with pytest.raises(ValueError, match="n=5"):
            call(m)

    def test_names_resolve_to_models(self):
        assert named_model("h2") == SpaceModel(2) == build_real_hyperbolic(2)
        assert named_model("H3") == SpaceModel(3)

    @pytest.mark.parametrize("space", ["h5", "", "h"])
    @pytest.mark.parametrize("call", [
        lambda space: oracle.radial_gradient(space, 1.0, 1.0),
        lambda space: oracle.quotient_kernel(
            lattice.enumerate_orbit(lattice.GroupSpec(dim=3, generators=(), family="trivial"),
                                    (0j, 1.0), (0j, math.e), 10.0),
            space, 1.0, None, None, 0, 10.0),
        lambda space: oracle.quotient_kernels(
            lattice.enumerate_orbits(lattice.GroupSpec(dim=3, generators=(), family="trivial"),
                                     (0j, 1.0), [(0j, math.e)], 10.0),
            space, 1.0, 0, 10.0),
        lambda space: lpthresholds.riesz_kernel_decay(space, 1.0),
    ], ids=["radial_gradient", "quotient_kernel", "quotient_kernels", "riesz_kernel_decay"])
    def test_unknown_space_names_rejected(self, call, space):
        with pytest.raises(ValueError, match="space"):
            call(space)


class TestConjugateWeight:
    def test_self_conjugate(self):
        assert s_p(2.0) == 1.0

    def test_p4(self):
        assert s_p(4.0) == 0.5

    def test_conjugate_pair(self):
        assert s_p(4.0 / 3.0) == pytest.approx(0.5, abs=1e-15)

    @given(st.floats(1.0001, 1000.0))
    def test_symmetry(self, p):
        q = p / (p - 1.0)
        assert s_p(p) == pytest.approx(s_p(q), rel=1e-12)

    def test_monotone_toward_endpoints(self):
        ps = [1.01, 1.1, 1.5, 2.0]
        vals = [s_p(p) for p in ps]
        assert vals == sorted(vals)
        ps_hi = [2.0, 4.0, 10.0, 100.0]
        vals_hi = [s_p(p) for p in ps_hi]
        assert vals_hi == sorted(vals_hi, reverse=True)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            s_p(1.0)
        with pytest.raises(ValueError):
            s_p(0.5)


class TestAlphaTriple:
    def test_boundary_case_admissible(self):
        for n in (2, 3, 5):
            m = build_real_hyperbolic(n)
            triple = AlphaTriple(0.0, m.rho_m, 0.0)
            assert admissible_alpha_triple(triple, 0.0, m)

    def test_product_below_floor_rejected(self):
        m = build_real_hyperbolic(3)
        # a2 - rho_m = 0.5 needs a1*a3 >= 0.25
        assert not admissible_alpha_triple(AlphaTriple(0.1, 1.5, 0.1), 0.0, m)
        assert admissible_alpha_triple(AlphaTriple(0.5, 1.5, 0.5), 0.0, m)

    def test_a2_interval_strict(self):
        m = build_real_hyperbolic(3)
        top = m.rho_norm + m.rho_m
        assert not admissible_alpha_triple(AlphaTriple(1.0, top, 1.0), 0.0, m)
        assert not admissible_alpha_triple(AlphaTriple(1.0, 0.3, 1.0), 0.3, m)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 0.9), st.integers(2, 6))
    def test_boundary_admissible_below_rho_m(self, delta_frac, n):
        m = build_real_hyperbolic(n)
        delta = delta_frac * m.rho_m
        assert admissible_alpha_triple(AlphaTriple(0.0, m.rho_m, 0.0), delta, m)
