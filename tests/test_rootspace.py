import pytest
from hypothesis import given, settings, strategies as st

from heatlab.rootspace import (
    AlphaTriple,
    RootDatum,
    RootSystemSpec,
    admissible_alpha_triple,
    build_real_hyperbolic,
    s_p,
)


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


class TestRootData:
    def test_rejects_zero_multiplicity(self):
        with pytest.raises(ValueError):
            RootDatum((1.0,), 0)

    def test_rejects_proportional_roots(self):
        with pytest.raises(ValueError):
            RootSystemSpec(rank=1, roots=(RootDatum((1.0,), 1), RootDatum((2.0,), 1)))


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
