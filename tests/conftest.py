import numpy as np
import pytest

from heatlab import oracle


@pytest.fixture
def coarse_certifier(monkeypatch):
    """Make oracle.gl_rule build its certifying rule with 3 nodes per panel
    instead of 32; a site's rule rebuilt under it must fail its certificate."""
    monkeypatch.setattr(oracle, "_GL_UNIT",
                        (oracle._GL_UNIT[0], np.polynomial.legendre.leggauss(3)))


@pytest.fixture(autouse=True)
def cold_oracle_caches():
    """Start and end every test with empty oracle caches, so a test that
    replaces a quadrature rule never reads a pass made under another."""
    caches = (oracle._h2_float_pass, oracle._h3_block_terms)
    for cache in caches:
        cache.cache_clear()
    yield
    for cache in caches:
        cache.cache_clear()
