import numpy as np
import pytest

from heatlab import oracle


@pytest.fixture
def coarse_certifier(monkeypatch):
    """Make oracle.gl_rule build its certifying rule with 3 nodes per panel
    instead of 32; a site's rule rebuilt under it must fail its certificate."""
    monkeypatch.setattr(oracle, "_GL_UNIT",
                        (oracle._GL_UNIT[0], np.polynomial.legendre.leggauss(3)))
