import math

import numpy as np
import pytest

from heatlab import oracle
from heatlab.rootspace import RootDatum, RootSystemSpec, SpaceModel


@pytest.fixture
def coarse_certifier(monkeypatch):
    """Make oracle.gl_rule build its certifying rule with 3 nodes per panel
    instead of 32; a site's rule rebuilt under it must fail its certificate."""
    monkeypatch.setattr(oracle, "_GL_UNIT",
                        (oracle._GL_UNIT[0], np.polynomial.legendre.leggauss(3)))


@pytest.fixture
def rank_two_model():
    """Two orthogonal unit roots of multiplicity one: rho = (1/2, 1/2), whose
    minimum over the quarter-plane chamber is 1/2, on its edges."""
    roots = RootSystemSpec(rank=2, roots=(RootDatum((1.0, 0.0), 1), RootDatum((0.0, 1.0), 1)))
    return SpaceModel(n=4, rho=(0.5, 0.5), rho_norm=math.sqrt(0.5), rho_m=0.5, m_exp=-1.0,
                      A_exp=1.0, roots=roots)
