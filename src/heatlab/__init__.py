"""heatlab: numerical verification of heat-kernel derivative bounds on
hyperbolic spaces and their discrete quotients, against exact oracles."""

__version__ = "0.1.0"

from .rootspace import (  # noqa: F401
    AlphaTriple,
    RootDatum,
    RootSystemSpec,
    SpaceModel,
    admissible_alpha_triple,
    build_real_hyperbolic,
    s_p,
)
