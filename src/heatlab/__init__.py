"""heatlab: numerical verification of heat-kernel derivative bounds on
hyperbolic spaces and their discrete quotients, against exact oracles."""

__version__ = "0.1.0"
