"""Sharp volume and section bounds for convex bodies cut by hyperplanes.

The package computes the sharp constants bounding (a) the volume fraction
a hyperplane at relative height alpha cuts off a centered convex body and
(b) the section at that hyperplane against the maximal parallel section;
constructs the cone families attaining them; and verifies the bounds on
arbitrary bodies with exact slicing plus an independent Monte Carlo
oracle.
"""

from . import constants, extremal, measure, oracle, verify
from .bodies import (
    AnalyticProfile,
    CutSpec,
    Direction,
    Polytope,
    SlabProfile,
    dilate,
    translate,
    unit_ball_volume,
    validate,
)

__all__ = [
    "AnalyticProfile",
    "CutSpec",
    "Direction",
    "Polytope",
    "SlabProfile",
    "constants",
    "dilate",
    "extremal",
    "measure",
    "oracle",
    "translate",
    "unit_ball_volume",
    "validate",
    "verify",
]

__version__ = "0.1.0"
