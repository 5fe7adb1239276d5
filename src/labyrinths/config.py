"""Shared numerical tolerances and construction defaults.

Everything downstream reads its tolerances from here so the whole package
runs under one numerical discipline.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Package-wide numeric policy.

    lp_margin_floor: smallest hyperplane separation margin we are willing
        to certify as a success.
    unit_norm: allowed deviation of stored unit vectors from norm one.
    """

    lp_margin_floor: float = 1e-6
    unit_norm: float = 1e-12


TOL = Tolerances()

# Defaults for the shell construction.  The covering fraction c must stay
# strictly below 1/2 and the slack factor t strictly above 1, with t*c < 1/2;
# the defaults give t*c = 0.4725.
DEFAULT_C = 0.45
DEFAULT_T = 1.05

# Strictness factor applied to the tangent radius constant so that the
# "disc misses the next sublevel sphere" property survives floating point.
RADIUS_SAFETY = 0.9

# Offset at which roadmap nodes hug component rims.
RIM_STEP = 1e-3
