"""Construction defaults shared by the shell, patch and search modules."""

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
