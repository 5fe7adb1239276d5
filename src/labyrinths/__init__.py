"""Labyrinths of flat tangent discs in convex domains, plus an escape auditor.

Construction: concentric shells of sublevel spheres inside the unit ball
(or an annulus), each carrying one class of a separated sphere family as
tangent discs; ellipsoids by exact linear normalisation; smooth strictly
convex planar domains by local osculating charts under a patch-cover
schedule.  Verification: structural audits plus a roadmap search for short
escape paths, reported as explicit upper bounds.
"""

from .geometry import FlatBall, Hyperplane, separating_hyperplane
from .nets import (
    SeparatedNet,
    build_separated_families,
    color_net,
    covering_radius,
    greedy_net,
)
from .shells import (
    ExhaustionPlan,
    Labyrinth,
    ShellSchedule,
    annulus_labyrinth,
    build_labyrinth,
    compute_tangent_radius_constant,
    exhaustion_labyrinth,
    make_schedule,
    truncate,
)
from .verifier import (
    EffortBudget,
    EscapePath,
    Roadmap,
    audit_labyrinth,
    build_roadmap,
    min_escape_length,
    shortcut,
    shortest_escape,
)

__all__ = [
    "FlatBall",
    "Hyperplane",
    "separating_hyperplane",
    "SeparatedNet",
    "build_separated_families",
    "color_net",
    "covering_radius",
    "greedy_net",
    "ExhaustionPlan",
    "Labyrinth",
    "ShellSchedule",
    "annulus_labyrinth",
    "build_labyrinth",
    "compute_tangent_radius_constant",
    "exhaustion_labyrinth",
    "make_schedule",
    "truncate",
    "EffortBudget",
    "EscapePath",
    "Roadmap",
    "audit_labyrinth",
    "build_roadmap",
    "min_escape_length",
    "shortcut",
    "shortest_escape",
]
