"""Concentric-shell labyrinths of flat tangent discs inside the unit ball.

Each shell j of the schedule occupies the spherical band (s_{j-1}, s_j) and
hosts one separated family: class k is scaled onto the sublevel sphere of
radius s_{j,k} and every class point receives the disc tangent to that
sphere at the point, with the shell's tangent radius.  The tangent radius
constant is sized so a disc never reaches the next sublevel sphere, which
stacks the discs into radially disjoint layers.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
from scipy.spatial import cKDTree

from .config import DEFAULT_C, DEFAULT_T, RADIUS_SAFETY
from .geometry import FlatBall
from .nets import SeparatedNet, build_separated_families

# sublevels per shell of the exhaustion's annulus labyrinths, and the most
# shells one of them may grow to
ANNULUS_SUBLEVELS = 2
SHELL_CAP = 32
# schedule passes build_labyrinth makes while the nets raise the class count
REBUILD_ROUNDS = 4


class DegenerateScheduleError(ValueError):
    """Sublevel radii fail to increase strictly."""


class ShellBudgetError(RuntimeError):
    """Shell growth, or the class count's rebuilds, hit a cap."""


class IntegrityError(RuntimeError):
    """Construction invariant violated; indicates a bug, not bad input."""


def check_constants(s0: float, t: float, c: float) -> None:
    """The construction constants: 0 < s0 < 1, t > 1, 0 < c < 1/2, t*c < 1/2.

    Written so a NaN fails every rule it enters.
    """
    if not 0.0 < s0 < 1.0:
        raise ValueError("s0 must lie in (0, 1)")
    if not t > 1.0:
        raise ValueError("slack factor t must exceed 1")
    if not 0.0 < c < 0.5:
        raise ValueError("covering fraction c must lie in (0, 1/2)")
    if not t * c < 0.5:
        raise ValueError("t*c < 1/2 is required")


def _sublevel_grid(s0: float, s: np.ndarray, m: int):
    """s_{j,k} = s_{j-1} + k (s_j - s_{j-1})/(m+1) as a (J, m) array, and
    beside it s_{j,k+1} with the convention s_{j,m+1} = s_j."""
    lower = np.concatenate([[s0], s[:-1]])
    ks = np.arange(1, m + 1)
    # radii near the float limit give inf, which the callers reject
    with np.errstate(over="ignore"):
        sublevels = lower[:, None] + ks[None, :] * (s - lower)[:, None] / (m + 1)
    above = np.concatenate([sublevels[:, 1:], s[:, None]], axis=1)
    return sublevels, above


@dataclass(eq=False)
class ShellSchedule:
    """Radii and constants of the shell construction.

    s0: innermost radius; s: shell radii s_1 < ... < s_J < 1;
    m: sublevels (= net classes) per shell; t: slack factor > 1;
    c: covering fraction with t*c < 1/2; a: tangent radius constant;
    tangent_radii: r_j per shell.  Derived from (s0, s, m):
    sublevels[j-1, k-1] = s_{j,k} and above[j-1, k-1] = s_{j,k+1}.
    """

    s0: float
    s: np.ndarray
    m: int
    t: float
    c: float
    a: float = 0.0
    tangent_radii: np.ndarray = field(default_factory=lambda: np.empty(0))
    sublevels: np.ndarray = field(init=False)
    above: np.ndarray = field(init=False)

    def __post_init__(self):
        self.s = np.asarray(self.s, dtype=float)
        if self.s.ndim != 1:
            raise ValueError("shell radii must be a list of numbers")
        self.tangent_radii = np.asarray(self.tangent_radii, dtype=float)
        self.sublevels, self.above = _sublevel_grid(self.s0, self.s, self.m)

    @property
    def J(self) -> int:
        return len(self.s)

    def radius_below(self, j: int) -> float:
        """s_{j-1}: the sphere just below shell j (s_0 for j = 1)."""
        return self.s0 if j == 1 else float(self.s[j - 2])

    def gaps(self) -> np.ndarray:
        """Shell widths s_j - s_{j-1}."""
        lower = np.concatenate([[self.s0], self.s[:-1]])
        return self.s - lower

    def validate(self) -> None:
        check_constants(self.s0, self.t, self.c)
        if self.m < 1:
            raise ValueError("need at least one sublevel per shell")
        radii = np.concatenate([[self.s0], self.s])
        if np.any(np.diff(radii) <= 0.0) or radii[-1] >= 1.0:
            raise ValueError("shell radii must increase strictly and stay below 1")
        if self.tangent_radii.shape != (self.J,):
            raise ValueError("need one tangent radius per shell")
        # a huge radius squares to inf, which still reaches: no warning
        with np.errstate(over="ignore"):
            reach = (self.sublevels ** 2 + self.tangent_radii[:, None] ** 2
                     >= self.above ** 2)
        if reach.any():
            j, k = np.argwhere(reach)[0] + 1
            raise ValueError(f"tangent disc at shell {j} sublevel {k} reaches "
                             "the next sublevel sphere")


def compute_tangent_radius_constant(s0: float, s: np.ndarray, m: int) -> float:
    """Largest safe tangent radius constant for the given radii.

    A disc tangent at radius s_{j,k} with radius rho has points of norm up
    to sqrt(s_{j,k}^2 + rho^2); keeping that below s_{j,k+1} for every j, k
    bounds the constant by min sqrt((s_{j,k+1}^2 - s_{j,k}^2)/(s_j-s_{j-1})),
    which is then shrunk by the safety factor so strictness survives
    floating point.
    """
    s = np.asarray(s, dtype=float)
    sublevels, above = _sublevel_grid(s0, s, m)
    if np.any(above <= sublevels):
        raise DegenerateScheduleError("sublevel radii are not increasing")
    gaps = s - np.concatenate([[s0], s[:-1]])
    worst = np.min((above ** 2 - sublevels ** 2) / gaps[:, None], initial=np.inf)
    return RADIUS_SAFETY * float(np.sqrt(worst))


def schedule_from_radii(s0: float, s, m: int, t: float = DEFAULT_T,
                        c: float = DEFAULT_C) -> ShellSchedule:
    """Schedule with explicit shell radii; computes a and r_j."""
    sched = ShellSchedule(s0=float(s0), s=s, m=int(m), t=float(t), c=float(c))
    sched.a = compute_tangent_radius_constant(sched.s0, sched.s, sched.m)
    sched.tangent_radii = sched.a * np.sqrt(sched.gaps())
    sched.validate()
    return sched


def make_schedule(s0: float, J: int, m: int, t: float = DEFAULT_T,
                  c: float = DEFAULT_C) -> ShellSchedule:
    """Default schedule s_j = 1 - (1 - s0)/(j + 1), j = 1..J.

    The shell widths are (1-s0)/(j(j+1)), so the partial sums of their
    square roots diverge like sqrt(1-s0) * log J, which is what makes long
    schedules force unbounded escape length.
    """
    check_constants(s0, t, c)
    if J < 1:
        raise ValueError("need at least one shell")
    j = np.arange(1, J + 1)
    return schedule_from_radii(s0, 1.0 - (1.0 - s0) / (j + 1), m, t, c)


def sqrt_gap_partial_sums(schedule: ShellSchedule) -> np.ndarray:
    """Cumulative sums of sqrt(s_j - s_{j-1})."""
    return np.cumsum(np.sqrt(schedule.gaps()))


@dataclass(eq=False)
class Labyrinth:
    """Ordered union of flat tangent discs with its construction record.

    Components are listed in lexicographic (shell, sublevel, point) order;
    `scale` maps the unit-ball construction onto the actual domain (annulus
    labyrinths are built in ball coordinates and scaled outward).
    """

    dim: int
    domain: dict
    components: list[FlatBall]
    schedule: ShellSchedule | None = None
    nets: list[SeparatedNet] = field(default_factory=list)
    seed: int = 0
    scale: float = 1.0
    kind: str = "shell"
    collar_widths: list[float] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.components)

    @property
    def is_empty(self) -> bool:
        return len(self.components) == 0


def empty_labyrinth(dim: int, domain: dict | None = None) -> Labyrinth:
    return Labyrinth(dim=dim, domain=domain or {"kind": "ball"}, components=[])


def shell_net_separation(schedule: ShellSchedule, j: int) -> float:
    """Unit-sphere separation requested from the shell-j family.

    2 t r_j divided by the shell's inner radius, so that after scaling the
    class onto any sublevel sphere of the shell the centre distances are
    still at least 2 t r_j.  (At placement radii near 1 this reduces to the
    plain 2 t r_j rule.)
    """
    r_j = float(schedule.tangent_radii[j - 1])
    return 2.0 * schedule.t * r_j / schedule.radius_below(j)


def _shell_net(schedule: ShellSchedule, j: int, dim: int,
               seed: int) -> SeparatedNet:
    return build_separated_families(dim, shell_net_separation(schedule, j),
                                    schedule.c, seed=seed, target_m=schedule.m)


def shell_discs(schedule: ShellSchedule, j: int, dim: int, seed: int = 0,
                net: SeparatedNet | None = None):
    """Discs of shell j as rows: class k tangent to the sublevel-k sphere.

    Returns (centres, normals, radius, levels, net): the disc of class point
    `direction` on sublevel k has centre s_{j,k}*direction, normal
    `direction` and the shell's tangent radius r_j, and levels holds its
    (j, k, p) tag by class and position in the class.  `net` is the shell's
    net if already built.  Every class is placed: a net with more classes
    than the schedule's m raises :class:`IntegrityError`.
    """
    if not (1 <= j <= schedule.J):
        raise ValueError(f"shell index {j} outside 1..{schedule.J}")
    net = _shell_net(schedule, j, dim, seed) if net is None else net
    if net.m > schedule.m:
        raise IntegrityError(f"shell {j}: its net has {net.m} classes, more "
                             f"than the schedule's m = {schedule.m}")
    sizes = [len(cls) for cls in net.classes]
    normals = np.vstack(net.classes)
    k = np.repeat(np.arange(1, net.m + 1), sizes)
    p = np.concatenate([np.arange(n) for n in sizes])
    levels = np.column_stack([np.full(len(k), j), k, p])
    s_jk = schedule.sublevels[j - 1, k - 1]
    r_j = float(schedule.tangent_radii[j - 1])
    return s_jk[:, None] * normals, normals, r_j, levels, net


def schedule_discs(schedule: ShellSchedule, dim: int, seed: int = 0):
    """(schedule, shells): the schedule with the class count m its nets
    need, and each shell's :func:`shell_discs` rows on it, in shell order.

    While some shell's colouring needs more classes than the schedule has
    sublevels, the schedule is rebuilt with that m, at most REBUILD_ROUNDS
    times (then :class:`ShellBudgetError`).  Nets are built finest first,
    so in d >= 3 the first runs the one sweep and the coarser ones are cut
    from it (:mod:`labyrinths.nets`; planar nets need no sweep).
    """
    js = range(1, schedule.J + 1)
    for _ in range(REBUILD_ROUNDS):
        nets = {j: _shell_net(schedule, j, dim, seed) for j in
                sorted(js, key=lambda j: shell_net_separation(schedule, j))}
        needed = max([schedule.m] + [net.m for net in nets.values()])
        if needed == schedule.m:
            shells = [shell_discs(schedule, j, dim, seed, nets[j]) for j in js]
            _integrity_check(schedule, shells)
            return schedule, shells
        schedule = schedule_from_radii(schedule.s0, schedule.s, needed,
                                       schedule.t, schedule.c)
    raise ShellBudgetError(
        f"class count still growing after {REBUILD_ROUNDS} rebuilds; "
        f"set --m to at least {schedule.m}, or raise --c")


def _integrity_check(schedule: ShellSchedule, shells: list) -> None:
    """Bug trap: same-sublevel centres at least 2 t r_j apart, which puts
    the perpendicular bisector strictly between any two same-sublevel discs
    (the sublevel stacking that keeps the other pairs apart is part of
    schedule validation).  Failure means a construction bug, not bad input.
    """
    for j, (centers, _, r_j, levels, _) in enumerate(shells, start=1):
        for k in np.unique(levels[:, 1]):
            arr = centers[levels[:, 1] == k]
            # a lone centre has no neighbour: its distance comes back inf
            dd, _ = cKDTree(arr).query(arr, k=2)
            if dd[:, 1].min() < 2.0 * schedule.t * r_j * (1.0 - 1e-9):
                raise IntegrityError(
                    f"same-sublevel centres at shell {j} closer than 2*t*r_j")


def build_labyrinth(schedule: ShellSchedule | None, dim: int, seed: int = 0,
                    domain: dict | None = None, scale: float = 1.0) -> Labyrinth:
    """All shells of the schedule, concatenated in lexicographic order.

    Discs and class count come from :func:`schedule_discs`, which patch
    steps share; the labyrinth keeps the schedule with the nets' m.
    """
    domain = domain or {"kind": "ball"}
    if schedule is None or schedule.J == 0:
        return empty_labyrinth(dim, domain)
    schedule, shells = schedule_discs(schedule, dim, seed)
    # scaled rows are the products a scaled copy of each disc would hold
    components = [FlatBall(center=c, normal=n, radius=scale * r_j,
                           level=tuple(lv))
                  for centers, normals, r_j, levels, _ in shells
                  for c, n, lv in zip(scale * centers, normals,
                                      levels.tolist())]
    return Labyrinth(dim=dim, domain=domain, components=components,
                     schedule=schedule, nets=[sh[4] for sh in shells],
                     seed=seed, scale=scale)


def truncate(lab: Labyrinth, J_lo: int, J_hi: int) -> tuple[Labyrinth, float]:
    """Keep shells J_lo..J_hi; also return the inner clearance radius.

    Every kept component lies strictly outside the ball of the returned
    radius (scale times s_{J_lo - 1}), which is what makes the truncated
    labyrinth separable from any compact set inside it.
    """
    if lab.schedule is None:
        raise ValueError("cannot truncate a labyrinth without a schedule")
    if not (1 <= J_lo <= J_hi <= lab.schedule.J):
        raise ValueError("truncation range must satisfy 1 <= J_lo <= J_hi <= J")
    old = lab.schedule
    # shell j of the parent is shell j - J_lo + 1 of the kept schedule
    kept = [replace(fb, level=(fb.level[0] - J_lo + 1, *fb.level[1:]))
            for fb in lab.components if J_lo <= fb.level[0] <= J_hi]
    # the kept discs were built with the parent's tangent radii
    sched = ShellSchedule(s0=old.radius_below(J_lo), s=old.s[J_lo - 1:J_hi],
                          m=old.m, t=old.t, c=old.c, a=old.a,
                          tangent_radii=old.tangent_radii[J_lo - 1:J_hi])
    sched.validate()
    new = Labyrinth(dim=lab.dim, domain=dict(lab.domain), components=kept,
                    schedule=sched, nets=lab.nets[J_lo - 1:J_hi],
                    seed=lab.seed, scale=lab.scale, kind=lab.kind)
    clearance = lab.scale * sched.s0
    return new, clearance


@dataclass(eq=False)
class ExhaustionPlan:
    """Exhaustion radii rho_1 < ... < rho_n < ... and per-annulus budgets."""

    rho: np.ndarray
    budgets: np.ndarray

    def __post_init__(self):
        self.rho = np.asarray(self.rho, dtype=float)
        self.budgets = np.asarray(self.budgets, dtype=float)
        if np.any(np.diff(self.rho) <= 0.0) or self.rho[-1] > 1.0 or self.rho[0] <= 0.0:
            raise ValueError("exhaustion radii must increase strictly within (0, 1]")
        if len(self.budgets) != len(self.rho) - 1:
            raise ValueError("need one budget per consecutive annulus")
        if np.any(self.budgets < 0.0):
            raise ValueError("budgets must be nonnegative")


def annulus_labyrinth(rho_in: float, rho_out: float, J: int, m: int = 2,
                      dim: int = 2, t: float = DEFAULT_T, c: float = DEFAULT_C,
                      seed: int = 0) -> Labyrinth:
    """Shell labyrinth filling the open annulus rho_in < |x| < rho_out.

    Built in unit-ball coordinates with s0 = rho_in/rho_out and scaled by
    rho_out, so every tangent disc stays tangent to its (scaled) sphere.
    Annuli get equal-width shells: inside a fixed band that spreads the
    forced detours evenly and keeps every inter-sublevel corridor at the
    same, samplable width (a harmonic schedule would shrink the outer
    corridors below any fixed search resolution).
    """
    s0 = rho_in / rho_out
    j = np.arange(1, J + 1)
    sched = schedule_from_radii(s0, s0 + j * (1.0 - s0) / (J + 1), m, t, c)
    domain = {"kind": "annulus", "inner": float(rho_in), "outer": float(rho_out)}
    return build_labyrinth(sched, dim, seed=seed, domain=domain, scale=rho_out)


def exhaustion_labyrinth(plan: ExhaustionPlan, dim: int = 2,
                         t: float = DEFAULT_T, c: float = DEFAULT_C,
                         seed: int = 0, effort=None,
                         search_effort=None) -> list[dict]:
    """One labyrinth per annulus, the shortest escape found above its budget.

    Verifier-in-the-loop replaces the non-constructive "large enough" shell
    count: a cheap probe search estimates the forced escape length, the
    shell count grows by quadratic extrapolation (a heuristic: that the
    forced length scales like sqrt(J) for equal-width shells is unproven,
    see ROADMAP items 3, 4 and 6), and a candidate stands only when the
    full-effort search actually finds a shortest escape path measuring
    above the budget.  A disconnected roadmap (no path found at all) is
    recorded in the history but never accepted as success, since it says
    nothing about path lengths.  Raises :class:`ShellBudgetError`, naming
    the best length achieved, if SHELL_CAP is hit.  Returns a list of
    {labyrinth, report, budget, shells, search_history} records.
    """
    from .verifier import EffortBudget, min_escape_length

    plan.__post_init__()
    effort = effort or EffortBudget.default(dim)
    search_effort = search_effort or EffortBudget.probe(dim)
    results = []
    for i in range(len(plan.rho) - 1):
        rho_in, rho_out = float(plan.rho[i]), float(plan.rho[i + 1])
        budget = float(plan.budgets[i])
        source = {"kind": "sphere", "radius": rho_in}
        target = {"kind": "sphere", "radius": rho_out}
        J = 1
        tried: list[dict] = []
        best_report = None
        while True:
            lab = annulus_labyrinth(rho_in, rho_out, J, ANNULUS_SUBLEVELS, dim,
                                    t, c, seed)
            probe = min_escape_length(lab, source, target, search_effort)
            found = probe["best_length"]
            tried.append({"shells": J, "probe_length": found})
            if found is None or found > budget:
                report = min_escape_length(lab, source, target, effort)
                tried[-1]["confirmed_length"] = report["best_length"]
                # only a path actually found and measured above the budget
                # stops the loop; an unreachable roadmap (None) is recorded
                # but never accepted as evidence
                if report["best_length"] is not None \
                        and report["best_length"] > budget:
                    best_report = report
                    break
                found = report["best_length"]
            if J >= SHELL_CAP:
                best = max((r.get("confirmed_length") or r["probe_length"] or 0.0
                            for r in tried), default=None)
                raise ShellBudgetError(
                    f"annulus ({rho_in}, {rho_out}): shell cap {SHELL_CAP} "
                    f"reached with best escape length {best} <= budget {budget}")
            if found is not None and found > 0.0:
                guess = int(np.ceil(J * (budget / found) ** 2 * 1.1))
            else:
                guess = J + max(3, J // 2)
            J = int(np.clip(guess, J + 1, min(SHELL_CAP, max(J + 3, 2 * J))))
        results.append({"labyrinth": lab, "report": best_report,
                        "budget": budget, "shells": J,
                        "search_history": tried})
    return results
