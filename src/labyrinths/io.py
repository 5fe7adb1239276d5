"""Interchange formats: versioned JSON labyrinth files, reports, SVG, CSV.

Documents and SVG numbers are written by the standard library's ``json``
encoder: a float as its shortest round-trip repr (exact, and stable across
runs, so regenerating with identical inputs writes identical bytes), a
negative zero as 0.0, and a NaN or infinity refused.
"""

from __future__ import annotations

import json
import math
import sys

import numpy as np

from .domains import boundary_samples, domain_extent, resolve_domain
from .geometry import FlatBall, disc_rim_points, disc_rows
from .shells import Labyrinth, ShellSchedule

FORMAT_VERSION = 1
# SVG drawing units per unit length
SVG_UNIT = 1000.0
# The loader holds a schedule's J x m sublevel radii in memory, with the
# radii above them, so it refuses a larger grid.
MAX_SUBLEVELS = 1_000_000
# A ball or ellipsoid domain holds a dim x dim matrix, and the search draws
# samples of dim coordinates, so the loader refuses a larger dim.
MAX_DOMAIN_ENTRIES = 1_000_000
# Largest magnitude of a component coordinate or radius: squared distances
# between such points stay finite.
MAX_COORDINATE = 1e150


class MalformedFileError(ValueError):
    """Labyrinth file failed validation; the message names the first field."""


def _write_json(doc, path: str) -> None:
    # streamed: the one-shot json.dumps keeps a string per number until it
    # joins them, about 1 MB for a 142 kB file
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, allow_nan=False)
        f.write("\n")


def _floats(x) -> list:
    """An array as nested lists of floats, each negative zero as 0.0."""
    return (np.asarray(x, dtype=float) + 0.0).tolist()


def labyrinth_to_doc(lab: Labyrinth) -> dict:
    comps = [{
        "center": _floats(fb.center),
        "normal": _floats(fb.normal),
        "radius": fb.radius,
        "level": {"j": fb.level[0], "k": fb.level[1], "p": fb.level[2]}
        if fb.level else None,
    } for fb in lab.components]
    sched = None
    if lab.schedule is not None:
        s = lab.schedule
        sched = {"s0": s.s0, "s": _floats(s.s), "m": s.m, "t": s.t, "c": s.c,
                 "a": s.a, "tangent_radii": _floats(s.tangent_radii)}
    return {
        "version": FORMAT_VERSION,
        "dim": lab.dim,
        "domain": _jsonable(lab.domain),
        "schedule": sched,
        "components": comps,
        "seed": lab.seed,
        "scale": lab.scale,
        "kind": lab.kind,
        "collar_widths": list(lab.collar_widths),
    }


def save_labyrinth(lab: Labyrinth, path: str) -> None:
    _write_json(labyrinth_to_doc(lab), path)


def _field(doc: dict, name: str, types) -> object:
    if name not in doc:
        raise MalformedFileError(f"missing field {name!r}")
    val = doc[name]
    if types is not None and not isinstance(val, types):
        raise MalformedFileError(f"field {name!r} has wrong type")
    return val


def _optional(doc: dict, name: str, valid, what: str, default) -> object:
    """doc[name], or `default` when it is absent, once `valid` accepts it;
    a value it rejects raises an error naming the field, then `what`."""
    val = doc.get(name, default)
    if not valid(val):
        raise MalformedFileError(f"field {name!r} invalid: {what}")
    return val


def _finite_number(val) -> bool:
    """A JSON number within the float range: no string, bool or NaN."""
    if isinstance(val, bool) or not isinstance(val, (int, float)):
        return False
    try:
        return math.isfinite(val)
    except OverflowError:  # an integer beyond the largest float
        return False


def _check_domain(domain: dict, dim: int) -> None:
    """Reject a domain whose fields the verifier, audit or export would
    trip over; the message names the field."""
    kind = domain.get("kind")
    if kind == "annulus":
        for name in ("inner", "outer"):
            if not _finite_number(domain.get(name)):
                raise MalformedFileError(
                    f"field 'domain.{name}' must be a finite number")
        if not 0.0 <= domain["inner"] < domain["outer"]:
            raise MalformedFileError(
                "field 'domain.outer' must exceed 'domain.inner' >= 0")
        return
    if kind == "ellipsoid":
        for name in ["matrix"] + (["to_ball"] if "to_ball" in domain else []):
            try:
                A = np.asarray(domain.get(name), dtype=float)
            except (TypeError, ValueError):
                A = None
            if A is None or A.shape != (dim, dim) \
                    or not np.all(np.isfinite(A)):
                raise MalformedFileError(
                    f"field 'domain.{name}' must be a finite "
                    f"{dim}x{dim} array")
        if "to_ball" in domain:
            # the SVG export draws through its inverse
            try:
                T = np.asarray(domain["to_ball"], dtype=float)
                ok = np.all(np.isfinite(np.linalg.inv(T)))
            except np.linalg.LinAlgError:
                ok = False
            if not ok:
                raise MalformedFileError(
                    "field 'domain.to_ball' invalid: singular matrix")
    name = "matrix" if kind == "ellipsoid" else \
        "preset" if kind == "smooth" else "kind"
    try:
        resolve_domain(domain, dim)
    except (TypeError, ValueError) as exc:
        raise MalformedFileError(
            f"field 'domain.{name}' invalid: {exc}") from exc


def doc_to_labyrinth(doc: dict) -> Labyrinth:
    if _field(doc, "version", int) != FORMAT_VERSION:
        raise MalformedFileError("field 'version' is unsupported")
    dim = _field(doc, "dim", int)
    if dim < 2:
        raise MalformedFileError("field 'dim' must be >= 2")
    comps = []
    for i, entry in enumerate(_field(doc, "components", list)):
        try:
            level = entry.get("level")
            lv = (level["j"], level["k"], level["p"]) if level else None
            fb = FlatBall(center=np.asarray(entry["center"], dtype=float),
                          normal=np.asarray(entry["normal"], dtype=float),
                          radius=float(entry["radius"]),
                          level=lv)
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise MalformedFileError(
                f"components[{i}] invalid: {exc}") from exc
        # nothing draws, audits or searches a transformed disc, so a file
        # that asks for one cannot be honoured
        if "transform" in entry:
            raise MalformedFileError(
                f"field 'components[{i}].transform' is not supported")
        if fb.center.ndim != 1 or fb.normal.shape != fb.center.shape:
            raise MalformedFileError(
                f"components[{i}] invalid: center and normal must be "
                "vectors of one length")
        if max(np.abs(fb.center).max(initial=0.0), fb.radius) > MAX_COORDINATE:
            raise MalformedFileError(
                f"components[{i}] invalid: center and radius must not exceed "
                f"{MAX_COORDINATE:g} in magnitude")
        # checked before the domain is built: a ball domain allocates dim^2
        if fb.dim != dim:
            raise MalformedFileError(
                f"field 'dim' is {dim}, but components[{i}] has "
                f"{fb.dim} coordinates")
        comps.append(fb)
    if dim * dim > MAX_DOMAIN_ENTRIES:
        raise MalformedFileError(f"field 'dim' must be at most "
                                 f"{math.isqrt(MAX_DOMAIN_ENTRIES)}")
    sched = None
    sd = doc.get("schedule")
    if sd is not None:
        try:
            s = np.asarray(sd["s"], dtype=float)
            m = int(sd["m"])
            if not 1 <= m * max(len(s), 1) <= MAX_SUBLEVELS:
                raise ValueError(f"m must be at least 1, with J*m at most "
                                 f"{MAX_SUBLEVELS}")
            sched = ShellSchedule(
                s0=float(sd["s0"]), s=s, m=m, t=float(sd["t"]),
                c=float(sd["c"]), a=float(sd["a"]),
                tangent_radii=sd["tangent_radii"])
            # a null among the radii reads as NaN, which every check passes
            if not np.all(np.isfinite(sched.sublevels)) \
                    or not np.all(np.isfinite(sched.tangent_radii)):
                raise ValueError("radii must be finite numbers")
            sched.validate()
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise MalformedFileError(f"schedule invalid: {exc}") from exc
        # below this the audit's net bounds c * r_j underflow and the
        # covering fractions over them overflow
        if sched.c < 1.0 / MAX_COORDINATE:
            raise MalformedFileError(
                f"field 'schedule.c' must be at least {1.0 / MAX_COORDINATE:g}")
    kind = str(doc.get("kind", "shell"))
    if kind == "shell" and sched is not None:
        # the audit reads each disc's sublevel off its level
        for i, fb in enumerate(comps):
            lv = fb.level
            if not (lv is not None and all(type(x) is int for x in lv)
                    and 1 <= lv[0] <= sched.J and 1 <= lv[1] <= sched.m):
                raise MalformedFileError(
                    f"field 'components[{i}].level' must be integers (j, k, p)"
                    f" with 1 <= j <= {sched.J} and 1 <= k <= {sched.m}")
    # beyond these bounds the search box overflows or the norms of its
    # samples underflow
    scale = float(_optional(
        doc, "scale", lambda v: _finite_number(v)
        and 1.0 / MAX_COORDINATE <= v <= MAX_COORDINATE,
        "the field 'scale' must be a finite normal number > 0, within "
        f"[{1.0 / MAX_COORDINATE:g}, {MAX_COORDINATE:g}]", 1.0))
    domain = _field(doc, "domain", dict)
    _check_domain(domain, dim)
    if domain.get("kind") == "ellipsoid":
        # an older file's operator norms are derived and read by nothing,
        # and its matrices may hold integers: re-saved, it writes what
        # generate writes
        domain = {name: np.asarray(val, dtype=float).tolist()
                  if name in ("matrix", "to_ball") else val
                  for name, val in domain.items()
                  if name not in ("norm_to_ball", "norm_to_domain")}
    return Labyrinth(dim=dim, domain=domain, components=comps, schedule=sched,
                     seed=_optional(doc, "seed", lambda v: type(v) is int,
                                    "must be an integer", 0),
                     scale=scale, kind=kind,
                     collar_widths=[float(w) for w in _optional(
                         doc, "collar_widths",
                         lambda ws: isinstance(ws, list)
                         and all(map(_finite_number, ws)),
                         "must be a list of numbers", [])])


def _non_finite_field(doc: dict) -> str | None:
    """Name of the first NaN or infinite number in a parsed document, or of
    an integer beyond the float range."""
    stack = [("", doc)]
    while stack:
        name, val = stack.pop()
        if isinstance(val, float) and not math.isfinite(val) \
                or type(val) is int and abs(val) > sys.float_info.max:
            return name
        if isinstance(val, dict):
            items = [(f"{name}.{k}" if name else k, v) for k, v in val.items()]
        elif isinstance(val, list):
            items = [(f"{name}[{i}]", v) for i, v in enumerate(val)]
        else:
            continue
        stack.extend(reversed(items))
    return None


def load_labyrinth(path: str) -> Labyrinth:
    with open(path, "r", encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise MalformedFileError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise MalformedFileError("top level must be an object")
    # json reads the non-standard NaN, Infinity and -Infinity tokens, and
    # overflowing literals such as 1e999, as non-finite floats; the writer
    # refuses those, so a field holding one is corrupt
    bad = _non_finite_field(doc)
    if bad is not None:
        raise MalformedFileError(f"field {bad!r} is not a finite number")
    return doc_to_labyrinth(doc)


def save_report(report: dict, path: str) -> None:
    """Write a report; a number that overflowed or is undefined (an infinite
    or NaN value, say from a file whose scale is far from its discs') is
    written as null."""
    _write_json(_jsonable(report), path)


def _jsonable(obj):
    """`obj` in the types ``json.dumps`` writes, with each negative zero as
    0.0 and each NaN or infinity as None."""
    from .verifier import EscapePath

    if isinstance(obj, EscapePath):
        return {"length": _jsonable(obj.length),
                "polyline": _jsonable(obj.polyline)}
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (float, np.floating)):
        return float(obj) + 0.0 if math.isfinite(obj) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


# ---------------------------------------------------------------------------
# figure and table export


def export_svg(lab: Labyrinth, path: str, escape_path=None,
               projection: tuple[int, int] | None = None) -> dict:
    """Draw the domain outline, faint sublevel curves, components, path.

    Components are one stroke each; the viewBox tightly bounds the domain
    scaled so the unit length is SVG_UNIT drawing units.  For dim > 2 a
    projection pair of axes must be given.  A sublevel sphere is a circle,
    except in an ellipsoid file stored in ball coordinates, where the
    sphere of radius s is s times the ellipsoid: its curve is s times the
    outline's.
    """
    if lab.dim != 2 and projection is None:
        raise ValueError("SVG export beyond the plane needs a projection pair")
    axes = list(projection if projection is not None else (0, 1))
    # an ellipsoid file stores ball coordinates; draw the domain's
    dom = lab.domain
    pulled = dom.get("kind") == "ellipsoid" and "to_ball" in dom
    M = np.linalg.inv(np.asarray(dom["to_ball"], dtype=float)) if pulled \
        else np.eye(lab.dim)

    def draw(X):
        """Drawing coordinates of the rows X: the projected domain point,
        y pointing up."""
        Y = SVG_UNIT * (np.asarray(X, dtype=float) @ M.T)[:, axes]
        Y[:, 1] *= -1.0
        return Y

    half = SVG_UNIT * _domain_bound(lab)
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'viewBox="{_num(-half)} {_num(-half)} {_num(2 * half)} {_num(2 * half)}">',
    ]
    outline = _domain_outline(lab, axes)
    lines.extend(_domain_outline_svg(lab, outline))
    if lab.schedule is not None:
        faint = 'fill="none" stroke="#dddddd" stroke-width="1"'
        for s_jk in lab.schedule.sublevels.ravel():
            r = SVG_UNIT * lab.scale * s_jk
            if pulled:
                pts = _points(r * outline * [1.0, -1.0])
                lines.append(f'<polygon points="{pts}" {faint}/>')
            else:
                lines.append(f'<circle cx="0" cy="0" r="{_num(r)}" {faint}/>')
    if lab.components and lab.dim == 2:
        C, N, R = disc_rows(lab.components)
        U = R[:, None] * np.column_stack([-N[:, 1], N[:, 0]])
        for a, b in zip(draw(C - U), draw(C + U)):
            lines.append(
                f'<line x1="{_num(a[0])}" y1="{_num(a[1])}" '
                f'x2="{_num(b[0])}" y2="{_num(b[1])}" stroke="#000000" '
                f'stroke-width="3" stroke-linecap="round" class="component"/>')
    elif lab.components:
        rims = disc_rim_points(*disc_rows(lab.components), 32)
        for rim in draw(rims.reshape(-1, lab.dim)).reshape(len(rims), -1, 2):
            lines.append(f'<polygon points="{_points(rim)}" fill="none" '
                         f'stroke="#000000" stroke-width="2" class="component"/>')
    if escape_path is not None:
        poly = escape_path.polyline if hasattr(escape_path, "polyline") \
            else escape_path
        lines.append(f'<polyline points="{_points(draw(poly))}" fill="none" '
                     f'stroke="#cc0000" stroke-width="2"/>')
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")
    return {"strokes": len(lab.components), "viewbox_half": half}


def _num(x) -> str:
    return json.dumps(float(x) + 0.0, allow_nan=False)


def _points(P) -> str:
    return " ".join(f"{_num(x)},{_num(y)}" for x, y in P)


def _domain_bound(lab: Labyrinth) -> float:
    kind = lab.domain.get("kind")
    if kind == "annulus":
        return float(lab.domain["outer"])
    if kind in ("ellipsoid", "smooth"):
        return domain_extent(resolve_domain(lab.domain, lab.dim))
    return max(1.0, lab.scale)


def _domain_outline(lab: Labyrinth, axes: list[int]) -> np.ndarray | None:
    """Boundary points of the domain's shadow on the axes, for an
    ellipsoid or smooth domain; None for the round ones."""
    dom = lab.domain
    kind = dom.get("kind")
    if kind == "ellipsoid":
        # the shadow of {x : x'Ax <= 1} on the axes is the ellipse with
        # boundary S^1/2 (cos, sin), S the axes' block of A^-1
        S = np.linalg.inv(np.asarray(dom["matrix"], dtype=float))
        w, V = np.linalg.eigh(S[np.ix_(axes, axes)])
        theta = 2.0 * np.pi * np.arange(256) / 256
        return np.column_stack([np.cos(theta), np.sin(theta)]) \
            @ (V * np.sqrt(w)) @ V.T
    if kind == "smooth":  # the presets are planar
        return boundary_samples(resolve_domain(dom, lab.dim), 256)[:, axes]
    return None


def _domain_outline_svg(lab: Labyrinth,
                        outline: np.ndarray | None) -> list[str]:
    dom = lab.domain
    kind = dom.get("kind")
    style = 'fill="none" stroke="#555555" stroke-width="2"'
    if kind == "annulus":
        return [
            f'<circle cx="0" cy="0" r="{_num(SVG_UNIT * dom["inner"])}" {style}/>',
            f'<circle cx="0" cy="0" r="{_num(SVG_UNIT * dom["outer"])}" {style}/>',
        ]
    if kind == "ball":
        return [f'<circle cx="0" cy="0" r="{_num(SVG_UNIT * max(1.0, lab.scale))}" {style}/>']
    if outline is None:
        return []
    return [f'<polygon points="{_points(SVG_UNIT * outline * [1.0, -1.0])}" {style}/>']


def export_csv(lab: Labyrinth, path: str) -> int:
    """One component per row; returns the number of data rows."""
    dim = lab.dim
    header = (["j", "k", "p", "radius"]
              + [f"center_{i}" for i in range(dim)]
              + [f"normal_{i}" for i in range(dim)])
    rows = [",".join(header)]
    for fb in lab.components:
        j, k, p = fb.level if fb.level else (0, 0, 0)
        vals = [str(j), str(k), str(p), format(fb.radius, ".17g")]
        vals += [format(v, ".17g") for v in fb.center]
        vals += [format(v, ".17g") for v in fb.normal]
        rows.append(",".join(vals))
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(rows) + "\n")
    return len(lab.components)
