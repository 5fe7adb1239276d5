"""Output checks that do not trust the library: plain numpy on the files.

A certified escape path must start on the source sphere, end on the target
sphere, carry its own polyline length, touch no disc, and be no shorter
than the radial gap between the spheres.  The touch test is exact at
clearance 0: a segment meets a flat disc iff it crosses the disc's
hyperplane at a point within the radius, or lies in that hyperplane within
the radius of the centre.  None of the library's predicates are used.
"""

from __future__ import annotations

import numpy as np

ENDPOINT_TOL = 1e-9
# any path between spheres of radii a < b is at least b - a long; the slack
# only absorbs the rounding of a stored radial path
GAP_TOL = 1e-12


def touching_segments(poly: np.ndarray, centers: np.ndarray,
                      normals: np.ndarray, radii: np.ndarray) -> np.ndarray:
    """(segment, disc) index pairs where the segment touches the disc."""
    A = poly[:-1, None, :]
    B = poly[1:, None, :]
    C = centers[None, :, :]
    N = normals[None, :, :]
    ha = np.einsum("skd,skd->sk", A - C, N)
    hb = np.einsum("skd,skd->sk", B - C, N)
    coplanar = (ha == 0.0) & (hb == 0.0)
    crossing = (np.sign(ha) * np.sign(hb) <= 0.0) & ~coplanar
    t = np.divide(ha, ha - hb, out=np.zeros_like(ha), where=crossing)
    Q = A + t[..., None] * (B - A)
    through = crossing & (np.linalg.norm(Q - C, axis=-1) <= radii[None, :])
    AB = B - A
    u = np.clip(np.einsum("skd,skd->sk", C - A, AB)
                / np.einsum("skd,skd->sk", AB, AB), 0.0, 1.0)
    nearest = np.linalg.norm(A + u[..., None] * AB - C, axis=-1)
    inplane = coplanar & (nearest <= radii[None, :])
    return np.argwhere(through | inplane)


def escape_path_problems(report: dict, lab_doc: dict) -> list[str]:
    """Problems with the best path of a ``verify`` report; empty when sound."""
    inner = float(lab_doc["domain"]["inner"])
    outer = float(lab_doc["domain"]["outer"])
    best = report["verification"]["best_path"]
    if best is None:
        return ["no certified path"]
    poly = np.asarray(best["polyline"], dtype=float)
    problems = []
    if len(poly) < 2:
        return [f"polyline has {len(poly)} points"]
    r0, r1 = np.linalg.norm(poly[0]), np.linalg.norm(poly[-1])
    if abs(r0 - inner) > ENDPOINT_TOL:
        problems.append(f"start radius {r0!r} is off the source sphere {inner}")
    if abs(r1 - outer) > ENDPOINT_TOL:
        problems.append(f"end radius {r1!r} is off the target sphere {outer}")
    length = float(np.linalg.norm(np.diff(poly, axis=0), axis=1).sum())
    stored = float(best["length"])
    if abs(length - stored) > 1e-12 * max(1.0, length):
        problems.append(f"stored length {stored!r} != polyline length {length!r}")
    if report["verification"]["best_length"] != stored:
        problems.append("best_length differs from the best path's length")
    if stored < outer - inner - GAP_TOL:
        problems.append(f"length {stored!r} below the radial gap {outer - inner}")
    comps = lab_doc["components"]
    hits = touching_segments(poly,
                             np.array([c["center"] for c in comps], float),
                             np.array([c["normal"] for c in comps], float),
                             np.array([c["radius"] for c in comps], float))
    if len(hits):
        seg, disc = hits[0]
        problems.append(f"{len(hits)} segment/disc contacts, first: segment "
                        f"{seg} touches component {disc}")
    return problems
