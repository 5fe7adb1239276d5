#!/usr/bin/env python3
"""Patch-cover labyrinth on a smooth preset: cover, schedule, collar stacking.

Prints the cover gap, schedule arithmetic and collar evolution, then saves
the assembled labyrinth with an SVG.
"""

import argparse
import time

from labyrinths.domains import (
    PRESETS,
    assemble_patch_labyrinth,
    measure_delta,
    patch_cover,
    patch_schedule,
)
from labyrinths.io import export_svg, save_labyrinth
from labyrinths.verifier import audit_labyrinth


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--preset", default="ellipse", choices=sorted(PRESETS))
    ap.add_argument("--M", type=float, default=1.0)
    ap.add_argument("--patch-radius", type=float, default=0.9)
    ap.add_argument("--eta", type=float, default=0.08)
    ap.add_argument("--prefix", default="patches")
    args = ap.parse_args()

    dom = PRESETS[args.preset]()
    t0 = time.time()
    cover = patch_cover(dom, args.patch_radius, args.eta)
    d10 = measure_delta(cover, 10)
    n = len(patch_schedule(cover, args.M)) // cover.k
    print(f"cover: {cover.k} patches, radius {cover.radius:.3f}, "
          f"delta {cover.delta:.4f} (10x remeasure {d10:.4f})")
    print(f"schedule: every patch {n} times ({n} * delta = "
          f"{n * cover.delta:.3f} > M = {args.M})")
    lab = assemble_patch_labyrinth(dom, cover, args.M)
    w = lab.collar_widths
    print(f"assembled {len(lab)} discs over {len(w)} steps; collar "
          f"{w[0]:.4f} -> {w[-1]:.2e}, strictly decreasing: "
          f"{all(a > b for a, b in zip(w, w[1:]))}")
    audit = audit_labyrinth(lab)
    print(f"audit: {'pass' if audit['passed'] else 'FAIL'}")
    save_labyrinth(lab, f"{args.prefix}.json")
    export_svg(lab, f"{args.prefix}.svg")
    print(f"saved {args.prefix}.json / {args.prefix}.svg "
          f"({time.time() - t0:.0f}s)")


if __name__ == "__main__":
    main()
