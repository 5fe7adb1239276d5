#!/usr/bin/env python3
"""Net calibration sweep: sizes, class counts and covering across scales.

Useful when changing the candidate generator or the colouring policy: at
every separation r of every dimension, each class must be r-separated
(exactly, no tolerance) and the union's exact covering radius must be at
most c*r plus the candidate resolution the net was built at, the bound
`greedy_net` guarantees.  Exits 1 when some net fails
either (FAIL), else 0.  The class count each scale's colouring needs is
printed; it may differ between scales.  All scales of one dimension and
seed share one farthest-point sweep through the net cache.
"""

import argparse
import sys
import time

import numpy as np
from scipy.spatial import cKDTree

from labyrinths.nets import (
    build_separated_families,
    candidate_resolution,
    covering_radius,
)


def min_separation(cls: np.ndarray) -> float:
    """Smallest distance between two points of a class (inf for one)."""
    if len(cls) < 2:
        return np.inf
    dd, _ = cKDTree(cls).query(cls, k=2)
    return float(dd[:, 1].min())


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", default="2,3")
    ap.add_argument("--separations", default="0.1,0.2,0.4")
    ap.add_argument("--c", type=float, default=0.45)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    ok = True
    for d in (int(v) for v in args.dims.split(",")):
        counts = []
        for r in (float(v) for v in args.separations.split(",")):
            t0 = time.time()
            net = build_separated_families(d, r, args.c, seed=args.seed)
            sep = min(min_separation(cls) for cls in net.classes)
            cov = covering_radius(net.points, d)
            slack = candidate_resolution(d, args.c * r)
            good = sep >= r and cov <= args.c * r + slack
            ok &= good
            counts.append(net.m)
            print(f"d={d} r={r}: {net.size} points in {net.m} classes, "
                  f"separation {sep:.4f} >= {r:.4f}, "
                  f"covering {cov:.4f} <= {args.c * r:.4f} + {slack:.2g} "
                  f"[{'ok' if good else 'FAIL'}] ({time.time() - t0:.1f}s)")
        print(f"d={d}: class counts across scales {counts}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
