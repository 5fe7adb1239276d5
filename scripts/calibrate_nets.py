#!/usr/bin/env python3
"""Net calibration sweep: sizes, class counts and covering across scales.

Useful when changing the candidate generator or the colouring policy: the
class count must come out identical across the separation ladder.  Exits 1
when it does not (UNSTABLE) for some dimension, else 0.  All scales of one
dimension and seed share one farthest-point sweep through the net cache.
"""

import argparse
import sys
import time

from labyrinths.nets import (
    build_separated_families,
    covering_radius,
    sampling_slack,
)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--dims", default="2,3")
    ap.add_argument("--separations", default="0.1,0.2,0.4")
    ap.add_argument("--c", type=float, default=0.45)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--samples", type=int, default=100_000)
    args = ap.parse_args()

    stable = True
    for d in (int(v) for v in args.dims.split(",")):
        counts = []
        for r in (float(v) for v in args.separations.split(",")):
            t0 = time.time()
            net = build_separated_families(d, r, args.c, seed=args.seed)
            cov = covering_radius(net.points, d, args.samples, seed=1)
            slack = sampling_slack(d, args.samples)
            counts.append(net.m)
            print(f"d={d} r={r}: {net.size} points in {net.m} classes, "
                  f"covering {cov:.4f} <= {args.c * r:.4f} + {slack:.4f} "
                  f"({time.time() - t0:.1f}s)")
        stable &= len(set(counts)) == 1
        status = "stable" if len(set(counts)) == 1 else "UNSTABLE"
        print(f"d={d}: class count across scales {counts} [{status}]")
    return 0 if stable else 1


if __name__ == "__main__":
    sys.exit(main())
