#!/usr/bin/env python3
"""Reproduce the two-arc-norm counterexample: four points in B(a,1) cap
B(b,1.1) that admit no split with diameters (1.1, 1), and render the scene.

Usage: python scripts/counterexample.py [out.svg]
"""

import math
import sys
from pathlib import Path

import numpy as np

# this checkout's src/ first, as bench/run.py does, so no install is needed
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from normclust import constrained_2cluster, dist, exhaustive_separable_2cluster, two_arc_plane
from normclust.ballhull import _sphere_point
from normclust.cli import Scene, emit_svg
from normclust.norm import Point, _circle_circle, _on_twoarc_arc, _twoarc_sphere_arcs


def build_configuration():
    plane = two_arc_plane(10.0, 5 * math.sqrt(13))
    a = (0.0, 0.0)
    b = (-9.81, 6.24)
    r = (-9.39, math.sqrt(325 - 9.39 ** 2) - 10.0)
    s = (-8.24, math.sqrt(325 - 8.24 ** 2) - 10.0)
    desc = plane.descriptor
    found = []
    for aa in _twoarc_sphere_arcs(desc, np.asarray(a), 1.0):
        for bb in _twoarc_sphere_arcs(desc, np.asarray(b), 1.1):
            for z in _circle_circle(aa[0], aa[1], bb[0], bb[1], 1e-12):
                if _on_twoarc_arc(z, np.asarray(a), aa, 1e-9) and _on_twoarc_arc(
                    z, np.asarray(b), bb, 1e-9
                ):
                    if not any(math.dist(z, w) < 1e-9 for w in found):
                        found.append(z)
    p = tuple(float(v) for v in min(found, key=lambda z: z[0]))
    q = tuple(float(v) for v in max(found, key=lambda z: z[0]))
    return plane, a, b, p, q, r, s


def main() -> int:
    plane, a, b, p, q, r, s = build_configuration()
    print(f"a = {a}, b = {b}")
    print(f"p = {p}")
    print(f"q = {q}")
    print(f"r = {r}")
    print(f"s = {s}")
    print(f"||a-b||           = {dist(plane, a, b):.6f}  (>= 1.1)")
    trio = min(dist(plane, s, p), dist(plane, r, q), dist(plane, p, q))
    duo = min(dist(plane, r, p), dist(plane, s, q))
    print(f"min(sp, rq, pq)   = {trio:.6f}  (> 1.1)")
    print(f"min(rp, sq)       = {duo:.6f}  (> 1.0)")
    S = [p, q, r, s]
    lib = constrained_2cluster(plane, S, 1.1, 1.0)
    orc = exhaustive_separable_2cluster(plane, S, 1.1, 1.0)
    print(f"constrained_2cluster(d1=1.1, d2=1.0)      -> {lib}")
    print(f"exhaustive_separable_2cluster(1.1, 1.0)   -> {orc}")

    out = sys.argv[1] if len(sys.argv) > 1 else "counterexample.svg"
    scene = Scene()
    scene.points.append(("S", [Point(*z) for z in S]))
    scene.points.append(("centers", [Point(*a), Point(*b)]))
    for center, rad in ((a, 1.0), (b, 1.1)):
        curve = [
            _sphere_point(plane, Point(*center), rad, t)
            for t in np.linspace(0, 2 * math.pi, 256, endpoint=False)
        ]
        scene.spheres.append(curve)
    emit_svg(scene, out)
    print(f"scene written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
