#!/usr/bin/env python3
"""One SHA-256 digest over the exact bits of trees of ball hulls, their
far-point queries and their deletions.

Draws a fixed corpus from ``numpy.random.default_rng(0)``: 15 each of
uniform, integer-lattice, duplicated, x-strip and collinear point sets of
1-400 points (log-uniform sizes, so from one bucket to thirteen), each
moved by an offset of up to 1e12 times its spread and scaled by 2^k, k in
[-60, 60] (exact), plus 8 sets near +-1e300; under the Euclidean, L1, a
two-arc and a hexagon norm, at radii of 0.3, 0.55 and 0.8 times the
diameter.  Each tree is built, then replays 16 steps, each a far-point
query from a random point around the set or the deletion of a random live
point.  Feeds every node of the tree after the build and after each
deletion (None, OVERFULL, or the vertices, arc centres and sides and
support centres), every query's answer and the name of every error raised
to one hash, coordinates as ``float.hex``, and prints its hex digest and
the number of trees; two versions of the library that print the same line
gave the same bits on every node and answer.

Usage: python scripts/tree_digest.py
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

# this checkout's src/ first, as bench/run.py does, so no install is needed
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from normclust import (build_tree, delete_point, diameter, euclidean_plane, l1_plane, polygon_plane,
                       query_far_point, two_arc_plane)
from normclust.ballhull import OVERFULL
from normclust.errors import NormClustError

PLANES = [euclidean_plane(), l1_plane(), two_arc_plane(1, 2),
          polygon_plane([(1, 0), (0.5, 1), (-0.5, 1), (-1, 0), (-0.5, -1), (0.5, -1)])]
SHAPES = {
    "uniform": lambda rng, n: rng.uniform(-10, 10, (n, 2)),
    "lattice": lambda rng, n: rng.integers(-20, 21, (n, 2)).astype(float),
    "duplicate": lambda rng, n: rng.uniform(-10, 10, (max(1, n // 3), 2))[rng.integers(0, max(1, n // 3), n)],
    "x-strip": lambda rng, n: rng.uniform([0, -100], [0.5, 100], (n, 2)),
    "collinear": lambda rng, n: np.outer(rng.uniform(-10, 10, n), rng.uniform(-1, 1, 2)) + rng.uniform(-5, 5, 2),
}
RADII = (0.3, 0.55, 0.8)
STEPS = 16


def _hex(*xs) -> str:
    return " ".join(float(x).hex() for x in xs)


def _node(h) -> str:
    if h is None or h is OVERFULL:
        return repr(h)
    return " | ".join([" ".join(_hex(*v) for v in h.vertices),
                       " ".join(f"{_hex(*a.center)} {a.side}" for a in h.arcs),
                       " ".join(_hex(*c) for c in h.support_centers)])


def _replay(digest, rng, plane, pts, d) -> None:
    try:
        tree = build_tree(plane, pts, d)
    except NormClustError as exc:
        digest.update(f"build {type(exc).__name__}\n".encode())
        return
    digest.update(("\n".join(map(_node, tree._hulls)) + "\n").encode())
    lo, hi = pts.min(0), pts.max(0)
    for _ in range(STEPS):
        live = [i for i, a in enumerate(tree.alive) if a]
        if live and rng.random() < 0.5:
            victim = tree.points[live[int(rng.integers(0, len(live)))]]
            try:
                delete_point(tree, victim)
                digest.update(("\n".join(map(_node, tree._hulls)) + "\n").encode())
            except NormClustError as exc:
                digest.update(f"delete {type(exc).__name__}\n".encode())
        else:
            u = lo + (hi - lo) * rng.uniform(-0.5, 1.5, 2)
            try:
                got = query_far_point(tree, u)
                digest.update(f"query {'None' if got is None else _hex(*got)}\n".encode())
            except NormClustError as exc:
                digest.update(f"query {type(exc).__name__}\n".encode())


def _corpus(rng):
    for make in SHAPES.values():
        for _ in range(15):
            pts = make(rng, round(400 ** rng.uniform()))
            spread = float(np.ptp(pts)) or 1.0
            offset = spread * 10.0 ** rng.uniform(0, 12) * rng.choice([0, 1])
            yield (pts + offset) * 2.0 ** int(rng.integers(-60, 61))
    for _ in range(8):
        n = round(400 ** rng.uniform())
        pts = rng.uniform(-1, 1, (n, 2)) * 1e299
        pts[:, 0] += np.where(rng.random(n) < 0.5, -1e300, 1e300)
        yield pts


def main() -> None:
    rng = np.random.default_rng(0)
    digest, trees = hashlib.sha256(), 0
    for pts in _corpus(rng):
        for plane in PLANES:
            try:
                diam = diameter(plane, pts)[0]
            except NormClustError as exc:
                digest.update(f"diameter {type(exc).__name__}\n".encode())
                continue
            for frac in RADII:
                _replay(digest, rng, plane, pts, frac * diam if diam > 0 else 2.0 ** -30)
                trees += 1
    print(f"{digest.hexdigest()} {trees} trees")


if __name__ == "__main__":
    main()
