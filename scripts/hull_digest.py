#!/usr/bin/env python3
"""One SHA-256 digest over the exact bits of the hulls and what is read
from them.

Draws a fixed corpus from ``numpy.random.default_rng(0)``: 12 each of
uniform, integer-lattice, duplicated, collinear and cocircular point sets
of 1-3000 points (log-uniform sizes, so both sides of the hulls' filter
cut), each also moved by offsets 0, 1e3, 1e6 and 1e12, under the
Euclidean, L1 and a two-arc norm.  Feeds ``hull_indices``, the
``convex_hull`` vertices, the ``diameter`` value and its pair, and
``avis_min_max_2cluster``'s d* and clusters (or the name of the error
raised) to one hash, coordinates as ``float.hex``, and prints its hex
digest and the number of sets; two versions of the library that print the
same line gave the same bits on every answer.

Usage: python scripts/hull_digest.py
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

# this checkout's src/ first, as bench/run.py does, so no install is needed
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from normclust import avis_min_max_2cluster, convex_hull, diameter, euclidean_plane, l1_plane, two_arc_plane
from normclust.errors import NormClustError
from normclust.geometry import hull_indices

PLANES = [euclidean_plane(), l1_plane(), two_arc_plane(1, 2)]
SHAPES = {
    "uniform": lambda rng, n: rng.uniform(-10, 10, (n, 2)),
    "lattice": lambda rng, n: rng.integers(-20, 21, (n, 2)).astype(float),
    "duplicate": lambda rng, n: rng.uniform(-10, 10, (max(1, n // 3), 2))[rng.integers(0, max(1, n // 3), n)],
    "collinear": lambda rng, n: np.outer(rng.uniform(-10, 10, n), rng.uniform(-1, 1, 2)) + rng.uniform(-5, 5, 2),
    "cocircular": lambda rng, n: 3 * np.column_stack([np.cos(t := rng.uniform(0, 2 * np.pi, n)), np.sin(t)]),
}


def _hex(*xs) -> str:
    return " ".join(float(x).hex() for x in xs)


def main() -> None:
    rng = np.random.default_rng(0)
    digest, sets = hashlib.sha256(), 0
    for make in SHAPES.values():
        for _ in range(12):
            pts = make(rng, round(3000 ** rng.uniform()))
            for offset in (0.0, 1e3, 1e6, 1e12):
                moved = pts + offset
                digest.update(f"{hull_indices(moved)}\n".encode())
                digest.update(" ".join(_hex(*v) for v in convex_hull(moved).vertices).encode() + b"\n")
                for plane in PLANES:
                    try:
                        d, (p, q) = diameter(plane, moved)
                        digest.update(f"{_hex(d, *p, *q)}\n".encode())
                        d_star, part = avis_min_max_2cluster(plane, moved)
                        digest.update(f"{_hex(d_star, *part.measures)} {part.clusters}\n".encode())
                    except NormClustError as exc:
                        digest.update(f"{type(exc).__name__}\n".encode())
                sets += 1
    print(f"{digest.hexdigest()} {sets} sets")


if __name__ == "__main__":
    main()
