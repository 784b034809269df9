#!/usr/bin/env python3
"""One SHA-256 digest over the exact bits of ``min_enclosing_ball`` answers.

Draws a fixed corpus from ``numpy.random.default_rng(0)``: 40 each of
uniform, integer-lattice, duplicated, collinear and cocircular point sets
of 1-40 points, each also moved by offsets up to 1e12, under the Euclidean, a
two-arc and a hexagon norm.  Feeds ``float.hex`` of every center coordinate
and radius (or the name of the error raised) to one hash and prints its hex
digest and the number of balls; two versions of the library that print the
same line gave the same bits on every ball.

Usage: python scripts/meb_digest.py
"""

import hashlib
import sys
from pathlib import Path

import numpy as np

# this checkout's src/ first, as bench/run.py does, so no install is needed
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from normclust import euclidean_plane, min_enclosing_ball, polygon_plane, two_arc_plane
from normclust.errors import NormClustError

PLANES = [euclidean_plane(), two_arc_plane(1, 2),
          polygon_plane([(1, 0), (0.5, 1), (-0.5, 1), (-1, 0), (-0.5, -1), (0.5, -1)])]
SHAPES = {
    "uniform": lambda rng, n: rng.uniform(-10, 10, (n, 2)),
    "lattice": lambda rng, n: rng.integers(-3, 4, (n, 2)).astype(float),
    "duplicate": lambda rng, n: rng.uniform(-10, 10, (max(1, n // 3), 2))[rng.integers(0, max(1, n // 3), n)],
    "collinear": lambda rng, n: np.outer(rng.uniform(-10, 10, n), rng.uniform(-1, 1, 2)) + rng.uniform(-5, 5, 2),
    "cocircular": lambda rng, n: 3 * np.column_stack([np.cos(t := rng.uniform(0, 2 * np.pi, n)), np.sin(t)]),
}


def main() -> None:
    rng = np.random.default_rng(0)
    digest, balls = hashlib.sha256(), 0
    for make in SHAPES.values():
        for _ in range(40):
            pts = make(rng, int(rng.integers(1, 41)))
            for offset in (0.0, 1e3, 1e6, 1e12):
                for plane in PLANES:
                    try:
                        (cx, cy), r = min_enclosing_ball(plane, pts + offset)
                        digest.update(f"{cx.hex()} {cy.hex()} {r.hex()}\n".encode())
                    except NormClustError as exc:
                        digest.update(f"{type(exc).__name__}\n".encode())
                    balls += 1
    print(f"{digest.hexdigest()} {balls} balls")


if __name__ == "__main__":
    main()
