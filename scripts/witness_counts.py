#!/usr/bin/env python3
"""Witness counts of ``separate_clusters`` at several coordinate scales.

For the Euclidean, L1, L-infinity and two-arc norms, draws cluster pairs
with the acceptance suite's criterion-1 generator (1-12 points per cluster,
uniform in [-10, 10]^2, one ``numpy.random.default_rng(seed)`` stream per
norm), multiplies every coordinate by each scale in turn and separates the
pair; then moves the unit-scale pairs by 1e12 along both axes (the row
labelled +1e+12), where the coordinates are 5e10 times the spread.  Prints
one row per norm and scale or shift: how often each witness answered, the
number of ``NormClustError``s, the number of splits that raised a
diameter, diam(A') > diam(A) or diam(B') > diam(B) by more than 1e-9 of it,
and the number of answers whose line has a point of A' strictly right of
it or a point of B' strictly left of it (``crossed``, exact ``side_of``).
The diameters here are the largest pairwise distance, not the library's
hull calipers.  The last column is a digest of the row's answers (witness,
A', B' and the line's two points, or the error), so two versions of the
library give the same answers when they print the same lines.  Exits 1
when any row shows an error, a grown diameter or a crossed line, so a run
can gate on it.

Usage: python scripts/witness_counts.py [--seed 77] [--pairs 200]
"""

import argparse
import hashlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np

# this checkout's src/ first, as bench/run.py does, so no install is needed
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from normclust import (
    SeparationWitness,
    Side,
    euclidean_plane,
    l1_plane,
    linf_plane,
    separate_clusters,
    side_of,
    two_arc_plane,
)
from normclust.errors import NormClustError
from normclust.norm import pairwise_distances

SCALES = (1e-7, 1e-4, 1.0, 1e5)
SHIFTS = (1e12,)
# (label, scale, shift) of each row
ROWS = [(f"{s:6.0e}", s, 0.0) for s in SCALES] + [(f"+{t:.0e}", 1.0, t) for t in SHIFTS]
NORMS = (("euclidean", euclidean_plane()), ("l1", l1_plane()), ("linf", linf_plane()),
         ("two_arc", two_arc_plane(10.0, 5 * np.sqrt(13))))


def _diam(plane, pts) -> float:
    return float(pairwise_distances(plane, np.array(pts, float).reshape(-1, 2)).max(initial=0.0))


def criterion_1_pairs(seed: int, n: int) -> list:
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(n):
        na, nb = int(rng.integers(1, 13)), int(rng.integers(1, 13))
        pairs.append((rng.uniform(-10, 10, size=(na, 2)), rng.uniform(-10, 10, size=(nb, 2))))
    return pairs


def counts(plane, pairs, scale, shift) -> tuple[Counter, str]:
    out, digest = Counter(), hashlib.sha256()
    for a, b in pairs:
        a, b = a * scale + shift, b * scale + shift
        try:
            res = separate_clusters(plane, a, b)
        except NormClustError as exc:
            out["errors"] += 1
            digest.update(repr(exc).encode())
            continue
        out[res.witness.value] += 1
        digest.update(repr((res.witness.value, res.a_prime, res.b_prime,
                            res.line.anchor, res.line.through)).encode())
        for before, after in ((a, res.a_prime), (b, res.b_prime)):
            if _diam(plane, after) > _diam(plane, before) * (1 + 1e-9):
                out["grew"] += 1
                break
        if (any(side_of(res.line, p) is Side.RIGHT for p in res.a_prime)
                or any(side_of(res.line, p) is Side.LEFT for p in res.b_prime)):
            out["crossed"] += 1
    return out, digest.hexdigest()[:16]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=77)
    parser.add_argument("--pairs", type=int, default=200)
    args = parser.parse_args()
    columns = [w.value for w in SeparationWitness] + ["errors", "grew", "crossed"]
    print(f"{'norm':10s} {'scale':>6s} " + " ".join(f"{c:>15s}" for c in columns) + f" {'digest':>16s}")
    wrong = 0
    for name, plane in NORMS:
        pairs = criterion_1_pairs(args.seed, args.pairs)
        for label, scale, shift in ROWS:
            row, digest = counts(plane, pairs, scale, shift)
            print(f"{name:10s} {label:>6s} " + " ".join(f"{row[c]:15d}" for c in columns) + f" {digest}")
            wrong += row["errors"] + row["grew"] + row["crossed"]
    return 1 if wrong else 0


if __name__ == "__main__":
    raise SystemExit(main())
