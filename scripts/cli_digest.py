#!/usr/bin/env python3
"""One SHA-256 digest over the exact bits of polygon-norm validation and of
the CLI's reports.

Validation: draws a fixed corpus from ``numpy.random.default_rng(0)`` of
centrally symmetric polygons (convex ones built from sorted edges, raw
symmetric point sets, and integer points, hulled or in angular order),
each listed counterclockwise and clockwise from a random first vertex,
scaled by 2^k, k in [-60, 60] (exact), some with near-collinear vertices
added at relative offsets 1e-15 to 1e-6, and invalid ones (an opposite
vertex dropped, a vertex pushed inward, a flat body, a NaN coordinate), at
tolerances 0, 1e-9 and 1e-6.  Feeds ``repr`` of the descriptor vertices,
``_polar``, ``_coef`` and ``_edges`` of every plane (as Python floats), or
the name of the error raised, to the hash.

CLI: in a temporary directory, writes seeded point files and the descriptor
files of the seven acceptance norms (Euclidean, L1, L-infinity, the random
polygons of seeds 101, 202 and 303, and the two-arc norm of centre height
10 and radius 5 sqrt(13)), runs every subcommand with ``--json`` on them in
this process, and feeds each exit code and the bytes of standard output,
and the SVG that ``plot`` writes, to the hash.  A few point files use a
header, CRLF line ends, spaces and extra columns, and a few are invalid.

Prints the hex digest, the number of planes, the count of each error name
and the number of CLI runs; two versions of the library that print the same
line gave the same bits on every plane and report.

Usage: python scripts/cli_digest.py
"""

import contextlib
import hashlib
import io
import json
import math
import os
import sys
import tempfile
from collections import Counter
from pathlib import Path

import numpy as np

# this checkout's src/ first, as bench/run.py does, so no install is needed
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from normclust import PolygonNorm, Point, convex_hull, validate_norm
from normclust.cli import main
from normclust.errors import NormClustError

TWO_ARC = (10.0, 5 * math.sqrt(13))


# --------------------------------------------------------------------------
# validation corpus


def _edge_polygon(rng, half):
    """A convex symmetric polygon, counterclockwise, from half edges at
    sorted angles in [0, pi) and their negations."""
    angles = np.sort(rng.uniform(0.0, math.pi, half)) + rng.uniform(0, 2 * math.pi)
    lengths = rng.uniform(0.1, 2.0, half)
    edges = np.column_stack([lengths * np.cos(angles), lengths * np.sin(angles)])
    first = -edges.sum(axis=0) / 2
    verts = [tuple(first + edges[:i].sum(axis=0)) for i in range(half)]
    return [(float(x), float(y)) for x, y in verts] + [(-float(x), -float(y)) for x, y in verts]


def _raw_polygon(rng, half):
    """Points at sorted angles in (0, pi) and random radii, and their
    negations: symmetric, convex or not."""
    ang = np.sort(rng.uniform(0.01, math.pi - 0.01, half))
    rad = rng.uniform(0.5, 2.0, half)
    verts = [(float(r * math.cos(a)), float(r * math.sin(a))) for a, r in zip(ang, rad)]
    return verts + [(-x, -y) for x, y in verts]


def _lattice_polygon(rng, half):
    """Integer points and their negations: their convex hull (axis-parallel
    edges are common), or all of them in angular order, collinear and
    reflex vertices included."""
    pts = rng.integers(-4, 5, (half, 2))
    pts = np.unique(np.vstack([pts, -pts, [[1, 0], [-1, 0]]]), axis=0)
    pts = pts[(pts != 0).any(axis=1)].astype(float)
    if rng.integers(0, 2):
        return [tuple(v) for v in convex_hull(pts).vertices]
    return [tuple(p) for p in pts[np.argsort(np.arctan2(pts[:, 1], pts[:, 0]))].tolist()]


def _near_collinear(rng, verts):
    """A symmetric pair of points added near the middle of one edge and of
    its opposite, off the edge by a relative 1e-15 to 1e-6 either way."""
    half = len(verts) // 2
    i = int(rng.integers(0, half))
    (ax, ay), (bx, by) = verts[i], verts[(i + 1) % len(verts)]
    off = float(rng.choice([1e-15, 1e-12, 1e-10, 1e-9, 1e-8, 1e-6])) * float(rng.choice([-1, 1]))
    t = float(rng.uniform(0.2, 0.8))
    m = (ax + t * (bx - ax) - off * (by - ay), ay + t * (by - ay) + off * (bx - ax))
    out = list(verts)
    out.insert(half + i + 1, (-m[0], -m[1]))
    out.insert(i + 1, m)
    return out


def _invalid(rng, verts):
    half = len(verts) // 2
    kind = rng.integers(0, 4)
    i = int(rng.integers(0, half))
    out = list(verts)
    if kind == 0:
        del out[half + i]
    elif kind == 1:
        shrink = float(rng.uniform(0.05, 0.9))
        out[i] = (out[i][0] * shrink, out[i][1] * shrink)
        out[half + i] = (-out[i][0], -out[i][1])
    elif kind == 2:
        theta = float(rng.uniform(0, math.pi))
        out = [(r * math.cos(theta), r * math.sin(theta)) for r in rng.uniform(0.1, 2, half).tolist()]
        out += [(-x, -y) for x, y in out]
    else:
        out[i] = (math.nan, out[i][1])
    return out


def validation_corpus(rng):
    for n in range(3000):
        half = int(rng.integers(2, 9))
        verts = (_raw_polygon, _edge_polygon, _edge_polygon, _lattice_polygon)[n % 4](rng, half)
        if n % 6 == 1:
            verts = _near_collinear(rng, verts)
        if n % 5 == 2:
            verts = _invalid(rng, verts)
        if rng.integers(0, 2):
            verts = verts[::-1]
        k = int(rng.integers(0, len(verts)))
        verts = verts[k:] + verts[:k]
        e = int(rng.integers(-60, 61)) if n % 2 else 0
        verts = [(math.ldexp(x, e), math.ldexp(y, e)) for x, y in verts]
        tol = (1e-9, 0.0, 1e-6)[n % 7 % 3]
        yield verts, tol


def feed_validation(digest, errors):
    planes = 0
    for verts, tol in validation_corpus(np.random.default_rng(0)):
        try:
            plane = validate_norm(PolygonNorm(tuple(Point(x, y) for x, y in verts)), tol)
        except NormClustError as exc:
            errors[type(exc).__name__] += 1
            digest.update(f"{type(exc).__name__}\n".encode())
            continue
        planes += 1
        vertices = [(float(x), float(y)) for x, y in plane.descriptor.vertices]
        digest.update(repr((vertices, plane._polar.tolist(), plane._coef, plane._edges)).encode())
    return planes


# --------------------------------------------------------------------------
# CLI corpus


def _acceptance_polygon(seed, half):
    """The random symmetric polygon of the acceptance suite's generator."""
    rng = np.random.default_rng(seed)
    while True:
        ang = np.sort(rng.uniform(0.01, math.pi - 0.01, size=half))
        rad = rng.uniform(0.5, 2.0, size=half)
        pts = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
        verts = convex_hull(np.vstack([pts, -pts])).vertices
        if len(verts) >= 4:
            return [[v.x, v.y] for v in verts]


def write_norms():
    norms = ["euclidean", "l1", "linf"]
    for name, seed, half in (("poly_a", 101, 4), ("poly_b", 202, 5), ("poly_c", 303, 6)):
        Path(f"{name}.json").write_text(json.dumps({"kind": "polygon", "vertices": _acceptance_polygon(seed, half)}))
        norms.append(f"{name}.json")
    Path("two_arc.json").write_text(json.dumps({"kind": "two_arc", "center": TWO_ARC[0], "radius": TWO_ARC[1]}))
    return norms + ["two_arc.json"]


def write_points(name, pts, style=0):
    rows = [f"{x!r},{y!r}" for x, y in pts.tolist()]
    if style == 1:  # header, CRLF, blank lines, spaces and an extra column
        text = "x,y\r\n" + "".join(f" {r.replace(',', ' , ')} ,{i}\r\n" + ("\r\n" if i % 5 == 0 else "")
                                  for i, r in enumerate(rows))
    else:
        text = "".join(r + "\n" for r in rows)
    Path(name).write_text(text, newline="")
    return name


def cli_runs(rng, norms):
    """(argv, svg path or None) for every run of the corpus."""
    def points(tag, n, spread=10.0, style=0):
        return write_points(f"{tag}.csv", rng.uniform(-spread, spread, (n, 2)), style)

    for j, norm in enumerate(norms):
        common = ["--norm", norm, "--json"]
        for i, n in enumerate((1, 2, 5, 40, 300)):
            yield ["diameter", "--points", points(f"d{j}{i}", n, style=i % 2)] + common, None
            yield ["cluster2", "--points", points(f"c{j}{i}", n), "--verify"] + common, None
        for i, (na, nb) in enumerate(((1, 1), (3, 4), (8, 12), (30, 25))):
            a, b = points(f"a{j}{i}", na), points(f"b{j}{i}", nb, spread=6.0)
            yield ["separate", "--a", a, "--b", b, "--verify"] + common, None
        for i, n in enumerate((6, 12, 40)):
            path = points(f"t{j}{i}", n)
            yield ["cluster3", "--points", path] + common, None
            yield ["cluster3", "--points", path, "--d", repr(float(rng.uniform(3, 15)))] + common, None
            for d1, d2 in ((12.0, 9.0), (20.0, 14.0), (30.0, 30.0)):
                yield ["cluster2c", "--points", path, "--d1", repr(d1), "--d2", repr(d2)] + common, None
        for i, (k, n) in enumerate(((2, 9), (3, 7))):
            path = points(f"k{j}{i}", n)
            for objective, measure in (("max", "diameter"), ("sum", "diameter"), ("sum_squares", "radius")):
                yield ["clusterk", "--points", path, "--k", str(k), "--objective", objective,
                       "--measure", measure] + common, None
        for i, n in enumerate((1, 4, 30, 100)):
            path = points(f"m{j}{i}", n, style=i % 2)
            yield ["mineball", "--points", path] + common, None
            for d in (6.0, 15.0):
                yield ["ballhull", "--points", path, "--d", repr(d), "--query", "3.5,-2"] + common, None
            yield ["ballhull", "--points", path, "--d", "25.0", "--delete", str(n // 2)] + common, None
        a, b = points(f"pa{j}", 12), points(f"pb{j}", 9, spread=5.0)
        yield ["plot", "--points", a, "--b", b, "--d", "30.0", "--sphere", "0,0,2",
               "--sphere=-3,4,1.5", "--out", f"plot{j}.svg"] + common, f"plot{j}.svg"
    # input errors: an unparsable field, a non-finite coordinate, a short row
    for i, text in enumerate(("0,0\nabc,1\n", "0,0\n1,inf\n", "0,0\n\n7\n", "x,y\n")):
        Path(f"bad{i}.csv").write_text(text)
        yield ["cluster2", "--points", f"bad{i}.csv", "--json"], None


def feed_cli(digest):
    runs = 0
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            norms = write_norms()
            for argv, svg in cli_runs(np.random.default_rng(1), norms):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    rc = main(argv)
                digest.update(f"{' '.join(argv)}\n{rc}\n{out.getvalue()}".encode())
                if svg is not None:
                    digest.update(Path(svg).read_bytes())
                runs += 1
        finally:
            os.chdir(cwd)
    return runs


def main_digest() -> None:
    digest, errors = hashlib.sha256(), Counter()
    planes = feed_validation(digest, errors)
    runs = feed_cli(digest)
    named = ", ".join(f"{name} {count}" for name, count in sorted(errors.items()))
    print(f"{digest.hexdigest()} {planes} planes ({named}) {runs} cli runs")


if __name__ == "__main__":
    main_digest()
