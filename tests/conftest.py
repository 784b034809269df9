import math

import numpy as np
import pytest

from normclust import (
    convex_hull,
    euclidean_plane,
    gauge,
    hr_zones,
    l1_plane,
    linf_plane,
    polygon_plane,
    two_arc_plane,
)
from normclust.errors import DegenerateBasis
from normclust.norm import _circle_circle, _on_twoarc_arc, _twoarc_sphere_arcs

TWO_ARC_C = 10.0
TWO_ARC_R = 5 * math.sqrt(13)


def random_polygon_plane(seed: int, half_vertices: int = 4):
    """A random centrally symmetric convex polygon norm."""
    rng = np.random.default_rng(seed)
    while True:
        ang = np.sort(rng.uniform(0.01, math.pi - 0.01, size=half_vertices))
        rad = rng.uniform(0.5, 2.0, size=half_vertices)
        pts = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
        pts = np.vstack([pts, -pts])
        hull = convex_hull(pts)
        if len(hull.vertices) >= 4:
            try:
                return polygon_plane([tuple(v) for v in hull.vertices])
            except Exception:
                pass


def grid_meb_oracle(plane, pts, iters=8):
    """Dense grid search refined around the best center."""
    pts = np.asarray(pts, float)
    lo = pts.min(0) - 0.1
    hi = pts.max(0) + 0.1
    best_c, best_r = None, np.inf
    for _ in range(iters):
        xs = np.linspace(lo[0], hi[0], 41)
        ys = np.linspace(lo[1], hi[1], 41)
        XX, YY = np.meshgrid(xs, ys)
        centers = np.stack([XX.ravel(), YY.ravel()], axis=1)
        diffs = pts[None, :, :] - centers[:, None, :]
        R = gauge(plane, diffs.reshape(-1, 2)).reshape(len(centers), len(pts)).max(axis=1)
        k = int(np.argmin(R))
        if R[k] < best_r:
            best_r, best_c = float(R[k]), centers[k]
        span = (hi - lo) / 8
        lo, hi = best_c - span, best_c + span
    return best_c, best_r


@pytest.fixture(scope="session")
def norm_suite():
    """The acceptance norm set: Euclidean, L1, Linf, three random symmetric
    polygon norms, and the two-arc norm with centers (0, +-10), radius
    5*sqrt(13)."""
    return [
        ("euclidean", euclidean_plane()),
        ("l1", l1_plane()),
        ("linf", linf_plane()),
        ("poly_a", random_polygon_plane(101, 4)),
        ("poly_b", random_polygon_plane(202, 5)),
        ("poly_c", random_polygon_plane(303, 6)),
        ("two_arc", two_arc_plane(TWO_ARC_C, TWO_ARC_R)),
    ]


@pytest.fixture(scope="session")
def twoarc_counterexample():
    """The counterexample configuration on the two-arc norm.

    r and s sit on the unit sphere around a at the prescribed x-coordinates;
    p and q are the two intersection points of S(a, 1) and S(b, 1.1), found
    by intersecting the spheres' circular arcs.
    """
    plane = two_arc_plane(TWO_ARC_C, TWO_ARC_R)
    a = (0.0, 0.0)
    b = (-9.81, 6.24)
    r2sq = TWO_ARC_R ** 2
    r = (-9.39, math.sqrt(r2sq - 9.39 ** 2) - 10.0)
    s = (-8.24, math.sqrt(r2sq - 8.24 ** 2) - 10.0)
    desc = plane.descriptor
    arcs_a = _twoarc_sphere_arcs(desc, np.asarray(a), 1.0)
    arcs_b = _twoarc_sphere_arcs(desc, np.asarray(b), 1.1)
    found = []
    for aa in arcs_a:
        for bb in arcs_b:
            for z in _circle_circle(aa[0], aa[1], bb[0], bb[1], 1e-12):
                if _on_twoarc_arc(z, np.asarray(a), aa, 1e-9) and _on_twoarc_arc(
                    z, np.asarray(b), bb, 1e-9
                ):
                    if not any(math.dist(z, w) < 1e-9 for w in found):
                        found.append(z)
    assert len(found) == 2
    p = tuple(min(found, key=lambda z: z[0]))
    q = tuple(max(found, key=lambda z: z[0]))
    return {"plane": plane, "a": a, "b": b, "p": p, "q": q, "r": r, "s": s}


def random_clusters(rng, max_n=12, lo=-10.0, hi=10.0):
    na = int(rng.integers(1, max_n + 1))
    nb = int(rng.integers(1, max_n + 1))
    return rng.uniform(lo, hi, size=(na, 2)), rng.uniform(lo, hi, size=(nb, 2))


def zone_diameter_checks(plane, pts, D, thresholds):
    """The zone-diameter property of the 3-clustering's zones (Hagauer and
    Rote): with a the point that precedes every other in the zones' x-order,
    for every baseline a' after a and every threshold d, the points of the
    north (south) zone within d of both a and a' are pairwise within d.
    Returns the number of (threshold, baseline, zone) checks and the
    violations (a, a', d, the zone part's diameter)."""
    pts = [(float(x), float(y)) for x, y in pts]
    for a in range(len(pts)):
        try:
            zones = [(b, hr_zones(plane, pts, pts[a], pts[b]))
                     for b in range(len(pts)) if pts[b] != pts[a]]
        except DegenerateBasis:  # some point precedes pts[a]
            continue
        break
    else:
        raise AssertionError("no point precedes the others")
    checks, violations = 0, []
    for d in thresholds:
        for b, z in zones:
            near = (D[a] <= d) & (D[b] <= d)
            for zone in (z.north, z.south):
                checks += 1
                inner = [i for i in zone if near[i]]
                wide = float(D[np.ix_(inner, inner)].max(initial=0.0))
                if wide > d + 1e-9:
                    violations.append((pts[a], pts[b], float(d), wide))
    return checks, violations
