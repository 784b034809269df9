"""Acceptance criteria, one test per criterion.

Each test prints a PASS line with its measured runtime; run with ``pytest -s``
(or read the -v report) to see them.  Criterion 7 checks the zone-diameter
property on the instances and thresholds of criterion 4, so those share a
cached sweep.
"""

import io
import json
import zlib
import math
import time
import warnings
from contextlib import redirect_stdout

import numpy as np
import pytest

from conftest import zone_diameter_checks
from normclust import (
    Combiner,
    Measure,
    Objective,
    avis_min_max_2cluster,
    ball_hull,
    bh_contains,
    brute_force_k_partition,
    build_tree,
    constrained_2cluster,
    convex_hull,
    delete_point,
    diameter,
    dist,
    exhaustive_separable_2cluster,
    gauge,
    hr_feasible_3cluster,
    k_cluster_minimize,
    min_max_3cluster,
    perimeter_check,
    query_far_point,
    separate_clusters,
    euclidean_plane,
)
from normclust.cli import main as cli_main
from normclust.geometry import Side, side_of
from normclust.norm import Point, pairwise_distances
from normclust.oracle import CenterSetOracle, hulls_interiors_overlap

MAXDIAM = Objective(Combiner.MAX, Measure.DIAMETER)


def _report(name, elapsed, extra=""):
    print(f"PASS {name} [{elapsed:.1f}s]{' ' + extra if extra else ''}")


# --------------------------------------------------------------------------
# criterion 1: the separation suite


def test_criterion_1_separation_suite(norm_suite):
    t0 = time.monotonic()
    per_norm = 1000
    for name, plane in norm_suite:
        rng = np.random.default_rng(zlib.crc32(name.encode()))
        for _ in range(per_norm):
            na, nb = int(rng.integers(1, 13)), int(rng.integers(1, 13))
            A = rng.uniform(-10, 10, size=(na, 2))
            B = rng.uniform(-10, 10, size=(nb, 2))
            res = separate_clusters(plane, A, B)
            union0 = sorted(map(tuple, np.vstack([A, B])))
            union1 = sorted(map(tuple, res.a_prime + res.b_prime))
            assert union0 == union1, "union not preserved"
            da, db = diameter(plane, A)[0], diameter(plane, B)[0]
            dap = diameter(plane, res.a_prime)[0] if res.a_prime else 0.0
            dbp = diameter(plane, res.b_prime)[0] if res.b_prime else 0.0
            assert dap <= da + 1e-9
            assert dbp <= db + 1e-9
            assert all(side_of(res.line, p) is not Side.RIGHT for p in res.a_prime)
            assert all(side_of(res.line, p) is not Side.LEFT for p in res.b_prime)
            before, after = perimeter_check(plane, A, B, res)
            assert after <= before + 1e-9
            if hulls_interiors_overlap(convex_hull(A), convex_hull(B)):
                assert before - after > 1e-9
    elapsed = time.monotonic() - t0
    _report("criterion 1 (separation suite, 7000 instances)", elapsed)
    assert elapsed < 60


# --------------------------------------------------------------------------
# criterion 2: the two-arc counterexample


def test_criterion_2_counterexample(twoarc_counterexample):
    t0 = time.monotonic()
    plane = twoarc_counterexample["plane"]
    a, b = twoarc_counterexample["a"], twoarc_counterexample["b"]
    p, q, r, s = twoarc_counterexample["p"], twoarc_counterexample["q"], twoarc_counterexample["r"], twoarc_counterexample["s"]

    assert dist(plane, a, b) >= 1.1
    for z in (p, q, r, s):
        assert dist(plane, a, z) == pytest.approx(1.0, abs=1e-9)
    for z in (p, q):
        assert dist(plane, b, z) == pytest.approx(1.1, abs=1e-9)
    trio = min(dist(plane, s, p), dist(plane, r, q), dist(plane, p, q))
    assert trio > 1.1
    duo = min(dist(plane, r, p), dist(plane, s, q))
    assert duo > 1.0

    S = [p, q, r, s]
    assert constrained_2cluster(plane, S, 1.1, 1.0) is None
    assert exhaustive_separable_2cluster(plane, S, 1.1, 1.0) is None
    elapsed = time.monotonic() - t0
    _report("criterion 2 (two-arc counterexample)", elapsed)
    assert elapsed < 1


# --------------------------------------------------------------------------
# criterion 3: 2-clustering optimality


def test_criterion_3_two_clustering(norm_suite):
    t0 = time.monotonic()
    rng = np.random.default_rng(3)
    for trial in range(300):
        _, plane = norm_suite[trial % len(norm_suite)]
        n = int(rng.integers(2, 15))
        pts = rng.uniform(-10, 10, size=(n, 2))
        got, part = avis_min_max_2cluster(plane, pts)
        want, _ = brute_force_k_partition(plane, pts, 2, MAXDIAM)
        assert abs(got - want) <= 1e-9
        assert max(part.measures) <= got + 1e-9
    elapsed = time.monotonic() - t0
    _report("criterion 3 (300 avis-vs-oracle instances)", elapsed)
    assert elapsed < 120


# --------------------------------------------------------------------------
# criteria 4 and 7 share one sweep


_C4_CACHE: dict = {}


def _criterion4_sweep(norm_suite):
    if "result" in _C4_CACHE:
        return _C4_CACHE["result"]
    rng = np.random.default_rng(4)
    checks, violations = 0, []
    t0 = time.monotonic()
    mismatches = []
    for trial in range(200):
        _, plane = norm_suite[trial % len(norm_suite)]
        n = int(rng.integers(3, 11))
        pts = rng.uniform(-10, 10, size=(n, 2))
        D = pairwise_distances(plane, pts)
        want, _ = brute_force_k_partition(plane, pts, 3, MAXDIAM)
        iu, ju = np.triu_indices(n, k=1)
        thresholds = np.concatenate([[0.0], np.unique(D[iu, ju])])
        for d in thresholds:
            part = hr_feasible_3cluster(plane, pts, float(d))
            feasible = part is not None
            if feasible != (want <= d):
                mismatches.append((trial, float(d)))
            if part is not None and max(part.measures) > d + 1e-9:
                mismatches.append((trial, float(d)))
        got, _ = min_max_3cluster(plane, pts)
        if abs(got - want) > 1e-9:
            mismatches.append((trial, "optimum"))
        found = zone_diameter_checks(plane, pts, D, thresholds)
        checks, violations = checks + found[0], violations + found[1]
    _C4_CACHE["result"] = (mismatches, (checks, violations), time.monotonic() - t0)
    return _C4_CACHE["result"]


def test_criterion_4_three_clustering(norm_suite):
    mismatches, _, elapsed = _criterion4_sweep(norm_suite)
    assert mismatches == []
    _report("criterion 4 (200 3-clustering instances, full threshold sweeps)", elapsed)
    assert elapsed < 600


def test_criterion_7_zone_diameter_property(norm_suite):
    _, (checks, violations), elapsed = _criterion4_sweep(norm_suite)
    assert checks > 1000
    assert violations == []
    _report("criterion 7 (zone-diameter property)", 0.0, f"{checks} checks")


# --------------------------------------------------------------------------
# criterion 5: k-clustering objectives


def test_criterion_5_k_clustering(norm_suite):
    t0 = time.monotonic()
    rng = np.random.default_rng(5)
    objectives = [Objective(c, Measure.DIAMETER) for c in Combiner]
    strictly_convex = [norm_suite[0], norm_suite[-1]]  # euclidean, two-arc
    for trial in range(100):
        _, plane = norm_suite[trial % len(norm_suite)]
        k = 2 + trial % 2
        n = int(rng.integers(k, 13))
        pts = rng.uniform(-10, 10, size=(n, 2))
        for obj in objectives:
            got, _ = k_cluster_minimize(plane, pts, k, obj)
            want, _ = brute_force_k_partition(plane, pts, k, obj)
            assert abs(got - want) <= 1e-9, (trial, obj)
    for trial in range(12):
        _, plane = strictly_convex[trial % 2]
        k = 2 + trial % 2
        n = int(rng.integers(k, 9))
        pts = rng.uniform(-10, 10, size=(n, 2))
        obj = Objective(Combiner.MAX, Measure.RADIUS)
        got, _ = k_cluster_minimize(plane, pts, k, obj)
        want, _ = brute_force_k_partition(plane, pts, k, obj)
        assert abs(got - want) <= 1e-9
    elapsed = time.monotonic() - t0
    _report("criterion 5 (k-clustering vs oracle)", elapsed)
    assert elapsed < 900


# --------------------------------------------------------------------------
# criterion 6: ball hulls


def test_criterion_6_ball_hull(norm_suite):
    t0 = time.monotonic()
    probes_per_instance = 200  # x 50 instances = 1e4 probes per norm
    for name, plane in norm_suite:
        rng = np.random.default_rng(zlib.crc32(("bh" + name).encode()))
        for _ in range(50):
            n = int(rng.integers(3, 21))
            pts = rng.uniform(0, 8, size=(n, 2))
            d = float(rng.uniform(0.7, 1.2)) * diameter(plane, pts)[0]
            hull = ball_hull(plane, pts, d)
            hull2 = ball_hull(plane, pts, 2 * d)
            oracle = CenterSetOracle(plane, pts, d)
            lo, hi = pts.min(0) - 0.6 * d, pts.max(0) + 0.6 * d
            probes = rng.uniform(lo, hi, size=(probes_per_instance, 2))
            for x in probes:
                got = bh_contains(plane, hull, x, tol=1e-9)
                m_lo, m_hi = oracle.interval(x)
                if not (m_lo <= d + 1e-7 and m_hi >= d - 1e-7):
                    assert got == (m_hi <= d), (name, tuple(x))
                # monotonicity: the 2d hull is inside the d hull
                if bh_contains(plane, hull2, x, tol=1e-9):
                    assert bh_contains(plane, hull, x, tol=1e-7)
    mid = time.monotonic()

    # replay of 1e4 query/delete operations against a linear scan
    ops_total = 10_000
    per_norm = ops_total // len(norm_suite) + 1
    for name, plane in norm_suite:
        rng = np.random.default_rng(zlib.crc32(("replay" + name).encode()))
        base = [Point(*p) for p in rng.uniform(0, 10, size=(200, 2))]
        d = 0.35 * diameter(plane, base)[0]
        tree = build_tree(plane, base, d)
        alive = set(base)
        for _ in range(per_norm):
            if not alive or rng.random() < 0.7:
                u = Point(*rng.uniform(-1, 11, size=2))
                got = query_far_point(tree, u)
                want = any(
                    float(gauge(plane, (p.x - u.x, p.y - u.y))) >= d for p in alive
                )
                assert (got is not None) == want
                if got is not None:
                    assert got in alive
                    assert float(gauge(plane, (got.x - u.x, got.y - u.y))) >= d
            else:
                victim = sorted(alive)[int(rng.integers(0, len(alive)))]
                delete_point(tree, victim)
                alive.discard(victim)
                if not alive:
                    tree = build_tree(plane, base, d)
                    alive = set(base)
    elapsed = time.monotonic() - t0
    _report(
        "criterion 6 (ball hulls)",
        elapsed,
        f"membership {mid - t0:.0f}s, replay {elapsed - (mid - t0):.0f}s",
    )


# --------------------------------------------------------------------------
# criterion 8: scaling smoke (informative, non-blocking)


def test_criterion_8_scaling_smoke():
    plane = euclidean_plane()
    rng = np.random.default_rng(8)
    times = {}
    for n in (100_000, 200_000):
        pts = rng.uniform(0, 100, size=(n, 2))
        t0 = time.monotonic()
        build_tree(plane, pts, 90.0)
        times[n] = time.monotonic() - t0
    ratio = times[200_000] / times[100_000]
    pts = rng.uniform(0, 100, size=(2000, 2))
    t0 = time.monotonic()
    avis_min_max_2cluster(plane, pts)
    avis_t = time.monotonic() - t0
    _report(
        "criterion 8 (scaling smoke)",
        times[100_000] + times[200_000] + avis_t,
        f"tree ratio {ratio:.2f} (target < 2.6), avis n=2000 {avis_t:.1f}s (target < 30s)",
    )
    if ratio >= 2.6:
        warnings.warn(f"build_tree scaling ratio {ratio:.2f} exceeds 2.6")
    if avis_t >= 30:
        warnings.warn(f"avis on n=2000 took {avis_t:.1f}s")


# --------------------------------------------------------------------------
# criterion 9: CLI determinism


def _run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli_main(argv)
    return rc, buf.getvalue()


def test_criterion_9_cli_determinism(tmp_path, twoarc_counterexample):
    t0 = time.monotonic()
    rng = np.random.default_rng(9)
    files = {}
    for i in range(5):
        n = int(rng.integers(4, 11))
        pts = rng.uniform(-10, 10, size=(n, 2))
        f = tmp_path / f"pts{i}.csv"
        f.write_text("\n".join(f"{float(x)!r},{float(y)!r}" for x, y in pts) + "\n")
        files[i] = str(f)
    ce = twoarc_counterexample
    ce_pts = tmp_path / "ce_pts.csv"
    ce_pts.write_text(
        "\n".join(
            f"{float(x)!r},{float(y)!r}"
            for x, y in (ce["p"], ce["q"], ce["r"], ce["s"])
        )
        + "\n"
    )
    norm_file = tmp_path / "twoarc.json"
    norm_file.write_text(
        json.dumps({"kind": "two_arc", "center": 10.0, "radius": 5 * math.sqrt(13)})
    )
    a_file, b_file = files[0], files[1]
    svg = str(tmp_path / "out.svg")
    corpus = [
        ["diameter", "--points", files[0], "--json"],
        ["diameter", "--points", files[1], "--norm", "l1", "--json"],
        ["diameter", "--points", ce_pts.as_posix(), "--norm", str(norm_file), "--json"],
        ["separate", "--a", a_file, "--b", b_file, "--json"],
        ["separate", "--a", files[2], "--b", files[3], "--norm", "linf", "--json"],
        ["cluster2", "--points", files[0], "--json"],
        ["cluster2", "--points", files[4], "--norm", "l1", "--json"],
        ["cluster2c", "--points", files[2], "--d1", "12", "--d2", "9", "--json"],
        ["cluster2c", "--points", ce_pts.as_posix(), "--norm", str(norm_file),
         "--d1", "1.1", "--d2", "1.0", "--json"],
        ["cluster3", "--points", files[0], "--json"],
        ["cluster3", "--points", files[3], "--d", "8.0", "--json"],
        ["clusterk", "--points", files[1], "--k", "2", "--objective", "sum",
         "--measure", "diameter", "--json"],
        ["clusterk", "--points", files[2], "--k", "3", "--objective", "max",
         "--measure", "diameter", "--json"],
        ["ballhull", "--points", files[0], "--d", "14.0", "--json"],
        ["ballhull", "--points", files[1], "--d", "15.0", "--query", "0,0", "--json"],
        ["ballhull", "--points", files[4], "--d", "16.0", "--delete", "1", "--json"],
        ["mineball", "--points", files[0], "--json"],
        ["mineball", "--points", files[3], "--norm", "l1", "--json"],
        ["mineball", "--points", ce_pts.as_posix(), "--norm", str(norm_file), "--json"],
        ["plot", "--points", files[0], "--d", "14.0", "--out", svg, "--json"],
    ]
    assert len(corpus) == 20
    for argv in corpus:
        rc1, out1 = _run_cli(argv)
        rc2, out2 = _run_cli(argv)
        assert rc1 == rc2
        assert out1 == out2, f"non-deterministic output for {argv}"
        assert out1.strip(), f"no output for {argv}"
    elapsed = time.monotonic() - t0
    _report("criterion 9 (CLI determinism, 20-case corpus)", elapsed)
