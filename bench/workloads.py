"""The four benchmark workloads.

A workload makes its inputs from the seed, then yields one round of
operations at a time.  Each ``Op`` is one public call or one CLI invocation
(``call``, timed) plus the check of its output (``check``, run after the
round so that checking does not sit between the timed calls).  The round
generator receives each call's result through ``send``, so later operations
can act on earlier results (the tree replay).

A workload has ``BLOCKS`` input sets; round ``r`` runs block ``r % BLOCKS``,
whose numbers come from the stream (seed, workload, block), with every
point translated by ``shift(r)``, a multiple of (1/64, -1/128).  Norms are
translation invariant, so an operation does the same work every time its
block comes round, and the run can take each operation's median over the
rounds; yet no round hands the program the same coordinates twice, so a
cache keyed on the input cannot profit from the repetition.  The offsets are
multiples of powers of two, so lattice and collinear inputs stay exact.
"""

from __future__ import annotations

import io
import json
import math
import zlib
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.spatial import ConvexHull

import normclust
from normclust import ballhull, cli, separation
from normclust.errors import NormClustError

from checks import (
    RefNorm,
    check_ball_hull,
    check_cluster2,
    check_cluster2c,
    check_cluster3,
    check_clusterk,
    check_far_point,
    check_mineball,
    check_separation,
    check_tree_root,
    min_max_2cluster_ref,
    require,
    subset_diameters,
    subset_radii,
)

TWO_ARC = (10.0, 5 * math.sqrt(13))   # centre height and radius of the acceptance suite


class OpFailed(RuntimeError):
    """The program reported an error for an operation."""


@dataclass
class Op:
    label: str
    call: Callable[[], object]
    check: Callable[[object], None]


@dataclass
class Norm:
    name: str
    ref: RefNorm
    plane: object      # normclust.NormedPlane
    arg: str           # the CLI's --norm value


# --------------------------------------------------------------------------
# norms and files


def _random_polygon(seed: int, half: int) -> list[tuple[float, float]]:
    """The random symmetric polygon of the acceptance suite's generator."""
    rng = np.random.default_rng(seed)
    while True:
        ang = np.sort(rng.uniform(0.01, math.pi - 0.01, size=half))
        rad = rng.uniform(0.5, 2.0, size=half)
        pts = np.stack([rad * np.cos(ang), rad * np.sin(ang)], axis=1)
        pts = np.vstack([pts, -pts])
        verts = [tuple(map(float, pts[i])) for i in ConvexHull(pts).vertices]
        if len(verts) >= 4:
            try:
                normclust.polygon_plane(verts)
            except NormClustError:
                continue
            return verts


L1 = [(1.0, 0.0), (0.0, 1.0), (-1.0, 0.0), (0.0, -1.0)]
LINF = [(1.0, 1.0), (-1.0, 1.0), (-1.0, -1.0), (1.0, -1.0)]
SUITE = ("euclidean", "l1", "linf", "poly_a", "poly_b", "poly_c", "two_arc")


def make_norms(workdir: Path) -> dict[str, Norm]:
    """The seven norms of the acceptance suite, with descriptor files for the CLI."""
    norms = {
        "euclidean": Norm("euclidean", RefNorm("euclidean"), normclust.euclidean_plane(), "euclidean"),
        "l1": Norm("l1", RefNorm("polygon", tuple(L1)), normclust.l1_plane(), "l1"),
        "linf": Norm("linf", RefNorm("polygon", tuple(LINF)), normclust.linf_plane(), "linf"),
    }
    for name, seed, half in (("poly_a", 101, 4), ("poly_b", 202, 5), ("poly_c", 303, 6)):
        verts = _random_polygon(seed, half)
        path = workdir / f"{name}.json"
        path.write_text(json.dumps({"kind": "polygon", "vertices": verts}))
        norms[name] = Norm(name, RefNorm("polygon", tuple(verts)), normclust.polygon_plane(verts), str(path))
    path = workdir / "two_arc.json"
    path.write_text(json.dumps({"kind": "two_arc", "center": TWO_ARC[0], "radius": TWO_ARC[1]}))
    norms["two_arc"] = Norm("two_arc", RefNorm("two_arc", center=TWO_ARC[0], radius=TWO_ARC[1]),
                            normclust.two_arc_plane(*TWO_ARC), str(path))
    return norms


def shift(r: int) -> np.ndarray:
    """The translation applied to every point in round ``r``."""
    return np.array([r / 64, -r / 128])


def write_points(path: Path, pts: np.ndarray) -> str:
    path.write_text("".join(f"{float(x)!r},{float(y)!r}\n" for x, y in pts))
    return str(path)


def run_cli(argv: list[str]) -> tuple[int, str]:
    """One in-process CLI invocation; exit code 2 is a program error."""
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = cli.main(argv)
    if rc == 2:
        raise OpFailed(f"normclust {' '.join(argv)} exited with 2")
    return rc, buf.getvalue()


def report(out) -> dict:
    rc, text = out
    return json.loads(text)["result"]


# --------------------------------------------------------------------------


class Workload:
    name = ""
    ops_per_round = 0
    BLOCKS = 1

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._id = zlib.crc32(self.name.encode())
        self._inputs: dict[int, object] = {}

    def rng(self, *tag: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, self._id, *tag])

    def setup(self) -> None:
        """Norms, the first round's inputs and a warm-up on other inputs."""
        self.norms = make_norms(self.workdir)
        self._inputs[0] = self.make_inputs(self.rng(0, 0), "r0", shift(0))
        self.warm_up(self.rng(1))

    def inputs(self, r: int):
        if r not in self._inputs:
            self._inputs = {r: self.make_inputs(self.rng(0, r % self.BLOCKS), f"r{r}", shift(r))}
        return self._inputs[r]

    def make_inputs(self, rng, tag: str, offset: np.ndarray):
        """Draw the inputs from ``rng`` and add ``offset`` to every point."""
        raise NotImplementedError

    def warm_up(self, rng) -> None:
        raise NotImplementedError

    def round(self, r: int):
        raise NotImplementedError


# --------------------------------------------------------------------------
# separate: separate_clusters on uniform and degenerate cluster pairs


def _collinear(rng, n: int) -> np.ndarray:
    """n points on one line, exactly representable."""
    direction = np.array([(1, 0), (0, 1), (1, 1), (1, -1), (2, 1)][int(rng.integers(0, 5))], float)
    base = rng.integers(-6, 7, size=2).astype(float)
    return base + np.outer(rng.integers(-16, 17, size=n) / 4.0, direction)


def _cluster_pair(rng, kind: int, sizes=None) -> tuple[np.ndarray, np.ndarray]:
    """Kinds 0-3 are degenerate and small; kind 4 is the uniform pair of the
    acceptance suite's criterion 1, of the given sizes."""
    def uniform(lo, hi):
        return rng.uniform(-10, 10, size=(int(rng.integers(lo, hi + 1)), 2))

    if kind == 0:      # integer lattice: duplicates and collinear triples
        return tuple(rng.integers(-3, 4, size=(int(rng.integers(3, 5)), 2)).astype(float) for _ in "ab")
    if kind == 1:      # a one- or two-point cluster
        return uniform(1, 2), uniform(1, 6)
    if kind == 2:      # a collinear cluster
        return _collinear(rng, int(rng.integers(2, 6))), uniform(3, 6)
    if kind == 3:      # two collinear clusters
        return _collinear(rng, int(rng.integers(2, 6))), _collinear(rng, int(rng.integers(2, 6)))
    return tuple(rng.uniform(-10, 10, size=(n, 2)) for n in sizes)


class Separate(Workload):
    """Per norm: 20 uniform pairs of 1-16 points, 4 degenerate pairs.  The
    candidate-line fallback, driven by the degenerate pairs and by a one- or
    two-point cluster against a large one, is 10-100 times slower than a
    constructive split, so a few pairs carry much of a round's time.  The
    uniform pairs' sizes are therefore fixed, spread evenly over 1-16, rather
    than drawn, and each run averages over eight blocks of inputs."""

    name = "separate"
    BLOCKS = 8
    UNIFORM_SIZES = tuple((1 + 5 * i % 16, 1 + (11 * i + 7) % 16) for i in range(20))
    DEGENERATE = 4
    ops_per_round = len(SUITE) * (len(UNIFORM_SIZES) + DEGENERATE)

    def make_inputs(self, rng, tag, offset):
        kinds = [(4, sizes) for sizes in self.UNIFORM_SIZES] + [(kind, None) for kind in range(self.DEGENERATE)]
        return [(name, *(c + offset for c in _cluster_pair(rng, *kind))) for name in SUITE for kind in kinds]

    def warm_up(self, rng):
        for i, name in enumerate(SUITE):
            for kind in ((4, self.UNIFORM_SIZES[i]), (i % self.DEGENERATE, None)):
                separation.separate_clusters(self.norms[name].plane, *_cluster_pair(rng, *kind))

    def round(self, r):
        for name, a, b in self.inputs(r):
            norm = self.norms[name]
            yield Op("separate",
                     lambda plane=norm.plane, a=a, b=b: separation.separate_clusters(plane, a, b),
                     lambda res, ref=norm.ref, a=a, b=b: self._check(ref, a, b, res))

    @staticmethod
    def _check(ref, a, b, res):
        require(res.witness.value in ("no_bad_pairs", "disjoint_hulls", "group_split", "fallback_split"),
                "separation: unknown witness")
        check_separation(ref, a, b, res.a_prime, res.b_prime, res.line.anchor, res.line.direction)


# --------------------------------------------------------------------------
# threshold: min-max 2- and 3-clustering and bounded 2-clustering via the CLI


class Threshold(Workload):
    """Cost tiers per round, so that each percentile falls inside a group of
    like operations, not on the edge between two groups: 4 large min-max
    2-clusterings (n=1500 Euclidean, n=700 on the others), 2 n=40
    3-clusterings and 2 infeasible n=50 bounded splits take 0.1-0.7 s; 6
    infeasible Euclidean bounded splits at n=40, whose exhaustive search
    costs nearly the same on every input, hold the tail rank; 49 small
    2-clusterings hold the median; 21 other small-n instances and 2
    feasible n=50 splits fill the rest.  The sizes keep a round near three
    seconds, so that a run holds six rounds or more."""

    name = "threshold"
    BIG = (("euclidean", 1500), ("l1", 700), ("poly_c", 700), ("two_arc", 700))
    MID3 = (("euclidean", 40), ("two_arc", 40))
    MID2C = (("l1", 50), ("poly_a", 50))
    TAIL2C = (("euclidean", 40),) * 6
    ops_per_round = len(BIG) + len(MID3) + 2 * len(MID2C) + len(TAIL2C) + 10 * len(SUITE)

    def make_inputs(self, rng, tag, offset):
        """(label, norm, points, argv, expected feasibility) per operation.
        Bounds of the bounded splits at n >= 40 come from the spanning-tree
        optimum d*: d1 < d* is infeasible, d2 >= d* feasible."""
        ops = []

        def points(n, name, kind):
            pts = rng.uniform(-10, 10, size=(n, 2)) + offset
            path = write_points(self.workdir / f"{tag}-{kind}-{name}-{len(ops)}.csv", pts)
            return pts, path

        def bounded(label, name, n, bounds):
            pts, path = points(n, name, "c2c")
            d_star = min_max_2cluster_ref(self.norms[name].ref.dist_matrix(pts))
            for f1, f2, feasible in bounds:
                ops.append((label, name, pts, ["cluster2c", "--points", path, "--d1", repr(f1 * d_star),
                                               "--d2", repr(f2 * d_star)], feasible))

        infeasible, feasible = (1 - 1e-4, 0.9, False), (2.0, 1 + 1e-6, True)
        for name, n in self.BIG:
            pts, path = points(n, name, "c2")
            ops.append(("cluster2.large", name, pts, ["cluster2", "--points", path], None))
        for name, n in self.MID3:
            pts, path = points(n, name, "c3")
            ops.append(("cluster3.mid", name, pts, ["cluster3", "--points", path], None))
        for name, n in self.MID2C:
            bounded("cluster2c.mid", name, n, (infeasible, feasible))
        for name, n in self.TAIL2C:
            bounded("cluster2c.n40", name, n, (infeasible,))
        for i, name in enumerate(SUITE):
            for n in range(8, 15):
                pts, path = points(n, name, "c2")
                ops.append(("cluster2.small", name, pts, ["cluster2", "--points", path], None))
            pts, path = points(6 + i % 5, name, "c3")
            ops.append(("cluster3.small", name, pts, ["cluster3", "--points", path], None))
            for n in (9 + i % 4, 13 + i % 4):
                pts, path = points(n, name, "c2c")
                diam = self.norms[name].ref.diameter(pts)
                d1 = float(rng.uniform(0.4, 1.1)) * diam
                d2 = float(rng.uniform(0.3, 1.0)) * d1
                ops.append(("cluster2c.small", name, pts,
                            ["cluster2c", "--points", path, "--d1", repr(d1), "--d2", repr(d2)], None))
        return ops

    def warm_up(self, rng):
        for name in SUITE:
            arg = self.norms[name].arg
            for cmd, n in (("cluster2", 300), ("cluster3", 12)):
                path = write_points(self.workdir / f"warm-{cmd}-{name}.csv", rng.uniform(-10, 10, size=(n, 2)))
                run_cli([cmd, "--points", path, "--norm", arg, "--json"])
            run_cli(["cluster2c", "--points", path, "--norm", arg, "--d1", "12", "--d2", "9", "--json"])

    def round(self, r):
        for label, name, pts, argv, feasible in self.inputs(r):
            norm = self.norms[name]
            full = argv + ["--norm", norm.arg, "--json"]
            yield Op(label, lambda full=full: run_cli(full),
                     lambda out, ref=norm.ref, pts=pts, argv=argv, feasible=feasible:
                     self._check(ref, pts, argv, feasible, out))

    @staticmethod
    def _check(ref, pts, argv, feasible, out):
        rc, _ = out
        res = report(out)
        cmd = argv[0]
        if cmd == "cluster2":
            part = res["partition"]
            check_cluster2(ref, pts, res["d_star"], part["clusters"], part["measures"])
        elif cmd == "cluster3":
            part = res["partition"]
            check_cluster3(ref, pts, res["d_star"], part["clusters"], part["measures"])
        else:
            d1, d2 = float(argv[argv.index("--d1") + 1]), float(argv[argv.index("--d2") + 1])
            require(rc == (0 if res["feasible"] else 1), "cluster2c: exit code disagrees with the report")
            part = res.get("partition", {})
            check_cluster2c(ref, pts, d1, d2, res["feasible"], part.get("clusters"),
                            part.get("measures"), expect_feasible=feasible)


# --------------------------------------------------------------------------
# kcluster: exhaustive k-clustering and enclosing balls via the CLI


class KCluster(Workload):
    """Each point set is solved for every objective in a row: the first
    solve enumerates the line dissections, the repeats may reuse them."""

    name = "kcluster"
    COMBINERS = ("max", "sum", "sum_squares")
    DIAMETER_SETS = tuple((2, name, 10 + i % 5) for i, name in enumerate(SUITE)) + (
        (3, "l1", 8), (3, "poly_b", 8), (3, "two_arc", 8))
    RADIUS_SETS = ((3, "euclidean", 7, COMBINERS), (2, "two_arc", 5, ("max",)))
    # ten like Euclidean sweeps straddle the tail percentile's rank: below
    # the six first k=3 and radius solves and the two-arc ball, above every
    # repeat
    BALL_SETS = (("two_arc", 6),) + (("euclidean", 24),) * 10 + (("poly_b", 16),) * 2
    ops_per_round = 3 * len(DIAMETER_SETS) + sum(len(s[3]) for s in RADIUS_SETS) + len(BALL_SETS)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self._tables: dict[tuple[int, int], dict] = {}

    def make_inputs(self, rng, tag, offset):
        sets = []
        for i, (k, name, n) in enumerate(self.DIAMETER_SETS):
            pts = rng.uniform(-10, 10, size=(n, 2)) + offset
            sets.append(("diameter", k, name, pts, self.COMBINERS,
                         write_points(self.workdir / f"{tag}-k{i}.csv", pts)))
        for i, (k, name, n, combiners) in enumerate(self.RADIUS_SETS):
            pts = rng.uniform(-10, 10, size=(n, 2)) + offset
            sets.append(("radius", k, name, pts, combiners,
                         write_points(self.workdir / f"{tag}-r{i}.csv", pts)))
        balls = []
        for i, (name, n) in enumerate(self.BALL_SETS):
            pts = rng.uniform(-10, 10, size=(n, 2)) + offset
            balls.append((name, pts, write_points(self.workdir / f"{tag}-b{i}.csv", pts)))
        return sets, balls

    def warm_up(self, rng):
        for name in SUITE:
            path = write_points(self.workdir / f"warm-{name}.csv", rng.uniform(-10, 10, size=(5, 2)))
            arg = self.norms[name].arg
            run_cli(["clusterk", "--points", path, "--norm", arg, "--k", "3", "--json"])
            run_cli(["mineball", "--points", path, "--norm", arg, "--json"])

    def round(self, r):
        sets, balls = self.inputs(r)
        for i, (measure, k, name, pts, combiners, path) in enumerate(sets):
            norm = self.norms[name]
            # per-subset reference table, shared by the objectives and by the
            # later rounds of this block: subset diameters and radii do not
            # change under translation beyond rounding far below the tolerance
            cache = self._tables.setdefault((r % self.BLOCKS, i), {})
            for j, comb in enumerate(combiners):
                argv = ["clusterk", "--points", path, "--norm", norm.arg, "--k", str(k),
                        "--objective", comb, "--measure", measure, "--json"]
                yield Op("clusterk.first" if j == 0 else "clusterk.repeat",
                         lambda argv=argv: run_cli(argv),
                         lambda out, ref=norm.ref, pts=pts, k=k, comb=comb, measure=measure, cache=cache:
                         self._check_k(ref, pts, k, comb, measure, cache, out))
        for name, pts, path in balls:
            norm = self.norms[name]
            argv = ["mineball", "--points", path, "--norm", norm.arg, "--json"]
            yield Op("mineball", lambda argv=argv: run_cli(argv),
                     lambda out, ref=norm.ref, pts=pts: self._check_ball(ref, pts, out))

    @staticmethod
    def _check_k(ref, pts, k, comb, measure, cache, out):
        if "table" not in cache:
            cache["table"] = (subset_diameters(ref.dist_matrix(pts)) if measure == "diameter"
                              else subset_radii(ref, pts))
        res = report(out)
        part = res["partition"]
        check_clusterk(ref, pts, k, comb, measure, res["value"], part["clusters"], part["measures"],
                       table=cache["table"])

    @staticmethod
    def _check_ball(ref, pts, out):
        res = report(out)
        check_mineball(ref, pts, res["center"], res["radius"])


# --------------------------------------------------------------------------
# balltree: tree of ball hulls, far-point replay, ball hulls


class BallTree(Workload):
    """Per norm family, a tree at a radius where the root hull exists and one
    where subtrees go OVERFULL, each on its own points and followed by a
    replay of 14 queries and 6 deletions; then ball hulls of mid-size sets.
    Two input blocks: a query's cost depends on the shape of its tree, and
    twelve trees per run steady the median over the queries."""

    name = "balltree"
    BLOCKS = 2
    FAMILIES = ("euclidean", "l1", "two_arc")
    N_TREE = 1000
    RADII = (0.7, 0.3)                # times the diameter
    REPLAY = "qqdqqdqqdqqqdqqdqqdq"
    HULL_SIZES = (100, 200)
    ops_per_round = len(FAMILIES) * (len(RADII) * (1 + len(REPLAY)) + len(HULL_SIZES))

    def make_inputs(self, rng, tag, offset):
        trees, hulls = [], []
        for name in self.FAMILIES:
            ref = self.norms[name].ref
            for frac in self.RADII:
                pts = rng.uniform(0, 100, size=(self.N_TREE, 2)) + offset
                diam = ref.diameter(pts)
                trees.append((name, pts, diam, frac * diam,
                              rng.uniform(-10, 110, size=(len(self.REPLAY), 2)) + offset,
                              rng.random(len(self.REPLAY))))
            for n in self.HULL_SIZES:
                sub = rng.uniform(0, 10, size=(n, 2)) + offset
                hulls.append((name, sub, float(rng.uniform(0.7, 1.2)) * ref.diameter(sub)))
        return trees, hulls

    def warm_up(self, rng):
        for name in self.FAMILIES:
            plane = self.norms[name].plane
            pts = rng.uniform(0, 10, size=(64, 2))
            tree = ballhull.build_tree(plane, pts, 6.0)
            ballhull.query_far_point(tree, (5.0, 5.0))
            ballhull.delete_point(tree, tree.points[0])
            ballhull.ball_hull(plane, pts, 12.0)

    def round(self, r):
        """Build and delete return the tree's root as it was right after the
        call, because checks run after the round, when later deletions have
        changed the tree."""
        trees, hulls = self.inputs(r)
        for name, pts, diam, d, queries, picks in trees:
            norm = self.norms[name]

            def build(plane=norm.plane, pts=pts, d=d):
                tree = ballhull.build_tree(plane, pts, d)
                return tree, tree.root

            built = yield Op("build_tree", build,
                             lambda out, ref=norm.ref, pts=pts, diam=diam, d=d:
                             self._check_root(ref, out[1], pts, d, diam))
            tree = built[0] if built else None
            live = sorted(map(tuple, pts.tolist()))
            for step, u, pick in zip(self.REPLAY, queries, picks):
                if step == "q":
                    yield Op("query_far_point", lambda tree=tree, u=tuple(u): ballhull.query_far_point(tree, u),
                             lambda got, ref=norm.ref, live=np.asarray(live), u=u, d=d:
                             check_far_point(ref, live, u, d, got))
                else:
                    victim = live.pop(int(pick * len(live)))

                    def delete(tree=tree, v=victim):
                        ballhull.delete_point(tree, v)
                        return tree.root

                    yield Op("delete_point", delete,
                             lambda root, ref=norm.ref, live=np.asarray(live), d=d:
                             self._check_root(ref, root, live, d))
        for name, pts, d in hulls:
            norm = self.norms[name]
            yield Op("ball_hull", lambda plane=norm.plane, pts=pts, d=d: ballhull.ball_hull(plane, pts, d),
                     lambda h, ref=norm.ref, pts=pts, d=d:
                     check_ball_hull(ref, pts, d, h.vertices, h.support_centers))

    @staticmethod
    def _check_root(ref, root, pts, d, diam=None):
        """After a build, the root's kind must match the set's width; after a
        deletion, a root hull must still cover the live points."""
        overfull = root is ballhull.OVERFULL
        if diam is not None:
            check_tree_root(ref, pts, d, diam, overfull, () if overfull else root.vertices,
                            () if overfull else root.support_centers)
        elif not overfull:
            check_ball_hull(ref, pts, d, root.vertices, root.support_centers)


WORKLOADS = {w.name: w for w in (Separate, Threshold, KCluster, BallTree)}
