"""Command-line front end: point/norm file IO, one subcommand per algorithm,
JSON reports, and SVG scene output."""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import ballhull as bh
from . import clustering as cl
from .errors import NormClustError, VerificationFailed
from .geometry import OrientedLine, convex_hull, diameter
from .norm import (
    EuclideanNorm,
    NormedPlane,
    Point,
    PolygonNorm,
    euclidean_plane,
    l1_plane,
    linf_plane,
    polygon_plane,
    two_arc_plane,
)
from .separation import perimeter_check, separate_clusters

SCHEMA_VERSION = 1


# --------------------------------------------------------------------------
# file formats


def load_points(path: str) -> list[Point]:
    """CSV rows "x,y"; an optional header line "x,y" is skipped."""
    pts: list[Point] = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line:
                continue
            parts = [p.strip() for p in line.split(",")]
            if lineno == 1 and parts[:2] == ["x", "y"]:
                continue
            if len(parts) < 2:
                raise ValueError(f"{path}:{lineno}: expected 'x,y'")
            x, y = float(parts[0]), float(parts[1])
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"{path}:{lineno}: coordinates must be finite")
            pts.append(Point(x, y))
    if not pts:
        raise ValueError(f"{path}: no points")
    return pts


def load_norm(spec: str, tolerance: float = 1e-9) -> NormedPlane:
    """Named norm ("euclidean", "l1", "linf") or a JSON descriptor file."""
    named = {"euclidean": euclidean_plane, "l1": l1_plane, "linf": linf_plane}
    if spec.lower() in named:
        return named[spec.lower()](tolerance)
    with open(spec, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    kind = doc.get("kind")
    if kind == "euclidean":
        return euclidean_plane(tolerance)
    if kind == "polygon":
        return polygon_plane([(float(x), float(y)) for x, y in doc["vertices"]], tolerance)
    if kind == "two_arc":
        return two_arc_plane(float(doc["center"]), float(doc["radius"]), tolerance)
    raise ValueError(f"unknown norm kind {kind!r}")


def norm_doc(plane: NormedPlane) -> dict:
    desc = plane.descriptor
    if isinstance(desc, EuclideanNorm):
        return {"kind": "euclidean"}
    if isinstance(desc, PolygonNorm):
        return {"kind": "polygon", "vertices": [[v.x, v.y] for v in desc.vertices]}
    return {"kind": "two_arc", "center": desc.center_height, "radius": desc.radius}


# --------------------------------------------------------------------------
# reports


def _emit(report: dict, args) -> None:
    if args.json:
        sys.stdout.write(json.dumps(report, separators=(",", ":")) + "\n")
    else:
        algo = report["algorithm"]
        sys.stdout.write(f"[{algo}]\n")
        for key, val in report["result"].items():
            sys.stdout.write(f"  {key}: {val}\n")
        if report.get("wall_time_ms") is not None:
            sys.stdout.write(f"  wall_time_ms: {report['wall_time_ms']:.3f}\n")


def _report(algorithm: str, plane: NormedPlane, params: dict, result: dict,
            args, t0: float) -> dict:
    # the wall time is reported as null under --json so that identical inputs
    # produce byte-identical reports
    return {
        "schema": SCHEMA_VERSION,
        "algorithm": algorithm,
        "norm": norm_doc(plane),
        "params": params,
        "result": result,
        "wall_time_ms": None if args.json else (time.monotonic() - t0) * 1e3,
    }


def _partition_doc(part: cl.Partition) -> dict:
    return {
        "clusters": [list(c) for c in part.clusters],
        "measures": list(part.measures),
    }


def _line_doc(line: OrientedLine) -> dict:
    return {
        "anchor": [line.anchor.x, line.anchor.y],
        "direction": [line.direction.x, line.direction.y],
    }


# --------------------------------------------------------------------------
# SVG scenes


@dataclass
class Scene:
    points: list[tuple[str, list[Point]]] = field(default_factory=list)
    hulls: list[list[Point]] = field(default_factory=list)
    arcs: list[list[Point]] = field(default_factory=list)     # sampled polylines
    lines: list[OrientedLine] = field(default_factory=list)
    spheres: list[list[Point]] = field(default_factory=list)  # closed curves


def _scene_bounds(scene: Scene):
    xs, ys = [], []
    for _, pts in scene.points:
        xs += [p.x for p in pts]
        ys += [p.y for p in pts]
    for group in scene.hulls + scene.arcs + scene.spheres:
        xs += [p.x for p in group]
        ys += [p.y for p in group]
    if not xs:
        return 0.0, 0.0, 1.0, 1.0
    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    pad = 0.05 * max(x1 - x0, y1 - y0, 1.0)
    return x0 - pad, y0 - pad, x1 + pad, y1 + pad


def emit_svg(scene: Scene, path: str) -> None:
    """Standalone SVG with layered point sets, hulls, arcs, and lines."""
    x0, y0, x1, y1 = _scene_bounds(scene)
    w, h = x1 - x0, y1 - y0
    r = 0.008 * max(w, h)
    palette = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e"]
    out = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="{x0:.6g} {-y1:.6g} {w:.6g} {h:.6g}">'
    ]

    def fmt(pts):
        return " ".join(f"{p.x:.6g},{-p.y:.6g}" for p in pts)

    for hull in scene.hulls:
        if len(hull) >= 2:
            out.append(
                f'<polygon class="hull" points="{fmt(hull)}" fill="none" '
                f'stroke="#888888" stroke-width="{0.3 * r:.6g}"/>'
            )
    for arc in scene.arcs:
        out.append(
            f'<polyline class="arc" points="{fmt(arc)}" fill="none" '
            f'stroke="#444444" stroke-width="{0.3 * r:.6g}"/>'
        )
    for curve in scene.spheres:
        pts = fmt(curve + curve[:1])
        out.append(
            f'<path class="sphere" d="M {pts.replace(" ", " L ")}" fill="none" '
            f'stroke="#777777" stroke-width="{0.25 * r:.6g}"/>'
        )
    for line in scene.lines:
        ax, ay = line.anchor.x, line.anchor.y
        dx, dy = line.direction.x, line.direction.y
        nrm = math.hypot(dx, dy) or 1.0
        span = 2.0 * max(w, h)
        p1 = Point(ax - span * dx / nrm, ay - span * dy / nrm)
        p2 = Point(ax + span * dx / nrm, ay + span * dy / nrm)
        out.append(
            f'<line class="line" x1="{p1.x:.6g}" y1="{-p1.y:.6g}" '
            f'x2="{p2.x:.6g}" y2="{-p2.y:.6g}" stroke="#000000" '
            f'stroke-width="{0.3 * r:.6g}"/>'
        )
    for k, (label, pts) in enumerate(scene.points):
        color = palette[k % len(palette)]
        for p in pts:
            out.append(
                f'<circle class="pt" cx="{p.x:.6g}" cy="{-p.y:.6g}" r="{r:.6g}" '
                f'fill="{color}"><title>{label}</title></circle>'
            )
    out.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(out) + "\n")


# --------------------------------------------------------------------------
# subcommands: each takes the parsed arguments and the loaded plane and
# returns (params, result, exit code); main builds and emits the report


def _cmd_diameter(args, plane):
    pts = load_points(args.points)
    value, (p, q) = diameter(plane, pts)
    result = {"diameter": value, "pair": [[p.x, p.y], [q.x, q.y]]}
    return {"points": len(pts)}, result, 0


# --verify's re-checks allow this share of the bound: the re-check and the
# solver may round the same distance differently (math.hypot against
# np.hypot differ by an ulp)
_REL = 1e-9


def _cmd_separate(args, plane):
    a = load_points(args.a)
    b = load_points(args.b)
    res = separate_clusters(plane, a, b)
    before, after = perimeter_check(plane, a, b, res)
    da, db = diameter(plane, a)[0], diameter(plane, b)[0]
    dap = diameter(plane, res.a_prime)[0] if res.a_prime else 0.0
    dbp = diameter(plane, res.b_prime)[0] if res.b_prime else 0.0
    result = {
        "witness": res.witness.value,
        "line": _line_doc(res.line),
        "a_prime": [[p.x, p.y] for p in res.a_prime],
        "b_prime": [[p.x, p.y] for p in res.b_prime],
        "diam_a": da,
        "diam_b": db,
        "diam_a_prime": dap,
        "diam_b_prime": dbp,
        "perimeter_before": before,
        "perimeter_after": after,
        "invariants": {
            "union_preserved": sorted(map(tuple, res.a_prime + res.b_prime))
            == sorted(map(tuple, tuple(a) + tuple(b))),
            "diam_a_ok": dap <= da * (1 + _REL),
            "diam_b_ok": dbp <= db * (1 + _REL),
            "perimeter_ok": after <= before * (1 + _REL),
        },
    }
    if args.verify and not all(result["invariants"].values()):
        failed = [k for k, ok in result["invariants"].items() if not ok]
        raise VerificationFailed(f"separate: {', '.join(failed)} failed")
    return {"n_a": len(a), "n_b": len(b)}, result, 0


def _cmd_cluster2(args, plane):
    pts = load_points(args.points)
    d_star, part = cl.avis_min_max_2cluster(plane, pts)
    if args.verify:
        # rotating calipers, independent of the spanning-tree split
        for c in part.clusters:
            dd = diameter(plane, [pts[i] for i in c])[0] if c else 0.0
            if dd > d_star * (1 + _REL):
                raise VerificationFailed(f"cluster2: a cluster of diameter {dd} exceeds d* = {d_star}")
    result = {"d_star": d_star, "partition": _partition_doc(part)}
    return {"points": len(pts)}, result, 0


def _cmd_cluster2c(args, plane):
    pts = load_points(args.points)
    part = cl.constrained_2cluster(plane, pts, args.d1, args.d2)
    params = {"points": len(pts), "d1": args.d1, "d2": args.d2}
    if part is None:
        return params, {"feasible": False}, 1
    return params, {"feasible": True, "partition": _partition_doc(part)}, 0


def _cmd_cluster3(args, plane):
    pts = load_points(args.points)
    if args.d is not None:
        part = cl.hr_feasible_3cluster(plane, pts, args.d)
        params = {"points": len(pts), "d": args.d}
        if part is None:
            return params, {"feasible": False}, 1
        return params, {"feasible": True, "partition": _partition_doc(part)}, 0
    d_star, part = cl.min_max_3cluster(plane, pts)
    result = {"d_star": d_star, "partition": _partition_doc(part)}
    return {"points": len(pts)}, result, 0


def _cmd_clusterk(args, plane):
    pts = load_points(args.points)
    objective = cl.Objective(cl.Combiner(args.objective), cl.Measure(args.measure))
    value, part = cl.k_cluster_minimize(plane, pts, args.k, objective)
    result = {
        "value": value,
        "objective": args.objective,
        "measure": args.measure,
        "partition": _partition_doc(part),
    }
    return {"points": len(pts), "k": args.k}, result, 0


def _cmd_ballhull(args, plane):
    pts = load_points(args.points)
    if args.delete is not None and not 0 <= args.delete < len(pts):
        raise NormClustError(f"--delete {args.delete}: no point with that index (0..{len(pts) - 1})")
    tree = bh.build_tree(plane, pts, args.d)
    deleted = None
    if args.delete is not None:
        deleted = pts[args.delete]
        bh.delete_point(tree, deleted)
    # an OVERFULL root (no radius-d ball holds the points) has no boundary
    overfull = tree.root is bh.OVERFULL
    hull = None if overfull else tree.root
    result: dict = {
        "d": args.d,
        "vertices": [[v.x, v.y] for v in hull.vertices] if hull else [],
        "arc_centers": [[a.center.x, a.center.y] for a in hull.arcs] if hull else [],
    }
    if overfull:
        result["overfull"] = True
    if deleted is not None:
        result["deleted"] = [deleted.x, deleted.y]
    if args.query is not None:
        qx, qy = (float(t) for t in args.query.split(","))
        far = bh.query_far_point(tree, (qx, qy))
        result["query"] = [qx, qy]
        result["far_point"] = None if far is None else [far.x, far.y]
    return {"points": len(pts)}, result, 0


def _cmd_mineball(args, plane):
    pts = load_points(args.points)
    center, radius = cl.min_enclosing_ball(plane, pts)
    return {"points": len(pts)}, {"center": [center.x, center.y], "radius": radius}, 0


def _cmd_plot(args, plane):
    pts = load_points(args.points)
    scene = Scene()
    scene.points.append(("points", pts))
    if len(pts) >= 2:
        hull = convex_hull(pts)
        scene.hulls.append(list(hull.vertices))
    if args.b is not None:
        bpts = load_points(args.b)
        scene.points.append(("b", bpts))
        if len(bpts) >= 2:
            scene.hulls.append(list(convex_hull(bpts).vertices))
        res = separate_clusters(plane, pts, bpts)
        scene.lines.append(res.line)
    if args.d is not None:
        hull = bh.ball_hull(plane, pts, args.d)
        for arc in hull.arcs:
            scene.arcs.append(bh.sample_arc(plane, arc, 48))
    for sph in args.sphere or []:
        cx, cy, r = (float(t) for t in sph.split(","))
        curve = [
            bh._sphere_point(plane, Point(cx, cy), r, theta)
            for theta in np.linspace(0, 2 * math.pi, 128, endpoint=False)
        ]
        scene.spheres.append(curve)
    emit_svg(scene, args.out)
    result = {"out": args.out, "elements": len(scene.points) + len(scene.hulls)
              + len(scene.arcs) + len(scene.lines) + len(scene.spheres)}
    return {"points": len(pts)}, result, 0


# --------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, *, points: bool = True, verify: bool = False) -> None:
    p.add_argument("--norm", default="euclidean",
                   help="euclidean | l1 | linf | path to a JSON descriptor")
    if points:
        p.add_argument("--points", required=True, help="CSV point file")
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--json", action="store_true", help="machine-readable report")
    if verify:
        p.add_argument("--verify", action="store_true",
                       help="re-check the reported measures before printing")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    # Built once per process, which is not a cache of results: the parser
    # holds only the fixed option table, no input-dependent state, and each
    # parse_args call returns a fresh namespace.
    ap = argparse.ArgumentParser(prog="normclust",
                                 description="geometric clustering in normed planes")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("diameter", help="normed diameter of a point set")
    _add_common(p)
    p.set_defaults(func=_cmd_diameter)

    p = sub.add_parser("separate", help="split two clusters without diameter increase")
    p.add_argument("--a", required=True, help="CSV point file for cluster A")
    p.add_argument("--b", required=True, help="CSV point file for cluster B")
    _add_common(p, points=False, verify=True)
    p.set_defaults(func=_cmd_separate)

    p = sub.add_parser("cluster2", help="min-max 2-clustering")
    _add_common(p, verify=True)
    p.set_defaults(func=_cmd_cluster2)

    p = sub.add_parser("cluster2c", help="2-clustering with per-cluster diameter bounds")
    _add_common(p)
    p.add_argument("--d1", type=float, required=True)
    p.add_argument("--d2", type=float, required=True)
    p.set_defaults(func=_cmd_cluster2c)

    p = sub.add_parser("cluster3", help="3-clustering (feasibility with --d, else optimize)")
    _add_common(p)
    p.add_argument("--d", type=float, default=None)
    p.set_defaults(func=_cmd_cluster3)

    p = sub.add_parser("clusterk", help="k-clustering minimizing a monotone objective")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--objective", choices=[c.value for c in cl.Combiner], default="max")
    p.add_argument("--measure", choices=[m.value for m in cl.Measure], default="diameter")
    p.set_defaults(func=_cmd_clusterk)

    p = sub.add_parser("ballhull", help="d-ball hull, far-point query, deletion")
    _add_common(p)
    p.add_argument("--d", type=float, required=True)
    p.add_argument("--query", default=None, help="x,y")
    p.add_argument("--delete", type=int, default=None, help="index of a point to delete first")
    p.set_defaults(func=_cmd_ballhull)

    p = sub.add_parser("mineball", help="minimal enclosing ball")
    _add_common(p)
    p.set_defaults(func=_cmd_mineball)

    p = sub.add_parser("plot", help="render points/hulls/arcs/lines to SVG")
    _add_common(p)
    p.add_argument("--b", default=None, help="second point file; draws the separation")
    p.add_argument("--d", type=float, default=None, help="draw the d-ball hull")
    p.add_argument("--sphere", action="append", default=None,
                   help="cx,cy,r -- draw a norm sphere (repeatable)")
    p.add_argument("--out", required=True, help="output SVG path")
    p.set_defaults(func=_cmd_plot)

    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        t0 = time.monotonic()
        plane = load_norm(args.norm, args.tol)
        params, result, code = args.func(args, plane)
        _emit(_report(args.command, plane, params, result, args, t0), args)
        return code
    except (NormClustError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, VerificationFailed) else 2


if __name__ == "__main__":
    sys.exit(main())
