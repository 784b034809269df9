"""Cluster separation without diameter increase.

Given clusters A and B, produce linearly separable A', B' with
diam(A') <= diam(A), diam(B') <= diam(B) and A' u B' = A u B.  Hulls that
do not cross and that a line separates keep A and B.  Else,
when conv(A u B) is no wider than the wider cluster, A' = A u B; if not, the
construction decomposes the hull boundaries into interlacing pieces, finds
"bad" piece pairs whose cross distance exceeds the larger diameter, groups
them, and cuts along a line through two boundary crossings.  Where the
construction does not apply (a hull of one or two points, or a collinear
one) or fails, the best split among the line dissections is taken instead.
Whichever path chose A' and B', the reported line is found from their
hulls by one exact routine (``_disjoint_line``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import EmptyCluster, NoOverlap, NormClustError
from .geometry import (
    ConvexPolygon,
    OrientedLine,
    convex_hull,
    cross_sign,
    horizontal_line,
    line_dissections,
    line_splits,
    line_through,
    norm_perimeter,
    orient,
    orient_lines,
    polygon_diameter,
    signed_offset,
    subset_diameters,
)
from .norm import NormedPlane, Point, Segment, as_array, check_finite, gauge, pairwise_distances


class SeparationWitness(enum.Enum):
    NO_BAD_PAIRS = "no_bad_pairs"
    DISJOINT_HULLS = "disjoint_hulls"
    GROUP_SPLIT = "group_split"
    # candidate-line search: degenerate hulls, or a group split whose
    # perimeter sum failed to decrease (possible on flat-sided norms)
    FALLBACK_SPLIT = "fallback_split"


@dataclass(frozen=True)
class _Crossing:
    point: Point
    ia: int
    ta: float
    ib: int
    tb: float


@dataclass(frozen=True)
class CrossingSequence:
    """Boundary crossings of conv(A) and conv(B), with the two hulls."""

    records: tuple[_Crossing, ...]  # counterclockwise along the A hull
    hull_a: ConvexPolygon
    hull_b: ConvexPolygon

    def __len__(self) -> int:
        return len(self.records)


@dataclass(frozen=True)
class Piece:
    """One boundary piece, between the crossings at its clockwise entry and
    exit."""

    owner: str  # "A" or "B"
    index: int  # 0-based within its owner, clockwise
    polygon: ConvexPolygon
    entry_point: Point
    exit_point: Point


@dataclass(frozen=True)
class BadPairRecord:
    pieces: tuple[int, int]  # (A-piece index, B-piece index)
    witness: Segment
    length: float


@dataclass(frozen=True)
class GroupDecomposition:
    groups_a: tuple[tuple[int, ...], ...]
    groups_b: tuple[tuple[int, ...], ...]


@dataclass(frozen=True)
class SeparationResult:
    a_prime: tuple[Point, ...]
    b_prime: tuple[Point, ...]
    line: OrientedLine
    witness: SeparationWitness


# --------------------------------------------------------------------------
# boundary crossings


def _edge_cross(a1: Point, a2: Point, b1: Point, b2: Point, eps: float):
    """Proper transversal crossing of two closed segments, or None."""
    d1 = (a2.x - a1.x, a2.y - a1.y)
    d2 = (b2.x - b1.x, b2.y - b1.y)
    den = d1[0] * d2[1] - d1[1] * d2[0]
    if abs(den) <= eps:
        return None
    rx, ry = b1.x - a1.x, b1.y - a1.y
    t = (rx * d2[1] - ry * d2[0]) / den
    u = (rx * d1[1] - ry * d1[0]) / den
    if -1e-12 <= t <= 1 + 1e-12 and -1e-12 <= u <= 1 + 1e-12:
        return (
            Point(a1.x + t * d1[0], a1.y + t * d1[1]),
            min(max(t, 0.0), 1.0),
            min(max(u, 0.0), 1.0),
        )
    return None


def boundary_crossings(conv_a: ConvexPolygon, conv_b: ConvexPolygon) -> CrossingSequence:
    """All transversal boundary intersection points, counterclockwise along
    the A hull.

    Empty when the hulls are disjoint or nested.  The crossings are computed
    points, so edges count as parallel, and two crossings as one, within
    bands relative to the two hulls' extent.
    """
    if conv_a.degenerate or conv_b.degenerate:
        return CrossingSequence((), conv_a, conv_b)
    va, vb = conv_a.vertices, conv_b.vertices
    xs, ys = [p.x for p in va + vb], [p.y for p in va + vb]
    extent = max(max(xs) - min(xs), max(ys) - min(ys))
    eps = 1e-9 * extent * extent
    recs: list[_Crossing] = []
    for ia in range(len(va)):
        a1, a2 = va[ia], va[(ia + 1) % len(va)]
        for ib in range(len(vb)):
            b1, b2 = vb[ib], vb[(ib + 1) % len(vb)]
            hit = _edge_cross(a1, a2, b1, b2, eps)
            if hit is not None:
                pt, t, u = hit
                recs.append(_Crossing(pt, ia, t, ib, u))
    # dedupe near-identical points (vertex grazing produces twins)
    recs.sort(key=lambda r: (r.ia, r.ta))
    dedup: list[_Crossing] = []
    for r in recs:
        if all(max(abs(r.point.x - s.point.x), abs(r.point.y - s.point.y)) > 1e-6 * extent for s in dedup):
            dedup.append(r)
    return CrossingSequence(tuple(dedup), conv_a, conv_b)


# --------------------------------------------------------------------------
# piece decomposition


def _walk(hull: ConvexPolygon, pos1, pos2, p1: Point, p2: Point) -> list[Point]:
    """Boundary polyline from p1 (at pos1) CCW to p2 (at pos2): the vertices
    that end edges i1 .. i2 - 1, once round when p2 is behind p1 on one edge."""
    verts = hull.vertices
    (i1, t1), (i2, t2) = pos1, pos2
    steps = 0 if i1 == i2 and t2 >= t1 else (i2 - i1) % len(verts) or len(verts)
    return [p1] + [verts[(i1 + s) % len(verts)] for s in range(1, steps + 1)] + [p2]


def _turns(va, vb, c: _Crossing) -> tuple[int, int]:
    """Which run is the outer one into and out of crossing c: -1 for A's, 1
    for B's, 0 for parallel edges; out of c, A's when its edge turns
    clockwise from B's (one exact ``cross_sign`` each way).  Where c is an
    end vertex of the recorded edges (exact ``orient``), the runs pass it
    along the neighbouring edges.  Raises NormClustError for recorded edges
    that do not meet."""
    a0, a1, a2, a3 = (va[(c.ia + s) % len(va)] for s in range(-1, 3))
    b0, b1, b2, b3 = (vb[(c.ib + s) % len(vb)] for s in range(-1, 3))
    at_a1, at_a2 = orient(b1, b2, a1), orient(b1, b2, a2)
    at_b1, at_b2 = orient(a1, a2, b1), orient(a1, a2, b2)
    if at_a1 * at_a2 > 0 or at_b1 * at_b2 > 0:
        raise NormClustError("a crossing whose edges do not meet")
    a_in, a_out = (a0, a1) if at_a1 == 0 else (a1, a2), (a2, a3) if at_a2 == 0 else (a1, a2)
    b_in, b_out = (b0, b1) if at_b1 == 0 else (b1, b2), (b2, b3) if at_b2 == 0 else (b1, b2)
    return cross_sign(*a_in, *b_in), cross_sign(*b_out, *a_out)


def decompose_pieces(crossings: CrossingSequence) -> list[Piece]:
    """Alternating boundary pieces of conv(A)\\conv(B) and conv(B)\\conv(A),
    clockwise, starting with an A piece.

    Two crossings c1 -> c2 consecutive counterclockwise along A bound one A
    chain and one B chain of the hulls' intersection, and the crossings lie
    in the same cyclic order on both hulls (O'Rourke, Chien, Olson and
    Naddor, 1982).  So the A run c1 -> c2 and the counterclockwise B run
    c1 -> c2 bound one piece.  Its owner is the outer run, the one that
    leaves the other hull at c1 and enters it at c2 (``_turns``, one exact
    turn at each end); the inner run bends inwards, so the piece is the hull
    of the owner's run.  A run along the other hull's edge lies on both
    boundaries and takes the owner that alternates with the next run."""
    if len(crossings) < 2:
        raise NoOverlap("hulls are disjoint or nested")
    va, vb = crossings.hull_a.vertices, crossings.hull_b.vertices
    recs = list(crossings.records)
    m = len(recs)
    if m % 2 != 0:
        raise NormClustError("odd crossing count; tangential configuration")

    turns = [_turns(va, vb, c) for c in recs]
    owners = [turns[k][1] or turns[(k + 1) % m][0] for k in range(m)]
    if any(turns[k][1] * turns[(k + 1) % m][0] < 0 for k in range(m)):
        raise NormClustError("a run is outer at one end and inner at the other")
    last = next((k for k in range(m) if owners[k]), 0)
    for k in range(last - 1, last - m, -1):
        owners[k] = owners[k] or -owners[k + 1]
    if 0 in owners or any(o == owners[k - 1] for k, o in enumerate(owners)):
        raise NormClustError("crossing runs do not alternate")
    pieces_ccw = []
    for k, owner in enumerate(owners):
        c1, c2 = recs[k], recs[(k + 1) % m]
        if owner < 0:
            walk = _walk(crossings.hull_a, (c1.ia, c1.ta), (c2.ia, c2.ta), c1.point, c2.point)
        else:
            walk = _walk(crossings.hull_b, (c1.ib, c1.tb), (c2.ib, c2.tb), c1.point, c2.point)
        pieces_ccw.append(("A" if owner < 0 else "B", walk, c1, c2))

    # clockwise presentation: reverse, rotate to start at an A piece
    pieces_cw = list(reversed(pieces_ccw))
    start = next(i for i, p in enumerate(pieces_cw) if p[0] == "A")
    pieces_cw = pieces_cw[start:] + pieces_cw[:start]

    out: list[Piece] = []
    counts = {"A": 0, "B": 0}
    for owner, walk, c1, c2 in pieces_cw:
        # the clockwise entry is the counterclockwise end crossing
        out.append(Piece(owner, counts[owner], convex_hull(walk), entry_point=c2.point, exit_point=c1.point))
        counts[owner] += 1
    # crossings are found within float bands, which merge or miss contacts
    # closer than a band: a piece then reaching into the other hull is refused
    na, nb = len(va), len(vb)
    ends = np.concatenate([(np.arange(na) + 1) % na, na + (np.arange(nb) + 1) % nb])
    left = orient_lines(as_array(va + vb), np.arange(na + nb), ends) > 0
    inner = np.concatenate([left[na:, :na].all(axis=0), left[:na, na:].all(axis=0)]).tolist()
    inside = {v for v, flag in zip(va + vb, inner) if flag}
    if any(v in inside for p in out for v in p.polygon.vertices):
        raise NormClustError("a piece reaches inside the other hull")
    return out


def _cyclic_runs(flags: Sequence[bool]) -> list[list[int]]:
    """The maximal runs of true flags in cyclic order, by first index."""
    n = len(flags)
    if all(flags):
        return [list(range(n))]
    runs: list[list[int]] = []
    start = flags.index(False)  # scan from a gap, so no run is split
    for i in [(start + k) % n for k in range(1, n + 1)]:
        if flags[i]:
            if not flags[i - 1]:
                runs.append([])
            runs[-1].append(i)
    return sorted(runs, key=lambda r: r[0])


def find_bad_structure(plane: NormedPlane, pieces: Sequence[Piece], diam_a: float
                       ) -> tuple[list[BadPairRecord], GroupDecomposition]:
    """Bad piece pairs (cross distance > diam_a) and their maximal cyclic
    groups per cluster."""
    a_pieces = [p for p in pieces if p.owner == "A"]
    b_pieces = [p for p in pieces if p.owner == "B"]
    tol = plane.tolerance * diam_a
    # one gauge call over every pair of an A-piece vertex and a B-piece one
    va = [v for p in a_pieces for v in p.polygon.vertices]
    vb = [v for p in b_pieces for v in p.polygon.vertices]
    g = gauge(plane, (as_array(va)[:, None, :] - as_array(vb)[None, :, :]).reshape(-1, 2))
    g = g.reshape(len(va), len(vb))
    ends_a = np.cumsum([0] + [len(p.polygon) for p in a_pieces])
    ends_b = np.cumsum([0] + [len(p.polygon) for p in b_pieces])
    longest = np.maximum.reduceat(np.maximum.reduceat(g, ends_a[:-1], axis=0), ends_b[:-1], axis=1)
    bad = longest > diam_a + tol  # by A-piece and B-piece index
    records: list[BadPairRecord] = []
    for ia, ib in zip(*np.nonzero(bad)):
        (a0, a1), (b0, b1) = ends_a[ia:ia + 2], ends_b[ib:ib + 2]
        i, j = divmod(int(np.argmax(g[a0:a1, b0:b1])), b1 - b0)
        records.append(BadPairRecord((a_pieces[ia].index, b_pieces[ib].index),
                                     Segment(va[a0 + i], vb[b0 + j]), float(g[a0 + i, b0 + j])))
    groups = GroupDecomposition(
        tuple(tuple(r) for r in _cyclic_runs(bad.any(axis=1).tolist())),
        tuple(tuple(r) for r in _cyclic_runs(bad.any(axis=0).tolist())),
    )
    return records, groups


# --------------------------------------------------------------------------
# the separation construction

_SLACK = 5e-10  # a split may raise a diameter by this share of it


def _side(plane, pts) -> tuple:
    """A split side as the selector reads it: (points, hull or None for no
    points, norm perimeter of the hull)."""
    hull = convex_hull(pts) if pts else None
    return pts, hull, 0.0 if hull is None else norm_perimeter(plane, hull)


def _fits(plane, hull_a, hull_b, diam_a, diam_b) -> bool:
    """Neither side's hull (None for no points) is wider than its bound."""
    return all(hull is None or polygon_diameter(plane, hull)[0] <= bound * (1 + _SLACK)
               for hull, bound in ((hull_a, diam_a), (hull_b, diam_b)))


def _split_line(hull_a, hull_b) -> OrientedLine | None:
    """The line reported for a split: ``_disjoint_line`` of its two hulls,
    or, when one side has no points (None), a supporting line of the other
    with all of it on its own closed side."""
    if hull_a is not None and hull_b is not None:
        return _disjoint_line(hull_a, hull_b)
    v = (hull_b if hull_a is None else hull_a).vertices
    line = horizontal_line(v[0]) if len(v) == 1 else line_through(v[0], v[1])
    return line.reversed() if hull_a is None else line


def _cheapest_split(plane, pairs, diam_a, diam_b, below: float = math.inf):
    """(A', B', line) for the first of the (A side, B side) ``pairs`` (see
    ``_side``), by perimeter sum below ``below``, whose hulls fit the
    diameter bounds and have a ``_split_line``; None when none does.  Only
    the pairs reached are checked."""
    for (a_pts, hull_a, perim_a), (b_pts, hull_b, perim_b) in sorted(
            pairs, key=lambda pair: pair[0][2] + pair[1][2]):
        if not perim_a + perim_b < below:
            break
        line = _split_line(hull_a, hull_b) if _fits(plane, hull_a, hull_b, diam_a, diam_b) else None
        if line is not None:
            return a_pts, b_pts, line
    return None


def _fallback_split(plane, union, diam_a, diam_b):
    """Among the line dissections of the union that raise neither diameter,
    the one with the smallest resulting hull-perimeter sum (one at least as
    good as the constructive answer always exists)."""
    D = pairwise_distances(plane, as_array([tuple(p) for p in union]))
    sides = {}  # a side by its row; a complement is often a row too

    def side(row):
        key = row.tobytes()
        if key not in sides:
            sides[key] = _side(plane, tuple(p for p, keep in zip(union, row) if keep))
        return sides[key]

    rows = line_dissections(union)
    fit = ((subset_diameters(D, rows) <= diam_a * (1 + _SLACK))
           & (subset_diameters(D, ~rows) <= diam_b * (1 + _SLACK)))
    # a line dissection's sides are decided exactly, so its line exists
    split = _cheapest_split(plane, [(side(row), side(~row)) for row in rows[fit]], diam_a, diam_b)
    if split is None:
        raise NormClustError("no valid separable split found (unexpected)")
    return split


def _splitting_line(pieces, records, groups) -> OrientedLine:
    """The splitting line of the construction: pick the last bad A piece of
    the first group; the line runs through the crossing before the first bad
    B piece after it and the crossing after its last bad partner."""
    piece_pos = {(p.owner, p.index): pos for pos, p in enumerate(pieces)}
    m = len(pieces)
    a_i = groups.groups_a[0][-1]
    pos_ai = piece_pos[("A", a_i)]

    def disp(owner_idx):
        return (piece_pos[("B", owner_idx)] - pos_ai) % m

    partners = sorted({r.pieces[1] for r in records if r.pieces[0] == a_i})
    all_bad_b = sorted({r.pieces[1] for r in records})
    b_first = min(all_bad_b, key=disp)
    b_last = max(partners, key=disp)

    pc_first, pc_last = pieces[piece_pos[("B", b_first)]], pieces[piece_pos[("B", b_last)]]
    if pc_first.entry_point == pc_last.exit_point:
        raise NormClustError("degenerate splitting line")
    line = line_through(pc_first.entry_point, pc_last.exit_point)

    # B' lives on the side of B_first's piece
    verts = pc_first.polygon.vertices + pc_last.polygon.vertices
    ref_off = max((signed_offset(line, v) for v in verts), key=abs)
    if ref_off == 0.0:
        raise NormClustError("cannot orient the splitting line")
    # orient so that the A' side is the closed left side
    return line.reversed() if ref_off > 0 else line


def _split_assignments(union, line):
    """Splits of the union by ``line``: strict sides are fixed (left = A');
    the points on the line go to A' as a prefix or a suffix of their order
    along it (``line_splits``).  The line runs through computed crossings,
    so "on" is a band of 1e-9 of the union's extent."""
    pts = as_array([tuple(p) for p in union])
    dx, dy = line.direction
    band = 1e-9 * float(np.ptp(pts, axis=0).max()) * max(abs(dx), abs(dy))
    rel = pts - np.array(line.anchor)
    det = dx * rel[:, 1] - dy * rel[:, 0]
    rows = line_splits((det > band)[None], (np.abs(det) <= band)[None], (rel @ np.array((dx, dy)))[None])
    for row in rows:
        yield (tuple(p for p, to_a in zip(union, row) if to_a),
               tuple(p for p, to_a in zip(union, row) if not to_a))


def _group_split(plane, union, crossings, diam_a, diam_b):
    """The construction's split of A u B along ``_splitting_line``, for hulls
    whose boundaries cross and a union wider than diam(A).  Raises
    NormClustError where it does not apply: a decomposition that fails, no
    bad pair, or no split that fits, lowers the perimeter sum and has a
    separating line."""
    pieces = decompose_pieces(crossings)
    records, groups = find_bad_structure(plane, pieces, diam_a)
    if not records:
        raise NormClustError("no bad pairs but the union diameter grew")
    # boundaries cross here, so the hull interiors overlap and the
    # perimeter sum must drop strictly; on flat-sided norms the rule's
    # line may hit a chord of half the intersection's perimeter, and then
    # the fallback finds a strictly decreasing split instead
    before = norm_perimeter(plane, crossings.hull_a) + norm_perimeter(plane, crossings.hull_b)
    splits = _split_assignments(union, _splitting_line(pieces, records, groups))
    split = _cheapest_split(plane, [(_side(plane, a_pts), _side(plane, b_pts)) for a_pts, b_pts in splits],
                            diam_a, diam_b, before - 1e-9 * before)
    if split is None:
        raise NormClustError("group split found no separable split that lowers the perimeter sum")
    return split


def _disjoint_line(hull_a: ConvexPolygon, hull_b: ConvexPolygon) -> OrientedLine | None:
    """A line with A's hull on its closed left and B's on its closed right,
    or None; the A and B vertices on it must not interleave in (x, y) order,
    though they may share an end.  Every side test is exact.

    The candidates are A's directed edges, B's reversed edges (a hull of two
    vertices has both directions) and, for two single points, the line
    through them.  They suffice: each side of conv(A) - conv(B) is parallel
    to an edge of A or B, and when a line separates the hulls, the origin
    lies on the closed outer side of one side's line; the matching edge
    line of A or B then separates them."""
    va, vb = hull_a.vertices, hull_b.vertices
    na, nb = len(va), len(vb)
    if na == nb == 1:
        return horizontal_line(va[0]) if va[0] == vb[0] else line_through(va[0], vb[0])
    ka, kb = np.arange(na if na > 1 else 0), np.arange(nb if nb > 1 else 0)
    i = np.concatenate([ka, na + (kb + 1) % nb])
    j = np.concatenate([(ka + 1) % na, na + kb])
    verts = va + vb
    sign = orient_lines(as_array(verts), i, j)
    for c in np.flatnonzero((sign[:, :na] >= 0).all(axis=1) & (sign[:, na:] <= 0).all(axis=1)).tolist():
        on_a = [v for v, s in zip(va, sign[c, :na]) if s == 0]
        on_b = [v for v, s in zip(vb, sign[c, na:]) if s == 0]
        if not on_a or not on_b or max(on_a) <= min(on_b) or max(on_b) <= min(on_a):
            return OrientedLine(verts[i[c]], verts[j[c]])
    return None


def _merged(plane, union, hull_a, hull_b, diam_a):
    """A' = A u B and B' empty, when conv(A u B) is no wider than diam(A)."""
    # the exact hulls keep every vertex, so their vertices span conv(A u B)
    hull = convex_hull(hull_a.vertices + hull_b.vertices)
    if polygon_diameter(plane, hull)[0] <= diam_a * (1 + _SLACK):
        return (union, (), _split_line(hull, None), SeparationWitness.NO_BAD_PAIRS)
    return None


def _separate_ordered(plane, a_points, hull_a, diam_a, b_points, hull_b, diam_b):
    """Core construction assuming diam(A) >= diam(B), given both hulls.
    The witnesses are tried in this order:

    1. DISJOINT_HULLS, for hulls whose boundaries do not cross (no crossings
       are taken for a hull of one or two points or a collinear one): an
       edge line of either hull with A on its closed left, B on its closed
       right (``_disjoint_line``).  Nested hulls of three or more vertices
       have no such line.
    2. NO_BAD_PAIRS, A' = A u B: diam(conv(A u B)) <= diam(A).  It leaves no
       bad piece pair, so the piece decomposition is built only when it
       fails.
    3. GROUP_SPLIT, for crossing boundaries (``_group_split``).
    4. FALLBACK_SPLIT, the best line dissection (``_fallback_split``).
    """
    union = tuple(a_points) + tuple(b_points)
    crossings = boundary_crossings(hull_a, hull_b)
    crossing = len(crossings) >= 2
    if not crossing:
        line = _disjoint_line(hull_a, hull_b)
        if line is not None:
            return (tuple(a_points), tuple(b_points), line, SeparationWitness.DISJOINT_HULLS)
    merged = _merged(plane, union, hull_a, hull_b, diam_a)
    if merged is not None:
        return merged
    if crossing:
        try:
            return (*_group_split(plane, union, crossings, diam_a, diam_b),
                    SeparationWitness.GROUP_SPLIT)
        except NormClustError:
            pass
    return (*_fallback_split(plane, union, diam_a, diam_b), SeparationWitness.FALLBACK_SPLIT)


def separate_clusters(plane: NormedPlane, a_points, b_points) -> SeparationResult:
    """Produce linearly separable A', B' covering A u B with no diameter
    increase on either side."""
    a_list = [Point(float(p[0]), float(p[1])) for p in a_points]
    b_list = [Point(float(p[0]), float(p[1])) for p in b_points]
    if not a_list or not b_list:
        raise EmptyCluster("both clusters must be nonempty")
    check_finite(a_list + b_list)
    # each cluster is hulled once; its diameter is read from that hull
    hull_a, hull_b = convex_hull(a_list), convex_hull(b_list)
    a = (a_list, hull_a, polygon_diameter(plane, hull_a)[0])
    b = (b_list, hull_b, polygon_diameter(plane, hull_b)[0])
    if b[2] > a[2]:
        b_prime, a_prime, line, witness = _separate_ordered(plane, *b, *a)
        return SeparationResult(tuple(a_prime), tuple(b_prime), line.reversed(), witness)
    a_prime, b_prime, line, witness = _separate_ordered(plane, *a, *b)
    return SeparationResult(tuple(a_prime), tuple(b_prime), line, witness)


def perimeter_check(plane: NormedPlane, a_points, b_points,
                    result: SeparationResult) -> tuple[float, float]:
    """(before, after) hull-perimeter sums; after <= before, strictly when the
    hull interiors meet."""
    def perimeter(pts):
        return _side(plane, list(pts))[2]

    return (perimeter(a_points) + perimeter(b_points),
            perimeter(result.a_prime) + perimeter(result.b_prime))
