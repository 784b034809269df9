"""Cluster separation without diameter increase.

Given clusters A and B, produce linearly separable A', B' with
diam(A') <= diam(A), diam(B') <= diam(B) and A' u B' = A u B.  Hulls that
do not cross and that a line separates keep A and B.  Else,
when conv(A u B) is no wider than the wider cluster, A' = A u B; if not, the
construction decomposes the hull boundaries into interlacing pieces, finds
"bad" piece pairs whose cross distance exceeds the larger diameter, groups
them, and cuts along a line through two boundary crossings.  The crossings
are decided as if B were moved by (eps, eps^2), eps -> 0+, from exact
signs and one fixed tie-break, so touching hulls and segments (2-gons)
take the construction too.  Where it fails, the best split among the line
dissections is taken instead.  Whichever path chose A' and B', the
reported line is found from their hulls by one exact routine
(``_disjoint_line``).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import EmptyCluster, NoOverlap, NonFiniteResult, NormClustError
from .geometry import (
    ConvexPolygon,
    OrientedLine,
    convex_hull,
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
    # candidate-line search where the construction fails: a group split
    # whose perimeter sum failed to decrease (seen on flat-sided norms), or
    # hulls that touch with their vertices on a common line interleaved
    FALLBACK_SPLIT = "fallback_split"


@dataclass(frozen=True)
class _Crossing:
    ia: int  # the A edge and the B edge that cross here
    ib: int
    leaves: bool  # A leaves conv(B) here; else it enters
    at_vertex: bool  # the unmoved edges meet at an end of one of them
    ends: tuple[Point, Point, Point, Point]  # the A edge's, then the B edge's

    @cached_property
    def point(self) -> Point:
        return _meet(*self.ends)


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
    entry: _Crossing
    exit: _Crossing

    @property
    def entry_point(self) -> Point:
        return self.entry.point

    @property
    def exit_point(self) -> Point:
        return self.exit.point


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


def _lean(p: Point, q: Point) -> int:
    """The side of the line pq moved by (eps, eps^2), eps -> 0+, that a point
    of the unmoved line lies on: the sign of dy, else of -dx, for d = q - p."""
    return (q.y > p.y) - (q.y < p.y) or (p.x > q.x) - (p.x < q.x)


def _meet(a1: Point, a2: Point, b1: Point, b2: Point) -> Point:
    """The point where the lines a1a2 and b1b2, not parallel, meet, each
    coordinate the float nearest it: the coordinates as integers over their
    largest power-of-two denominator, and one correctly rounded division.
    The same lines give the same bits, whichever way their ends run, and
    the point lies between the ends of any two crossing edges, so it is
    finite."""
    nums, dens = zip(*(v.as_integer_ratio() for v in (*a1, *a2, *b1, *b2)))
    top = max(dens)
    ax, ay, bx, by, cx, cy, dx, dy = (q * (top // r) for q, r in zip(nums, dens))
    ex, ey, fx, fy = bx - ax, by - ay, dx - cx, dy - cy
    den = ex * fy - ey * fx
    t = (cx - ax) * fy - (cy - ay) * fx  # the point is a + e t / den
    if den < 0:  # so that a zero comes out as 0.0, never -0.0
        den, t = -den, -t
    return Point((ax * den + ex * t) / (den * top), (ay * den + ey * t) / (den * top))


def boundary_crossings(conv_a: ConvexPolygon, conv_b: ConvexPolygon) -> CrossingSequence:
    """The crossings of the two hull boundaries, counterclockwise along the
    A hull, as if B were moved by (eps, eps^2), eps -> 0+ (Simulation of
    Simplicity: Edelsbrunner and Muecke, ACM TOG 9, 1990).

    An A vertex's side of a B edge line is its exact ``orient``, or where
    that is 0 the side the move takes the line to (``_lean``); a B vertex's
    side of an A edge line is mirrored.  No vertex then lies on the other
    hull's edge lines, so every contact is a proper crossing of one A edge
    and one B edge, decided by four signs, and touching hulls either cross
    or miss.  A hull of two vertices is a 2-gon whose two edges run both
    ways; one of a single vertex has no crossings.  Along an A edge the
    entry into conv(B) precedes the exit, since conv(B) meets the edge in
    one interval, so the order needs no position along the edge.  A
    record's point, computed when first read, is the exact crossing of the
    unmoved edge lines, rounded (``_meet``); it is a hull vertex exactly
    when one of the four signs is 0 (``at_vertex``), since no three
    vertices of a hull are collinear.  Empty when the moved hulls are
    disjoint or nested."""
    va, vb = conv_a.vertices, conv_b.vertices
    if len(va) < 2 or len(vb) < 2:
        return CrossingSequence((), conv_a, conv_b)
    edges_a, edges_b = list(zip(va, va[1:] + va[:1])), list(zip(vb, vb[1:] + vb[:1]))
    # each A vertex's side of each B edge line, computed once; an edge pair
    # whose A ends are on one side is rejected before B's ends turn
    sides = [[orient(b1, b2, v) for v in va] for b1, b2 in edges_b]
    leans = [_lean(b1, b2) for b1, b2 in edges_b]
    recs: list[_Crossing] = []
    for ia, (a1, a2) in enumerate(edges_a):
        ja, lean_a = (ia + 1) % len(va), -_lean(a1, a2)
        hits = []
        for ib, (b1, b2) in enumerate(edges_b):
            s1, s2, lean_b = sides[ib][ia], sides[ib][ja], leans[ib]
            if (s1 or lean_b) != (s2 or lean_b):
                t1, t2 = orient(a1, a2, b1), orient(a1, a2, b2)
                if (t1 or lean_a) != (t2 or lean_a):
                    hits.append(_Crossing(ia, ib, (s1 or lean_b) > 0, 0 in (s1, s2, t1, t2), (a1, a2, b1, b2)))
        recs += sorted(hits, key=lambda c: c.leaves)  # the entry first
    return CrossingSequence(tuple(recs), conv_a, conv_b)


# --------------------------------------------------------------------------
# piece decomposition


def decompose_pieces(crossings: CrossingSequence) -> list[Piece]:
    """Alternating boundary pieces of conv(A)\\conv(B) and conv(B)\\conv(A),
    clockwise, starting with an A piece.

    Two crossings c1 -> c2 consecutive counterclockwise along A bound one A
    chain and one B chain of the hulls' intersection, and the crossings lie
    in the same cyclic order on both hulls (O'Rourke, Chien, Olson and
    Naddor, 1982); under ``boundary_crossings``' move every crossing is
    proper, so A leaves and enters conv(B) in turn.  Where A leaves at c1,
    its run c1 -> c2 is outside conv(B) and the piece is A's; else the
    counterclockwise B run c1 -> c2, where B leaves conv(A), is outside it
    and the piece is B's.  The other run bends inwards, so the piece is the
    hull of its owner's run."""
    if len(crossings) < 2:
        raise NoOverlap("hulls are disjoint or nested")
    recs = crossings.records
    pieces_ccw = []
    for c1, c2 in zip(recs, recs[1:] + recs[:1]):
        owner, verts, i1, i2 = (("A", crossings.hull_a.vertices, c1.ia, c2.ia) if c1.leaves
                                else ("B", crossings.hull_b.vertices, c1.ib, c2.ib))
        # the run passes the vertices that end edges i1 .. i2 - 1, once round
        # when i1 == i2: it leaves the other hull at c1, and along one edge
        # a hull enters the other before it leaves
        steps = (i2 - i1) % len(verts) or len(verts)
        run = [c1.point] + [verts[(i1 + s) % len(verts)] for s in range(1, steps + 1)] + [c2.point]
        pieces_ccw.append((owner, convex_hull(run), c1, c2))
    # clockwise from an A piece; the owners alternate, so the k-th piece is
    # its owner's (k // 2)-th, and its clockwise entry is its
    # counterclockwise end
    pieces_cw = pieces_ccw[::-1]
    start = next(k for k, p in enumerate(pieces_cw) if p[0] == "A")
    return [Piece(owner, k // 2, hull, entry=c2, exit=c1)
            for k, (owner, hull, c1, c2) in enumerate(pieces_cw[start:] + pieces_cw[:start])]


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
    B piece after it and the crossing after its last bad partner.

    Where those two crossings coincide, as at the spike of a segment that
    enters and leaves the other hull through one of its edges, the line is
    their limit, the line of the edge that carries both.  Proof: in
    ``boundary_crossings``' moved configuration the two are distinct points
    of that edge for every eps > 0, so the line through them is the edge's
    line, and the move's limit keeps it.  Two coincident crossings that
    share no edge raise NormClustError.  B' takes the side of the B pieces,
    or where they lie on the line (a segment's own line) the side away
    from the A piece."""
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
    c1, c2 = pc_first.entry, pc_last.exit
    if c1.point != c2.point:
        line = line_through(c1.point, c2.point)
    elif c1.ia == c2.ia or c1.ib == c2.ib:
        line = line_through(*(c1.ends[:2] if c1.ia == c2.ia else c1.ends[2:]))
    else:
        raise NormClustError("degenerate splitting line")

    # B' lives on the side of B_first's piece
    verts = pc_first.polygon.vertices + pc_last.polygon.vertices
    ref_off = max((signed_offset(line, v) for v in verts), key=abs)
    if ref_off == 0.0:  # B's pieces lie on the line: A' lives on a_i's side
        ref_off = -max((signed_offset(line, v) for v in pieces[pos_ai].polygon.vertices), key=abs)
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
    NormClustError where it does not apply: no bad pair, a splitting line
    that cannot be drawn or oriented, or no split that fits, lowers the
    perimeter sum and has a separating line."""
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

    1. DISJOINT_HULLS, for hulls whose boundaries do not cross under
       ``boundary_crossings``' move, or cross only at hull vertices (hulls
       that touch in a point or along a piece may cross once moved): an
       edge line of either hull with A on its closed left, B on its closed
       right (``_disjoint_line``).  Nested hulls of three or more vertices
       have no such line.
    2. NO_BAD_PAIRS, A' = A u B: diam(conv(A u B)) <= diam(A).  It leaves no
       bad piece pair, so the piece decomposition is built only when it
       fails.
    3. GROUP_SPLIT, for crossing boundaries, a segment's two-vertex hull
       included (``_group_split``).
    4. FALLBACK_SPLIT, the best line dissection (``_fallback_split``).
    """
    union = tuple(a_points) + tuple(b_points)
    crossings = boundary_crossings(hull_a, hull_b)
    # hulls that only touch cross under the move at hull vertices alone
    if all(c.at_vertex for c in crossings.records):
        line = _disjoint_line(hull_a, hull_b)
        if line is not None:
            return (tuple(a_points), tuple(b_points), line, SeparationWitness.DISJOINT_HULLS)
    merged = _merged(plane, union, hull_a, hull_b, diam_a)
    if merged is not None:
        return merged
    if crossings.records:
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
    hull interiors meet.  Raises NonFiniteResult when a sum overflows a
    float."""
    def perimeter(pts):
        return _side(plane, list(pts))[2]

    before = perimeter(a_points) + perimeter(b_points)
    after = perimeter(result.a_prime) + perimeter(result.b_prime)
    if not max(before, after) < math.inf:
        raise NonFiniteResult("a perimeter sum does not fit in a float")
    return before, after
