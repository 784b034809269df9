"""Clustering, separation, and ball hulls for planar point sets under
symmetric convex distance functions."""

from .norm import (
    EuclideanNorm,
    NormedPlane,
    Point,
    PolygonNorm,
    Segment,
    SphereIntersection,
    TwoArcNorm,
    boundary_point,
    birkhoff_orthogonal,
    dist,
    euclidean_plane,
    gauge,
    l1_plane,
    linf_plane,
    polygon_plane,
    sphere_sphere_intersection,
    two_arc_plane,
    validate_norm,
)
from .geometry import (
    ConvexPolygon,
    OrientedLine,
    Side,
    convex_hull,
    diameter,
    norm_perimeter,
    side_of,
    stabbing_line,
)
from .separation import (
    BadPairRecord,
    CrossingSequence,
    GroupDecomposition,
    Piece,
    SeparationResult,
    SeparationWitness,
    boundary_crossings,
    decompose_pieces,
    find_bad_structure,
    perimeter_check,
    separate_clusters,
)
from .ballhull import (
    Arc,
    BallHull,
    BallHullTree,
    ball_hull,
    bh_contains,
    build_tree,
    delete_point,
    minimal_arcs,
    query_far_point,
    sample_arc,
)
from .clustering import (
    Combiner,
    Measure,
    Objective,
    Partition,
    Zones,
    avis_min_max_2cluster,
    constrained_2cluster,
    feasible_2cluster,
    hr_feasible_3cluster,
    hr_zones,
    k_cluster_minimize,
    min_enclosing_ball,
    min_max_3cluster,
)
from .oracle import (
    OracleBudget,
    bh_membership_oracle,
    brute_force_k_partition,
    exhaustive_separable_2cluster,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
