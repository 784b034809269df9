"""Spans at the boundaries between normclust's layers, for traced runs only.

``Tracer.install`` replaces, inside this process, every module attribute
through which normclust reaches one of the functions in ``WATCH``: the
defining module's own name (so calls looked up at call time, such as
``clustering.hr_feasible_3cluster`` from ``min_max_3cluster``, are caught)
and every alias another module imported.  A span records its name, a label,
its parent, start and end; spans stay in memory and are written when the
run ends.  The gauges are only counted, since timing calls that small would
measure the wrapper.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import normclust
from normclust import ballhull, cli, clustering, geometry, norm, oracle, separation

MODULES = {"norm": norm, "geometry": geometry, "separation": separation,
           "ballhull": ballhull, "clustering": clustering, "cli": cli}


def _plane_kind(args, result):
    return args[0].descriptor.kind


def _witness(args, result):
    return result.witness.value


# (module, function, counted only, label of the call)
WATCH = (
    ("norm", "gauge", True, None),
    ("norm", "gauge_scalar", True, None),
    ("norm", "pairwise_distances", False, None),
    ("norm", "sphere_sphere_intersection", False, _plane_kind),
    ("geometry", "convex_hull", False, None),
    ("geometry", "diameter", False, None),
    ("geometry", "norm_perimeter", False, None),
    ("geometry", "stabbing_line", False, None),
    ("separation", "separate_clusters", False, _witness),
    ("ballhull", "build_tree", False, _plane_kind),
    ("ballhull", "ball_hull", False, None),
    ("ballhull", "delete_point", False, None),
    ("ballhull", "query_far_point", False, None),
    ("clustering", "avis_min_max_2cluster", False, None),
    # not reported; keeps its own threshold search out of cli.main's self time
    ("clustering", "min_max_3cluster", False, None),
    ("clustering", "hr_feasible_3cluster", False, None),
    ("clustering", "constrained_2cluster", False, None),
    ("clustering", "k_cluster_minimize", False, None),
    ("clustering", "min_enclosing_ball", False, _plane_kind),
    ("cli", "main", False, None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []      # [name, label, parent, t0_ns, t1_ns]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def begin(self, name: str, label=None) -> int:
        idx = len(self.spans)
        self.spans.append([name, label, self._stack[-1] if self._stack else -1, time.perf_counter_ns(), 0])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][4] = time.perf_counter_ns()

    def _span_wrapper(self, fn, name, labeller):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(idx)
            if labeller is not None:
                self.spans[idx][1] = labeller(args, result)
            return result
        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self) -> None:
        holders = list(MODULES.values()) + [oracle, normclust]
        for mod, fname, count_only, labeller in WATCH:
            orig = getattr(MODULES[mod], fname)
            name = f"{mod}.{fname}"
            wrapper = (self._count_wrapper(orig, name) if count_only
                       else self._span_wrapper(orig, name, labeller))
            for holder in holders:
                for attr, value in list(vars(holder).items()):
                    if value is orig:
                        setattr(holder, attr, wrapper)
                        self._patched.append((holder, attr, orig))

    def uninstall(self) -> None:
        for holder, attr, orig in reversed(self._patched):
            setattr(holder, attr, orig)
        self._patched.clear()

    def write(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans} | {str(s[1]) for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        arr = np.array([(index[s[0]], index[str(s[1])], s[2], s[3], s[4]) for s in self.spans],
                       dtype=np.int64).reshape(-1, 5)
        np.savez_compressed(path, names=np.array(names), spans=arr,
                            columns=np.array(["name", "label", "parent", "t0_ns", "t1_ns"]))

    # ----------------------------------------------------------------------

    def layer_metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics; calls and seconds are per round, medians over the run."""
        spans = self.spans
        child = [0] * len(spans)
        for s in spans:
            if s[2] >= 0:
                child[s[2]] += s[4] - s[3]
        calls, total, own = Counter(), defaultdict(int), defaultdict(int)
        durs: dict[str, list[int]] = defaultdict(list)

        def root_label(i):
            while spans[i][2] >= 0:
                i = spans[i][2]
            return spans[i][1]

        for i, (name, label, _parent, t0, t1) in enumerate(spans):
            for key in (name, f"{name}.{label}") if label is not None else (name,):
                calls[key] += 1
                total[key] += t1 - t0
                own[key] += t1 - t0 - child[i]
                durs[key].append(t1 - t0)
            if name == "clustering.k_cluster_minimize":
                durs[f"{name}.{root_label(i).rsplit('.', 1)[-1]}"].append(t1 - t0)

        per = max(rounds, 1)

        def n_calls(key):
            return (calls[key] / per, "count")

        def seconds(key):
            return (total[key] / 1e9 / per, "s")

        def self_s(key):
            return (own[key] / 1e9 / per, "s")

        def ms_p50(key):
            return (float(np.median(durs[key])) / 1e6 if durs[key] else 0.0, "ms")

        m = {
            "norm.pairwise_distances.calls": n_calls("norm.pairwise_distances"),
            "norm.pairwise_distances.s": seconds("norm.pairwise_distances"),
            "norm.gauge.calls": (self.counts["norm.gauge"] / per, "count"),
            "norm.gauge_scalar.calls": (self.counts["norm.gauge_scalar"] / per, "count"),
        }
        for kind in ("polygon", "two_arc"):
            key = f"norm.sphere_sphere_intersection.{kind}"
            m[f"{key}.calls"], m[f"{key}.s"] = n_calls(key), seconds(key)
        for fn in ("convex_hull", "diameter", "norm_perimeter", "stabbing_line"):
            key = f"geometry.{fn}"
            m[f"{key}.calls"], m[f"{key}.s"] = n_calls(key), seconds(key)
        m["separation.separate_clusters.self_s"] = self_s("separation.separate_clusters")
        for w in ("no_bad_pairs", "disjoint_hulls", "group_split", "fallback_split"):
            key = f"separation.separate_clusters.{w}"
            m[f"separation.witness.{w}.count"] = n_calls(key)
            m[f"separation.witness.{w}.ms_p50"] = ms_p50(key)
        for kind in ("euclidean", "polygon", "two_arc"):
            m[f"ballhull.build_tree.{kind}.s"] = seconds(f"ballhull.build_tree.{kind}")
        m["ballhull.ball_hull.calls"] = n_calls("ballhull.ball_hull")
        m["ballhull.ball_hull.s"] = seconds("ballhull.ball_hull")
        m["ballhull.delete_point.ms_p50"] = ms_p50("ballhull.delete_point")
        m["ballhull.query_far_point.ms_p50"] = ms_p50("ballhull.query_far_point")
        m["clustering.avis_min_max_2cluster.self_s"] = self_s("clustering.avis_min_max_2cluster")
        m["clustering.hr_feasible_3cluster.calls"] = n_calls("clustering.hr_feasible_3cluster")
        m["clustering.hr_feasible_3cluster.self_s"] = self_s("clustering.hr_feasible_3cluster")
        m["clustering.constrained_2cluster.self_s"] = self_s("clustering.constrained_2cluster")
        m["clustering.k_cluster_minimize.self_s"] = self_s("clustering.k_cluster_minimize")
        m["clustering.k_cluster_minimize.first_ms_p50"] = ms_p50("clustering.k_cluster_minimize.first")
        m["clustering.k_cluster_minimize.repeat_ms_p50"] = ms_p50("clustering.k_cluster_minimize.repeat")
        for kind in ("euclidean", "polygon", "two_arc"):
            key = f"clustering.min_enclosing_ball.{kind}"
            m[f"{key}.calls"], m[f"{key}.s"] = n_calls(key), seconds(key)
        m["cli.main.self_s"] = self_s("cli.main")
        return m
