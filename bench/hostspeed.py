"""The reference computation that the benchmark's times are expressed in.

This host shares its cores with other tenants.  A fixed computation runs at
one speed or up to about twice as slow, switching every few tens of
milliseconds and sometimes staying slow for a whole run, so raw times of the
same code differ by 30% or more between runs a minute apart (README.md,
*Steadiness*).  The benchmark therefore times, after every operation, this
fixed computation as well and reports each operation's time as a multiple
of the reference's median time in the same round: both slow down together,
and the ratio moves far less than raw seconds do.

The computation resembles the program's own mix: a pure-Python convex hull
and double loop over small tuples, then a small numpy distance matrix.  It
calls nothing from normclust, so a change to the program cannot change it.
One call takes about 0.25 ms on this host.
"""

from __future__ import annotations

import time

import numpy as np

_POINTS = [tuple(p) for p in np.random.default_rng(0).uniform(-10, 10, size=(48, 2)).tolist()]
_ARRAY = np.array(_POINTS)


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def reference() -> float:
    pts = sorted(_POINTS)
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    total = 0.0
    for a in lower:
        for b in upper:
            total += abs(a[0] - b[0]) + abs(a[1] - b[1])
    d = np.abs(_ARRAY[:, None, :] - _ARRAY[None, :, :]).sum(-1)
    return total + float(d.max()) + float(np.linalg.norm(_ARRAY, axis=1).sum())


def reference_ns() -> int:
    """Time of one reference computation, in nanoseconds."""
    t0 = time.perf_counter_ns()
    reference()
    return time.perf_counter_ns() - t0
