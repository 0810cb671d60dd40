"""A fixed reference workload that measures how fast the machine is running.

On a shared machine the same op can take 25% longer in one run than in the
next.  The benchmark times this reference between its ops and scales every
op time by how much slower or faster than nominal the reference ran around
it.  The reference is frozen here: the first seed pairs of the verifier's
partition-refinement block scan, on a fixed d=512 group, with a copy of the
package's pure-Python `minimal_block` as of the commit that added this
benchmark.  Changes to the package leave it alone, so they show in the
normalized figures, while the machine's drift mostly cancels.
"""

from __future__ import annotations

import random
import time

DEGREE = 512
SEEDS = 32  # seed pairs (1, y) scanned per reading
NOMINAL_MS = 30.0  # the reference's typical time on the 2-core VM it was tuned on

_rng = random.Random(20260823)
_GENS = [tuple(_rng.sample(range(1, DEGREE + 1), DEGREE)) for _ in range(3)]


def _find(parent, x):
    root = x
    while parent[root] != root:
        root = parent[root]
    while parent[x] != root:
        parent[x], x = root, parent[x]
    return root


def _minimal_block(gens, d, x, y):
    parent = list(range(d + 1))

    def union(a, b):
        ra = _find(parent, a)
        rb = _find(parent, b)
        if ra == rb:
            return None
        if rb < ra:
            ra, rb = rb, ra
        parent[rb] = ra
        return ra, rb

    queue = []
    first = union(x, y)
    if first is not None:
        queue.append(first)
    while queue:
        a, b = queue.pop()
        for g in gens:
            merged = union(g[a - 1], g[b - 1])
            if merged is not None:
                queue.append(merged)
    rx = _find(parent, x)
    return tuple(z for z in range(1, d + 1) if _find(parent, z) == rx)


def reference_ms() -> float:
    """Time the block scan over the first seed pairs (1, y) of the fixed group."""
    t0 = time.perf_counter()
    for y in range(2, SEEDS + 2):
        _minimal_block(_GENS, DEGREE, 1, y)
    return (time.perf_counter() - t0) * 1000


class Speedometer:
    """Reference times taken through a run, and the local scale factor.

    `scale(t)` is NOMINAL_MS over the median reference time within WINDOW_S
    seconds of t (at least the three nearest readings), so an op timed at a
    slow moment of the machine is scaled down by as much as the reference
    was slowed around it.
    """

    WINDOW_S = 2.0

    def __init__(self):
        self.readings: list[tuple[float, float]] = []  # (time taken, ms)

    def read(self) -> None:
        ms = reference_ms()
        self.readings.append((time.perf_counter() - ms / 2000, ms))

    def scale(self, t: float) -> float:
        near = [ms for at, ms in self.readings if abs(at - t) <= self.WINDOW_S]
        if len(near) < 3:
            near = [ms for _, ms in sorted(self.readings, key=lambda r: abs(r[0] - t))[:3]]
        near.sort()
        mid = len(near) // 2
        local = near[mid] if len(near) % 2 else (near[mid - 1] + near[mid]) / 2
        return NOMINAL_MS / local
