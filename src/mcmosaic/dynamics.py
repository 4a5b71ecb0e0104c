"""Event-driven merger dynamics across inhomogeneity levels.

As q grows, scaled clocks slide left and adjacent excursions of the reflected
walk merge: the block rooted at rank j absorbs the block led by rank k+1 at
exactly q = (xi_(k+1) - xi_(j)) / mass(j..k).  One draw of clocks fixes every
merger: the engine reads each rank's absorption time off the upper hull of
the points (mass before the rank, its clock) in one sweep, then replays the
mergers in time order.  Each merger draws one mass-biased edge between the
two blocks, giving a monotone (append-only) forest whose partition matches
the static forest at every level.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress
from typing import Optional

from .core import ClockAssignment, RngStream, WeightedConfig, find

__all__ = [
    "ComponentBlock",
    "MergerEvent",
    "Trajectory",
    "MonotoneForest",
    "run_trajectory",
    "build_monotone_forest",
]


@dataclass(frozen=True)
class ComponentBlock:
    """Consecutive rank range lo..hi (inclusive) forming one component."""

    lo: int
    hi: int
    mass: float

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def ranks(self) -> range:
        return range(self.lo, self.hi + 1)


@dataclass(frozen=True)
class MergerEvent:
    """Absorption of ``right`` by ``left`` at ``time``.

    ``edge`` is the (child, parent) vertex pair drawn mass-biased from the
    right and left blocks respectively.
    """

    time: float
    left: ComponentBlock
    right: ComponentBlock
    edge: tuple[int, int]


@dataclass(frozen=True)
class Trajectory:
    """Ordered merger log, sufficient to replay every later construction."""

    config: WeightedConfig
    clocks: ClockAssignment
    q_max: float
    events: tuple[MergerEvent, ...]

    def _replay(self, q: float) -> tuple[list[int], list[int], list[float]]:
        """Starts, ends and masses of the blocks after the events up to the
        first one with time > q, masses summed in log order."""
        n = len(self.config)
        masses = self.config.masses
        end = list(range(n))
        mass = [masses[v] for v in self.clocks.perm]
        live = [True] * n
        for ev in self.events:
            if ev.time > q:
                break
            j, r = ev.left.lo, ev.right.lo
            end[j] = ev.right.hi
            mass[j] += mass[r]
            live[r] = False
        starts = list(compress(range(n), live))
        return starts, [end[j] for j in starts], [mass[j] for j in starts]

    def blocks_at(self, q: float) -> list[ComponentBlock]:
        """Component blocks after all events with time <= q."""
        return list(map(ComponentBlock, *self._replay(q)))

    def partition_at(self, q: float) -> frozenset[frozenset[int]]:
        """Vertex partition (labels, not ranks) after events with time <= q."""
        perm = self.clocks.perm
        starts, ends, _ = self._replay(q)
        return frozenset(frozenset(perm[lo : hi + 1]) for lo, hi in zip(starts, ends))


def run_trajectory(
    config: WeightedConfig,
    clocks: ClockAssignment,
    rng: RngStream,
    q_max: float,
) -> Trajectory:
    """All mergers with time <= q_max, in time order.

    Rank r is absorbed at q_r = min over i < r of slope(i, r), the slope
    between the points (mass(0..i-1), xi_(i)) and (mass(0..r-1), xi_(r)).
    The argmin lies on the upper hull of the points left of r, and a point
    that falls below the hull never returns to it, so one sweep with a stack
    gives every q_r.  Mergers then run in q_r order over a linked list of
    live roots: rank r is absorbed by the nearest live root before it.  Each
    merger draws its edge, child in the right block and then parent in the
    left, mass-biased by bisection on the prefix masses.
    """
    if not (q_max > 0.0) or not math.isfinite(q_max):
        raise ValueError(f"q_max must be finite and > 0, got {q_max!r}")
    n = len(config)
    gen = rng.named("merge-edges").generator()
    perm = clocks.perm
    sizes = [config.masses[v] for v in perm]
    xs = clocks.sorted_xi()

    # hull ranks; gaps[k] = mass(hull[k]..hull[k+1]-1), the last one up to
    # r - 1; slopes[k] = slope(hull[k], hull[k+1])
    hull, gaps, slopes = [0], [sizes[0]], []
    absorbed: list[tuple[float, int]] = []
    for r in range(1, n):
        w = gaps[-1]
        s = (xs[r] - xs[hull[-1]]) / w
        while slopes and s >= slopes[-1]:
            hull.pop()
            slopes.pop()
            gaps.pop()
            w += gaps[-1]
            s = (xs[r] - xs[hull[-1]]) / w
        if s <= q_max:
            absorbed.append((s, r))
        gaps[-1] = w
        slopes.append(s)
        hull.append(r)
        gaps.append(sizes[r])
    absorbed.sort()

    cum = list(accumulate(sizes, initial=0.0))
    prev = list(range(-1, n))  # one past the end, so prev[n] is writable
    nxt = list(range(1, n + 1))
    mass = list(sizes)
    events: list[MergerEvent] = []
    # child then parent per event: the same doubles as scalar draws
    draws = iter(gen.random(2 * len(absorbed)).tolist() if absorbed else ())
    for (_, r), u_child, u_parent in zip(absorbed, draws, draws):
        j, e = prev[r], nxt[r]
        child = bisect_right(cum, cum[r] + u_child * mass[r], r + 1, e) - 1
        parent = bisect_right(cum, cum[j] + u_parent * mass[j], j + 1, r) - 1
        events.append(
            MergerEvent(
                time=(xs[r] - xs[j]) / mass[j],
                left=ComponentBlock(lo=j, hi=r - 1, mass=mass[j]),
                right=ComponentBlock(lo=r, hi=e - 1, mass=mass[r]),
                edge=(perm[child], perm[parent]),
            )
        )
        mass[j] += mass[r]
        nxt[j] = e
        prev[e] = j

    return Trajectory(config=config, clocks=clocks, q_max=q_max, events=tuple(events))


@dataclass(frozen=True)
class MonotoneForest:
    """Append-only edge log accumulated over merger events.

    Edges are (child, parent, time) with times nondecreasing; the edge set at
    level q is the prefix with time <= q, and its partition coincides with
    the static forest partition at the same q.
    """

    n: int
    edge_log: tuple[tuple[int, int, float], ...]

    @cached_property
    def _join_order(self) -> tuple[list[int], list[Optional[float]]]:
        """Every vertex once, each component at every level a contiguous run.

        One union-find over the log concatenates the member lists of the two
        sets each edge joins, so a list's adjacent pairs were joined no later
        than the list was.  Returns the order and, for each adjacent pair,
        the time of the edge that joined it (None between final components).
        """
        parent = list(range(self.n))
        tail = list(range(self.n))
        nxt = [-1] * self.n
        joined: list[Optional[float]] = [None] * self.n  # v and nxt[v] joined at
        for child, par, t in self.edge_log:
            a, b = find(parent, par), find(parent, child)
            if a == b:
                continue
            nxt[tail[a]] = b
            joined[tail[a]] = t
            tail[a] = tail[b]
            parent[b] = a
        order: list[int] = []
        for v in range(self.n):
            if parent[v] == v:  # a final root heads its list
                while v != -1:
                    order.append(v)
                    v = nxt[v]
        return order, [joined[v] for v in order[:-1]]

    def components_at(self, q: float) -> frozenset[frozenset[int]]:
        """Partition after the edges with time <= q: the join order cut
        wherever an adjacent pair was joined later than q."""
        order, joined = self._join_order
        cuts = [0, *(i for i, t in enumerate(joined, 1) if t is None or t > q), len(order)]
        return frozenset(frozenset(order[a:b]) for a, b in zip(cuts, cuts[1:]))


def build_monotone_forest(trajectory: Trajectory) -> MonotoneForest:
    log = tuple((ev.edge[0], ev.edge[1], ev.time) for ev in trajectory.events)
    return MonotoneForest(n=len(trajectory.config), edge_log=log)
