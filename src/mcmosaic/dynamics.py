"""Event-driven merger dynamics across inhomogeneity levels.

As q grows, scaled clocks slide left and adjacent excursions of the reflected
walk merge: the block rooted at rank j absorbs the block led by rank k+1 at
exactly q = (xi_(k+1) - xi_(j)) / mass(j..k).  The engine maintains a heap of
candidate absorption times with lazy invalidation; each merger draws one
mass-biased edge between the two blocks, giving a monotone (append-only)
forest whose partition matches the static forest at every level.
"""
from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .core import ClockAssignment, RngStream, WeightedConfig, groups, union

__all__ = [
    "ComponentBlock",
    "MergerEvent",
    "Trajectory",
    "MonotoneForest",
    "merger_time",
    "run_trajectory",
    "sample_merge_edge",
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

    def blocks_at(self, q: float) -> list[ComponentBlock]:
        """Component blocks after all events with time <= q."""
        n = len(self.config)
        sorted_sizes = [self.config.masses[v] for v in self.clocks.perm]
        end = list(range(n))
        mass = list(sorted_sizes)
        start_of: dict[int, int] = {r: r for r in range(n)}
        for ev in self.events:
            if ev.time > q:
                break
            j = ev.left.lo
            end[j] = ev.right.hi
            mass[j] += mass[ev.right.lo]
            start_of.pop(ev.right.lo)
        return [ComponentBlock(lo=j, hi=end[j], mass=mass[j]) for j in sorted(start_of)]

    def partition_at(self, q: float) -> frozenset[frozenset[int]]:
        """Vertex partition (labels, not ranks) after events with time <= q."""
        perm = self.clocks.perm
        return frozenset(
            frozenset(perm[r] for r in b.ranks()) for b in self.blocks_at(q)
        )


def merger_time(left: ComponentBlock, clocks: ClockAssignment) -> float | None:
    """Exact q at which ``left`` absorbs the block led by rank left.hi + 1."""
    nxt = left.hi + 1
    if nxt >= len(clocks):
        return None
    xs = clocks.sorted_xi()
    return (xs[nxt] - xs[left.lo]) / left.mass


def sample_merge_edge(
    left: ComponentBlock,
    right: ComponentBlock,
    config: WeightedConfig,
    clocks: ClockAssignment,
    gen,
) -> tuple[int, int]:
    """Draw the merger edge: child mass-biased in right, parent in left."""
    perm = clocks.perm
    child_rank = _mass_biased_rank(right, config, perm, gen)
    parent_rank = _mass_biased_rank(left, config, perm, gen)
    return perm[child_rank], perm[parent_rank]


def _mass_biased_rank(block: ComponentBlock, config, perm, gen) -> int:
    u = gen.random() * block.mass
    acc = 0.0
    for r in block.ranks():
        acc += config.masses[perm[r]]
        if u < acc:
            return r
    return block.hi  # guard against accumulated rounding at the top end


def run_trajectory(
    config: WeightedConfig,
    clocks: ClockAssignment,
    rng: RngStream,
    q_max: float,
) -> Trajectory:
    """All mergers with time <= q_max, strictly increasing event times.

    Candidates are (time, left root, right root) triples; a popped candidate
    is stale unless the left root still owns exactly the range ending just
    before the right root and the right root is still a root.  Fresh
    candidates computed after a merger are always strictly later than the
    merger itself, so no cascade handling is needed.
    """
    if not (q_max > 0.0) or not math.isfinite(q_max):
        raise ValueError(f"q_max must be finite and > 0, got {q_max!r}")
    n = len(config)
    gen = rng.named("merge-edges").generator()
    perm = clocks.perm
    sizes = [config.masses[v] for v in perm]

    end = list(range(n))
    mass = list(sizes)
    is_root = [True] * n

    heap: list[tuple[float, int, int]] = []
    xs = clocks.sorted_xi()
    for j in range(n - 1):
        t = (xs[j + 1] - xs[j]) / mass[j]
        if t <= q_max:
            heapq.heappush(heap, (t, j, j + 1))

    events: list[MergerEvent] = []
    while heap:
        t, j, r = heapq.heappop(heap)
        if not (is_root[j] and is_root[r] and end[j] == r - 1):
            continue
        left = ComponentBlock(lo=j, hi=end[j], mass=mass[j])
        right = ComponentBlock(lo=r, hi=end[r], mass=mass[r])
        edge = sample_merge_edge(left, right, config, clocks, gen)
        events.append(MergerEvent(time=t, left=left, right=right, edge=edge))
        end[j] = end[r]
        mass[j] += mass[r]
        is_root[r] = False
        nxt = end[j] + 1
        if nxt < n:
            t2 = (xs[nxt] - xs[j]) / mass[j]
            if t2 <= q_max:
                heapq.heappush(heap, (t2, j, nxt))

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

    def edges_at(self, q: float) -> list[tuple[int, int, float]]:
        return [e for e in self.edge_log if e[2] <= q]

    def components_at(self, q: float) -> frozenset[frozenset[int]]:
        parent = list(range(self.n))
        for child, par, t in self.edge_log:
            if t > q:
                break
            union(parent, child, par)
        return groups(parent)


def build_monotone_forest(trajectory: Trajectory) -> MonotoneForest:
    log = tuple((ev.edge[0], ev.edge[1], ev.time) for ev in trajectory.events)
    return MonotoneForest(n=len(trajectory.config), edge_log=log)
