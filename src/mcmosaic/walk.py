"""Simultaneous breadth-first walk: evaluation, reflection, excursions, forest.

The walk associated to a mass vector x and clocks xi at inhomogeneity level q
jumps by x[perm[r]] at time xi_(r)/q and drifts down at unit slope in between.
Reflecting it above its running minimum splits the time axis into excursions;
each excursion carries one spanning tree of the forest built here.

All evaluation is exact piecewise-linear arithmetic on the jump list — no
grids, no tolerances.  Interval membership follows half-open (a, b]
conventions throughout, matching the jump times being right-continuous.
"""
from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate
from operator import sub
from typing import NamedTuple, Optional

import numpy as np

from .core import ClockAssignment, WeightedConfig

__all__ = [
    "WalkPath",
    "Excursion",
    "ExcursionDecomposition",
    "Forest",
    "decompose",
    "breadth_first_forest",
    "area_under_reflection",
    "component_stats",
]


@dataclass(frozen=True)
class WalkPath:
    """Piecewise-linear walk: jumps of ``jump_sizes`` at ``jump_times``.

    ``jump_times`` are the sorted clocks divided by q (rank order);
    ``jump_sizes`` the masses in the same size-biased order; ``perm`` maps
    rank -> vertex label.
    """

    q: float
    jump_times: tuple[float, ...]
    jump_sizes: tuple[float, ...]
    perm: tuple[int, ...]

    @classmethod
    def from_clocks(cls, config: WeightedConfig, clocks: ClockAssignment, q: float) -> "WalkPath":
        if not (q > 0.0) or not math.isfinite(q):
            raise ValueError(f"q must be finite and > 0, got {q!r}")
        if len(config) != len(clocks):
            raise ValueError("config and clocks disagree on length")
        times = tuple(clocks.xi[v] / q for v in clocks.perm)
        sizes = tuple(config.masses[v] for v in clocks.perm)
        return cls(q=q, jump_times=times, jump_sizes=sizes, perm=clocks.perm)

    def __len__(self) -> int:
        return len(self.jump_times)

    @cached_property
    def cum(self) -> tuple[float, ...]:
        """Mass before each rank, then the total: cum[r] is the jump sizes of
        ranks 0..r-1 summed left to right, from 0.0 (n + 1 entries)."""
        return tuple(accumulate(self.jump_sizes, initial=0.0))

    @cached_property
    def troughs(self) -> tuple[float, ...]:
        """The walk just before each rank's jump, Z(t_r-) = cum[r] - t_r
        (n entries): the mosaic's baseline levels, and each root's is its
        excursion's floor."""
        return tuple(map(sub, self.cum, self.jump_times))

    @cached_property
    def trough_mins(self) -> tuple[float, ...]:
        """Running min of Z(0) = 0 and the troughs: entry r + 1 holds the
        min through rank r (n + 1 entries)."""
        best, out = 0.0, [0.0]
        for trough in self.troughs:
            if trough < best:
                best = trough
            out.append(best)
        return tuple(out)

    def eval_B(self, s: float) -> float:
        """Reflection of the walk (right-continuous) above its running
        minimum at s; >= 0 everywhere.  ValueError unless 0 <= s < inf."""
        if not 0.0 <= s < math.inf:
            raise ValueError(f"the walk is defined on 0 <= s < inf, got {s!r}")
        idx = bisect.bisect_right(self.jump_times, s)
        z = self.cum[idx] - s
        return z - min(self.trough_mins[idx], z)


class Excursion(NamedTuple):
    """One excursion of the reflected walk: consecutive ranks lo..hi."""

    start: float
    end: float
    rank_lo: int
    rank_hi: int
    vertices: tuple[int, ...]
    mass: float


@dataclass(frozen=True)
class ExcursionDecomposition:
    excursions: tuple[Excursion, ...]

    @cached_property
    def _rank_starts(self) -> list[int]:
        """First rank of each excursion, ascending."""
        return [e.rank_lo for e in self.excursions]

    def excursion_of_rank(self, rank: int) -> Excursion:
        i = bisect.bisect_right(self._rank_starts, rank) - 1
        if i < 0 or rank > self.excursions[i].rank_hi:
            raise ValueError(f"rank {rank} outside walk")
        return self.excursions[i]


def decompose(path: WalkPath) -> ExcursionDecomposition:
    """Split the reflected walk into excursions.

    Rank 0 opens the first excursion, and a later rank opens one exactly
    where the running minimum of the troughs falls: its pre-jump trough
    Z(t_r-) undershoots the floor cum[root] - t_root of the open excursion,
    so its jump lands after every listening window of that tree.
    """
    times, cum, mins, perm = path.jump_times, path.cum, path.trough_mins, path.perm
    n = len(path)
    roots = [0, *[r for r in range(1, n) if mins[r + 1] < mins[r]], n]
    excursions = []
    for lo, end in zip(roots, roots[1:]):
        mass = cum[end] - cum[lo]
        excursions.append(Excursion(times[lo], times[lo] + mass, lo, end - 1, perm[lo:end], mass))
    return ExcursionDecomposition(excursions=tuple(excursions))


@dataclass(frozen=True)
class Forest:
    """Spanning forest read off the walk at a fixed q.

    ``parent[v]`` is the parent vertex of v, or None for roots.  ``depth``
    gives the generation of each vertex inside its tree (roots at 0).
    ``roots`` lists the roots in rank order, the order of the carried
    masses and of the walk's excursions.
    """

    parent: tuple[Optional[int], ...]
    depth: tuple[int, ...]
    roots: tuple[int, ...]

    def edges(self) -> list[tuple[int, int]]:
        return [(v, p) for v, p in enumerate(self.parent) if p is not None]

    def components(self) -> list[frozenset[int]]:
        """Vertex set of each tree, in the order of ``roots``."""
        groups: dict[int, list[int]] = {r: [] for r in self.roots}
        for v in range(len(self.parent)):
            r = v
            while self.parent[r] is not None:
                r = self.parent[r]
            groups[r].append(v)
        return [frozenset(g) for g in groups.values()]


def breadth_first_forest(
    config: WeightedConfig, clocks: ClockAssignment, q: float
) -> tuple[Forest, tuple[float, ...]]:
    """Single left-to-right sweep attaching each rank to its parent.

    Returns the forest plus the carried-mass vector (one entry per tree, in
    excursion order, which is the order of the forest's roots: cum[end] -
    cum[root], the excursion masses).  The listening windows of a tree's
    ranks root..i-1 cover the times up to t_root + (cum[i] - cum[root]), so
    rank l falls in them exactly when cum[i] - t_l >= floor, the root's
    trough cum[root] - t_root.  A rank in the windows of all earlier ranks
    of the open tree joins it (decompose's test), as a child of the first
    rank i whose window holds it.  The sweep is O(len) after sorting
    because the probe rank never decreases.
    """
    path = WalkPath.from_clocks(config, clocks, q)
    n = len(path)
    times, cum, perm = path.jump_times, path.cum, path.perm

    parent: list[Optional[int]] = [None] * n
    depth = [0] * n
    masses: list[float] = []
    roots: list[int] = []

    r = 0
    while r < n:
        root = probe = r  # probe: the rank whose window we are matching against
        floor = cum[root] - times[root]
        r += 1
        while r < n and cum[r] - times[r] >= floor:
            while cum[probe + 1] - times[r] < floor:
                probe += 1
            v, p = perm[r], perm[probe]
            parent[v] = p
            depth[v] = depth[p] + 1
            r += 1
        masses.append(cum[r] - cum[root])
        roots.append(perm[root])

    forest = Forest(parent=tuple(parent), depth=tuple(depth), roots=tuple(roots))
    return forest, tuple(masses)


def area_under_reflection(path: WalkPath, start: float, end: float) -> float:
    """Exact integral of the reflected walk over [start, end].

    Piecewise-linear between jumps, so each segment contributes
    value * dt - dt**2 / 2; accumulated with compensated summation.
    """
    if not start <= end:  # NaN fails too
        raise ValueError(f"need start <= end, got [{start!r}, {end!r}]")
    times = path.jump_times
    lo = bisect.bisect_right(times, start)
    pieces = []
    s = start
    value = path.eval_B(start)
    for r in range(lo, len(times)):
        t = times[r]
        if t >= end:
            break
        dt = t - s
        if dt > 0:
            dt = min(dt, value)  # B cannot go below 0; it sits at 0 after value hits it
            pieces.append(value * dt - dt * dt / 2.0)
        s = t
        value = path.eval_B(t)
    dt = end - s
    if dt > 0:
        dt_eff = min(dt, value)
        pieces.append(value * dt_eff - dt_eff * dt_eff / 2.0)
    return math.fsum(pieces)


# One replications-by-n float64 block (32 MiB).  A chunk's working set, by
# tracemalloc, is at most 2.9 blocks in component_stats (1.9 without areas)
# and 3.0 in the limit reference, so peak memory does not grow with the
# replication count; chunking by rows leaves the draws unchanged.
_CHUNK_BYTES = 1 << 25


def chunk_rows(reps: int, n: int) -> list[int]:
    """Row counts of successive chunks of ``reps`` rows of width ``n``."""
    step = max(1, _CHUNK_BYTES // (8 * n))
    return [min(step, reps - lo) for lo in range(0, reps, step)] or [0]


def component_stats(
    exp: np.ndarray, mass, q: float, want_areas: bool = False
) -> dict[str, np.ndarray]:
    """Two largest component masses per replication, straight from the walk.

    ``exp`` holds unit exponentials, one replication per row of n columns;
    ``mass`` is the common mass of all n vertices, or a sequence of n masses.
    The clocks are exp / mass and the jump times the sorted clocks over q.
    With a common mass the prefix masses in rank order are counts times that
    mass, exactly; with n masses they are cumulative sums in each row's
    (stable) rank order.

    New excursions start exactly at strict running minima of the pre-jump
    troughs cum[r] - t_r, which one accumulate exposes in O(n).  The block
    sizes are whole-array passes over all rows: in flat order a block ends at
    the next root (column 0 is always one).  A row's largest block is the
    earliest of its largest sizes, and the second is the segment maximum with
    that one block masked; with ``want_areas`` the largest block's excursion
    area is returned too, as "largest_area".
    ValueError unless q and every mass are finite and > 0, there is at least
    one column and a mass sequence has one entry per column.
    """
    rows, n = exp.shape
    m = np.asarray(mass, dtype=float)
    if not (q > 0.0) or not math.isfinite(q):
        raise ValueError(f"q must be finite and > 0, got {q!r}")
    if n == 0 or m.shape not in ((), (n,)):
        raise ValueError(f"need n >= 1 columns and one mass or n masses, got {n} and {m.shape}")
    if not (np.isfinite(m).all() and (m > 0.0).all()):
        raise ValueError("masses must be finite and > 0")
    t = exp / m
    equal = m.ndim == 0
    if equal:
        t.sort(axis=1)
        cm = np.broadcast_to(np.arange(n + 1, dtype=float) * m, (rows, n + 1))
    else:
        perm = np.argsort(t, axis=1, kind="stable")
        t = np.take_along_axis(t, perm, axis=1)
        cm = np.zeros((rows, n + 1))
        np.cumsum(m[perm], axis=1, out=cm[:, 1:])
        del perm
    t /= q
    run = np.subtract(cm[:, :-1], t, out=None if want_areas else t)  # the troughs
    t = t if want_areas else None  # without areas the troughs overwrote t
    np.fmin.accumulate(run, axis=1, out=run)  # the troughs hold no NaN
    is_root = np.ones(run.shape, dtype=bool)  # column 0 always starts a block
    np.less(run[:, 1:], run[:, :-1], out=is_root[:, 1:])  # the minimum fell
    del run

    start = np.flatnonzero(is_root)
    del is_root
    first = np.searchsorted(start, np.arange(rows) * n)  # each row's first block
    ends = np.append(first, start.size)[1:]  # and the end of its blocks
    if equal:  # sizes in ranks, up to the next root; the common mass scales the top two
        size = np.empty_like(start)
        np.subtract(start[1:], start[:-1], out=size[:-1])
        size[-1:] = rows * n - start[-1:]
    else:  # gaps of the prefix mass before each block (cm has n + 1 columns)
        start += start // n
        size = cm.ravel()[start]
        np.subtract(size[1:], size[:-1], out=size[:-1])
        size[-1:] = -size[-1:]  # a row's last block reads 0 - its start: add the row's total
        size[ends - 1] += cm[:, -1]
    bounds = zip(first.tolist(), ends.tolist())  # np.argmax takes the earliest largest block
    top = np.array([lo + np.argmax(size[lo:hi]) for lo, hi in bounds], dtype=np.intp)
    largest = size[top]
    size[top] = 0  # a block tied with it stays, so second == largest there
    second = np.maximum.reduceat(size, first)
    del size
    largest, second = (largest * m, second * m) if equal else (largest, second)
    result = {"largest": largest, "second": second}
    if want_areas:
        width = n if equal else n + 1  # start indexes t's rows, or cm's
        area = np.empty(rows)
        for i, (j, hi) in enumerate(zip(top.tolist(), ends.tolist())):
            k = start[j] - i * width  # the largest block's ranks k..k_end-1
            k_end = start[j + 1] - i * width if j + 1 < hi else n
            ti = t[i, k:k_end]
            cm_local = cm[i, k + 1 : k_end + 1] - cm[i, k]
            bvals = cm_local - (ti - ti[0])  # B right after each jump
            seg = np.append(ti[1:], ti[0] + cm_local[-1]) - ti
            area[i] = float(np.sum(bvals * seg - seg * seg / 2.0))
        result["largest_area"] = area
    return result
