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
from typing import Optional

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
    def cummass(self) -> tuple[float, ...]:
        """Prefix sums of the jump sizes."""
        acc, out = 0.0, []
        for s in self.jump_sizes:
            acc += s
            out.append(acc)
        return tuple(out)

    @cached_property
    def trough_mins(self) -> tuple[float, ...]:
        """Running min over r of Z(t_r-), i.e. of cummass[r-1] - t_r, floored at 0."""
        cm = self.cummass
        best, out = 0.0, []
        for r, t in enumerate(self.jump_times):
            trough = (cm[r - 1] if r else 0.0) - t
            if trough < best:
                best = trough
            out.append(best)
        return tuple(out)

    def eval_Z(self, s: float, left_limit: bool = False) -> float:
        """Walk value at s (right-continuous), or its left limit at s."""
        if s < 0.0:
            raise ValueError("walk is defined on s >= 0")
        if left_limit:
            idx = bisect.bisect_left(self.jump_times, s)
        else:
            idx = bisect.bisect_right(self.jump_times, s)
        carried = self.cummass[idx - 1] if idx else 0.0
        return carried - s

    def running_min(self, s: float, left_limit: bool = False) -> float:
        """inf of Z over [0, s] (over [0, s) for the left limit)."""
        if left_limit:
            idx = bisect.bisect_left(self.jump_times, s)
        else:
            idx = bisect.bisect_right(self.jump_times, s)
        prior = self.trough_mins[idx - 1] if idx else 0.0
        return min(prior, self.eval_Z(s, left_limit=left_limit))

    def eval_B(self, s: float, left_limit: bool = False) -> float:
        """Reflection above the running minimum; >= 0 everywhere."""
        return self.eval_Z(s, left_limit) - self.running_min(s, left_limit)


@dataclass(frozen=True)
class Excursion:
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

    A rank opens a new excursion exactly when its jump lands strictly after
    the listening window of the previous tree, which is the same as its
    pre-jump trough Z(t_r-) undershooting every earlier trough.
    """
    times = path.jump_times
    cm = path.cummass
    n = len(path)

    roots = [0]
    best_trough = -times[0]  # Z(t_0-); sentinel Z(0) = 0 already beaten
    for r in range(1, n):
        trough = cm[r - 1] - times[r]
        if trough < best_trough:
            best_trough = trough
            roots.append(r)

    excursions = []
    for i, lo in enumerate(roots):
        hi = (roots[i + 1] - 1) if i + 1 < len(roots) else n - 1
        excursions.append(_close_excursion(path, lo, hi, cm))
    return ExcursionDecomposition(excursions=tuple(excursions))


def _close_excursion(path: WalkPath, lo: int, hi: int, cm) -> Excursion:
    mass = cm[hi] - (cm[lo - 1] if lo else 0.0)
    start = path.jump_times[lo]
    return Excursion(
        start=start,
        end=start + mass,
        rank_lo=lo,
        rank_hi=hi,
        vertices=tuple(path.perm[lo : hi + 1]),
        mass=mass,
    )


@dataclass(frozen=True)
class Forest:
    """Spanning forest read off the walk at a fixed q.

    ``parent[v]`` is the parent vertex of v, or None for roots.  ``depth``
    gives the generation of each vertex inside its tree (roots at 0).
    """

    parent: tuple[Optional[int], ...]
    depth: tuple[int, ...]

    def edges(self) -> list[tuple[int, int]]:
        return [(v, p) for v, p in enumerate(self.parent) if p is not None]

    def components(self) -> list[frozenset[int]]:
        groups: dict[int, set[int]] = {}
        for v in range(len(self.parent)):
            r = v
            while self.parent[r] is not None:
                r = self.parent[r]
            groups.setdefault(r, set()).add(v)
        return [frozenset(g) for _, g in sorted(groups.items())]


def breadth_first_forest(
    config: WeightedConfig, clocks: ClockAssignment, q: float
) -> tuple[Forest, tuple[float, ...]]:
    """Single left-to-right sweep attaching each rank to its parent.

    Returns the forest plus the carried-mass vector (one entry per tree, in
    excursion order).  Listening windows share the root's left endpoint and
    extend by one mass per attached vertex; a rank falling in the slice
    belonging to rank i becomes a child of perm[i].  The sweep is O(len)
    after sorting because both the probe times and the window ends are
    nondecreasing within a tree.
    """
    path = WalkPath.from_clocks(config, clocks, q)
    n = len(path)
    times = path.jump_times
    sizes = path.jump_sizes

    parent: list[Optional[int]] = [None] * n
    depth = [0] * n
    masses: list[float] = []

    r = 0
    while r < n:
        root = r
        # window_end[i - root] = end of the listening window of rank i
        window_end = [times[root] + sizes[root]]
        tree_mass = sizes[root]
        probe = root  # rank whose window we are currently matching against
        r += 1
        while r < n and times[r] <= window_end[-1]:
            while times[r] > window_end[probe - root]:
                probe += 1
            v, p = path.perm[r], path.perm[probe]
            parent[v] = p
            depth[v] = depth[p] + 1
            tree_mass += sizes[r]
            window_end.append(window_end[-1] + sizes[r])
            r += 1
        masses.append(tree_mass)

    forest = Forest(parent=tuple(parent), depth=tuple(depth))
    return forest, tuple(masses)


def area_under_reflection(path: WalkPath, start: float, end: float) -> float:
    """Exact integral of the reflected walk over [start, end].

    Piecewise-linear between jumps, so each segment contributes
    value * dt - dt**2 / 2; accumulated with compensated summation.
    """
    if end < start:
        raise ValueError("empty interval")
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
# tracemalloc, is about 3.1 blocks in component_stats (2.1 without areas) and
# 6.0 in the limit reference, so peak memory does not grow with the replication
# count; chunking by rows leaves the draws unchanged.
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
    troughs cummass[r] - t_r, which one accumulate exposes in O(n).  The rest
    are whole-array passes over all rows: in flat order a block ends at the
    next root (column 0 is always one), and the top two per row are segment
    maxima of the block sizes.  The largest of tied blocks is the earliest;
    with ``want_areas`` its excursion area is returned too, as "largest_area".
    """
    rows, n = exp.shape
    m = np.asarray(mass, dtype=float)
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
    first = np.searchsorted(start, np.arange(rows) * n)  # each row's first block
    if equal:  # sizes in ranks, up to the next root; the common mass scales the top two
        size = np.append(start, rows * n)[1:]
        size -= start
    else:  # gaps of the prefix mass before each block (cm has n + 1 columns)
        start += start // n
        size = cm.ravel()[start]
        np.subtract(size[1:], size[:-1], out=size[:-1])
        size[-1:] = -size[-1:]  # a row's last block reads 0 - its start: add the row's total
        size[np.append(first, size.size)[1:] - 1] += cm[:, -1]
    del start
    top = np.maximum.reduceat(size, first)
    tied = np.flatnonzero(size == np.repeat(top, np.diff(first, append=size.size)))
    at = np.searchsorted(tied, first)  # each row's earliest largest block
    size[tied] = 0
    second = np.where(np.diff(at, append=tied.size) > 1, top, np.maximum.reduceat(size, first))
    largest, second = (top * m, second * m) if equal else (top, second)
    result = {"largest": largest, "second": second}
    if want_areas:
        area = np.empty(rows)
        for i, j in enumerate(tied[at] - first):
            bounds = np.append(np.flatnonzero(is_root[i]), n)
            k, k_end = bounds[j], bounds[j + 1]  # the largest block's ranks
            ti = t[i, k:k_end]
            cm_local = cm[i, k + 1 : k_end + 1] - cm[i, k]
            bvals = cm_local - (ti - ti[0])  # B right after each jump
            seg = np.append(ti[1:], ti[0] + cm_local[-1]) - ti
            area[i] = float(np.sum(bvals * seg - seg * seg / 2.0))
        result["largest_area"] = area
    return result
