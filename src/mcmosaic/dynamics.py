"""Event-driven merger dynamics across inhomogeneity levels.

As q grows, scaled clocks slide left and adjacent excursions of the reflected
walk merge: the block rooted at rank j absorbs the block led by rank k+1 at
exactly q = (xi_(k+1) - xi_(j)) / mass(j..k).  One draw of clocks fixes every
merger: the engine reads each rank's absorption time off the upper hull of
the points (mass before the rank, its clock) in one sweep, then replays the
mergers in time order.  Each merger draws one mass-biased edge between the
two blocks, giving a monotone (append-only) forest whose partition matches
the static forest at every level.  The readers at one level share one view
of the log there (``_Level``): the events up to the first one past q, and
the blocks, arrival-process table, spanning edges and mosaic geometry read
from them, beside the walk at q (one ``WalkPath``), each computed once.
Every partition reader gives a lone vertex v the same {v}, from one table
for the whole process that grows to the largest n read and stays: about
0.25 KiB per vertex, less than a trajectory of that n holds.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain, compress, repeat
from operator import itemgetter, mul, sub
from typing import NamedTuple

import numpy as np

from .core import ClockAssignment, RngStream, WeightedConfig, check_level, check_positive, find
from .walk import WalkPath

__all__ = [
    "ComponentBlock",
    "MergerEvent",
    "Trajectory",
    "MonotoneForest",
    "run_trajectory",
    "build_monotone_forest",
]


class ComponentBlock(NamedTuple):
    """Consecutive rank range lo..hi (inclusive) forming one component;
    ``len()`` is its rank count."""

    lo: int
    hi: int
    mass: float

    def __len__(self) -> int:
        return self.hi - self.lo + 1

    def ranks(self) -> range:
        return range(self.lo, self.hi + 1)


# namedtuple's _make checks len() against the field count; _replace calls it
ComponentBlock._make = classmethod(tuple.__new__)


class MergerEvent(NamedTuple):
    """Absorption of ``right`` by ``left`` at ``time``.

    ``edge`` is the (child, parent) vertex pair drawn mass-biased from the
    right and left blocks respectively.
    """

    time: float
    left: ComponentBlock
    right: ComponentBlock
    edge: tuple[int, int]


class GraphEdge(NamedTuple):
    """One edge of a labeled graph and the level at which it appears."""

    source: int  # child end / later-listed vertex
    target: int  # parent end / earlier-listed vertex
    time: float  # q of creation (static: evaluation q)
    kind: str  # "span" | "simple" | "multi" | "loop"


@dataclass(frozen=True)
class Trajectory:
    """Ordered merger log, sufficient to replay every later construction.

    A NaN event time raises ValueError.  Its readers take any level, ±inf
    included, and raise ValueError for NaN; what they cache, and the level
    view they share (``_Level``), stays out of ``==``, ``repr`` and
    ``dataclasses.replace``.
    """

    config: WeightedConfig
    clocks: ClockAssignment
    q_max: float
    events: tuple[MergerEvent, ...]

    def __post_init__(self) -> None:
        _check_times(map(itemgetter(0), self.events))

    @cached_property
    def _stops(self) -> np.ndarray:
        """Per rank, the level from which it stops starting a block: as in
        ``blocks_at``, the largest log time up to its absorption (NaN: never)."""
        stops = np.full(len(self.config), math.nan)
        times = np.maximum.accumulate([ev.time for ev in self.events])
        stops[[ev.right.lo for ev in self.events]] = times
        return stops

    def blocks_at(self, q: float) -> list[ComponentBlock]:
        """Component blocks after the events up to the first one with time
        > q, masses summed in log order, as a new list on every call;
        ValueError for a NaN q."""
        check_level(q)
        return list(_Level.of(self, q).blocks)

    def partition_at(self, q: float) -> frozenset[frozenset[int]]:
        """Vertex partition (labels, not ranks) after events with time <= q:
        the clock order cut at each rank that still starts a block at q."""
        return _cut(self.clocks.perm, self._stops, q)


def _check_times(times) -> None:
    """ValueError for a NaN time in a merger or edge log."""
    if any(map(math.isnan, times)):
        raise ValueError("log times must not be NaN")


class _Level:
    """The merger log read at one level q, shared by every reader at q.

    ``events`` is the log up to the first event with time > q, and every
    reader at q reads that prefix: ``blocks`` come from one replay of it,
    masses summed in log order.  ``walk`` is the walk at q, one
    ``WalkPath`` whose jump times, prefix masses and troughs every reader
    at q shares, and ``root`` each rank's block root; they, the
    ``spanning`` edges, the mosaic's per-rank geometry and ``processes``,
    the one table of the canonical multigraph's arrival processes (loops,
    then mergers, each with its intensity at q) that every surplus reader
    slices, are computed on first use.  ``blocks`` and ``sizes`` (the
    masses in rank order) need no walk, so they answer at any q, ±inf and
    0 included.  It keeps the log prefix, the config and the clocks, not
    the trajectory, so the memo makes no reference cycle.
    """

    def __init__(self, trajectory: Trajectory, q: float):
        self.q = q
        self.config = trajectory.config
        self.clocks = trajectory.clocks
        events = trajectory.events
        self.events = events[: next((k for k, ev in enumerate(events) if ev.time > q), len(events))]
        masses = trajectory.config.masses
        self.sizes = [masses[v] for v in self.clocks.perm]  # by rank
        n = len(self.sizes)
        end = list(range(n))
        mass = list(self.sizes)
        live = [True] * n
        for ev in self.events:
            j, r = ev.left.lo, ev.right.lo
            end[j] = ev.right.hi
            mass[j] += mass[r]
            live[r] = False
        self.blocks = tuple([ComponentBlock(j, end[j], mass[j]) for j in compress(range(n), live)])

    @classmethod
    def of(cls, trajectory: Trajectory, q: float) -> "_Level":
        """The level view at q, memoized in one slot of the trajectory's
        instance dict (as cached_property does), which the frozen record's
        ==, repr and dataclasses.replace ignore."""
        v = trajectory.__dict__.get("_level")
        if v is None or v.q != q:
            v = trajectory.__dict__["_level"] = cls(trajectory, q)
        return v

    @classmethod
    def at(cls, trajectory: Trajectory, q: float) -> "_Level":
        """The level view at a horizon q of the surplus and mosaic readers;
        ValueError unless 0 <= q <= trajectory.q_max (the log ends there)."""
        if not 0.0 <= q <= trajectory.q_max:
            raise ValueError(f"q={q!r} outside the horizon [0, {trajectory.q_max}]")
        return cls.of(trajectory, q)

    @cached_property
    def processes(self) -> tuple[list, list, list, list, list, list, list]:
        """Every arrival process of the canonical multigraph at q, as parallel
        lists (l, j, e, activation, rate, target_mass, intensity), each aimed
        at the ranks j..e-1: first the n loop processes (l, l, l + 1, 0.0,
        m_l**2 / 2, m_l) in rank order, then per merger up to q one per
        right-block rank l, ascending, aimed at the left block j..e-1 at rate
        mass(l) * mass(j..e-1).  The intensity is rate * (q - activation).
        Shared: readers must not mutate them."""
        sizes, n = self.sizes, len(self.sizes)
        ls, js, ends = list(range(n)), list(range(n)), list(range(1, n + 1))
        acts, rates, tmass = [0.0] * n, [m * m / 2.0 for m in sizes], list(sizes)
        for ev in self.events:
            left, lo, end = ev.left, ev.right.lo, ev.right.hi + 1
            xi_left, w = left.mass, end - lo
            ls.extend(range(lo, end))
            js.extend([left.lo] * w)
            ends.extend([left.hi + 1] * w)
            acts.extend([ev.time] * w)
            rates.extend([m * xi_left for m in sizes[lo:end]])
            tmass.extend([xi_left] * w)
        lam = list(map(mul, rates, map(sub, repeat(self.q), acts)))
        return ls, js, ends, acts, rates, tmass, lam

    @cached_property
    def spanning(self) -> tuple[GraphEdge, ...]:
        """The merger edges up to q, in log order."""
        return tuple([GraphEdge(ev.edge[0], ev.edge[1], ev.time, "span") for ev in self.events])

    @cached_property
    def walk(self) -> WalkPath:
        """The walk at q; ValueError unless q is finite and > 0."""
        return WalkPath.from_clocks(self.config, self.clocks, self.q)

    @cached_property
    def root(self) -> list[int]:
        """First rank of each rank's block."""
        return list(chain.from_iterable([b.lo] * (b.hi - b.lo + 1) for b in self.blocks))

    # -- the mosaic's per-rank geometry at q; every list is indexed by rank --

    @cached_property
    def base_level(self) -> list[float]:
        """Baseline level of each rank above its excursion's floor: its
        trough minus the root's, summed as mass and position differences.
        Slice.base_level and the drawn walk both read it."""
        cum, pos = self.walk.cum, self.walk.jump_times
        return [cum[j] - cum[a] - (pos[j] - pos[a]) for j, a in enumerate(self.root)]

    @cached_property
    def reach(self) -> list[int]:
        """Last rank each baseline reaches."""
        pos, cum = self.walk.jump_times, self.walk.cum
        reach = list(range(len(pos)))
        for b in self.blocks:
            # reach sets are laminar (R3), so the open baselines form a stack:
            # rank i ends the reach of every baseline its pre-jump trough undershoots
            stack = [b.lo]
            for i in range(b.lo + 1, b.hi + 1):
                while stack and pos[i] - pos[stack[-1]] > cum[i] - cum[stack[-1]]:
                    reach[stack.pop()] = i - 1
                stack.append(i)
            for j in stack:
                reach[j] = b.hi
        return reach

    @cached_property
    def extent_end(self) -> list[float]:
        """Right end of each baseline: its jump plus the mass it reaches."""
        pos, cum = self.walk.jump_times, self.walk.cum
        return [pos[j] + (cum[m + 1] - cum[j]) for j, m in enumerate(self.reach)]

    @cached_property
    def block_end(self) -> list[float]:
        """Where each block's excursion returns to its floor, per block."""
        pos, sizes = self.walk.jump_times, self.sizes
        return [pos[b.lo] + math.fsum(sizes[b.lo : b.hi + 1]) for b in self.blocks]

    @cached_property
    def intercepts(self) -> tuple[list[float], list[float]]:
        """z+s values of each rank's diagonal band boundaries, floor-relative."""
        pos, cum, root = self.walk.jump_times, self.walk.cum, self.root
        return (
            [pos[a] + cum[l] - cum[a] for l, a in enumerate(root)],
            [pos[a] + cum[l + 1] - cum[a] for l, a in enumerate(root)],
        )

    @cached_property
    def parallelograms(self) -> list[list[tuple[float, float, float, float]]]:
        """(activation, absorbed mass, top level, height) of each absorption
        of each rank's block, in activation order, read off the events on
        their own (not off ``processes``).  Each top must lie on the absorbed
        root's baseline, to 1e-9 of its block's mass (AssertionError
        otherwise)."""
        q, level, root = self.q, self.base_level, self.root
        mass = {b.lo: b.mass for b in self.blocks}
        running_top = list(level)
        rows: list[list[tuple[float, float, float, float]]] = [[] for _ in level]
        for ev in self.events:
            t = ev.time
            absorbed = ev.left.mass
            height = absorbed * (1.0 - t / q)
            owner = ev.right.lo
            tol = 1e-9 * mass[root[owner]]
            for l in range(owner, ev.right.hi + 1):
                top = running_top[l]
                if abs(level[owner] - top) > tol:
                    raise AssertionError(
                        f"no baseline at slice top level {top} for rank {l}"
                    )
                rows[l].append((t, absorbed, top, height))
                running_top[l] = top - height
        return rows


# {v} for every vertex v, shared by every partition reader; each entry's
# hash is cached, so a cut hashes a run of one vertex for free.  Only ever
# extended, its existing entries kept.
_SINGLETONS: tuple[frozenset[int], ...] = ()


def _cut(seq, stops: np.ndarray, q: float) -> frozenset[frozenset[int]]:
    """``seq`` cut into runs, one starting at each position whose stop level
    is not <= q (so NaN never stops); a run of one vertex is its entry of
    the shared ``_SINGLETONS``.  ValueError for a NaN q."""
    global _SINGLETONS
    check_level(q)
    singletons, n = _SINGLETONS, len(seq)
    if len(singletons) < n:  # one rebinding, so a racing reader sees a whole table
        grown = map(frozenset, zip(range(len(singletons), n)))
        singletons = _SINGLETONS = (*singletons, *grown)
    bounds = [*(~(stops <= q)).nonzero()[0].tolist(), n]
    return frozenset(
        singletons[seq[a]] if b - a == 1 else frozenset(seq[a:b])
        for a, b in zip(bounds, bounds[1:])
    )


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
    check_positive("q_max", q_max)
    n = len(config)
    gen = rng.named("merge-edges").generator()
    perm = clocks.perm
    sizes = [config.masses[v] for v in perm]
    xs = clocks.sorted_xi()

    # hull ranks; gaps[k] = mass(hull[k]..hull[k+1]-1), the last one up to
    # r - 1; slopes[k] = slope(hull[k], hull[k+1])
    hull, gaps, slopes = [0], [sizes[0]], []
    qs: list[float] = []  # q_r of each absorbed rank r in rs, ranks ascending
    rs: list[int] = []
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
            qs.append(s)
            rs.append(r)
        gaps[-1] = w
        slopes.append(s)
        hull.append(r)
        gaps.append(sizes[r])
    # stable on ascending rs: ties in q_r keep rank order, as sorting (q_r, r) would
    order = [rs[k] for k in sorted(range(len(rs)), key=qs.__getitem__)]

    cum = list(accumulate(sizes, initial=0.0))
    prev = list(range(-1, n))  # one past the end, so prev[n] is writable
    nxt = list(range(1, n + 1))
    mass = list(sizes)
    events: list[MergerEvent] = []
    # records built as plain tuples of their class, past the Python-level __new__
    new, Block, Event = tuple.__new__, ComponentBlock, MergerEvent
    # child then parent per event: the same doubles as scalar draws
    draws = iter(gen.random(2 * len(order)).tolist() if order else ())
    for r, u_child, u_parent in zip(order, draws, draws):
        j, e = prev[r], nxt[r]
        m_j, m_r = mass[j], mass[r]
        child = bisect_right(cum, cum[r] + u_child * m_r, r + 1, e) - 1
        parent = bisect_right(cum, cum[j] + u_parent * m_j, j + 1, r) - 1
        left, right = new(Block, (j, r - 1, m_j)), new(Block, (r, e - 1, m_r))
        events.append(new(Event, ((xs[r] - xs[j]) / m_j, left, right, (perm[child], perm[parent]))))
        mass[j] = m_j + m_r
        nxt[j] = e
        prev[e] = j

    return Trajectory(config=config, clocks=clocks, q_max=q_max, events=tuple(events))


@dataclass(frozen=True)
class MonotoneForest:
    """Append-only edge log accumulated over merger events.

    Edges are (child, parent, time) with times nondecreasing; the edge set at
    level q is the prefix with time <= q, and its partition coincides with
    the static forest partition at the same q.  A NaN edge time raises
    ValueError, and so does ``components_at`` for a NaN level; its caches
    stay out of ``==``, ``repr`` and ``replace``.
    """

    n: int
    edge_log: tuple[tuple[int, int, float], ...]

    def __post_init__(self) -> None:
        _check_times(map(itemgetter(2), self.edge_log))

    @cached_property
    def _join_order(self) -> tuple[list[int], np.ndarray]:
        """Every vertex once, each component at every level a contiguous run.

        One union-find over the log concatenates the member lists of the two
        sets each edge joins, so a list's adjacent pairs were joined no later
        than the list was.  Returns the order and, per position, the time of
        the edge that joined it to the one before (NaN: none did).
        """
        parent = list(range(self.n))
        tail = list(range(self.n))
        nxt = [-1] * self.n
        joined = [math.nan] * self.n  # v and nxt[v] joined at
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
        return order, np.array([math.nan, *(joined[v] for v in order[:-1])])

    def components_at(self, q: float) -> frozenset[frozenset[int]]:
        """Partition after the edges with time <= q: the join order cut
        wherever an adjacent pair was joined later than q, or never."""
        return _cut(*self._join_order, q)


def build_monotone_forest(trajectory: Trajectory) -> MonotoneForest:
    log = tuple([(ev.edge[0], ev.edge[1], ev.time) for ev in trajectory.events])
    return MonotoneForest(n=len(trajectory.config), edge_log=log)
