"""Surplus (cycle-creating) edges, static and dynamic variants.

Static: at a fixed q, each non-root vertex has an influence region — the
later-listed vertices whose scaled clocks fall between its own jump and the
end of the preceding listening window, one run of consecutive ranks.  Each
candidate connects to it independently with probability
1 - exp(-q * m_target * m_candidate): the targets whose rate (q * m_target
times the candidate mass) is at most their candidate count share one
Poisson superposition, the others toss one coin per candidate.

Dynamic: every merger activates one Poisson arrival process per vertex of the
absorbed block, pointed at the absorbing block; arrivals pick a mass-biased
target and create a surplus edge.  The simple variant drops duplicates and
loops; the multigraph variant keeps everything and adds per-vertex loop
processes running from time 0 at rate mass**2 / 2.  Independent Poisson
processes superpose: the dynamic graph draws one Poisson total over the
process table (``_process_table``) and then one uniform call each for the
arrivals' processes, times and targets, and the count sampler draws one
Poisson count per component from its summed intensity, q times the area
under the reflected walk (the augmented multiplicative coalescent).
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, repeat, takewhile
from operator import mul
from typing import Literal

import numpy as np

from .core import RngStream, check_level, groups, union
from .dynamics import GraphEdge, Trajectory, _Level
from .walk import Excursion, ExcursionDecomposition, Forest, WalkPath

__all__ = [
    "InfluenceRegion",
    "GraphEdge",
    "LabeledGraph",
    "ZetaProcess",
    "influence_region",
    "static_surplus",
    "total_intensity",
    "activated_processes",
    "dynamic_surplus",
    "SurplusCountSampler",
]

Variant = Literal["simple", "multigraph"]


@dataclass(frozen=True)
class InfluenceRegion:
    """Candidate surplus sources of one target rank: the consecutive ranks
    target_rank+1..end-1, empty for a root (end == target_rank + 1)."""

    target_rank: int
    end: int

    def ranks(self) -> range:
        return range(self.target_rank + 1, self.end)


def influence_region(
    path: WalkPath,
    decomposition: ExcursionDecomposition,
    forest: Forest,
    h: int,
) -> InfluenceRegion:
    """Region of rank h: ranks l > h with t_l in (t_h, window_end(h-1)].

    Roots get an empty region.  Candidates are always in the same tree and,
    by the breadth-first structure, either in the target's generation or the
    next one; any other depth raises.
    """
    exc = decomposition.excursion_of_rank(h)
    if h == exc.rank_lo:
        return InfluenceRegion(target_rank=h, end=h + 1)
    end = _region_end(path, exc, h)
    perm, depth = path.perm, forest.depth
    depth_h = depth[perm[h]]
    for l in range(h + 1, end):
        if depth[perm[l]] - depth_h not in (0, 1):
            raise AssertionError(f"unexpected generation gap at rank {l}")
    return InfluenceRegion(target_rank=h, end=end)


def _window_end(path: WalkPath, exc: Excursion, h: int) -> float:
    """End of the listening window that non-root rank h fell into."""
    cm = path.cummass
    root = exc.rank_lo
    return path.jump_times[root] + (cm[h - 1] - (cm[root - 1] if root else 0.0))


def _region_end(path: WalkPath, exc: Excursion, h: int) -> int:
    """One past the last candidate of rank h: the jump times are sorted."""
    return bisect_right(path.jump_times, _window_end(path, exc, h), h + 1, exc.rank_hi + 1)


@dataclass(frozen=True)
class LabeledGraph:
    """Spanning skeleton plus surplus edges, with creation times."""

    n: int
    spanning: tuple[GraphEdge, ...]
    surplus: tuple[GraphEdge, ...]

    def pair_set(self) -> frozenset[frozenset[int]]:
        """Unordered vertex pairs, loops excluded (simple-graph view)."""
        pairs = set()
        for e in self.spanning + self.surplus:
            if e.source != e.target:
                pairs.add(frozenset((e.source, e.target)))
        return frozenset(pairs)

    def partition_at(self, q: float) -> frozenset[frozenset[int]]:
        """Components of the edges with time <= q (loops irrelevant); NaN q raises."""
        check_level(q)
        parent = list(range(self.n))
        for e in self.spanning + self.surplus:
            if e.time <= q:
                union(parent, e.source, e.target)
        return groups(parent)


def _draw_plan(
    path: WalkPath, decomposition: ExcursionDecomposition, forest: Forest
) -> tuple[list[tuple[int, int, float]], list[tuple[int, int]], list[tuple[int, int, float]]]:
    """Rate table of the static surplus, split into coins and pool.

    ``rows`` holds (h, e, rate) for every non-root rank h with a candidate,
    in rank order: its candidates are the ranks h+1..e-1 and its rate is
    q * m_h times their mass, a difference of prefix masses.  A row whose
    rate is at most its candidate count joins ``pool`` (if the rate is
    positive); every other one (rate above the count, inf or nan) adds one
    coin per candidate to ``coins``, as (h, l) pairs in candidate order, so
    a target costs at most min(rate, count) expected arrivals or coins.
    Raises on a generation gap: breadth-first listing makes depth
    nondecreasing in rank inside an excursion, so that check plus the depth
    of each region's last candidate bounds every candidate's depth.
    """
    q, sizes, cm = path.q, path.jump_sizes, path.cummass
    depth = list(map(forest.depth.__getitem__, path.perm))  # by rank
    rows: list[tuple[int, int, float]] = []
    coins: list[tuple[int, int]] = []
    pool: list[tuple[int, int, float]] = []
    for exc in decomposition.excursions:
        for h in range(exc.rank_lo + 1, exc.rank_hi + 1):
            if depth[h] < depth[h - 1]:
                raise AssertionError(f"unexpected generation gap at rank {h}")
            e = _region_end(path, exc, h)
            if e - h == 1:
                continue
            if depth[e - 1] > depth[h] + 1:
                raise AssertionError(f"unexpected generation gap at rank {e - 1}")
            lam = q * sizes[h] * (cm[e - 1] - cm[h])
            rows.append((h, e, lam))
            if not lam <= e - h - 1:
                coins += zip(repeat(h), range(h + 1, e))
            elif lam > 0.0:
                pool.append(rows[-1])
    return rows, coins, pool


def static_surplus(
    path: WalkPath,
    decomposition: ExcursionDecomposition,
    forest: Forest,
    rng: RngStream,
) -> LabeledGraph:
    """Forest at q plus independently drawn surplus edges.

    Candidate l of target h carries an edge with probability
    1 - exp(-q * m_h * m_l), the chance that a Poisson count of that mean is
    positive.  The pooled targets of ``_draw_plan`` share one Poisson count
    whose arrivals pick a target by bisection on the cumulative rates and a
    candidate by bisection on the prefix masses; the distinct pairs are the
    edges.  The other targets toss one coin per candidate.  Both are exact,
    so with the spanning edges this is, in law, the random graph with
    independent pair probabilities 1 - exp(-q * m_i * m_j).  The
    ``"static-surplus"`` stream draws the pool's count (if there is a pool),
    then one uniform call: the coins in candidate order, then a target and a
    candidate uniform per arrival.  Edges come out in (target, candidate)
    rank order.
    """
    q = path.q
    sizes, perm, cm = path.jump_sizes, path.perm, path.cummass
    spanning = tuple([GraphEdge(v, p, q, "span") for v, p in forest.edges()])
    _, coins, pool = _draw_plan(path, decomposition, forest)
    if not (coins or pool):
        return LabeledGraph(n=len(path), spanning=spanning, surplus=())
    gen = rng.named("static-surplus").generator()
    total = 0
    if pool:
        cum = list(accumulate((lam for _, _, lam in pool), initial=0.0))
        total = int(gen.poisson(cum[-1]))
    draws = gen.random(len(coins) + 2 * total).tolist()
    found = [
        (h, l) for (h, l), u in zip(coins, draws) if u < -math.expm1(-q * sizes[h] * sizes[l])
    ]
    if total:
        arrived = set()
        arrivals = iter(draws[len(coins) :])
        for u_target, u_cand in zip(arrivals, arrivals):
            h, e, _ = pool[bisect_right(cum, u_target * cum[-1], 1, len(pool)) - 1]
            l = bisect_right(cm, cm[h] + u_cand * (cm[e - 1] - cm[h]), h + 1, e - 1)
            arrived.add((h, l))
        found = sorted(arrived.union(found))
    extra = tuple([GraphEdge(perm[l], perm[h], q, "simple") for h, l in found])
    return LabeledGraph(n=len(path), spanning=spanning, surplus=extra)


def total_intensity(path: WalkPath, decomposition: ExcursionDecomposition, h: int) -> float:
    """q * (reflected walk at the window end minus the target's own mass).

    Equals q times the total candidate mass in the influence region of rank
    h, exactly — the walk value at the end of the preceding listening window
    counts the target's jump plus every candidate jump and nothing else.
    """
    exc = decomposition.excursion_of_rank(h)
    if h == exc.rank_lo:
        return 0.0
    return path.q * (path.eval_B(_window_end(path, exc, h)) - path.jump_sizes[h])


@dataclass(frozen=True)
class ZetaProcess:
    """One arrival process: source rank l shooting at absorbed range j..k.

    Activated at ``activation`` (0 for loop processes, where j == k == l);
    arrivals come at rate ``rate`` from then on, each picking a mass-biased
    target rank in j..k.
    """

    l: int
    j: int
    k: int
    activation: float
    rate: float
    target_mass: float


def _check_horizon(trajectory: Trajectory, q_max: float) -> None:
    if not 0.0 <= q_max <= trajectory.q_max:
        raise ValueError(f"q_max={q_max} outside the horizon [0, {trajectory.q_max}]")


def _process_table(
    trajectory: Trajectory, q_max: float, include_loops: bool
) -> tuple[list[int], list[int], list[int], list[float], list[float], list[float]]:
    """Every arrival process activated by time q_max, as parallel lists.

    Returns (l, j, k, activation, rate, target_mass) in activation order:
    the loop processes first (if included) in rank order, then each merger's
    processes, right-block ranks ascending (the level view's columns, which
    are shared: callers must not mutate them).
    """
    level = _Level.of(trajectory, q_max)
    if not include_loops:
        return level.processes
    ls, js, ks, acts, rates, tmass = level.processes
    sizes = level.sizes
    loops = range(len(sizes))
    return (
        [*loops, *ls],
        [*loops, *js],
        [*loops, *ks],
        [0.0] * len(sizes) + acts,
        [m * m / 2.0 for m in sizes] + rates,
        sizes + tmass,
    )


def activated_processes(
    trajectory: Trajectory, q_max: float, include_loops: bool
) -> tuple[ZetaProcess, ...]:
    """Every arrival process activated by time q_max, in activation order.

    A merger of left block [j..k] with right block [r..m] activates one
    process per right-block vertex l, at rate mass(l) * mass(j..k).  Loop
    processes (multigraph only) exist from time 0 at rate mass(l)**2 / 2.
    """
    _check_horizon(trajectory, q_max)
    return tuple(map(ZetaProcess, *_process_table(trajectory, q_max, include_loops)))


def dynamic_surplus(
    trajectory: Trajectory,
    rng: RngStream,
    q_max: float,
    variant: Variant = "simple",
) -> LabeledGraph:
    """Surplus edges from the activated arrival processes up to q_max.

    Independent Poisson processes are one Poisson process of the summed
    intensity whose arrivals pick their process in proportion to its
    intensity, so the ``"dynamic-surplus-<variant>"`` stream draws, in this
    order: the total arrival count (one Poisson draw), then one uniform per
    arrival for its process (bisection on the cumulative intensities), one
    per arrival for its time (uniform on [activation, q_max]) and one per
    arrival for its target, each set in one call.  A target is one bisection
    on the rank-order prefix masses inside the absorbing block, as in the
    engine's edge draw.  Arrivals across all processes are merged
    chronologically with the spanning-edge log so that the simple variant's
    duplicate check sees exactly the edges present at each arrival time.
    """
    if variant not in ("simple", "multigraph"):
        raise ValueError(f"unknown variant {variant!r}")
    _check_horizon(trajectory, q_max)
    gen = rng.named(f"dynamic-surplus-{variant}").generator()
    perm = trajectory.clocks.perm
    level = _Level.of(trajectory, q_max)
    ls, js, ks, acts, rates, tmass = _process_table(
        trajectory, q_max, include_loops=(variant == "multigraph")
    )
    spans = [q_max - a for a in acts]
    # process i owns [cum_lam[i], cum_lam[i + 1]) of the summed intensity
    cum_lam = list(accumulate(map(mul, rates, spans), initial=0.0))
    total = int(gen.poisson(cum_lam[-1]))

    arrivals: list[tuple[float, int, int]] = []  # (time, source rank, target rank)
    if total:
        which = gen.random(total).tolist()
        times = gen.random(total).tolist()
        picks = gen.random(total).tolist()
        cum = list(accumulate(level.sizes, initial=0.0))
        for u, t, p in zip(which, times, picks):
            i = bisect_right(cum_lam, u * cum_lam[-1], 1, len(acts)) - 1
            j = js[i]
            tgt = bisect_right(cum, cum[j] + p * tmass[i], j + 1, ks[i] + 1) - 1
            arrivals.append((acts[i] + spans[i] * t, ls[i], tgt))
        arrivals.sort()

    spanning = level.spanning
    surplus: list[GraphEdge] = []
    if variant == "multigraph":
        for t, l, tgt in arrivals:
            s_v, t_v = perm[l], perm[tgt]
            kind = "loop" if s_v == t_v else "multi"
            surplus.append(GraphEdge(s_v, t_v, t, kind))
    else:
        present: set[frozenset[int]] = set()
        span_times = [e.time for e in spanning]
        span_idx = 0
        for t, l, tgt in arrivals:
            while span_idx < len(spanning) and span_times[span_idx] <= t:
                e = spanning[span_idx]
                present.add(frozenset((e.source, e.target)))
                span_idx += 1
            s_v, t_v = perm[l], perm[tgt]
            pair = frozenset((s_v, t_v))
            if len(pair) == 1 or pair in present:
                continue
            present.add(pair)
            surplus.append(GraphEdge(s_v, t_v, t, "simple"))
    return LabeledGraph(n=len(trajectory.config), spanning=spanning, surplus=tuple(surplus))


class SurplusCountSampler:
    """Batched multigraph surplus counts, grouped by component at q_max.

    Given the trajectory, a component's count is a sum of independent
    Poisson counts, one per activated process inside it, so it is one
    Poisson variable whose mean is the summed intensity: q_max * m**2 / 2
    per loop, plus left.mass * right.mass * (q_max - time) per merger inside
    the component.  That mean equals q_max times the area under the
    reflected walk over the component's excursion.  Each batch is one
    Poisson draw per (rep, component).  The count law matches
    dynamic_surplus's multigraph variant exactly (targets do not affect
    counts).  ``lam`` gives the per-process intensities, computed on first
    access.
    """

    def __init__(self, trajectory: Trajectory, q_max: float):
        _check_horizon(trajectory, q_max)
        self.trajectory = trajectory
        self.q_max = q_max
        perm = trajectory.clocks.perm
        level = _Level.of(trajectory, q_max)
        blocks = level.blocks
        self.components = [frozenset(perm[b.lo : b.hi + 1]) for b in blocks]
        self.n_components = len(blocks)
        starts = [b.lo for b in blocks]
        sizes = np.asarray(level.sizes)
        events = list(takewhile(lambda ev: ev.time <= q_max, trajectory.events))
        merged = np.bincount(
            np.searchsorted(starts, [ev.left.lo for ev in events], side="right") - 1,
            weights=[ev.left.mass * ev.right.mass * (q_max - ev.time) for ev in events],
            minlength=self.n_components,
        )
        self._lam_by_component = np.add.reduceat(sizes * sizes / 2.0 * q_max, starts) + merged

    @cached_property
    def lam(self) -> np.ndarray:
        """Intensity of each activated process, in activation order."""
        _, _, _, acts, rates, _ = _process_table(self.trajectory, self.q_max, include_loops=True)
        return np.asarray(rates) * (self.q_max - np.asarray(acts))

    def expected_by_component(self) -> np.ndarray:
        """Surplus intensity of each component (``components`` order): q_max
        times the area under the reflected walk over its excursion."""
        return self._lam_by_component.copy()

    def counts(self, rng: RngStream, reps: int) -> np.ndarray:
        """(reps, n_components) matrix of total surplus counts."""
        gen = rng.named("surplus-counts").generator()
        return gen.poisson(lam=self._lam_by_component, size=(reps, self.n_components))
