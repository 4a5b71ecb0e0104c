"""Surplus (cycle-creating) edges, static and dynamic variants.

Both simple graphs draw independent vertex pairs with one pair kernel
(``_draw_pairs``).  Static: at a fixed q, each non-root vertex has an
influence region — the later-listed vertices whose scaled clocks fall
between its own jump and the end of the preceding listening window, one run
of consecutive ranks — and each candidate joins it with probability
1 - exp(-q * m_target * m_cand).

Dynamic: every merger activates one Poisson arrival process per vertex of the
absorbed block, pointed at the absorbing block (the augmented multiplicative
coalescent), and each vertex has a loop process from time 0 at rate
mass**2 / 2.  The level view holds them all in one table, loops first, with
their intensities (``dynamics._Level.processes``), and every reader here
slices it.  The simple variant keeps each pair's first arrival of the merger
rows, drawn with the pair kernel; the multigraph variant keeps every arrival
and draws one Poisson total over the whole table, then each arrival's
process, time and target.  The count sampler draws one Poisson count per
component from its summed intensity, q times the area under the reflected
walk.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, compress, repeat
from operator import itemgetter, le, not_, sub
from typing import Literal, NamedTuple, Sequence

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


class InfluenceRegion(NamedTuple):
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

    Those are the ranks l > h with cum[h] - t_l >= floor, the excursion's
    floor cum[root] - t_root: the ranks the forest hangs on a rank below h.
    Roots get an empty region.  Candidates are always in the same tree and,
    by the breadth-first structure, either in the target's generation or the
    next one; any other depth raises.
    """
    exc = decomposition.excursion_of_rank(h)
    root, end = exc.rank_lo, h + 1
    if h == root:
        return InfluenceRegion(h, end)
    times, cum, perm, depth = path.jump_times, path.cum, path.perm, forest.depth
    floor, depth_h = path.troughs[root], depth[perm[h]]
    while end <= exc.rank_hi and cum[h] - times[end] >= floor:
        if depth[perm[end]] - depth_h not in (0, 1):
            raise AssertionError(f"unexpected generation gap at rank {end}")
        end += 1
    return InfluenceRegion(h, end)


def _window_end(path: WalkPath, exc: Excursion, h: int) -> float:
    """End of the listening window that non-root rank h fell into."""
    root = exc.rank_lo
    return path.jump_times[root] + (path.cum[h] - path.cum[root])


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
) -> tuple[list[int], list[int], list[float]]:
    """Rows of the static surplus as columns (lo, e, rate), in rank order.

    One row per non-root rank h with a candidate: the ranks lo..e-1,
    lo = h + 1, at rate q * m_h times their mass, a difference of prefix
    masses.  The region ends e (``influence_region``'s test) never fall as h
    grows inside an excursion, so one forward scan finds them all; rank h
    itself passes the test, being in the tree.  Raises
    on a generation gap: breadth-first listing makes depth nondecreasing in
    rank inside an excursion, so that check plus the depth of each region's
    last candidate bounds every candidate's depth.
    """
    q, sizes, cum, times = path.q, path.jump_sizes, path.cum, path.jump_times
    depth = list(map(forest.depth.__getitem__, path.perm))  # by rank
    los, ends, rates = [], [], []
    for exc in decomposition.excursions:
        root, hi = exc.rank_lo, exc.rank_hi
        floor, e = path.troughs[root], root + 1
        for h in range(root + 1, hi + 1):
            if depth[h] < depth[h - 1]:
                raise AssertionError(f"unexpected generation gap at rank {h}")
            while e <= hi and cum[h] - times[e] >= floor:
                e += 1
            if e - h == 1:
                continue
            if depth[e - 1] > depth[h] + 1:
                raise AssertionError(f"unexpected generation gap at rank {e - 1}")
            los.append(h + 1)
            ends.append(e)
            rates.append(q * sizes[h] * (cum[e] - cum[h + 1]))
    return los, ends, rates


def _split(los: list[int], ends: list[int], rates: list[float]) -> tuple[list, Sequence[int]]:
    """Coin rows and pooled rows of the pair kernel, over nonnegative rates:
    a row whose rate is at most its candidate count joins the pool (if the
    rate is positive), every other one (rate above the count, inf or nan)
    tosses one coin per candidate.  So a row costs at most min(rate, count)
    expected arrivals or coins."""
    fits = list(map(le, rates, map(sub, ends, los)))
    rows = range(len(fits))
    if all(fits) and all(rates):
        return [], rows
    pool = compress(compress(rows, fits), compress(rates, fits))  # rates > 0
    return list(compress(rows, map(not_, fits))), list(pool)


def _draw_pairs(rng: RngStream, name: str, los, ends, rates, weight, sizes, cum) -> tuple:
    """The distinct (row, candidate) pairs of one independent draw, in order,
    and the generator (None: no draw).

    Row i has the candidates lo..e-1 and a rate w * (cum[e] - cum[lo]),
    w = weight(i), ``cum`` the prefix masses from 0: candidate c is present
    with probability 1 - exp(-w * sizes[c]), the chance that a Poisson count
    of that mean is positive.  The pooled rows share one Poisson count; each
    arrival picks a row and a candidate by bisection on the cumulative rates
    and on ``cum``.  The stream ``name`` draws that count (if there is a
    pool), then one uniform call: the coins, then two uniforms per arrival.
    """
    coin_rows, pool = _split(los, ends, rates)
    if not (coin_rows or pool):
        return [], None
    gen = rng.named(name).generator()
    pooled = rates if len(pool) == len(rates) else map(rates.__getitem__, pool)
    cum_rate = list(accumulate(pooled, initial=0.0))
    total = int(gen.poisson(cum_rate[-1])) if pool else 0
    ws = zip(coin_rows, map(weight, coin_rows))  # w for the coin rows only
    coins = [(i, c, w) for i, w in ws for c in range(los[i], ends[i])]
    draws = gen.random(len(coins) + 2 * total).tolist()
    found = [(i, c) for (i, c, w), u in zip(coins, draws) if u < -math.expm1(-w * sizes[c])]
    if total:
        arrived = set()
        arrivals = iter(draws[len(coins) :])
        for u_row, u_cand in zip(arrivals, arrivals):
            i = pool[bisect_right(cum_rate, u_row * cum_rate[-1], 1, len(pool)) - 1]
            lo, e = los[i], ends[i]
            arrived.add((i, bisect_right(cum, cum[lo] + u_cand * (cum[e] - cum[lo]), lo + 1, e) - 1))
        found = sorted(arrived.union(found))
    return found, gen


def static_surplus(
    path: WalkPath,
    decomposition: ExcursionDecomposition,
    forest: Forest,
    rng: RngStream,
) -> LabeledGraph:
    """Forest at q plus independently drawn surplus edges.

    Candidate l of target h carries an edge with probability
    1 - exp(-q * m_h * m_l): the pair kernel (``_draw_pairs``) over the rows
    of ``_draw_plan``, on the ``"static-surplus"`` stream.  With the
    spanning edges this is, in law, the random graph with independent pair
    probabilities 1 - exp(-q * m_i * m_j).  Edges come out in (target,
    candidate) rank order.
    """
    q, sizes, perm = path.q, path.jump_sizes, path.perm
    spanning = tuple([GraphEdge(v, p, q, "span") for v, p in forest.edges()])
    los, ends, rates = _draw_plan(path, decomposition, forest)
    found, _ = _draw_pairs(
        rng, "static-surplus", los, ends, rates,
        lambda i: q * sizes[los[i] - 1], sizes, path.cum,
    )
    extra = tuple([GraphEdge(perm[c], perm[los[i] - 1], q, "simple") for i, c in found])
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


class ZetaProcess(NamedTuple):
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


def activated_processes(
    trajectory: Trajectory, q_max: float, include_loops: bool
) -> tuple[ZetaProcess, ...]:
    """Every arrival process activated by time q_max, in activation order.

    A merger of left block [j..k] with right block [r..m] activates one
    process per right-block vertex l, at rate mass(l) * mass(j..k).  Loop
    processes (multigraph only) exist from time 0 at rate mass(l)**2 / 2.
    """
    level = _Level.at(trajectory, q_max)
    skip = 0 if include_loops else len(level.sizes)
    ls, js, ends, *rest = (col[skip:] for col in level.processes[:6])
    return tuple(map(ZetaProcess, ls, js, map(sub, ends, repeat(1)), *rest))


def dynamic_surplus(
    trajectory: Trajectory,
    rng: RngStream,
    q_max: float,
    variant: Variant = "simple",
) -> LabeledGraph:
    """Surplus edges from the activated arrival processes up to q_max, by time.

    Given the trajectory, each vertex pair {l, v} lies in exactly one
    non-loop process, the one of the merger (at a) that joins their blocks,
    and arrives after a at rate m_l * m_v.  The simple variant keeps each
    pair's first arrival: the pair kernel over one row per merger process
    (the absorbing block at the process's intensity, weight (q_max - a) * m_l)
    draws the pairs, the merger's own spanning pair is dropped, and one
    uniform call gives each pair a time, Exp(m_l * m_v) truncated to
    [a, q_max].  The multigraph keeps every arrival, loops included: its
    stream draws the Poisson total, then one uniform call holding every
    arrival's process (bisection on the cumulative intensities), then its
    time (uniform on [activation, q_max]), then its target (bisection on
    the prefix masses, as in the engine's edge draw).  At q_max = 0 no
    arrival has come yet: the spanning edges logged at 0, no surplus.
    """
    if variant not in ("simple", "multigraph"):
        raise ValueError(f"unknown variant {variant!r}")
    level = _Level.at(trajectory, q_max)
    perm = trajectory.clocks.perm
    sizes, spanning = level.sizes, level.spanning
    if q_max == 0.0:  # and there is no walk at 0
        return LabeledGraph(n=len(trajectory.config), spanning=spanning, surplus=())
    cum = level.walk.cum
    surplus: list[GraphEdge] = []
    if variant == "simple":
        ls, js, ends, acts, _, _, lam = (col[len(sizes) :] for col in level.processes)
        found, gen = _draw_pairs(
            rng, "dynamic-surplus-simple", js, ends, lam, lambda i: (q_max - acts[i]) * sizes[ls[i]],
            sizes, cum,
        )
        own = set(spanning)  # a merger's own pair: (child, parent, activation, "span")
        found = [(i, c) for i, c in found if (perm[ls[i]], perm[c], acts[i], "span") not in own]
        for (i, c), u in zip(found, gen.random(len(found)).tolist() if found else ()):
            a, l, r = acts[i], ls[i], sizes[ls[i]] * sizes[c]
            t = a - math.log1p(u * math.expm1(-r * (q_max - a))) / r
            surplus.append(GraphEdge(perm[l], perm[c], min(t, q_max), "simple"))
    else:
        ls, js, ends, acts, _, tmass, lam = level.processes
        # process i owns [cum_lam[i], cum_lam[i + 1]) of the summed intensity
        cum_lam = list(accumulate(lam, initial=0.0))
        gen = rng.named("dynamic-surplus-multigraph").generator()
        total = int(gen.poisson(cum_lam[-1]))
        for u, t, p in zip(*gen.random((3, total)).tolist()):
            i = bisect_right(cum_lam, u * cum_lam[-1], 1, len(acts)) - 1
            j = js[i]
            tgt = bisect_right(cum, cum[j] + p * tmass[i], j + 1, ends[i]) - 1
            s_v, t_v = perm[ls[i]], perm[tgt]
            kind = "loop" if s_v == t_v else "multi"
            surplus.append(GraphEdge(s_v, t_v, acts[i] + (q_max - acts[i]) * t, kind))
    surplus.sort(key=itemgetter(2))
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
        level = _Level.at(trajectory, q_max)
        self.trajectory = trajectory
        self.q_max = q_max
        perm = trajectory.clocks.perm
        blocks = level.blocks
        self.components = [frozenset(perm[b.lo : b.hi + 1]) for b in blocks]
        self.n_components = len(blocks)
        starts = [b.lo for b in blocks]
        sizes = np.asarray(level.sizes)
        events = level.events
        merged = np.bincount(
            np.searchsorted(starts, [ev.left.lo for ev in events], side="right") - 1,
            weights=[ev.left.mass * ev.right.mass * (q_max - ev.time) for ev in events],
            minlength=self.n_components,
        )
        self._lam_by_component = np.add.reduceat(sizes * sizes / 2.0 * q_max, starts) + merged

    @cached_property
    def lam(self) -> np.ndarray:
        """Intensity of each activated process, loops first (the level view's
        process table)."""
        return np.asarray(_Level.of(self.trajectory, self.q_max).processes[6])

    def expected_by_component(self) -> np.ndarray:
        """Surplus intensity of each component (``components`` order): q_max
        times the area under the reflected walk over its excursion."""
        return self._lam_by_component.copy()

    def counts(self, rng: RngStream, reps: int) -> np.ndarray:
        """(reps, n_components) matrix of total surplus counts."""
        gen = rng.named("surplus-counts").generator()
        return gen.poisson(lam=self._lam_by_component, size=(reps, self.n_components))
