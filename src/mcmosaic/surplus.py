"""Surplus (cycle-creating) edges, static and dynamic variants.

Static: at a fixed q, each non-root vertex has an influence region — the
later-listed vertices whose scaled clocks fall between its own jump and the
end of the preceding listening window.  Each candidate connects to it
independently with probability 1 - exp(-q * m_target * m_candidate).

Dynamic: every merger activates one Poisson arrival process per vertex of the
absorbed block, pointed at the absorbing block; arrivals pick a mass-biased
target and create a surplus edge.  The simple variant drops duplicates and
loops; the multigraph variant keeps everything and adds per-vertex loop
processes running from time 0 at rate mass**2 / 2.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import RngStream, groups, union
from .dynamics import Trajectory
from .walk import ExcursionDecomposition, Forest, WalkPath

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
    """Candidate surplus sources for one target rank.

    ``candidates`` holds (rank, case) pairs; case is "same_generation" when
    the candidate sits in the target's generation and "next_generation" when
    it is a child of an earlier vertex of that generation.
    """

    target_rank: int
    candidates: tuple[tuple[int, str], ...]

    def ranks(self) -> tuple[int, ...]:
        return tuple(r for r, _ in self.candidates)


def influence_region(
    path: WalkPath,
    decomposition: ExcursionDecomposition,
    forest: Forest,
    h: int,
) -> InfluenceRegion:
    """Region of rank h: ranks l > h with t_l in (t_h, window_end(h-1)].

    Roots get an empty region.  Candidates are always in the same tree and,
    by the breadth-first structure, either in the target's generation or the
    next one.
    """
    exc = decomposition.excursion_of_rank(h)
    root = exc.rank_lo
    if h == root:
        return InfluenceRegion(target_rank=h, candidates=())
    times = path.jump_times
    cm = path.cummass
    window_end = times[root] + (cm[h - 1] - (cm[root - 1] if root else 0.0))

    target_v = path.perm[h]
    depth_h = forest.depth[target_v]
    out = []
    l = h + 1
    while l <= exc.rank_hi and times[l] <= window_end:
        v = path.perm[l]
        d = forest.depth[v]
        if d == depth_h:
            case = "same_generation"
        elif d == depth_h + 1:
            case = "next_generation"
        else:  # breadth-first listing admits no other depth in the window
            raise AssertionError(f"unexpected generation gap at rank {l}")
        out.append((l, case))
        l += 1
    return InfluenceRegion(target_rank=h, candidates=tuple(out))


@dataclass(frozen=True)
class GraphEdge:
    source: int  # child end / later-listed vertex
    target: int  # parent end / earlier-listed vertex
    time: float  # q of creation (static: evaluation q)
    kind: str  # "span" | "simple" | "multi" | "loop"


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

    def partition(self) -> frozenset[frozenset[int]]:
        """Connected components induced by all edges (loops irrelevant)."""
        parent = list(range(self.n))
        for e in self.spanning + self.surplus:
            union(parent, e.source, e.target)
        return groups(parent)

    def surplus_by_vertex_set(self) -> dict[frozenset[int], int]:
        """Surplus edge count (loops included) per spanning component."""
        parent = list(range(self.n))
        for e in self.spanning:
            union(parent, e.source, e.target)
        comps = groups(parent)
        comp_of = {v: c for c in comps for v in c}
        counts = dict.fromkeys(comps, 0)
        for e in self.surplus:
            counts[comp_of[e.source]] += 1
        return counts


def static_surplus(
    path: WalkPath,
    decomposition: ExcursionDecomposition,
    forest: Forest,
    rng: RngStream,
) -> LabeledGraph:
    """Forest at q plus independently tossed surplus edges.

    Together with the spanning edges this reproduces, in law, the random
    graph with independent pair probabilities 1 - exp(-q * m_i * m_j).
    """
    q = path.q
    gen = rng.named("static-surplus").generator()
    n = len(path)
    spanning = tuple(
        GraphEdge(source=v, target=p, time=q, kind="span") for v, p in forest.edges()
    )
    extra = []
    for exc in decomposition.excursions:
        for h in range(exc.rank_lo + 1, exc.rank_hi + 1):
            region = influence_region(path, decomposition, forest, h)
            m_h = path.jump_sizes[h]
            for l, _case in region.candidates:
                p_edge = -math.expm1(-q * m_h * path.jump_sizes[l])
                if gen.random() < p_edge:
                    extra.append(
                        GraphEdge(
                            source=path.perm[l], target=path.perm[h], time=q, kind="simple"
                        )
                    )
    return LabeledGraph(n=n, spanning=spanning, surplus=tuple(extra))


def total_intensity(path: WalkPath, decomposition: ExcursionDecomposition, h: int) -> float:
    """q * (reflected walk at the window end minus the target's own mass).

    Equals q times the total candidate mass in the influence region of rank
    h, exactly — the walk value at the end of the preceding listening window
    counts the target's jump plus every candidate jump and nothing else.
    """
    exc = decomposition.excursion_of_rank(h)
    root = exc.rank_lo
    if h == root:
        return 0.0
    cm = path.cummass
    window_end = path.jump_times[root] + (cm[h - 1] - (cm[root - 1] if root else 0.0))
    return path.q * (path.eval_B(window_end) - path.jump_sizes[h])


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


def activated_processes(
    trajectory: Trajectory, q_max: float, include_loops: bool
) -> tuple[ZetaProcess, ...]:
    """Every arrival process activated by time q_max, in activation order.

    A merger of left block [j..k] with right block [r..m] activates one
    process per right-block vertex l, at rate mass(l) * mass(j..k).  Loop
    processes (multigraph only) exist from time 0 at rate mass(l)**2 / 2.
    """
    perm = trajectory.clocks.perm
    masses = trajectory.config.masses
    out: list[ZetaProcess] = []
    if include_loops:
        for rank in range(len(trajectory.config)):
            m = masses[perm[rank]]
            out.append(
                ZetaProcess(l=rank, j=rank, k=rank, activation=0.0, rate=m * m / 2.0, target_mass=m)
            )
    for ev in trajectory.events:
        if ev.time > q_max:
            break
        xi_left = ev.left.mass
        for l in ev.right.ranks():
            m_l = masses[perm[l]]
            out.append(
                ZetaProcess(
                    l=l,
                    j=ev.left.lo,
                    k=ev.left.hi,
                    activation=ev.time,
                    rate=m_l * xi_left,
                    target_mass=xi_left,
                )
            )
    return tuple(out)


def dynamic_surplus(
    trajectory: Trajectory,
    rng: RngStream,
    q_max: float,
    variant: Variant = "simple",
) -> LabeledGraph:
    """Surplus edges from the activated arrival processes up to q_max.

    Arrivals across all processes are merged chronologically with the
    spanning-edge log so that the simple variant's duplicate check sees
    exactly the edges present at each arrival time.
    """
    if variant not in ("simple", "multigraph"):
        raise ValueError(f"unknown variant {variant!r}")
    if q_max > trajectory.q_max:
        raise ValueError("q_max exceeds the trajectory horizon")
    gen = rng.named(f"dynamic-surplus-{variant}").generator()
    perm = trajectory.clocks.perm
    masses = trajectory.config.masses
    procs = activated_processes(trajectory, q_max, include_loops=(variant == "multigraph"))

    arrivals: list[tuple[float, int, int]] = []  # (time, source rank, target rank)
    for z in procs:
        lam = z.rate * (q_max - z.activation)
        if lam <= 0.0:
            continue
        count = gen.poisson(lam)
        if count == 0:
            continue
        times = z.activation + (q_max - z.activation) * gen.random(count)
        if z.j == z.k:
            targets = np.full(count, z.j)
        else:
            block = [masses[perm[r]] for r in range(z.j, z.k + 1)]
            probs = np.asarray(block) / z.target_mass
            targets = z.j + gen.choice(len(block), size=count, p=probs)
        for t, tgt in zip(times, targets):
            arrivals.append((float(t), z.l, int(tgt)))
    arrivals.sort()

    span_log = [(ev.time, ev.edge[0], ev.edge[1]) for ev in trajectory.events if ev.time <= q_max]
    spanning = tuple(
        GraphEdge(source=c, target=p, time=t, kind="span") for t, c, p in span_log
    )

    surplus: list[GraphEdge] = []
    if variant == "multigraph":
        for t, l, tgt in arrivals:
            s_v, t_v = perm[l], perm[tgt]
            kind = "loop" if s_v == t_v else "multi"
            surplus.append(GraphEdge(source=s_v, target=t_v, time=t, kind=kind))
    else:
        present: set[frozenset[int]] = set()
        span_times = [t for t, _, _ in span_log]
        span_idx = 0
        for t, l, tgt in arrivals:
            while span_idx < len(span_log) and span_times[span_idx] <= t:
                _, c, p = span_log[span_idx]
                present.add(frozenset((c, p)))
                span_idx += 1
            s_v, t_v = perm[l], perm[tgt]
            pair = frozenset((s_v, t_v))
            if len(pair) == 1 or pair in present:
                continue
            present.add(pair)
            surplus.append(GraphEdge(source=s_v, target=t_v, time=t, kind="simple"))
    return LabeledGraph(n=len(trajectory.config), spanning=spanning, surplus=tuple(surplus))


class SurplusCountSampler:
    """Batched multigraph surplus counts, grouped by component at q_max.

    Precomputes the activated processes of a fixed trajectory once; each
    batch then draws the per-process Poisson counts in bulk and sums them by
    component.  The count law matches dynamic_surplus's multigraph variant
    exactly (targets do not affect counts).
    """

    def __init__(self, trajectory: Trajectory, q_max: float):
        self.trajectory = trajectory
        self.q_max = q_max
        procs = activated_processes(trajectory, q_max, include_loops=True)
        blocks = trajectory.blocks_at(q_max)
        owner = {}
        for ci, b in enumerate(blocks):
            for r in b.ranks():
                owner[r] = ci
        self.components = [
            frozenset(trajectory.clocks.perm[r] for r in b.ranks()) for b in blocks
        ]
        self.lam = np.asarray([z.rate * (q_max - z.activation) for z in procs])
        self.group = np.asarray([owner[z.l] for z in procs], dtype=int)
        self.n_components = len(blocks)

    def expected_by_component(self) -> np.ndarray:
        out = np.zeros(self.n_components)
        np.add.at(out, self.group, self.lam)
        return out

    def counts(self, rng: RngStream, reps: int) -> np.ndarray:
        """(reps, n_components) matrix of total surplus counts."""
        gen = rng.named("surplus-counts").generator()
        raw = gen.poisson(lam=self.lam, size=(reps, len(self.lam)))
        out = np.zeros((reps, self.n_components), dtype=np.int64)
        for ci in range(self.n_components):
            mask = self.group == ci
            if mask.any():
                out[:, ci] = raw[:, mask].sum(axis=1)
        return out
