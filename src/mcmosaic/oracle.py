"""Ground truth for the graph laws, built the obvious slow way.

Every pair of vertices gets its own exponential clock at rate mass_i *
mass_j; the multigraph version uses Poisson arrival counts per ordered pair
plus loop clocks.  Nothing here touches the walk, the merger engine, or
their RNG streams, so agreement between the two routes is evidence, not
tautology.

Guarded at n <= 200: quadratic in n and meant for validation, not scale.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import RngStream, WeightedConfig, check_level, find, groups, union
from .surplus import GraphEdge, LabeledGraph

__all__ = [
    "PAIR_ORACLE_MAX_N",
    "OracleTrajectory",
    "gillespie_graph",
    "exact_partition_law",
    "gillespie_trajectory",
]

PAIR_ORACLE_MAX_N = 200


def _guard(n: int) -> None:
    if n > PAIR_ORACLE_MAX_N:
        raise ValueError(f"pairwise oracle capped at n={PAIR_ORACLE_MAX_N}, got {n}")


def gillespie_graph(
    config: WeightedConfig, q: float, rng: RngStream, variant: str = "simple"
) -> LabeledGraph:
    """Direct sample of the random graph at horizon q.

    simple: pair {i,j} present iff its Exp(m_i*m_j) clock is <= q.
    multigraph: Poisson(q*m_i*m_j/2) arrivals per ordered pair plus
    Poisson(q*m_i^2/2) loops, all with uniform arrival times.
    """
    n = len(config)
    _guard(n)
    if not q >= 0:
        raise ValueError(f"q must be nonnegative, got {q!r}")
    m = config.masses
    gen = rng.named(f"oracle-graph-{variant}").generator()
    edges: list[GraphEdge] = []
    if variant == "simple":
        for i, j in itertools.combinations(range(n), 2):
            clock = gen.exponential(1.0 / (m[i] * m[j]))
            if clock <= q:
                edges.append(GraphEdge(source=j, target=i, time=clock, kind="simple"))
    elif variant == "multigraph":
        for i in range(n):
            for j in range(n):
                if i == j:
                    count = gen.poisson(q * m[i] * m[i] / 2.0)
                    kind = "loop"
                else:
                    count = gen.poisson(q * m[i] * m[j] / 2.0)
                    kind = "multi"
                for t in sorted(gen.random(count) * q):
                    edges.append(GraphEdge(source=i, target=j, time=float(t), kind=kind))
    else:
        raise ValueError(f"unknown variant {variant!r}")
    edges.sort(key=lambda e: e.time)
    return LabeledGraph(n=n, spanning=(), surplus=tuple(edges))


def exact_partition_law(n: int, p: float) -> dict[tuple[int, ...], float]:
    """Exact component-size-partition law of G(n, p) by edge-subset enumeration."""
    if not 1 <= n <= 6:
        raise ValueError("exact enumeration supported for 1 <= n <= 6 only")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be a probability")
    pairs = list(itertools.combinations(range(n), 2))
    law: dict[tuple[int, ...], float] = {}
    for mask in range(1 << len(pairs)):
        k = mask.bit_count()
        weight = p**k * (1.0 - p) ** (len(pairs) - k)
        parent = list(range(n))
        for b, (i, j) in enumerate(pairs):
            if mask >> b & 1:
                union(parent, i, j)
        sizes = Counter(find(parent, v) for v in range(n))
        key = tuple(sorted(sizes.values(), reverse=True))
        law[key] = law.get(key, 0.0) + weight
    return law


@dataclass(frozen=True)
class OracleTrajectory:
    """Pair-clock arrival log with the merging subsequence marked out."""

    n: int
    arrivals: tuple[tuple[float, int, int], ...]
    mergers: tuple[tuple[float, int, int], ...]

    def partition_at(self, q: float) -> frozenset[frozenset[int]]:
        """Components after the mergers with time <= q; ValueError for NaN q."""
        check_level(q)
        parent = list(range(self.n))
        for t, i, j in self.mergers:
            if t > q:
                break
            union(parent, i, j)
        return groups(parent)


def gillespie_trajectory(
    config: WeightedConfig, rng: RngStream, q_max: float
) -> OracleTrajectory:
    """All pair-clock arrivals up to q_max, with the component mergers extracted."""
    n = len(config)
    _guard(n)
    if not q_max > 0:
        raise ValueError(f"q_max must be positive, got {q_max!r}")
    m = np.asarray(config.masses)
    gen = rng.named("oracle-trajectory").generator()
    pairs = list(itertools.combinations(range(n), 2))
    rates = np.array([m[i] * m[j] for i, j in pairs])
    clocks = gen.exponential(1.0 / rates)
    order = np.argsort(clocks, kind="stable")

    arrivals = []
    mergers = []
    parent = list(range(n))
    for k in order:
        t = float(clocks[k])
        if t > q_max:
            break
        i, j = pairs[k]
        arrivals.append((t, i, j))
        if union(parent, i, j):
            mergers.append((t, i, j))
    return OracleTrajectory(n=n, arrivals=tuple(arrivals), mergers=tuple(mergers))
