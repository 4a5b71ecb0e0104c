"""The slow pairwise-clock reference samplers."""

import math

import numpy as np
import pytest

from mcmosaic.core import RngStream, WeightedConfig
from mcmosaic.oracle import (
    PAIR_ORACLE_MAX_N,
    exact_partition_law,
    gillespie_graph,
    gillespie_trajectory,
)


def test_guard_rejects_large_n():
    big = WeightedConfig((1.0,) * (PAIR_ORACLE_MAX_N + 1))
    with pytest.raises(ValueError):
        gillespie_graph(big, 1.0, RngStream(0))
    with pytest.raises(ValueError):
        gillespie_trajectory(big, RngStream(0), 1.0)


def test_graph_validation():
    cfg = WeightedConfig((1.0, 1.0))
    with pytest.raises(ValueError):
        gillespie_graph(cfg, -1.0, RngStream(0))
    with pytest.raises(ValueError):
        gillespie_graph(cfg, 1.0, RngStream(0), variant="nope")
    with pytest.raises(ValueError):
        gillespie_trajectory(cfg, RngStream(0), 0.0)


def test_graph_rejects_a_nan_level():
    """A NaN level raises; an infinite one still keeps every pair clock."""
    cfg = WeightedConfig((1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="nan"):
        gillespie_graph(cfg, math.nan, RngStream(0))
    with pytest.raises(ValueError):
        gillespie_graph(cfg, -math.inf, RngStream(0))
    assert len(gillespie_graph(cfg, math.inf, RngStream(0)).surplus) == 6


def test_trajectory_rejects_a_nan_horizon():
    """A NaN q_max raises, as in run_trajectory; an infinite one keeps every
    arrival (6 for n = 4) and n - 1 mergers."""
    cfg = WeightedConfig((1.0, 1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="nan"):
        gillespie_trajectory(cfg, RngStream(0), math.nan)
    with pytest.raises(ValueError):
        gillespie_trajectory(cfg, RngStream(0), -math.inf)
    traj = gillespie_trajectory(cfg, RngStream(0), math.inf)
    assert (len(traj.arrivals), len(traj.mergers)) == (6, 3)


def test_simple_graph_edge_probability():
    """Pair present iff its clock beat q: frequency 1 - exp(-q m_i m_j)."""
    cfg = WeightedConfig((1.0, 2.0))
    q = 0.4
    reps = 20000
    hits = 0
    root = RngStream(3).named("edge-freq")
    for k in range(reps):
        g = gillespie_graph(cfg, q, root.indexed(k))
        assert all(e.time <= q for e in g.surplus)
        hits += len(g.surplus)
    p = -math.expm1(-q * 2.0)
    se = math.sqrt(p * (1 - p) / reps)
    assert abs(hits / reps - p) < 5 * se


def test_multigraph_counts():
    """Ordered-pair arrivals at rate m_i m_j / 2 each way sum to the pair
    rate; loops run at m_i^2 / 2."""
    cfg = WeightedConfig((1.0, 1.5))
    q = 0.8
    reps = 20000
    pair_total = 0
    loop_total = 0
    root = RngStream(9).named("multi-freq")
    for k in range(reps):
        g = gillespie_graph(cfg, q, root.indexed(k), variant="multigraph")
        for e in g.surplus:
            if e.kind == "loop":
                loop_total += 1
            else:
                assert e.kind == "multi"
                pair_total += 1
    lam_pair = q * 1.0 * 1.5  # both directions together
    lam_loop = q * (1.0 + 1.5**2) / 2.0
    assert abs(pair_total / reps - lam_pair) < 5 * math.sqrt(lam_pair / reps)
    assert abs(loop_total / reps - lam_loop) < 5 * math.sqrt(lam_loop / reps)


def test_exact_partition_law_small_cases():
    # n=2: one possible edge
    law = exact_partition_law(2, 0.3)
    assert law[(2,)] == pytest.approx(0.3)
    assert law[(1, 1)] == pytest.approx(0.7)
    # n=3 by hand: all three edges missing -> (1,1,1); exactly one -> (2,1)
    p = 0.25
    law3 = exact_partition_law(3, p)
    assert law3[(1, 1, 1)] == pytest.approx((1 - p) ** 3)
    assert law3[(2, 1)] == pytest.approx(3 * p * (1 - p) ** 2)
    assert law3[(3,)] == pytest.approx(1 - (1 - p) ** 3 - 3 * p * (1 - p) ** 2)
    assert sum(law3.values()) == pytest.approx(1.0)


def test_exact_partition_law_validation():
    with pytest.raises(ValueError):
        exact_partition_law(7, 0.5)
    with pytest.raises(ValueError):
        exact_partition_law(3, 1.5)


def test_exact_law_matches_graph_sampler():
    """Monte Carlo partitions from the pair-clock sampler against the
    enumerated law, unit masses."""
    n, q, reps = 4, 0.8, 20000
    cfg = WeightedConfig((1.0,) * n)
    p = -math.expm1(-q)
    law = exact_partition_law(n, p)
    counts = {}
    root = RngStream(5).named("law-check")
    for k in range(reps):
        g = gillespie_graph(cfg, q, root.indexed(k))
        part = g.partition_at(q)
        key = tuple(sorted((len(c) for c in part), reverse=True))
        counts[key] = counts.get(key, 0) + 1
    from mcmosaic.stats import chi_square

    keys = sorted(law)
    res = chi_square([counts.get(k, 0) for k in keys], [law[k] for k in keys])
    assert not res.rejects(), f"partition law off: p={res.p_value:.5f}"


def test_trajectory_merger_subsequence():
    for seed in range(20):
        cfg = WeightedConfig(tuple(RngStream(seed).generator().uniform(0.5, 2.0, 5)))
        traj = gillespie_trajectory(cfg, RngStream(seed).named("t"), 5.0)
        times = [t for t, _, _ in traj.arrivals]
        assert times == sorted(times)
        merge_set = set(traj.mergers)
        assert merge_set <= set(traj.arrivals)
        assert len(traj.mergers) <= traj.n - 1
        # mergers really merge: replay and count the components
        assert len(traj.partition_at(0.0)) == traj.n
        final = traj.partition_at(5.0)
        assert len(final) == traj.n - len(traj.mergers)


def test_trajectory_first_merger_is_min_pair_clock():
    cfg = WeightedConfig((1.0, 1.0, 1.0))
    found = 0
    for seed in range(50):
        traj = gillespie_trajectory(cfg, RngStream(seed).named("fm"), 10.0)
        if traj.mergers:
            found += 1
            assert traj.mergers[0][0] == traj.arrivals[0][0]
    assert found == 50  # q_max=10 leaves the no-merger case vanishingly rare


def test_trajectory_first_merger_law():
    """Three unit masses: minimum of three Exp(1) pair clocks is Exp(3)."""
    cfg = WeightedConfig((1.0, 1.0, 1.0))
    root = RngStream(31).named("fm-law")
    times = [
        gillespie_trajectory(cfg, root.indexed(k), 50.0).mergers[0][0]
        for k in range(4000)
    ]
    mean = float(np.mean(times))
    assert abs(mean - 1.0 / 3.0) < 5 * (1.0 / 3.0) / math.sqrt(len(times))


def test_walk_largest_component_matches_oracle():
    """Equivalence gate: the largest component read off the walk and the one
    the pairwise-clock oracle builds have the same law, n = 50 unit masses at
    q = 1/n, 1,000 replications per side."""
    from mcmosaic.core import sample_clocks
    from mcmosaic.stats import chi_square_homogeneity
    from mcmosaic.walk import WalkPath, decompose

    n, reps = 50, 1000
    cfg = WeightedConfig((1.0,) * n)
    q = 1.0 / n
    root = RngStream(1).named("bench")
    walk_counts = np.zeros(n + 1, dtype=np.int64)
    oracle_counts = np.zeros(n + 1, dtype=np.int64)
    for rep in range(reps):
        clocks = sample_clocks(cfg, root.named("gate-walk").indexed(rep).named("clocks"))
        dec = decompose(WalkPath.from_clocks(cfg, clocks, q))
        walk_counts[max(len(e.vertices) for e in dec.excursions)] += 1
        tr = gillespie_trajectory(cfg, root.named("gate-oracle").indexed(rep), q)
        oracle_counts[max(len(c) for c in tr.partition_at(q))] += 1
    res = chi_square_homogeneity(walk_counts, oracle_counts)
    assert not res.inconclusive and not res.rejects(), res
