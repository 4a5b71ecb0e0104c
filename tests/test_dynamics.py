"""Merger engine: event times, block bookkeeping, and the append-only forest."""

import dataclasses
import heapq
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import domain, domain_instance
from mcmosaic import dynamics
from mcmosaic.core import ClockAssignment, RngStream, WeightedConfig, find, sample_clocks
from mcmosaic.dynamics import (
    ComponentBlock,
    GraphEdge,
    MergerEvent,
    MonotoneForest,
    build_monotone_forest,
    run_trajectory,
)
from mcmosaic.mosaic import OrnamentedExcursion, slice_decomposition
from mcmosaic.oracle import gillespie_graph, gillespie_trajectory
from mcmosaic.surplus import activated_processes, dynamic_surplus
from mcmosaic.walk import breadth_first_forest, decompose, WalkPath


def random_instance(seed, n_max=10):
    gen = RngStream(seed).named("dyn-tests").generator()
    n = int(gen.integers(2, n_max + 1))
    cfg = WeightedConfig(tuple(gen.uniform(0.5, 2.0, n)))
    clocks = sample_clocks(cfg, RngStream(seed).named("dyn-tests").named("clocks"))
    return cfg, clocks


def test_block_helpers():
    """len() is the rank count, which differs here from the field count (3
    for a block, 7 for an ornamented excursion)."""
    b = ComponentBlock(lo=2, hi=6, mass=3.0)
    assert len(b) == 5
    assert list(b.ranks()) == [2, 3, 4, 5, 6]
    assert len(OrnamentedExcursion.from_covers((1.0, 1.0, 1.0, 1.0), {})) == 4


def test_run_trajectory_validates_q():
    cfg, clocks = random_instance(0)
    with pytest.raises(ValueError):
        run_trajectory(cfg, clocks, RngStream(0), 0.0)
    with pytest.raises(ValueError):
        run_trajectory(cfg, clocks, RngStream(0), float("inf"))


def test_event_times_strictly_increase_and_full_merge():
    for seed in range(40):
        cfg, clocks = random_instance(seed)
        traj = run_trajectory(cfg, clocks, RngStream(seed), 1e9)
        times = [ev.time for ev in traj.events]
        assert times == sorted(times)
        assert all(b < a for b, a in zip(times, times[1:])) or len(times) < 2
        # q_max huge: everything coalesces into one block
        assert len(traj.events) == len(cfg) - 1
        final = traj.blocks_at(1e9)
        assert len(final) == 1
        assert final[0].mass == pytest.approx(math.fsum(cfg.masses))


def reference_events(cfg, clocks, q_max):
    """Quadratic replay: repeatedly take the earliest adjacent-pair merger."""
    xs = list(clocks.sorted_xi())
    blocks = [
        [r, r, cfg.masses[clocks.perm[r]]] for r in range(len(cfg))
    ]  # [lo, hi, mass]
    out = []
    while len(blocks) > 1:
        cand = [
            ((xs[blocks[i + 1][0]] - xs[blocks[i][0]]) / blocks[i][2], i)
            for i in range(len(blocks) - 1)
        ]
        t, i = min(cand)
        if t > q_max:
            break
        out.append((t, blocks[i][0], blocks[i + 1][0]))
        blocks[i] = [blocks[i][0], blocks[i + 1][1], blocks[i][2] + blocks[i + 1][2]]
        del blocks[i + 1]
    return out


def test_engine_matches_quadratic_reference():
    for seed in range(60):
        cfg, clocks = random_instance(seed, n_max=12)
        q_max = float(RngStream(seed).named("qpick").generator().uniform(0.3, 3.0))
        traj = run_trajectory(cfg, clocks, RngStream(seed), q_max)
        got = [(ev.time, ev.left.lo, ev.right.lo) for ev in traj.events]
        want = reference_events(cfg, clocks, q_max)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert g[1:] == w[1:]
            assert g[0] == pytest.approx(w[0], rel=1e-12)


def heap_events(cfg, clocks, rng, q_max):
    """The earlier heap engine, kept as the reference for the sweep.

    Candidates are (time, left root, right root) triples; a popped candidate
    is stale unless the left root still owns exactly the range ending just
    before the right root and the right root is still a root.  Each merger
    walks both blocks to draw its edge.
    """
    n = len(cfg)
    gen = rng.named("merge-edges").generator()
    perm = clocks.perm
    xs = clocks.sorted_xi()
    end = list(range(n))
    mass = [cfg.masses[v] for v in perm]
    is_root = [True] * n

    def mass_biased_rank(block):
        u = gen.random() * block.mass
        acc = 0.0
        for r in block.ranks():
            acc += cfg.masses[perm[r]]
            if u < acc:
                return r
        return block.hi

    heap = []
    for j in range(n - 1):
        t = (xs[j + 1] - xs[j]) / mass[j]
        if t <= q_max:
            heapq.heappush(heap, (t, j, j + 1))
    events = []
    while heap:
        t, j, r = heapq.heappop(heap)
        if not (is_root[j] and is_root[r] and end[j] == r - 1):
            continue
        left = ComponentBlock(lo=j, hi=end[j], mass=mass[j])
        right = ComponentBlock(lo=r, hi=end[r], mass=mass[r])
        child = mass_biased_rank(right)
        parent = mass_biased_rank(left)
        events.append(MergerEvent(t, left, right, (perm[child], perm[parent])))
        end[j] = end[r]
        mass[j] += mass[r]
        is_root[r] = False
        if end[j] + 1 < n:
            t2 = (xs[end[j] + 1] - xs[j]) / mass[j]
            if t2 <= q_max:
                heapq.heappush(heap, (t2, j, end[j] + 1))
    return events


@settings(deadline=None, max_examples=300)
@given(
    st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=40),
    st.booleans(),
    st.integers(0, 2**32 - 1),
    st.lists(st.tuples(st.integers(0, 39), st.integers(0, 39)), max_size=8),
    st.floats(-12.0, 12.0),
)
def test_sweep_matches_heap_engine(exponents, equal, seed, ties, log_q):
    """Masses log-uniform over 1e-6..1e6 (or all equal), n from 1, tied
    clocks, q_max up to 1e12 / (smallest mass)**2 and at an event time: the
    sweep logs exactly the heap engine's events and edges, and agrees with
    the quadratic reference.

    Ties copy one drawn clock onto another, so simultaneous mergers happen
    at time 0.  Clocks with exact rational relations can also tie two
    mergers at a positive time; both engines then order them by rounding,
    not always alike, and such ties have probability zero.
    """
    masses = [10.0 ** exponents[0]] * len(exponents) if equal else [10.0**e for e in exponents]
    cfg = WeightedConfig(tuple(masses))
    xi = list(sample_clocks(cfg, RngStream(seed).named("clocks")).xi)
    for a, b in ties:
        xi[a % len(xi)] = xi[b % len(xi)]
    clocks = ClockAssignment.from_xi(xi)
    q_max = 10.0**log_q / min(masses) ** 2
    want = heap_events(cfg, clocks, RngStream(seed), q_max)
    assert list(run_trajectory(cfg, clocks, RngStream(seed), q_max).events) == want
    ref = reference_events(cfg, clocks, q_max)
    assert [(ev.left.lo, ev.right.lo) for ev in want] == [w[1:] for w in ref]
    for ev, w in zip(want, ref):
        assert ev.time == pytest.approx(w[0], rel=1e-12)
    positive = [ev.time for ev in want if ev.time > 0.0]
    if positive:
        q_mid = positive[len(positive) // 2]
        got = run_trajectory(cfg, clocks, RngStream(seed), q_mid).events
        assert list(got) == heap_events(cfg, clocks, RngStream(seed), q_mid)


def tuple_sorted_events(cfg, clocks, rng, q_max):
    """The engine's log by brute force: every rank's q_r as a minimum over
    all earlier ranks, the (q_r, r) tuples sorted, then each merger replayed
    on a dict of live blocks with its edge found by a linear scan."""
    xs, perm = clocks.sorted_xi(), clocks.perm
    sizes = [cfg.masses[v] for v in perm]
    cum = [math.fsum(sizes[:r]) for r in range(len(sizes) + 1)]
    q_r = [min((xs[r] - xs[i]) / (cum[r] - cum[i]) for i in range(r)) for r in range(1, len(sizes))]
    absorbed = sorted((t, r) for r, t in enumerate(q_r, 1) if t <= q_max)
    draws = rng.named("merge-edges").generator().random(2 * len(absorbed)).tolist()
    live = {r: [r, m] for r, m in enumerate(sizes)}  # root -> [hi, mass]

    def pick(lo, hi, mass, u):
        return perm[max(l for l in range(lo, hi + 1) if cum[l] <= cum[lo] + u * mass)]

    events = []
    for k, (_, r) in enumerate(absorbed):
        j = max(root for root in live if root < r)
        (j_hi, j_mass), (r_hi, r_mass) = live[j], live.pop(r)
        edge = (pick(r, r_hi, r_mass, draws[2 * k]), pick(j, j_hi, j_mass, draws[2 * k + 1]))
        events.append(MergerEvent((xs[r] - xs[j]) / j_mass, ComponentBlock(j, j_hi, j_mass),
                                  ComponentBlock(r, r_hi, r_mass), edge))
        live[j] = [r_hi, j_mass + r_mass]
    return tuple(events)


@pytest.mark.parametrize("q_max", [0.5, 12.5, 1e9])
def test_tied_absorption_times_run_in_rank_order(q_max):
    """Unit masses on three runs of eight equally spaced clocks (spacings 1,
    1/2 and 1/4, labels shuffled): seven ranks share each run's spacing as
    q_r, and two run heads share 12.5, all exact in floats.  Equal times
    come in ascending right-block rank, and the log is the one sorted from
    (q_r, r) tuples, ties at q_max kept."""
    xi = [100.0 * g + 1.0 + k * d for g, d in enumerate((1.0, 0.5, 0.25)) for k in range(8)]
    labels = np.random.default_rng(4).permutation(len(xi)).tolist()
    clocks = ClockAssignment.from_xi([xi[labels.index(v)] for v in range(len(xi))])
    cfg = WeightedConfig((1.0,) * len(xi))
    traj = run_trajectory(cfg, clocks, RngStream(9), q_max)
    ties = {0.25: 7, 0.5: 7, 1.0: 7, 12.5: 2}
    assert Counter(ev.time for ev in traj.events) == {t: c for t, c in ties.items() if t <= q_max}
    for a, b in zip(traj.events, traj.events[1:]):
        assert a.time < b.time or (a.time == b.time and a.right.lo < b.right.lo)
    assert traj.events == tuple_sorted_events(cfg, clocks, RngStream(9), q_max)


def test_event_blocks_are_consistent():
    for seed in range(30):
        cfg, clocks = random_instance(seed)
        traj = run_trajectory(cfg, clocks, RngStream(seed), 1e9)
        xs = clocks.sorted_xi()
        for ev in traj.events:
            assert ev.left.hi + 1 == ev.right.lo
            # the logged time is the absorption time of the right block's root
            assert ev.time == pytest.approx(
                (xs[ev.right.lo] - xs[ev.left.lo]) / ev.left.mass, rel=1e-12
            )
            child, parent = ev.edge
            right_vs = {clocks.perm[r] for r in ev.right.ranks()}
            left_vs = {clocks.perm[r] for r in ev.left.ranks()}
            assert child in right_vs
            assert parent in left_vs


def test_blocks_at_interpolates_history():
    cfg, clocks = random_instance(8)
    traj = run_trajectory(cfg, clocks, RngStream(8), 1e9)
    assert len(traj.blocks_at(0.0)) == len(cfg)
    for k, ev in enumerate(traj.events):
        # inclusive at the event time
        assert len(traj.blocks_at(ev.time)) == len(cfg) - (k + 1)
    masses_start = sorted(b.mass for b in traj.blocks_at(0.0))
    assert masses_start == sorted(cfg.masses[v] for v in clocks.perm)


def test_partition_matches_walk_forest_at_many_levels():
    """Dynamic partition == static excursion partition at arbitrary q."""
    for seed in range(25):
        cfg, clocks = random_instance(seed)
        traj = run_trajectory(cfg, clocks, RngStream(seed), 10.0)
        for q in (0.05, 0.3, 0.8, 1.7, 4.0, 9.5):
            path = WalkPath.from_clocks(cfg, clocks, q)
            static = frozenset(
                frozenset(e.vertices) for e in decompose(path).excursions
            )
            assert traj.partition_at(q) == static


def test_first_merger_law_two_blocks():
    """Two unit blocks merge at the clock spacing, which is Exp(1) by
    memorylessness; that matches the pair rate (product of the masses)."""
    cfg = WeightedConfig((1.0, 1.0))
    root = RngStream(77).named("pairlaw")
    times = []
    for k in range(2000):
        clocks = sample_clocks(cfg, root.indexed(k))
        traj = run_trajectory(cfg, clocks, root.indexed(k).named("run"), 1e9)
        xs = clocks.sorted_xi()
        assert traj.events[0].time == pytest.approx(xs[1] - xs[0], rel=1e-12)
        times.append(traj.events[0].time)
    mean = float(np.mean(times))
    assert abs(mean - 1.0) < 5 * 1.0 / math.sqrt(len(times))


def test_mass_biased_edge_frequencies():
    """Child picks inside the right block follow the mass bias."""
    cfg = WeightedConfig((1.0, 3.0))
    root = RngStream(13).named("edgefreq")
    hits = 0
    reps = 4000
    for k in range(reps):
        clocks = sample_clocks(cfg, root.indexed(k))
        traj = run_trajectory(cfg, clocks, root.indexed(k).named("run"), 1e9)
        ev = traj.events[0]
        # right block is a single vertex here, so test the parent pick instead
        assert ev.edge[0] == clocks.perm[1]
        hits += ev.edge[1] == clocks.perm[0]
    assert hits == reps  # left block is also a singleton: forced choice


def test_mass_biased_parent_three_blocks():
    """Force a known two-vertex left block and count the parent picks."""
    cfg = WeightedConfig((1.0, 1.0, 1.0))
    root = RngStream(29).named("parent-pick")
    picked_lo = 0
    found = 0
    for k in range(6000):
        clocks = sample_clocks(cfg, root.indexed(k))
        traj = run_trajectory(cfg, clocks, root.indexed(k).named("run"), 1e9)
        for ev in traj.events:
            if len(ev.left) == 2:
                found += 1
                picked_lo += ev.edge[1] == clocks.perm[ev.left.lo]
    assert found > 1000
    freq = picked_lo / found
    assert abs(freq - 0.5) < 3 * 0.5 / math.sqrt(found)


def test_monotone_forest_prefix_property():
    cfg, clocks = random_instance(4)
    traj = run_trajectory(cfg, clocks, RngStream(4), 1e9)
    forest = build_monotone_forest(traj)
    assert isinstance(forest, MonotoneForest)
    times = [t for _, _, t in forest.edge_log]
    assert times == sorted(times)
    assert sum(t <= 0.0 for t in times) == 0
    assert sum(t <= math.inf for t in times) == len(cfg) - 1
    # prefix grows one edge per event
    for k, ev in enumerate(traj.events):
        assert sum(t <= ev.time for t in times) == k + 1


def test_monotone_components_match_static_forest():
    for seed in range(20):
        cfg, clocks = random_instance(seed)
        traj = run_trajectory(cfg, clocks, RngStream(seed), 1e9)
        forest = build_monotone_forest(traj)
        for q in (0.1, 0.6, 1.3, 3.0):
            static, _ = breadth_first_forest(cfg, clocks, q)
            assert forest.components_at(q) == frozenset(static.components())


@settings(deadline=None)
@given(
    st.lists(st.floats(-6.0, 6.0), min_size=1, max_size=30),
    st.integers(0, 2**32 - 1),
    st.floats(-12.0, 30.0),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=5),
)
def test_monotone_components_equal_partition_at(exponents, seed, log_q_max, fractions):
    """Masses over 1e-6..1e6, n from 1: the monotone forest and the block
    log give the same partition at random levels, exactly at every event
    time, before the first edge and after the last."""
    cfg = WeightedConfig(tuple(10.0**e for e in exponents))
    clocks = sample_clocks(cfg, RngStream(seed).named("clocks"))
    q_max = 10.0**log_q_max
    traj = run_trajectory(cfg, clocks, RngStream(seed), q_max)
    forest = build_monotone_forest(traj)
    times = [ev.time for ev in traj.events]
    levels = [q_max * f for f in fractions] + times + [0.0, -1.0, q_max, math.inf]
    if times:
        levels += [times[0] / 2.0, 2.0 * times[-1]]
    for q in levels:
        assert forest.components_at(q) == traj.partition_at(q)
    singletons = frozenset(frozenset((v,)) for v in range(len(cfg)))
    assert forest.components_at(-1.0) == singletons


def test_monotone_components_on_a_hand_built_log():
    """Tied edge times join together; a level exactly at an edge time
    includes that edge, one just below it does not; vertices no edge touches
    stay alone, also at q = inf."""
    forest = MonotoneForest(
        n=6, edge_log=((1, 0, 0.5), (3, 2, 1.0), (2, 1, 1.0), (4, 0, 2.0))
    )

    def parts(*blocks):
        return frozenset(frozenset(b) for b in blocks)

    assert forest.components_at(0.0) == parts({0}, {1}, {2}, {3}, {4}, {5})
    assert forest.components_at(0.5) == parts({0, 1}, {2}, {3}, {4}, {5})
    assert forest.components_at(math.nextafter(1.0, 0.0)) == forest.components_at(0.5)
    assert forest.components_at(1.0) == parts({0, 1, 2, 3}, {4}, {5})
    assert forest.components_at(2.0) == parts({0, 1, 2, 3, 4}, {5})
    assert forest.components_at(math.inf) == parts({0, 1, 2, 3, 4}, {5})
    # untouched vertices between joined ones stay alone at q = inf too
    gaps = MonotoneForest(n=5, edge_log=((2, 0, 1.0), (4, 2, 3.0)))
    assert gaps.components_at(math.inf) == parts({0, 2, 4}, {1}, {3})
    assert gaps.components_at(-math.inf) == parts({0}, {1}, {2}, {3}, {4})


# -- the shared replay against the dict-based one it replaced ----------------


def reference_blocks_at(traj, q):
    """The earlier replay: a dict of live starts, popped per event, sorted."""
    n = len(traj.config)
    end = list(range(n))
    mass = [traj.config.masses[v] for v in traj.clocks.perm]
    start_of = {r: r for r in range(n)}
    for ev in traj.events:
        if ev.time > q:
            break
        j = ev.left.lo
        end[j] = ev.right.hi
        mass[j] += mass[ev.right.lo]
        start_of.pop(ev.right.lo)
    return [ComponentBlock(lo=j, hi=end[j], mass=mass[j]) for j in sorted(start_of)]


def reference_partition_at(traj, q):
    perm = traj.clocks.perm
    return frozenset(
        frozenset(perm[r] for r in b.ranks()) for b in reference_blocks_at(traj, q)
    )


def domain_trajectory(exponents, equal, seed, ties, log_q):
    """The shared domain with q_max up to 1e12 / (smallest mass)**2."""
    cfg, clocks = domain_instance(exponents, equal, seed, ties)
    return run_trajectory(cfg, clocks, RngStream(seed), 10.0**log_q / min(cfg.masses) ** 2)


def replay_levels(traj):
    """Below the first event, at every event time, between events, at q_max."""
    times = [ev.time for ev in traj.events]
    between = [(a + b) / 2.0 for a, b in zip(times, times[1:])]
    first = times[0] / 2.0 if times else traj.q_max / 2.0
    return [0.0, first, *times, *between, traj.q_max]


_REPLAY_DOMAIN = domain(max_n=40, max_ties=8)


@settings(deadline=None, max_examples=200)
@given(*_REPLAY_DOMAIN, st.floats(-12.0, 12.0), st.integers(0, 2**16))
def test_replay_matches_dict_reference(exponents, equal, seed, ties, log_q, pick):
    """blocks_at (lo, hi and mass exactly) and partition_at equal the
    dict-based replay, also on a log whose times are not sorted."""
    traj = domain_trajectory(exponents, equal, seed, ties, log_q)
    for q in replay_levels(traj):
        assert traj.blocks_at(q) == reference_blocks_at(traj, q)
        assert traj.partition_at(q) == reference_partition_at(traj, q)
    if len(traj.events) < 2:
        return
    unsorted, i = lift_one_event(traj, pick)
    events = unsorted.events
    for q in [events[i - 1].time if i else 0.0, events[-1].time, events[i].time]:
        assert unsorted.blocks_at(q) == reference_blocks_at(unsorted, q)
        assert unsorted.partition_at(q) == reference_partition_at(unsorted, q)


def lift_one_event(traj, pick):
    """The log with one event, not the last, lifted above the later ones (so
    the prefix at the last event's time stops there), and its index."""
    i = pick % (len(traj.events) - 1)
    events = list(traj.events)
    events[i] = events[i]._replace(time=2.0 * events[-1].time + 1.0)
    return dataclasses.replace(traj, events=tuple(events)), i


@settings(deadline=None, max_examples=200)
@given(*_REPLAY_DOMAIN, st.floats(-12.0, 12.0), st.integers(0, 2**16))
def test_level_readers_read_one_prefix_of_a_lifted_log(exponents, equal, seed, ties, log_q, pick):
    """At the last event's time on a lifted log, every reader stops where
    blocks_at does: the spanning edges are the first k events, k = n minus
    the number of blocks, and each activated process has one parallelogram."""
    traj = domain_trajectory(exponents, equal, seed, ties, log_q)
    if len(traj.events) < 2:
        return
    unsorted, _ = lift_one_event(traj, pick)
    q = unsorted.events[-1].time
    k = len(traj.config) - len(unsorted.blocks_at(q))
    spanning = dynamic_surplus(unsorted, RngStream(seed), q, "simple").spanning
    assert spanning == tuple(GraphEdge(*ev.edge, ev.time, "span") for ev in unsorted.events[:k])
    if q > 0.0:
        slices = slice_decomposition(unsorted, q)
        n_paras = sum(len(sl.parallelograms) for sl in slices)
        assert n_paras == len(activated_processes(unsorted, q, False))


def off_merger_levels(traj):
    """Geometric midpoints between distinct positive event times, one level
    below the first positive event and one between the last and q_max.  At
    a merger time the engine and the walk round differently, so levels
    within 1e-9 (relative) of an event are left out."""
    times = sorted({ev.time for ev in traj.events if ev.time > 0.0})
    points = [times[0] / 2.0] if times else [traj.q_max / 2.0]
    points += [math.sqrt(a * b) for a, b in zip(times, times[1:])]
    if times:
        points.append(math.sqrt(times[-1] * traj.q_max))
    return [q for q in points if all(abs(q - t) > 1e-9 * t for t in times)]


@settings(deadline=None, max_examples=150)
@given(*_REPLAY_DOMAIN, st.floats(-12.0, 30.0))
def test_walk_partition_equals_replay_off_merger_times(exponents, equal, seed, ties, log_q):
    """Masses over 1e-6..1e6, n from 1, tied clocks, q_max up to 1e30 over
    the smallest mass squared: the walk's excursions and breadth-first
    forest give the partition of partition_at and components_at."""
    traj = domain_trajectory(exponents, equal, seed, ties, log_q)
    forest = build_monotone_forest(traj)
    for q in off_merger_levels(traj):
        want = traj.partition_at(q)
        path = WalkPath.from_clocks(traj.config, traj.clocks, q)
        assert frozenset(frozenset(e.vertices) for e in decompose(path).excursions) == want
        static, _ = breadth_first_forest(traj.config, traj.clocks, q)
        assert frozenset(static.components()) == want
        assert forest.components_at(q) == want


# -- the cut readers against the replay and generator cut they replaced ------


def replay_partition_at(traj, q):
    """The earlier partition_at: replay the log, slice the clock order."""
    perm = traj.clocks.perm
    return frozenset(frozenset(perm[b.lo : b.hi + 1]) for b in traj.blocks_at(q))


def generator_components_at(forest, q):
    """The earlier components_at: its own join order (None between final
    components), cut by a generator."""
    n = forest.n
    parent, tail, nxt, joined = list(range(n)), list(range(n)), [-1] * n, [None] * n
    for child, par, t in forest.edge_log:
        a, b = find(parent, par), find(parent, child)
        if a == b:
            continue
        nxt[tail[a]], joined[tail[a]] = b, t
        tail[a] = tail[b]
        parent[b] = a
    order = []
    for v in range(n):
        if parent[v] == v:
            while v != -1:
                order.append(v)
                v = nxt[v]
    gaps = [joined[v] for v in order[:-1]]
    cuts = [0, *(i for i, t in enumerate(gaps, 1) if t is None or t > q), len(order)]
    return frozenset(frozenset(order[a:b]) for a, b in zip(cuts, cuts[1:]))


def cut_levels(traj):
    """Every event time and both float neighbours, geometric midpoints,
    0, -1, ±inf and q_max."""
    times = sorted(ev.time for ev in traj.events)
    levels = [0.0, -1.0, math.inf, -math.inf, traj.q_max]
    for t in times:
        levels += [t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]
    return levels + [math.sqrt(a * b) for a, b in zip(times, times[1:])]


@settings(deadline=None, max_examples=200)
@given(*_REPLAY_DOMAIN, st.floats(-12.0, 12.0), st.integers(0, 2**16))
def test_cut_readers_match_replay_and_generator_cut(exponents, equal, seed, ties, log_q, pick):
    """Masses over 1e-6..1e6, n from 1, tied clocks: partition_at equals the
    replay and components_at the generator cut at every event time, its
    float neighbours and the levels between and beyond, also on a log with
    one event lifted above the later ones."""
    traj = domain_trajectory(exponents, equal, seed, ties, log_q)
    forest = build_monotone_forest(traj)
    for q in cut_levels(traj):
        want = replay_partition_at(traj, q)
        assert traj.partition_at(q) == want
        assert forest.components_at(q) == generator_components_at(forest, q) == want
    if len(traj.events) < 2:
        return
    i = pick % (len(traj.events) - 1)
    events = list(traj.events)
    events[i] = events[i]._replace(time=2.0 * events[-1].time + 1.0)
    unsorted = dataclasses.replace(traj, events=tuple(events))
    unsorted_forest = build_monotone_forest(unsorted)
    for q in cut_levels(unsorted):
        assert unsorted.partition_at(q) == replay_partition_at(unsorted, q)
        assert unsorted_forest.components_at(q) == generator_components_at(unsorted_forest, q)


def test_cached_columns_stay_out_of_eq_repr_and_replace():
    cfg, clocks = random_instance(5)
    traj = run_trajectory(cfg, clocks, RngStream(5), 1e9)
    forest = build_monotone_forest(traj)
    before = (repr(traj), repr(forest))
    fresh_traj, fresh_forest = dataclasses.replace(traj), dataclasses.replace(forest)
    traj.partition_at(1.0)
    traj.blocks_at(1.0)
    forest.components_at(1.0)
    assert (repr(traj), repr(forest)) == before
    assert traj == fresh_traj and forest == fresh_forest
    assert {"_stops", "_level"} <= vars(traj).keys()
    assert "_join_order" in vars(forest)
    copies = dataclasses.replace(traj), dataclasses.replace(forest)
    assert not any(k.startswith("_") for c in copies for k in vars(c))


def test_blocks_at_returns_a_fresh_list():
    cfg, clocks = random_instance(3)
    traj = run_trajectory(cfg, clocks, RngStream(3), 1e9)
    q = traj.events[len(traj.events) // 2].time
    first = traj.blocks_at(q)
    want = list(first)
    first[0] = ComponentBlock(0, 0, 1.0)
    first.append(first[0])
    again = traj.blocks_at(q)
    assert again == want and again is not first


def _with_time(events, i, t):
    return events[:i] + (events[i]._replace(time=t),) + events[i + 1 :]


def test_logs_with_a_nan_time_are_rejected():
    """A NaN event or edge time raised nothing, and blocks_at, partition_at
    and components_at then disagreed about it."""
    cfg, clocks = random_instance(4)
    traj = run_trajectory(cfg, clocks, RngStream(4), 1e9)
    forest = build_monotone_forest(traj)
    for i in (0, len(traj.events) - 1):
        with pytest.raises(ValueError, match="must not be NaN"):
            dataclasses.replace(traj, events=_with_time(traj.events, i, math.nan))
        with pytest.raises(ValueError, match="must not be NaN"):
            type(traj)(traj.config, traj.clocks, traj.q_max, _with_time(traj.events, i, math.nan))
        edges = tuple(forest.edge_log)
        bad = edges[:i] + ((*edges[i][:2], math.nan),) + edges[i + 1 :]
        with pytest.raises(ValueError, match="must not be NaN"):
            dataclasses.replace(forest, edge_log=bad)
        with pytest.raises(ValueError, match="must not be NaN"):
            MonotoneForest(forest.n, bad)
    # ±inf times stay accepted
    last = len(traj.events) - 1
    inf_traj = dataclasses.replace(traj, events=_with_time(traj.events, last, math.inf))
    assert len(inf_traj.blocks_at(1e300)) == 2
    MonotoneForest(forest.n, edges[:-1] + ((*edges[-1][:2], math.inf),))


def test_repeated_reads_share_their_singleton_blocks():
    cfg, clocks = random_instance(2)
    traj = run_trajectory(cfg, clocks, RngStream(2), 1e9)
    forest = build_monotone_forest(traj)
    q = traj.events[0].time  # one pair joined, every other vertex alone
    for read in (traj.partition_at, forest.components_at):
        first, again, alone = read(q), read(q), read(-1.0)
        assert first == again and len(first) == len(cfg) - 1 >= 2
        singles = {b: b for b in alone}
        for block in first:
            assert (singles.get(block) is block) == (len(block) == 1)
        assert all(singles[b] is b for b in again if len(b) == 1)


def test_every_reader_shares_one_singleton_table():
    """Two trajectories of one n and the forest of one of them give a lone
    vertex the same {v} object; a larger n extends the table and keeps the
    entries it had."""
    cfg = WeightedConfig((1.0,) * 6)
    trajs = [run_trajectory(cfg, sample_clocks(cfg, RngStream(s).named("clocks")), RngStream(s), 1e9)
             for s in (1, 2)]
    readers = [t.partition_at for t in trajs] + [build_monotone_forest(trajs[0]).components_at]
    firsts = [{next(iter(b)): b for b in read(-1.0)} for read in readers]
    assert all(len(f) == 6 for f in firsts)
    for v in range(6):
        assert firsts[0][v] is firsts[1][v] is firsts[2][v] == {v}
    before = dynamics._SINGLETONS
    big = len(before) + 3
    alone = {next(iter(b)): b for b in MonotoneForest(big, ()).components_at(0.0)}
    after = dynamics._SINGLETONS
    assert len(after) == big and all(after[v] is before[v] for v in range(len(before)))
    assert all(alone[v] is after[v] == {v} for v in range(big))
    assert all(alone[v] is firsts[0][v] for v in range(6))


def _four_vertex_readers():
    cfg = WeightedConfig((0.5, 1.0, 1.5, 2.0))
    clocks = sample_clocks(cfg, RngStream(11).named("clocks"))
    traj = run_trajectory(cfg, clocks, RngStream(11), 1e9)
    return {
        "Trajectory.blocks_at": traj.blocks_at,
        "Trajectory.partition_at": traj.partition_at,
        "MonotoneForest.components_at": build_monotone_forest(traj).components_at,
        "OracleTrajectory.partition_at": gillespie_trajectory(cfg, RngStream(11), 50.0).partition_at,
        "LabeledGraph.partition_at": gillespie_graph(cfg, 2.0, RngStream(11)).partition_at,
    }


@pytest.mark.parametrize("name", list(_four_vertex_readers()))
def test_level_readers_reject_nan_and_accept_infinities(name):
    """A NaN level raises ValueError (it read as the final partition, or
    as all singletons); ±inf stay levels."""
    read = _four_vertex_readers()[name]
    with pytest.raises(ValueError, match="must not be NaN"):
        read(math.nan)
    read(math.inf)
    read(-math.inf)
