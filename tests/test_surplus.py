"""Influence regions, static surplus law, arrival processes, count batching."""

import dataclasses
import itertools
import math
import operator
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import domain, domain_instance
from mcmosaic.core import ClockAssignment, RngStream, WeightedConfig, sample_clocks
from mcmosaic.dynamics import run_trajectory
from mcmosaic.mosaic import build_mosaic, slice_decomposition
from mcmosaic.oracle import gillespie_graph
from mcmosaic.render import render_svg
from mcmosaic.stats import chi_square, chi_square_homogeneity, ks_test, poisson_mean_test
from mcmosaic.surplus import (
    GraphEdge,
    SurplusCountSampler,
    ZetaProcess,
    activated_processes,
    dynamic_surplus,
    influence_region,
    _draw_plan,
    _split,
    static_surplus,
    total_intensity,
)
from mcmosaic.walk import (
    WalkPath,
    area_under_reflection,
    breadth_first_forest,
    decompose,
)


def random_instance(seed, n_max=10):
    gen = RngStream(seed).named("sur-tests").generator()
    n = int(gen.integers(2, n_max + 1))
    cfg = WeightedConfig(tuple(gen.uniform(0.5, 2.0, n)))
    q = float(gen.uniform(0.2, 3.0))
    clocks = sample_clocks(cfg, RngStream(seed).named("sur-tests").named("clocks"))
    return cfg, clocks, q


def built(seed, n_max=10):
    cfg, clocks, q = random_instance(seed, n_max)
    path = WalkPath.from_clocks(cfg, clocks, q)
    dec = decompose(path)
    forest, _ = breadth_first_forest(cfg, clocks, q)
    return path, dec, forest


# -- influence regions --------------------------------------------------------


def test_graph_edge_record_contract():
    """Field order, keyword construction as in the oracle, and the fields
    the CLI writes."""
    assert GraphEdge._fields == ("source", "target", "time", "kind")
    e = GraphEdge(source=3, target=1, time=0.5, kind="simple")
    assert e == GraphEdge(3, 1, 0.5, "simple")
    assert (e.time, e.kind, e.source, e.target) == (0.5, "simple", 3, 1)


def test_region_empty_for_roots():
    path, dec, forest = built(1)
    for e in dec.excursions:
        region = influence_region(path, dec, forest, e.rank_lo)
        assert region.ranks() == range(0)


def test_region_matches_window_scan():
    """Candidates of rank h are exactly the later ranks whose jumps land by
    the end of the window that rank h itself fell into."""
    for seed in range(40):
        path, dec, forest = built(seed, n_max=14)
        cum = path.cum
        for e in dec.excursions:
            root = e.rank_lo
            for h in range(root + 1, e.rank_hi + 1):
                w_end = path.jump_times[root] + (cum[h] - cum[root])
                want = [
                    l
                    for l in range(h + 1, e.rank_hi + 1)
                    if path.jump_times[l] <= w_end
                ]
                region = influence_region(path, dec, forest, h)
                assert list(region.ranks()) == want


def test_region_generation_cases():
    """Every candidate sits in the target's generation or the next one."""
    for seed in range(30):
        path, dec, forest = built(seed)
        for e in dec.excursions:
            for h in range(e.rank_lo + 1, e.rank_hi + 1):
                region = influence_region(path, dec, forest, h)
                d_h = forest.depth[path.perm[h]]
                for l in region.ranks():
                    assert forest.depth[path.perm[l]] - d_h in (0, 1)


def test_region_includes_a_candidate_at_the_window_end():
    """Windows are half-open (a, b]: a jump exactly at the end of rank 1's
    window is its candidate, in the bisection as in the linear scan."""
    cfg = WeightedConfig((1.0, 1.0, 1.0))
    clocks = ClockAssignment.from_xi((1.0, 1.5, 2.0))
    path = WalkPath.from_clocks(cfg, clocks, 1.0)
    dec = decompose(path)
    forest, _ = breadth_first_forest(cfg, clocks, 1.0)
    region = influence_region(path, dec, forest, 1)
    assert region.ranks() == range(2, 3)
    assert tuple(region.ranks()) == reference_candidates(path, dec, forest, 1)
    assert _draw_plan(path, dec, forest) == ([2], [3], [1.0])
    assert _split([2], [3], [1.0]) == ([], range(1))
    assert_draw_plan_matches_reference(path, dec, forest)


def test_total_intensity_identity():
    """q times the walk height at the window end minus the target's own jump
    recovers q times the candidate-mass total, with no scan."""
    for seed in range(40):
        path, dec, forest = built(seed, n_max=14)
        for e in dec.excursions:
            assert total_intensity(path, dec, e.rank_lo) == 0.0
            for h in range(e.rank_lo + 1, e.rank_hi + 1):
                region = influence_region(path, dec, forest, h)
                direct = path.q * math.fsum(
                    path.jump_sizes[l] for l in region.ranks()
                )
                assert abs(total_intensity(path, dec, h) - direct) < 1e-9


# -- static surplus law -------------------------------------------------------


def test_static_surplus_edge_kinds_and_range():
    path, dec, forest = built(3)
    g = static_surplus(path, dec, forest, RngStream(3))
    assert g.n == len(path)
    for e in g.spanning:
        assert e.kind == "span" and e.time == path.q
    for e in g.surplus:
        assert e.kind == "simple" and e.source != e.target
        # surplus edges stay inside a spanning component
        comp = {c for c in g.partition_at(path.q) if e.source in c}
        assert e.target in next(iter(comp))


def test_static_surplus_reproduces_independent_pair_law():
    """n=3 unit masses: the full 8-point edge-set law matches independent
    pair coins with p = 1 - exp(-q)."""
    n, q, reps = 3, 0.7, 20000
    cfg = WeightedConfig((1.0,) * n)
    pairs = list(itertools.combinations(range(n), 2))
    p = -math.expm1(-q)

    counts = {}
    root = RngStream(23).named("static-8")
    for k in range(reps):
        sub = root.indexed(k)
        clocks = sample_clocks(cfg, sub.named("clocks"))
        path = WalkPath.from_clocks(cfg, clocks, q)
        dec = decompose(path)
        forest, _ = breadth_first_forest(cfg, clocks, q)
        g = static_surplus(path, dec, forest, sub)
        present = g.pair_set()
        key = tuple(frozenset(pr) in present for pr in pairs)
        counts[key] = counts.get(key, 0) + 1

    keys = sorted(counts)
    observed = [counts[k] for k in keys]
    probs = [
        math.prod(p if bit else (1.0 - p) for bit in k) for k in keys
    ]
    res = chi_square(observed, probs)
    assert not res.rejects(), f"edge-set law off: p={res.p_value:.5f}"


def test_static_surplus_law_matches_oracle_sampler():
    """Unequal masses: compare pair-set histograms against the direct
    per-pair coin oracle."""
    cfg = WeightedConfig((0.8, 1.4, 1.1))
    q, reps = 0.6, 15000
    pairs = list(itertools.combinations(range(3), 2))

    def hist_from(run):
        counts = {}
        for k in range(reps):
            present = run(k)
            key = tuple(frozenset(pr) in present for pr in pairs)
            counts[key] = counts.get(key, 0) + 1
        return counts

    root_w = RngStream(41).named("walk-side")

    def walk_run(k):
        sub = root_w.indexed(k)
        clocks = sample_clocks(cfg, sub.named("clocks"))
        path = WalkPath.from_clocks(cfg, clocks, q)
        dec = decompose(path)
        forest, _ = breadth_first_forest(cfg, clocks, q)
        return static_surplus(path, dec, forest, sub).pair_set()

    root_o = RngStream(42).named("oracle-side")

    def oracle_run(k):
        g = gillespie_graph(cfg, q, root_o.indexed(k), variant="simple")
        return g.pair_set()

    walk_counts = hist_from(walk_run)
    oracle_counts = hist_from(oracle_run)
    support = sorted(set(walk_counts) | set(oracle_counts))
    res = chi_square_homogeneity(
        [walk_counts.get(s, 0) for s in support],
        [oracle_counts.get(s, 0) for s in support],
    )
    assert not res.rejects(), f"pair-set laws differ: p={res.p_value:.5f}"


def _mixed_walk():
    """One excursion at q = 1: rank 1 (mass 2) has rate 5 over three
    candidates and tosses coins; ranks 2 and 3 have rates 1.5 and 0.5 over
    two candidates of unequal mass and one, and share the pool."""
    cfg = WeightedConfig((1.0, 2.0, 1.0, 0.5, 1.0))
    clocks = ClockAssignment.from_xi((0.01, 0.5, 0.8, 0.9, 0.95))
    path = WalkPath.from_clocks(cfg, clocks, 1.0)
    forest, _ = breadth_first_forest(cfg, clocks, 1.0)
    return path, decompose(path), forest


def test_pooled_and_coin_targets_follow_the_pair_law():
    """A coin target and two pooled targets on one walk: the joint law of
    the six candidate pairs (64 edge sets) is the product of
    1 - exp(-q m_h m_l) over the pairs (chi-square)."""
    path, dec, forest = _mixed_walk()
    los, ends, rates = _draw_plan(path, dec, forest)
    coin_rows, pool = _split(los, ends, rates)
    assert [los[i] - 1 for i in coin_rows] == [1] and [los[i] - 1 for i in pool] == [2, 3]
    pairs = [(h, l) for h in range(1, 5) for l in range(h + 1, 5)]
    sizes, q = path.jump_sizes, path.q
    p_edge = [-math.expm1(-q * sizes[h] * sizes[l]) for h, l in pairs]
    reps = 20000
    counts = dict.fromkeys(itertools.product((False, True), repeat=len(pairs)), 0)
    root = RngStream(61).named("mixed-law")
    for k in range(reps):
        present = static_surplus(path, dec, forest, root.indexed(k)).pair_set()
        counts[tuple(frozenset(pr) in present for pr in pairs)] += 1
    probs = [
        math.prod(p if bit else 1.0 - p for bit, p in zip(key, p_edge)) for key in counts
    ]
    res = chi_square(list(counts.values()), probs)
    assert not res.rejects(), f"edge-set law off: p={res.p_value:.5f}"


def test_generation_gap_check_against_the_per_candidate_check():
    """Every depth assignment in 0..3 to the non-root ranks of a two-tree
    walk: the O(n) check raises whenever a candidate has a depth gap, and,
    when depth is nondecreasing in rank inside each excursion (as
    breadth-first listing makes it), exactly when the per-candidate check
    does.  Rank 7 is in no region (rank 6's window ends at 11), so a depth
    decrease from rank 6 to 7 raises only in the O(n) check."""
    cfg = WeightedConfig((1.0, 2.0, 1.0, 0.5, 0.5, 1.0, 1.0, 1.0))
    clocks = ClockAssignment.from_xi((0.01, 0.5, 0.8, 0.9, 0.95, 10.0, 10.5, 11.5))
    path = WalkPath.from_clocks(cfg, clocks, 1.0)
    dec = decompose(path)
    assert path.perm == tuple(range(8))
    assert [(e.rank_lo, e.rank_hi) for e in dec.excursions] == [(0, 4), (5, 7)]
    forest, _ = breadth_first_forest(cfg, clocks, 1.0)
    seen = set()
    for free in itertools.product(range(4), repeat=6):
        depth = (0, *free[:4], 0, *free[4:])
        hand = dataclasses.replace(forest, depth=depth)
        old = any(_raises(reference_candidates, path, dec, hand, h) for h in range(8))
        new = _raises(_draw_plan, path, dec, hand)
        assert new == _raises(static_surplus, path, dec, hand, RngStream(0))
        monotone = all(depth[r - 1] <= depth[r] for r in (2, 3, 4, 6, 7))
        assert new if old else (new == (not monotone))
        seen.add((old, new, monotone))
    assert seen == {(False, False, True), (True, True, True), (True, True, False),
                    (False, True, False)}


# -- arrival processes --------------------------------------------------------


def test_activated_processes_bookkeeping():
    for seed in range(25):
        cfg, clocks, q = random_instance(seed)
        traj = run_trajectory(cfg, clocks, RngStream(seed), q)
        procs = activated_processes(traj, q, include_loops=True)
        loops = [z for z in procs if z.activation == 0.0 and z.j == z.k == z.l]
        assert len(loops) == len(cfg)
        for z in loops:
            m = cfg.masses[clocks.perm[z.l]]
            assert z.rate == pytest.approx(m * m / 2.0)
        merge_procs = [z for z in procs if z.activation > 0.0]
        expect = sum(len(ev.right) for ev in traj.events if ev.time <= q)
        assert len(merge_procs) == expect
        for z in merge_procs:
            assert z.j <= z.k < z.l or z.l < z.j  # source outside the target block
            m_l = cfg.masses[clocks.perm[z.l]]
            assert z.rate == pytest.approx(m_l * z.target_mass)


def test_activated_processes_without_loops():
    cfg, clocks, q = random_instance(2)
    traj = run_trajectory(cfg, clocks, RngStream(2), q)
    procs = activated_processes(traj, q, include_loops=False)
    assert all(z.activation > 0.0 for z in procs)


def test_dynamic_surplus_validation():
    cfg, clocks, q = random_instance(5)
    traj = run_trajectory(cfg, clocks, RngStream(5), q)
    with pytest.raises(ValueError):
        dynamic_surplus(traj, RngStream(5), q, variant="bogus")
    with pytest.raises(ValueError):
        dynamic_surplus(traj, RngStream(5), q * 2.0)


def test_dynamic_surplus_structure():
    for seed in range(25):
        cfg, clocks, q = random_instance(seed)
        traj = run_trajectory(cfg, clocks, RngStream(seed), q)

        multi = dynamic_surplus(traj, RngStream(seed), q, variant="multigraph")
        for e in multi.surplus:
            assert 0.0 <= e.time <= q
            assert e.kind == ("loop" if e.source == e.target else "multi")
        times = [e.time for e in multi.surplus]
        assert times == sorted(times)

        simple = dynamic_surplus(traj, RngStream(seed), q, variant="simple")
        span_pairs = {frozenset((e.source, e.target)) for e in simple.spanning}
        # a pair's first arrival comes after the merger that joins its blocks
        rank = {v: r for r, v in enumerate(clocks.perm)}
        joined = {}
        for ev in traj.events:
            if ev.time <= q:
                for l in ev.right.ranks():
                    joined.update(((l, c), ev.time) for c in ev.left.ranks())
        seen = set()
        for e in simple.surplus:
            assert e.kind == "simple" and e.source != e.target
            pair = frozenset((e.source, e.target))
            assert pair not in seen and pair not in span_pairs
            seen.add(pair)
            assert joined[rank[e.source], rank[e.target]] <= e.time <= q
        times = [e.time for e in simple.surplus]
        assert times == sorted(times)


def test_dynamic_surplus_edges_stay_inside_components():
    for seed in range(15):
        cfg, clocks, q = random_instance(seed)
        traj = run_trajectory(cfg, clocks, RngStream(seed), q)
        g = dynamic_surplus(traj, RngStream(seed), q, variant="multigraph")
        part = traj.partition_at(q)
        comp_of = {v: c for c in part for v in c}
        for e in g.surplus:
            assert comp_of[e.source] is comp_of[e.target]


def test_loop_only_single_vertex():
    """n=1: no mergers, multigraph surplus is the pure loop process."""
    cfg = WeightedConfig((2.0,))
    clocks = sample_clocks(cfg, RngStream(6).named("clocks"))
    q = 1.5
    traj = run_trajectory(cfg, clocks, RngStream(6), q)
    assert traj.events == ()
    lam = q * 2.0**2 / 2.0
    counts = []
    for k in range(4000):
        g = dynamic_surplus(traj, RngStream(6).indexed(k), q, variant="multigraph")
        assert all(e.kind == "loop" for e in g.surplus)
        counts.append(len(g.surplus))
    mean = float(np.mean(counts))
    assert abs(mean - lam) < 4 * math.sqrt(lam / len(counts))
    # simple variant drops every loop
    g = dynamic_surplus(traj, RngStream(6), q, variant="simple")
    assert g.surplus == ()


# -- batched counts -----------------------------------------------------------


def test_count_sampler_mean_is_q_times_area():
    """Per component, the summed process intensity equals q times the area
    under the reflected walk over that component's excursion, exactly."""
    for seed in range(20):
        cfg, clocks, q = random_instance(seed)
        traj = run_trajectory(cfg, clocks, RngStream(seed), q)
        sampler = SurplusCountSampler(traj, q)
        expected = sampler.expected_by_component()
        path = WalkPath.from_clocks(cfg, clocks, q)
        area_by_comp = {
            frozenset(e.vertices): area_under_reflection(path, e.start, e.end)
            for e in decompose(path).excursions
        }
        assert len(sampler.components) == len(area_by_comp)
        for ci, comp in enumerate(sampler.components):
            assert expected[ci] == pytest.approx(q * area_by_comp[comp], abs=1e-9)


def test_count_sampler_matches_dynamic_surplus_law():
    """Batched counts and the edge-by-edge multigraph build agree per
    component in mean."""
    cfg, clocks, q = random_instance(11, n_max=6)
    traj = run_trajectory(cfg, clocks, RngStream(11), q)
    sampler = SurplusCountSampler(traj, q)
    reps = 3000
    batch = sampler.counts(RngStream(50).named("batch"), reps)

    direct = np.zeros((reps, len(sampler.components)), dtype=int)
    idx = {v: i for i, c in enumerate(sampler.components) for v in c}
    for k in range(reps):
        g = dynamic_surplus(traj, RngStream(51).indexed(k), q, variant="multigraph")
        for e in g.surplus:
            direct[k, idx[e.source]] += 1

    for ci in range(len(sampler.components)):
        lam = sampler.expected_by_component()[ci]
        sd = math.sqrt(max(lam, 1e-12) / reps)
        assert abs(batch[:, ci].mean() - lam) < 5 * sd + 1e-12
        assert abs(direct[:, ci].mean() - lam) < 5 * sd + 1e-12


def test_counts_independent_across_components():
    """Given the trajectory, per-component counts are uncorrelated."""
    for seed in range(10):
        cfg, clocks, q = random_instance(seed, n_max=8)
        traj = run_trajectory(cfg, clocks, RngStream(seed), q)
        sampler = SurplusCountSampler(traj, q)
        if sampler.n_components < 2:
            continue
        reps = 6000
        counts = sampler.counts(RngStream(seed).named("indep"), reps)
        for a in range(sampler.n_components):
            for b in range(a + 1, sampler.n_components):
                ca, cb = counts[:, a], counts[:, b]
                if ca.std() == 0.0 or cb.std() == 0.0:
                    continue
                r = float(np.corrcoef(ca, cb)[0, 1])
                assert abs(r) < 5.0 / math.sqrt(reps)


# -- bulk draws against the per-candidate and per-process loops ---------------
# The references below are the loops the bulk code replaced: a linear window
# scan with one scalar draw per candidate, and one ZetaProcess per event and
# right-block rank.  Where the stream is kept the results must be identical.


def reference_candidates(path, dec, forest, h):
    exc = next(e for e in dec.excursions if e.rank_lo <= h <= e.rank_hi)
    root = exc.rank_lo
    if h == root:
        return ()
    times, cum = path.jump_times, path.cum
    window_end = times[root] + (cum[h] - cum[root])
    depth_h = forest.depth[path.perm[h]]
    out = []
    l = h + 1
    while l <= exc.rank_hi and times[l] <= window_end:
        if forest.depth[path.perm[l]] - depth_h not in (0, 1):
            raise AssertionError(f"unexpected generation gap at rank {l}")
        out.append(l)
        l += 1
    return tuple(out)


def reference_static_surplus(path, dec, forest, rng):
    q = path.q
    gen = rng.named("static-surplus").generator()
    extra = []
    for exc in dec.excursions:
        for h in range(exc.rank_lo + 1, exc.rank_hi + 1):
            m_h = path.jump_sizes[h]
            for l in reference_candidates(path, dec, forest, h):
                p_edge = -math.expm1(-q * m_h * path.jump_sizes[l])
                if gen.random() < p_edge:
                    extra.append(
                        GraphEdge(source=path.perm[l], target=path.perm[h], time=q, kind="simple")
                    )
    return tuple(extra)


def reference_processes(traj, q_max, include_loops):
    perm, masses = traj.clocks.perm, traj.config.masses
    out = []
    if include_loops:
        for rank in range(len(traj.config)):
            m = masses[perm[rank]]
            out.append(ZetaProcess(rank, rank, rank, 0.0, m * m / 2.0, m))
    for ev in traj.events:
        if ev.time > q_max:
            break
        for l in ev.right.ranks():
            out.append(
                ZetaProcess(
                    l, ev.left.lo, ev.left.hi, ev.time,
                    masses[perm[l]] * ev.left.mass, ev.left.mass,
                )
            )
    return tuple(out)


def reference_sampler_arrays(traj, q_max):
    procs = reference_processes(traj, q_max, include_loops=True)
    owner = {r: ci for ci, b in enumerate(traj.blocks_at(q_max)) for r in b.ranks()}
    lam = np.asarray([z.rate * (q_max - z.activation) for z in procs])
    group = np.asarray([owner[z.l] for z in procs], dtype=int)
    return lam, group


def _outcome(fn, *args):
    try:
        return fn(*args)
    except AssertionError as e:
        return ("AssertionError", str(e))


def _raises(fn, *args):
    """True when fn raises the generation-gap AssertionError."""
    try:
        fn(*args)
    except AssertionError as e:
        assert "unexpected generation gap" in str(e)
        return True
    return False


_DOMAIN = domain(max_n=40, max_ties=6)


def assert_draw_plan_matches_reference(path, dec, forest):
    """The draw plan's rows are the non-root ranks h with a candidate, in
    rank order, with the reference's candidates as their range lo..e-1,
    lo = h + 1, and rate q * m_h times their mass to 1e-12 of
    q * m_h * cum[e] (the rounding of the prefix masses the rate is
    a difference of); a generation gap raises in both or in neither.  The
    kernel's split holds on these rows."""
    reference = [lambda h=h: reference_candidates(path, dec, forest, h) for h in range(len(path))]
    raises = _raises(_draw_plan, path, dec, forest)
    assert raises == any(_raises(ref) for ref in reference)
    if raises:
        return
    los, ends, rates = _draw_plan(path, dec, forest)
    assert [lo - 1 for lo in los] == [h for h in range(len(path)) if reference[h]()]
    q, sizes, cum = path.q, path.jump_sizes, path.cum
    for lo, e, lam in zip(los, ends, rates):
        h = lo - 1
        cands = list(reference[h]())
        assert cands == list(range(lo, e))
        exact = q * sizes[h] * math.fsum(sizes[l] for l in cands)
        assert abs(lam - exact) <= 1e-12 * q * sizes[h] * cum[e]
    assert_split_bounds_the_work(los, ends, rates, len(path))


def assert_split_bounds_the_work(los, ends, rates, n):
    """Only rows whose rate is in (0, k] are pooled and every other row
    tosses one coin per candidate, so the expected arrivals and coins never
    exceed the candidate pairs, nor these the n(n-1)/2 vertex pairs."""
    coin_rows, pool = _split(los, ends, rates)
    rows = list(enumerate(zip(los, ends, rates)))
    assert list(pool) == [i for i, (lo, e, lam) in rows if 0.0 < lam <= e - lo]
    assert coin_rows == [i for i, (lo, e, lam) in rows if not lam <= e - lo]
    expected_work = math.fsum(rates[i] for i in pool) + sum(ends[i] - los[i] for i in coin_rows)
    assert expected_work <= sum(map(operator.sub, ends, los)) <= n * (n - 1) // 2


@settings(deadline=None, max_examples=150)
@given(*_DOMAIN, st.floats(-3.0, 12.0))
def test_static_surplus_matches_per_candidate_loop(exponents, equal, seed, ties, log_q):
    """q from 1e-3 to 1e12 over sigma2: regions and excursion lookup equal
    the per-candidate loop's, the draw plan agrees with it,
    and the static graph raises where it raises; otherwise its edges are
    distinct candidate pairs, listed in (target, candidate) rank order."""
    cfg, clocks = domain_instance(exponents, equal, seed, ties)
    q = 10.0**log_q / math.fsum(m * m for m in cfg.masses)
    path = WalkPath.from_clocks(cfg, clocks, q)
    dec = decompose(path)
    forest, _ = breadth_first_forest(cfg, clocks, q)
    for h in range(len(path)):
        want = next(e for e in dec.excursions if e.rank_lo <= h <= e.rank_hi)
        assert dec.excursion_of_rank(h) is want
        region = _outcome(lambda: tuple(influence_region(path, dec, forest, h).ranks()))
        assert region == _outcome(reference_candidates, path, dec, forest, h)
    with pytest.raises(ValueError):
        dec.excursion_of_rank(len(path))
    assert_draw_plan_matches_reference(path, dec, forest)
    raises = _raises(static_surplus, path, dec, forest, RngStream(seed))
    assert raises == _raises(reference_static_surplus, path, dec, forest, RngStream(seed))
    if raises:
        return
    rank = {v: r for r, v in enumerate(path.perm)}
    got = static_surplus(path, dec, forest, RngStream(seed)).surplus
    pairs = [(rank[e.target], rank[e.source]) for e in got]
    assert pairs == sorted(set(pairs))
    for h, l in pairs:
        assert l in reference_candidates(path, dec, forest, h)


@settings(deadline=None, max_examples=150)
@given(*_DOMAIN, st.floats(-12.0, 12.0))
def test_total_intensity_identity_over_the_domain(exponents, equal, seed, ties, log_q):
    """Criterion 5 on masses log-uniform over 1e-6..1e6 (or all equal), n
    from 1, tied clocks, q up to 1e12 over sigma2: roots read exactly zero,
    and every other rank reads q times its candidate mass, to 1e-9 of q
    times the walk values the identity subtracts (the cumulative mass and
    the time at its excursion's end)."""
    cfg, clocks = domain_instance(exponents, equal, seed, ties)
    q = 10.0**log_q / math.fsum(m * m for m in cfg.masses)
    path = WalkPath.from_clocks(cfg, clocks, q)
    dec = decompose(path)
    forest, _ = breadth_first_forest(cfg, clocks, q)
    for e in dec.excursions:
        assert total_intensity(path, dec, e.rank_lo) == 0.0
        tol = 1e-9 * q * max(path.cum[e.rank_hi + 1], e.end)
        for h in range(e.rank_lo + 1, e.rank_hi + 1):
            region = influence_region(path, dec, forest, h)
            want = q * math.fsum(path.jump_sizes[l] for l in region.ranks())
            assert abs(total_intensity(path, dec, h) - want) <= tol


@settings(deadline=None, max_examples=150)
@given(*_DOMAIN, st.floats(-3.0, 12.0), st.floats(0.0, 1.0), st.booleans())
def test_process_table_matches_per_event_loop(
    exponents, equal, seed, ties, log_q, fraction, at_event
):
    """The process list and the sampler's lam array equal the
    per-event loop's exactly, at random levels and at event times."""
    cfg, clocks = domain_instance(exponents, equal, seed, ties)
    q_max = 10.0**log_q / math.fsum(m * m for m in cfg.masses)
    traj = run_trajectory(cfg, clocks, RngStream(seed), q_max)
    q = q_max * fraction if fraction > 0.0 else q_max
    if at_event and traj.events:
        q = traj.events[int(fraction * (len(traj.events) - 1))].time
    for loops in (False, True):
        assert activated_processes(traj, q, loops) == reference_processes(traj, q, loops)
    sampler = SurplusCountSampler(traj, q)
    lam, group = reference_sampler_arrays(traj, q)
    assert np.array_equal(sampler.lam, lam)
    # the superposed intensity per component: the per-process sum
    per_process = np.zeros(sampler.n_components)
    np.add.at(per_process, group, lam)
    np.testing.assert_allclose(sampler.expected_by_component(), per_process, rtol=1e-12, atol=0.0)


@settings(deadline=None, max_examples=100)
@given(*_DOMAIN, st.floats(-3.0, 12.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_level_view_readers_match_fresh_copies(exponents, equal, seed, ties, log_q, f1, f2):
    """Every reader of the shared level view, called in turn at q1, then q2,
    then q1 on one trajectory (the dynamic surplus simple then multigraph,
    then the slices, the mosaic and the shaded drawing), gives what it gives
    alone on a fresh copy, for q_max up to 1e12 over sigma2.  The
    multigraph keeps every arrival, a Poisson count of mean q_max times the
    area under the walk, so it reads only while q_max is at most 10 over
    sigma2."""
    cfg, clocks = domain_instance(exponents, equal, seed, ties)
    q_max = 10.0**log_q / math.fsum(m * m for m in cfg.masses)
    traj = run_trajectory(cfg, clocks, RngStream(seed), q_max)
    rng = RngStream(seed).named("view")
    readers = [
        lambda t, q: t.blocks_at(q),
        lambda t, q: activated_processes(t, q, False),
        lambda t, q: activated_processes(t, q, True),
        lambda t, q: dynamic_surplus(t, rng, q, "simple"),
        lambda t, q: dynamic_surplus(t, rng, q, "multigraph") if log_q <= 1.0 else None,
        lambda t, q: SurplusCountSampler(t, q).expected_by_component().tolist(),
        lambda t, q: slice_decomposition(t, q) if q > 0.0 else None,
        lambda t, q: build_mosaic(t, q) if q > 0.0 else None,
        lambda t, q: render_svg(t, q, shade_slices=True) if q > 0.0 else None,
    ]
    for q in (q_max * f1, q_max * f2, q_max * f1):
        shared = [read(traj, q) for read in readers]
        # repr: at subnormal levels a slice can hold NaN, which equals nothing
        assert repr(shared) == repr([read(dataclasses.replace(traj), q) for read in readers])
        if shared[4] is not None:
            assert shared[3].spanning is shared[4].spanning


@settings(deadline=None, max_examples=150)
@given(*_DOMAIN, st.floats(-3.0, 12.0), st.floats(0.0, 1.0))
def test_dynamic_rows_bound_the_work(exponents, equal, seed, ties, log_q, fraction):
    """The simple variant's rows, one per non-loop process (the absorbing
    block at the process rate times q - activation), cover each vertex pair
    of a component at most once, so the kernel's coins plus pooled expected
    arrivals stay within the candidate pairs and n(n-1)/2, for q up to 1e12
    over sigma2."""
    cfg, clocks = domain_instance(exponents, equal, seed, ties)
    q_max = 10.0**log_q / math.fsum(m * m for m in cfg.masses)
    traj = run_trajectory(cfg, clocks, RngStream(seed), q_max)
    procs = activated_processes(traj, q_max * fraction, include_loops=False)
    rates = [z.rate * (q_max * fraction - z.activation) for z in procs]
    assert_split_bounds_the_work([z.j for z in procs], [z.k + 1 for z in procs], rates, len(cfg))
    pairs = [(z.l, c) for z in procs for c in range(z.j, z.k + 1)]
    assert len(set(map(frozenset, pairs))) == len(pairs)


def test_simple_graph_work_is_bounded_at_huge_rates():
    """Eight equal masses 10**4.79 with q_max = 10**9.29 / sigma2, read at
    0.26 q_max: the multigraph would draw about 1.8e9 arrivals there, while
    the simple graph returns each of the 28 pairs once (7 spanning, 21
    surplus) at once."""
    cfg = WeightedConfig((10.0**4.79,) * 8)
    q_max = 10.0**9.29 / math.fsum(m * m for m in cfg.masses)
    clocks = sample_clocks(cfg, RngStream(3).named("clocks"))
    traj = run_trajectory(cfg, clocks, RngStream(3), q_max)
    start = time.perf_counter()
    g = dynamic_surplus(traj, RngStream(4), 0.26 * q_max, "simple")
    assert time.perf_counter() - start < 5.0
    assert (len(g.spanning), len(g.surplus)) == (7, 21)
    pairs = sorted(tuple(sorted(e[:2])) for e in g.spanning + g.surplus)
    assert pairs == list(itertools.combinations(range(8), 2))


def _law_trajectory():
    """Ranks 1 and 2 join rank 0 early; rank 3 is absorbed by block 0..2
    (masses 0.5, 1, 2) at (10 - 0.1) / 3.5, so its process aims at three
    targets of unequal mass."""
    cfg = WeightedConfig((0.5, 1.0, 2.0, 1.5))
    clocks = ClockAssignment.from_xi((0.1, 0.2, 0.3, 10.0))
    traj = run_trajectory(cfg, clocks, RngStream(0), 5.0)
    assert [(ev.left.lo, ev.left.hi, ev.right.lo) for ev in traj.events][-1] == (0, 2, 3)
    return traj


def test_bulk_draws_follow_the_process_law():
    """Multigraph arrivals of the process from rank 3: targets mass-biased
    (chi-square), times uniform on [activation, q_max] (KS), and its count
    Poisson with its own intensity; the total surplus count is Poisson with
    the summed intensities."""
    traj = _law_trajectory()
    q_max, activation = 5.0, traj.events[-1].time
    root = RngStream(19).named("bulk-law")
    targets = [0, 0, 0]
    times, totals, from_3 = [], [], []
    for k in range(3000):
        g = dynamic_surplus(traj, root.indexed(k), q_max, variant="multigraph")
        totals.append(len(g.surplus))
        mine = [e for e in g.surplus if e.source == 3 and e.kind == "multi"]
        from_3.append(len(mine))
        for e in mine:
            targets[e.target] += 1
            times.append(e.time)
    res = chi_square(targets, [0.5 / 3.5, 1.0 / 3.5, 2.0 / 3.5])
    assert not res.rejects(), f"targets not mass-biased: p={res.p_value:.5f}"
    ks = ks_test(times, lambda t: np.clip((t - activation) / (q_max - activation), 0.0, 1.0))
    assert not ks.rejects(), f"arrival times not uniform: p={ks.p_value:.5f}"
    moments = poisson_mean_test(from_3, 1.5 * 3.5 * (q_max - activation))
    assert moments.passed, moments
    lam = float(SurplusCountSampler(traj, q_max).expected_by_component().sum())
    moments = poisson_mean_test(totals, lam)
    assert moments.passed, moments


def test_simple_variant_draws_each_pair_at_its_first_arrival():
    """Rank 3's pairs on the law trajectory: (3, 1), its merger's spanning
    edge, is never a surplus edge; (3, 0) and (3, 2) are present with
    probability 1 - exp(-1.5 m_v (q_max - a)), independently (chi-square
    on the four joint outcomes), at times Exp(1.5 m_v) truncated to
    [a, q_max] (KS)."""
    traj = _law_trajectory()
    q_max, last = 5.0, traj.events[-1]
    a = last.time
    assert traj.clocks.perm == (0, 1, 2, 3) and last.edge == (3, 1)
    rate = {v: 1.5 * traj.config.masses[v] for v in (0, 2)}
    times = {0: [], 2: []}
    counts = dict.fromkeys(itertools.product((False, True), repeat=2), 0)
    root = RngStream(29).named("simple-law")
    for k in range(3000):
        g = dynamic_surplus(traj, root.indexed(k), q_max, variant="simple")
        mine = {e.target: e.time for e in g.surplus if e.source == 3}
        assert 1 not in mine
        counts[0 in mine, 2 in mine] += 1
        for v, t in mine.items():
            times[v].append(t)
    p = {v: -math.expm1(-r * (q_max - a)) for v, r in rate.items()}
    probs = [(p[0] if x else 1 - p[0]) * (p[2] if y else 1 - p[2]) for x, y in counts]
    res = chi_square(list(counts.values()), probs)
    assert not res.rejects(), f"pair presence off: p={res.p_value:.5f}"
    for v, r in rate.items():
        ks = ks_test(times[v], lambda t: np.expm1(-r * (t - a)) / np.expm1(-r * (q_max - a)))
        assert not ks.rejects(), f"pair (3, {v}) times off: p={ks.p_value:.5f}"


def reference_counts(sampler, rng, reps):
    """The earlier draw: one Poisson count per process, summed per component."""
    gen = rng.named("surplus-counts").generator()
    raw = gen.poisson(lam=sampler.lam, size=(reps, len(sampler.lam)))
    _, group = reference_sampler_arrays(sampler.trajectory, sampler.q_max)
    out = np.zeros((reps, sampler.n_components), dtype=np.int64)
    for ci in range(sampler.n_components):
        out[:, ci] = raw[:, group == ci].sum(axis=1)
    return out


def test_superposed_counts_follow_the_per_process_law():
    """Per component, one Poisson draw of the summed intensity and the sum
    of per-process Poisson draws have one count law (chi-square
    homogeneity over the count values)."""
    reps = 4000
    tested = 0
    for seed in range(4):
        cfg, clocks, q = random_instance(seed, n_max=10)
        traj = run_trajectory(cfg, clocks, RngStream(seed), q)
        sampler = SurplusCountSampler(traj, q)
        got = sampler.counts(RngStream(seed).named("superposed"), reps)
        want = reference_counts(sampler, RngStream(seed).named("per-process"), reps)
        for ci in range(sampler.n_components):
            top = int(max(got[:, ci].max(), want[:, ci].max())) + 1
            if top < 2:
                continue
            res = chi_square_homogeneity(
                np.bincount(got[:, ci], minlength=top), np.bincount(want[:, ci], minlength=top)
            )
            assert not res.rejects(), f"seed {seed} component {ci}: p={res.p_value:.5f}"
            tested += 1
    assert tested >= 4


def test_surplus_layer_rejects_levels_past_the_horizon():
    """Four unit masses logged to 0.05 (no merger yet) cannot answer at
    q = 50, nor at a negative or NaN level: all three readers raise instead
    of reading the short log."""
    cfg = WeightedConfig((1.0, 1.0, 1.0, 1.0))
    clocks = ClockAssignment.from_xi((0.5, 1.5, 3.0, 3.5))
    short = run_trajectory(cfg, clocks, RngStream(0), q_max=0.05)
    assert short.events == ()
    for level in (50.0, -1.0, math.nan):
        for read in (
            lambda: SurplusCountSampler(short, level),
            lambda: activated_processes(short, level, True),
            lambda: dynamic_surplus(short, RngStream(0), level, variant="multigraph"),
        ):
            with pytest.raises(ValueError, match="horizon"):
                read()
    assert SurplusCountSampler(short, 0.05).n_components == 4
    # tied clocks merge at q = 0, a level the readers take although no walk
    # exists there: the time-0 spanning edge and no surplus
    tied_clocks = ClockAssignment.from_xi((0.5, 0.5))
    tied = run_trajectory(WeightedConfig((1.0, 1.0)), tied_clocks, RngStream(0), q_max=1.0)
    assert [ev.time for ev in tied.events] == [0.0]
    for variant in ("simple", "multigraph"):
        graph = dynamic_surplus(tied, RngStream(0), 0.0, variant=variant)
        assert graph.spanning == (GraphEdge(1, 0, 0.0, "span"),)
        assert graph.surplus == ()
    # on the full log the answer is one component with mean q times the area
    full = run_trajectory(cfg, clocks, RngStream(0), q_max=50.0)
    sampler = SurplusCountSampler(full, 50.0)
    path = WalkPath.from_clocks(cfg, clocks, 50.0)
    (exc,) = decompose(path).excursions
    assert sampler.n_components == 1
    assert sampler.expected_by_component()[0] == pytest.approx(
        50.0 * area_under_reflection(path, exc.start, exc.end), rel=1e-12
    )
