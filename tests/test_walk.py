"""Walk construction, excursion decomposition, forests, and areas.

The reference implementations here are deliberately naive nested loops so
that agreement with the O(n log n) production code is meaningful.
"""

import bisect
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import domain, domain_instance
from mcmosaic.core import ClockAssignment, RngStream, WeightedConfig, sample_clocks
from mcmosaic.stats import chi_square_homogeneity
from mcmosaic.surplus import _draw_plan, influence_region
from mcmosaic.walk import (
    _CHUNK_BYTES,
    WalkPath,
    area_under_reflection,
    breadth_first_forest,
    chunk_rows,
    component_stats,
    decompose,
)


def make_path(masses, xi, q):
    cfg = WeightedConfig(tuple(masses))
    clocks = ClockAssignment.from_xi(tuple(xi))
    return WalkPath.from_clocks(cfg, clocks, q)


def random_path(seed, n_max=12, n_min=2):
    gen = RngStream(seed).named("walk-tests").generator()
    n = int(gen.integers(n_min, n_max + 1))
    masses = gen.uniform(0.5, 2.0, n)
    cfg = WeightedConfig(tuple(masses))
    q = float(gen.uniform(0.2, 3.0))
    clocks = sample_clocks(cfg, RngStream(seed).named("walk-tests").named("clocks"))
    return cfg, clocks, WalkPath.from_clocks(cfg, clocks, q)


# -- construction -------------------------------------------------------------


def test_from_clocks_orders_by_clock():
    path = make_path([2.0, 1.0], [0.6, 0.3], q=2.0)
    assert path.perm == (1, 0)
    assert path.jump_times == (0.15, 0.3)
    assert path.jump_sizes == (1.0, 2.0)


def test_from_clocks_validates():
    cfg = WeightedConfig((1.0,))
    clocks = ClockAssignment.from_xi((0.5,))
    with pytest.raises(ValueError):
        WalkPath.from_clocks(cfg, clocks, 0.0)
    with pytest.raises(ValueError):
        WalkPath.from_clocks(WeightedConfig((1.0, 1.0)), clocks, 1.0)


# -- pointwise evaluation -----------------------------------------------------


def test_eval_hand_values():
    # unit masses, jumps at 0.5 and 0.9
    path = make_path([1.0, 1.0], [0.5, 0.9], q=1.0)
    # the walk just before each jump: 0 - 0.5, then 1 - 0.9
    assert path.troughs == pytest.approx((-0.5, 0.1))
    assert path.trough_mins == pytest.approx((0.0, -0.5, -0.5))
    assert path.eval_B(0.0) == 0.0
    assert path.eval_B(0.25) == 0.0  # the walk is at its running minimum
    assert path.eval_B(0.5) == pytest.approx(1.0)
    assert path.eval_B(0.7) == pytest.approx(0.8)
    assert path.eval_B(0.9) == pytest.approx(1.6)
    # reflection hits zero at 2.5 and stays there
    assert path.eval_B(2.5) == pytest.approx(0.0)
    assert path.eval_B(4.0) == pytest.approx(0.0)


def test_eval_B_nonnegative_everywhere():
    for seed in range(20):
        _, _, path = random_path(seed)
        end = path.jump_times[-1] + sum(path.jump_sizes)
        for s in np.linspace(0.0, end * 1.05, 173):
            assert path.eval_B(float(s)) >= -1e-12


def test_eval_rejects_negative_time():
    path = make_path([1.0], [0.5], q=1.0)
    with pytest.raises(ValueError):
        path.eval_B(-0.1)


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda path: path.eval_B(math.nan),
        lambda path: path.eval_B(math.inf),
        lambda path: path.eval_B(-math.inf),
        lambda path: area_under_reflection(path, 0.0, math.nan),
        lambda path: area_under_reflection(path, math.nan, 1.0),
        lambda path: area_under_reflection(path, math.nan, math.nan),
        lambda path: area_under_reflection(path, math.inf, math.inf),
    ],
    ids=["B-nan", "B-inf", "B-minus-inf", "area-to-nan", "area-from-nan", "area-nan", "area-inf"],
)
def test_evaluators_reject_nan_and_infinite_times(evaluate):
    """The walk lives on 0 <= s < inf: a NaN or infinite time raises instead
    of coming back as a number (an infinite end of an area never reads B)."""
    path = make_path([1.0, 2.0, 0.5], [0.3, 0.1, 0.7], q=1.0)
    with pytest.raises(ValueError):
        evaluate(path)


# -- excursion decomposition --------------------------------------------------


def reference_partition(path):
    """Rank partition by the listening-window rule, written independently:
    rank r joins the open tree iff its jump time is at most the window end,
    the window being the root's time plus all masses attached so far."""
    n = len(path)
    blocks = []
    r = 0
    while r < n:
        root = r
        window = path.jump_times[root] + path.jump_sizes[root]
        r += 1
        while r < n and path.jump_times[r] <= window:
            window += path.jump_sizes[r]
            r += 1
        blocks.append((root, r - 1))
    return blocks


def test_decompose_matches_window_rule():
    for seed in range(60):
        _, _, path = random_path(seed, n_max=16)
        got = [(e.rank_lo, e.rank_hi) for e in decompose(path).excursions]
        assert got == reference_partition(path)


def test_decompose_fields():
    for seed in range(25):
        _, _, path = random_path(seed)
        dec = decompose(path)
        covered = []
        for e in dec.excursions:
            covered.extend(range(e.rank_lo, e.rank_hi + 1))
            assert e.vertices == path.perm[e.rank_lo : e.rank_hi + 1]
            assert e.mass == pytest.approx(
                sum(path.jump_sizes[e.rank_lo : e.rank_hi + 1])
            )
            assert e.start == path.jump_times[e.rank_lo]
            assert e.end == pytest.approx(e.start + e.mass)
        assert covered == list(range(len(path)))
        # excursions interleave with the load-free gaps: each starts at or
        # after the previous one's end
        assert dec.excursions[0].start >= 0.0
        for prev, e in zip(dec.excursions, dec.excursions[1:]):
            assert e.start >= prev.end


def test_excursion_of_rank():
    _, _, path = random_path(3)
    dec = decompose(path)
    for e in dec.excursions:
        assert dec.excursion_of_rank(e.rank_lo) is e
        assert dec.excursion_of_rank(e.rank_hi) is e
    with pytest.raises(ValueError):
        dec.excursion_of_rank(len(path))


def test_reflection_positive_inside_excursion():
    """B stays strictly positive strictly between an excursion's endpoints."""
    for seed in range(15):
        _, _, path = random_path(seed)
        for e in decompose(path).excursions:
            for s in np.linspace(e.start, e.end, 37)[1:-1]:
                assert path.eval_B(float(s)) > 0.0
            # B is 0 just before the root's jump: its trough is a new minimum
            lo = e.rank_lo
            assert path.troughs[lo] == path.trough_mins[lo + 1] < path.trough_mins[lo]
            assert path.eval_B(e.end) == pytest.approx(0.0, abs=1e-12)


# -- forest -------------------------------------------------------------------


def reference_forest(path):
    """Quadratic re-derivation: each non-root rank attaches to the rank whose
    slice of the listening window contains its jump time."""
    n = len(path)
    parent = [None] * n
    depth = [0] * n
    roots = []
    root = 0
    for r in range(n):
        if r == 0:
            roots.append(path.perm[0])
            continue
        reach = path.jump_times[root] + sum(path.jump_sizes[root:r])
        if path.jump_times[r] > reach:
            root = r
            roots.append(path.perm[r])
            continue
        acc = 0.0
        for i in range(root, r):
            acc += path.jump_sizes[i]
            if path.jump_times[r] <= path.jump_times[root] + acc:
                parent[path.perm[r]] = path.perm[i]
                depth[path.perm[r]] = depth[path.perm[i]] + 1
                break
    return parent, depth, roots


def test_forest_matches_quadratic_reference():
    for seed in range(80):
        cfg, clocks, path = random_path(seed, n_max=18)
        forest, masses = breadth_first_forest(cfg, clocks, path.q)
        parent, depth, roots = reference_forest(path)
        assert list(forest.parent) == parent
        assert list(forest.depth) == depth
        # the parentless vertices, in rank order, are the roots
        assert [v for v in path.perm if forest.parent[v] is None] == roots
        assert [round(m, 9) for m in masses] == [
            round(e.mass, 9) for e in decompose(path).excursions
        ]


@settings(deadline=None, max_examples=150)
@given(*domain(max_n=40, max_ties=6), st.floats(-12.0, 12.0))
def test_breadth_first_depth_is_nondecreasing_in_rank(exponents, equal, seed, ties, log_q):
    """The shared domain at q up to 1e12 over sigma2: inside every
    excursion, depth never decreases from one rank to the next (the probe
    rank never decreases and a child sits one below its probe).  The static
    surplus's O(n) generation-gap check rests on this."""
    cfg, clocks = domain_instance(exponents, equal, seed, ties)
    q = 10.0**log_q / math.fsum(m * m for m in cfg.masses)
    path = WalkPath.from_clocks(cfg, clocks, q)
    forest, _ = breadth_first_forest(cfg, clocks, q)
    depth = [forest.depth[v] for v in path.perm]
    for e in decompose(path).excursions:
        assert depth[e.rank_lo] == 0
        run = depth[e.rank_lo : e.rank_hi + 1]
        assert run == sorted(run)


def test_forest_components_match_excursions():
    for seed in range(25):
        cfg, clocks, path = random_path(seed)
        forest, _ = breadth_first_forest(cfg, clocks, path.q)
        comp = {frozenset(e.vertices) for e in decompose(path).excursions}
        assert set(forest.components()) == comp
        assert sorted(v for c in forest.components() for v in c) == list(range(len(cfg)))


def test_forest_edges_and_birth():
    cfg, clocks, path = random_path(6)
    forest, _ = breadth_first_forest(cfg, clocks, path.q)
    for child, par in forest.edges():
        assert forest.parent[child] == par


# -- one window test ----------------------------------------------------------
# The loops below are the walk's earlier formulation: prefix masses without
# the leading zero, every reader branching on rank 0, and decompose keeping
# its own trough minimum.  The single column from zero must give their bytes.


def reference_cummass(path):
    acc, out = 0.0, []
    for s in path.jump_sizes:
        acc += s
        out.append(acc)
    return out


def reference_troughs(path):
    """cummass[r-1] - t_r per rank r, the walk just before its jump."""
    cm = reference_cummass(path)
    return [(cm[r - 1] if r else 0.0) - t for r, t in enumerate(path.jump_times)]


def reference_trough_mins(path):
    """Running min over r of the troughs, floored at 0."""
    best, out = 0.0, []
    for trough in reference_troughs(path):
        if trough < best:
            best = trough
        out.append(best)
    return out


def reference_eval_B(path, s):
    """The walk z at s less its running minimum over [0, s]."""
    idx = bisect.bisect_right(path.jump_times, s)
    z = (reference_cummass(path)[idx - 1] if idx else 0.0) - s
    return z - min(reference_trough_mins(path)[idx - 1] if idx else 0.0, z)


def reference_decompose(path):
    """(start, end, rank_lo, rank_hi, vertices, mass) per excursion."""
    times, cm, n = path.jump_times, reference_cummass(path), len(path)
    roots = [0]
    best_trough = -times[0]
    for r in range(1, n):
        trough = cm[r - 1] - times[r]
        if trough < best_trough:
            best_trough = trough
            roots.append(r)
    out = []
    for i, lo in enumerate(roots):
        hi = (roots[i + 1] - 1) if i + 1 < len(roots) else n - 1
        mass = cm[hi] - (cm[lo - 1] if lo else 0.0)
        out.append((times[lo], times[lo] + mass, lo, hi, tuple(path.perm[lo : hi + 1]), mass))
    return out


@settings(deadline=None, max_examples=150)
@given(*domain(max_n=40, max_ties=6), st.floats(-12.0, 12.0))
def test_cum_and_troughs_give_the_old_loops_bytes(exponents, equal, seed, ties, log_q):
    """The shared domain at q up to 1e12 over sigma2: cum is (0.0, *cummass),
    troughs the rank-wise troughs and trough_mins (0.0, *their running
    mins), bit for bit; eval_B at 0, at every jump, between jumps and past
    the end, and decompose's excursions are the old loops' bytes."""
    cfg, clocks = domain_instance(exponents, equal, seed, ties)
    q = 10.0**log_q / math.fsum(m * m for m in cfg.masses)
    path = WalkPath.from_clocks(cfg, clocks, q)
    assert repr(path.cum) == repr((0.0, *reference_cummass(path)))
    assert repr(path.troughs) == repr(tuple(reference_troughs(path)))
    assert repr(path.trough_mins) == repr((0.0, *reference_trough_mins(path)))
    times = path.jump_times
    mids = [(a + b) / 2.0 for a, b in zip(times, times[1:])]
    for s in (0.0, *times, *mids, times[-1] + path.cum[-1]):
        assert repr(path.eval_B(s)) == repr(reference_eval_B(path, s))
    got = [
        (e.start, e.end, e.rank_lo, e.rank_hi, e.vertices, e.mass)
        for e in decompose(path).excursions
    ]
    assert repr(got) == repr(reference_decompose(path))


def window_end_instance(exponents, equal, seed, ties, log_q, moves):
    """A domain instance at a power-of-two level (xi / q is then exact),
    with clocks moved one at a time onto the end of a listening window: for
    each (i, l), the vertex at rank l > i jumps where the window of rank i
    ends, t_root + (cum[i + 1] - cum[root]), as the summed masses round."""
    cfg, clocks = domain_instance(exponents, equal, seed, ties)
    q = 2.0 ** round(log_q - math.log2(math.fsum(m * m for m in cfg.masses)))
    xi = list(clocks.xi)
    for a, b in moves:
        i, l = sorted((a % len(xi), b % len(xi)))
        if i == l:
            continue
        path = WalkPath.from_clocks(cfg, ClockAssignment.from_xi(xi), q)
        root = decompose(path).excursion_of_rank(i).rank_lo
        end = path.jump_times[root] + (path.cum[i + 1] - path.cum[root])
        xi[path.perm[l]] = q * end
    return cfg, ClockAssignment.from_xi(xi), q


def assert_one_window_test(cfg, clocks, q):
    """Forest trees are decompose's excursions, carried masses are the
    excursion masses bit for bit, and each rank's influence region (and
    draw-plan row) is the later ranks the forest hangs on an earlier rank."""
    path = WalkPath.from_clocks(cfg, clocks, q)
    dec = decompose(path)
    forest, carried = breadth_first_forest(cfg, clocks, q)
    assert forest.components() == [frozenset(e.vertices) for e in dec.excursions]
    assert repr(carried) == repr(tuple(e.mass for e in dec.excursions))
    rank = {v: r for r, v in enumerate(path.perm)}
    hung = [None if p is None else rank[p] for p in map(forest.parent.__getitem__, path.perm)]
    rows = []
    for h in range(len(path)):
        want = [l for l in range(h + 1, len(path)) if hung[l] is not None and hung[l] < h]
        region = influence_region(path, dec, forest, h)
        assert list(region.ranks()) == want
        rows += [(h + 1, region.end)] if want else []
    los, ends, _ = _draw_plan(path, dec, forest)
    assert list(zip(los, ends)) == rows


def test_forest_lists_trees_in_the_order_of_the_carried_masses():
    """The heavier vertex 1 jumps first, so its tree is listed first, with
    its own mass: trees come in rank order, not by root label."""
    cfg = WeightedConfig((1.0, 2.0))
    clocks = ClockAssignment.from_xi((3.0, 0.088))
    forest, carried = breadth_first_forest(cfg, clocks, 1.0)
    assert forest.roots == (1, 0)
    assert list(zip(forest.components(), carried)) == [({1}, 2.0), ({0}, 1.0)]
    assert_one_window_test(cfg, clocks, 1.0)


def test_window_end_example_forest_matches_excursions():
    """A light rank at the end of its root's window after a heavy one: the
    forest, the excursions and the regions read the same rounding of it."""
    cfg = WeightedConfig((1e4, 0.103, 0.074))
    clocks = ClockAssignment.from_xi((1.0, 40000.0, 40000.103))
    assert_one_window_test(cfg, clocks, 1.0)
    assert len(decompose(WalkPath.from_clocks(cfg, clocks, 1.0)).excursions) == 3


@settings(deadline=None, max_examples=300)
@given(
    *domain(max_n=30, max_ties=4),
    st.floats(-3.0, 3.0),
    st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=8),
)
def test_one_window_test_on_window_ends(exponents, equal, seed, ties, log_q, moves):
    """The shared domain at a power-of-two q with q sigma2 within a factor
    sqrt(2) of 2**U(-3, 3), with clocks moved onto window ends, where
    one-by-one window sums, trough comparisons and bisections on a window
    end round apart."""
    assert_one_window_test(*window_end_instance(exponents, equal, seed, ties, log_q, moves))


# -- areas --------------------------------------------------------------------


def test_area_hand_value():
    path = make_path([1.0, 1.0], [0.5, 0.9], q=1.0)
    assert area_under_reflection(path, 0.0, 0.5) == pytest.approx(0.0)
    assert area_under_reflection(path, 0.5, 0.9) == pytest.approx(0.32)
    assert area_under_reflection(path, 0.0, 2.5) == pytest.approx(1.6)
    # B is flat zero beyond the last excursion
    assert area_under_reflection(path, 0.0, 10.0) == pytest.approx(1.6)
    assert area_under_reflection(path, 0.0, math.inf) == pytest.approx(1.6)
    with pytest.raises(ValueError):
        area_under_reflection(path, 1.0, 0.5)


def test_area_against_grid_quadrature():
    for seed in range(10):
        _, _, path = random_path(seed)
        end = path.jump_times[-1] + sum(path.jump_sizes)
        grid = np.linspace(0.0, end, 20001)
        vals = np.array([path.eval_B(float(s)) for s in grid])
        trapz = getattr(np, "trapezoid", None) or np.trapz
        approx = trapz(vals, grid)
        exact = area_under_reflection(path, 0.0, end)
        assert abs(approx - exact) < 2e-3 * max(1.0, exact)


def test_area_splits_over_excursions():
    _, _, path = random_path(9)
    dec = decompose(path)
    total = area_under_reflection(path, 0.0, dec.excursions[-1].end)
    per = sum(area_under_reflection(path, e.start, e.end) for e in dec.excursions)
    assert total == pytest.approx(per, rel=1e-12)


# -- bulk kernel --------------------------------------------------------------


def test_bulk_matches_direct_loop_exactly():
    """Replay the kernel's clocks through the scalar pipeline."""
    n, mass, q, reps = 30, 1.0, 0.04, 200
    exp = RngStream(5).named("bulk").generator().exponential(size=(reps, n))
    out = component_stats(exp, mass, q, want_areas=True)

    xi = exp / mass
    cfg = WeightedConfig((mass,) * n)
    for i in range(reps):
        clocks = ClockAssignment.from_xi(tuple(xi[i]))
        path = WalkPath.from_clocks(cfg, clocks, q)
        sizes = sorted((e.mass for e in decompose(path).excursions), reverse=True)
        assert out["largest"][i] == pytest.approx(sizes[0], abs=1e-9)
        second = sizes[1] if len(sizes) > 1 else 0.0
        assert out["second"][i] == pytest.approx(second, abs=1e-9)
        # the max size may be tied; the largest is the earliest tied component
        excs = decompose(path).excursions
        top = next(e for e in excs if abs(e.mass - sizes[0]) < 1e-9)
        area = area_under_reflection(path, top.start, top.end)
        assert abs(out["largest_area"][i] - area) < 1e-9


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
def test_bulk_unequal_masses_match_direct_loop(scale):
    """Replay the kernel's clocks for unequal masses through the scalar
    pipeline; tolerances scale with the total mass."""
    n, reps = 25, 200
    masses = scale * RngStream(6).named("bulk-w-masses").generator().uniform(0.2, 3.0, n)
    cfg = WeightedConfig(tuple(masses))
    q = 1.5 / float(np.sum(masses**2))
    total = math.fsum(cfg.masses)
    exp = RngStream(6).named("bulk-w").generator().exponential(size=(reps, n))
    out = component_stats(exp, masses, q, want_areas=True)

    xi = exp / masses
    for i in range(reps):
        path = WalkPath.from_clocks(cfg, ClockAssignment.from_xi(tuple(xi[i])), q)
        excs = decompose(path).excursions
        sizes = sorted((e.mass for e in excs), reverse=True)
        assert out["largest"][i] == pytest.approx(sizes[0], rel=0, abs=1e-12 * total)
        second = sizes[1] if len(sizes) > 1 else 0.0
        assert out["second"][i] == pytest.approx(second, rel=0, abs=1e-12 * total)
        top = next(e for e in excs if abs(e.mass - sizes[0]) <= 1e-12 * total)
        area = area_under_reflection(path, top.start, top.end)
        assert abs(out["largest_area"][i] - area) <= 1e-12 * total**2


def test_bulk_law_agrees_with_scalar_sampling():
    """Independent streams, same law: largest-size histograms are homogeneous."""
    n, mass, q, reps = 25, 1.0, 0.05, 3000
    exp = RngStream(17).named("bulk-law").generator().exponential(size=(reps, n))
    bulk = component_stats(exp, mass, q)
    bulk_counts = {}
    for v in np.rint(bulk["largest"] / mass).astype(int):
        bulk_counts[int(v)] = bulk_counts.get(int(v), 0) + 1

    cfg = WeightedConfig((mass,) * n)
    root = RngStream(91).named("scalar-law")
    scalar_counts = {}
    for k in range(reps):
        clocks = sample_clocks(cfg, root.indexed(k))
        path = WalkPath.from_clocks(cfg, clocks, q)
        big = max(len(e.vertices) for e in decompose(path).excursions)
        scalar_counts[big] = scalar_counts.get(big, 0) + 1

    support = sorted(set(bulk_counts) | set(scalar_counts))
    res = chi_square_homogeneity(
        [bulk_counts.get(s, 0) for s in support],
        [scalar_counts.get(s, 0) for s in support],
    )
    assert not res.rejects(), f"largest-size laws differ: p={res.p_value:.5f}"


def reference_component_stats(exp, mass, q, want_areas=False):
    """The kernel as a loop over rows: each row's blocks from its root flags,
    ranked by a stable sort on size, so that the largest of tied blocks is
    the earliest in rank order."""
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
    t /= q
    trough = cm[:, :-1] - t
    run = np.minimum.accumulate(trough, axis=1)
    is_root = np.empty(t.shape, dtype=bool)
    is_root[:, 0] = True
    np.less(trough[:, 1:], run[:, :-1], out=is_root[:, 1:])

    largest = np.empty(rows)
    second = np.empty(rows)
    area = np.empty(rows)
    for i in range(rows):
        roots = np.flatnonzero(is_root[i])
        bounds = np.append(roots, n)
        sizes = np.diff(bounds) * m if equal else np.diff(cm[i, bounds])
        order = np.argsort(-sizes, kind="stable")  # largest first, earliest first on ties
        largest[i] = sizes[order[0]]
        second[i] = sizes[order[1]] if len(sizes) > 1 else 0.0
        k, k_end = roots[order[0]], bounds[order[0] + 1]
        ti = t[i, k:k_end]
        cm_local = cm[i, k + 1 : k_end + 1] - cm[i, k]
        bvals = cm_local - (ti - ti[0])  # B right after each jump
        seg = np.append(ti[1:], ti[0] + cm_local[-1]) - ti
        area[i] = float(np.sum(bvals * seg - seg * seg / 2.0))
    result = {"largest": largest, "second": second}
    if want_areas:
        result["largest_area"] = area
    return result


@settings(deadline=None, max_examples=300)
@given(
    st.integers(1, 40),
    st.integers(1, 60),
    st.booleans(),
    st.floats(-6.0, 6.0),
    st.floats(-2.0, 1.5),
    st.integers(0, 2**32 - 1),
)
def test_component_stats_matches_the_row_loop(rows, n, equal, log_mass, log_q, seed):
    """Rows 1..40, n 1..60, one common mass (exact ties are frequent) or n
    masses 10**U(-6, 6), q sigma2 in 10**U(-2, 1.5): the top two are the row
    loop's bit for bit, with or without areas, and the largest block's area
    is the earliest tied block's, to 1e-12 of the squared total mass."""
    gen = np.random.default_rng(seed)
    exp = gen.exponential(size=(rows, n))
    mass = 10.0**log_mass if equal else 10.0 ** gen.uniform(-6.0, 6.0, n)
    total = n * mass if equal else math.fsum(mass)
    q = 10.0**log_q / (n * mass * mass if equal else float(np.sum(mass * mass)))
    ref = reference_component_stats(exp, mass, q, want_areas=True)
    got = component_stats(exp, mass, q, want_areas=True)
    plain = component_stats(exp, mass, q)
    for key in ("largest", "second"):
        assert got[key].tobytes() == ref[key].tobytes()
        assert plain[key].tobytes() == ref[key].tobytes()
    assert np.all(np.abs(got["largest_area"] - ref["largest_area"]) <= 1e-12 * total**2)


@pytest.mark.parametrize("mass", [1.5, np.full(4, 1.5)])
def test_component_stats_of_no_rows_is_empty(mass):
    """Zero replications give empty statistics, as the row loop did."""
    out = component_stats(np.empty((0, 4)), mass, 1.0, want_areas=True)
    assert {k: v.shape for k, v in out.items()} == {
        "largest": (0,), "second": (0,), "largest_area": (0,)
    }


@pytest.mark.parametrize(
    "exp, mass, q, match",
    [
        (np.ones((2, 3)), 1.0, 0.0, "q must be"),
        (np.ones((2, 3)), 1.0, -1.0, "q must be"),
        (np.ones((2, 3)), 1.0, math.inf, "q must be"),
        (np.ones((2, 3)), 1.0, math.nan, "q must be"),
        (np.ones((2, 3)), 0.0, 1.0, "masses must be"),
        (np.ones((2, 3)), [1.0, math.inf, 1.0], 1.0, "masses must be"),
        (np.ones((2, 3)), [1.0, 1.0], 1.0, "n masses"),
        (np.ones((2, 0)), 1.0, 1.0, "n >= 1 columns"),
    ],
    ids=["q-zero", "q-negative", "q-inf", "q-nan", "mass-zero", "mass-inf", "mass-length",
         "no-columns"],
)
def test_component_stats_rejects_inputs_it_cannot_read(exp, mass, q, match):
    """A level or a mass that is not finite and > 0, a mass vector of the
    wrong length or no columns raise a ValueError that names the input,
    instead of a warning, a numpy error or a silent answer."""
    with pytest.raises(ValueError, match=match):
        component_stats(exp, mass, q)


@pytest.mark.parametrize("want_areas", [False, True])
@pytest.mark.parametrize("q_sigma2", [0.1, 1.0])
def test_component_stats_peak_memory_stays_within_its_chunk_budget(q_sigma2, want_areas):
    """One chunk of criterion 9's shape (chunk_rows' first chunk at n = 1e4,
    a common mass): the tracemalloc peak of one call stays within 3.5 chunk
    blocks.  The row loop read 3.12; flat per-root arrays kept beside the
    troughs read 5.04 at q sigma2 = 0.1, where most ranks are roots."""
    n = 10_000
    rows = chunk_rows(10_000, n)[0]
    exp = RngStream(8).named("peak").generator().exponential(size=(rows, n))
    mass = n ** (-2.0 / 3.0)
    tracemalloc.start()
    try:
        component_stats(exp, mass, q_sigma2 / (n * mass * mass), want_areas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * _CHUNK_BYTES
