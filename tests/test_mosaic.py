"""Ornamented excursions: building, validity rules, orders, replay, slices."""

import dataclasses
import gc
import math
import weakref

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import domain, domain_instance
from mcmosaic.core import ClockAssignment, RngStream, WeightedConfig, sample_clocks
from mcmosaic.dynamics import _Level, run_trajectory
from mcmosaic.mosaic import (
    OrnamentedExcursion,
    Parallelogram,
    Slice,
    build_mosaic,
    orders,
    replay,
    same_shape,
    slice_decomposition,
    validate,
)
from mcmosaic.render import render_svg
from mcmosaic.surplus import activated_processes, dynamic_surplus
from mcmosaic.walk import WalkPath, area_under_reflection, decompose

UNIT4 = (1.0, 1.0, 1.0, 1.0)


def random_trajectory(seed, n_max=8):
    gen = RngStream(seed).named("mos-tests").generator()
    n = int(gen.integers(2, n_max + 1))
    cfg = WeightedConfig(tuple(gen.uniform(0.5, 2.0, n)))
    q = float(gen.uniform(0.2, 3.0))
    clocks = sample_clocks(cfg, RngStream(seed).named("mos-tests").named("clocks"))
    return run_trajectory(cfg, clocks, RngStream(seed), q), q


# -- building -----------------------------------------------------------------


def test_build_one_excursion_per_component():
    for seed in range(30):
        traj, q = random_trajectory(seed)
        mosaic = build_mosaic(traj, q)
        path = WalkPath.from_clocks(traj.config, traj.clocks, q)
        dec = decompose(path)
        assert len(mosaic) == len(dec.excursions)
        for fx, e in zip(mosaic, dec.excursions):
            assert (fx.rank_lo, fx.rank_hi) == (e.rank_lo, e.rank_hi)
            assert fx.vertices == e.vertices
            assert fx.positions == path.jump_times[e.rank_lo : e.rank_hi + 1]


def test_build_rejects_bad_q():
    traj, q = random_trajectory(0)
    with pytest.raises(ValueError):
        build_mosaic(traj, 0.0)
    with pytest.raises(ValueError):
        build_mosaic(traj, q * 1.5)


def test_build_levels_and_statuses():
    """Root baseline is active at the excursion floor; each level is the
    walk value just below that rank's jump, its trough."""
    for seed in range(20):
        traj, q = random_trajectory(seed)
        path = WalkPath.from_clocks(traj.config, traj.clocks, q)
        for fx in build_mosaic(traj, q):
            root = fx.baselines[0]
            assert root.status == "active"
            assert all(b.status == "gray" for b in fx.baselines[1:])
            assert fx.floor == root.level
            for b in fx.baselines:
                assert b.level == path.troughs[b.owner_rank]
            for b in fx.baselines[1:]:
                # reflected height of the baseline above the floor, the
                # running minimum of the troughs before it
                r = b.owner_rank
                assert b.level - fx.floor == pytest.approx(
                    path.troughs[r] - path.trough_mins[r], abs=1e-9
                )


def test_build_extent_is_sub_excursion_reach():
    """A baseline's piece runs from its jump to the end of the maximal run
    of later ranks entered by the stepwise window condition."""
    for seed in range(25):
        traj, q = random_trajectory(seed)
        path = WalkPath.from_clocks(traj.config, traj.clocks, q)
        pos, sizes = path.jump_times, path.jump_sizes
        for fx in build_mosaic(traj, q):
            for b in fx.baselines:
                j = b.owner_rank
                m = j
                acc = sizes[j]
                while m < fx.rank_hi and pos[m + 1] - pos[j] <= acc:
                    m += 1
                    acc += sizes[m]
                assert tuple(b.covers) == tuple(range(j + 1, m + 1))
                (a0, a1) = b.pieces[0]
                assert a0 == pos[j]
                assert a1 == pytest.approx(pos[j] + acc, rel=1e-12)


def test_built_mosaics_validate_clean():
    for seed in range(40):
        traj, q = random_trajectory(seed)
        for fx in build_mosaic(traj, q):
            assert validate(fx) == []


# -- validity rules -----------------------------------------------------------


def test_validate_r1_duplicate_levels():
    fx = build_mosaic(*random_trajectory(2))[0]
    if len(fx) < 2:
        fx = next(f for f in build_mosaic(*random_trajectory(4)) if len(f) >= 2)
    twin = fx.baselines[1]._replace(level=fx.baselines[0].level)
    bad = fx._replace(baselines=(fx.baselines[0], twin) + fx.baselines[2:])
    assert any(p.startswith("R1") for p in validate(bad))


def test_validate_r2_split_extent():
    cfg = WeightedConfig((1.0, 1.0))
    from mcmosaic.core import ClockAssignment

    clocks = ClockAssignment.from_xi((0.5, 1.0))
    traj = run_trajectory(cfg, clocks, RngStream(0), 2.0)
    fx = build_mosaic(traj, 2.0)[0]
    assert len(fx) == 2
    (a0, a1) = fx.baselines[1].pieces[0]
    mid = (a0 + a1) / 2.0
    split = fx.baselines[1]._replace(pieces=((a0, mid - 0.05), (mid + 0.05, a1)))
    bad = fx._replace(baselines=(fx.baselines[0], split))
    msgs = validate(bad)
    assert any(p.startswith("R2") for p in msgs)


def test_validate_r2_detached_extent():
    fx = next(f for f in build_mosaic(*random_trajectory(4)) if len(f) >= 2)
    (a0, a1) = fx.baselines[1].pieces[0]
    shifted = fx.baselines[1]._replace(pieces=((a0 + 0.1, a1 + 0.1),))
    bad = fx._replace(baselines=(fx.baselines[0], shifted) + fx.baselines[2:])
    assert any(p.startswith("R2") for p in validate(bad))


def test_validate_r3_gap():
    # rank 1 claims to reach rank 3 while skipping rank 2
    fx = OrnamentedExcursion.from_covers(UNIT4, {1: (3,)})
    assert any(p.startswith("R3") for p in validate(fx))


def test_validate_r3_interleaving():
    # ranks 1 and 2 both reach rank 3, but 2 is not inside 1's reach
    fx = OrnamentedExcursion.from_covers(UNIT4, {1: (2, 3), 2: (3,), 0: (1, 2, 3)})
    ok = validate(fx)
    assert ok == []  # nested: fine
    fx2 = OrnamentedExcursion.from_covers((1.0, 1.0, 1.0), {1: (2,), 0: (1,)})
    # root reaches 1 only, but rank 1 reaches rank 2 outside the root's span
    assert any("laminar" in p for p in validate(fx2))


# -- orders -------------------------------------------------------------------

ORDER_FIXTURES = [
    ({}, (3, 2, 1)),
    ({2: (3,)}, (2, 1, 3)),
    ({1: (2,)}, (3, 1, 2)),
    ({1: (2, 3)}, (1, 3, 2)),
    ({1: (2, 3), 2: (3,)}, (1, 2, 3)),
]


@pytest.mark.parametrize("covers,want", ORDER_FIXTURES)
def test_order_fixtures(covers, want):
    fx = OrnamentedExcursion.from_covers(UNIT4, covers)
    od = orders(fx)
    assert od.sequence == want
    assert od.coalescence_order() == tuple(reversed(want))
    assert od.root_rank == 0


def test_orders_parent_and_generation():
    fx = OrnamentedExcursion.from_covers(UNIT4, {1: (2, 3), 2: (3,)})
    od = orders(fx)
    assert dict(od.parents) == {1: 0, 2: 1, 3: 2}  # innermost holder wins
    gens = dict(od.generations)
    assert gens == {0: 0, 1: 1, 2: 2, 3: 3}


def test_from_covers_rejects_unknown_ranks():
    """A cover key outside 0..n-1 names no rank: it raises instead of being
    dropped (which left validate with nothing to report)."""
    for key in (-1, 3, 7):
        with pytest.raises(ValueError, match="cover keys"):
            OrnamentedExcursion.from_covers((1.0, 1.0, 1.0), {key: (key + 1,)})


@pytest.mark.parametrize("masses,q,match", [
    ((), 1.0, "non-empty"),
    ((1.0, -1.0), 1.0, "masses must be finite and > 0"),
    ((1.0, math.nan), 1.0, "masses must be finite and > 0"),
    (UNIT4, 0.0, "q must be finite and > 0"),
    (UNIT4, -1.0, "q must be finite and > 0"),
    (UNIT4, math.nan, "q must be finite and > 0"),
], ids=["no-masses", "negative-mass", "nan-mass", "zero-q", "negative-q", "nan-q"])
def test_from_covers_rejects_inputs_no_excursion_has(masses, q, match):
    """No ranks, a mass or a q that is not finite and > 0 raise at once,
    naming the input, instead of passing validate and orders."""
    with pytest.raises(ValueError, match=match):
        OrnamentedExcursion.from_covers(masses, {}, q)


def test_orders_rejects_invalid():
    fx = OrnamentedExcursion.from_covers(UNIT4, {1: (3,)})
    with pytest.raises(ValueError):
        orders(fx)


def test_orders_generations_follow_hasse_parents():
    """Generation is one more than the parent's, parents are innermost
    holders, and the root opens generation zero."""
    for seed in range(20):
        traj, q = random_trajectory(seed)
        for fx in build_mosaic(traj, q):
            if len(fx) < 2:
                continue
            od = orders(fx)
            gens = dict(od.generations)
            assert gens[od.root_rank] == 0
            cover = {b.owner_rank: set(b.covers) for b in fx.baselines}
            for r, p in od.parents:
                assert gens[r] == gens[p] + 1
                holders = [j for j in cover if j < r and r in cover[j]]
                assert p == max(holders)


# -- replay -------------------------------------------------------------------


def test_replay_round_trip_geometric():
    for seed in range(40):
        traj, q = random_trajectory(seed)
        for fx in build_mosaic(traj, q):
            back = replay(fx)
            rebuilt = build_mosaic(back, q)
            assert len(rebuilt) == 1
            assert same_shape(fx, rebuilt[0])


def test_replay_combinatorial_reproduces_covers():
    for covers, _want in ORDER_FIXTURES:
        fx = OrnamentedExcursion.from_covers(UNIT4, covers)
        traj = replay(fx)
        rebuilt = build_mosaic(traj, fx.q)
        assert len(rebuilt) == 1
        got = {b.owner_rank: tuple(b.covers) for b in rebuilt[0].baselines}
        want_cover = {b.owner_rank: tuple(b.covers) for b in fx.baselines}
        assert got == want_cover


def test_replay_merger_order_is_reversed_listing():
    for covers, want in ORDER_FIXTURES:
        fx = OrnamentedExcursion.from_covers(UNIT4, covers)
        traj = replay(fx)
        got = tuple(ev.right.lo for ev in traj.events)
        assert got == tuple(reversed(want))


def test_replay_rejects_invalid():
    with pytest.raises(ValueError):
        replay(OrnamentedExcursion.from_covers(UNIT4, {1: (3,)}))


def test_same_shape_detects_mass_change():
    traj, q = random_trajectory(7)
    fx = build_mosaic(traj, q)[0]
    other = fx._replace(masses=tuple(m * 1.01 for m in fx.masses))
    assert not same_shape(fx, other)
    assert same_shape(fx, fx)


def test_same_shape_compares_reach_sets_as_sequences():
    """A reach shifted by one rank differs; the same ranks as a tuple match."""
    fx = next(
        f for seed in range(50) for f in build_mosaic(*random_trajectory(seed))
        if len(f) >= 3 and f.baselines[1].covers
    )
    b = fx.baselines[1]
    for covers, same in (
        (range(b.covers.start + 1, b.covers.stop + 1), False),
        (tuple(b.covers), True),
        (tuple(b.covers) + (fx.rank_hi + 1,), False),
    ):
        other = fx._replace(baselines=(fx.baselines[0], b._replace(covers=covers)) + fx.baselines[2:])
        assert same_shape(fx, other) is same
        assert same_shape(other, fx) is same


# -- slices -------------------------------------------------------------------


def test_slice_count_and_triangles():
    for seed in range(20):
        traj, q = random_trajectory(seed)
        slices = slice_decomposition(traj, q)
        path = WalkPath.from_clocks(traj.config, traj.clocks, q)
        assert len(slices) == len(path)
        for s in slices:
            assert s.triangle_area == pytest.approx(s.base_mass**2 / 2.0)
            assert s.intercept_hi - s.intercept_lo == pytest.approx(
                s.base_mass, rel=1e-12
            )


def test_slice_parallelogram_count_matches_events():
    """Each absorption event contributes one parallelogram per source rank
    of the absorbed block."""
    for seed in range(20):
        traj, q = random_trajectory(seed)
        slices = slice_decomposition(traj, q)
        got = sum(len(s.parallelograms) for s in slices)
        want = sum(len(ev.right) for ev in traj.events if ev.time <= q)
        assert got == want


def test_slice_height_formula_example():
    """Absorbed mass 2 at activation 1.25 with horizon 2.5 leaves half the
    band: height 2 * (1 - 1.25/2.5) = 1."""
    found = False
    for seed in range(200):
        traj, q = random_trajectory(seed)
        for s in slice_decomposition(traj, q):
            for p in s.parallelograms:
                assert p.height == pytest.approx(
                    p.absorbed_mass * (1.0 - p.activation / q), rel=1e-12
                )
                assert p.area == pytest.approx(p.height * s.base_mass, rel=1e-12)
                found = True
    assert found
    # the arithmetic pin from the docstring
    assert 2.0 * (1.0 - 1.25 / 2.5) == pytest.approx(1.0)


def test_slices_tile_area_under_reflection():
    """Summed slice areas per component equal the exact integral of the
    reflected walk over that component's excursion."""
    for seed in range(30):
        traj, q = random_trajectory(seed)
        path = WalkPath.from_clocks(traj.config, traj.clocks, q)
        slices = slice_decomposition(traj, q)
        by_rank = {s.owner_rank: s for s in slices}
        for e in decompose(path).excursions:
            total = math.fsum(
                by_rank[r].area() for r in range(e.rank_lo, e.rank_hi + 1)
            )
            exact = area_under_reflection(path, e.start, e.end)
            assert abs(total - exact) < 1e-9


def test_slice_top_owner_is_absorbed_root():
    """The top of each parallelogram lies on the baseline of the root of the
    block being absorbed, and the stack walks downward without gaps."""
    for seed in range(25):
        traj, q = random_trajectory(seed)
        slices = {s.owner_rank: s for s in slice_decomposition(traj, q)}
        per_rank_events = {}
        for ev in traj.events:
            if ev.time > q:
                continue
            for l in ev.right.ranks():
                per_rank_events.setdefault(l, []).append(ev)
        for l, s in slices.items():
            events = per_rank_events.get(l, [])
            assert len(s.parallelograms) == len(events)
            prev_top = s.base_level
            for p, ev in zip(s.parallelograms, events):
                assert p.activation == ev.time
                assert p.top_level == pytest.approx(slices[ev.right.lo].base_level, abs=1e-9)
                assert p.top_level == pytest.approx(prev_top, abs=1e-9)
                prev_top = p.top_level - p.height


def test_slice_rejects_bad_q():
    traj, q = random_trajectory(3)
    with pytest.raises(ValueError):
        slice_decomposition(traj, q * 2.0)


# -- one geometry per (trajectory, q), slices as named tuples -----------------


def mosaic_outputs(traj, q):
    return (
        [exc.baselines for exc in build_mosaic(traj, q)],
        slice_decomposition(traj, q),
        render_svg(traj, q, shade_slices=True),
    )


def test_geometry_memo_gives_the_outputs_of_a_fresh_trajectory():
    """Calls at q1, q2, q1 on one trajectory give what each call gives on a
    copy without a memo; calls at one q share one geometry."""
    for seed in range(12):
        traj, q = random_trajectory(seed)
        for at in (q, q / 3.0, q):
            assert mosaic_outputs(traj, at) == mosaic_outputs(dataclasses.replace(traj), at)
            assert _Level.of(traj, at) is _Level.of(traj, at)


def test_level_view_builds_one_walk(monkeypatch):
    """Both dynamic surplus variants, the mosaic, the slices and the shaded
    SVG at one q build one walk between them, the level view's, and it is
    the walk a fresh WalkPath.from_clocks gives, bit for bit."""
    traj, q = random_trajectory(3)
    assert traj.events
    fresh = WalkPath.from_clocks(traj.config, traj.clocks, q)
    build, calls = WalkPath.from_clocks.__func__, []

    def counted(cls, *args):
        calls.append(args)
        return build(cls, *args)

    monkeypatch.setattr(WalkPath, "from_clocks", classmethod(counted))
    for variant in ("simple", "multigraph"):
        dynamic_surplus(traj, RngStream(0), q, variant)
    mosaic_outputs(traj, q)
    assert len(calls) == 1
    walk = _Level.of(traj, q).walk
    for column in ("jump_times", "cum", "troughs"):
        assert repr(getattr(walk, column)) == repr(getattr(fresh, column))


def test_geometry_memo_still_rejects_bad_q():
    traj, q = random_trajectory(4)
    mosaic_outputs(traj, q)
    for bad in (0.0, -q, q * 1.5, math.nan):
        for call in (build_mosaic, slice_decomposition, render_svg):
            with pytest.raises(ValueError):
                call(traj, bad)


def test_geometry_memo_makes_no_reference_cycle():
    """With the collector off, the trajectory dies with its last reference."""
    traj, q = random_trajectory(5)
    gc.disable()
    try:
        mosaic_outputs(traj, q)
        ref = weakref.ref(traj)
        del traj
        assert ref() is None
    finally:
        gc.enable()


def test_geometry_memo_is_not_part_of_the_record():
    traj, q = random_trajectory(6)
    twin = dataclasses.replace(traj)
    mosaic_outputs(traj, q)
    assert traj == twin
    assert repr(traj) == repr(twin)


def test_slice_and_parallelogram_record_contracts():
    """Field order as verify and perfbench read it, keyword construction, and
    area() as the triangle plus the fsum of the parallelogram areas."""
    assert Slice._fields == (
        "owner_rank", "position", "base_mass", "base_level", "triangle_area",
        "intercept_lo", "intercept_hi", "parallelograms",
    )
    assert Parallelogram._fields == (
        "activation", "absorbed_mass", "height", "area", "top_level",
    )
    paras = tuple(
        Parallelogram(activation=0.5, absorbed_mass=1.0, height=1.0, area=a, top_level=2.0)
        for a in (1e16, 1.0, -1e16)
    )
    sl = Slice(
        owner_rank=1, position=0.5, base_mass=1.0, base_level=2.0, triangle_area=0.5,
        intercept_lo=0.0, intercept_hi=1.0, parallelograms=paras,
    )
    assert sl == Slice(1, 0.5, 1.0, 2.0, 0.5, 0.0, 1.0, paras)
    assert sl.area() == 1.5  # a plain sum would lose the 1.0
    for s in slice_decomposition(*random_trajectory(7)):
        assert s.area() == s.triangle_area + math.fsum(p.area for p in s.parallelograms)


# -- tolerances scale with the masses -----------------------------------------


def scaled_trajectory(seed, scale):
    """random_trajectory's recipe with every mass times scale and q over
    scale**2, so the walk is the same picture at another mass scale."""
    gen = RngStream(seed).named("mos-scale").generator()
    n = int(gen.integers(2, 11))
    cfg = WeightedConfig(tuple(float(m) * scale for m in gen.uniform(0.5, 2.0, n)))
    q = float(gen.uniform(0.2, 3.0)) / scale**2
    clocks = sample_clocks(cfg, RngStream(seed).named("mos-scale").named("clocks"))
    return run_trajectory(cfg, clocks, RngStream(seed), q), q


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e7])
def test_mosaic_checks_hold_at_any_mass_scale(scale):
    for seed in range(40):
        traj, q = scaled_trajectory(seed, scale)
        slice_decomposition(traj, q)  # raises if a slice top misses its baseline
        for exc in build_mosaic(traj, q):
            assert validate(exc) == []
            rebuilt = build_mosaic(replay(exc), exc.q)
            assert len(rebuilt) == 1 and same_shape(exc, rebuilt[0])


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e7])
def test_same_shape_tolerance_is_relative(scale):
    traj, q = scaled_trajectory(7, scale)
    fx = build_mosaic(traj, q)[0]
    other = fx._replace(masses=tuple(m * (1 + 1e-9) for m in fx.masses))
    assert same_shape(fx, fx)
    assert not same_shape(fx, other)


@pytest.mark.parametrize("scale", [1e-6, 1.0, 1e7])
def test_slice_top_moved_by_a_millionth_of_the_block_raises(scale):
    """Shift the first of two absorptions of a rank so the height it leaves
    behind is off by 1e-6 of the block mass: the next top misses."""
    for seed in range(100):
        traj, q = scaled_trajectory(seed, scale)
        events = [ev for ev in traj.events if ev.time <= q]
        for i, ev in enumerate(events):
            if any(ev.right.lo in later.right.ranks() for later in events[i + 1 :]):
                break
        else:
            continue
        mass = next(b.mass for b in traj.blocks_at(q) if b.lo <= ev.right.lo <= b.hi)
        moved = ev._replace(time=ev.time - 1e-6 * mass * q / ev.left.mass)
        bad = dataclasses.replace(traj, events=tuple(events[:i] + [moved] + events[i + 1 :]))
        with pytest.raises(AssertionError, match="no baseline at slice top level"):
            slice_decomposition(bad, q)
        return
    pytest.fail("no rank absorbed twice")


# -- reach ends against the per-baseline walk ---------------------------------


def reference_reach_ends(path, lo, hi):
    """Last rank each baseline of block lo..hi reaches, one walk per baseline."""
    pos, cum = path.jump_times, path.cum

    def mass_between(j, m):
        return cum[m + 1] - cum[j]

    ends = []
    for j in range(lo, hi + 1):
        m = j
        while m < hi and pos[m + 1] - pos[j] <= mass_between(j, m):
            m += 1
        ends.append(m)
    return ends


@settings(deadline=None, max_examples=150)
@given(*domain(max_n=40, max_ties=6), st.floats(-3.0, 12.0), st.floats(0.0, 1.0))
def test_reach_stack_matches_per_baseline_walk(exponents, equal, seed, ties, log_q, fraction):
    """Masses log-uniform over 1e-6..1e6 (or all equal), n from 1, tied
    clocks, q from 1e-3 to 1e12 over sigma2 or at a positive event time: every
    baseline's reach ends where the per-baseline walk ends it."""
    cfg, clocks = domain_instance(exponents, equal, seed, ties)
    q = 10.0**log_q / math.fsum(m * m for m in cfg.masses)
    traj = run_trajectory(cfg, clocks, RngStream(seed), q)
    positive = [ev.time for ev in traj.events if ev.time > 0.0]  # ties merge at 0
    if fraction > 0.5 and positive:
        q = positive[int((fraction - 0.5) * 2 * (len(positive) - 1))]
    path = WalkPath.from_clocks(cfg, clocks, q)
    for exc in build_mosaic(traj, q):
        got = [b.covers[-1] if b.covers else b.owner_rank for b in exc.baselines]
        assert got == reference_reach_ends(path, exc.rank_lo, exc.rank_hi)


# -- interval reach sets against the pairwise set checks ----------------------


def pairwise_r3(excursion):
    """R3 as it was checked on reach sets: gap-free per baseline, then
    laminar over every pair of ranks, then every rank after the first held
    by an earlier rank's set."""
    problems = []
    cover = {b.owner_rank: frozenset(b.covers) for b in excursion.baselines}
    for b in excursion.baselines:
        if not b.covers:
            continue
        top = max(b.covers)
        missing = sorted(set(range(b.owner_rank + 1, top + 1)) - set(b.covers))
        if missing:
            problems.append(
                f"R3 (gap-free reach): baseline of rank {b.owner_rank} reaches "
                f"rank {top} but skips {missing}"
            )
    ranks = sorted(cover)
    for i, j in enumerate(ranks):
        for k in ranks[i + 1 :]:
            if k in cover[j]:
                if not cover[k] <= cover[j]:
                    extra = sorted(cover[k] - cover[j])
                    problems.append(
                        f"R3 (laminar reach): rank {j} reaches rank {k} but "
                        f"not {extra}, which rank {k} reaches"
                    )
            elif cover[j] & ({k} | cover[k]):
                problems.append(
                    f"R3 (laminar reach): reach sets of ranks {j} and {k} interleave"
                )
    lo = excursion.rank_lo
    for r in range(lo + 1, excursion.rank_hi + 1):
        if not any(r in cover.get(j, ()) for j in range(lo, r)):
            problems.append(f"R3 (reached rank): rank {r} is reached by no earlier baseline")
    return problems


def pairwise_hasse(excursion):
    """Parent of each rank as the largest earlier rank whose set holds it."""
    lo, hi = excursion.rank_lo, excursion.rank_hi
    cover = {b.owner_rank: frozenset(b.covers) for b in excursion.baselines}
    parent, gen = {}, {lo: 0}
    for r in range(lo + 1, hi + 1):
        holders = [j for j in range(lo, r) if r in cover.get(j, ())]
        if not holders:
            raise ValueError(f"rank {r} is reached by no earlier baseline")
        parent[r] = max(holders)
        gen[r] = gen[parent[r]] + 1
    return parent, gen


def _rule(message):
    return message.split(":")[0]


@st.composite
def cover_fixtures(draw):
    """Random laminar interval covers on n ranks, then optional breakage:
    gaps, ranks added out of order (interleaving), ends pushed past the
    enclosing interval (containment), ends past the last rank."""
    n = draw(st.integers(1, 12))
    ends = {0: draw(st.integers(0, n - 1)) if draw(st.booleans()) else n - 1}
    stack = [0]
    for r in range(1, n):
        while stack and ends[stack[-1]] < r:
            stack.pop()
        limit = ends[stack[-1]] if stack else n - 1
        ends[r] = r + draw(st.integers(0, limit - r)) if limit >= r else r
        stack.append(r)
    covers = {r: set(range(r + 1, e + 1)) for r, e in ends.items()}
    for kind, r, k in draw(st.lists(
        st.tuples(st.sampled_from(["gap", "add", "extend"]), st.integers(0, 11), st.integers(0, 13)),
        max_size=3,
    )):
        r %= n
        if kind == "gap" and covers[r]:
            covers[r].discard(sorted(covers[r])[k % len(covers[r])])
        elif kind == "add":
            covers[r].add(r + 1 + k % (n + 1))
        elif kind == "extend":
            covers[r] |= set(range(r + 1, r + 2 + k % (n + 1)))
    return OrnamentedExcursion.from_covers((1.0,) * n, {r: tuple(c) for r, c in covers.items()})


@settings(deadline=None, max_examples=2000)
@given(cover_fixtures())
def test_interval_checks_match_pairwise_sets(fx):
    """validate flags exactly the covers the pairwise check flags, with a
    subset of its messages (all of its rule names when every cover is an
    interval); orders' parents and generations equal the pairwise ones on
    valid covers, so an empty report means orders succeeds."""
    got, want = validate(fx), pairwise_r3(fx)
    assert bool(got) == bool(want)
    assert set(got) <= set(want)
    gap = "R3 (gap-free reach)"
    assert (gap in map(_rule, got)) == (gap in map(_rule, want))
    if gap not in map(_rule, want):
        assert set(map(_rule, got)) == set(map(_rule, want))
    if want:
        with pytest.raises(ValueError):
            orders(fx)
        return
    parent, gen = pairwise_hasse(fx)
    od = orders(fx)
    assert od.parents == tuple(sorted(parent.items()))
    assert od.generations == tuple(sorted(gen.items()))
    assert od.sequence == tuple(sorted(parent, key=lambda r: (gen[r], -r)))


def test_validate_rejects_a_reach_at_or_before_its_owner():
    """A baseline meets only later ranks' diagonals; the set check let a
    reach back to earlier ranks through when it had no gap."""
    fx = OrnamentedExcursion.from_covers((1.0, 1.0, 1.0), {2: (1,)})
    assert pairwise_r3(fx) == []
    assert [_rule(p) for p in validate(fx)] == ["R3 (gap-free reach)"]


def test_validate_reports_a_rank_no_baseline_reaches():
    """A root that reaches rank 1 only leaves rank 2 without a parent:
    validate says so, and orders and replay reject it by that report."""
    fx = OrnamentedExcursion.from_covers((1.0, 1.0, 1.0), {0: (1,)})
    assert validate(fx) == ["R3 (reached rank): rank 2 is reached by no earlier baseline"]
    for call in (orders, replay):
        with pytest.raises(ValueError, match="invalid ornamented excursion: R3"):
            call(fx)


def test_built_covers_are_ranges():
    traj, q = random_trajectory(3)
    for fx in build_mosaic(traj, q):
        for b in fx.baselines:
            assert isinstance(b.covers, range) and b.covers.start == b.owner_rank + 1


def spread_instance(exponents, equal, seed, ties, log_q):
    """The shared domain at q = 10**log_q / sigma2, with its trajectory."""
    cfg, clocks = domain_instance(exponents, equal, seed, ties)
    q = 10.0**log_q / math.fsum(m * m for m in cfg.masses)
    return cfg, clocks, run_trajectory(cfg, clocks, RngStream(seed), q), q


def round_trips(traj, q):
    for exc in build_mosaic(traj, q):
        assert validate(exc) == []
        rebuilt = build_mosaic(replay(exc), exc.q)
        assert len(rebuilt) == 1
        assert same_shape(exc, rebuilt[0])
        assert [tuple(b.covers) for b in rebuilt[0].baselines] == [
            tuple(r - exc.rank_lo for r in b.covers) for b in exc.baselines
        ]


@settings(deadline=None, max_examples=300)
@given(*domain(max_n=30, max_ties=4), st.floats(-3.0, 12.0))
def test_build_replay_build_round_trip(exponents, equal, seed, ties, log_q):
    """Masses log-uniform over 1e-6..1e6 (or all equal), n from 1, tied
    clocks, q from 1e-3 to 1e12 over sigma2: every built excursion is valid
    and replays to itself.  Two float limits are left out here and pinned
    by the xfail tests below: a jump below the rounding of its own
    position, and q exactly at a merger time.  A third, a jump below the
    rounding of its baseline's level, is pinned below but not left out."""
    cfg, clocks, traj, q = spread_instance(exponents, equal, seed, ties, log_q)
    path = WalkPath.from_clocks(cfg, clocks, q)
    assume(all(x + m > x for x, m in zip(path.jump_times, path.jump_sizes)))
    assume(all(ev.time != q for ev in traj.events))
    round_trips(traj, q)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a jump of mass 1e-4 at position 2.2e12 is below the position's rounding: "
    "its baseline has zero width in floats and validate reports R2"
))
def test_round_trip_of_a_jump_below_its_position_rounding():
    _cfg, _clocks, traj, q = spread_instance([5.0, -4.0], False, 0, [], 0.0)
    round_trips(traj, q)


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "q equal to a merger time: the replayed clocks q * position differ from "
    "the drawn ones by rounding, the merger lands after q and the excursion splits"
))
def test_round_trip_at_a_merger_time():
    exponents = [0.0, 0.0, 6.0, 0.0, 0.0, 5.796875]
    _cfg, _clocks, traj, _q = spread_instance(exponents, False, 1705423, [], 0.0)
    round_trips(traj, max(ev.time for ev in traj.events))


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "a jump of mass 1e-6 on a tied clock raises the next baseline's level "
    "of -1.5e10 by less than the level's rounding: ranks 5 and 6 share a "
    "level and validate reports R1"
))
def test_round_trip_of_levels_that_round_together():
    _cfg, _clocks, traj, q = spread_instance([0, 0, 0, -6, 4.5, 0, 0], False, 20, [(5, 10)], 4.5)
    round_trips(traj, q)


# -- slice-rate identity over the input domain --------------------------------


@settings(deadline=None, max_examples=150)
@given(*domain(max_n=40, max_ties=8), st.floats(-12.0, 12.0))
def test_slice_rate_identity_over_the_domain(exponents, equal, seed, ties, log_q):
    """Criterion 3 on masses log-uniform over 1e-6..1e6 (or all equal), n
    from 1, tied clocks, q up to 1e12 over sigma2: every parallelogram's
    intensity (q - activation) * base_mass * absorbed_mass is q times its
    area, to 1e-9 of q * base_mass * absorbed_mass (the identity subtracts
    the activation from q), and there is one parallelogram per activated
    process."""
    _cfg, _clocks, traj, q = spread_instance(exponents, equal, seed, ties, log_q)
    n_paras = 0
    for sl in slice_decomposition(traj, q):
        for p in sl.parallelograms:
            scale = q * sl.base_mass * p.absorbed_mass
            rate = (q - p.activation) * sl.base_mass * p.absorbed_mass
            assert abs(rate - q * p.area) <= 1e-9 * scale
            n_paras += 1
    assert n_paras == len(activated_processes(traj, q, include_loops=False))
