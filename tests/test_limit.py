"""Scaling-limit path sampler, excursion detection, and the comparison rig."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import mcmosaic.limit as limit_mod
from mcmosaic.core import RngStream
from mcmosaic.limit import (
    GridPath,
    LimitParams,
    _excursion_intervals,
    excursions_and_marks,
    hypothesis_report,
    sample_Vc,
    sample_limit_path,
    sample_limit_reference,
    scaling_experiment,
)
from mcmosaic.walk import _CHUNK_BYTES, chunk_rows


def test_params_validation():
    with pytest.raises(ValueError):
        LimitParams(kappa=-1.0)
    with pytest.raises(ValueError):
        LimitParams(kappa=1.0, c=(1.0, -0.5))
    with pytest.raises(ValueError):
        LimitParams(kappa=1.0, c=(0.5, 1.0))  # must be nonincreasing
    p = LimitParams(kappa=1.0, c=(1.0, 1.0, 0.5))
    assert not p.approximate


@pytest.mark.parametrize("scale", [1e-13, 1.0, 1e6])
def test_params_order_check_is_relative(scale):
    LimitParams(kappa=1.0, c=(2.0 * scale, scale, scale, 0.0))
    with pytest.raises(ValueError, match="nonincreasing"):
        LimitParams(kappa=1.0, c=(2.0 * scale, scale, scale * (1.0 + 1e-6)))


@pytest.mark.parametrize("field", ["tau", "t"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_params_reject_nonfinite_tau_and_t(field, value):
    with pytest.raises(ValueError, match="tau and t must be finite"):
        LimitParams(kappa=1.0, **{field: value})


def test_kappa_zero_is_approximate_and_needs_horizon():
    p = LimitParams(kappa=0.0, c=(1.0,))
    assert p.approximate
    with pytest.raises(ValueError):
        p.default_horizon()
    assert p.epsilon(1e-4) == 0.0


def test_default_horizon_and_epsilon():
    p = LimitParams(kappa=2.0, tau=1.0, t=-0.5)
    assert p.default_horizon() == pytest.approx(4.0 * 2.5 / 2.0)
    assert p.epsilon(1e-4) == pytest.approx(10.0 * math.sqrt(2e-4))


def test_vpath_eval_steps_and_drift():
    v = sample_Vc((2.0, 1.0), RngStream(3).named("v"))
    assert v.drift == pytest.approx(5.0)
    assert list(v.jump_times) == sorted(v.jump_times)
    assert set(v.jump_sizes) == {2.0, 1.0}


def test_vc_mean_curve():
    """Mean of the compensated jump path at time s is
    sum_j c_j (1 - exp(-c_j s)) - c_j^2 s, which dips below zero."""
    c = (1.0, 0.5)
    s = 0.7
    root = RngStream(11).named("vc-mean")
    reps = 40000
    vals = np.empty(reps)
    for k in range(reps):
        v = sample_Vc(c, root.indexed(k))
        vals[k] = sum(x for t, x in zip(v.jump_times, v.jump_sizes) if t <= s) - v.drift * s
    expected = sum(cj * (1 - math.exp(-cj * s)) - cj * cj * s for cj in c)
    assert expected < 0.0
    se = vals.std(ddof=1) / math.sqrt(reps)
    assert abs(vals.mean() - expected) < 5 * se


def test_limit_path_shape_and_reflection():
    p = LimitParams(kappa=1.0)
    path = sample_limit_path(p, RngStream(5).named("p"), h=1e-3)
    assert path.times[0] == 0.0
    assert path.b[0] == 0.0
    assert np.all(path.b >= 0.0)
    assert np.allclose(path.b, path.w - np.minimum.accumulate(path.w))
    assert path.times[-1] >= p.default_horizon() - 1e-9


def test_limit_path_jump_times_on_grid():
    p = LimitParams(kappa=1.0, c=(1.5,))
    rng = RngStream(6).named("pj")
    vc = sample_Vc(p.c, rng)
    path = sample_limit_path(p, rng, h=1e-2, vc=vc)
    for t in vc.jump_times:
        if t <= path.times[-1]:
            assert np.any(np.isclose(path.times, t))
            i = int(np.argmin(np.abs(path.times - t)))
            # jump lands exactly at its own grid point
            assert path.w[i] - path.w[i - 1] > 1.0


def test_limit_path_validation():
    p = LimitParams(kappa=1.0)
    with pytest.raises(ValueError):
        sample_limit_path(p, RngStream(0), h=0.0)
    with pytest.raises(ValueError):
        sample_limit_path(p, RngStream(0), h=1e-3, horizon=-1.0)
    with pytest.raises(ValueError):
        sample_limit_path(p, RngStream(0), h=1e-3, normals=np.zeros(3))


@pytest.mark.parametrize("c", [(), (0.8,)])
@pytest.mark.parametrize(
    "h, horizon, message",
    [
        (0.0, None, "h must be positive"),
        (-1e-3, None, "h must be positive"),
        (1e-3, 0.0, "horizon must be positive"),
        (1e-3, -2.0, "horizon must be positive"),
        (math.inf, None, "h must be positive"),
        (math.nan, None, "h must be positive"),
        (1e-3, math.inf, "horizon must be positive"),
        (1e-3, math.nan, "horizon must be positive"),
        (1e-320, None, "h = 1e-320 is too small for the horizon"),
        (1e-300, None, "h = 1e-300 is too small for the horizon"),
    ],
)
def test_reference_checks_the_grid_like_the_path_sampler(c, h, horizon, message):
    """Both reference branches reject the grids the path sampler rejects,
    with its message: a step or a horizon that is not positive and finite,
    or a step too small for the horizon to count its steps."""
    p = LimitParams(kappa=1.0, c=c)
    with pytest.raises(ValueError, match=message):
        sample_limit_path(p, RngStream(1), h, horizon)
    with pytest.raises(ValueError, match=message):
        sample_limit_reference(p, RngStream(1), h, 3, horizon=horizon)


def test_drift_only_path_flatlines():
    """kappa=0 with no jumps leaves w = (t - tau) s - 0, so for t < tau the
    path is monotone down and never lifts off its running minimum."""
    p = LimitParams(kappa=0.0, tau=1.0, t=0.0)
    path = sample_limit_path(p, RngStream(1).named("d"), h=1e-2, horizon=2.0)
    assert np.all(path.b == 0.0)
    em = excursions_and_marks(path, RngStream(2).named("m"))
    assert em.lengths.size == 0


def test_w_mean_matches_parabola():
    """At kappa=1, t=tau=0, c=(): E[w(s)] = -s^2/2."""
    p = LimitParams(kappa=1.0)
    root = RngStream(21).named("wmean")
    reps = 3000
    s_idx = None
    acc = None
    for k in range(reps):
        path = sample_limit_path(p, root.indexed(k), h=1e-2, horizon=1.0)
        if acc is None:
            s_idx = path.times
            acc = np.zeros_like(path.w)
        acc += path.w
    acc /= reps
    target = -0.5 * s_idx**2
    # pointwise CLT window: sd of w(s) is sqrt(s)
    tol = 5 * np.sqrt(np.maximum(s_idx, 1e-12) / reps)
    assert np.all(np.abs(acc - target) <= tol + 1e-9)


def _triangle_path(height_slope=1.0, top=2.0, h=1e-3):
    """Deterministic tent: up to `top` then back down, area = top**2."""
    up = np.arange(0.0, top, h)
    down = np.arange(top, 2 * top + h / 2, h)
    times = np.concatenate([up, down])
    b = np.where(times <= top, times, 2 * top - times) * height_slope
    b = np.maximum(b, 0.0)
    w = b.copy()  # already nonnegative, running min stays 0
    return GridPath(epsilon=10 * math.sqrt(h), times=times, w=w, b=b)


def test_marks_are_poisson_in_area():
    path = _triangle_path(top=2.0)  # area 4.0... wait, tent area = top^2
    area = 2.0**2
    gen = RngStream(13).named("tri-marks").generator()
    counts = np.array(
        [excursions_and_marks(path, gen).counts[0] for _ in range(8000)]
    )
    from mcmosaic.stats import poisson_mean_test

    res = poisson_mean_test(counts, area)
    assert res.passed, res


def test_excursion_endpoints_widen_to_zeros():
    """Detection opens above epsilon but the reported interval runs between
    exact zeros of b."""
    h = 1e-3
    t = np.arange(0.0, 3.0, h)
    # one bump on [1, 2], zero elsewhere
    b = np.where((t >= 1.0) & (t <= 2.0), np.sin(np.pi * (t - 1.0)), 0.0)
    path = GridPath(epsilon=0.05, times=t, w=b, b=b)
    em = excursions_and_marks(path, RngStream(1).named("z"))
    assert em.lengths.size == 1
    assert em.lengths[0] == pytest.approx(1.0, abs=2 * h)


def test_subepsilon_bump_is_dropped():
    h = 1e-3
    t = np.arange(0.0, 1.0, h)
    b = 0.01 * np.sin(np.pi * t) ** 2
    path = GridPath(epsilon=0.05, times=t, w=b, b=b)
    em = excursions_and_marks(path, RngStream(1).named("e"))
    assert em.lengths.size == 0


def _loop_intervals(b, eps):
    """The per-path reader the row reader replaced, kept as the reference:
    scan for an above-epsilon point, close at the next two-below pair, widen
    to the surrounding exact zeros, keep each widened interval once."""
    n = len(b)
    below = b <= eps
    two_below = (
        np.flatnonzero(below[:-1] & below[1:]) if n > 1 else np.empty(0, dtype=int)
    )
    zeros = np.flatnonzero(b == 0.0)
    intervals: dict[tuple[int, int], None] = {}
    i = 0
    while i < n:
        if below[i]:
            i += 1
            continue
        start = i
        k = np.searchsorted(two_below, start)
        j = int(two_below[k]) if k < len(two_below) else n - 1
        zl = int(zeros[np.searchsorted(zeros, start, side="right") - 1])
        kr = np.searchsorted(zeros, j)
        zr = int(zeros[kr]) if kr < len(zeros) else n - 1
        intervals[(zl, zr)] = None
        i = j + 1
    return list(intervals)


# b[0] = 0 as on every reflected path; 1.0 is epsilon itself (below), 0.5 a
# sub-epsilon bump, 0.0 an exact zero inside or between excursions
_levels = st.sampled_from([0.0, 0.0, 0.5, 1.0, 1.5, 3.0])


@st.composite
def _rows(draw):
    n = draw(st.integers(1, 30))
    k = draw(st.integers(1, 3))
    return [[0.0] + draw(st.lists(_levels, min_size=n, max_size=n)) for _ in range(k)]


@given(_rows())
@example([[0.0, 0.5, 1.0, 0.5, 0.0]])  # all below
@example([[0.0, 2.0, 0.0, 2.0, 0.5, 0.5, 0.0]])  # exact zero inside
@example([[0.0, 0.5, 2.0, 0.5, 2.0], [0.0, 2.0, 2.0, 2.0, 2.0]])  # runs to the end
@example([[0.0, 2.0, 0.5], [0.0, 0.5, 0.5], [0.0, 0.5, 2.0]])
def test_row_reader_matches_per_path_loop(rows):
    b = np.asarray(rows)
    row, lo, hi = _excursion_intervals(np.pad(b, ((0, 0), (0, 2))), 1.0)
    want = [(r, l, h) for r in range(len(b)) for l, h in _loop_intervals(b[r], 1.0)]
    assert list(zip(row.tolist(), lo.tolist(), hi.tolist())) == want


def test_reference_jump_branch_marks_the_largest_excursion():
    """With jumps, path r of the reference is sample_limit_path(params,
    rng.indexed(r), h): lengths replay exactly, and the marks average the
    areas of the largest excursions."""
    p = LimitParams(kappa=1.0, c=(0.8,))
    rng = RngStream(8).named("rj-marks")
    h, reps = 5e-3, 400
    ref = sample_limit_reference(p, rng, h, reps)
    areas = np.zeros(reps)
    for r in range(reps):
        em = excursions_and_marks(sample_limit_path(p, rng.indexed(r), h), rng)
        if em.lengths.size:
            assert ref["largest"][r] == em.lengths[0]
            areas[r] = em.areas[0]
        assert ref["second"][r] == (em.lengths[1] if em.lengths.size > 1 else 0.0)
    se = math.sqrt(areas.mean() / reps)
    assert abs(ref["marks"].mean() - areas.mean()) < 5 * se


@pytest.mark.parametrize("c", [(), (0.8,)])
def test_excursion_areas_match_per_excursion_trapezoid(c):
    """Areas read off one cumulative trapezoid per row equal the trapezoid
    rule applied to each excursion on its own."""
    trapezoid = getattr(np, "trapezoid", None) or np.trapz
    p = LimitParams(kappa=1.0, t=0.5, c=c)
    seen = 0
    for seed in range(20):
        path = sample_limit_path(p, RngStream(seed).named("areas"), 2e-3)
        em = excursions_and_marks(path, RngStream(seed).named("areas-m"))
        _, lo, hi = _excursion_intervals(np.pad(path.b, (0, 2))[None, :], path.epsilon)
        want = np.asarray(
            [trapezoid(path.b[l : r + 1], path.times[l : r + 1]) for l, r in zip(lo, hi)]
        )
        order = np.argsort(-(path.times[hi] - path.times[lo]), kind="stable")
        assert em.areas.shape == want.shape
        np.testing.assert_allclose(em.areas, want[order], rtol=1e-12, atol=0.0)
        seen += em.areas.size
    assert seen > 20


def test_reference_does_not_depend_on_chunking(monkeypatch):
    p = LimitParams(kappa=1.0)
    whole = sample_limit_reference(p, RngStream(3).named("chunks"), h=5e-3, reps=50)
    monkeypatch.setattr(limit_mod, "chunk_rows", lambda reps, n: [7] * 7 + [1])
    parts = sample_limit_reference(p, RngStream(3).named("chunks"), h=5e-3, reps=50)
    for key in ("largest", "second", "marks"):
        assert np.array_equal(whole[key], parts[key])


def test_reference_is_the_direct_formula_across_chunks():
    """The c = () reference, 2,100 paths at h = 1e-3 (three chunks of the
    4,001-point grid), equals the straightforward formula evaluated path by
    path from one draw of all the normals: W = cumsum(sqrt(kappa h) Z) plus
    the parabolic drift, B = W minus its running minimum, the longest
    excursion (earliest on ties) and the next one, then one Poisson mark per
    path over the largest excursions' areas."""
    p = LimitParams(kappa=1.0, tau=0.0, t=0.0)
    h, reps = 1e-3, 2100
    rng = RngStream(12).named("direct")
    ref = sample_limit_reference(p, rng, h, reps)

    times = h * np.arange(int(math.ceil(p.default_horizon() / h - 1e-9)) + 1)
    assert len(limit_mod.chunk_rows(reps, times.size)) == 3
    drift = (p.t - p.tau) * times - 0.5 * p.kappa * times * times
    z = rng.named("limit-brownian").generator().standard_normal((reps, times.size - 1))
    largest, second, areas = np.zeros(reps), np.zeros(reps), np.zeros(reps)
    for r in range(reps):
        w = np.concatenate([[0.0], np.cumsum(math.sqrt(p.kappa * h) * z[r])]) + drift
        path = GridPath(
            epsilon=p.epsilon(h), times=times, w=w, b=w - np.minimum.accumulate(w)
        )
        em = excursions_and_marks(path, np.random.default_rng(0))
        if em.lengths.size:
            largest[r], areas[r] = em.lengths[0], em.areas[0]
        if em.lengths.size > 1:
            second[r] = em.lengths[1]
    marks = rng.named("limit-marks").generator().poisson(areas)
    assert ref["largest"].tobytes() == largest.tobytes()
    assert ref["second"].tobytes() == second.tobytes()
    assert ref["marks"].tobytes() == marks.tobytes()


def test_excursions_sorted_descending():
    p = LimitParams(kappa=1.0, t=1.0)
    for seed in range(10):
        path = sample_limit_path(p, RngStream(seed).named("srt"), h=1e-3)
        em = excursions_and_marks(path, RngStream(seed).named("srt-m"))
        lens = list(em.lengths)
        assert lens == sorted(lens, reverse=True)
        assert em.counts.shape == em.lengths.shape
        assert em.areas.shape == em.lengths.shape
        assert np.all(em.areas >= 0.0)


def test_discretization_stability_with_crn():
    """Halving h under shared Brownian increments moves the largest
    excursion length by O(h)-scale amounts, not O(1)."""
    p = LimitParams(kappa=1.0)
    S = p.default_horizon()
    h = 2e-3
    rng = RngStream(40).named("crn")
    fine_steps = int(round(S / (h / 2)))
    z = rng.generator().standard_normal(fine_steps)
    # coarse grid uses pairwise-summed normals so both paths ride one motion
    zc = (z[0::2] + z[1::2]) / math.sqrt(2.0)
    path_f = sample_limit_path(p, rng, h / 2, normals=z)
    path_c = sample_limit_path(p, rng, h, normals=zc)
    em_f = excursions_and_marks(path_f, RngStream(41).named("a"))
    em_c = excursions_and_marks(path_c, RngStream(41).named("b"))
    if em_f.lengths.size and em_c.lengths.size:
        assert abs(em_f.lengths[0] - em_c.lengths[0]) < 0.25


def test_hypothesis_report_standard_profile():
    n = 1000
    masses = [n ** (-2.0 / 3.0)] * n
    rep = hypothesis_report(masses)
    assert rep["sigma2"] == pytest.approx(n ** (-1.0 / 3.0))
    assert rep["ratio"] == pytest.approx(1.0)
    assert rep["ratio_target"] == 1.0
    # leading scaled mass is n**(-1/3) = 0.1, still visible against c=()
    assert len(rep["warnings"]) == 1
    # at larger n it drops below the default window and the report is clean
    big = 64000
    rep_big = hypothesis_report([big ** (-2.0 / 3.0)] * big)
    assert rep_big["warnings"] == []


def test_hypothesis_report_flags_mismatch():
    rep = hypothesis_report([1.0, 1.0, 1.0], kappa=1.0, c=(2.0,))
    assert rep["warnings"]


def test_reference_shapes_and_determinism():
    p = LimitParams(kappa=1.0)
    ref = sample_limit_reference(p, RngStream(3).named("ref"), h=5e-3, reps=200)
    assert ref["largest"].shape == (200,)
    assert ref["second"].shape == (200,)
    assert ref["marks"].shape == (200,)
    assert np.all(ref["largest"] >= ref["second"])
    ref2 = sample_limit_reference(p, RngStream(3).named("ref"), h=5e-3, reps=200)
    assert np.array_equal(ref["largest"], ref2["largest"])
    assert np.array_equal(ref["marks"], ref2["marks"])


def test_reference_jump_branch():
    p = LimitParams(kappa=1.0, c=(0.8,))
    ref = sample_limit_reference(p, RngStream(4).named("rj"), h=5e-3, reps=50)
    assert ref["largest"].shape == (50,)
    assert np.all(ref["largest"] >= 0.0)


def test_scaling_experiment_structure():
    rng = RngStream(6).named("sx")
    ref = sample_limit_reference(LimitParams(kappa=1.0), rng, 5e-3, 400)
    out = scaling_experiment((100, 300), 0.0, 400, rng, h=5e-3, reference=ref)
    assert [r["n"] for r in out["rows"]] == [100, 300]
    for row in out["rows"]:
        assert 0.0 <= row["ks_largest"] <= 1.0
        assert "ks_marks" in row
        assert row["q"] == pytest.approx(row["n"] ** (1.0 / 3.0))
    assert isinstance(out["ks_decreasing"], bool)
    assert out["limit_reps"] == 400


def test_scaling_experiment_shared_reference():
    p = LimitParams(kappa=1.0)
    ref = sample_limit_reference(p, RngStream(9).named("shref"), h=5e-3, reps=600)
    rng = RngStream(9).named("sx2")
    out = scaling_experiment(
        (200,), 0.0, 300, rng, h=5e-3, reference=ref, include_marks=False
    )
    assert out["limit_reps"] == 600
    assert "ks_marks" not in out["rows"][0]


def test_scaling_experiment_coupling_reuses_noise(monkeypatch):
    """Coupled sampling still reproduces each marginal law: the coupled
    largest-mass sample of one n sits within the two-sample noise band of
    independent samples of the same n drawn through the same kernel."""
    from mcmosaic.stats import ks_distance
    from mcmosaic.walk import component_stats

    samples = []

    def spy(a, b):
        samples.append(np.array(a))
        return ks_distance(a, b)

    monkeypatch.setattr(limit_mod, "ks_distance", spy)
    rng = RngStream(19).named("c")
    ref = sample_limit_reference(LimitParams(kappa=1.0), rng, 5e-3, 200)
    scaling_experiment(
        (150, 400), 0.0, 2000, rng, h=5e-3, reference=ref, include_marks=False
    )
    coupled = samples[2]  # per n: largest, then second

    n = 400
    mass = n ** (-2.0 / 3.0)
    q = n ** (1.0 / 3.0)
    a = component_stats(
        RngStream(17).named("a").generator().exponential(size=(2000, n)), mass, q
    )
    b = component_stats(
        RngStream(18).named("b").generator().exponential(size=(2000, n)), mass, q
    )
    noise = ks_distance(a["largest"], b["largest"])
    assert ks_distance(coupled, a["largest"]) < 3 * max(noise, 0.02)


def test_given_standard_sequences_match_the_standard_profile(monkeypatch):
    """The standard profile passed as sequences runs through the same coupled
    sampler: same largest and second samples up to rounding in the prefix
    masses and sigma2, and the same distances (it drew from per-n streams
    of its own)."""
    from mcmosaic.stats import ks_distance

    samples = []

    def spy(a, b):
        samples.append(np.array(a))
        return ks_distance(a, b)

    monkeypatch.setattr(limit_mod, "ks_distance", spy)
    n_values = (150, 400)
    ref = sample_limit_reference(
        LimitParams(kappa=1.0), RngStream(19).named("ref"), 5e-3, 200
    )
    out = {}
    for key, seqs in (
        ("standard", None),
        ("given", {n: [n ** (-2.0 / 3.0)] * n for n in n_values}),
    ):
        rng = RngStream(19).named("same")
        out[key] = scaling_experiment(
            n_values, 0.0, 1000, rng, h=5e-3, reference=ref, include_marks=False,
            sequences=seqs,
        )
    standard, given = samples[:4], samples[4:]
    for a, b in zip(standard, given):
        np.testing.assert_allclose(b, a, rtol=1e-12, atol=0.0)
    for a, b in zip(out["standard"]["rows"], out["given"]["rows"]):
        assert (a["n"], a["ks_largest"], a["ks_second"]) == (
            b["n"], b["ks_largest"], b["ks_second"]
        )


def test_scaling_experiment_custom_sequences():
    n = 120
    seqs = {n: tuple([n ** (-2.0 / 3.0)] * n)}
    rng = RngStream(22).named("seq")
    ref = sample_limit_reference(LimitParams(kappa=1.0), rng, 5e-3, 100)
    out = scaling_experiment(
        (n,), 0.0, 200, rng, h=5e-3, reference=ref, sequences=seqs
    )
    row = out["rows"][0]
    assert row["sigma2"] == pytest.approx(n ** (-1.0 / 3.0))


def test_scaling_experiment_bad_horizon():
    rng = RngStream(1).named("bad")
    ref = sample_limit_reference(LimitParams(kappa=1.0), rng, 5e-3, 10)
    with pytest.raises(ValueError, match="not positive for n=8"):
        scaling_experiment((8,), -100.0, 10, rng, h=5e-3, reference=ref)
    with pytest.raises(ValueError, match="not positive for n=8"):
        scaling_experiment(
            (8,), -100.0, 10, rng, h=5e-3, reference=ref, sequences={8: [0.5] * 8}
        )


@pytest.mark.parametrize(
    "n_values, sequences, match",
    [
        ((), None, r"n_values \(\) names no size"),
        ((0,), None, "n must be an integer >= 1, got 0"),
        ((8, -3), None, "got -3"),
        ((True,), None, "got True"),
        ((8.0,), None, "got 8.0"),
        ((3,), {3: []}, "holds 0 masses, not 3"),
        ((3,), {3: [0.5] * 4}, "holds 4 masses, not 3"),
        ((3,), {3: [0.5, 0.0, 0.5]}, r"finite and > 0, got 0\.0"),
        ((3,), {3: [0.5, -1.0, 0.5]}, r"finite and > 0, got -1\.0"),
        ((3,), {3: [0.5, math.nan, 0.5]}, "finite and > 0, got nan"),
        ((8, 8), None, r"\(8, 8\) repeat a size"),
        ((8, 3, 8), {8: [0.5] * 8}, r"\(8, 3, 8\) repeat a size"),
    ],
)
def test_scaling_experiment_rejects_bad_sizes(n_values, sequences, match, monkeypatch):
    """A size below 1, a repeated size, a sequence of another length, or a
    mass that is not finite and positive raises ValueError before anything
    is drawn (it divided by zero, mixed up sizes, or pooled a repeated
    size's samples into one row)."""
    rng = RngStream(3).named("sizes")
    ref = sample_limit_reference(LimitParams(kappa=1.0), rng, 5e-3, 10)

    def no_draw(*args, **kwargs):
        raise AssertionError("drew before rejecting the input")

    monkeypatch.setattr(limit_mod, "component_stats", no_draw)
    with pytest.raises(ValueError, match=match):
        scaling_experiment(n_values, 0.0, 10, rng, h=5e-3, reference=ref, sequences=sequences)


def test_numpy_integer_reps_are_counts():
    """reps may be any integer type, numpy's included, and draws as the int."""
    p, rng = LimitParams(kappa=1.0), RngStream(3).named("np-reps")
    want = sample_limit_reference(p, rng, 5e-3, 3)
    got = sample_limit_reference(p, rng, 5e-3, np.int64(3))
    for key in ("largest", "second", "marks"):
        np.testing.assert_array_equal(got[key], want[key])
    out = scaling_experiment((8,), 0.0, np.int64(3), rng, h=5e-3, reference=want)
    assert out["rows"] == scaling_experiment((8,), 0.0, 3, rng, h=5e-3, reference=want)["rows"]


@pytest.mark.parametrize("reps", [0, -2, 2.5, True, 3.0, None])
def test_reps_below_one_or_not_an_integer_is_rejected(reps, monkeypatch):
    """scaling_experiment and sample_limit_reference raise ValueError for a
    reps that is not an integer >= 1 before drawing anything (a fraction
    raised TypeError inside the chunking, 0 or less failed late with an empty
    sample or returned an empty reference, True ran as one replication)."""
    rng = RngStream(3).named("reps")
    ref = sample_limit_reference(LimitParams(kappa=1.0), rng, 5e-3, 10)

    def no_draw(*args, **kwargs):
        raise AssertionError("drew before rejecting reps")

    monkeypatch.setattr(limit_mod, "component_stats", no_draw)
    monkeypatch.setattr(limit_mod, "chunk_rows", no_draw)
    monkeypatch.setattr(limit_mod, "sample_limit_path", no_draw)
    with pytest.raises(ValueError, match=f"reps must be an integer >= 1, got {reps!r}"):
        scaling_experiment((8,), 0.0, reps, rng, h=5e-3, reference=ref)
    for c in ((), (0.8,)):
        with pytest.raises(ValueError, match=f"reps must be an integer >= 1, got {reps!r}"):
            sample_limit_reference(LimitParams(kappa=1.0, c=c), rng, 5e-3, reps)


def test_scaling_experiment_rejects_sequences_for_other_sizes(monkeypatch):
    """A sequences key outside n_values raises ValueError naming every such
    key before anything is drawn (no size reads it, so the sequence would be
    dropped silently)."""
    rng = RngStream(3).named("stray")
    ref = sample_limit_reference(LimitParams(kappa=1.0), rng, 5e-3, 10)

    def no_draw(*args, **kwargs):
        raise AssertionError("drew before rejecting the sequences")

    monkeypatch.setattr(limit_mod, "component_stats", no_draw)
    seqs = {5: [0.5] * 5, 8: [0.5] * 8, 9: [0.5] * 9}
    with pytest.raises(ValueError, match=r"keys \[5, 9\] are not in n_values \(8,\)"):
        scaling_experiment((8,), 0.0, 10, rng, h=5e-3, reference=ref, sequences=seqs)


def test_scaling_experiment_rejects_a_mismatched_reference():
    """The reference fixes the grid and the limit law: a different h or t is
    an error, and the report's h and epsilon are the reference's."""
    rng = RngStream(2).named("mismatch")
    ref = sample_limit_reference(LimitParams(kappa=1.0), rng, 5e-3, 10)
    with pytest.raises(ValueError, match="reference drawn at h=0.005"):
        scaling_experiment((8,), 0.0, 10, rng, h=0.5, reference=ref)
    ref_t2 = sample_limit_reference(LimitParams(kappa=1.0, t=2.0), rng, 5e-3, 10)
    with pytest.raises(ValueError, match="reference drawn at"):
        scaling_experiment((8,), 0.0, 10, rng, h=5e-3, reference=ref_t2)
    out = scaling_experiment((8,), 0.0, 10, rng, h=5e-3, reference=ref)
    assert (out["h"], out["epsilon"]) == (5e-3, LimitParams(kappa=1.0).epsilon(5e-3))


@pytest.mark.parametrize("masses", [[1.0, math.nan], [], [0.0, 1.0], [-1.0, 2.0]])
def test_hypothesis_report_rejects_what_no_configuration_holds(masses):
    """A NaN, zero or negative mass, or no mass at all, raises as
    ``WeightedConfig`` does instead of reading as a profile."""
    with pytest.raises(ValueError, match="mass"):
        hypothesis_report(masses)


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"kappa": math.nan}, "kappa"),
        ({"kappa": -1.0}, "kappa"),
        ({"c": (math.nan,)}, "c entries"),
        ({"c": (-0.5,)}, "c entries"),
        ({"rtol": math.nan}, "rtol"),
        ({"rtol": -1.0}, "rtol"),
        ({"rtol": math.inf}, "rtol"),
    ],
    ids=["kappa-nan", "kappa-negative", "c-nan", "c-negative", "rtol-nan", "rtol-negative",
         "rtol-inf"],
)
def test_hypothesis_report_rejects_parameters_no_limit_holds(kwargs, match):
    """A NaN or negative kappa or c entry, or an rtol that is not finite and
    >= 0, raises instead of turning every comparison false (masses that
    give two warnings at the defaults gave none with c = (nan,))."""
    with pytest.raises(ValueError, match=match):
        hypothesis_report([1.0, 1.0, 1.0], **kwargs)


def test_reference_peak_memory_stays_within_its_chunk_budget():
    """One full chunk of the c = () reference (chunk_rows' first chunk of the
    4,001-point grid at h = 1e-3): the tracemalloc peak of one call stays
    within 4.0 chunk blocks.  Fresh chunk temporaries read 6.0; the walk and
    work buffers read 3.0."""
    rows = chunk_rows(10**6, 4001)[0]
    tracemalloc.start()
    try:
        sample_limit_reference(LimitParams(kappa=1.0), RngStream(9).named("peak"), 1e-3, rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.0 * _CHUNK_BYTES
