"""Shared test statistics: pinned values, pooling, and calibration."""

import math

import numpy as np
import pytest
from scipy import stats as sps

from hypothesis import example, given
from hypothesis import strategies as st

from mcmosaic.core import RngStream
from mcmosaic.stats import (
    ALPHA,
    ChiSquareResult,
    chi_square,
    chi_square_homogeneity,
    ks_distance,
    ks_test,
    poisson_mean_test,
)


def test_chi_square_pinned_value():
    # (60-50)^2/50 + (40-50)^2/50 = 4.0 on 1 dof
    res = chi_square([60, 40], [0.5, 0.5])
    assert res.statistic == pytest.approx(4.0)
    assert res.dof == 1
    assert res.p_value == pytest.approx(0.0455, abs=2e-3)
    assert not res.rejects()
    assert res.rejects(alpha=0.05)


def test_chi_square_validation():
    with pytest.raises(ValueError):
        chi_square([1, 2], [0.5, 0.5, 0.0])
    with pytest.raises(ValueError):
        chi_square([0, 0], [0.5, 0.5])
    with pytest.raises(ValueError):
        chi_square([5, 5], [0.7, 0.4])


def test_chi_square_pools_sparse_cells():
    # Last two cells expect 1 each out of 100: pooled together, still < 5,
    # so they fold into the previous kept cell.
    probs = [0.49, 0.49, 0.01, 0.01]
    res = chi_square([49, 49, 1, 1], probs)
    assert res.cells == 2
    assert res.statistic == pytest.approx(0.0, abs=1e-12)


def test_chi_square_inconclusive_when_everything_pools():
    res = chi_square([1, 1], [0.5, 0.5])
    assert res.inconclusive
    assert not res.rejects()
    assert math.isnan(res.statistic)


def test_chi_square_calibration():
    """Under the null the rejection rate at ALPHA stays near ALPHA."""
    gen = RngStream(17).named("chi-cal").generator()
    probs = np.array([0.2, 0.3, 0.5])
    rejected = 0
    trials = 2000
    for _ in range(trials):
        obs = gen.multinomial(300, probs)
        if chi_square(obs, probs).rejects():
            rejected += 1
    assert rejected <= 10  # mean 2 under the null


def test_homogeneity_identical_counts():
    res = chi_square_homogeneity([50, 30, 20], [50, 30, 20])
    assert res.statistic == pytest.approx(0.0)
    assert not res.rejects()


def test_homogeneity_detects_shift():
    res = chi_square_homogeneity([900, 100], [100, 900])
    assert res.rejects()


def test_homogeneity_shape_mismatch():
    with pytest.raises(ValueError):
        chi_square_homogeneity([1, 2], [1, 2, 3])


def _merge_order(weights):
    return np.lexsort((np.arange(len(weights)), -weights))


def reference_chi_square(observed, expected_probs, min_cell=5):
    """The goodness-of-fit pooling loop chi_square shares with
    chi_square_homogeneity now, kept as the reference."""
    obs = np.asarray(observed, dtype=float)
    probs = np.asarray(expected_probs, dtype=float)
    total = obs.sum()
    merged_obs, merged_exp = [], []
    pool_obs = pool_exp = 0.0
    pooling = False
    for idx in _merge_order(probs):
        if not pooling and probs[idx] * total >= min_cell:
            merged_obs.append(float(obs[idx]))
            merged_exp.append(float(probs[idx] * total))
        else:
            pooling = True
            pool_obs += float(obs[idx])
            pool_exp += float(probs[idx] * total)
    if pooling:
        if pool_exp >= min_cell or not merged_exp:
            merged_obs.append(pool_obs)
            merged_exp.append(pool_exp)
        else:
            merged_obs[-1] += pool_obs
            merged_exp[-1] += pool_exp
    cells = len(merged_obs)
    if cells < 2:
        return ChiSquareResult(math.nan, math.nan, 0, cells, inconclusive=True)
    stat = float(sum((o - e) ** 2 / e for o, e in zip(merged_obs, merged_exp) if e > 0))
    return ChiSquareResult(stat, float(sps.chi2.sf(stat, cells - 1)), cells - 1, cells, False)


def reference_homogeneity(counts_a, counts_b, min_cell=5):
    """The homogeneity pooling loop, keyed by min(exp_a, exp_b), kept as the
    reference."""
    a = np.asarray(counts_a, dtype=float)
    b = np.asarray(counts_b, dtype=float)
    na, nb = a.sum(), b.sum()
    combined = a + b
    share_a = na / (na + nb)
    cells_a, cells_b = [], []
    pool_a = pool_b = 0.0
    pooling = False
    for idx in _merge_order(combined):
        exp_a = combined[idx] * share_a
        exp_b = combined[idx] * (1.0 - share_a)
        if not pooling and min(exp_a, exp_b) >= min_cell:
            cells_a.append(float(a[idx]))
            cells_b.append(float(b[idx]))
        else:
            pooling = True
            pool_a += float(a[idx])
            pool_b += float(b[idx])
    if pooling:
        exp_pool = (pool_a + pool_b) * min(share_a, 1.0 - share_a)
        if exp_pool >= min_cell or not cells_a:
            cells_a.append(pool_a)
            cells_b.append(pool_b)
        else:
            cells_a[-1] += pool_a
            cells_b[-1] += pool_b
    k = len(cells_a)
    if k < 2:
        return ChiSquareResult(math.nan, math.nan, 0, k, inconclusive=True)
    stat = 0.0
    for oa, ob in zip(cells_a, cells_b):
        tot = oa + ob
        ea = tot * share_a
        eb = tot * (1.0 - share_a)
        stat += (oa - ea) ** 2 / ea + (ob - eb) ** 2 / eb
    return ChiSquareResult(float(stat), float(sps.chi2.sf(stat, k - 1)), k - 1, k, False)


# sparse counts: many zeros and small values, a few large ones
_count = st.sampled_from([0, 0, 1, 2, 3, 4, 5, 7, 12, 40, 300])


@st.composite
def _fit_cases(draw):
    k = draw(st.integers(1, 40))
    obs = draw(st.lists(_count, min_size=k, max_size=k))
    weights = np.asarray(
        draw(st.lists(st.sampled_from([0.01, 0.1, 1.0, 5.0, 50.0]), min_size=k, max_size=k))
    )
    return [max(obs[0], 1)] + obs[1:], weights / weights.sum()


@st.composite
def _tables(draw):
    k = draw(st.integers(1, 40))
    a, b = (draw(st.lists(_count, min_size=k, max_size=k)) for _ in range(2))
    return [max(a[0], 1)] + a[1:], [max(b[-1], 1)] + b[:-1]


@given(_fit_cases(), st.integers(1, 8))
@example(([0, 0, 3], [0.2, 0.3, 0.5]), 5)  # everything pools
@example(([50, 1, 1], [0.9, 0.05, 0.05]), 5)  # one kept cell, the pool folds into it
@example(([50, 50, 1, 1, 1, 1], [0.45, 0.45, 0.025, 0.025, 0.025, 0.025]), 1)
def test_chi_square_pooling_matches_reference(case, min_cell):
    obs, probs = case
    assert repr(chi_square(obs, probs, min_cell)) == repr(
        reference_chi_square(obs, probs, min_cell)
    )


@given(_tables(), st.integers(1, 8))
@example(([0, 0, 3], [1, 0, 0]), 5)  # everything pools
@example(([60, 1, 1], [40, 1, 2]), 5)  # one kept cell, the pool folds into it
@example(([900, 30, 2, 1], [9, 6, 1, 0]), 1)  # lopsided shares
def test_homogeneity_pooling_matches_reference(table, min_cell):
    a, b = table
    assert repr(chi_square_homogeneity(a, b, min_cell)) == repr(
        reference_homogeneity(a, b, min_cell)
    )


def test_ks_test_uniform_null():
    gen = RngStream(4).named("ks-u").generator()
    sample = gen.uniform(size=5000)
    res = ks_test(sample, lambda x: np.clip(x, 0.0, 1.0))
    assert not res.rejects()


def test_ks_test_rejects_wrong_law():
    gen = RngStream(4).named("ks-w").generator()
    sample = gen.exponential(size=5000)
    res = ks_test(sample, lambda x: np.clip(x, 0.0, 1.0))
    assert res.rejects()
    assert res.p_value < 1e-10


def test_ks_distance_two_sample():
    a = np.arange(10) / 10.0
    b = np.arange(10) / 10.0 + 0.5
    d = ks_distance(a, b)
    assert 0.0 < d <= 1.0
    assert ks_distance(a, a) == 0.0


def _ks_cases():
    gen = RngStream(12).named("ks-cases").generator()
    sizes = [(1, 1), (1, 7), (9, 1), (20, 20), (20, 30), (7, 13), (64, 48), (333, 29)]
    sizes += [(9_999, 10_000), (10_000, 7), (10_001, 10_000)]  # exact mode ends at 10,000
    for i, (n_a, n_b) in enumerate(sizes):
        yield gen.normal(size=n_a), gen.normal(0.3, size=n_b)
        a, b = gen.integers(0, 4, n_a), gen.integers(0, 5, n_b)
        yield a, b
        if i < len(sizes) - 3:
            # shared values tie across the samples
            yield a * 0.5, np.concatenate([a[: n_b // 2] * 0.5, b[n_b // 2 :]])[:n_b]
    yield np.array([-math.inf, 1.0]), np.array([0.5, math.inf])


def test_ks_distance_equals_scipy_statistic():
    """The direct statistic equals scipy's ks_2samp, rounding included."""
    from scipy.stats import ks_2samp

    for a, b in _ks_cases():
        assert ks_distance(a, b) == float(ks_2samp(a, b).statistic), (len(a), len(b))
    with pytest.raises(ValueError):
        ks_distance([], [1.0])


def test_poisson_moment_accepts_true_mean():
    gen = RngStream(8).named("pois-ok").generator()
    counts = gen.poisson(3.5, size=20000)
    res = poisson_mean_test(counts, 3.5)
    assert res.passed
    assert abs(res.mean - 3.5) <= res.mean_tolerance


def test_poisson_moment_rejects_wrong_mean():
    gen = RngStream(8).named("pois-bad").generator()
    counts = gen.poisson(3.5, size=20000)
    assert not poisson_mean_test(counts, 4.0).passed


def test_poisson_moment_rejects_wrong_variance():
    # Right mean, wrong dispersion: a constant sample has variance 0.
    counts = np.full(5000, 2)
    assert not poisson_mean_test(counts, 2.0).passed


def test_alpha_is_suite_level():
    assert ALPHA == 1e-3


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ks_distance([math.nan, 1.0], [0.5, 2.0]), "sample_a holds NaN"),
        (lambda: ks_distance([0.5, 2.0], [1.0, math.nan]), "sample_b holds NaN"),
        (lambda: chi_square([-5, 20], [0.5, 0.5]), "observed counts"),
        (lambda: chi_square([5, math.inf], [0.5, 0.5]), "observed counts"),
        (lambda: chi_square([5, math.nan], [0.5, 0.5]), "observed counts"),
        (lambda: chi_square([5, 20], [math.nan, 1.0]), "expected probabilities"),
        (lambda: chi_square([5, 20], [-0.5, 1.5]), "expected probabilities"),
        (lambda: chi_square_homogeneity([-3, 10, 10], [10, 10, 10]), "counts_a"),
        (lambda: chi_square_homogeneity([10, 10, 10], [10, math.nan, 10]), "counts_b"),
        (lambda: chi_square_homogeneity([10, math.inf, 10], [10, 10, 10]), "counts_a"),
        (lambda: poisson_mean_test([1, 2, 3], -1.0), "target_mean"),
        (lambda: poisson_mean_test([1, 2, 3], math.nan), "target_mean"),
        (lambda: poisson_mean_test([1, 2, 3], math.inf), "target_mean"),
    ],
)
def test_stats_reject_inputs_no_sample_can_hold(call, message):
    """NaN, infinite or negative counts, probabilities and means raise a
    ValueError that names the input instead of giving a verdict."""
    with pytest.raises(ValueError, match=message):
        call()
