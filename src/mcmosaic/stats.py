"""Test statistics shared by the acceptance drivers.

Everything here is a pure function of its input data; randomness stays in
the samplers.  The suite-wide significance level is ALPHA; moment tests use
the explicit standard-error windows stated with them.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats as _sps

__all__ = [
    "ALPHA",
    "ChiSquareResult",
    "KsResult",
    "PoissonMomentResult",
    "chi_square",
    "chi_square_homogeneity",
    "ks_test",
    "ks_distance",
    "poisson_mean_test",
]

ALPHA = 1e-3


@dataclass(frozen=True)
class ChiSquareResult:
    statistic: float
    p_value: float
    dof: int
    cells: int
    inconclusive: bool

    def rejects(self, alpha: float = ALPHA) -> bool:
        return not self.inconclusive and self.p_value < alpha


def _merge_order(weights: np.ndarray) -> np.ndarray:
    # descending weight, ties broken by original index for determinism
    return np.lexsort((np.arange(len(weights)), -weights))


def chi_square(
    observed, expected_probs, min_cell: int = 5
) -> ChiSquareResult:
    """Goodness-of-fit test with deterministic sparse-cell pooling.

    Cells are visited in descending expected probability; a cell whose
    expected count falls below min_cell is pooled with everything after it.
    """
    obs = np.asarray(observed, dtype=float)
    probs = np.asarray(expected_probs, dtype=float)
    if obs.shape != probs.shape:
        raise ValueError("observed and expected shapes differ")
    total = obs.sum()
    if total <= 0:
        raise ValueError("no observations")
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("expected probabilities must sum to 1")

    order = _merge_order(probs)
    merged_obs: list[float] = []
    merged_exp: list[float] = []
    pool_obs = 0.0
    pool_exp = 0.0
    pooling = False
    for idx in order:
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
    stat = float(
        sum((o - e) ** 2 / e for o, e in zip(merged_obs, merged_exp) if e > 0)
    )
    dof = cells - 1
    return ChiSquareResult(stat, float(_sps.chi2.sf(stat, dof)), dof, cells, False)


def chi_square_homogeneity(
    counts_a, counts_b, min_cell: int = 5
) -> ChiSquareResult:
    """Two-sample test that both count vectors share one category law.

    Categories are pooled in descending combined-count order until each
    expected cell clears min_cell in both rows.
    """
    a = np.asarray(counts_a, dtype=float)
    b = np.asarray(counts_b, dtype=float)
    if a.shape != b.shape:
        raise ValueError("count vectors must align on the same categories")
    na, nb = a.sum(), b.sum()
    if na <= 0 or nb <= 0:
        raise ValueError("both samples must be nonempty")

    combined = a + b
    order = _merge_order(combined)
    share_a = na / (na + nb)
    cells_a: list[float] = []
    cells_b: list[float] = []
    pool_a = pool_b = 0.0
    pooling = False
    for idx in order:
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
    dof = k - 1
    return ChiSquareResult(float(stat), float(_sps.chi2.sf(stat, dof)), dof, k, False)


@dataclass(frozen=True)
class KsResult:
    statistic: float
    p_value: float

    def rejects(self, alpha: float = ALPHA) -> bool:
        return self.p_value < alpha


def ks_test(sample, cdf) -> KsResult:
    """One-sample Kolmogorov-Smirnov against a callable cdf."""
    arr = np.asarray(sample, dtype=float)
    if arr.size == 0:
        raise ValueError("empty sample")
    res = _sps.kstest(arr, cdf)
    return KsResult(float(res.statistic), float(res.pvalue))


def ks_distance(sample_a, sample_b) -> float:
    """Two-sample sup-distance between empirical distribution functions.

    Equal to ``scipy.stats.ks_2samp(a, b).statistic`` without its p-value:
    in its default mode, up to 10,000 points a side, scipy rounds the
    distance to the nearest multiple of 1 / lcm(n_a, n_b), and so does this.
    """
    a = np.sort(np.asarray(sample_a, dtype=float))
    b = np.sort(np.asarray(sample_b, dtype=float))
    n_a, n_b = a.size, b.size
    if not (n_a and n_b):
        raise ValueError("empty sample")
    both = np.concatenate([a, b])
    diff = np.searchsorted(a, both, side="right") / n_a - np.searchsorted(b, both, side="right") / n_b
    d = float(np.abs(diff).max())
    if max(n_a, n_b) <= 10_000:
        lcm = n_a // math.gcd(n_a, n_b) * n_b
        d = round(d * lcm) / lcm
    return d


@dataclass(frozen=True)
class PoissonMomentResult:
    passed: bool
    mean: float
    variance: float
    target: float
    mean_tolerance: float
    variance_tolerance: float


def poisson_mean_test(counts, target_mean: float) -> PoissonMomentResult:
    """Moment check of a Poisson count sample against a known mean.

    Passes iff the sample mean is within 3 standard errors of the target
    and the sample variance within 5 standard errors of its Poisson value.
    """
    arr = np.asarray(counts, dtype=float)
    if arr.size == 0:
        raise ValueError("empty sample")
    reps = arr.size
    mean = float(arr.mean())
    var = float(arr.var(ddof=1)) if reps > 1 else 0.0
    mean_tol = 3.0 * math.sqrt(target_mean / reps)
    var_tol = 5.0 * math.sqrt(2.0 * target_mean**2 / reps + target_mean / reps)
    ok = abs(mean - target_mean) <= mean_tol and abs(var - target_mean) <= var_tol
    return PoissonMomentResult(ok, mean, var, target_mean, mean_tol, var_tol)
