"""Test statistics shared by the acceptance drivers.

Everything here is a pure function of its input data; randomness stays in
the samplers.  The suite-wide significance level is ALPHA; moment tests use
the explicit standard-error windows stated with them.

scipy.stats is loaded at the first p-value (chi_square,
chi_square_homogeneity, ks_test), not at import: it costs several times the
rest of the package, and the simulation paths never read it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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


def _scipy_stats():
    from scipy import stats

    return stats


def _pool_cells(weights, columns, key, min_cell) -> list[list[float]]:
    """Cells of ``columns`` (one array per row of the table), with sparse
    ones pooled deterministically.

    Cells are visited in descending weight, ties by original index.  A cell
    is kept while key(its values) is at least min_cell; the first that falls
    short is pooled with everything after it.  The pool stands as its own
    cell if its key clears min_cell or nothing was kept, and joins the last
    kept cell otherwise.
    """
    kept: list[list[float]] = []
    pool = [0.0] * len(columns)
    pooling = False
    for idx in np.lexsort((np.arange(len(weights)), -weights)):
        cell = [float(col[idx]) for col in columns]
        if not pooling and key(*cell) >= min_cell:
            kept.append(cell)
        else:
            pooling = True
            pool = [p + x for p, x in zip(pool, cell)]
    if pooling:
        if key(*pool) >= min_cell or not kept:
            kept.append(pool)
        else:
            kept[-1] = [k + p for k, p in zip(kept[-1], pool)]
    return kept


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
    for name, arr in (("observed counts", obs), ("expected probabilities", probs)):
        if not np.all(np.isfinite(arr) & (arr >= 0)):
            raise ValueError(f"{name} must be finite and >= 0")
    total = obs.sum()
    if total <= 0:
        raise ValueError("no observations")
    if abs(probs.sum() - 1.0) > 1e-9:
        raise ValueError("expected probabilities must sum to 1")

    merged = _pool_cells(probs, (obs, probs * total), lambda o, e: e, min_cell)
    cells = len(merged)
    if cells < 2:
        return ChiSquareResult(math.nan, math.nan, 0, cells, inconclusive=True)
    stat = float(sum((o - e) ** 2 / e for o, e in merged if e > 0))
    dof = cells - 1
    return ChiSquareResult(stat, float(_scipy_stats().chi2.sf(stat, dof)), dof, cells, False)


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
    for name, arr in (("counts_a", a), ("counts_b", b)):
        if not np.all(np.isfinite(arr) & (arr >= 0)):
            raise ValueError(f"{name} must be finite and >= 0")
    na, nb = a.sum(), b.sum()
    if na <= 0 or nb <= 0:
        raise ValueError("both samples must be nonempty")

    share_a = na / (na + nb)
    # the smaller expected count of a cell: rounding is monotone, so this is
    # min(total * share_a, total * (1 - share_a)) exactly
    minor = min(share_a, 1.0 - share_a)
    cells = _pool_cells(a + b, (a, b), lambda x, y: (x + y) * minor, min_cell)
    k = len(cells)
    if k < 2:
        return ChiSquareResult(math.nan, math.nan, 0, k, inconclusive=True)
    stat = 0.0
    for oa, ob in cells:
        tot = oa + ob
        ea = tot * share_a
        eb = tot * (1.0 - share_a)
        stat += (oa - ea) ** 2 / ea + (ob - eb) ** 2 / eb
    dof = k - 1
    return ChiSquareResult(float(stat), float(_scipy_stats().chi2.sf(stat, dof)), dof, k, False)


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
    res = _scipy_stats().kstest(arr, cdf)
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
    for name, arr in (("sample_a", a), ("sample_b", b)):
        if np.isnan(arr[-1]):  # sorted: a NaN sorts last
            raise ValueError(f"{name} holds NaN")
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
    if not 0.0 <= target_mean < math.inf:  # NaN fails too
        raise ValueError(f"target_mean must be finite and >= 0, got {target_mean!r}")
    reps = arr.size
    mean = float(arr.mean())
    var = float(arr.var(ddof=1)) if reps > 1 else 0.0
    mean_tol = 3.0 * math.sqrt(target_mean / reps)
    var_tol = 5.0 * math.sqrt(2.0 * target_mean**2 / reps + target_mean / reps)
    ok = abs(mean - target_mean) <= mean_tol and abs(var - target_mean) <= var_tol
    return PoissonMomentResult(ok, mean, var, target_mean, mean_tol, var_tol)
