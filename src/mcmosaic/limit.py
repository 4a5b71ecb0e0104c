"""Diffusion-limit path sampling and finite-size convergence experiments.

The limit object is a Brownian path with parabolic drift plus an optional
compensated jump part, reflected at its running minimum.  Excursion lengths
of the reflected path play the role of component masses; mark counts are
Poisson in the area under each excursion.

Grid discretization: drift and jump terms are evaluated exactly at grid
times (jump times are inserted into the grid), only the Brownian increments
are approximate.  An excursion closes when the reflected path spends two
consecutive grid points at or below epsilon = 10*sqrt(kappa*h).
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from numbers import Integral

import numpy as np

from .core import RngStream, WeightedConfig
from .stats import ks_distance
from .walk import chunk_rows, component_stats

__all__ = [
    "LimitParams",
    "VPath",
    "GridPath",
    "ExcursionMarks",
    "sample_Vc",
    "sample_limit_path",
    "excursions_and_marks",
    "hypothesis_report",
    "sample_limit_reference",
    "scaling_experiment",
]


@dataclass(frozen=True)
class LimitParams:
    """Parameter triple (kappa, tau, t) plus the truncated jump-size list c.

    kappa = 0 is allowed but flagged approximate: a finite c is always
    square-summable, which that regime formally excludes.
    """

    kappa: float
    tau: float = 0.0
    t: float = 0.0
    c: tuple[float, ...] = ()

    def __post_init__(self):
        if not (math.isfinite(self.kappa) and self.kappa >= 0.0):
            raise ValueError("kappa must be finite and nonnegative")
        if not (math.isfinite(self.tau) and math.isfinite(self.t)):
            raise ValueError("tau and t must be finite")
        if any(cj < 0 or not math.isfinite(cj) for cj in self.c):
            raise ValueError("c entries must be finite and nonnegative")
        for prev, cur in zip(self.c, self.c[1:]):
            if cur > prev * (1.0 + 1e-12):
                raise ValueError("c must be nonincreasing")

    @property
    def approximate(self) -> bool:
        return self.kappa == 0.0

    def default_horizon(self) -> float:
        if self.kappa > 0.0:
            return 4.0 * (abs(self.t) + abs(self.tau) + 1.0) / self.kappa
        raise ValueError("kappa=0 requires an explicit horizon")

    def epsilon(self, h: float) -> float:
        return 10.0 * math.sqrt(self.kappa * h)


@dataclass(frozen=True)
class VPath:
    """Compensated jump part: jumps c_j at Exp(c_j) times minus linear drift."""

    jump_times: tuple[float, ...]
    jump_sizes: tuple[float, ...]
    drift: float


def sample_Vc(c: tuple[float, ...], rng: RngStream) -> VPath:
    """One jump-time draw per positive entry of c; drift is sum of c_j**2.

    Every jump time is kept, however late, so the path object stays exact;
    the grid sampler inserts only those inside its grid.
    """
    gen = rng.named("limit-vjumps").generator()
    pairs = []
    for cj in c:
        if cj > 0.0:
            pairs.append((float(gen.exponential(1.0 / cj)), cj))
    pairs.sort()
    return VPath(
        jump_times=tuple(t for t, _ in pairs),
        jump_sizes=tuple(x for _, x in pairs),
        drift=math.fsum(cj * cj for cj in c),
    )


@dataclass(frozen=True, eq=False)
class GridPath:
    epsilon: float
    times: np.ndarray
    w: np.ndarray
    b: np.ndarray


def _grid(params: LimitParams, h: float, horizon: float | None) -> np.ndarray:
    """Step-h grid times 0, h, 2h, ... reaching the horizon S (by default
    params.default_horizon()): ceil(S / h - 1e-9) steps."""
    if not 0.0 < h < math.inf:  # NaN fails too
        raise ValueError(f"h must be positive and finite, got {h!r}")
    S = params.default_horizon() if horizon is None else horizon
    if not 0.0 < S < math.inf:
        raise ValueError(f"horizon must be positive and finite, got {S!r}")
    if not S / h < sys.maxsize:  # inf fails too
        raise ValueError(f"h = {h!r} is too small for the horizon {S!r}: S / h = {S / h!r} steps")
    return h * np.arange(int(math.ceil(S / h - 1e-9)) + 1)


def _drift(params: LimitParams, times: np.ndarray) -> np.ndarray:
    """Parabolic drift (t - tau) s - kappa s**2 / 2 at the given times."""
    return (params.t - params.tau) * times - 0.5 * params.kappa * times * times


def sample_limit_path(
    params: LimitParams,
    rng: RngStream,
    h: float,
    horizon: float | None = None,
    *,
    vc: VPath | None = None,
    normals=None,
) -> GridPath:
    """Reflected limit path on a step-h grid with exact jump insertion.

    normals, when given, supplies the per-segment standard normal draws
    (one per merged-grid step) — the hook for common-random-number
    discretization checks.
    """
    base = _grid(params, h, horizon)
    if vc is None:
        vc = sample_Vc(params.c, rng)
    jt = np.asarray([t for t in vc.jump_times if 0.0 < t <= base[-1]])
    times = np.union1d(base, jt) if jt.size else base
    dt = np.diff(times)
    if normals is None:
        z = rng.named("limit-brownian").generator().standard_normal(len(dt))
    else:
        z = np.asarray(normals, dtype=float)
        if z.shape != dt.shape:
            raise ValueError(f"need {len(dt)} normals, got {z.shape}")
    bm = np.concatenate([[0.0], np.cumsum(np.sqrt(params.kappa * dt) * z)])

    if vc.jump_times:
        jtimes = np.asarray(vc.jump_times)
        csizes = np.concatenate([[0.0], np.cumsum(vc.jump_sizes)])
        jump_part = csizes[np.searchsorted(jtimes, times, side="right")]
    else:
        jump_part = 0.0
    w = bm + _drift(params, times) + jump_part - vc.drift * times
    b = w - np.minimum.accumulate(w)
    return GridPath(epsilon=params.epsilon(h), times=times, w=w, b=b)


@dataclass(frozen=True, eq=False)
class ExcursionMarks:
    """Excursion lengths sorted descending, with aligned mark counts and areas."""

    lengths: np.ndarray
    counts: np.ndarray
    areas: np.ndarray


def _excursion_intervals(b: np.ndarray, eps: float):
    """Excursions of every row of ``b`` as index arrays (row, lo, hi).

    Each row of ``b`` is one path followed by two zero pad columns.  A
    detection opens at an above-epsilon point whose gap from the previous
    above-epsilon point of its row is at least 3 (the first one of a row
    always opens), and closes at the two-below pair that follows its last
    above-epsilon point.  Its ends then widen to the nearest exact zeros of
    b: the last zero before the opening point and the first zero at or after
    the closing pair, clipped to the path.  Detections sharing one widened
    interval collapse into one.  The pad columns make the last excursion of a
    row close and separate it from the next row, so one flattened pass serves
    every row.  Intervals come in row order, and in time order within a row.
    """
    rows, width = b.shape
    n = width - 2
    flat = b.ravel()
    above = np.flatnonzero(flat > eps)
    first = above[np.diff(above, prepend=-3) >= 3]
    last = above[np.diff(above, append=flat.size + 2) >= 3]
    zeros = np.flatnonzero(flat == 0.0)
    k = np.searchsorted(zeros, first)
    row = first // width
    start = row * width
    lo = np.where(k > 0, zeros[k - 1], 0)  # only row 0 can lack an earlier zero
    hi = zeros[np.searchsorted(zeros, last + 1)]
    lo = np.maximum(lo, start) - start
    hi = np.minimum(hi - start, n - 1)
    new = np.ones(row.size, dtype=bool)
    new[1:] = (row[1:] != row[:-1]) | (lo[1:] != lo[:-1]) | (hi[1:] != hi[:-1])
    return row[new], lo[new], hi[new]


def _read_excursions(b: np.ndarray, times: np.ndarray, eps: float, cum=None):
    """(row, length, area) of every excursion of every padded row of ``b``, in
    the order of _excursion_intervals.  Areas are differences of one
    cumulative trapezoid per row, built in ``cum`` when given (one row of
    len(times) columns per row of b, overwritten) and in a new array if not."""
    row, lo, hi = _excursion_intervals(b, eps)
    cum = np.empty((b.shape[0], times.size)) if cum is None else cum
    steps = np.add(b[:, 1:-2], b[:, :-3], out=cum[:, 1:])
    steps *= np.diff(times)  # (b[i - 1] + b[i]) dt / 2 in place, the same doubles
    steps /= 2.0
    np.cumsum(steps, axis=1, out=steps)
    cum[:, 0] = 0.0
    return row, times[hi] - times[lo], cum[row, hi] - cum[row, lo]


def excursions_and_marks(path: GridPath, rng) -> ExcursionMarks:
    """Excursions of the reflected path and Poisson(area) mark draws.

    Detection uses epsilon: an excursion is seen when b exceeds epsilon and
    closes once b drops back below it for two consecutive grid points.  Its
    endpoints are then widened to the nearest exact zeros of b — the
    running-minimum epochs, where the reflection construction yields 0.0
    exactly — so reported lengths estimate the underlying excursion rather
    than its above-epsilon core.  Bumps never reaching epsilon are noise by
    assumption and are dropped; detections sharing the same zero-to-zero
    interval collapse into one excursion.  Areas are trapezoid-rule
    integrals of b between the widened ends.

    rng may be an RngStream or a numpy Generator; pass a Generator when
    calling repeatedly so the mark stream advances across calls.
    """
    gen = rng.named("limit-marks").generator() if isinstance(rng, RngStream) else rng
    _, len_arr, area_arr = _read_excursions(np.pad(path.b, (0, 2))[None, :], path.times, path.epsilon)
    counts = gen.poisson(area_arr)
    order = np.argsort(-len_arr, kind="stable")
    return ExcursionMarks(len_arr[order], counts[order], area_arr[order])


def hypothesis_report(masses, kappa: float = 1.0, c: tuple[float, ...] = (), rtol: float = 0.05) -> dict:
    """Moment checks a finite configuration should satisfy to approach the limit.

    Reports sigma moments, the third-to-second-cubed ratio against
    kappa + sum(c_j^3), and the leading scaled masses against c.
    ValueError, as from ``WeightedConfig``, unless there is at least one
    mass and every mass is finite and > 0; as from ``LimitParams``, unless
    kappa and c are finite, nonnegative and c nonincreasing; and unless
    rtol is finite and >= 0.
    """
    m = np.sort(WeightedConfig(tuple(masses)).as_array())[::-1]
    c = LimitParams(kappa=kappa, c=tuple(c)).c
    if not 0.0 <= rtol < math.inf:
        raise ValueError(f"rtol must be finite and >= 0, got {rtol!r}")
    s1 = float(m.sum())
    s2 = float((m**2).sum())
    s3 = float((m**3).sum())
    target = kappa + math.fsum(cj**3 for cj in c)
    ratio = s3 / s2**3
    warnings = []
    if abs(ratio - target) > rtol * max(target, 1e-12):
        warnings.append(
            f"third-moment ratio {ratio:.6g} is far from its target {target:.6g}"
        )
    lead = c if c else (0.0,)
    for j, cj in enumerate(lead):
        if j >= len(m):
            break
        scaled = float(m[j] / s2)
        if abs(scaled - cj) > rtol * (1.0 + cj):
            warnings.append(
                f"scaled mass #{j + 1} is {scaled:.6g}, target {cj:.6g}"
            )
    return {
        "sigma1": s1,
        "sigma2": s2,
        "sigma3": s3,
        "ratio": ratio,
        "ratio_target": target,
        "c_truncation_cubed": float(math.fsum(cj**3 for cj in c)),
        "warnings": warnings,
    }


def _require_count(name: str, value) -> None:
    """ValueError unless ``value`` is an integer >= 1 (bools excluded)."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        raise ValueError(f"{name} must be an integer >= 1, got {value!r}")


def sample_limit_reference(
    params: LimitParams,
    rng: RngStream,
    h: float,
    reps: int,
    horizon: float | None = None,
) -> dict:
    """Largest and second excursion lengths, and the largest one's mark count,
    over many limit paths, with the h and params they were drawn at.

    Reads excursions a chunk of paths at a time for c = (), one path at a
    time otherwise.  Marks are drawn once, one Poisson(area of the largest
    excursion) per path.  Paths with no excursion contribute length 0 and
    count 0.  ``reps`` must be an integer >= 1 (ValueError otherwise).
    """
    _require_count("reps", reps)
    largest = np.zeros(reps)
    second = np.zeros(reps)
    area = np.zeros(reps)

    def read(r0: int, b: np.ndarray, times: np.ndarray, eps: float, cum=None) -> None:
        row, length, ar = _read_excursions(b, times, eps, cum)
        # rows in order, longest first within a row, earliest first on ties
        order = np.lexsort((-length, row))
        row, length, ar = row[order], length[order], ar[order]
        top = np.flatnonzero(np.diff(row, prepend=-1))
        largest[r0 + row[top]] = length[top]
        two = top[np.diff(np.append(top, row.size)) > 1]
        second[r0 + row[two]] = length[two + 1]
        area[r0 + row[top]] = ar[top]

    if params.c:
        for r in range(reps):
            path = sample_limit_path(params, rng.indexed(r), h, horizon)
            read(r, np.pad(path.b, (0, 2))[None, :], path.times, path.epsilon)
    else:
        times = _grid(params, h, horizon)
        drift = _drift(params, times)
        gen = rng.named("limit-brownian").generator()
        scale = math.sqrt(params.kappa * h)
        points = times.size
        chunks = chunk_rows(reps, points)
        # the walk, padded for the excursion reader, and one work buffer for
        # the normals, the running minimum and the trapezoid, for every chunk
        walk = np.zeros((chunks[0], points + 2))
        work = np.empty((chunks[0], points))
        done = 0
        for rows in chunks:
            padded, buf = walk[:rows], work[:rows]
            w = padded[:, :points]
            z = gen.standard_normal(out=buf.reshape(-1)[: rows * (points - 1)].reshape(rows, -1))
            np.cumsum(np.multiply(z, scale, out=z), axis=1, out=w[:, 1:])
            w += drift
            np.fmin.accumulate(w, axis=1, out=buf)  # w holds no NaN
            np.subtract(w, buf, out=w)  # reflected in place
            read(done, padded, times, params.epsilon(h), buf)
            done += rows
    marks = rng.named("limit-marks").generator().poisson(area)
    return {"largest": largest, "second": second, "marks": marks, "h": h, "params": params}


def scaling_experiment(
    n_values,
    t: float,
    reps: int,
    rng: RngStream,
    *,
    reference: dict,
    h: float = 1e-3,
    include_marks: bool = True,
    sequences: dict | None = None,
) -> dict:
    """Compare finite-n component laws at the critical horizon to the limit.

    For each n the walk runs at horizon q = t + 1/sigma2; the largest
    component mass (and, via the area shortcut, its surplus count) is
    compared by two-sample sup-distance to ``reference``, a
    sample_limit_reference result for kappa=1, tau=0, the same t and c=()
    and the same ``h`` (ValueError otherwise).  The finite-n side is the
    noisy one at usual sizes, so one large reference shared by many calls
    sharpens every comparison at no per-call cost.
    Mass sequences default to the standard n**(-2/3) profile; ``reps`` and
    each n must be integers >= 1, and a given ``sequences[n]`` must hold n
    finite positive masses (ValueError otherwise).  A ``sequences`` key not
    in ``n_values`` raises ValueError too: no size would read it, so the
    sequence meant for it would be silently dropped.  So does a repeated
    size, whose rows would pool its samples.

    Every n, standard or given, reads the first n columns of one pool of
    unit exponentials per chunk of replications (stream "scaling-coupled")
    through walk.component_stats; the surplus counts of each n come from
    stream "scaling-{n}".  The empirical laws ride on common noise while
    every marginal stays exact, and the common noise cancels out of
    distance differences, which makes the convergence ordering resolvable
    at moderate replication counts.
    """
    params = LimitParams(kappa=1.0, tau=0.0, t=t, c=())
    _require_count("reps", reps)
    sequences = sequences or {}
    stray = [k for k in sequences if k not in n_values]
    if stray:
        raise ValueError(f"sequences keys {stray} are not in n_values {tuple(n_values)}")
    if len(set(n_values)) != len(n_values):
        raise ValueError(f"n_values {tuple(n_values)} repeat a size")
    for n in n_values:
        _require_count("n", n)
        if n in sequences and len(sequences[n]) != n:
            raise ValueError(f"sequences[{n}] holds {len(sequences[n])} masses, not {n}")
    mass, s2, q, warnings = {}, {}, {}, {}
    for n in n_values:
        if n in sequences:
            masses = WeightedConfig(tuple(sequences[n])).masses
            mass[n] = np.asarray(masses)
            s2[n] = float(sum(x * x for x in masses))
            warnings[n] = hypothesis_report(masses, kappa=1.0, c=())["warnings"]
        else:
            mass[n] = n ** (-2.0 / 3.0)
            s2[n] = n * mass[n] * mass[n]
            warnings[n] = []
        q[n] = t + 1.0 / s2[n]
        if q[n] <= 0:
            raise ValueError(f"horizon t + 1/sigma2 = {q[n]} is not positive for n={n}")
    if (h, params) != (reference["h"], reference["params"]):
        raise ValueError(
            f"reference drawn at h={reference['h']}, {reference['params']}; "
            f"asked for h={h}, {params}"
        )

    gen = rng.named("scaling-coupled").generator()
    n_max = max(n_values)
    parts = {n: [] for n in n_values}
    for chunk in chunk_rows(reps, n_max):
        pool = gen.exponential(size=(chunk, n_max))
        for n in n_values:
            parts[n].append(component_stats(pool[:, :n], mass[n], q[n], include_marks))

    rows = []
    prev = None
    decreasing = True
    for n in n_values:
        d = {k: np.concatenate([p[k] for p in parts[n]]) for k in parts[n][0]}
        row = {
            "n": n,
            "sigma2": s2[n],
            "q": q[n],
            "ks_largest": ks_distance(d["largest"], reference["largest"]),
            "ks_second": ks_distance(d["second"], reference["second"]),
            "warnings": warnings[n],
        }
        if include_marks:
            marks = rng.named(f"scaling-{n}").generator()
            counts = marks.poisson(q[n] * d["largest_area"])
            row["ks_marks"] = ks_distance(counts, reference["marks"])
        if prev is not None and row["ks_largest"] >= prev:
            decreasing = False
        prev = row["ks_largest"]
        rows.append(row)
    return {
        "t": t,
        "h": h,
        "reps": reps,
        "limit_reps": len(reference["largest"]),
        "epsilon": params.epsilon(h),
        "rows": rows,
        "ks_decreasing": decreasing,
    }
