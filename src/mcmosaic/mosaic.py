"""Ornamented excursions: baselines, orders, replay, and slice areas.

One excursion of the reflected walk carries one baseline per rank.  The
root's baseline (active) spans the whole excursion at its floor; every other
rank's baseline (gray) sits at the walk value just before that rank's jump
and extends right for the total mass of the maximal run of ranks it absorbs
at the current horizon.  Baselines are stored with their reach set
("covers"): the later ranks whose diagonal jump lines the baseline meets.
A built reach set is the interval range(owner + 1, end + 1), so only its
end is stored.

Structural rules checked by validate:
  R1  no two baselines of an excursion share a level;
  R2  a baseline is one contiguous segment anchored at its owner's jump;
  R3  reach sets are gap-free and laminar, and each rank after the first is
      reached by an earlier baseline.

The reach sets order the ranks (owner above everything it reaches); the
cover tree of that order plus a generation-major, index-descending tiebreak
gives a total order, and replay builds a merger trajectory realizing it.
Gap-free reach sets are intervals and laminar intervals nest, so R3 and the
cover tree are one stack pass over the (owner, end) pairs.

The per-rank geometry at a horizon (reach ends, extents and parallelogram
rows) lives on the trajectory's level view there (dynamics._Level), beside
the log prefix and the one WalkPath (its troughs are the levels) it reads.
The trajectory keeps one view, so build_mosaic, slice_decomposition and the
SVG renderer at one horizon share one walk and one pass; they read it
through _Level.at, which checks the horizon, as the surplus readers do.
Per-element records (Baseline, OrnamentedExcursion, Slice, Parallelogram)
are named tuples built positionally, as the per-element records of the other
modules are; per-call containers (HasseOrders) stay frozen dataclasses.
build_mosaic wraps its rows in Baselines, slice_decomposition in Slices and
Parallelograms; the SVG renderer reads them directly.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from .core import ClockAssignment, RngStream, WeightedConfig, check_positive
from .dynamics import Trajectory, _Level, run_trajectory

__all__ = [
    "Baseline",
    "OrnamentedExcursion",
    "HasseOrders",
    "Parallelogram",
    "Slice",
    "build_mosaic",
    "validate",
    "orders",
    "replay",
    "slice_decomposition",
    "same_shape",
]


class Baseline(NamedTuple):
    """Horizontal decoration owned by one rank of an excursion.

    level is the raw walk value just before the owner's jump; pieces are the
    horizontal extent segments (a well-formed baseline has exactly one).
    Either geometric field may be None in hand-built combinatorial fixtures.
    covers lists the ranks whose jump diagonals the baseline reaches: a
    built baseline stores range(owner_rank + 1, end + 1), i.e. its reach
    end, and a hand-built one any sorted tuple of ranks.
    """

    owner_rank: int
    status: str  # "active" | "gray"
    level: float | None
    pieces: tuple[tuple[float, float], ...] | None
    covers: Sequence[int]


class OrnamentedExcursion(NamedTuple):
    """One excursion with its per-rank baselines; ``len()`` is its rank
    count."""

    q: float
    rank_lo: int
    rank_hi: int
    vertices: tuple[int, ...]
    masses: tuple[float, ...]
    positions: tuple[float, ...] | None
    baselines: tuple[Baseline, ...]

    def __len__(self) -> int:
        return self.rank_hi - self.rank_lo + 1

    @property
    def floor(self) -> float | None:
        return self.baselines[0].level

    @classmethod
    def from_covers(
        cls,
        masses: tuple[float, ...],
        covers: dict[int, tuple[int, ...]],
        q: float = 1.0,
    ) -> "OrnamentedExcursion":
        """Combinatorial-only excursion on local ranks 0..n-1, root 0.

        covers maps a rank to the ranks its baseline reaches; rank 0
        defaults to reaching everything, and a key outside 0..n-1 raises,
        as do no masses and a mass or q that is not finite and > 0.  No
        geometry is attached.
        """
        WeightedConfig(masses)  # built for its mass checks only
        check_positive("q", q)
        n = len(masses)
        if not set(covers) <= set(range(n)):
            raise ValueError(f"cover keys must be ranks 0..{n - 1}, got {list(covers)}")
        full = {0: tuple(range(1, n))}
        full.update({r: tuple(sorted(covers.get(r, ()))) for r in range(1, n)})
        if 0 in covers:
            full[0] = tuple(sorted(covers[0]))
        baselines = tuple(
            Baseline(r, "active" if r == 0 else "gray", None, None, full[r]) for r in range(n)
        )
        return cls(q, 0, n - 1, tuple(range(n)), tuple(masses), None, baselines)


# namedtuple's _make checks len() against the field count; _replace calls it
OrnamentedExcursion._make = classmethod(tuple.__new__)


def build_mosaic(trajectory: Trajectory, q: float) -> list[OrnamentedExcursion]:
    """One ornamented excursion per component of the walk at horizon q."""
    g = _Level.at(trajectory, q)
    pos, level, sizes, perm = g.walk.jump_times, g.walk.troughs, g.sizes, g.clocks.perm
    reach, extent_end = g.reach, g.extent_end
    out = []
    for block in g.blocks:
        lo, end = block.lo, block.hi + 1
        baselines = tuple(
            Baseline(
                j, "active" if j == lo else "gray", level[j],
                ((pos[j], extent_end[j]),), range(j + 1, reach[j] + 1),
            )
            for j in range(lo, end)
        )
        masses = tuple(sizes[lo:end])
        out.append(OrnamentedExcursion(q, lo, end - 1, perm[lo:end], masses, pos[lo:end], baselines))
    return out


def validate(excursion: OrnamentedExcursion) -> list[str]:
    """Violation report; empty list means the excursion is well formed.

    Geometric rules (R1 levels, R2 extents) are checked where the data is
    present; the reach rule (R3) is always checked.
    """
    return _checked(excursion)[0]


def _checked(excursion: OrnamentedExcursion) -> tuple[list[str], dict[int, int], dict[int, int]]:
    """validate's report, then the parent (innermost earlier baseline
    reaching the rank) and generation of every rank, read off R3's stack
    pass; the two maps are the cover tree only when the report is empty."""
    problems: list[str] = []
    lo = excursion.rank_lo
    scale = math.fsum(excursion.masses)

    seen: dict[float, int] = {}
    for b in excursion.baselines:
        if b.level is None:
            continue
        if b.level in seen:
            problems.append(
                f"R1 (distinct levels): ranks {seen[b.level]} and {b.owner_rank} "
                f"share level {b.level}"
            )
        else:
            seen[b.level] = b.owner_rank

    for b in excursion.baselines:
        if b.pieces is None:
            continue
        if len(b.pieces) != 1:
            problems.append(
                f"R2 (contiguous extent): baseline of rank {b.owner_rank} "
                f"breaks into {len(b.pieces)} pieces"
            )
            continue
        a0, a1 = b.pieces[0]
        if not a1 > a0:
            problems.append(
                f"R2 (contiguous extent): baseline of rank {b.owner_rank} "
                f"has empty extent"
            )
        if excursion.positions is not None:
            anchor = excursion.positions[b.owner_rank - lo]
            if abs(a0 - anchor) > 1e-9 * scale:
                problems.append(
                    f"R2 (contiguous extent): baseline of rank {b.owner_rank} "
                    f"starts at {a0}, away from its jump at {anchor}"
                )

    ends: dict[int, int] = {}
    intervals = True
    for b in excursion.baselines:
        end = _reach_end(b)
        if end is not None:
            ends[b.owner_rank] = end
            continue
        intervals = False
        reach = set(b.covers)
        top = max(reach)
        missing = sorted(set(range(b.owner_rank + 1, top + 1)) - reach)
        if missing:
            problems.append(
                f"R3 (gap-free reach): baseline of rank {b.owner_rank} reaches "
                f"rank {top} but skips {missing}"
            )
        else:
            problems.append(
                f"R3 (gap-free reach): baseline of rank {b.owner_rank} reaches "
                f"ranks {sorted(r for r in reach if r <= b.owner_rank)} at or before itself"
            )
    if not intervals:
        return problems, {}, {}  # laminarity is checked on intervals only
    # intervals nest iff each rank's reach ends inside the innermost open
    # interval that holds it, its parent; the open intervals form a stack,
    # empty only at the first rank (a rank with no baseline reaches none)
    stack: list[int] = []
    parent: dict[int, int] = {}
    gen: dict[int, int] = {}
    for k in range(lo, excursion.rank_hi + 1):
        ends.setdefault(k, k)
        while stack and ends[stack[-1]] < k:
            stack.pop()
        if stack:
            j = parent[k] = stack[-1]
            gen[k] = gen[j] + 1
            if ends[k] > ends[j]:
                problems.append(
                    f"R3 (laminar reach): rank {j} reaches rank {k} but not "
                    f"{list(range(ends[j] + 1, ends[k] + 1))}, which rank {k} reaches"
                )
        else:
            gen[k] = 0
            if k > lo:
                problems.append(f"R3 (reached rank): rank {k} is reached by no earlier baseline")
        stack.append(k)
    return problems, parent, gen


def _reach_end(b: Baseline) -> int | None:
    """Last rank of b's reach if it is the interval owner+1..end (the owner
    itself if empty); None for any other set of ranks."""
    j, c = b.owner_rank, b.covers
    if isinstance(c, range):  # constant time: ranges compare by start, step, length
        return j + len(c) if c == range(j + 1, j + 1 + len(c)) else None
    reach = set(c)
    return j + len(reach) if reach == set(range(j + 1, j + 1 + len(reach))) else None


@dataclass(frozen=True)
class HasseOrders:
    """Cover tree of the reach order plus its total-order linearization.

    sequence lists non-root ranks from the greatest element down:
    generation-major, descending rank inside a generation.  Reversing it
    gives the order in which replay absorbs blocks.
    """

    root_rank: int
    parents: tuple[tuple[int, int], ...]
    generations: tuple[tuple[int, int], ...]
    sequence: tuple[int, ...]

    def coalescence_order(self) -> tuple[int, ...]:
        return tuple(reversed(self.sequence))


def orders(excursion: OrnamentedExcursion) -> HasseOrders:
    problems, parent, gen = _checked(excursion)
    if problems:
        raise ValueError("invalid ornamented excursion: " + "; ".join(problems))
    lo, hi = excursion.rank_lo, excursion.rank_hi
    return HasseOrders(
        root_rank=lo,
        parents=tuple(sorted(parent.items())),
        generations=tuple(sorted(gen.items())),
        sequence=tuple(sorted(range(lo + 1, hi + 1), key=lambda r: (gen[r], -r))),
    )


def _sequence_positions(excursion: OrnamentedExcursion, parent: dict, seq: tuple) -> tuple:
    """Jump positions realizing the excursion with mergers in the order seq
    (its orders' coalescence_order, with their cover-tree parents).

    Absorption times are spaced geometrically toward the horizon; the ratio
    is small enough that every non-absorption candidate always fires later,
    so the merger engine reproduces the reversed total order exactly.
    """
    lo, hi = excursion.rank_lo, excursion.rank_hi
    masses = excursion.masses

    total = math.fsum(masses)
    m_min = min(masses)
    gamma = m_min / (2.0 * (total + m_min))
    if seq and gamma ** (len(seq) + 1) < 1e-12:
        raise ValueError(
            "excursion too long for combinatorial replay: the geometric "
            "time spacing underflows"
        )
    phase = {r: 1.0 - 0.5 * gamma ** (i + 1) for i, r in enumerate(seq)}

    prefix = list(accumulate(masses, initial=0.0))

    pos = {lo: 0.25 * m_min}
    for r in range(lo + 1, hi + 1):
        p = parent[r]
        pos[r] = pos[p] + phase[r] * (prefix[r - lo] - prefix[p - lo])
    return tuple(pos[r] for r in range(lo, hi + 1))


def replay(excursion: OrnamentedExcursion) -> Trajectory:
    """Merger trajectory whose mosaic at q reproduces the excursion.

    With geometry present the jump positions are reused as clocks
    q * position, so they come back up to one rounding (same_shape's
    tolerance).  Without geometry, positions are synthesized so that blocks
    merge in the reversed total order.
    """
    q, positions = excursion.q, excursion.positions
    if positions is None:
        od = orders(excursion)  # validates
        seq = od.coalescence_order()
        positions = _sequence_positions(excursion, dict(od.parents), seq)
    elif problems := validate(excursion):
        raise ValueError("invalid ornamented excursion: " + "; ".join(problems))
    config = WeightedConfig(excursion.masses)
    clocks = ClockAssignment.from_xi(tuple(q * p for p in positions))
    trajectory = run_trajectory(config, clocks, RngStream(0), q_max=q)
    if excursion.positions is None and len(excursion) > 1:
        want = tuple(r - excursion.rank_lo for r in seq)
        got = tuple(ev.right.lo for ev in trajectory.events)
        assert got == want, f"replayed merger order {got} != {want}"
    return trajectory


def same_shape(a: OrnamentedExcursion, b: OrnamentedExcursion) -> bool:
    """Geometric identity relative to each excursion's own start and floor.

    Masses agree to 1e-12 of the larger total mass; levels, extents and
    positions to 1e-12 of the largest of those values in either excursion,
    since each carries the rounding of its own size (a level includes the
    mass of every earlier excursion, a position the clock's scale).
    """
    if len(a) != len(b):
        return False
    mass = max(math.fsum(a.masses), math.fsum(b.masses))
    if any(abs(x - y) > 1e-12 * mass for x, y in zip(a.masses, b.masses)):
        return False
    tol = 1e-12 * max(mass, _magnitude(a), _magnitude(b))
    for ba, bb in zip(a.baselines, b.baselines):
        if ba.status != bb.status:
            return False
        if _local_covers(ba, a.rank_lo) != _local_covers(bb, b.rank_lo):
            return False
        if ba.level is not None and bb.level is not None:
            if abs((ba.level - a.floor) - (bb.level - b.floor)) > tol:
                return False
        if ba.pieces is not None and bb.pieces is not None:
            if len(ba.pieces) != len(bb.pieces):
                return False
            sa = a.positions[0] if a.positions else 0.0
            sb = b.positions[0] if b.positions else 0.0
            for (x0, x1), (y0, y1) in zip(ba.pieces, bb.pieces):
                if abs((x0 - sa) - (y0 - sb)) > tol or abs((x1 - sa) - (y1 - sb)) > tol:
                    return False
    if a.positions is not None and b.positions is not None:
        pa, pb = a.positions[0], b.positions[0]
        for x, y in zip(a.positions, b.positions):
            if abs((x - pa) - (y - pb)) > tol:
                return False
    return True


def _magnitude(e: OrnamentedExcursion) -> float:
    """Largest absolute position, level or extent end of e (0.0 if none)."""
    values = [abs(x) for x in e.positions or ()]
    for b in e.baselines:
        if b.level is not None:
            values.append(abs(b.level))
        values += [abs(x) for piece in b.pieces or () for x in piece]
    return max(values, default=0.0)


def _local_covers(b: Baseline, lo: int) -> range | tuple[int, ...]:
    """b's reach shifted to the excursion start.  A run of consecutive ranks
    becomes a range, so two built baselines compare in constant time and a
    tuple compares equal to the range with the same elements."""
    c = b.covers
    if not (isinstance(c, range) and c.step == 1):
        run = range(c[0], c[0] + len(c)) if len(c) else range(0)
        if tuple(c) != tuple(run):
            return tuple(r - lo for r in c)
        c = run
    return range(c.start - lo, c.stop - lo)


class Parallelogram(NamedTuple):
    """One absorption's contribution to a rank's slice.

    Geometrically: the diagonal band of the slice's rank cut at the absorbed
    root's baseline level, of the stated height; slice_decomposition checks
    that top_level lies on that baseline.
    """

    activation: float
    absorbed_mass: float
    height: float
    area: float
    top_level: float


class Slice(NamedTuple):
    """Region under the excursion attributed to one rank.

    The triangle sits between the rank's baseline level and its jump top;
    intercept_lo/hi are the z+s values of the diagonal band boundaries
    (floor-relative coordinates).
    """

    owner_rank: int
    position: float
    base_mass: float
    base_level: float
    triangle_area: float
    intercept_lo: float
    intercept_hi: float
    parallelograms: tuple[Parallelogram, ...]

    def area(self) -> float:
        return self.triangle_area + math.fsum(p.area for p in self.parallelograms)


def slice_decomposition(trajectory: Trajectory, q: float) -> list[Slice]:
    """All per-rank slices of every excursion of the walk at horizon q."""
    g = _Level.at(trajectory, q)
    pos, sizes = g.walk.jump_times, g.sizes
    base_level, (intercept_lo, intercept_hi) = g.base_level, g.intercepts
    # positional: a named tuple built by keyword costs about twice as much
    return [
        Slice(
            l, pos[l], sizes[l], base_level[l], sizes[l] * sizes[l] / 2.0,
            intercept_lo[l], intercept_hi[l],
            tuple([
                Parallelogram(t, absorbed, height, height * sizes[l], top)
                for t, absorbed, top, height in rows
            ]),
        )
        for l, rows in enumerate(g.parallelograms)
    ]
