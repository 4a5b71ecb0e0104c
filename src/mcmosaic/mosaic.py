"""Ornamented excursions: baselines, orders, replay, and slice areas.

One excursion of the reflected walk carries one baseline per rank.  The
root's baseline (active) spans the whole excursion at its floor; every other
rank's baseline (gray) sits at the walk value just before that rank's jump
and extends right for the total mass of the maximal run of ranks it absorbs
at the current horizon.  Baselines are stored with their reach set
("covers"): the later ranks whose diagonal jump lines the baseline meets.

Structural rules checked by validate:
  R1  no two baselines of an excursion share a level;
  R2  a baseline is one contiguous segment anchored at its owner's jump;
  R3  reach sets are gap-free and laminar.

The reach sets order the ranks (owner above everything it reaches); the
cover tree of that order plus a generation-major, index-descending tiebreak
gives a total order, and replay builds a merger trajectory realizing it.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass

from .core import ClockAssignment, RngStream, WeightedConfig
from .dynamics import MergerEvent, Trajectory, run_trajectory
from .walk import WalkPath

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


@dataclass(frozen=True)
class Baseline:
    """Horizontal decoration owned by one rank of an excursion.

    level is the raw walk value just before the owner's jump; pieces are the
    horizontal extent segments (a well-formed baseline has exactly one).
    Either geometric field may be None in hand-built combinatorial fixtures.
    covers lists the ranks whose jump diagonals the baseline reaches.
    """

    owner_rank: int
    owner_vertex: int
    status: str  # "active" | "gray"
    level: float | None
    pieces: tuple[tuple[float, float], ...] | None
    covers: tuple[int, ...]


@dataclass(frozen=True)
class OrnamentedExcursion:
    q: float
    rank_lo: int
    rank_hi: int
    vertices: tuple[int, ...]
    masses: tuple[float, ...]
    positions: tuple[float, ...] | None
    baselines: tuple[Baseline, ...]
    mergers: tuple[MergerEvent, ...] = ()

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
        defaults to reaching everything.  No geometry is attached.
        """
        n = len(masses)
        full = {0: tuple(range(1, n))}
        full.update({r: tuple(sorted(covers.get(r, ()))) for r in range(1, n)})
        if 0 in covers:
            full[0] = tuple(sorted(covers[0]))
        baselines = tuple(
            Baseline(
                owner_rank=r,
                owner_vertex=r,
                status="active" if r == 0 else "gray",
                level=None,
                pieces=None,
                covers=full[r],
            )
            for r in range(n)
        )
        return cls(
            q=q,
            rank_lo=0,
            rank_hi=n - 1,
            vertices=tuple(range(n)),
            masses=tuple(masses),
            positions=None,
            baselines=baselines,
        )


def build_mosaic(trajectory: Trajectory, q: float) -> list[OrnamentedExcursion]:
    """One ornamented excursion per component of the walk at horizon q."""
    if not 0.0 < q <= trajectory.q_max:
        raise ValueError(f"q={q} outside (0, {trajectory.q_max}]")
    path = WalkPath.from_clocks(trajectory.config, trajectory.clocks, q)
    pos = path.jump_times
    sizes = path.jump_sizes
    cm = path.cummass

    def mass_between(j: int, m: int) -> float:
        return cm[m] - (cm[j - 1] if j else 0.0)

    blocks = trajectory.blocks_at(q)
    starts = [b.lo for b in blocks]
    mergers: list[list[MergerEvent]] = [[] for _ in blocks]
    for ev in trajectory.events:
        if ev.time <= q:
            mergers[bisect_right(starts, ev.left.lo) - 1].append(ev)
    out = []
    for block, block_mergers in zip(blocks, mergers):
        lo, hi = block.lo, block.hi
        # reach sets are laminar (R3), so the open baselines form a stack:
        # rank i ends the reach of every baseline its pre-jump trough undershoots
        reach = [hi] * (hi - lo + 1)
        stack = [lo]
        for i in range(lo + 1, hi + 1):
            while stack and pos[i] - pos[stack[-1]] > mass_between(stack[-1], i - 1):
                reach[stack.pop() - lo] = i - 1
            stack.append(i)
        baselines = []
        for j in range(lo, hi + 1):
            m = reach[j - lo]
            baselines.append(
                Baseline(
                    owner_rank=j,
                    owner_vertex=path.perm[j],
                    status="active" if j == lo else "gray",
                    level=(cm[j - 1] if j else 0.0) - pos[j],
                    pieces=((pos[j], pos[j] + mass_between(j, m)),),
                    covers=tuple(range(j + 1, m + 1)),
                )
            )
        out.append(
            OrnamentedExcursion(
                q=q,
                rank_lo=lo,
                rank_hi=hi,
                vertices=tuple(path.perm[lo : hi + 1]),
                masses=tuple(sizes[lo : hi + 1]),
                positions=tuple(pos[lo : hi + 1]),
                baselines=tuple(baselines),
                mergers=tuple(block_mergers),
            )
        )
    return out


def validate(excursion: OrnamentedExcursion) -> list[str]:
    """Violation report; empty list means the excursion is well formed.

    Geometric rules (R1 levels, R2 extents) are checked where the data is
    present; the reach rule (R3) is always checked.
    """
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

    cover = {b.owner_rank: frozenset(b.covers) for b in excursion.baselines}
    for b in excursion.baselines:
        if not b.covers:
            continue
        top = max(b.covers)
        want = set(range(b.owner_rank + 1, top + 1))
        missing = sorted(want - set(b.covers))
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
    return problems


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
    vertex_sequence: tuple[int, ...]

    def parent_of(self, rank: int) -> int:
        return dict(self.parents)[rank]

    def coalescence_order(self) -> tuple[int, ...]:
        return tuple(reversed(self.sequence))


def _hasse(excursion: OrnamentedExcursion) -> tuple[dict[int, int], dict[int, int]]:
    # parent = innermost earlier baseline reaching the rank
    lo, hi = excursion.rank_lo, excursion.rank_hi
    cover = {b.owner_rank: frozenset(b.covers) for b in excursion.baselines}
    parent: dict[int, int] = {}
    gen = {lo: 0}
    for r in range(lo + 1, hi + 1):
        holders = [j for j in range(lo, r) if r in cover.get(j, ())]
        if not holders:
            raise ValueError(f"rank {r} is reached by no earlier baseline")
        parent[r] = max(holders)
        gen[r] = gen[parent[r]] + 1
    return parent, gen


def orders(excursion: OrnamentedExcursion) -> HasseOrders:
    problems = validate(excursion)
    if problems:
        raise ValueError("invalid ornamented excursion: " + "; ".join(problems))
    lo, hi = excursion.rank_lo, excursion.rank_hi
    parent, gen = _hasse(excursion)
    seq = tuple(sorted(range(lo + 1, hi + 1), key=lambda r: (gen[r], -r)))
    return HasseOrders(
        root_rank=lo,
        parents=tuple(sorted(parent.items())),
        generations=tuple(sorted(gen.items())),
        sequence=seq,
        vertex_sequence=tuple(excursion.vertices[r - lo] for r in seq),
    )


def _sequence_positions(excursion: OrnamentedExcursion) -> tuple[float, ...]:
    """Jump positions realizing the excursion with mergers in total order.

    Absorption times are spaced geometrically toward the horizon; the ratio
    is small enough that every non-absorption candidate always fires later,
    so the merger engine reproduces the reversed total order exactly.
    """
    lo, hi = excursion.rank_lo, excursion.rank_hi
    masses = excursion.masses
    parent, gen = _hasse(excursion)
    seq = sorted(range(lo + 1, hi + 1), key=lambda r: (-gen[r], r))

    total = math.fsum(masses)
    m_min = min(masses)
    gamma = m_min / (2.0 * (total + m_min))
    if seq and gamma ** (len(seq) + 1) < 1e-12:
        raise ValueError(
            "excursion too long for combinatorial replay: the geometric "
            "time spacing underflows"
        )
    phase = {r: 1.0 - 0.5 * gamma ** (i + 1) for i, r in enumerate(seq)}

    prefix = [0.0]
    for m in masses:
        prefix.append(prefix[-1] + m)

    pos = {lo: 0.25 * m_min}
    for r in range(lo + 1, hi + 1):
        p = parent[r]
        pos[r] = pos[p] + phase[r] * (prefix[r - lo] - prefix[p - lo])
    return tuple(pos[r] for r in range(lo, hi + 1))


def replay(excursion: OrnamentedExcursion) -> Trajectory:
    """Merger trajectory whose mosaic at q reproduces the excursion.

    With geometry present the jump positions are reused verbatim, so levels
    and extents come back exactly.  Without geometry, positions are
    synthesized so that blocks merge in the reversed total order.
    """
    problems = validate(excursion)
    if problems:
        raise ValueError("invalid ornamented excursion: " + "; ".join(problems))
    q = excursion.q
    if excursion.positions is not None:
        positions = excursion.positions
    else:
        positions = _sequence_positions(excursion)
    config = WeightedConfig(excursion.masses)
    clocks = ClockAssignment.from_xi(tuple(q * p for p in positions))
    trajectory = run_trajectory(config, clocks, RngStream(0), q_max=q)
    if excursion.positions is None and len(excursion) > 1:
        want = tuple(
            r - excursion.rank_lo for r in orders(excursion).coalescence_order()
        )
        got = tuple(ev.right.lo for ev in trajectory.events)
        assert got == want, f"replayed merger order {got} != {want}"
    return trajectory


def same_shape(a: OrnamentedExcursion, b: OrnamentedExcursion) -> bool:
    """Geometric identity relative to each excursion's own start and floor,
    to 1e-12 of the larger total mass."""
    if len(a) != len(b):
        return False
    tol = 1e-12 * max(math.fsum(a.masses), math.fsum(b.masses))
    if any(abs(x - y) > tol for x, y in zip(a.masses, b.masses)):
        return False
    for ba, bb in zip(a.baselines, b.baselines):
        if ba.status != bb.status:
            return False
        local_a = tuple(r - a.rank_lo for r in ba.covers)
        local_b = tuple(r - b.rank_lo for r in bb.covers)
        if local_a != local_b:
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


@dataclass(frozen=True)
class Parallelogram:
    """One absorption's contribution to a rank's slice.

    Geometrically: the diagonal band of the source rank cut at the absorbed
    root's baseline level, of the stated height.  top_owner is that root;
    slice_decomposition checks that top_level lies on its baseline.
    """

    source_rank: int
    left_lo: int
    left_hi: int
    activation: float
    absorbed_mass: float
    height: float
    area: float
    top_level: float
    top_owner: int


@dataclass(frozen=True)
class Slice:
    """Region under the excursion attributed to one rank.

    The triangle sits between the rank's baseline level and its jump top;
    intercept_lo/hi are the z+s values of the diagonal band boundaries
    (floor-relative coordinates).
    """

    owner_rank: int
    owner_vertex: int
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
    if not 0.0 < q <= trajectory.q_max:
        raise ValueError(f"q={q} outside (0, {trajectory.q_max}]")
    path = WalkPath.from_clocks(trajectory.config, trajectory.clocks, q)
    pos = path.jump_times
    sizes = path.jump_sizes
    cm = path.cummass
    n = len(path)

    root_of = [0] * n
    block_mass = [0.0] * n
    for b in trajectory.blocks_at(q):
        for r in b.ranks():
            root_of[r] = b.lo
            block_mass[r] = b.mass
    # floor-relative baseline level of each rank
    level = []
    for j in range(n):
        a = root_of[j]
        level.append(
            (cm[j - 1] if j else 0.0)
            - (cm[a - 1] if a else 0.0)
            - (pos[j] - pos[a])
        )

    running_top = list(level)
    paras: dict[int, list[Parallelogram]] = {l: [] for l in range(n)}
    for ev in trajectory.events:
        if ev.time > q:
            continue
        height = ev.left.mass * (1.0 - ev.time / q)
        owner = ev.right.lo
        for l in ev.right.ranks():
            top = running_top[l]
            if abs(level[owner] - top) > 1e-9 * block_mass[owner]:
                raise AssertionError(
                    f"no baseline at slice top level {top} for rank {l}"
                )
            paras[l].append(
                Parallelogram(
                    source_rank=l,
                    left_lo=ev.left.lo,
                    left_hi=ev.left.hi,
                    activation=ev.time,
                    absorbed_mass=ev.left.mass,
                    height=height,
                    area=height * sizes[l],
                    top_level=top,
                    top_owner=owner,
                )
            )
            running_top[l] = top - height

    out = []
    for l in range(n):
        a = root_of[l]
        base = cm[a - 1] if a else 0.0
        out.append(
            Slice(
                owner_rank=l,
                owner_vertex=path.perm[l],
                position=pos[l],
                base_mass=sizes[l],
                base_level=level[l],
                triangle_area=sizes[l] * sizes[l] / 2.0,
                intercept_lo=pos[a] + (cm[l - 1] if l else 0.0) - base,
                intercept_hi=pos[a] + cm[l] - base,
                parallelograms=tuple(paras[l]),
            )
        )
    return out
