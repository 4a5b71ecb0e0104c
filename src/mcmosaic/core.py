"""Mass configurations, exponential clocks, and reproducible RNG streams.

Every stochastic routine in the package draws from an :class:`RngStream`,
a (seed, stream_id) pair mapped to an independent numpy generator.  Distinct
construction steps (clock sampling, surplus coin flips, merge-edge draws,
limit paths, ...) use separately named streams so that enabling or disabling
one feature never perturbs the draws of another.
"""
from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass
from numbers import Real
from typing import Sequence

import numpy as np

__all__ = [
    "WeightedConfig",
    "ClockAssignment",
    "RngStream",
    "sample_clocks",
    "read_config",
    "load_config",
    "check_level",
    "find",
    "union",
    "groups",
]


@dataclass(frozen=True)
class WeightedConfig:
    """Finite vector of strictly positive block masses.

    Vertices are labeled 0..len-1 by their position in ``masses``; the stored
    order is never rearranged, so labels are stable across the whole pipeline.
    """

    masses: tuple[float, ...]

    def __post_init__(self) -> None:
        masses = tuple(float(m) for m in self.masses)
        if len(masses) == 0:
            raise ValueError("mass vector must be non-empty")
        for m in masses:
            if not (m > 0.0) or not math.isfinite(m):
                raise ValueError(f"masses must be finite and > 0, got {m!r}")
        object.__setattr__(self, "masses", masses)

    def __len__(self) -> int:
        return len(self.masses)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.masses, dtype=float)


@dataclass(frozen=True)
class ClockAssignment:
    """Per-vertex exponential clocks plus their sort permutation.

    ``perm[r]`` is the vertex holding the r-th smallest clock (rank r,
    0-based).  Ties are broken by vertex index, which keeps the permutation
    well defined on degenerate inputs.
    """

    xi: tuple[float, ...]
    perm: tuple[int, ...]

    @classmethod
    def from_xi(cls, xi: Sequence[float]) -> "ClockAssignment":
        values = np.asarray(xi, dtype=float)
        bad = ~((values > 0.0) & (values < math.inf))
        if bad.any():
            v = float(values[bad.argmax()])
            raise ValueError(f"clock values must be finite and > 0, got {v!r}")
        order = np.argsort(values, kind="stable")
        return cls(xi=tuple(values.tolist()), perm=tuple(order.tolist()))

    def __len__(self) -> int:
        return len(self.xi)

    def sorted_xi(self) -> tuple[float, ...]:
        return tuple(self.xi[v] for v in self.perm)


_MIX = 0x9E3779B97F4A7C15  # 64-bit golden-ratio multiplier


def _mix(stream_id: int, salt: int) -> int:
    h = (stream_id * _MIX) & 0xFFFFFFFFFFFFFFFF
    h ^= salt
    return (h * _MIX) & 0xFFFFFFFFFFFFFFFF


@dataclass(frozen=True)
class RngStream:
    """Addressable randomness source: (seed, stream_id) -> numpy generator.

    ``named``/``indexed`` derive independent child streams deterministically,
    so replications and per-process Poisson families each get their own
    stream without coordination.
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))

    def named(self, name: str) -> "RngStream":
        salt = zlib.crc32(name.encode("utf-8"))
        return RngStream(self.seed, _mix(self.stream_id, salt))

    def indexed(self, k: int) -> "RngStream":
        if k < 0:
            raise ValueError("stream index must be >= 0")
        return RngStream(self.seed, _mix(self.stream_id, 0x5851F42D4C957F2D + k))


def sample_clocks(config: WeightedConfig, rng: RngStream) -> ClockAssignment:
    """Independent Exp(mass) clock per vertex, rate = the vertex's mass."""
    gen = rng.generator()
    scales = 1.0 / config.as_array()
    xi = gen.exponential(scale=scales)
    # exact zeros would break the strict positivity contract; resample those
    while np.any(xi <= 0.0):
        bad = xi <= 0.0
        xi[bad] = gen.exponential(scale=scales[bad])
    return ClockAssignment.from_xi(xi)


def check_level(q: float) -> None:
    """ValueError for a NaN level; every other one, ±inf included, is valid."""
    if math.isnan(q):
        raise ValueError(f"level q must not be NaN, got {q!r}")


def find(parent: list[int], a: int) -> int:
    """Root of ``a`` in the union-find array ``parent``, halving the path."""
    while parent[a] != a:
        parent[a] = parent[parent[a]]
        a = parent[a]
    return a


def union(parent: list[int], a: int, b: int) -> bool:
    """Hang a's root under b's root; False when they were already joined."""
    ra, rb = find(parent, a), find(parent, b)
    if ra == rb:
        return False
    parent[ra] = rb
    return True


def groups(parent: list[int]) -> frozenset[frozenset[int]]:
    """Partition of 0..len(parent)-1 into the union-find sets."""
    out: dict[int, set[int]] = {}
    for v in range(len(parent)):
        out.setdefault(find(parent, v), set()).add(v)
    return frozenset(frozenset(g) for g in out.values())


def read_config(source) -> dict:
    """A config JSON object from a path, a file object, or a mapping (copied)."""
    if isinstance(source, dict):
        payload = dict(source)
    elif hasattr(source, "read"):
        payload = json.load(source)
    else:
        with open(source, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    if not isinstance(payload, dict):
        raise ValueError(f"config must be a JSON object, got {type(payload).__name__}")
    return payload


def load_config(source) -> tuple[WeightedConfig, dict]:
    """Read a config mapping {"masses": [...], "seed": N, ...}.

    ``source`` is as for :func:`read_config`.  Returns the config plus the
    remaining entries (seed, q, variant, ...).
    """
    payload = read_config(source)
    if "masses" not in payload:
        raise ValueError("config requires a 'masses' entry")
    masses = payload.pop("masses")
    if not isinstance(masses, (list, tuple)) or not all(
        isinstance(m, Real) and not isinstance(m, bool) for m in masses
    ):
        raise ValueError(f"'masses' must be a list of numbers, got {masses!r}")
    return WeightedConfig(tuple(masses)), payload
