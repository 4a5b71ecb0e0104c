"""Workloads of the mcmosaic benchmark: inputs, one operation, checks, digests.

A workload turns the run seed into a pool of inputs (mass vectors, horizons
and RngStream seeds) and defines one operation ("op") over one input.  The op
calls the package's public functions through a tracer (see bench_trace), so
the timed, traced and memory passes run the same code.  After each op, and
outside its timing, the benchmark runs the workload's exact checks, hashes
its outputs and, in the traced pass, counts the work the outputs show.

Masses are i.i.d. uniform on [0.5, 2], the recipe of the verify suites.  Cost
depends on the regime q * sigma2 and on n, not on the mass scale.
"""
from __future__ import annotations

import hashlib
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from typing import Callable

import numpy as np

from mcmosaic import (
    LimitParams,
    RngStream,
    SurplusCountSampler,
    WalkPath,
    WeightedConfig,
    activated_processes,
    breadth_first_forest,
    build_monotone_forest,
    build_mosaic,
    chi_square_homogeneity,
    decompose,
    dynamic_surplus,
    gillespie_graph,
    gillespie_trajectory,
    influence_region,
    run_trajectory,
    sample_clocks,
    sample_limit_reference,
    scaling_experiment,
    slice_decomposition,
    static_surplus,
    total_intensity,
)
from mcmosaic.render import render_svg

# Stage names: the metric stem of each call the workloads make into a layer.
STAGES = (
    "core.sample_clocks",
    "dynamics.run_trajectory",
    "dynamics.blocks_at",
    "dynamics.partition_at",
    "dynamics.components_at",
    "dynamics.build_monotone_forest",
    "walk.from_clocks",
    "walk.decompose",
    "walk.breadth_first_forest",
    "surplus.static_surplus",
    "surplus.dynamic_surplus.simple",
    "surplus.dynamic_surplus.multigraph",
    "surplus.SurplusCountSampler",
    "mosaic.build_mosaic",
    "mosaic.slice_decomposition",
    "render.render_svg",
    "limit.sample_limit_reference",
    "limit.scaling_experiment",
    "oracle.gillespie_trajectory",
    "oracle.gillespie_graph",
)

COUNTS = (
    "core.vertices",
    "dynamics.events",
    "dynamics.largest_block",
    "walk.excursions",
    "surplus.processes",
    "surplus.edges.simple",
    "surplus.edges.multi",
    "surplus.edges.loop",
    "mosaic.baselines",
    "mosaic.parallelograms",
    "render.svg_bytes",
    "limit.paths",
    "limit.finite_reps",
    "oracle.calls",
)

CLI_SUBCOMMANDS = ("simulate", "forest", "surplus", "mosaic", "limit")

# identities that hold exactly in real arithmetic; the tolerance scales with the value
REL_TOL = 1e-9
LIMIT_H = 1e-3
LIMIT = LimitParams(kappa=1.0, tau=0.0, t=0.0)


class CheckFailed(Exception):
    """An exact identity between two outputs of one op does not hold."""


# -- inputs -------------------------------------------------------------------


@dataclass(frozen=True)
class Instance:
    config: WeightedConfig
    q: float
    seed: int


def _masses(gen: np.random.Generator, n: int) -> tuple[float, ...]:
    return tuple(float(m) for m in gen.uniform(0.5, 2.0, n))


def _instance(gen: np.random.Generator, n: int, q_sigma2: float) -> Instance:
    masses = _masses(gen, n)
    sigma2 = math.fsum(m * m for m in masses)
    return Instance(WeightedConfig(masses), q_sigma2 / sigma2, int(gen.integers(2**63)))


def _replicate_instance(gen: np.random.Generator, n_lo: int, n_hi: int) -> Instance:
    n = int(gen.integers(n_lo, n_hi + 1))
    masses = _masses(gen, n)
    q = float(gen.uniform(0.2, 3.0))
    return Instance(WeightedConfig(masses), q, int(gen.integers(2**63)))


@dataclass(frozen=True)
class CriticalInput:
    instance: Instance
    seed: int
    paths: int
    reps: int
    n_values: tuple[int, ...]


@dataclass(frozen=True)
class CoalescenceInput:
    config: WeightedConfig
    seed: int
    levels: int
    count_reps: int


# -- the per-instance stack ---------------------------------------------------


def instance_stack(inp: Instance, tr) -> dict:
    """clocks -> engine -> blocks -> walk -> forests -> surplus -> mosaic -> slices -> SVG."""
    cfg, q = inp.config, inp.q
    rng = RngStream(inp.seed)
    clocks = tr.call("core.sample_clocks", sample_clocks, cfg, rng.named("clocks"))
    traj = tr.call(
        "dynamics.run_trajectory", run_trajectory, cfg, clocks, rng.named("engine"), q_max=q
    )
    blocks = tr.call("dynamics.blocks_at", traj.blocks_at, q)
    path = tr.call("walk.from_clocks", WalkPath.from_clocks, cfg, clocks, q)
    dec = tr.call("walk.decompose", decompose, path)
    forest, _carried = tr.call(
        "walk.breadth_first_forest", breadth_first_forest, cfg, clocks, q
    )
    mono = tr.call("dynamics.build_monotone_forest", build_monotone_forest, traj)
    static = tr.call(
        "surplus.static_surplus", static_surplus, path, dec, forest, rng.named("static")
    )
    simple = tr.call(
        "surplus.dynamic_surplus.simple",
        dynamic_surplus, traj, rng.named("dynamic"), q, "simple",
    )
    multi = tr.call(
        "surplus.dynamic_surplus.multigraph",
        dynamic_surplus, traj, rng.named("dynamic"), q, "multigraph",
    )
    mosaic = tr.call("mosaic.build_mosaic", build_mosaic, traj, q)
    slices = tr.call("mosaic.slice_decomposition", slice_decomposition, traj, q)
    svg = tr.call("render.render_svg", render_svg, traj, q, shade_slices=True)
    return {
        "traj": traj, "blocks": blocks, "path": path, "dec": dec, "forest": forest,
        "mono": mono, "static": static, "simple": simple, "multi": multi,
        "mosaic": mosaic, "slices": slices, "svg": svg,
    }


def _close(want: float, got: float) -> bool:
    return abs(want - got) <= REL_TOL * max(1.0, abs(want))


def _excursion_partition(dec) -> frozenset:
    return frozenset(frozenset(e.vertices) for e in dec.excursions)


def check_instance(inp: Instance, out: dict) -> None:
    """Partition agreement, slice-rate identity (criterion 3), intensity identity (5)."""
    q = inp.q
    traj, path, dec, forest = out["traj"], out["path"], out["dec"], out["forest"]
    want = traj.partition_at(q)
    for name, got in (
        ("monotone forest components_at", out["mono"].components_at(q)),
        ("breadth-first forest components", frozenset(forest.components())),
        ("decompose excursions", _excursion_partition(dec)),
    ):
        if got != want:
            raise CheckFailed(f"partition_at(q) differs from the {name}")

    n_paras = 0
    for sl in out["slices"]:
        for para in sl.parallelograms:
            rate = (q - para.activation) * sl.base_mass * para.absorbed_mass
            if not _close(rate, q * para.area):
                raise CheckFailed(
                    f"slice rate of rank {sl.owner_rank}: {rate!r} != q * area {q * para.area!r}"
                )
            n_paras += 1
    n_procs = len(activated_processes(traj, q, include_loops=False))
    if n_paras != n_procs:
        raise CheckFailed(f"{n_paras} parallelograms but {n_procs} activated processes")

    roots = {e.rank_lo for e in dec.excursions}
    for h in range(len(path)):
        got = total_intensity(path, dec, h)
        if h in roots:
            if got != 0.0:
                raise CheckFailed(f"root rank {h} has intensity {got!r}")
            continue
        region = influence_region(path, dec, forest, h)
        want_i = q * math.fsum(path.jump_sizes[l] for l in region.ranks())
        if not _close(want_i, got):
            raise CheckFailed(f"intensity of rank {h}: {got!r} != {want_i!r}")


def _edges(g) -> tuple:
    return tuple((e.source, e.target, e.time, e.kind) for e in g.spanning + g.surplus)


def _events(traj) -> tuple:
    return tuple(
        (ev.time, ev.left.lo, ev.left.hi, ev.right.lo, ev.right.hi, ev.edge)
        for ev in traj.events
    )


def _canon(partition) -> tuple:
    return tuple(sorted(tuple(sorted(b)) for b in partition))


def instance_digest(h, out: dict) -> None:
    h.update(repr(_events(out["traj"])).encode())
    h.update(repr(out["forest"].parent).encode())
    h.update(repr(tuple((e.rank_lo, e.rank_hi) for e in out["dec"].excursions)).encode())
    for key in ("static", "simple", "multi"):
        h.update(repr(_edges(out[key])).encode())
    h.update(repr(tuple(
        (b.owner_rank, b.level, b.covers[-1] if b.covers else b.owner_rank)
        for exc in out["mosaic"] for b in exc.baselines
    )).encode())
    h.update(repr(tuple(
        (sl.owner_rank, sl.triangle_area, tuple(p.area for p in sl.parallelograms))
        for sl in out["slices"]
    )).encode())
    h.update(out["svg"].encode())


def instance_tally(out: dict, counts: Counter) -> None:
    traj = out["traj"]
    counts["core.vertices"] += len(traj.config)
    counts["dynamics.events"] += len(traj.events)
    counts["dynamics.largest_block"] = max(
        counts["dynamics.largest_block"], max(len(b) for b in out["blocks"])
    )
    counts["walk.excursions"] += len(out["dec"].excursions)
    # multigraph arrival processes: one loop process per vertex plus one per absorbed vertex
    counts["surplus.processes"] += len(traj.config) + sum(len(ev.right) for ev in traj.events)
    for key in ("static", "simple", "multi"):
        for e in out[key].surplus:
            counts[f"surplus.edges.{e.kind}"] += 1
    counts["mosaic.baselines"] += sum(len(exc.baselines) for exc in out["mosaic"])
    counts["mosaic.parallelograms"] += sum(len(sl.parallelograms) for sl in out["slices"])
    counts["render.svg_bytes"] += len(out["svg"].encode())


# -- replicates ---------------------------------------------------------------
# One op is a batch of tiny instances: a single instance takes about a
# millisecond, so the tail of single-instance times is scheduler noise.


def replicates_op(batch: tuple[Instance, ...], tr) -> list[dict]:
    outs = []
    for inp in batch:
        out = instance_stack(inp, tr)
        rng = RngStream(inp.seed).named("oracle")
        out["oracle_traj"] = tr.call(
            "oracle.gillespie_trajectory", gillespie_trajectory, inp.config, rng, inp.q
        )
        out["oracle_graph"] = tr.call(
            "oracle.gillespie_graph", gillespie_graph, inp.config, inp.q, rng, "simple"
        )
        outs.append(out)
    return outs


def replicates_check(batch: tuple[Instance, ...], outs: list[dict]) -> None:
    for inp, out in zip(batch, outs):
        check_instance(inp, out)


def replicates_digest(h, outs: list[dict]) -> None:
    for out in outs:
        instance_digest(h, out)
        h.update(repr(out["oracle_traj"].arrivals).encode())
        h.update(repr(_edges(out["oracle_graph"])).encode())


def replicates_tally(outs: list[dict], counts: Counter) -> None:
    for out in outs:
        instance_tally(out, counts)
        counts["oracle.calls"] += 2


def replicates_observe(batch: tuple[Instance, ...], outs: list[dict], state: dict) -> None:
    """Category keys of the engine-vs-oracle law comparison."""
    state.setdefault("components", (Counter(), Counter()))
    state.setdefault("pairs", (Counter(), Counter()))
    for inp, out in zip(batch, outs):
        n, q = len(inp.config), inp.q
        state["components"][0][(n, len(out["blocks"]))] += 1
        state["components"][1][(n, len(out["oracle_traj"].partition_at(q)))] += 1
        state["pairs"][0][(n, len(out["static"].pair_set()))] += 1
        state["pairs"][1][(n, len(out["oracle_graph"].pair_set()))] += 1


def replicates_report(state: dict, tr) -> dict:
    """Chi-square homogeneity of engine vs pairwise oracle; reported, not gated."""
    report = {}
    for key, what in (
        ("components", "(n, component count): run_trajectory vs gillespie_trajectory"),
        ("pairs", "(n, edge count): static_surplus graph vs gillespie_graph"),
    ):
        if key not in state:
            continue
        a, b = state[key]
        support = sorted(set(a) | set(b))
        res = tr.call(
            "stats.chi_square_homogeneity",
            chi_square_homogeneity,
            [a[k] for k in support],
            [b[k] for k in support],
        )
        report[key] = {
            "compares": what,
            "statistic": res.statistic,
            "p_value": res.p_value,
            "cells": res.cells,
            "inconclusive": res.inconclusive,
        }
    return report


# -- critical -----------------------------------------------------------------


def critical_op(inp: CriticalInput, tr) -> dict:
    rng = RngStream(inp.seed)
    with tr.span("part.reference"):
        ref = tr.call(
            "limit.sample_limit_reference",
            sample_limit_reference, LIMIT, rng.named("reference"), LIMIT_H, inp.paths,
        )
    with tr.span("part.scaling"):
        scaling = tr.call(
            "limit.scaling_experiment",
            scaling_experiment, inp.n_values, 0.0, inp.reps, rng.named("scaling"),
            h=LIMIT_H, include_marks=True, reference=ref,
        )
    with tr.span("part.instance"):
        out = instance_stack(inp.instance, tr)
    out["reference"] = ref
    out["scaling"] = scaling
    return out


def critical_check(inp: CriticalInput, out: dict) -> None:
    check_instance(inp.instance, out)


def critical_digest(h, out: dict) -> None:
    for key in ("largest", "second", "marks"):
        h.update(out["reference"][key].tobytes())
    h.update(repr(tuple(
        (r["n"], r["ks_largest"], r["ks_second"], r["ks_marks"]) for r in out["scaling"]["rows"]
    )).encode())
    instance_digest(h, out)


def critical_tally(out: dict, counts: Counter) -> None:
    instance_tally(out, counts)
    counts["limit.paths"] += len(out["reference"]["largest"])
    counts["limit.finite_reps"] += out["scaling"]["reps"] * len(out["scaling"]["rows"])


def critical_observe(inp: CriticalInput, out: dict, state: dict) -> None:
    for r in out["scaling"]["rows"]:
        state.setdefault(r["n"], []).append(r["ks_largest"])


def critical_report(state: dict, tr) -> dict:
    """Median KS distance of the largest component to the limit, per n; not gated."""
    meds = {n: median(v) for n, v in sorted(state.items())}
    values = list(meds.values())
    return {
        "ks_largest_median": {str(n): v for n, v in meds.items()},
        "ks_decreasing": all(a > b for a, b in zip(values, values[1:])),
    }


# -- coalescence --------------------------------------------------------------


def _level_indices(n_events: int, k: int) -> list[int]:
    last = n_events - 2  # the last gap between two consecutive events
    return sorted({round(i * last / (k - 1)) for i in range(k)})


def _sample_counts(traj, q, rng, reps):
    sampler = SurplusCountSampler(traj, q)
    return sampler, sampler.counts(rng, reps)


def coalescence_op(inp: CoalescenceInput, tr) -> dict:
    cfg = inp.config
    rng = RngStream(inp.seed)
    with tr.span("part.write"):
        clocks = tr.call("core.sample_clocks", sample_clocks, cfg, rng.named("clocks"))
        # every merger time is at most (max xi - min xi) / min mass
        q_max = 2.0 * (max(clocks.xi) - min(clocks.xi)) / min(cfg.masses)
        traj = tr.call(
            "dynamics.run_trajectory",
            run_trajectory, cfg, clocks, rng.named("engine"), q_max=q_max,
        )
    ev = traj.events
    # geometric midpoints between consecutive events: no level sits on a merger time
    levels = [math.sqrt(ev[i].time * ev[i + 1].time) for i in _level_indices(len(ev), inp.levels)]
    with tr.span("part.read"):
        mono = tr.call("dynamics.build_monotone_forest", build_monotone_forest, traj)
        partitions = [tr.call("dynamics.partition_at", traj.partition_at, lv) for lv in levels]
        components = [tr.call("dynamics.components_at", mono.components_at, lv) for lv in levels]
    with tr.span("part.counts"):
        sampler, counts = tr.call(
            "surplus.SurplusCountSampler",
            _sample_counts, traj, ev[-1].time, rng.named("counts"), inp.count_reps,
        )
    return {
        "clocks": clocks, "traj": traj, "levels": levels, "partitions": partitions,
        "components": components, "sampler": sampler, "counts": counts,
    }


def coalescence_check(inp: CoalescenceInput, out: dict) -> None:
    n = len(inp.config)
    times = [ev.time for ev in out["traj"].events]
    if len(times) != n - 1:
        raise CheckFailed(f"{len(times)} events for n={n}, expected n-1")
    if any(b <= a for a, b in zip(times, times[1:])):
        raise CheckFailed("event times are not strictly increasing")
    parts, comps, levels = out["partitions"], out["components"], out["levels"]
    for lv, p, c in zip(levels, parts, comps):
        if p != c:
            raise CheckFailed(f"partition_at({lv!r}) != components_at({lv!r})")
    # the walk side is O(n) per level; three levels cover the first, middle and last gap
    for i in sorted({0, len(levels) // 2, len(levels) - 1}):
        lv = levels[i]
        forest, _ = breadth_first_forest(inp.config, out["clocks"], lv)
        if frozenset(forest.components()) != parts[i]:
            raise CheckFailed(f"partition_at({lv!r}) != breadth-first forest components")
        dec = decompose(WalkPath.from_clocks(inp.config, out["clocks"], lv))
        if _excursion_partition(dec) != parts[i]:
            raise CheckFailed(f"partition_at({lv!r}) != decompose excursions")
    if out["sampler"].n_components != 1 or out["counts"].shape != (inp.count_reps, 1):
        raise CheckFailed("surplus counts at the final merger are not one component")


def coalescence_digest(h, out: dict) -> None:
    h.update(repr(_events(out["traj"])).encode())
    h.update(repr(out["levels"]).encode())
    for p in out["partitions"]:
        h.update(repr(_canon(p)).encode())
    h.update(out["counts"].tobytes())


def coalescence_tally(out: dict, counts: Counter) -> None:
    traj = out["traj"]
    counts["core.vertices"] += len(traj.config)
    counts["dynamics.events"] += len(traj.events)
    counts["dynamics.largest_block"] = max(counts["dynamics.largest_block"], len(traj.config))
    counts["surplus.processes"] += len(out["sampler"].lam)


# -- workload table -----------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    """One workload at one size profile.

    make_input(gen, size) draws one input; size None gives the workload's
    own size, otherwise a point of the sweep.  pool: inputs made per run (ops
    cycle through them); mem_ops: ops the memory pass runs; trace_ops: ops of
    the traced and matching untraced pass; sweep: sizes of the slope fit,
    sweep_reps inputs per size.
    """

    name: str
    make_input: Callable[[np.random.Generator, float | None], object]
    op: Callable
    check: Callable
    digest: Callable
    tally: Callable
    # masses and q of the CLI pass, from the first input
    cli_input: Callable
    pool: int
    mem_ops: int
    trace_ops: int
    sweep: tuple[float, ...]
    sweep_reps: int
    observe: Callable | None = None
    report: Callable | None = None

    def inputs(self, seed: int) -> list:
        gen = np.random.default_rng([seed, 0])
        return [self.make_input(gen, None) for _ in range(self.pool)]

    def sweep_inputs(self, seed: int, size: float) -> list:
        gen = np.random.default_rng([seed, 1, int(size * 1000)])
        return [self.make_input(gen, size) for _ in range(self.sweep_reps)]


def _replicates(tiny: bool) -> Workload:
    batch = 4 if tiny else 32

    def make(gen, size):
        lo, hi = (2, 8) if size is None else (size, size)
        return tuple(_replicate_instance(gen, lo, hi) for _ in range(batch))

    return Workload(
        name="replicates",
        make_input=make,
        op=replicates_op,
        check=replicates_check,
        digest=replicates_digest,
        tally=replicates_tally,
        observe=replicates_observe,
        report=replicates_report,
        cli_input=lambda inp: (inp[0].config.masses, inp[0].q),
        pool=16 if tiny else 256,
        mem_ops=1,
        trace_ops=8 if tiny else 60,
        sweep=(2, 4, 8),
        sweep_reps=2 if tiny else 10,
    )


def _critical(tiny: bool) -> Workload:
    n = 60 if tiny else 1000
    n_values = (50, 100, 200) if tiny else (1000, 3000, 10000)
    paths = 4 if tiny else 20
    reps = 4 if tiny else 20

    def make(gen, factor):
        factor = 1.0 if factor is None else factor
        return CriticalInput(
            instance=_instance(gen, max(2, round(n * factor)), 1.0),
            seed=int(gen.integers(2**63)),
            paths=max(2, round(paths * factor)),
            reps=reps,
            n_values=tuple(max(2, round(v * factor)) for v in n_values),
        )

    return Workload(
        name="critical",
        make_input=make,
        op=critical_op,
        check=critical_check,
        digest=critical_digest,
        tally=critical_tally,
        observe=critical_observe,
        report=critical_report,
        cli_input=lambda inp: _cli_slice(inp.instance.config.masses, 1.0),
        pool=4 if tiny else 128,
        mem_ops=1 if tiny else 2,
        trace_ops=2 if tiny else 15,
        sweep=(0.25, 0.5, 1.0),
        sweep_reps=1 if tiny else 3,
    )


def _supercritical(tiny: bool) -> Workload:
    n = 40 if tiny else 300

    def make(gen, factor):
        return _instance(gen, max(2, round(n * (factor or 1.0))), 2.0)

    return Workload(
        name="supercritical",
        make_input=make,
        op=instance_stack,
        check=check_instance,
        digest=instance_digest,
        tally=instance_tally,
        cli_input=lambda inp: _cli_slice(inp.config.masses, 2.0),
        pool=4 if tiny else 128,
        mem_ops=1 if tiny else 2,
        trace_ops=2 if tiny else 15,
        sweep=(0.25, 0.5, 1.0),
        sweep_reps=1 if tiny else 3,
    )


def _coalescence(tiny: bool) -> Workload:
    n = 40 if tiny else 1000
    levels = 5 if tiny else 9
    count_reps = 4 if tiny else 20

    def make(gen, factor):
        return CoalescenceInput(
            WeightedConfig(_masses(gen, max(3, round(n * (factor or 1.0))))),
            int(gen.integers(2**63)),
            levels,
            count_reps,
        )

    return Workload(
        name="coalescence",
        make_input=make,
        op=coalescence_op,
        check=coalescence_check,
        digest=coalescence_digest,
        tally=coalescence_tally,
        cli_input=lambda inp: _cli_slice(inp.config.masses, 4.0),
        pool=4 if tiny else 256,
        mem_ops=1 if tiny else 2,
        trace_ops=2 if tiny else 15,
        sweep=(0.25, 0.5, 1.0),
        sweep_reps=1 if tiny else 3,
    )


WORKLOADS = {
    "replicates": _replicates,
    "critical": _critical,
    "supercritical": _supercritical,
    "coalescence": _coalescence,
}


def workload(name: str, size: str) -> Workload:
    return WORKLOADS[name](size == "tiny")


def op_digest(wl: Workload, out: dict) -> str:
    h = hashlib.blake2b(digest_size=16)
    wl.digest(h, out)
    return h.hexdigest()


# -- CLI pass -----------------------------------------------------------------

CLI_MAX_N = 200


def _cli_slice(masses, q_sigma2: float) -> tuple[tuple[float, ...], float]:
    m = masses[:CLI_MAX_N]
    return m, q_sigma2 / math.fsum(x * x for x in m)


def cli_pass(wl: Workload, first_input, tr, out_dir: Path, seed: int) -> dict[str, int]:
    """Each data subcommand once, in process, on the first input cut to CLI_MAX_N.

    Returns the bytes each subcommand wrote.
    """
    import json

    from mcmosaic.cli import main as cli_main

    masses, q = wl.cli_input(first_input)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = out_dir / "cli-config.json"
    cfg.write_text(json.dumps({"masses": list(masses), "seed": seed % 2**31, "q": q, "q_max": q}))
    argv = {
        "simulate": ["simulate", "--config", str(cfg), "--out"],
        "forest": ["forest", "--config", str(cfg), "--out"],
        "surplus": ["surplus", "--config", str(cfg), "--variant", "multigraph", "--out"],
        "mosaic": ["mosaic", "--config", str(cfg), "--shade", "--svg"],
        "limit": ["limit", "--seed", str(seed % 2**31), "--reps", "20", "--out"],
    }
    written = {}
    for sub in CLI_SUBCOMMANDS:
        target = out_dir / f"cli-{sub}.out"
        rc = tr.call(f"cli.{sub}", cli_main, argv[sub] + [str(target)])
        if rc != 0:
            raise CheckFailed(f"mcmosaic {sub} exited with {rc}")
        written[sub] = target.stat().st_size
    return written


# -- size sweep ---------------------------------------------------------------


def fit_slopes(per_size: dict[float, dict[str, float]]) -> dict[str, float]:
    """Least-squares slope of log(median stage time) against log(size)."""
    slopes = {}
    sizes = sorted(per_size)
    for stage in STAGES:
        pts = [(s, per_size[s].get(stage, 0.0)) for s in sizes]
        pts = [(s, t) for s, t in pts if t > 0.0]
        if len(pts) < 3:
            continue
        x = np.log([s for s, _ in pts])
        y = np.log([t for _, t in pts])
        slopes[stage] = float(np.polyfit(x, y, 1)[0])
    return slopes


def stage_medians(per_op: dict[int, dict[str, float]]) -> dict[str, float]:
    names = {name for busy in per_op.values() for name in busy}
    return {
        name: median(busy.get(name, 0.0) for busy in per_op.values()) for name in names
    }
