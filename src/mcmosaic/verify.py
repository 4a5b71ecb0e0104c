"""Acceptance suite: ten end-to-end checks of the simulation machinery.

Each checker returns a JSON-serializable verdict dict {criterion, name,
passed, details, retried}.  Statistical checks allow one retry with a
shifted seed; exact-identity checks are deterministic and never retry.
Verdicts carry no wall-clock data, so reports are byte-reproducible.
"""
from __future__ import annotations

import itertools
import math

import numpy as np

from . import core, dynamics, mosaic, oracle, stats, surplus, walk
from . import limit as limit_mod

__all__ = [
    "SUITES",
    "check_static_law",
    "check_process_law",
    "check_slice_rates",
    "check_surplus_poisson",
    "check_intensity",
    "check_monotone_logs",
    "check_mosaic_roundtrip",
    "check_merge_rate",
    "check_scaling",
    "check_determinism",
]

_RETRY_SHIFT = 1_000_003


def _result(num: int, name: str, passed: bool, details: dict, retried: bool = False) -> dict:
    return {
        "criterion": num,
        "name": name,
        "passed": bool(passed),
        "details": details,
        "retried": bool(retried),
    }


def _with_retry(run, seed: int) -> dict:
    out = run(seed)
    if out["passed"]:
        return out
    again = run(seed + _RETRY_SHIFT)
    again["retried"] = True
    again["details"]["first_attempt"] = out["details"]
    return again


def _random_instance(sub: core.RngStream, max_len: int, min_len: int = 2):
    """Shared recipe for random instances: masses in [0.5, 2], q in [0.2, 3]."""
    gen = sub.generator()
    n = int(gen.integers(min_len, max_len + 1))
    masses = tuple(float(m) for m in gen.uniform(0.5, 2.0, n))
    q = float(gen.uniform(0.2, 3.0))
    config = core.WeightedConfig(masses)
    clocks = core.sample_clocks(config, sub.named("clocks"))
    return config, clocks, q


# -- criterion 1: static edge-set law ---------------------------------------

_PAIRS4 = tuple(itertools.combinations(range(4), 2))


def check_static_law(seed: int = 7, reps: int = 100_000) -> dict:
    """n=4 unit masses at q=0.8: forest + static surplus vs the product law
    over all 2^6 edge subsets, each pair present with prob 1 - e^{-q}."""

    def run(s: int) -> dict:
        q = 0.8
        config = core.WeightedConfig((1.0,) * 4)
        p = -math.expm1(-q)
        probs = np.array(
            [p ** bin(mask).count("1") * (1.0 - p) ** (6 - bin(mask).count("1")) for mask in range(64)]
        )
        counts = np.zeros(64, dtype=np.int64)
        rng = core.RngStream(s).named("static-law")
        for rep in range(reps):
            sub = rng.indexed(rep)
            clocks = core.sample_clocks(config, sub.named("clocks"))
            path = walk.WalkPath.from_clocks(config, clocks, q)
            dec = walk.decompose(path)
            forest, _ = walk.breadth_first_forest(config, clocks, q)
            graph = surplus.static_surplus(path, dec, forest, sub)
            pairs = graph.pair_set()
            mask = 0
            for b, pr in enumerate(_PAIRS4):
                if frozenset(pr) in pairs:
                    mask |= 1 << b
            counts[mask] += 1
        res = stats.chi_square(counts, probs)
        passed = (not res.inconclusive) and (not res.rejects())
        return _result(
            1,
            "static-law",
            passed,
            {
                "reps": reps,
                "statistic": float(res.statistic),
                "p_value": float(res.p_value),
                "cells": int(res.cells),
            },
        )

    return _with_retry(run, seed)


# -- criterion 2: two-horizon edge-set law ----------------------------------


def _edge_sets(edges, levels) -> tuple:
    """The sorted vertex pairs of the edges with time <= each level."""
    return tuple(tuple(sorted({tuple(sorted(e[:2])) for e in edges if e.time <= q})) for q in levels)


def check_process_law(seed: int = 7, reps: int = 100_000) -> dict:
    """n=3 unit masses: joint edge sets at horizons 0.5 and 1.0, pairwise
    clock oracle vs the event engine with its dynamic simple graph."""

    def run(s: int) -> dict:
        config = core.WeightedConfig((1.0, 1.0, 1.0))
        q1, q2 = 0.5, 1.0
        rng = core.RngStream(s).named("process-law")
        counts_o: dict[tuple, int] = {}
        counts_b: dict[tuple, int] = {}

        orng = rng.named("oracle-side")
        for rep in range(reps):
            graph = oracle.gillespie_graph(config, q2, orng.indexed(rep), "simple")
            key = _edge_sets(graph.surplus, (q1, q2))
            counts_o[key] = counts_o.get(key, 0) + 1

        brng = rng.named("walk-side")
        for rep in range(reps):
            sub = brng.indexed(rep)
            clocks = core.sample_clocks(config, sub.named("clocks"))
            traj = dynamics.run_trajectory(config, clocks, sub, q_max=q2)
            graph = surplus.dynamic_surplus(traj, sub, q_max=q2, variant="simple")
            key = _edge_sets(graph.spanning + graph.surplus, (q1, q2))
            counts_b[key] = counts_b.get(key, 0) + 1

        support = sorted(set(counts_o) | set(counts_b))
        a = np.array([counts_o.get(k, 0) for k in support], dtype=np.int64)
        b = np.array([counts_b.get(k, 0) for k in support], dtype=np.int64)
        res = stats.chi_square_homogeneity(a, b)
        passed = (not res.inconclusive) and (not res.rejects())
        return _result(
            2,
            "process-law",
            passed,
            {
                "reps": reps,
                "support": len(support),
                "statistic": float(res.statistic),
                "p_value": float(res.p_value),
                "cells": int(res.cells),
            },
        )

    return _with_retry(run, seed)


# -- criterion 3: arrival rate = q * parallelogram area ----------------------


def check_slice_rates(seed: int = 7, instances: int = 1000) -> dict:
    """The cumulative arrival intensity of every activated process equals q
    times its parallelogram's area, to 1e-9, on random instances."""
    rng = core.RngStream(seed).named("slice-rates")
    worst = 0.0
    n_checked = 0
    count_mismatch = 0
    for i in range(instances):
        sub = rng.indexed(i)
        config, clocks, q = _random_instance(sub, max_len=10)
        traj = dynamics.run_trajectory(config, clocks, sub.named("engine"), q_max=q)
        slices = mosaic.slice_decomposition(traj, q)
        n_paras = 0
        for sl in slices:
            for para in sl.parallelograms:
                want = (q - para.activation) * sl.base_mass * para.absorbed_mass
                got = q * para.area
                worst = max(worst, abs(want - got))
                n_paras += 1
                n_checked += 1
        procs = surplus.activated_processes(traj, q, include_loops=False)
        if len(procs) != n_paras:
            count_mismatch += 1
    passed = worst <= 1e-9 and count_mismatch == 0
    return _result(
        3,
        "slice-rates",
        passed,
        {
            "instances": instances,
            "checked": n_checked,
            "worst_error": float(worst),
            "count_mismatches": count_mismatch,
        },
    )


# -- criterion 4: per-component surplus counts are Poisson(q * area) ---------


def check_surplus_poisson(
    seed: int = 7, trajectories: int = 100, reps: int = 100_000
) -> dict:
    """Multigraph surplus counts per component, conditional on fixed
    trajectories, pass the moment test against q times the excursion area."""
    rng = core.RngStream(seed).named("surplus-poisson")
    first_draw_failures = []
    failures = []
    retried = False
    n_components = 0
    for i in range(trajectories):
        sub = rng.indexed(i)
        config, clocks, q = _random_instance(sub, max_len=8)
        traj = dynamics.run_trajectory(config, clocks, sub.named("engine"), q_max=q)
        sampler = surplus.SurplusCountSampler(traj, q)
        path = walk.WalkPath.from_clocks(config, clocks, q)
        dec = walk.decompose(path)
        area_of = {
            frozenset(e.vertices): walk.area_under_reflection(path, e.start, e.end)
            for e in dec.excursions
        }
        counts = sampler.counts(sub.named("counts"), reps)
        for ci, comp in enumerate(sampler.components):
            n_components += 1
            target = q * area_of[comp]
            res = stats.poisson_mean_test(counts[:, ci], target)
            if not res.passed:
                retried = True
                first_draw_failures.append(_moment_failure(i, ci, res))
                counts2 = sampler.counts(sub.named("counts-retry"), reps)
                res = stats.poisson_mean_test(counts2[:, ci], target)
                if not res.passed:
                    failures.append(_moment_failure(i, ci, res))
    return _result(
        4,
        "surplus-poisson",
        not failures,
        {
            "trajectories": trajectories,
            "reps": reps,
            "components": n_components,
            "failures": failures,
            "first_draw_failures": first_draw_failures,
        },
        retried=retried,
    )


def _moment_failure(trajectory: int, component: int, res) -> dict:
    return {
        "trajectory": trajectory,
        "component": component,
        "target": float(res.target),
        "mean": float(res.mean),
        "variance": float(res.variance),
    }


# -- criterion 5: window intensity identity ----------------------------------


def check_intensity(seed: int = 7, instances: int = 1000) -> dict:
    """total_intensity equals q times the summed candidate masses for every
    non-root rank; roots give exactly zero."""
    rng = core.RngStream(seed).named("intensity")
    worst = 0.0
    n_checked = 0
    root_violation = 0
    for i in range(instances):
        sub = rng.indexed(i)
        config, clocks, q = _random_instance(sub, max_len=10)
        path = walk.WalkPath.from_clocks(config, clocks, q)
        dec = walk.decompose(path)
        forest, _ = walk.breadth_first_forest(config, clocks, q)
        roots = {e.rank_lo for e in dec.excursions}
        for h in range(len(path)):
            if h in roots:
                if surplus.total_intensity(path, dec, h) != 0.0:
                    root_violation += 1
                continue
            region = surplus.influence_region(path, dec, forest, h)
            want = q * math.fsum(path.jump_sizes[l] for l in region.ranks())
            got = surplus.total_intensity(path, dec, h)
            worst = max(worst, abs(want - got))
            n_checked += 1
    passed = worst <= 1e-9 and root_violation == 0
    return _result(
        5,
        "intensity",
        passed,
        {
            "instances": instances,
            "checked": n_checked,
            "worst_error": float(worst),
            "root_violations": root_violation,
        },
    )


# -- criterion 6: append-only logs, partition agreement ----------------------


def check_monotone_logs(seed: int = 7, trajectories: int = 1000) -> dict:
    """Edge logs (spanning and surplus) are chronological, and the monotone
    forest's partition equals the fixed-horizon forest partition at every
    event time and between events."""
    rng = core.RngStream(seed).named("monotone-logs")
    bad_order = 0
    bad_partition = 0
    checkpoints = 0
    for i in range(trajectories):
        sub = rng.indexed(i)
        config, clocks, q_max = _random_instance(sub, max_len=8)
        traj = dynamics.run_trajectory(config, clocks, sub.named("engine"), q_max=q_max)
        f1 = dynamics.build_monotone_forest(traj)

        times = [t for (_, _, t) in f1.edge_log]
        if any(b < a for a, b in zip(times, times[1:])):
            bad_order += 1
        for variant in ("simple", "multigraph"):
            g = surplus.dynamic_surplus(traj, sub, q_max=q_max, variant=variant)
            stimes = [e.time for e in g.surplus]
            if any(b < a for a, b in zip(stimes, stimes[1:])):
                bad_order += 1

        # inclusive/exclusive sides of each event plus geometric midpoints
        probes: list[float] = []
        ev_times = [ev.time for ev in traj.events]
        if ev_times:
            probes.append(ev_times[0] / 2.0)
            for t in ev_times:
                probes.append(t * (1.0 - 1e-12))
                probes.append(t * (1.0 + 1e-12))
            for a, b in zip(ev_times, ev_times[1:]):
                probes.append(math.sqrt(a * b))
        probes.append(q_max)
        for qc in probes:
            forest, _ = walk.breadth_first_forest(config, clocks, qc)
            want = frozenset(forest.components())
            got = f1.components_at(qc)
            checkpoints += 1
            if want != got:
                bad_partition += 1
    passed = bad_order == 0 and bad_partition == 0
    return _result(
        6,
        "monotone-logs",
        passed,
        {
            "trajectories": trajectories,
            "checkpoints": checkpoints,
            "order_violations": bad_order,
            "partition_mismatches": bad_partition,
        },
    )


# -- criterion 7: mosaic round trip and fixtures -----------------------------

_UNIT4 = (1.0, 1.0, 1.0, 1.0)

# cover structure -> expected greatest-first order (local ranks)
_ORDER_FIXTURES: tuple[tuple[dict, tuple[int, ...]], ...] = (
    ({}, (3, 2, 1)),
    ({2: (3,)}, (2, 1, 3)),
    ({1: (2,)}, (3, 1, 2)),
    ({1: (2, 3)}, (1, 3, 2)),
    ({1: (2, 3), 2: (3,)}, (1, 2, 3)),
)


def check_mosaic_roundtrip(seed: int = 7, instances: int = 1000) -> dict:
    """build -> replay -> build reproduces every excursion exactly; the
    validator names the broken-extent and broken-reach rules on the two
    counterexample fixtures; the five cover fixtures give the five orders."""
    rng = core.RngStream(seed).named("roundtrip")
    bad_roundtrip = 0
    n_excursions = 0
    for i in range(instances):
        sub = rng.indexed(i)
        config, clocks, q = _random_instance(sub, max_len=8)
        traj = dynamics.run_trajectory(config, clocks, sub.named("engine"), q_max=q)
        for exc in mosaic.build_mosaic(traj, q):
            n_excursions += 1
            rebuilt = mosaic.build_mosaic(mosaic.replay(exc), exc.q)
            if len(rebuilt) != 1 or not mosaic.same_shape(exc, rebuilt[0]):
                bad_roundtrip += 1

    # rejection fixture: extent broken in two pieces
    base_cfg = core.WeightedConfig((1.0, 1.0))
    base_clocks = core.ClockAssignment.from_xi((0.5, 1.0))
    base_traj = dynamics.run_trajectory(
        base_cfg, base_clocks, core.RngStream(0), q_max=2.0
    )
    exc = mosaic.build_mosaic(base_traj, 2.0)[0]
    b0 = exc.baselines[1]
    (a0, a1) = b0.pieces[0]
    mid = (a0 + a1) / 2.0
    broken_extent = exc._replace(
        baselines=(exc.baselines[0], b0._replace(pieces=((a0, mid - 0.05), (mid + 0.05, a1))))
    )
    msgs_extent = mosaic.validate(broken_extent)
    extent_named = any("R2" in m for m in msgs_extent)

    # rejection fixture: reach set skips a rank
    gap = mosaic.OrnamentedExcursion.from_covers(_UNIT4, {1: (3,)})
    msgs_reach = mosaic.validate(gap)
    reach_named = any("R3" in m for m in msgs_reach)

    order_ok = True
    for covers, want in _ORDER_FIXTURES:
        fx = mosaic.OrnamentedExcursion.from_covers(_UNIT4, covers)
        got = mosaic.orders(fx).sequence
        if got != want:
            order_ok = False
        rebuilt = mosaic.build_mosaic(mosaic.replay(fx), fx.q)
        if len(rebuilt) != 1 or not mosaic.same_shape(fx, rebuilt[0]):
            order_ok = False

    passed = bad_roundtrip == 0 and extent_named and reach_named and order_ok
    return _result(
        7,
        "mosaic-roundtrip",
        passed,
        {
            "instances": instances,
            "excursions": n_excursions,
            "roundtrip_failures": bad_roundtrip,
            "extent_rule_named": extent_named,
            "reach_rule_named": reach_named,
            "order_fixtures_ok": order_ok,
        },
    )


# -- criterion 8: first-merger law and endpoint-choice sensitivity -----------


def check_merge_rate(seed: int = 7, reps: int = 100_000) -> dict:
    """First merger of masses (2,3) is Exp(6); a deterministic endpoint
    chooser fails the forest edge-law test that the real sampler passes."""

    def run(s: int) -> dict:
        rng = core.RngStream(s).named("merge-rate")
        gen = rng.named("formula").generator()
        a = gen.exponential(1.0 / 2.0, reps)
        b = gen.exponential(1.0 / 3.0, reps)
        t = np.where(a < b, (b - a) / 2.0, (a - b) / 3.0)
        ks = stats.ks_test(t, lambda v: -np.expm1(-6.0 * np.asarray(v)))

        # engine computes the same time from the same clocks, on the first
        # 2,000 draws (all of them when there are fewer)
        config = core.WeightedConfig((2.0, 3.0))
        agree = 0
        n_engine = min(reps, 2000)
        for i in range(n_engine):
            clocks = core.ClockAssignment.from_xi((float(a[i]), float(b[i])))
            horizon = float(t[i]) * 2.0 + 1.0
            traj = dynamics.run_trajectory(
                config, clocks, rng.named("engine").indexed(i), q_max=horizon
            )
            if traj.events and abs(traj.events[0].time - t[i]) <= 1e-12:
                agree += 1

        # edge endpoint law: in the final merger of three unit masses the
        # two-vertex side picks each vertex with prob 1/2 (on 30,000
        # trajectories, or reps when fewer)
        cfg3 = core.WeightedConfig((1.0, 1.0, 1.0))
        m = min(reps, 30_000)
        merges = []  # (rank -> vertex, event) with a two-vertex side
        erng = rng.named("endpoints")
        for i in range(m):
            sub = erng.indexed(i)
            clocks = core.sample_clocks(cfg3, sub.named("clocks"))
            traj = dynamics.run_trajectory(cfg3, clocks, sub, q_max=1e9)
            merges += [
                (clocks.perm, ev) for ev in traj.events if 2 in (len(ev.left), len(ev.right))
            ]
        found = len(merges)
        se3 = 3.0 * 0.5 / math.sqrt(found)

        def first_vertex_share(chooser) -> float:
            hits = 0
            for perm, ev in merges:
                child, parent = chooser(perm, ev)
                if len(ev.right) == 2:
                    hits += child == perm[ev.right.lo]
                else:
                    hits += parent == perm[ev.left.lo]
            return hits / found

        freq = first_vertex_share(lambda perm, ev: ev.edge)
        sampler_ok = abs(freq - 0.5) <= se3
        # the same test on the edges a chooser taking each block's first
        # vertex would have drawn over the same events
        broken_freq = first_vertex_share(
            lambda perm, ev: (perm[ev.right.lo], perm[ev.left.lo])
        )
        broken_ok = abs(broken_freq - 0.5) <= se3

        passed = (
            (not ks.rejects())
            and agree == n_engine
            and sampler_ok
            and (not broken_ok)
        )
        return _result(
            8,
            "merge-rate",
            passed,
            {
                "reps": reps,
                "ks_statistic": float(ks.statistic),
                "ks_p_value": float(ks.p_value),
                "engine_agreements": agree,
                "engine_checked": n_engine,
                "endpoint_freq": freq,
                "endpoint_events": found,
                "broken_endpoint_freq": broken_freq,
                "broken_chooser_rejected": not broken_ok,
            },
        )

    return _with_retry(run, seed)


# -- criterion 9: finite-size laws approach the limit law --------------------


def check_scaling(
    seed: int = 7,
    reps: int = 10_000,
    batches: int = 5,
    n_values: tuple[int, ...] = (1_000, 3_000, 10_000),
    h: float = 1e-3,
    limit_reps: int = 200_000,
) -> dict:
    """Sup-distance from the largest-component law to the limit excursion
    law decreases strictly in n for a majority of seed batches.

    The limit reference approximates a fixed law, so one large sample is
    drawn per run and shared by the batches; each batch reseeds only the
    finite-n side.  The per-n distances at the stated sizes sit near the
    two-sample noise floor otherwise, drowning the ordering.
    """

    def run(s: int) -> dict:
        params = limit_mod.LimitParams(kappa=1.0, tau=0.0, t=0.0, c=())
        ref = limit_mod.sample_limit_reference(
            params, core.RngStream(s).named("scaling-reference"), h, limit_reps
        )
        decreasing = []
        ks_rows = []
        for bi in range(batches):
            rng = core.RngStream(s).named("scaling-batch").indexed(bi)
            rep = limit_mod.scaling_experiment(
                n_values, 0.0, reps, rng, h=h, include_marks=False, reference=ref
            )
            decreasing.append(bool(rep["ks_decreasing"]))
            ks_rows.append([float(r["ks_largest"]) for r in rep["rows"]])
        good = sum(decreasing)
        passed = good >= math.ceil(batches * 4 / 5)
        return _result(
            9,
            "scaling",
            passed,
            {
                "reps": reps,
                "batches": batches,
                "n_values": list(n_values),
                "limit_reps": limit_reps,
                "decreasing_batches": good,
                "ks_distances": ks_rows,
            },
        )

    return _with_retry(run, seed)


# -- criterion 10: CLI byte determinism --------------------------------------


def check_determinism(seed: int = 7) -> dict:
    """Every CLI invocation repeated with the same seed writes identical
    bytes.  The invocations' own stdout is discarded, so the nested verify
    call does not print into this suite's report."""
    import contextlib
    import io
    import json
    import tempfile
    from pathlib import Path

    from . import cli

    details: dict[str, bool] = {}
    with tempfile.TemporaryDirectory() as td:
        base = Path(td)
        cfg = base / "config.json"
        cfg.write_text(json.dumps({"masses": [1.0, 0.5, 2.0, 1.5, 1.0], "seed": int(seed)}))
        c, s = str(cfg), str(seed)
        runs = {  # each argv ends in its output flag; the path goes last
            "simulate": ["simulate", "--config", c, "--q-max", "2.0", "--reps", "5", "--out"],
            "forest": ["forest", "--config", c, "--q", "1.0", "--out"],
            "surplus": ["surplus", "--config", c, "--q-max", "1.5", "--variant", "multigraph",
                        "--out"],
            "mosaic": ["mosaic", "--config", c, "--q", "1.5", "--shade", "--svg"],
            "limit": ["limit", "--kappa", "1.0", "--t", "0.0", "--h", "0.05", "--reps", "20",
                      "--seed", s, "--out"],
            "verify": ["verify", "--suite", "intensity", "--instances", "40", "--seed", s,
                       "--json"],
        }
        for tag, argv in runs.items():
            outs = set()
            for k in (0, 1):
                out = base / f"{tag}-{k}"
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv + [str(out)])
                if code != 0:
                    break
                outs.add(out.read_bytes())
            details[tag] = code == 0 and len(outs) == 1

    passed = all(details.values())
    return _result(10, "determinism", passed, details)


SUITES = {
    "static-law": (1, check_static_law),
    "process-law": (2, check_process_law),
    "slice-rates": (3, check_slice_rates),
    "surplus-poisson": (4, check_surplus_poisson),
    "intensity": (5, check_intensity),
    "monotone-logs": (6, check_monotone_logs),
    "mosaic-roundtrip": (7, check_mosaic_roundtrip),
    "merge-rate": (8, check_merge_rate),
    "scaling": (9, check_scaling),
    "determinism": (10, check_determinism),
}

