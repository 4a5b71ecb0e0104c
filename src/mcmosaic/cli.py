"""Command line interface: one executable, six subcommands.

All randomness flows from --seed (or the config's seed); repeated runs with
the same arguments write byte-identical CSV/JSON/SVG files.  CSV floats use
shortest round-trip formatting.
"""
from __future__ import annotations

import argparse
import inspect
import json
import sys

from . import core, dynamics, render, surplus, verify, walk
from . import limit as limit_mod

__all__ = ["main"]


def _f(v: float) -> str:
    return repr(float(v))


def _write_lines(path: str, lines: list[str]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def _write_json(path: str, payload) -> None:
    with open(path, "w", newline="\n") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


_CONFIG_KEYS = ("masses", "seed", "q", "q_max", "reps", "variant", "limit")


def _only(where: str, settings: dict, keys: tuple[str, ...]) -> dict:
    """``settings``, unless it has a key outside ``keys`` (named in the error)."""
    unknown = ", ".join(repr(k) for k in settings if k not in keys)
    if unknown:
        raise ValueError(f"{where} takes only {', '.join(keys)}, not {unknown}")
    return settings


def _read_config(path: str) -> dict:
    """The config; it serves every subcommand, so a key none reads is refused."""
    return _only("config", core.read_config(path), _CONFIG_KEYS)


def _load_config(args) -> tuple[core.WeightedConfig, dict]:
    if not getattr(args, "config", None):
        raise ValueError("this subcommand requires --config")
    return core.load_config(_read_config(args.config))


_NEEDED = object()


def _setting(args, settings: dict, key: str, check, default=_NEEDED):
    """The flag, else the config's key, else the default (none: required).

    The flag or the config's value goes through ``check(key, value)``; a
    config key set to null is refused, not taken as absent."""
    v = getattr(args, key, None)
    if v is None:
        if key not in settings:
            if default is _NEEDED:
                raise ValueError(f"missing --{key.replace('_', '-')} (or config {key!r})")
            return default
        v = settings[key]
        if v is None:
            raise ValueError(f"config {key!r} must not be null")
    return check(key, v)


def _real(key: str, v) -> float:
    """A finite number (bools are not numbers here)."""
    big = sys.float_info.max
    if isinstance(v, bool) or not isinstance(v, (int, float)) or not -big <= v <= big:
        raise ValueError(f"{key} must be a finite number, got {v!r}")
    return float(v)


def _count(least: int):
    """The check of an integer >= least (core.check_count)."""
    return lambda key, v: core.check_count(key, v, least)


def _root(args, settings: dict) -> core.RngStream:
    return core.RngStream(_setting(args, settings, "seed", _count(0), 0))


def _replicates(args, config: core.WeightedConfig, settings: dict):
    """(rep, stream, clocks) per replicate, on the seed's stream indexed by rep."""
    root = _root(args, settings)
    for rep in range(_setting(args, settings, "reps", _count(1), 1)):
        sub = root.indexed(rep)
        yield rep, sub, core.sample_clocks(config, sub.named("clocks"))


# -- subcommands -------------------------------------------------------------


def _cmd_simulate(args) -> int:
    config, settings = _load_config(args)
    q_max = _setting(args, settings, "q_max", core.check_positive)
    lines = ["rep,event,time,left_lo,left_hi,left_mass,right_lo,right_hi,right_mass,child,parent"]
    for rep, sub, clocks in _replicates(args, config, settings):
        traj = dynamics.run_trajectory(config, clocks, sub, q_max=q_max)
        for idx, ev in enumerate(traj.events):
            lines.append(
                f"{rep},{idx},{_f(ev.time)},{ev.left.lo},{ev.left.hi},{_f(ev.left.mass)},"
                f"{ev.right.lo},{ev.right.hi},{_f(ev.right.mass)},{ev.edge[0]},{ev.edge[1]}"
            )
    _write_lines(args.out, lines)
    return 0


def _cmd_forest(args) -> int:
    config, settings = _load_config(args)
    q = _setting(args, settings, "q", core.check_positive)
    lines = ["rep,vertex,parent,depth"]
    for rep, _sub, clocks in _replicates(args, config, settings):
        forest, _ = walk.breadth_first_forest(config, clocks, q)
        for v, (p, d) in enumerate(zip(forest.parent, forest.depth)):
            lines.append(f"{rep},{v},{'' if p is None else p},{d}")
    _write_lines(args.out, lines)
    return 0


_KIND_ORDER = {"span": 0, "simple": 1, "multi": 1, "loop": 2}


def _cmd_surplus(args) -> int:
    config, settings = _load_config(args)
    if args.static:
        for flag, value in (("--variant", args.variant), ("--q-max", args.q_max)):
            if value is not None:
                raise ValueError(f"{flag} applies to the dynamic graph only, not --static")
        q = _setting(args, settings, "q", core.check_positive)

        def graph(sub, clocks) -> surplus.LabeledGraph:
            path = walk.WalkPath.from_clocks(config, clocks, q)
            dec = walk.decompose(path)
            forest, _ = walk.breadth_first_forest(config, clocks, q)
            return surplus.static_surplus(path, dec, forest, sub)

    else:
        q_max = _setting(args, settings, "q_max", core.check_positive)
        # dynamic_surplus refuses an unknown variant before any output is written
        variant = _setting(args, settings, "variant", lambda _key, v: v, "simple")

        def graph(sub, clocks) -> surplus.LabeledGraph:
            traj = dynamics.run_trajectory(config, clocks, sub, q_max=q_max)
            return surplus.dynamic_surplus(traj, sub, q_max=q_max, variant=variant)

    rows = []
    for rep, sub, clocks in _replicates(args, config, settings):
        g = graph(sub, clocks)
        rows += [(rep, e.time, e.kind, e.source, e.target) for e in g.spanning + g.surplus]
    rows.sort(key=lambda r: (r[0], r[1], _KIND_ORDER[r[2]], r[3], r[4]))
    lines = ["rep,time,kind,source,target"]
    for rep, t, kind, s_v, t_v in rows:
        lines.append(f"{rep},{_f(t)},{kind},{s_v},{t_v}")
    _write_lines(args.out, lines)
    return 0


def _cmd_mosaic(args) -> int:
    config, settings = _load_config(args)
    q = _setting(args, settings, "q", core.check_positive)
    root = _root(args, settings)
    clocks = core.sample_clocks(config, root.named("clocks"))
    traj = dynamics.run_trajectory(config, clocks, root, q_max=q)
    svg = render.render_svg(traj, q, shade_slices=args.shade)
    render.save_svg(svg, args.svg)
    return 0


def _cmd_verify(args) -> int:
    seed = _setting(args, {}, "seed", _count(0), 7)
    flags = {k: getattr(args, k) for k in ("reps", "instances", "trajectories", "batches")}
    budgets = {k: _setting(args, {}, k, _count(1)) for k, v in flags.items() if v is not None}
    names = list(verify.SUITES) if args.suite == "all" else [args.suite]
    takes = {name: inspect.signature(verify.SUITES[name][1]).parameters for name in names}
    extra = [f"--{k}" for k in budgets if args.suite != "all" and k not in takes[args.suite]]
    if extra:
        raise ValueError(f"suite {args.suite} does not take {', '.join(extra)}")
    criteria = []
    for name in names:  # SUITES is in criterion order
        own = {k: v for k, v in budgets.items() if k in takes[name]}
        criteria.append(verify.SUITES[name][1](seed=seed, **own))
    report = {"seed": seed, "passed": all(r["passed"] for r in criteria), "criteria": criteria}
    if args.json:
        _write_json(args.json, report)
    for r in criteria:
        status = "pass" if r["passed"] else "FAIL"
        print(f"criterion {r['criterion']} {r['name']}: {status}")
    return 0 if report["passed"] else 1


_LIMIT_KEYS = ("kappa", "tau", "t", "c", "h", "horizon")


def _numbers(text: str) -> list[float]:
    """--c: the config's list of jump sizes as one comma-separated flag."""
    return [float(x) for x in text.split(",") if x.strip()]


def _jumps(key: str, v) -> tuple[float, ...]:
    if not isinstance(v, list):
        raise ValueError(f"{key} must be a list of numbers, got {v!r}")
    return tuple(_real(f"{key} entry", x) for x in v)


def _cmd_limit(args) -> int:
    payload = _read_config(args.config) if args.config else {}
    settings = payload.get("limit", {})
    if not isinstance(settings, dict):
        raise ValueError(f"config 'limit' must be a JSON object, got {settings!r}")
    _only("config 'limit'", settings, _LIMIT_KEYS)
    params = limit_mod.LimitParams(
        kappa=_setting(args, settings, "kappa", _real, 1.0),
        tau=_setting(args, settings, "tau", _real, 0.0),
        t=_setting(args, settings, "t", _real, 0.0),
        c=_setting(args, settings, "c", _jumps, ()),
    )
    h = _setting(args, settings, "h", core.check_positive, 1e-3)
    horizon = _setting(args, settings, "horizon", core.check_positive, None)
    reps = _setting(args, {}, "reps", _count(1))
    root = _root(args, payload)
    paths, marks_gen = root.named("limit-path"), root.named("limit-marks").generator()
    lines = ["source,rep,rank,excursion_length,mark_count"]
    for rep in range(reps):
        path = limit_mod.sample_limit_path(params, paths.indexed(rep), h, horizon)
        em = limit_mod.excursions_and_marks(path, marks_gen)
        for rank in range(len(em.lengths)):
            lines.append(f"limit,{rep},{rank},{_f(em.lengths[rank])},{int(em.counts[rank])}")
    _write_lines(args.out, lines)
    return 0


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcmosaic",
        description="simultaneous breadth-first-walk coalescent simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config with masses and defaults")
        p.add_argument("--seed", type=int, help="RNG seed (overrides config)")

    p = sub.add_parser("simulate", help="merger event log CSV")
    common(p)
    p.add_argument("--q-max", dest="q_max", type=float)
    p.add_argument("--reps", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("forest", help="fixed-horizon spanning forest CSV")
    common(p)
    p.add_argument("--q", type=float)
    p.add_argument("--reps", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_forest)

    p = sub.add_parser("surplus", help="spanning + surplus edge CSV")
    common(p)
    p.add_argument("--static", action="store_true", help="fixed-horizon construction")
    p.add_argument("--q", type=float)
    p.add_argument("--q-max", dest="q_max", type=float)
    p.add_argument("--variant", choices=("simple", "multigraph"))
    p.add_argument("--reps", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_surplus)

    p = sub.add_parser("mosaic", help="excursion mosaic SVG")
    common(p)
    p.add_argument("--q", type=float)
    p.add_argument("--shade", action="store_true", help="fill per-rank slices")
    p.add_argument("--svg", required=True)
    p.set_defaults(func=_cmd_mosaic)

    p = sub.add_parser("verify", help="acceptance criteria")
    p.add_argument("--suite", default="all", choices=sorted(verify.SUITES) + ["all"])
    p.add_argument("--seed", type=int)
    p.add_argument("--reps", type=int)
    p.add_argument("--instances", type=int)
    p.add_argument("--trajectories", type=int)
    p.add_argument("--batches", type=int)
    p.add_argument("--json", help="write the verdict report here")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("limit", help="limit-path excursion CSV")
    common(p)
    p.add_argument("--kappa", type=float)
    p.add_argument("--tau", type=float)
    p.add_argument("--t", type=float)
    p.add_argument("--c", type=_numbers, help="comma-separated jump sizes")
    p.add_argument("--h", type=float)
    p.add_argument("--horizon", type=float)
    p.add_argument("--reps", type=int, default=100)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_limit)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        code = e.code
        return int(code) if isinstance(code, int) else (0 if code is None else 2)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:  # bad input, or an unreadable or unwritable file
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
