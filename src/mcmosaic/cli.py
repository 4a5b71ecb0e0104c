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


def _load_config(args) -> tuple[core.WeightedConfig, dict]:
    if not getattr(args, "config", None):
        raise ValueError("this subcommand requires --config")
    return core.load_config(args.config)


def _pick(args, settings: dict, key: str, required: bool = True):
    v = getattr(args, key, None)
    if v is None:
        v = settings.get(key)
    if v is None and required:
        raise ValueError(f"missing --{key.replace('_', '-')} (or config {key!r})")
    return v


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _real(key: str, v, positive: bool = False) -> float:
    """A finite number, > 0 if positive (bools are not numbers here)."""
    big = sys.float_info.max
    if (
        isinstance(v, bool)
        or not isinstance(v, (int, float))
        or not (0 < v <= big if positive else -big <= v <= big)
    ):
        raise ValueError(f"{key} must be a finite number{' > 0' if positive else ''}, got {v!r}")
    return float(v)


def _level(args, settings: dict, key: str) -> float:
    """q or q_max: a finite number > 0."""
    return _real(key, _pick(args, settings, key), positive=True)


def _reps(args, settings: dict) -> int:
    v = _pick(args, settings, "reps", required=False)
    if v is None:
        return 1
    if not _is_int(v) or v < 1:
        raise ValueError(f"reps must be an integer >= 1, got {v!r}")
    return v


def _seed(args, settings: dict) -> int:
    v = getattr(args, "seed", None)
    if v is None:
        v = settings.get("seed", 0)
    if not _is_int(v) or v < 0:
        raise ValueError(f"seed must be an integer >= 0, got {v!r}")
    return v


# -- subcommands -------------------------------------------------------------


def _cmd_simulate(args) -> int:
    config, settings = _load_config(args)
    seed = _seed(args, settings)
    q_max = _level(args, settings, "q_max")
    reps = _reps(args, settings)
    root = core.RngStream(seed)
    lines = ["rep,event,time,left_lo,left_hi,left_mass,right_lo,right_hi,right_mass,child,parent"]
    for rep in range(reps):
        sub = root.indexed(rep)
        clocks = core.sample_clocks(config, sub.named("clocks"))
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
    seed = _seed(args, settings)
    q = _level(args, settings, "q")
    reps = _reps(args, settings)
    root = core.RngStream(seed)
    lines = ["rep,vertex,parent,depth"]
    for rep in range(reps):
        clocks = core.sample_clocks(config, root.indexed(rep).named("clocks"))
        forest, _ = walk.breadth_first_forest(config, clocks, q)
        for v, (p, d) in enumerate(zip(forest.parent, forest.depth)):
            lines.append(f"{rep},{v},{'' if p is None else p},{d}")
    _write_lines(args.out, lines)
    return 0


_KIND_ORDER = {"span": 0, "simple": 1, "multi": 1, "loop": 2}


def _cmd_surplus(args) -> int:
    config, settings = _load_config(args)
    seed = _seed(args, settings)
    reps = _reps(args, settings)
    root = core.RngStream(seed)

    if args.static:
        for flag, value in (("--variant", args.variant), ("--q-max", args.q_max)):
            if value is not None:
                raise ValueError(f"{flag} applies to the dynamic graph only, not --static")
        q = _level(args, settings, "q")

        def work(rep: int):
            sub = root.indexed(rep)
            clocks = core.sample_clocks(config, sub.named("clocks"))
            path = walk.WalkPath.from_clocks(config, clocks, q)
            dec = walk.decompose(path)
            forest, _ = walk.breadth_first_forest(config, clocks, q)
            g = surplus.static_surplus(path, dec, forest, sub)
            return _graph_rows(rep, g)

    else:
        q_max = _level(args, settings, "q_max")
        variant = _pick(args, settings, "variant", required=False) or "simple"
        if variant not in ("simple", "multigraph"):
            raise ValueError(f"unknown variant {variant!r}")

        def work(rep: int):
            sub = root.indexed(rep)
            clocks = core.sample_clocks(config, sub.named("clocks"))
            traj = dynamics.run_trajectory(config, clocks, sub, q_max=q_max)
            g = surplus.dynamic_surplus(traj, sub, q_max=q_max, variant=variant)
            return _graph_rows(rep, g)

    rows = [row for rep in range(reps) for row in work(rep)]
    rows.sort(key=lambda r: (r[0], r[1], _KIND_ORDER[r[2]], r[3], r[4]))
    lines = ["rep,time,kind,source,target"]
    for rep, t, kind, s_v, t_v in rows:
        lines.append(f"{rep},{_f(t)},{kind},{s_v},{t_v}")
    _write_lines(args.out, lines)
    return 0


def _graph_rows(rep: int, g: surplus.LabeledGraph) -> list[tuple]:
    return [(rep, e.time, e.kind, e.source, e.target) for e in g.spanning + g.surplus]


def _cmd_mosaic(args) -> int:
    config, settings = _load_config(args)
    seed = _seed(args, settings)
    q = _level(args, settings, "q")
    root = core.RngStream(seed)
    clocks = core.sample_clocks(config, root.named("clocks"))
    traj = dynamics.run_trajectory(config, clocks, root, q_max=q)
    svg = render.render_svg(traj, q, shade_slices=args.shade)
    render.save_svg(svg, args.svg)
    return 0


def _cmd_verify(args) -> int:
    seed = _seed(args, {"seed": 7})
    flags = {
        "reps": args.reps,
        "instances": args.instances,
        "trajectories": args.trajectories,
        "batches": args.batches,
    }
    for k, v in flags.items():
        if v is not None and v < 1:
            raise ValueError(f"{k} must be an integer >= 1, got {v!r}")

    def accepted(fn) -> dict:
        sig = inspect.signature(fn).parameters
        return {k: v for k, v in flags.items() if v is not None and k in sig}

    if args.suite == "all":
        overrides = {
            name: accepted(fn) for name, (_n, fn) in verify.SUITES.items()
        }
        report = verify.run_all(seed, overrides)
    else:
        result = verify.run_suite(args.suite, seed=seed, **accepted(verify.SUITES[args.suite][1]))
        report = {"seed": seed, "passed": result["passed"], "criteria": [result]}
    if args.json:
        _write_json(args.json, report)
    for r in report["criteria"]:
        status = "pass" if r["passed"] else "FAIL"
        print(f"criterion {r['criterion']} {r['name']}: {status}")
    return 0 if report["passed"] else 1


def _cmd_limit(args) -> int:
    payload = core.read_config(args.config) if args.config else {}
    settings = payload.get("limit", {})
    if not isinstance(settings, dict):
        raise ValueError(f"config 'limit' must be a JSON object, got {settings!r}")

    def opt(key, default=None):
        v = getattr(args, key, None)
        return settings.get(key, default) if v is None else v

    kappa = _real("kappa", opt("kappa", 1.0))
    tau = _real("tau", opt("tau", 0.0))
    t = _real("t", opt("t", 0.0))
    if args.c is not None:  # the flag is comma-separated; the config gives a list
        c_raw = [float(x) for x in args.c.split(",") if x.strip()]
    else:
        c_raw = settings.get("c", [])
        if not isinstance(c_raw, list):
            raise ValueError(f"config c must be a list of numbers, got {c_raw!r}")
    c = tuple(_real("c entry", x) for x in c_raw)
    h = _real("h", opt("h", 1e-3), positive=True)
    horizon = opt("horizon")
    horizon = None if horizon is None else _real("horizon", horizon, positive=True)
    if args.reps < 1:
        raise ValueError(f"reps must be an integer >= 1, got {args.reps!r}")
    reps = args.reps
    seed = _seed(args, payload)

    params = limit_mod.LimitParams(kappa=kappa, tau=tau, t=t, c=c)
    root = core.RngStream(seed)
    marks_gen = root.named("limit-marks").generator()
    lines = ["source,rep,rank,excursion_length,mark_count"]
    for rep in range(reps):
        path = limit_mod.sample_limit_path(
            params, root.named("limit-path").indexed(rep), h, horizon
        )
        em = limit_mod.excursions_and_marks(path, marks_gen)
        for rank in range(len(em.lengths)):
            lines.append(
                f"limit,{rep},{rank},{_f(em.lengths[rank])},{int(em.counts[rank])}"
            )
    _write_lines(args.out, lines)
    return 0


# -- parser ------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mcmosaic",
        description="simultaneous breadth-first-walk coalescent simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, config=True):
        if config:
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
    p.add_argument("--c", help="comma-separated jump sizes")
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
