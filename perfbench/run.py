"""Benchmark of mcmosaic: four regime workloads, end-to-end and per-layer metrics.

Run from the root of a checkout; it imports the package from ./src:

    python3 perfbench/run.py --workload critical --seed 1 --seconds 15 --trace 0

Workloads (see README.md beside this file for why each exists):
replicates, critical, supercritical, coalescence.  Everything runs in one
process on one thread, apart from fresh child processes for set-up and
memory, which run one at a time while this process waits.

--trace 0: set-up is timed in this process and in six fresh child processes
(the first two also run a memory pass: peak RSS and output digests of the
first ops; with --size tiny only those two run); then the timed pass repeats
the workload's op for --seconds.  Prints every end-to-end metric.

End-to-end times are normalised to the host's speed.  On a shared host the
speed of one core drifts (a fixed pure-Python loop varies by a third within a
minute, in CPU time as much as in wall time), so the timed pass runs a fixed
reference kernel before every op and after the last one, and reports each op
time scaled by REF_NOMINAL_S over the median of the REF_WINDOW reference times
around it: seconds at the speed at which the kernel takes REF_NOMINAL_S.
Set-up is scaled the same way by references taken just before and after it.
The wall times are printed too, as setup_s, ops_per_s, op_p50_s and
op_tail_s "(wall time)", and kept in the full report; they are not declared.
Before the timed pass the collector is run and the objects of set-up
(modules, the input pool) are frozen, so its full scans walk what the ops
make.

--trace 1: a memory pass with per-stage tracemalloc peaks in a fresh child;
an untraced and a traced pass over the same fixed ops (the difference is the
tracing overhead); the CLI subcommands; a size sweep fitting one log-log slope
per stage; and the line count of every module.  Prints every per-layer metric.

Every pass runs the workload's exact checks after each op, outside its timing,
and hashes its outputs; the digests of the passes must agree.  A failed check,
an op that raised, or differing digests make the run incorrect: it still
prints its result, then exits with status 1.  The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics; the
metric names and units are those BENCHMARK.json declares.  The spans and a
fuller report are written under --out-dir.
"""
from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MEMORY_CHILDREN = 2
SETUP_ONLY_CHILDREN = 4
# the reference kernel's time on a 2-vCPU Intel Xeon VM with CPython 3.11
REF_NOMINAL_S = 0.006
# reference times an op is scaled by: this many around it, half on each side
REF_WINDOW = 6
# reference runs just before and just after set-up, each side's median taken
REF_REPEATS = 3
CHILD_TIMEOUT_S = 60
TAIL_BEYOND = 10


def load_package():
    """Import mcmosaic from this checkout's src/, then the workload module."""
    pkg = SRC / "mcmosaic"
    if not (pkg / "__init__.py").is_file():
        raise SystemExit(f"error: {pkg} not found; run from the root of a checkout")
    sys.path.insert(0, str(SRC))
    import mcmosaic

    if Path(mcmosaic.__file__).resolve().parent != pkg.resolve():
        raise SystemExit(f"error: imported mcmosaic from {mcmosaic.__file__}, not {pkg}")
    import bench_ops

    return bench_ops


def ref_kernel() -> int:
    """Fixed pure-Python work: the yardstick of the host's current speed."""
    s = 0
    d = {}
    for i in range(40000):
        s += i * i % 7
        d[i & 1023] = s
    return s


def ref_time(repeats: int = 1) -> float:
    """Median wall time of repeated runs of the reference kernel."""
    ts = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        ref_kernel()
        ts.append(time.perf_counter() - t0)
    return statistics.median(ts)


@dataclass
class PassResult:
    times: list[float]
    digests: list[str]
    failures: list[str]
    report: dict
    attempted: int
    # op times scaled to the reference speed; empty unless the pass normalised
    norm_times: list[float]

    @property
    def ops_per_s(self) -> float:
        return len(self.times) / sum(self.times) if self.times else 0.0

    @property
    def norm_ops_per_s(self) -> float:
        return len(self.norm_times) / sum(self.norm_times) if self.norm_times else 0.0


def run_pass(ops, wl, inputs, tr, *, seconds=None, n_ops=None, min_ops=0, counts=None,
             normalise=False):
    """Repeat the op over inputs, for n_ops ops or for at least seconds of wall time.

    Only the op is timed.  Checks, digests and counts follow it, untimed.
    With normalise, the reference kernel is timed before every op and after
    the last, and each op time is also given scaled to the reference speed.
    """
    gc.collect()
    times, digests, failures, state = [], [], [], {}
    refs, timed_at = [], []
    started = time.perf_counter()
    i = 0
    while (i < n_ops) if n_ops is not None else (
        i < min_ops or time.perf_counter() - started < seconds
    ):
        inp = inputs[i % len(inputs)]
        tr.op_id = i
        if normalise:
            refs.append(ref_time())
        t0 = time.perf_counter()
        try:
            with tr.span("op"):
                out = wl.op(inp, tr)
        except Exception as exc:  # counted as a failed op, never dropped
            failures.append(f"op {i} raised {type(exc).__name__}: {exc}")
            digests.append("raised")
            i += 1
            continue
        finally:
            tr.op_id = -1
        times.append(time.perf_counter() - t0)
        timed_at.append(i)
        try:
            wl.check(inp, out)
        except Exception as exc:  # a failed identity, or a stage raising inside a check
            failures.append(f"op {i} check {type(exc).__name__}: {exc}")
        digests.append(ops.op_digest(wl, out))
        if wl.observe is not None and i < len(inputs):  # law reports need distinct draws
            wl.observe(inp, out, state)
        if counts is not None:
            wl.tally(out, counts)
        i += 1
    report = wl.report(state, tr) if wl.report is not None else {}
    norm_times = []
    if normalise:
        refs.append(ref_time())
        half = REF_WINDOW // 2
        norm_times = [
            t * REF_NOMINAL_S / statistics.median(refs[max(0, j + 1 - half): j + 1 + half])
            for t, j in zip(times, timed_at)
        ]
    return PassResult(times, digests, failures, report, i, norm_times)


def tail(times: list[float]) -> tuple[float, float, int]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, samples beyond).  With too few samples the
    tail is the maximum and nothing lies beyond it.
    """
    s = sorted(times)
    n = len(s)
    if n <= TAIL_BEYOND:
        return s[-1], 100.0, 0
    return s[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, TAIL_BEYOND


def spawn_child(args, role: str, alloc_peaks: bool = False) -> dict:
    """One fresh child, waited for.

    role memory: set-up, the workload's first mem_ops ops, peak RSS.
    role setup: set-up only.
    """
    cmd = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0",
        "--trace", "0", "--size", args.size, "--role", role,
    ]
    if alloc_peaks:
        cmd.append("--alloc-peaks")
    proc = subprocess.run(
        cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"{role} child exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup(args):
    """Import plus input generation: the set-up every pass pays before its first op.

    Returns the set-up's wall time and that time scaled to the reference speed.
    """
    ref_before = ref_time(REF_REPEATS)
    t0 = time.perf_counter()
    ops = load_package()
    wl = ops.workload(args.workload, args.size)
    inputs = wl.inputs(args.seed)
    wall = time.perf_counter() - t0
    norm = wall * REF_NOMINAL_S / (0.5 * (ref_before + ref_time(REF_REPEATS)))
    return ops, wl, inputs, wall, norm


def child_role(args) -> int:
    ops, wl, inputs, setup_wall_s, setup_s = setup(args)
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
        return 0
    from bench_trace import AllocPeaks, Untraced

    if args.alloc_peaks:
        import tracemalloc

        tracemalloc.start()
        tr = AllocPeaks()
    else:
        tr = Untraced()
    res = run_pass(ops, wl, inputs, tr, n_ops=wl.mem_ops)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({
        "setup_s": setup_s,
        "setup_wall_s": setup_wall_s,
        "peak_rss_mib": rss_kib / 1024.0,
        "digests": res.digests,
        "failures": res.failures,
        "attempted": res.attempted,
        "peaks": getattr(tr, "peak", {}),
    }))
    return 0


def digest_agreement(reference: list[str], others: dict[str, list[str]]) -> list[str]:
    """Passes whose digests differ from the reference over their common ops."""
    bad = []
    for name, digests in others.items():
        k = min(len(reference), len(digests))
        if k == 0 or digests[:k] != reference[:k]:
            bad.append(f"{name} digests differ from the reference over the first {k} ops")
    return bad


def line_counts() -> dict[str, int]:
    counts = {}
    total = 0
    for f in sorted((SRC / "mcmosaic").glob("*.py")):
        lines = len(f.read_text(encoding="utf-8").splitlines())
        total += lines
        if f.stem != "__init__":
            counts[f"{f.stem}.lines"] = lines
    counts["src.lines"] = total
    return counts


def timed_run(args, ops, wl, inputs, parent_setup):
    from bench_trace import Untraced

    kids = [spawn_child(args, "memory") for _ in range(MEMORY_CHILDREN)]
    setup_only = SETUP_ONLY_CHILDREN if args.size == "full" else 0
    setup_kids = kids + [spawn_child(args, "setup") for _ in range(setup_only)]
    gc.collect()
    gc.freeze()
    timed = run_pass(
        ops, wl, inputs, Untraced(), seconds=args.seconds, min_ops=wl.mem_ops,
        normalise=True,
    )
    gc.unfreeze()
    setups = [parent_setup[1]] + [k["setup_s"] for k in setup_kids]
    setups_wall = [parent_setup[0]] + [k["setup_wall_s"] for k in setup_kids]
    norm = timed.norm_times
    tail_s, tail_pct, beyond = tail(norm) if norm else (0.0, 0.0, 0)
    failures = timed.failures + [f for k in kids for f in k["failures"]]
    mismatches = digest_agreement(
        timed.digests, {f"memory pass {i}": k["digests"] for i, k in enumerate(kids)}
    )
    attempted = timed.attempted + sum(k["attempted"] for k in kids)
    metrics = {
        "setup_s": statistics.median(setups),
        "norm_ops_per_s": timed.norm_ops_per_s,
        "norm_op_p50_s": statistics.median(norm) if norm else 0.0,
        "norm_op_tail_s": tail_s,
        "peak_rss_mib": statistics.median(k["peak_rss_mib"] for k in kids),
    }
    detail = {
        "setup_samples_s": setups,
        "setup_wall_samples_s": setups_wall,
        "wall": {
            "setup_s": statistics.median(setups_wall),
            "ops_per_s": timed.ops_per_s,
            "op_p50_s": statistics.median(timed.times) if timed.times else 0.0,
            "op_tail_s": tail(timed.times)[0] if timed.times else 0.0,
        },
        "ops": len(timed.times),
        "op_tail_percentile": tail_pct,
        "op_tail_beyond": beyond,
        "failed_frac": len(failures) / attempted,
        "peak_rss_samples_mib": [k["peak_rss_mib"] for k in kids],
        "digest_first_ops": timed.digests[: wl.mem_ops],
        "law_report": timed.report,
    }
    return metrics, detail, failures, mismatches, attempted


def traced_run(args, ops, wl, inputs, out_dir: Path):
    from bench_trace import Spans, Untraced

    mem = spawn_child(args, "memory", alloc_peaks=True)
    untraced = run_pass(ops, wl, inputs, Untraced(), n_ops=wl.trace_ops)
    spans = Spans()
    counts: Counter = Counter()
    traced = run_pass(ops, wl, inputs, spans, n_ops=wl.trace_ops, counts=counts)
    written = ops.cli_pass(wl, inputs[0], spans, out_dir / "cli", args.seed)

    per_size = {}
    sweep_failures = []
    sweep_attempted = 0
    for size in wl.sweep:
        sp = Spans()
        sweep_inputs = wl.sweep_inputs(args.seed, size)
        res = run_pass(ops, wl, sweep_inputs, sp, n_ops=len(sweep_inputs))
        sweep_failures += [f"sweep {size}: {f}" for f in res.failures]
        sweep_attempted += res.attempted
        per_size[size] = ops.stage_medians(sp.per_op_busy())
    slopes = ops.fit_slopes(per_size)

    busy, own, calls = spans.busy_and_self()
    m: dict[str, float] = {}
    for stage in ops.STAGES + ("stats.chi_square_homogeneity",):
        m[f"{stage}.busy_s"] = busy.get(stage, 0.0)
    for stage in ("core.sample_clocks", "dynamics.run_trajectory"):
        m[f"{stage}.calls"] = calls.get(stage, 0)
    for name in ops.COUNTS:
        m[name] = counts[name]
    for sub in ops.CLI_SUBCOMMANDS:
        m[f"cli.{sub}.busy_s"] = busy[f"cli.{sub}"]
        m[f"cli.{sub}.bytes"] = written[sub]
    m["op.self_s"] = own.get("op", 0.0)
    m["trace.ops_per_s_delta"] = traced.ops_per_s - untraced.ops_per_s
    for stage in ops.STAGES:
        m[f"{stage}.slope"] = slopes.get(stage, 0.0)
        m[f"{stage}.peak_mib"] = mem["peaks"].get(stage, 0) / 2**20
    m.update(line_counts())

    failures = untraced.failures + traced.failures + mem["failures"] + sweep_failures
    mismatches = digest_agreement(
        traced.digests, {"untraced pass": untraced.digests, "memory pass": mem["digests"]}
    )
    attempted = untraced.attempted + traced.attempted + mem["attempted"] + sweep_attempted
    spans_file = out_dir / f"{args.workload}-seed{args.seed}.spans.csv"
    spans.write_csv(spans_file)
    detail = {
        "untraced_ops_per_s": untraced.ops_per_s,
        "traced_ops_per_s": traced.ops_per_s,
        "self_s": own,
        "busy_s": busy,
        "sweep_stage_medians_s": {str(k): v for k, v in per_size.items()},
        "slopes": slopes,
        "spans_file": str(spans_file),
        "digest_traced_ops": traced.digests,
        "law_report": traced.report,
    }
    return m, detail, failures, mismatches, attempted


def declared_metrics(kind: str) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return spec[kind]


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("replicates", "critical", "supercritical", "coalescence"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny: minute inputs, for the smoke test")
    p.add_argument("--out-dir", type=Path, default=ROOT / ".perfbench_out",
                   help="where spans and the full report go")
    p.add_argument("--role", choices=("main", "memory", "setup"), default="main",
                   help=argparse.SUPPRESS)
    p.add_argument("--alloc-peaks", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if args.role != "main":
        return child_role(args)

    ops, wl, inputs, *parent_setup = setup(args)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    if args.trace:
        values, detail, failures, mismatches, attempted = traced_run(
            args, ops, wl, inputs, args.out_dir
        )
        declared = declared_metrics("per_layer")
    else:
        values, detail, failures, mismatches, attempted = timed_run(
            args, ops, wl, inputs, parent_setup
        )
        declared = declared_metrics("end_to_end")

    missing = [d["name"] for d in declared if d["name"] not in values]
    if missing:
        raise SystemExit(f"error: declared metrics not produced: {missing}")
    metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]} for d in declared}
    correct = not failures and not mismatches
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": args.size, "correct": correct, "metrics": values, "detail": detail,
              "failures": failures, "digest_mismatches": mismatches}
    out_file = args.out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(report, indent=1, sort_keys=True, default=str))

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  size {args.size}")
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']!r:>24} {m['unit']}")
    if not args.trace:
        print(f"  {'failed_frac':<44} {detail['failed_frac']!r:>24} 1")
        print(f"  norm_op_tail_s is p{detail['op_tail_percentile']:.2f} of {detail['ops']} ops, "
              f"{detail['op_tail_beyond']} beyond it")
        for name, value in detail["wall"].items():
            unit = "1/s" if name == "ops_per_s" else "s"
            print(f"  {name + ' (wall time)':<44} {value!r:>24} {unit}")
    else:
        glue = {k: v for k, v in detail["self_s"].items() if k == "op" or k.startswith("part.")}
        print(f"  self time of spans with children (s): {json.dumps(glue, sort_keys=True)}")
        print(f"  tracing overhead: {detail['traced_ops_per_s']!r} ops/s traced, "
              f"{detail['untraced_ops_per_s']!r} untraced")
    if detail["law_report"]:
        print(f"  law report (not gated): {json.dumps(detail['law_report'], sort_keys=True)}")
    for f in (failures + mismatches)[:20]:
        print(f"  FAILED: {f}")
    print(f"  full report: {out_file}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
