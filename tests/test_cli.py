"""Command line interface end to end through main()."""

import functools
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mcmosaic
from mcmosaic import verify
from mcmosaic.cli import main


@pytest.fixture
def config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(
        json.dumps(
            {
                "masses": [1.0, 1.5, 0.75, 2.0],
                "seed": 11,
                "q_max": 2.0,
                "q": 1.2,
                "reps": 3,
            }
        )
    )
    return str(path)


def test_simulate_writes_event_log(config_file, tmp_path):
    out = tmp_path / "events.csv"
    rc = main(["simulate", "--config", config_file, "--out", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("rep,event,time,")
    body = [l.split(",") for l in lines[1:]]
    assert body, "expected at least one merger at q_max=2"
    reps = {int(r[0]) for r in body}
    assert reps <= {0, 1, 2}
    for rep in reps:
        times = [float(r[2]) for r in body if int(r[0]) == rep]
        assert times == sorted(times)


def test_simulate_byte_identical(config_file, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(["simulate", "--config", config_file, "--out", str(a)]) == 0
    assert main(["simulate", "--config", config_file, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_seed_flag_overrides_config(config_file, tmp_path):
    a, b = tmp_path / "s11.csv", tmp_path / "s12.csv"
    assert main(["simulate", "--config", config_file, "--out", str(a)]) == 0
    assert main(["simulate", "--config", config_file, "--seed", "12", "--out", str(b)]) == 0
    assert a.read_bytes() != b.read_bytes()


def test_forest_output(config_file, tmp_path):
    out = tmp_path / "forest.csv"
    rc = main(["forest", "--config", config_file, "--out", str(out), "--reps", "2"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "rep,vertex,parent,depth"
    rows = [l.split(",") for l in lines[1:]]
    assert len(rows) == 2 * 4  # reps * vertices
    for r in rows:
        if r[2] == "":
            assert r[3] == "0"  # roots sit at depth zero


def test_surplus_static_and_dynamic(config_file, tmp_path):
    st = tmp_path / "st.csv"
    dy = tmp_path / "dy.csv"
    assert main(["surplus", "--config", config_file, "--static", "--out", str(st)]) == 0
    assert (
        main(
            [
                "surplus",
                "--config",
                config_file,
                "--variant",
                "multigraph",
                "--out",
                str(dy),
            ]
        )
        == 0
    )
    for path in (st, dy):
        lines = path.read_text().splitlines()
        assert lines[0] == "rep,time,kind,source,target"
    kinds_dy = {l.split(",")[2] for l in dy.read_text().splitlines()[1:]}
    assert "span" in kinds_dy


def test_mosaic_svg(config_file, tmp_path):
    svg = tmp_path / "m.svg"
    rc = main(["mosaic", "--config", config_file, "--svg", str(svg), "--shade"])
    assert rc == 0
    text = svg.read_text()
    assert text.startswith("<svg ")
    assert "<polygon" in text
    svg2 = tmp_path / "m2.svg"
    assert main(["mosaic", "--config", config_file, "--svg", str(svg2), "--shade"]) == 0
    assert svg.read_bytes() == svg2.read_bytes()


def test_limit_csv(tmp_path):
    out = tmp_path / "limit.csv"
    rc = main(
        [
            "limit",
            "--seed",
            "5",
            "--reps",
            "20",
            "--h",
            "0.005",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "source,rep,rank,excursion_length,mark_count"
    assert len(lines) > 1
    out2 = tmp_path / "limit2.csv"
    main(["limit", "--seed", "5", "--reps", "20", "--h", "0.005", "--out", str(out2)])
    assert out.read_bytes() == out2.read_bytes()


def test_verify_single_suite(tmp_path):
    report = tmp_path / "v.json"
    rc = main(
        [
            "verify",
            "--suite",
            "intensity",
            "--seed",
            "3",
            "--instances",
            "50",
            "--json",
            str(report),
        ]
    )
    assert rc == 0
    payload = json.loads(report.read_text())
    assert payload["passed"] is True
    assert payload["criteria"][0]["name"] == "intensity"


@pytest.fixture
def suite_calls(monkeypatch):
    """Each verify suite replaced by a passing stub that records its keyword
    arguments; ``functools.wraps`` keeps the real suite's signature visible."""
    calls = []

    def stub(num, name, fn):
        @functools.wraps(fn)
        def record(**kwargs):
            calls.append((name, kwargs))
            return verify._result(num, name, True, {})

        return record

    for name, (num, fn) in list(verify.SUITES.items()):
        monkeypatch.setitem(verify.SUITES, name, (num, stub(num, name, fn)))
    return calls


@pytest.mark.parametrize(
    "suite, argv, named",
    [
        ("intensity", ["--reps", "5"], "--reps"),
        ("determinism", ["--reps", "5"], "--reps"),
        ("scaling", ["--instances", "3"], "--instances"),
        ("monotone-logs", ["--batches", "2"], "--batches"),
        ("static-law", ["--trajectories", "9"], "--trajectories"),
        ("merge-rate", ["--instances", "3"], "--instances"),
        ("intensity", ["--instances", "3", "--reps", "5", "--trajectories", "9"],
         "--reps, --trajectories"),
    ],
)
def test_verify_refuses_a_budget_the_suite_does_not_take(suite, argv, named, suite_calls,
                                                         capsys):
    """With one suite named, a budget flag it does not take exits 2 before
    anything runs, instead of being dropped."""
    assert main(["verify", "--suite", suite] + argv) == 2
    assert capsys.readouterr().err == f"error: suite {suite} does not take {named}\n"
    assert suite_calls == []


def test_verify_all_routes_the_budgets(suite_calls, tmp_path):
    """verify (all suites) runs them in criterion order, each with exactly
    the budgets its signature takes, and reports one verdict per suite."""
    report = tmp_path / "v.json"
    assert main(["verify", "--instances", "3", "--reps", "7", "--json", str(report)]) == 0
    reps, instances = {"seed": 7, "reps": 7}, {"seed": 7, "instances": 3}
    assert suite_calls == [
        ("static-law", reps),
        ("process-law", reps),
        ("slice-rates", instances),
        ("surplus-poisson", reps),
        ("intensity", instances),
        ("monotone-logs", {"seed": 7}),
        ("mosaic-roundtrip", instances),
        ("merge-rate", reps),
        ("scaling", reps),
        ("determinism", {"seed": 7}),
    ]
    payload = json.loads(report.read_text())
    assert payload["seed"] == 7 and payload["passed"] is True
    assert [(r["criterion"], r["name"]) for r in payload["criteria"]] == [
        (num, name) for name, (num, _fn) in verify.SUITES.items()
    ]
    assert [num for num, _fn in verify.SUITES.values()] == list(range(1, 11))


def test_verify_merge_rate_below_its_engine_sample(tmp_path):
    """Fewer draws than the engine cross-check's 2,000 pairs: the engine
    checks every draw instead of indexing past them."""
    report = tmp_path / "v.json"
    rc = main(["verify", "--suite", "merge-rate", "--reps", "500", "--json", str(report)])
    assert rc in (0, 1)
    assert json.loads(report.read_text())["criteria"][0]["details"]["engine_checked"] == 500


def test_verify_determinism_prints_one_line(capsys):
    """Criterion 10 runs the CLI in process; its nested verify call does not
    print into the report."""
    assert main(["verify", "--suite", "determinism"]) == 0
    assert capsys.readouterr().out.splitlines() == ["criterion 10 determinism: pass"]


@pytest.mark.parametrize(
    "argv",
    [
        ["--suite", "intensity", "--instances", "0"],
        ["--suite", "intensity", "--instances", "-3"],
        ["--suite", "slice-rates", "--instances", "0"],
        ["--suite", "monotone-logs", "--trajectories", "0"],
        ["--suite", "surplus-poisson", "--trajectories", "0"],
        ["--suite", "scaling", "--batches", "0"],
        ["--suite", "static-law", "--reps", "0"],
    ],
)
def test_verify_rejects_budgets_below_one(argv, capsys):
    """A budget that checks nothing is a usage error, not a pass."""
    assert main(["verify"] + argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--config", "{cfg}", "--seed", "-1", "--out", "{out}"],
        ["limit", "--seed", "-1", "--reps", "2", "--out", "{out}"],
        ["verify", "--suite", "merge-rate", "--reps", "500", "--seed", "-1"],
        ["forest", "--config", "{neg}", "--out", "{out}"],
    ],
    ids=["flag", "limit", "verify", "config"],
)
def test_negative_seed_is_named_in_the_error(argv, config_file, tmp_path, capsys):
    """A negative seed, as a flag or in the config, is refused by name
    before anything runs, not by numpy's seeding."""
    neg = tmp_path / "neg.json"
    neg.write_text(json.dumps({**_SCALARS, "seed": -1}))
    out = tmp_path / "out"
    argv = [a.format(cfg=config_file, neg=neg, out=out) for a in argv]
    assert main(argv) == 2
    assert capsys.readouterr().err == "error: seed must be an integer >= 0, got -1\n"
    assert not out.exists()


def test_missing_config_is_usage_error(tmp_path):
    rc = main(["simulate", "--out", str(tmp_path / "x.csv")])
    assert rc == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--q-max", "1", "--out"],
        ["forest", "--q", "1", "--out"],
        ["surplus", "--out"],
        ["mosaic", "--q", "1", "--svg"],
        ["limit", "--out"],
    ],
)
def test_unreadable_config_is_usage_error(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(argv + [str(out), "--config", str(tmp_path / "nope.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "nope.json" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, payload",
    [
        (["simulate", "--q-max", "1", "--out"], 5),
        (["simulate", "--q-max", "1", "--out"], {"masses": "123"}),
        (["simulate", "--q-max", "1", "--out"], {"masses": {"1": 2.0}}),
        (["forest", "--q", "1", "--out"], {"masses": [True, 1.0]}),
        (["limit", "--reps", "2", "--out"], 5),
        (["limit", "--reps", "2", "--out"], {"limit": 5}),
    ],
)
def test_malformed_config_is_usage_error(argv, payload, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(payload))
    out = tmp_path / "out"
    assert main(argv + [str(out), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


_SCALARS = {"masses": [1.0, 1.5, 0.75], "seed": 1, "q": 1, "q_max": 2, "reps": 2}


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["simulate", "--out"], {"seed": 1.7, "q_max": True, "reps": "2"}),
        (["simulate", "--out"], {"seed": True}),
        (["simulate", "--out"], {"seed": "3"}),
        (["simulate", "--out"], {"q_max": "1"}),
        (["simulate", "--out"], {"q_max": float("nan")}),
        (["simulate", "--out"], {"reps": 0}),
        (["simulate", "--out"], {"reps": 1.5}),
        (["forest", "--out"], {"q": True}),
        (["forest", "--out"], {"reps": False}),
        (["surplus", "--static", "--out"], {"q": [1.0]}),
        (["surplus", "--out"], {"q_max": float("inf")}),
        (["mosaic", "--svg"], {"q": "0.5"}),
        (["mosaic", "--svg"], {"q": 10**400}),
        (["limit", "--reps", "2", "--out"], {"seed": 2.5}),
        (["simulate", "--out"], {"reps": None}),
        (["surplus", "--static", "--out"], {"reps": None}),
        (["surplus", "--out"], {"variant": None}),
    ],
)
def test_config_scalars_are_type_checked(argv, bad, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_SCALARS, **bad}))
    out = tmp_path / "out"
    assert main(argv + [str(out), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, extra",
    [
        (["simulate", "--out"], {"rep": 5}),
        (["simulate", "--out"], {"Seed": 3}),
        (["forest", "--out"], {"qmax": 2}),
        (["surplus", "--static", "--out"], {"variants": "multigraph"}),
        (["surplus", "--out"], {"kappa": 2.0}),
        (["mosaic", "--svg"], {"shade": True}),
        (["limit", "--reps", "2", "--out"], {"h": 0.01}),
    ],
)
def test_config_names_the_top_level_keys_no_subcommand_reads(argv, extra, tmp_path, capsys):
    """One config serves every subcommand, so a top-level key outside
    masses, seed, q, q_max, reps, variant and limit is refused by name
    instead of dropped (a misspelt reps ran one replicate)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**_SCALARS, **extra}))
    out = tmp_path / "out"
    assert main(argv + [str(out), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and repr(next(iter(extra))) in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["simulate", "--out"], ["forest", "--out"], ["surplus", "--static", "--out"],
     ["mosaic", "--svg"], ["limit", "--reps", "2", "--out"]],
)
def test_config_scalars_accept_plain_ints(argv, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(_SCALARS))
    assert main(argv + [str(tmp_path / "out"), "--config", str(cfg)]) == 0


def test_unknown_subcommand_exits_2():
    assert main(["frobnicate"]) == 2


def test_bench_is_not_a_subcommand():
    assert main(["bench", "--n", "40"]) == 2


def test_bad_variant_rejected(config_file, tmp_path):
    rc = main(
        [
            "surplus",
            "--config",
            config_file,
            "--variant",
            "nope",
            "--out",
            str(tmp_path / "x.csv"),
        ]
    )
    assert rc == 2


@pytest.mark.parametrize("flag", [["--variant", "multigraph"], ["--q-max", "2.0"]])
def test_static_surplus_refuses_dynamic_flags(flag, config_file, tmp_path, capsys):
    """--variant and --q-max shape only the dynamic graph: with --static they
    are refused instead of ignored (the config's q_max key stays accepted)."""
    out = tmp_path / "x.csv"
    assert main(["surplus", "--config", config_file, "--static", "--out", str(out)] + flag) == 2
    assert "dynamic graph only" in capsys.readouterr().err
    assert not out.exists()


_PINNED_SHA256 = {
    "simulate": (
        "755d16316a6edb6828e585e69ad874de"
        "f7702b7c7d042d0e3b8b34ef894cf36d"
    ),
    "forest": (
        "3d06966b013748b2026a7c1bf160bd19"
        "36caf39334d8cf16f897c17835c72763"
    ),
    "surplus": (
        "5e0cbe41d2e6cbf9069dd5c216a6fe61"
        "89537858e8f11ad33bfc2733641b1a8a"
    ),
    "surplus-multigraph": (
        "df327dd174ff8d4a446a4e865d66a4fb"
        "dfff56d3b789a9899ef188a948dafb08"
    ),
    "surplus-static": (
        "dcdc0478c4b5f2cd4f22555bd627233d"
        "ce326c62e51f98ac492f7a7718483715"
    ),
    "mosaic-shade": (
        "146bd26e28d97146159e6007feab2e8f"
        "a228c23309f91dabc8473f5b4981fb59"
    ),
    "limit": (
        "6a5a68adf7f923af6164ed18d92eb478"
        "c039c2c98be1625b5149b4edfea6758e"
    ),
}


def test_seeded_outputs_are_pinned(tmp_path):
    """Seeded output bytes stay fixed across refactors.

    200 masses from ``np.random.default_rng(3).uniform(0.5, 2, 200)``;
    ``simulate`` runs to full coalescence, ``limit`` takes 20 paths at
    h = 0.005 with the config's seed, the others run at q = 2 / sigma2.
    The digests were recorded with numpy 2.4.6; a deliberate change of the
    draws updates them and says so in CHANGES.md.  ``surplus`` and
    ``surplus-multigraph`` were re-recorded when the dynamic surplus began
    to draw in bulk (one Poisson total, then every arrival's process, time
    and target, each set in one call), and ``surplus-static`` when the static
    surplus began to pool its sparse targets (one Poisson count over the
    pool, then the coins of the other targets and a target and a candidate
    uniform per arrival, in one call).  ``surplus`` was re-recorded again
    when the simple dynamic graph began to draw each vertex pair's first
    arrival with the static surplus's pair kernel (the kernel's coins and
    pooled arrivals, then one time uniform per pair), which bounds its work
    by the pairs instead of the arrivals; the other digests did not change.
    """
    masses = [float(m) for m in np.random.default_rng(3).uniform(0.5, 2.0, 200)]
    q = 2.0 / math.fsum(m * m for m in masses)
    cfg = tmp_path / "pinned.json"
    cfg.write_text(
        json.dumps({"masses": masses, "seed": 5, "q": q, "q_max": q, "reps": 2})
    )
    runs = {
        "simulate": ["simulate", "--q-max", "1e6", "--reps", "3", "--out"],
        "forest": ["forest", "--out"],
        "surplus": ["surplus", "--out"],
        "surplus-multigraph": ["surplus", "--variant", "multigraph", "--out"],
        "surplus-static": ["surplus", "--static", "--out"],
        "mosaic-shade": ["mosaic", "--shade", "--svg"],
        "limit": ["limit", "--reps", "20", "--h", "0.005", "--out"],
    }
    got = {}
    for name, argv in runs.items():
        out = tmp_path / name
        assert main(argv + [str(out), "--config", str(cfg)]) == 0
        got[name] = hashlib.sha256(out.read_bytes()).hexdigest()
    assert got == _PINNED_SHA256


@pytest.mark.parametrize(
    "limit_cfg",
    [
        {"kappa": "2", "h": True, "c": "0.5"},
        {"kappa": "2"},
        {"tau": True},
        {"t": float("nan")},
        {"h": True},
        {"h": "0.01"},
        {"horizon": False},
        {"horizon": float("inf")},
        {"c": "0.5"},
        {"c": [True]},
        {"c": [0.5, "0.2"]},
        {"c": 0.5},
        {"kappa": None},
        {"horizon": None},
        {"kapa": 2.0},
        {"reps": 3},
    ],
)
def test_limit_config_values_are_checked(limit_cfg, tmp_path, capsys):
    """The config's limit entry follows the q/q_max rules: non-bool finite
    numbers, h and horizon > 0, c a list of numbers, no nulls and no keys
    that limit does not read."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"limit": limit_cfg}))
    out = tmp_path / "out"
    assert main(["limit", "--reps", "2", "--out", str(out), "--config", str(cfg)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_limit_config_names_the_keys_it_does_not_read(tmp_path, capsys):
    """A misspelt parameter or a budget in the limit object is refused by
    name instead of running at the defaults (reps is the --reps flag only)."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"limit": {"kapa": 2.0, "reps": 3}, "seed": 1}))
    out = tmp_path / "out"
    assert main(["limit", "--reps", "2", "--out", str(out), "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "'kapa'" in err and "'reps'" in err
    assert not out.exists()


@pytest.mark.parametrize("argv", [["--c", "nan"], ["--h", "inf"], ["--reps", "0"]])
def test_limit_flag_values_are_checked(argv, tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["limit", "--reps", "2", "--out", str(out)] + argv) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_limit_config_accepts_numbers(tmp_path):
    cfg = tmp_path / "cfg.json"
    limit_cfg = {"kappa": 2, "tau": 0, "t": -0.5, "h": 0.01, "c": [1, 0.5], "horizon": 3}
    cfg.write_text(json.dumps({"seed": 4, "limit": limit_cfg}))
    out = tmp_path / "out"
    assert main(["limit", "--reps", "2", "--out", str(out), "--config", str(cfg)]) == 0
    # the same run from flags, where c is comma-separated
    flags = ["--kappa", "2", "--tau", "0", "--t", "-0.5", "--h", "0.01", "--c", "1,0.5",
             "--horizon", "3", "--seed", "4"]
    out2 = tmp_path / "out2"
    assert main(["limit", "--reps", "2", "--out", str(out2)] + flags) == 0
    assert out.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--out"],
        ["forest", "--out"],
        ["surplus", "--out"],
        ["surplus", "--variant", "multigraph", "--out"],
        ["surplus", "--static", "--out"],
        ["mosaic", "--shade", "--svg"],
        ["limit", "--reps", "2", "--h", "0.01", "--out"],
    ],
)
def test_every_subcommand_runs_on_one_vertex(argv, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"masses": [1.25], "seed": 3, "q": 1.5, "q_max": 1.5, "reps": 2}))
    out = tmp_path / "out"
    assert main(argv + [str(out), "--config", str(cfg)]) == 0
    text = out.read_text()
    if argv[0] == "simulate":
        assert text.splitlines() == ["rep,event,time,left_lo,left_hi,left_mass,right_lo,"
                                     "right_hi,right_mass,child,parent"]
    elif argv[0] == "forest":
        assert text.splitlines()[1:] == ["0,0,,0", "1,0,,0"]
    elif argv[0] == "surplus":
        rows = [line.split(",") for line in text.splitlines()[1:]]
        assert all(r[2] == "loop" and r[3] == r[4] == "0" for r in rows)
    elif argv[0] == "mosaic":
        assert text.count("stroke-dasharray") == 1 and text.count("<polygon") == 1
    else:
        assert text.startswith("source,rep,rank,excursion_length,mark_count\n")


_COLD_START = """
import sys

import mcmosaic
import mcmosaic.cli

cfg, out = sys.argv[1], sys.argv[2]
for argv in (
    ["simulate", "--out"],
    ["forest", "--out"],
    ["surplus", "--out"],
    ["surplus", "--variant", "multigraph", "--out"],
    ["surplus", "--static", "--out"],
    ["mosaic", "--shade", "--svg"],
    ["limit", "--reps", "2", "--h", "0.01", "--out"],
):
    assert mcmosaic.cli.main(argv + [out, "--config", cfg]) == 0, argv
assert "scipy" not in sys.modules, sorted(m for m in sys.modules if m.startswith("scipy"))

from mcmosaic.stats import chi_square_homogeneity

res = chi_square_homogeneity([40, 30, 30], [20, 50, 30])
assert "scipy.stats" in sys.modules
from scipy import stats

assert res.p_value == float(stats.chi2.sf(res.statistic, res.dof)), res
"""


def test_import_and_data_subcommands_leave_scipy_unloaded(tmp_path):
    """A fresh interpreter imports the package and runs the data subcommands
    on numpy alone; the first p-value loads scipy and returns its double."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"masses": [1.0, 1.5, 0.75, 2.0, 1.25], "seed": 3, "q": 1.5,
                               "q_max": 1.5, "reps": 2}))
    src = str(Path(mcmosaic.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _COLD_START, str(cfg), str(tmp_path / "out")],
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
