"""Bookkeeping of the acceptance suites: their registry, retries on runs
stubbed to fail once, and the work that a suite's budget bounds."""

import inspect
from dataclasses import replace

from mcmosaic import cli, stats, verify


def test_retry_keeps_the_failed_first_attempt(monkeypatch):
    """A suite registered with retry reruns a failed first attempt once at
    the shifted seed, and keeps that attempt's details; a passing suite
    runs once.  Registration fills SUITES with (number, suite)."""
    monkeypatch.setattr(verify, "SUITES", {})
    seeds = []

    @verify._suite(9, "stub", retry=True)
    def flaky(seed=7):
        seeds.append(seed)
        return len(seeds) > 1, {"seed": seed, "ks": [0.5]}

    @verify._suite(10, "steady", retry=True)
    def steady(seed=7):
        return True, {"seed": seed}

    assert verify.SUITES == {"stub": (9, flaky), "steady": (10, steady)}
    out = flaky(7)
    assert seeds == [7, 7 + verify._RETRY_SHIFT]
    assert out == {
        "criterion": 9,
        "name": "stub",
        "passed": True,
        "details": {
            "seed": 7 + verify._RETRY_SHIFT,
            "ks": [0.5],
            "first_attempt": {"seed": 7, "ks": [0.5]},
        },
        "retried": True,
    }
    out = steady()
    assert out["details"] == {"seed": 7} and not out["retried"]


# number, name, public function, parameters with defaults, and a small budget
_REGISTRY = [
    (1, "static-law", "check_static_law", {"seed": 7, "reps": 100_000}, {"reps": 20}),
    (2, "process-law", "check_process_law", {"seed": 7, "reps": 100_000}, {"reps": 20}),
    (3, "slice-rates", "check_slice_rates", {"seed": 7, "instances": 1000}, {"instances": 2}),
    (4, "surplus-poisson", "check_surplus_poisson",
     {"seed": 7, "trajectories": 100, "reps": 100_000}, {"trajectories": 1, "reps": 50}),
    (5, "intensity", "check_intensity", {"seed": 7, "instances": 1000}, {"instances": 2}),
    (6, "monotone-logs", "check_monotone_logs", {"seed": 7, "trajectories": 1000},
     {"trajectories": 2}),
    (7, "mosaic-roundtrip", "check_mosaic_roundtrip", {"seed": 7, "instances": 1000},
     {"instances": 2}),
    (8, "merge-rate", "check_merge_rate", {"seed": 7, "reps": 100_000}, {"reps": 20}),
    (9, "scaling", "check_scaling", {"seed": 7, "reps": 10_000, "batches": 5},
     {"reps": 20, "batches": 1}),
    (10, "determinism", "check_determinism", {"seed": 7}, {}),
]


def test_registry_pins_every_suite(monkeypatch):
    """Each suite sits in SUITES under its name and number, in criterion
    order, as the public check_* function with its parameters and defaults,
    and returns the five-key verdict (here on small budgets, and criterion
    9 on a small grid); a suite called positionally reads its arguments in
    signature order."""
    monkeypatch.setattr(verify, "_SCALING_N", (20, 40, 80))
    monkeypatch.setattr(verify, "_SCALING_LIMIT_REPS", 200)
    assert [(num, name) for name, (num, _) in verify.SUITES.items()] == [
        (num, name) for num, name, *_ in _REGISTRY
    ]
    for num, name, public, params, budget in _REGISTRY:
        fn = verify.SUITES[name][1]
        assert fn is getattr(verify, public) and public in verify.__all__
        signature = inspect.signature(fn).parameters
        assert [(k, p.default) for k, p in signature.items()] == list(params.items()), name
        out = fn(**budget)
        assert list(out) == ["criterion", "name", "passed", "details", "retried"], name
        assert (out["criterion"], out["name"]) == (num, name)
        assert type(out["passed"]) is bool and type(out["retried"]) is bool, name
    out = verify.check_intensity(7, 3)
    assert out == verify.check_intensity(seed=7, instances=3)
    assert out["details"]["instances"] == 3 and out["passed"] and not out["retried"]


def test_surplus_poisson_lists_first_draw_failures(monkeypatch):
    """A component failing its first draw only is listed in
    first_draw_failures with its target and moments, not in failures."""
    calls = []
    moment_test = stats.poisson_mean_test

    def fail_first(counts, target):
        res = moment_test(counts, target)
        calls.append(res)
        return replace(res, passed=False) if len(calls) == 1 else res

    monkeypatch.setattr(verify.stats, "poisson_mean_test", fail_first)
    out = verify.check_surplus_poisson(seed=7, trajectories=2, reps=2000)
    first = calls[0]
    assert out["passed"] and out["retried"]
    assert out["details"]["failures"] == []
    assert out["details"]["first_draw_failures"] == [
        {
            "trajectory": 0,
            "component": 0,
            "target": first.target,
            "mean": first.mean,
            "variance": first.variance,
        }
    ]


def test_merge_rate_reps_bound_the_endpoint_draws():
    """The endpoint-law part draws min(reps, 30,000) three-vertex
    trajectories, one merger with a two-vertex side each."""
    out = verify.check_merge_rate(reps=500)
    assert out["details"]["endpoint_events"] == 500


def test_determinism_data_runs_write_data_rows(monkeypatch):
    """Criterion 10 compares files worth comparing: every CSV run writes data
    rows, and the limit run enough excursions (a step of h = 0.05 puts the
    detection threshold 10 sqrt(h) above all but one)."""
    rows = {}
    main = cli.main

    def counted(argv):
        code = main(argv)
        if argv[0] in ("simulate", "forest", "surplus", "limit"):
            with open(argv[-1], encoding="utf-8") as fh:
                rows.setdefault(argv[0], []).append(len(fh.read().splitlines()) - 1)
        return code

    monkeypatch.setattr(cli, "main", counted)
    assert verify.check_determinism()["passed"]
    assert sorted(rows) == ["forest", "limit", "simulate", "surplus"]
    assert all(len(set(n)) == 1 and n[0] > 0 for n in rows.values()), rows
    assert rows["limit"][0] >= 10, rows
