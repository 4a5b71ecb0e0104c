"""Bookkeeping of the acceptance suites: retries, on runs stubbed to fail
once, and the work that a suite's budget bounds."""

from dataclasses import replace

from mcmosaic import stats, verify


def test_retry_keeps_the_failed_first_attempt():
    seeds = []

    def run(s):
        seeds.append(s)
        return verify._result(9, "stub", len(seeds) > 1, {"seed": s, "ks": [0.5]})

    out = verify._with_retry(run, 7)
    assert seeds == [7, 7 + verify._RETRY_SHIFT]
    assert out["passed"] and out["retried"]
    assert out["details"] == {
        "seed": 7 + verify._RETRY_SHIFT,
        "ks": [0.5],
        "first_attempt": {"seed": 7, "ks": [0.5]},
    }
    out = verify._with_retry(lambda s: verify._result(9, "stub", True, {"seed": s}), 7)
    assert out["details"] == {"seed": 7} and not out["retried"]


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
