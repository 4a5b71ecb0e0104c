"""Smoke test of the benchmark at tiny sizes.

Every workload runs in both modes, prints every metric BENCHMARK.json declares
with its unit, and passes its exact checks; a broken identity makes the run
exit non-zero, and so does a directory without the package.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def _bench(capsys, tmp_path, workload, trace):
    code = run.main([
        "--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace),
        "--size", "tiny", "--out-dir", str(tmp_path),
    ])
    out = capsys.readouterr().out
    return code, json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_declared_metrics(capsys, tmp_path, workload, trace):
    code, result = _bench(capsys, tmp_path, workload, trace)
    assert code == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: m["unit"] for k, m in result["metrics"].items()} == {
        d["name"]: d["unit"] for d in declared
    }
    for m in result["metrics"].values():
        assert isinstance(m["value"], (int, float))
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_broken_identity_fails_the_run(capsys, tmp_path, monkeypatch):
    run.load_package()
    from mcmosaic.dynamics import Trajectory

    monkeypatch.setattr(Trajectory, "partition_at", lambda self, q: frozenset())
    code, result = _bench(capsys, tmp_path, "supercritical", 0)
    assert code == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "critical", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
