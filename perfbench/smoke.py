"""Smoke test of the end-to-end benchmark at toy size.

Run from the repository root (the file name keeps it out of the default
test collection)::

    python3 -m pytest -q perfbench/smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_declared_workloads_are_the_benchmarks():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_toy_run_emits_the_declared_metrics(workload, trace, capsys):
    argv = ["--workload", workload, "--seed", "3", "--seconds", "0.5", "--trace", str(trace)]
    assert run.main(argv, size="toy") == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_forced_oracle_mismatch_shows_in_fail_frac(monkeypatch):
    monkeypatch.setattr(workloads, "REL_TOL", -1.0)
    record = run.run_workload("queries-mid", 3, 0.5, False, size="toy")
    assert record["fail_frac"] > 0
    assert any("oracle mismatch" in f["error"] for f in record["failures"])
    assert not run.result_line(record)["correct"]


def test_no_process_outlives_a_fleet_run():
    import multiprocessing
    from multiprocessing import resource_tracker

    record = run.run_workload("fleet-grid", 3, 0.5, False, size="toy")
    assert record["failed"] == 0
    run.stop_children()
    assert multiprocessing.active_children() == []
    assert resource_tracker._resource_tracker._pid is None


def test_exits_nonzero_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("results", "work", "__pycache__"))
    argv = [sys.executable, *BENCHMARK["command"][1:],
            "--workload", "queries-mid", "--seed", "1", "--seconds", "1", "--trace", "0"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
