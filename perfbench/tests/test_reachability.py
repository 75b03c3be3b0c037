"""Reachability check for the layer map in ``perfbench/LAYERS.md``.

Runs each workload traced (``--trace 1``, a few queries) in its own
process and checks that every wrapped boundary fires on the workloads
``tracing.BOUNDARIES`` names and nowhere else, that the program's own
``repro.obs`` counters equal the wrapper counts, and that traced answers
equal untraced ones.  A run whose metrics differ from those
``BENCHMARK.json`` declares exits non-zero, which the fixture rejects.  Run with ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracing  # noqa: E402

SEED = 7


@pytest.fixture(scope="module", params=run.WORKLOADS)
def traced(request):
    workload = request.param
    child = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170,
    )
    assert child.returncode == 0, child.stderr[-3000:]
    result = json.loads(child.stdout.strip().splitlines()[-1])
    trace_file = BENCH / "out" / f"trace-{workload}-seed{SEED}.json"
    return workload, result, json.loads(trace_file.read_text())


def test_boundaries_fire_only_where_expected(traced):
    workload, _, trace = traced
    assert trace["missing_boundaries"] == []
    calls = {}
    for phase in ("setup", "query"):
        for name, bucket in trace["boundaries"][phase].items():
            calls[name] = calls.get(name, 0) + bucket["calls"]
    fired = {name for name, n in calls.items() if n > 0}
    expected = {b.name for b in tracing.BOUNDARIES if workload in b.fires_on}
    assert fired == expected


def test_program_counters_agree_with_wrappers(traced):
    _, result, trace = traced
    assert trace["counter_mismatches"] == []
    assert result["metrics"]["trace.counter_mismatches"]["value"] == 0


def test_traced_answers_are_correct_and_identical(traced):
    _, result, _ = traced
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0


def test_exits_without_result_when_program_is_absent(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out"))
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "line-delay",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
