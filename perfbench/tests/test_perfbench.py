"""The benchmark's own tests: tiny-size runs of every workload.

Run from the repository root::

    PYTHONPATH=src python -m pytest perfbench/tests -q

They are not part of the tier-1 suite (``testpaths`` is ``tests``):
each one starts several interpreters and, for ``cross_shard``, shard
processes.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
RUN = os.path.join("perfbench", "run.py")
WORKLOADS = ("social_causal", "durable_fanout", "cross_shard")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _run(*args: str, cwd: str = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, RUN, "--quick", "--seconds", "0", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> tuple:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["meta"], json.loads(lines[-1])


def _check_metrics(result: dict, declared: list) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert sorted(result["metrics"]) == sorted(m["name"] for m in declared)
    for metric in declared:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], float)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_smoke_prints_every_end_to_end_metric(workload):
    meta, result = _result(_run("--workload", workload, "--seed", "1",
                                "--trace", "0"))
    _check_metrics(result, _spec()["end_to_end"])
    assert all(result["metrics"][name]["value"] > 0
               for name in result["metrics"])
    assert meta["quick"] is True and meta["nproc"] >= 1


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_smoke_reports_every_layer(workload):
    meta, result = _result(_run("--workload", workload, "--seed", "2",
                                "--trace", "1"))
    _check_metrics(result, _spec()["per_layer"])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["error_rate"] == 0.0
    # ROADMAP's "stage sums match end to end within 10%".
    assert metrics["trace.coverage"] >= 0.9
    # The wrappers must not change behaviour: the traced and untraced
    # rounds of one seed end with equal replica contents.
    assert meta["same_replicas"] is True


def test_coverage_counts_only_program_layer_spans(tmp_path):
    """A write call whose program-layer spans cover half of it reads as
    half covered: the benchmark's own wrapper is not counted."""
    sys.path.insert(0, os.path.join(ROOT, "perfbench"))
    from layers import layer_metrics
    from tracer import SpanRecorder

    spans = SpanRecorder()
    spans.marks.update(burst=[[0.0, 1.0]], drain=[[1.0, 2.0]], workers=1)
    thread = 1
    app = ["app.write", 0.0, 1.0, None, None, thread]
    spans.spans[:] = [["orm", 0.25, 0.75, app, None, thread], app]
    path = str(tmp_path / "spans.jsonl")
    spans.dump(path)
    cycles = [{"writes": 1, "first": 0.0, "written": 1.0, "quiet": 2.0,
               "burst_cpu": 1.0, "drain_cpu": 1.0}]
    result = {"cycles": cycles, "give_ups": 0, "apply_errors": 0}
    metrics = layer_metrics([path], result, result)
    assert metrics["trace.coverage"] == pytest.approx(0.5)
    assert metrics["orm.self_us"] == pytest.approx(0.5e6)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", "social_causal", "--seed", "1", "--trace", "0",
                cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
