"""Tests of the benchmark itself: schema, report checker, replicas and a smoke run.

They use tiny populations and set no timing bounds.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import gkbo
from gkbo import ExperimentConfig, preset, run_experiment

from perfbench import checks, measure
from perfbench.measure import measure_end_to_end
from perfbench.traced import measure_layers
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _tiny(workload):
    return dataclasses.replace(
        workload,
        n_agents=30,
        repetitions=1,
        block_seconds=1.0,
        trace_reps=1,
        dims=workload.dims[:2],
    )


TINY_RASTRIGIN = _tiny(WORKLOADS["gkbo-rastrigin2"])


def _declared(section):
    return {metric["name"]: metric["unit"] for metric in BENCHMARK[section]}


def test_benchmark_json_names_every_workload():
    declared = {w["name"]: w["why"] for w in BENCHMARK["workloads"]}
    assert declared == {name: w.why for name, w in WORKLOADS.items()}
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_emits_declared_metrics(name, tmp_path):
    workload = _tiny(WORKLOADS[name])
    end_to_end = measure_end_to_end(workload, seed=3, seconds=2, workdir=tmp_path, workers=1)
    assert end_to_end.correct, end_to_end.problems
    assert end_to_end.attempted == 2 * workload.repetitions * len(workload.dims)
    end_to_end.metric("setup_s", 1.0, "s")
    assert {k: m["unit"] for k, m in end_to_end.metrics.items()} == _declared("end_to_end")
    assert all(math.isfinite(m["value"]) for m in end_to_end.metrics.values())

    layers = measure_layers(workload, seed=3, workdir=tmp_path, workers=1)
    assert layers.correct, layers.problems
    assert {k: m["unit"] for k, m in layers.metrics.items()} == _declared("per_layer")
    assert all(math.isfinite(m["value"]) for m in layers.metrics.values())


def test_trace_names_a_missing_public_name(monkeypatch, tmp_path):
    monkeypatch.setattr(gkbo, "__all__", [n for n in gkbo.__all__ if n != "assign_clusters"])
    layers = measure_layers(TINY_RASTRIGIN, seed=0, workdir=tmp_path, workers=1)
    assert not layers.correct and layers.metrics == {}
    assert "assign_clusters" in layers.problems[0]


def test_trace_withholds_metrics_when_a_replica_diverges(monkeypatch, tmp_path):
    solve = gkbo.run_gkbo

    def drifted(*args):
        report = solve(*args)
        return dataclasses.replace(report, best_value=report.best_value + 1e-12)

    monkeypatch.setattr(gkbo, "run_gkbo", drifted)
    layers = measure_layers(TINY_RASTRIGIN, seed=0, workdir=tmp_path, workers=1)
    assert not layers.correct and layers.metrics == {}
    assert any("seed=0" in p and "best_value" in p for p in layers.problems)


def test_setup_runs_in_a_fresh_interpreter(monkeypatch):
    monkeypatch.setattr(measure, "SETUP_SAMPLES", 2)
    assert measure.measure_setup(WORKLOADS["gkbo-rastrigin2"], seed=0, seconds=30, root=ROOT) > 0


def _tiny_reports():
    cfg = ExperimentConfig.from_dict(
        {"n_agents": 20, "repetitions": 1, "solver_config": {"n_steps": 15}}
    )
    report = run_experiment(cfg, workers=1).results[0].reports[0]
    return preset("rastrigin2", 2), report


def test_checker_accepts_a_real_report():
    spec, report = _tiny_reports()
    assert checks.report_problems(report, spec, n_agents=20, n_steps=15) == []


@pytest.mark.parametrize(
    "change",
    [
        {"evaluations": lambda r: r.evaluations + 20},
        {"iterations": lambda r: r.iterations - 1},
        {"best_value": lambda r: -10.0 - 1e-6},
        {"best_value": lambda r: math.nan},
        {"leader_count": lambda r: r.final_consensus.shape[0] - 1},
        {"final_consensus": lambda r: np.full_like(r.final_consensus, np.inf)},
        {"final_consensus": lambda r: r.final_consensus[:, :1]},
    ],
)
def test_checker_rejects_a_doctored_report(change):
    spec, report = _tiny_reports()
    doctored = dataclasses.replace(report, **{k: f(report) for k, f in change.items()})
    assert checks.report_problems(doctored, spec, n_agents=20, n_steps=15)


def test_digest_and_golden_status(tmp_path):
    spec, report = _tiny_reports()
    digest = checks.reports_digest([report])
    moved = dataclasses.replace(report, best_value=report.best_value + 1e-12)
    assert checks.reports_digest([moved]) != digest
    golden = tmp_path / "golden.json"
    assert checks.golden_status("w", 1, digest, golden) == "unrecorded"
    checks.record_golden("w", 1, digest, golden)
    assert checks.golden_status("w", 1, digest, golden) == "match"
    assert checks.golden_status("w", 1, checks.reports_digest([moved]), golden) == "mismatch"


def test_spurious_points_uses_the_success_threshold():
    spec, report = _tiny_reports()
    points = np.array([[5.0, 5.0], [5.2, -5.2], [0.0, 0.0]])
    moved = dataclasses.replace(report, final_consensus=points)
    assert checks.spurious_points(moved, spec.minimizers) == 2


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gkbo-rastrigin2", "--seconds", "1"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
