"""End-to-end measurement: the path ``gkbo bench`` takes, untraced.

Only ``ExperimentConfig``, ``run_experiment``, ``write_results``, ``preset``,
``evaluate_success``, ``SUCCESS_THRESHOLD`` and ``BASE_MINIMUM`` are used
here, so a refactor of the solver API can break the traced run but never this
part.
"""

from __future__ import annotations

import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from gkbo import preset, run_experiment, write_results

from .checks import report_problems, reports_digest, spurious_points
from .workloads import Workload

#: Fresh interpreters started to time set-up; the median is reported.
SETUP_SAMPLES = 9

_SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [{src!r}, {root!r}]
import gkbo.cli
from perfbench.workloads import WORKLOADS
workload = WORKLOADS[{name!r}]
for block in range({blocks}):
    cfg = workload.experiment({seed}, block)
    for dim in workload.dims:
        gkbo.preset(cfg.objective, dim)
print(time.perf_counter() - start)
"""


@dataclass
class Outcome:
    """What one benchmark run found: counts, metrics and notes for the log."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    metrics: dict = field(default_factory=dict)
    notes: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}

    def check(self, label: str, report, spec, n_agents: int, n_steps: int) -> None:
        """Count ``report`` as attempted, and as failed if it breaks an invariant."""
        self.attempted += 1
        found = report_problems(report, spec, n_agents, n_steps)
        if found:
            self.failed += 1
            self.problems.extend(f"{label}: {problem}" for problem in found)


@dataclass
class Block:
    """One experiment of a run: its timings and its scored sweep results."""

    experiment_s: float
    write_s: float
    written_bytes: int
    results: list  # (ObjectiveSpec, SweepResult) per sweep value

    @property
    def wall_s(self) -> float:
        return self.experiment_s + self.write_s


def run_blocks(
    workload: Workload, seed: int, blocks: int, workdir: Path, workers: int, out: Outcome
) -> list:
    """Run, write and check blocks ``0 .. blocks-1``; a block that raises is counted as failed."""
    done = []
    for block in range(blocks):
        cfg = workload.experiment(seed, block)
        csv_path = workdir / f"block{block}.csv"
        try:
            start = time.perf_counter()
            summary = run_experiment(cfg, workers=workers)
            middle = time.perf_counter()
            write_results(summary, csv_path)
            end = time.perf_counter()
        except Exception:  # a run that raises fails its whole block; keep measuring
            traceback.print_exc()
            runs = cfg.repetitions * len(workload.dims)
            out.attempted += runs
            out.failed += runs
            out.problems.append(f"block {block} (base seed {cfg.base_seed}) raised")
            continue
        written = csv_path.stat().st_size + csv_path.with_suffix(".json").stat().st_size
        n_steps = cfg.solver_config.n_steps
        results = []
        for result in summary.results:
            dim = workload.dims[0] if result.sweep_value is None else int(result.sweep_value)
            spec = preset(workload.objective, dim)
            for run_seed, report in zip(result.seeds, result.reports):
                out.check(f"d={dim} seed={run_seed}", report, spec, cfg.n_agents, n_steps)
            results.append((spec, result))
        done.append(Block(middle - start, end - middle, written, results))
    return done


def measure_end_to_end(
    workload: Workload, seed: int, seconds: float, workdir: Path, workers: int
) -> Outcome:
    """Time ``run_experiment`` + ``write_results`` over the run's blocks and score the reports."""
    out = Outcome()
    blocks = run_blocks(workload, seed, workload.blocks(seconds), workdir, workers, out)
    if not blocks:
        return out
    out.notes["golden_digest"] = reports_digest(
        report for _, result in blocks[0].results for report in result.reports
    )
    results = [pair for block in blocks for pair in block.results]
    run_seconds = [t for _, result in results for t in result.run_seconds]
    iterations = sum(sum(result.iterations) for _, result in results)
    reports = [(spec, report) for spec, result in results for report in result.reports]

    out.metric("wall_s", statistics.median(block.wall_s for block in blocks), "s")
    out.metric("run_s", statistics.median(run_seconds), "s")
    out.metric("steps_per_s", iterations / sum(run_seconds), "1/s")
    detected = [n for _, result in results for n in result.detected]
    out.metric("detected_minima", statistics.fmean(detected), "count")
    out.metric(
        "consensus_points",
        statistics.fmean(len(report.final_consensus) for _, report in reports),
        "count",
    )
    # Pool workers have been joined, so RUSAGE_CHILDREN covers all of them.
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    out.metric("peak_rss_mb", peak_kib / 1024.0, "MB")
    out.notes.update(
        blocks=len(blocks),
        runs=len(run_seconds),
        success_rate=statistics.fmean(ok for _, result in results for ok in result.successes),
        spurious_points=statistics.fmean(
            spurious_points(report, spec.minimizers) for spec, report in reports
        ),
    )
    return out


def measure_setup(workload: Workload, seed: int, seconds: float, root: Path) -> float:
    """Median over fresh interpreters of ``import gkbo.cli`` plus building the run's configs."""
    code = _SETUP_CHILD.format(
        src=str(root / "src"),
        root=str(root),
        name=workload.name,
        blocks=workload.blocks(seconds),
        seed=int(seed),
    )
    samples = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)
