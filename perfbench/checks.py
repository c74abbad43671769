"""Correctness checks, quality scores and golden digests of solver reports."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

from gkbo import BASE_MINIMUM, SUCCESS_THRESHOLD

GOLDEN_PATH = Path(__file__).with_name("golden.json")


def report_problems(report, spec, n_agents: int, n_steps: int) -> list[str]:
    """Every way ``report`` breaks the invariants of a finished solver run."""
    problems = []
    if report.evaluations != n_agents * (report.iterations + 1):
        problems.append(
            f"evaluations {report.evaluations} != n_agents * (iterations + 1) = "
            f"{n_agents * (report.iterations + 1)}"
        )
    if not 0 <= report.iterations <= n_steps:
        problems.append(f"iterations {report.iterations} outside [0, {n_steps}]")
    if not report.stalled and report.iterations != n_steps:
        problems.append(f"run neither stalled nor used its {n_steps} steps ({report.iterations})")
    floor = BASE_MINIMUM[spec.kind] - 1e-9
    if not (math.isfinite(report.best_value) and report.best_value >= floor):
        problems.append(f"best_value {report.best_value} is not finite and >= {floor}")
    points = np.asarray(report.final_consensus)
    if points.ndim != 2 or points.shape[1] != spec.dim:
        problems.append(f"final_consensus has shape {points.shape}, expected (m, {spec.dim})")
    elif not 1 <= points.shape[0] <= report.leader_count:
        problems.append(
            f"{points.shape[0]} consensus points for {report.leader_count} leaders"
        )
    elif not np.isfinite(points).all():
        problems.append("final_consensus has non-finite coordinates")
    return problems


def spurious_points(report, minimizers) -> int:
    """Consensus points farther than SUCCESS_THRESHOLD (max norm) from every minimizer."""
    points = np.asarray(report.final_consensus, dtype=np.float64)
    gaps = np.abs(points[:, np.newaxis, :] - minimizers[np.newaxis, :, :]).max(axis=2)
    return int((gaps.min(axis=1) > SUCCESS_THRESHOLD).sum())


def reports_digest(reports) -> str:
    """SHA-256 over (iterations, best_value, final_consensus) of each report, in order."""
    digest = hashlib.sha256()
    for report in reports:
        points = np.ascontiguousarray(report.final_consensus, dtype="<f8")
        digest.update(np.array([report.iterations, *points.shape], dtype="<i8").tobytes())
        digest.update(np.array([report.best_value], dtype="<f8").tobytes())
        digest.update(points.tobytes())
    return digest.hexdigest()


def load_golden(path: Path = GOLDEN_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def golden_status(workload: str, seed: int, digest: str, path: Path = GOLDEN_PATH) -> str:
    """``match``, ``mismatch`` or ``unrecorded`` against the recorded digest."""
    recorded = load_golden(path).get(workload, {}).get(str(seed))
    if recorded is None:
        return "unrecorded"
    return "match" if recorded == digest else "mismatch"


def record_golden(workload: str, seed: int, digest: str, path: Path = GOLDEN_PATH) -> None:
    golden = load_golden(path)
    golden.setdefault(workload, {})[str(seed)] = digest
    path.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")
