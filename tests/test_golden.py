"""Bit-identity guard: seeded solver reports pinned by SHA-256.

Each case is a short seeded run; its digest covers every report field a
refactor of the step loop could disturb. A digest may change only together
with a stated change of the random stream or the arithmetic, recorded in
CHANGES.md.
"""

import hashlib

import numpy as np
import pytest

from gkbo import PcboConfig, SolverConfig, preset, run_gkbo, run_pcbo

CASES = {
    "gkbo-rastrigin2-d2-anisotropic": (
        lambda: run_gkbo(preset("rastrigin2", 2), SolverConfig(n_steps=200, seed=3), 300),
        "d72bbcbd9fb70f4ed72b8ba63c7e4961cf02160447ca7c8e1b264f0f7dec2fd2",
    ),
    "gkbo-ackley4-d10-anisotropic": (
        lambda: run_gkbo(preset("ackley4", 10), SolverConfig(n_steps=80, seed=1), 200),
        "9c14eeb8d41fc4551688157b594ea298bb3ce8ab7395848b85436b9ef9b387d4",
    ),
    "gkbo-ackley2-d2-isotropic": (
        lambda: run_gkbo(
            preset("ackley2", 2), SolverConfig(diffusion="isotropic", n_steps=150, seed=2), 200
        ),
        "8086af886b9f8acde50609c8957f70d423962f0bbf8daa8173cf77c5a7be359c",
    ),
    "pcbo-ackley2-d3": (
        lambda: run_pcbo(preset("ackley2", 3), PcboConfig(n_steps=200, seed=4), 200),
        "00645aefedcab72a450d128b8948342c19856d91ee055e93adf92a927aac6e14",
    ),
}


def report_digest(report) -> str:
    """SHA-256 over iterations, best_value, leader_count, evaluations and final_consensus."""
    points = np.ascontiguousarray(report.final_consensus, dtype="<f8")
    digest = hashlib.sha256()
    digest.update(
        np.array(
            [report.iterations, report.leader_count, report.evaluations, *points.shape],
            dtype="<i8",
        ).tobytes()
    )
    digest.update(np.array([report.best_value], dtype="<f8").tobytes())
    digest.update(points.tobytes())
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CASES))
def test_seeded_report_is_bit_identical(name):
    run, expected = CASES[name]
    assert report_digest(run()) == expected
